"""Nearest-point projection onto the movable-antenna feasible region.

The region for one antenna is a square (the array area) minus a union of
discs of radius D_min around the other antennas on the same side.  The
nearest feasible point to an unconstrained target is found from a small
candidate family: the square clamp, the point where the ray from a disc
center toward the target leaves that disc, pairwise disc intersections,
and disc/square-edge intersections.  First-order conditions put the true
projection inside this family, so the search walks candidate to candidate
until one is feasible against everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed unit direction used when a target sits exactly on a disc center and
# the outward ray is undefined.  Any fixed choice keeps the projection
# deterministic; an irrational angle avoids axis-aligned degeneracies.
_DEGENERATE_DIR = np.array([np.cos(0.7528600724), np.sin(0.7528600724)])


@dataclass
class FeasibleRegionSpec:
    """Square of given half width minus discs of `radius` around obstacles."""

    half_width: float
    obstacles: np.ndarray  # (M, 2); may be empty
    radius: float

    def __post_init__(self):
        self.obstacles = np.asarray(self.obstacles, dtype=float).reshape(-1, 2)

    @property
    def slack(self) -> float:
        return 1e-9 * max(self.half_width, self.radius)


def clamp_to_square(point: np.ndarray, half_width: float) -> np.ndarray:
    return np.clip(point, -half_width, half_width)


def is_feasible(point: np.ndarray, spec: FeasibleRegionSpec,
                slack: float | None = None) -> bool:
    if slack is None:
        slack = spec.slack
    if np.any(np.abs(point) > spec.half_width + slack):
        return False
    if spec.obstacles.size == 0:
        return True
    d = np.linalg.norm(spec.obstacles - point, axis=1)
    return bool(np.all(d >= spec.radius - slack))


def ray_circle_exit(center: np.ndarray, radius: float,
                    target: np.ndarray) -> np.ndarray:
    """Point where the ray from `center` through `target` crosses the circle.

    This is the nearest point of the circle to the target.  A target on the
    center itself uses a fixed fallback direction.
    """
    d = target - center
    dist = float(np.linalg.norm(d))
    if dist < 1e-15 * max(1.0, radius):
        return center + radius * _DEGENERATE_DIR
    return center + (radius / dist) * d


def circle_circle_intersections(c_a: np.ndarray, c_b: np.ndarray,
                                radius: float) -> list[np.ndarray]:
    """Intersections of two equal-radius circles (0, 1 or 2 points).

    Centers exactly 2*radius apart touch at the midpoint; farther apart or
    (degenerately) coincident centers give no intersection.
    """
    delta = c_b - c_a
    d = float(np.linalg.norm(delta))
    tol = 1e-12 * max(1.0, radius)
    if d < tol or d > 2.0 * radius + tol:
        return []
    mid = 0.5 * (c_a + c_b)
    h2 = radius * radius - 0.25 * d * d
    if h2 <= tol * radius:
        return [mid]
    h = np.sqrt(h2)
    perp = np.array([-delta[1], delta[0]]) / d
    return [mid + h * perp, mid - h * perp]


def circle_square_intersections(center: np.ndarray, radius: float,
                                half_width: float) -> list[np.ndarray]:
    """Points where a circle crosses the square boundary."""
    out = []
    cx, cy = center
    for edge in (-half_width, half_width):
        dx2 = radius * radius - (edge - cx) ** 2
        if dx2 >= 0.0:
            for s in (1.0, -1.0):
                y = cy + s * np.sqrt(dx2)
                if abs(y) <= half_width:
                    out.append(np.array([edge, y]))
        dy2 = radius * radius - (edge - cy) ** 2
        if dy2 >= 0.0:
            for s in (1.0, -1.0):
                x = cx + s * np.sqrt(dy2)
                if abs(x) <= half_width:
                    out.append(np.array([x, edge]))
    return out


def _fallback_ring_search(sp: np.ndarray, spec: FeasibleRegionSpec) -> np.ndarray:
    """Dense radial sweep used only when the candidate walk stalls.

    Scans rings of growing radius around the target, then refines around the
    first feasible ring.  Raises if the region is genuinely empty at the
    sampled granularity.
    """
    corners = np.array([[sx * spec.half_width, sy * spec.half_width]
                        for sx in (-1, 1) for sy in (-1, 1)])
    max_d = float(np.max(np.linalg.norm(corners - sp, axis=1))) + spec.radius

    def scan(radii, n_ang):
        ang = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        for rad in radii:
            pts = clamp_to_square(sp + rad * ring, spec.half_width)
            ok = np.ones(len(pts), dtype=bool)
            if spec.obstacles.size:
                d = np.linalg.norm(pts[:, None, :] - spec.obstacles[None, :, :],
                                   axis=2)
                ok = np.all(d >= spec.radius - spec.slack, axis=1)
            if np.any(ok):
                cand = pts[ok]
                return cand[np.argmin(np.linalg.norm(cand - sp, axis=1))], rad
        return None, None

    coarse_step = max_d / 512.0
    hit, rad = scan(np.arange(0.0, max_d + coarse_step, coarse_step), 512)
    if hit is None:
        raise RuntimeError("feasible region appears empty around target point")
    fine, _ = scan(np.linspace(max(0.0, rad - coarse_step), rad, 64), 2048)
    return fine if fine is not None else hit


def nearest_feasible_point(sp: np.ndarray, spec: FeasibleRegionSpec) -> np.ndarray:
    """Project a surrogate minimizer onto the feasible region.

    Walks the candidate family described in the module docstring: each round
    collects the discs the current center violates or touches, generates
    their exit/intersection candidates, keeps the one nearest the original
    target that clears the generating discs, and repeats from there.  The
    best candidate feasible against every disc wins; if the walk stalls
    without one, a ring search around the target takes over.
    """
    sp = np.asarray(sp, dtype=float)
    hw, radius, slack = spec.half_width, spec.radius, spec.slack
    obstacles = spec.obstacles
    center = clamp_to_square(sp, hw)
    if is_feasible(center, spec):
        return center

    n_obs = len(obstacles)
    best = None
    best_d = np.inf
    for _ in range(4 * n_obs + 4):
        if is_feasible(center, spec):
            if np.linalg.norm(center - sp) < best_d:
                best = center
            return best
        dists = np.linalg.norm(obstacles - center, axis=1)
        idx = np.flatnonzero(dists <= radius + slack)
        if idx.size == 0:
            break
        cands = []
        for i in idx:
            cands.append(ray_circle_exit(obstacles[i], radius, sp))
            cands.extend(circle_square_intersections(obstacles[i], radius, hw))
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                cands.extend(circle_circle_intersections(
                    obstacles[idx[a]], obstacles[idx[b]], radius))
        pick = None
        pick_d = np.inf
        for c in cands:
            if np.any(np.abs(c) > hw + slack):
                continue
            dc = np.linalg.norm(obstacles - c, axis=1)
            if np.any(dc[idx] < radius - slack):
                continue
            d_sp = float(np.linalg.norm(c - sp))
            if np.all(dc >= radius - slack) and d_sp < best_d:
                best, best_d = c, d_sp
            if d_sp < pick_d:
                pick, pick_d = c, d_sp
        if pick is None or np.linalg.norm(pick - center) <= slack:
            break
        center = pick
    if best is not None:
        return best
    return _fallback_ring_search(sp, spec)


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest distance between any two points; inf for fewer than two."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return np.inf
    diff = points[:, None, :] - points[None, :, :]
    d = np.linalg.norm(diff, axis=2)
    return float(np.min(d[np.triu_indices(len(points), k=1)]))


def layout_side_feasible(points: np.ndarray, half_width: float, d_min: float,
                         slack: float | None = None) -> bool:
    if slack is None:
        slack = 1e-9 * max(half_width, d_min)
    if np.any(np.abs(points) > half_width + slack):
        return False
    return min_pairwise_distance(points) >= d_min - slack
