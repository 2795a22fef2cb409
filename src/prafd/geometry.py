"""Nearest-point projection onto the movable-antenna feasible region.

The region for one antenna is a square (the array area) minus a union of
discs of radius D_min around the other antennas on the same side.  The
nearest feasible point to an unconstrained target lies in a finite
candidate family: the square clamp, the point where the ray from a disc
center toward the target leaves that disc, disc/square-edge crossings and
pairwise disc crossings.  First-order conditions at the nearest point x
show why, by the constraints active there:

1. none: x is the target itself, which is its own clamp;
2. one circle: x is the nearest point of that circle, the ray exit;
3. one square edge: x drops one coordinate onto the edge, the clamp;
4. two square edges: x is a corner, again the clamp;
5. two constraints of which one is a circle: x lies on that circle and on
   the other constraint's boundary, a disc/edge or disc/disc crossing.

So the projection enumerates the family once and keeps the nearest
feasible candidate; when none is feasible the region is empty.
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


def is_feasible(point: np.ndarray, spec: FeasibleRegionSpec) -> bool:
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


def nearest_feasible_point(sp: np.ndarray, spec: FeasibleRegionSpec) -> np.ndarray:
    """Project a surrogate minimizer onto the feasible region.

    Returns the square clamp when it is feasible, else the candidate of the
    module docstring's family nearest to `sp` that `is_feasible` accepts.
    Raises RuntimeError when no candidate is feasible: the region is empty.
    """
    sp = np.asarray(sp, dtype=float)
    hw, radius, obstacles = spec.half_width, spec.radius, spec.obstacles
    clamp = clamp_to_square(sp, hw)
    if is_feasible(clamp, spec):
        return clamp
    cands = []
    for i, c in enumerate(obstacles):
        cands.append(ray_circle_exit(c, radius, sp))
        cands.extend(circle_square_intersections(c, radius, hw))
        for c_b in obstacles[i + 1:]:
            cands.extend(circle_circle_intersections(c, c_b, radius))
    cands.sort(key=lambda c: np.linalg.norm(c - sp))
    for c in cands:
        if is_feasible(c, spec):
            return c
    raise RuntimeError("feasible region is empty")


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
