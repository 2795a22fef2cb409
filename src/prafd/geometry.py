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

One spacing rule holds everywhere a position is judged, here and in the
grid placement, layout sampling and fixed arrays: `is_feasible` accepts
a point within `FeasibleRegionSpec.slack`, 1e-9 * max(half width, D_min),
of the square and of every disc rim.  Points exactly D_min apart are
feasible whatever their rounding.
"""

from __future__ import annotations

import math
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
    obstacles: np.ndarray  # (M, 2) float; M may be 0
    radius: float

    @property
    def slack(self) -> float:
        return 1e-9 * max(self.half_width, self.radius)


def clamp_to_square(point: np.ndarray, half_width: float) -> tuple:
    """The square clamp of one point in Python floats: min and max give
    the bits of np.clip, NaN and -0.0 included."""
    x, y = point.tolist()
    return (min(max(x, -half_width), half_width),
            min(max(y, -half_width), half_width))


def is_feasible(points: np.ndarray, spec: FeasibleRegionSpec):
    """Whether points lie in the square and outside every disc, up to slack.

    `points` is one point (2,) or a stack (..., 2); returns a bool or a
    bool array of the stack's shape.  One point is judged in Python
    floats by the same IEEE operations as a stack, so it gets the same
    answer as the stack holding it.
    """
    points = np.asarray(points, dtype=float)
    slack = spec.slack
    lim = spec.half_width + slack
    if points.shape == (2,):
        x, y = points.tolist()
        if not (abs(x) <= lim and abs(y) <= lim):
            return False
        rim = spec.radius - slack
        for ox, oy in spec.obstacles.tolist():
            dx, dy = x - ox, y - oy
            if not math.sqrt(dx * dx + dy * dy) >= rim:
                return False
        return True
    x, y = points[..., 0], points[..., 1]
    ok = (np.abs(x) <= lim) & (np.abs(y) <= lim)
    # x and y apart: a reduction over the length-2 axis is slow on grid stacks.
    dx = x[..., None] - spec.obstacles[:, 0]
    dy = y[..., None] - spec.obstacles[:, 1]
    ok &= (np.sqrt(dx * dx + dy * dy) >= spec.radius - slack).all(axis=-1)
    return ok


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
    clamp = np.array(clamp_to_square(sp, hw))
    if is_feasible(clamp, spec):
        return clamp
    cands = []
    for i, c in enumerate(obstacles):
        cands.append(ray_circle_exit(c, radius, sp))
        cands.extend(circle_square_intersections(c, radius, hw))
        for c_b in obstacles[i + 1:]:
            cands.extend(circle_circle_intersections(c, c_b, radius))
    cands = np.array(cands).reshape(-1, 2)
    ok = is_feasible(cands, spec)
    if not ok.any():
        raise RuntimeError("feasible region is empty")
    dist = np.where(ok, np.linalg.norm(cands - sp, axis=1), np.inf)
    return cands[np.argmin(dist)]   # the first of equals, in family order


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest distance between any two points; inf for fewer than two."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) < 2:
        return np.inf
    dx = points[:, None, 0] - points[:, 0]
    dy = points[:, None, 1] - points[:, 1]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


def layout_side_feasible(points: np.ndarray, half_width: float,
                         d_min: float) -> bool:
    """Whether one side's layout meets the rule `is_feasible` applies.

    Every point must lie in the square and every pair at least d_min
    apart, both up to `FeasibleRegionSpec.slack`.
    """
    spec = FeasibleRegionSpec(half_width, np.empty((0, 2)), d_min)
    return bool(np.all(is_feasible(points, spec))) \
        and min_pairwise_distance(points) >= d_min - spec.slack
