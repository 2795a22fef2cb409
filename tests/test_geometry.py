import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd.geometry import (FeasibleRegionSpec, circle_circle_intersections,
                            circle_square_intersections, clamp_to_square,
                            is_feasible, layout_side_feasible,
                            min_pairwise_distance, nearest_feasible_point,
                            ray_circle_exit)
from oracles import grid_nearest_feasible


def region(hw=1.0, obstacles=(), radius=0.25):
    obs = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    return FeasibleRegionSpec(half_width=hw, obstacles=obs, radius=radius)


class TestPrimitives:
    def test_clamp(self):
        assert_allclose(clamp_to_square(np.array([2.0, -3.0]), 1.0), [1.0, -1.0])
        assert_allclose(clamp_to_square(np.array([0.2, 0.3]), 1.0), [0.2, 0.3])

    def test_feasibility(self):
        spec = region(obstacles=[[0.0, 0.0]])
        assert is_feasible(np.array([0.5, 0.5]), spec)
        assert not is_feasible(np.array([0.1, 0.0]), spec)   # inside disc
        assert not is_feasible(np.array([1.5, 0.0]), spec)   # outside square

    def test_boundary_counts_as_feasible(self):
        spec = region(obstacles=[[0.0, 0.0]])
        assert is_feasible(np.array([0.25, 0.0]), spec)
        assert is_feasible(np.array([1.0, 1.0]), spec)

    def test_stack_matches_point_by_point_reference(self):
        rng = np.random.default_rng(3)
        spec = region(obstacles=rng.uniform(-1.0, 1.0, (4, 2)), radius=0.4)
        slack = spec.slack
        points = rng.uniform(-1.2, 1.2, (5, 7, 2))
        mask = is_feasible(points, spec)
        assert mask.shape == (5, 7) and mask.any() and not mask.all()
        ref = [[all(abs(c) <= 1.0 + slack for c in q)
                and all(math.dist(q, o) >= 0.4 - slack
                        for o in spec.obstacles) for q in row]
               for row in points]
        assert mask.tolist() == ref
        assert is_feasible(points[0, 0], spec) is bool(mask[0, 0])

    def test_ray_exit_is_nearest_rim_point(self):
        center = np.array([0.0, 0.0])
        p = ray_circle_exit(center, 0.5, np.array([0.3, 0.0]))
        assert_allclose(p, [0.5, 0.0])
        # off-axis point exits along its own ray
        q = ray_circle_exit(center, 0.5, np.array([0.1, 0.1]))
        assert_allclose(np.linalg.norm(q - center), 0.5)
        assert_allclose(q[0], q[1])

    def test_ray_exit_from_center_is_on_rim(self):
        p = ray_circle_exit(np.zeros(2), 0.5, np.zeros(2))
        assert_allclose(np.linalg.norm(p), 0.5)


class TestSinglePoint:
    """One (2,) point is judged in Python floats; each answer must be the
    one the stack path gives the same point."""

    @staticmethod
    def check(points, spec):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        stack = is_feasible(points, spec)
        single = [is_feasible(p, spec) for p in points]
        assert all(type(v) is bool for v in single)
        assert single == stack.tolist()
        return single

    def test_random_points(self):
        rng = np.random.default_rng(21)
        for n_obs in (0, 1, 3):
            spec = region(obstacles=rng.uniform(-1.0, 1.0, (n_obs, 2)),
                          radius=0.4)
            out = self.check(rng.uniform(-1.2, 1.2, (400, 2)), spec)
            assert any(out) and not all(out)

    def test_exactly_d_min_from_an_obstacle(self):
        # Points placed D_min from an obstacle measure a hair under or
        # over it after rounding; all lie within the slack.
        obstacle = np.array([0.1234, -0.0567])
        spec = region(obstacles=[obstacle], radius=0.25)
        ang = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        pts = obstacle + 0.25 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dist = np.hypot(*(pts - obstacle).T)
        assert (dist < 0.25).any() and (dist > 0.25).any()
        assert all(self.check(pts, spec))
        # At the rim less the slack, a few ulps decide either way.
        rim = 0.25 - spec.slack
        base = obstacle + rim * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        nudged = [base]
        for _ in range(3):
            nudged.append(np.nextafter(nudged[-1], obstacle))
            nudged.append(np.nextafter(nudged[-2], 2.0 * base - obstacle))
        out = self.check(np.concatenate(nudged), spec)
        assert any(out) and not all(out)

    def test_square_edge(self):
        for obstacles in ((), [[-0.5, -0.5]]):
            spec = region(obstacles=obstacles)
            lim = 1.0 + spec.slack
            past = np.nextafter(lim, np.inf)
            pts = [[1.0, 0.0], [0.2, -1.0], [1.0 + 0.5 * spec.slack, 0.0],
                   [lim, 0.0], [-0.3, -lim], [past, 0.0], [0.0, -past],
                   [1.0 + 2.0 * spec.slack, 0.7]]
            assert self.check(pts, spec) == [True] * 5 + [False] * 3

    def test_nan_is_infeasible(self):
        for obstacles in ((), [[0.0, 0.0]]):
            spec = region(obstacles=obstacles)
            pts = [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]]
            assert self.check(pts, spec) == [False] * 3

    def test_clamp_matches_clip_bit_for_bit(self):
        pts = np.array([[-0.0, 0.0], [0.0, -0.0], [np.nan, 0.5],
                        [-0.0, np.nan], [2.0, -3.0], [1.0, -1.0],
                        [np.inf, -np.inf], [0.3, -0.7]])
        for hw in (1.0, 0.25, 0.7):
            for p in pts:
                out = np.array(clamp_to_square(p, hw))
                assert out.tobytes() == np.clip(p, -hw, hw).tobytes()


class TestCircleIntersections:
    def test_two_points(self):
        pts = circle_circle_intersections(np.array([0.0, 0.0]),
                                          np.array([1.0, 0.0]), 0.75)
        assert len(pts) == 2
        for p in pts:
            assert_allclose(np.linalg.norm(p), 0.75, atol=1e-12)
            assert_allclose(np.linalg.norm(p - [1.0, 0.0]), 0.75, atol=1e-12)

    def test_tangent_circles_touch_once(self):
        pts = circle_circle_intersections(np.array([0.0, 0.0]),
                                          np.array([1.0, 0.0]), 0.5)
        assert len(pts) >= 1
        assert_allclose(pts[0], [0.5, 0.0], atol=1e-9)

    def test_disjoint_and_coincident(self):
        assert circle_circle_intersections(np.zeros(2),
                                           np.array([3.0, 0.0]), 0.5) == []
        assert circle_circle_intersections(np.zeros(2), np.zeros(2), 0.5) == []

    def test_circle_square_crossings(self):
        # Circle centered at the right edge midpoint crosses it twice.
        pts = circle_square_intersections(np.array([1.0, 0.0]), 0.3, 1.0)
        assert len(pts) >= 2
        for p in pts:
            assert_allclose(np.linalg.norm(p - [1.0, 0.0]), 0.3, atol=1e-12)
            assert np.max(np.abs(p)) <= 1.0 + 1e-12

    def test_interior_circle_has_no_square_crossings(self):
        assert circle_square_intersections(np.zeros(2), 0.3, 1.0) == []


class TestNearestFeasible:
    def test_free_point_unchanged(self):
        spec = region()
        sp = np.array([0.4, -0.2])
        assert_allclose(nearest_feasible_point(sp, spec), sp)

    def test_outside_square_clamps(self):
        spec = region()
        assert_allclose(nearest_feasible_point(np.array([5.0, 0.1]), spec),
                        [1.0, 0.1])

    def test_inside_disc_pushed_to_rim(self):
        spec = region(obstacles=[[0.0, 0.0]])
        out = nearest_feasible_point(np.array([0.1, 0.0]), spec)
        assert_allclose(out, [0.25, 0.0], atol=1e-12)

    def test_overlapping_discs_resolved_at_crossing(self):
        # Point midway between two overlapping discs: nearest free point is
        # one of the circle-circle crossings.
        spec = region(obstacles=[[-0.2, 0.0], [0.2, 0.0]], radius=0.3)
        sp = np.array([0.0, 0.0])
        out = nearest_feasible_point(sp, spec)
        assert is_feasible(out, spec)
        d_circle = max(np.linalg.norm(out - [-0.2, 0.0]),
                       np.linalg.norm(out - [0.2, 0.0]))
        assert d_circle >= 0.3 - 1e-9

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        hw = 1.0
        step = hw / 400
        for _ in range(150):
            n_obs = int(rng.integers(0, 5))
            spec = region(hw, rng.uniform(-hw, hw, (n_obs, 2)), radius=0.3)
            sp = rng.uniform(-1.3 * hw, 1.3 * hw, 2)
            out = nearest_feasible_point(sp, spec)
            assert is_feasible(out, spec)
            g = grid_nearest_feasible(sp, spec, step)
            if g is None:
                continue
            d_out = np.linalg.norm(out - sp)
            d_grid = np.linalg.norm(g - sp)
            assert d_out <= d_grid + np.sqrt(2) * step

    def test_deterministic(self):
        spec = region(obstacles=[[0.0, 0.1], [0.3, -0.2]])
        sp = np.array([0.12, 0.03])
        a = nearest_feasible_point(sp, spec)
        b = nearest_feasible_point(sp, spec)
        assert_allclose(a, b)

    def test_crowded_region_still_resolves(self):
        # Targets whose clamp sits inside a disc: one inside a ring of
        # obstacles, one among large overlapping discs and one where the
        # nearest point is a disc crossing far from the discs the clamp
        # violates.  The projection is exact, so no feasible grid point is
        # nearer.
        ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        ring = 0.4 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        crowded = [[-0.2119, 0.5834], [-0.2428, -0.0302], [-0.6992, 0.4884],
                   [0.8227, -0.0466], [-0.7778, 0.2656], [0.5483, 0.6570],
                   [0.9299, -0.8281], [-0.2190, -0.8964]]
        far = [[-0.2175, 0.6909], [0.7634, 0.7635], [-0.0874, -0.5842],
               [-0.8617, 0.4854], [0.2641, 0.9793], [0.7423, 0.944]]
        step = 0.01
        for spec, sp in (
                (region(1.0, ring, radius=0.22), np.array([0.45, 0.1])),
                (region(1.0, crowded, radius=0.5733),
                 np.array([1.1214, 1.1606])),
                (region(1.0, far, radius=0.3204), np.array([0.7799, 1.1556]))):
            out = nearest_feasible_point(sp, spec)
            assert not np.array_equal(out, clamp_to_square(sp, 1.0))
            assert is_feasible(out, spec)
            g = grid_nearest_feasible(sp, spec, step)
            assert np.linalg.norm(out - sp) <= np.linalg.norm(g - sp) + 1e-12

    def test_clamp_fast_path_matches_clamp_then_check(self):
        # A target whose square clamp is feasible projects to that clamp,
        # bit for bit, whether it lies inside the square, outside it, on
        # its edges, on a disc rim or at -0.0; the rest go to the family.
        hw = 1.0
        spec = region(hw, [[0.0, 0.0], [0.6, -0.6]], radius=0.25)
        rim = 0.25 * np.array([np.cos(0.3), np.sin(0.3)])
        targets = [[0.4, -0.2], [5.0, 0.1], [-3.0, 7.0], [hw, 0.5],
                   [-hw, -hw], [0.5, -hw], [1.0 + 1e-17, -0.3],
                   [0.25, 0.0], [0.0, -0.25], rim, 0.999 * rim,
                   [-0.0, 0.5], [0.5, -0.0], [-0.0, 3.0], [-2.0, -0.0],
                   [-0.0, -0.0], [0.0, -0.0], [0.6, -0.35]]
        clamped = 0
        for sp in np.array(targets, dtype=float):
            out = nearest_feasible_point(sp, spec)
            ref = np.clip(sp, -hw, hw)
            if is_feasible(ref, spec):
                clamped += 1
                assert out.tobytes() == ref.tobytes()
            else:
                assert not np.array_equal(out, ref)
                assert is_feasible(out, spec)
        assert 0 < clamped < len(targets)

    def test_empty_region_raises(self):
        # One disc covers the whole square, so no point is feasible.
        spec = region(1.0, [[0.0, 0.0]], radius=1.5)
        with pytest.raises(RuntimeError, match="empty"):
            nearest_feasible_point(np.array([0.3, -0.2]), spec)


class TestLayoutHelpers:
    def test_min_pairwise_distance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert_allclose(min_pairwise_distance(pts), 1.0)
        assert min_pairwise_distance(pts[:1]) == np.inf

    def test_layout_side_feasible(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert layout_side_feasible(pts, half_width=1.0, d_min=0.5)
        assert not layout_side_feasible(pts, half_width=1.0, d_min=0.6)
        assert not layout_side_feasible(pts * 3.0, half_width=1.0, d_min=0.5)
