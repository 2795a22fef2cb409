import itertools

import numpy as np
from numpy.testing import assert_allclose

from prafd.channel import build_channels, sample_realization, trial_rng, \
    AntennaLayout
from prafd.config import ScenarioConfig
from prafd import fp, placement
from prafd.fp import auxiliaries, auxiliary_pass, received_powers
from prafd.geometry import layout_side_feasible
from prafd.oracles import (central_difference_gradient,
                           central_difference_hessian, fresh_surrogate,
                           random_complex,
                           reference_antenna_bundle,
                           reference_curvature_bound)
from prafd.placement import (ExpSum, RateGrid, antenna_bundle,
                             bsum_optimize_side, curvature_bound, grid_axis,
                             layout_fields, placement_gradient,
                             placement_objective, receive_context,
                             transmit_context)
from prafd.solver import initial_state, initialize_layout

LN2 = np.log(2.0)


def make_contexts(cfg, trial=0):
    rng = trial_rng(0, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    ch = build_channels(layout, rlz, cfg)
    state, _ = initial_state(ch, cfg)
    ctx_t = transmit_context(state, rlz, layout.r, cfg)
    ctx_r = receive_context(state, rlz, layout.t, cfg)
    return rlz, layout, ch, state, ctx_t, ctx_r


def objective_at(ctx, pos):
    return placement_objective(ctx, layout_fields(ctx, pos))


def bundle_at(ctx, pos, n):
    return antenna_bundle(ctx, layout_fields(ctx, pos), n)


def random_exp_sum(rng, n_terms=12, kappa=500.0):
    coefs = random_complex(rng, (n_terms,))
    ang = rng.uniform(0, 2 * np.pi, n_terms)
    dirs = kappa * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return ExpSum(coefs=coefs, dirs=dirs, norm2=(dirs ** 2).sum(axis=1))


class TestExpSum:
    def test_gradient_matches_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            es = random_exp_sum(rng)
            t = rng.uniform(-0.01, 0.01, 2)
            fd = central_difference_gradient(es.value, t, 1e-8)
            assert_allclose(es.gradient(t), fd, rtol=1e-5, atol=1e-8)

    def test_hessian_matches_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            es = random_exp_sum(rng)
            t = rng.uniform(-0.01, 0.01, 2)
            fd = central_difference_hessian(es.value, t, 1e-6)
            assert_allclose(es.hessian(t), fd, rtol=1e-3, atol=1e-2)

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(2)
        es = random_exp_sum(rng)
        h = es.hessian(rng.uniform(-0.01, 0.01, 2))
        assert_allclose(h[0, 1], h[1, 0])

    def test_curvature_cap_dominates_hessian_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            es = random_exp_sum(rng)
            cap = es.curvature_cap()
            for _ in range(50):
                t = rng.uniform(-0.02, 0.02, 2)
                lams = np.linalg.eigvalsh(es.hessian(t))
                assert np.max(np.abs(lams)) <= cap * (1 + 1e-12)

    def test_kept_phasors_match_a_fresh_sum(self):
        # The phasors of the last point are reused; a new point, a return
        # to an old one and a point array mutated in place must all give
        # what a fresh ExpSum gives, bit for bit.
        rng = np.random.default_rng(7)
        es = random_exp_sum(rng)
        t1 = rng.uniform(-0.01, 0.01, 2)
        t2 = rng.uniform(-0.01, 0.01, 2)
        point = t1.copy()

        def same(t):
            fresh = ExpSum(coefs=es.coefs, dirs=es.dirs, norm2=es.norm2)
            assert es.value(t) == fresh.value(t)
            assert np.array_equal(es.gradient(t), fresh.gradient(t))
            assert np.array_equal(es.hessian(t), fresh.hessian(t))

        same(point)
        same(t2)
        same(t1)
        same(point)
        point[:] = t2 + 1e-3
        same(point)
        point[1] = -0.0
        same(point)


class TestBundleReference:
    """The bundle built from per-context, per-layout and per-point parts
    equals the from-scratch reference bit for bit."""

    @staticmethod
    def check(ctx, pos, n, bundle):
        ref_coefs, ref_dirs = reference_antenna_bundle(ctx, pos, n)
        assert np.array_equal(bundle.coefs, ref_coefs)
        assert np.array_equal(bundle.dirs, ref_dirs)
        assert curvature_bound(bundle, pos[n]) == \
            reference_curvature_bound(ref_coefs, ref_dirs, pos[n],
                                      placement.TAU_MIN_FACTOR)

    def test_both_sides(self):
        # One uplink user gives 1x1 outer products, which numpy can round
        # unlike the same product broadcast; random beamformers keep such
        # last-bit differences from cancelling as they do for matched
        # filters.
        cfgs = (ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=4, L=3, L_SI=3),
                ScenarioConfig(K_D=3, K_U=1, N_t=3, N_r=2, L=8, L_SI=3))
        rng = np.random.default_rng(9)
        for cfg, trial in itertools.product(cfgs, range(4)):
            rlz, layout, _, state, _, _ = make_contexts(cfg, trial)
            state.W_t = random_complex(rng, state.W_t.shape, 0.1)
            state.W_r = random_complex(rng, state.W_r.shape)
            ctx_t = transmit_context(state, rlz, layout.r, cfg)
            ctx_r = receive_context(state, rlz, layout.t, cfg)
            for ctx, pos0 in ((ctx_t, layout.t), (ctx_r, layout.r)):
                pos = pos0.copy()
                # Revisit antennas after moves, so the parts kept per
                # antenna are reused against new layouts.
                order = list(range(len(pos))) + [len(pos) - 1, 0]
                for n in order:
                    self.check(ctx, pos, n, bundle_at(ctx, pos, n))
                    pos[n] += rng.uniform(-0.1, 0.1, 2) * cfg.wavelength


class TestPlacementGradient:
    def test_equals_stacked_bundle_gradients(self):
        cfgs = (ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=4, L=3, L_SI=3),
                ScenarioConfig(K_D=3, K_U=1, N_t=3, N_r=2, L=8, L_SI=3),
                ScenarioConfig(K_D=2, K_U=1, N_t=1, N_r=2, L=8, L_SI=3))
        rng = np.random.default_rng(12)
        for cfg, trial in itertools.product(cfgs, range(4)):
            rlz, layout, _, state, _, _ = make_contexts(cfg, trial)
            state.W_t = random_complex(rng, state.W_t.shape, 0.1)
            state.W_r = random_complex(rng, state.W_r.shape)
            for ctx, pos in ((transmit_context(state, rlz, layout.r, cfg),
                              layout.t),
                             (receive_context(state, rlz, layout.t, cfg),
                              layout.r)):
                fields = layout_fields(ctx, pos)
                ref = np.stack([antenna_bundle(ctx, fields, n).gradient(pos[n])
                                for n in range(len(pos))])
                joint = placement_gradient(ctx, pos, fields)
                assert joint.shape == pos.shape
                assert np.linalg.norm(joint - ref) \
                    <= 1e-12 * np.linalg.norm(ref)

    def test_zero_beamformers_give_a_zero_gradient(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rlz, layout, _, state, _, _ = make_contexts(cfg)
        state.W_t = np.zeros_like(state.W_t)
        state.W_r = np.zeros_like(state.W_r)
        for ctx, pos in ((transmit_context(state, rlz, layout.r, cfg),
                          layout.t),
                         (receive_context(state, rlz, layout.t, cfg),
                          layout.r)):
            grad = placement_gradient(ctx, pos, layout_fields(ctx, pos))
            assert np.all(grad == 0.0)


class TestObjective:
    def test_bundle_tracks_objective_differences(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rng = np.random.default_rng(4)
        _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg)
        for ctx, pos0 in ((ctx_t, layout.t), (ctx_r, layout.r)):
            for n in range(3):
                bundle = bundle_at(ctx, pos0, n)
                f0 = objective_at(ctx, pos0)
                b0 = bundle.value(pos0[n])
                for _ in range(10):
                    pos = pos0.copy()
                    pos[n] += rng.uniform(-1, 1, 2) * cfg.wavelength
                    df = objective_at(ctx, pos) - f0
                    db = bundle.value(pos[n]) - b0
                    assert_allclose(df, db, rtol=1e-9, atol=1e-12 * abs(f0))

    def test_objective_change_mirrors_surrogate(self):
        # Moving transmit antennas changes the surrogate by -delta(f)/ln2.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rng = np.random.default_rng(5)
        rlz, layout, ch, state, ctx_t, ctx_r = make_contexts(cfg)
        sur0 = fresh_surrogate(state, ch, cfg)
        f0_t = objective_at(ctx_t, layout.t)
        f0_r = objective_at(ctx_r, layout.r)
        for _ in range(10):
            t_new = layout.t + rng.uniform(-1, 1, (3, 2)) * cfg.wavelength
            ch_new = build_channels(AntennaLayout(t=t_new, r=layout.r), rlz, cfg)
            d_sur = fresh_surrogate(state, ch_new, cfg) - sur0
            d_f = objective_at(ctx_t, t_new) - f0_t
            assert_allclose(d_sur, -d_f / LN2, rtol=1e-9, atol=1e-12)
            r_new = layout.r + rng.uniform(-1, 1, (3, 2)) * cfg.wavelength
            ch_new = build_channels(AntennaLayout(t=layout.t, r=r_new), rlz, cfg)
            d_sur = fresh_surrogate(state, ch_new, cfg) - sur0
            d_f = objective_at(ctx_r, r_new) - f0_r
            assert_allclose(d_sur, -d_f / LN2, rtol=1e-9, atol=1e-12)

    def test_gradient_matches_differences(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(5):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                for n in range(3):
                    bundle = bundle_at(ctx, pos, n)
                    g = bundle.gradient(pos[n])
                    fd = central_difference_gradient(bundle.value, pos[n],
                                                     1e-6 * cfg.wavelength)
                    assert_allclose(g, fd, rtol=1e-5, atol=1e-10)

    def test_zero_beamformers_flatten_objective(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz, layout, ch, state, _, _ = make_contexts(cfg)
        state.W_t = np.zeros_like(state.W_t)
        state.aux = auxiliaries(state.aux.gamma, np.zeros_like(state.aux.y),
                                cfg)
        ctx = transmit_context(state, rlz, layout.r, cfg)
        rng = np.random.default_rng(6)
        vals = [objective_at(ctx, rng.uniform(-1, 1, (2, 2)) * 0.01)
                for _ in range(5)]
        assert_allclose(vals, 0.0, atol=1e-30)


class TestCurvature:
    def test_majorizes_local_hessian(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(10):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                for n in range(3):
                    bundle = bundle_at(ctx, pos, n)
                    tau = curvature_bound(bundle, pos[n])
                    lams = np.linalg.eigvalsh(bundle.hessian(pos[n]))
                    assert tau >= lams[-1] - 1e-9 * max(1.0, abs(lams[-1]))
                    assert tau > 0.0

    def test_floor_is_positive_for_live_bundle(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        bundle = bundle_at(ctx_t, layout.t, 0)
        assert curvature_bound(bundle, layout.t[0]) \
            >= 1e-6 * bundle.curvature_cap() - 1e-30


class TestBsumSweep:
    def test_trace_monotone_and_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(15):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            rng = np.random.default_rng(trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                out, trace, sweeps = bsum_optimize_side(ctx, pos, rng,
                                                        eps=1e-3)
                diffs = np.diff(trace)
                assert np.all(diffs <= 1e-9 * np.maximum(1.0,
                                                         np.abs(trace[:-1])))
                assert sweeps <= 50
                assert layout_side_feasible(out, ctx.half_width, ctx.d_min)
                assert_allclose(objective_at(ctx, out), trace[-1],
                                rtol=1e-12)

    def test_respects_sweep_cap(self, monkeypatch):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        rng = np.random.default_rng(0)
        monkeypatch.setattr(placement, "MAX_BSUM_SWEEPS", 3)
        _, trace, sweeps = bsum_optimize_side(ctx_t, layout.t, rng, eps=0.0)
        assert sweeps == 3 and len(trace) == 4

    def test_deterministic_given_generator(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        a, _, _ = bsum_optimize_side(ctx_t, layout.t,
                                     np.random.default_rng(9), eps=1e-4)
        b, _, _ = bsum_optimize_side(ctx_t, layout.t,
                                     np.random.default_rng(9), eps=1e-4)
        assert_allclose(a, b)

    def test_muted_side_stays_put(self):
        # All-zero coefficients (silent uplink) leave positions untouched.
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz, layout, ch, state, _, _ = make_contexts(cfg)
        state.p = np.zeros(cfg.K_U)
        state.aux = auxiliary_pass(
            received_powers(state.W_t, state.W_r, state.p, ch, cfg), cfg)
        ctx = receive_context(state, rlz, layout.t, cfg)
        out, trace, sweeps = bsum_optimize_side(ctx, layout.r,
                                                np.random.default_rng(0),
                                                eps=1e-3)
        assert_allclose(out, layout.r)
        assert_allclose(trace, [0.0, 0.0], atol=1e-30)


    def test_tau_doublings_running_out_leave_the_antenna_put(self,
                                                            monkeypatch):
        # A negative curvature makes every majorizer step an ascent step of
        # the antenna's objective (|tau| >= the global curvature cap keeps
        # the first-order gain ahead of the curvature), and doubling keeps
        # it one, so each visit projects MAX_TAU_DOUBLINGS + 1 candidates,
        # rejects them all and falls out of the loop.  One antenna per side
        # keeps the feasible region convex, so the projection keeps the
        # ascent.
        monkeypatch.setattr(placement, "MAX_TAU_DOUBLINGS", 2)
        monkeypatch.setattr(placement, "curvature_bound",
                            lambda bundle, t: -bundle.curvature_cap())
        counts = {"visits": 0, "projections": 0}
        real_bundle = placement.antenna_bundle
        real_project = placement.nearest_feasible_point

        def bundle(*a):
            counts["visits"] += 1
            return real_bundle(*a)

        def project(*a):
            counts["projections"] += 1
            return real_project(*a)

        monkeypatch.setattr(placement, "antenna_bundle", bundle)
        monkeypatch.setattr(placement, "nearest_feasible_point", project)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=1, N_r=1, L=3, L_SI=3)
        for trial in range(3):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                counts.update(visits=0, projections=0)
                out, trace, _ = bsum_optimize_side(
                    ctx, pos, np.random.default_rng(trial), eps=1e-3)
                assert np.array_equal(out, pos)
                assert np.all(np.diff(trace) <= 0.0)
                assert counts["visits"] > 0
                assert counts["projections"] == 3 * counts["visits"]


def rate_and_powers(state, ch, cfg):
    """The rate and full received-power pass of `state` on `ch`, as
    `RateGrid.place` starts from."""
    powers = fp.received_powers(state.W_t, state.W_r, state.p, ch, cfg)
    return fp.weighted_sum_rate(powers, cfg), powers


def random_grid_case(cfg, trial):
    """Realization, feasible layout, its channels and a random state."""
    rng = trial_rng(21, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    ch = build_channels(layout, rlz, cfg)
    state, _ = initial_state(ch, cfg)
    W_t = random_complex(rng, state.W_t.shape)
    state.W_t = W_t * np.sqrt(cfg.p_D_max) / np.linalg.norm(W_t)
    state.W_r = random_complex(rng, state.W_r.shape)
    state.p = rng.uniform(0.0, cfg.p_U_max, cfg.K_U)
    return rlz, layout, ch, state


class TestRateGrid:
    def test_rates_match_full_rebuild(self):
        cases = [ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=3, L=3, L_SI=2,
                                A=1.0),
                 ScenarioConfig(K_D=1, K_U=3, N_t=3, N_r=2, L=2, L_SI=3,
                                A=1.5),
                 ScenarioConfig(K_D=3, K_U=1, N_t=1, N_r=1, L=4, L_SI=1,
                                A=0.5)]
        for trial, cfg in enumerate(cases):
            rlz, layout, ch, state = random_grid_case(cfg, trial)
            grid = RateGrid(rlz, cfg)
            powers = received_powers(state.W_t, state.W_r, state.p, ch, cfg)
            for side in ("t", "r"):
                for n in range(len(getattr(layout, side))):
                    vals = grid.rates(state, layout, ch, powers, side, n)
                    ref = []
                    for q in grid.points:
                        moved = layout.copy()
                        getattr(moved, side)[n] = q
                        ref.append(rate_and_powers(
                            state, build_channels(moved, rlz, cfg), cfg)[0])
                    assert_allclose(vals, ref, rtol=1e-12, atol=0.0)

    def test_place_raises_rate_and_stays_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        hw = cfg.region_half_width
        moved_trials = 0
        for trial in range(8):
            rlz, layout, ch, state = random_grid_case(cfg, trial)
            rate, powers = rate_and_powers(state, ch, cfg)
            out, out_ch, out_rate, _, moves = RateGrid(rlz, cfg).place(
                state, layout, ch, rate, powers)
            moved_trials += moves > 0
            assert out_rate >= rate
            assert (moves > 0) == (out_rate > rate)
            assert out_rate == rate_and_powers(
                state, build_channels(out, rlz, cfg), cfg)[0]
            assert_allclose(out_ch.H_D, build_channels(out, rlz, cfg).H_D)
            for side in (out.t, out.r):
                assert layout_side_feasible(side, hw, cfg.D_min)
        assert moved_trials >= 4

    def test_one_received_power_pass_per_channel_state(self, monkeypatch):
        # The grid scores its first visit from the pass handed in with the
        # rate.  Each candidate move costs one more pass, on its rebuilt
        # channels, which confirms the move and, when it is accepted,
        # scores the next visit.
        counts = {"powers": 0, "confirm": 0}
        real_powers, real_build = fp.received_powers, placement.build_channels

        def powers(*a):
            counts["powers"] += 1
            return real_powers(*a)

        def build(*a):
            counts["confirm"] += 1
            return real_build(*a)

        monkeypatch.setattr(fp, "received_powers", powers)
        monkeypatch.setattr(placement, "build_channels", build)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        total_moves = 0
        for trial in range(4):
            rlz, layout, ch, state = random_grid_case(cfg, trial)
            start, start_powers = rate_and_powers(state, ch, cfg)
            counts.update(powers=0, confirm=0)
            _, _, _, _, moves = RateGrid(rlz, cfg).place(state, layout, ch,
                                                         start, start_powers)
            assert counts["powers"] == counts["confirm"]
            total_moves += moves
        assert total_moves > 0

    def test_point_exactly_d_min_from_a_neighbour_is_eligible(self,
                                                              monkeypatch):
        # At A = 4 the grid axis values 1 and 5 are D_min = lambda/2 apart,
        # but their difference rounds to D_min * (1 - 2.2e-16).  The
        # spacing rule accepts such a point wherever the neighbour sits;
        # here both lie on the centre column, axis value 16.
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=1, L=2, L_SI=2, A=4.0)
        rlz, layout, _, state = random_grid_case(cfg, 0)
        grid = RateGrid(rlz, cfg)
        axis = grid_axis(cfg.region_half_width, cfg.wavelength / 8)
        neighbour = np.array([axis[16], axis[1]])
        goal = np.array([axis[16], axis[5]])
        assert np.hypot(*(goal - neighbour)) < cfg.D_min
        layout.t = np.array([[axis[30], axis[30]], neighbour])
        ch = build_channels(layout, rlz, cfg)
        target = 16 * len(axis) + 5
        assert np.array_equal(grid.points[target], goal)

        def rates(self, *args):
            return np.where(np.arange(len(self.points)) == target, 1.0, 0.0)

        # Every grid point but the goal scores 0 and any point beats the
        # rate of -1 passed in, so antenna 0 lands on the goal only if the
        # goal is eligible.
        monkeypatch.setattr(RateGrid, "rates", rates)
        out, _, _, _, moves = grid.place(
            state, layout, ch, -1.0,
            received_powers(state.W_t, state.W_r, state.p, ch, cfg))
        assert moves >= 1
        assert np.array_equal(out.t[0], goal)
        assert layout_side_feasible(out.t, cfg.region_half_width, cfg.D_min)

    def test_gain_below_the_margin_is_refused(self, monkeypatch):
        # A move whose true gain is 5e-10 relative, far above rounding but
        # below the 1e-9 margin, is refused; one of 2e-9 is taken.  The
        # faked grid rates send every visit to one point; the confirming
        # pass on rebuilt channels then sees the true rate `goal` there.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, L=3, L_SI=3, A=2.0)
        rlz, layout, ch, _ = random_grid_case(cfg, 2)
        state, _ = initial_state(ch, cfg)
        grid = RateGrid(rlz, cfg)
        region = placement.FeasibleRegionSpec(
            cfg.region_half_width, layout.t[1:], cfg.D_min)
        target = int(np.flatnonzero(
            placement.is_feasible(grid.points, region))[0])
        moved = layout.copy()
        moved.t[0] = grid.points[target]
        goal, _ = rate_and_powers(state, build_channels(moved, rlz, cfg), cfg)
        assert goal > 1.0   # so the margin is relative

        def rates(self, *args):
            return np.where(np.arange(len(self.points)) == target, goal,
                            -np.inf)

        monkeypatch.setattr(RateGrid, "rates", rates)
        powers = received_powers(state.W_t, state.W_r, state.p, ch, cfg)
        out, _, out_rate, _, moves = grid.place(
            state, layout, ch, goal / (1.0 + 5e-10), powers)
        assert moves == 0
        assert np.array_equal(out.t, layout.t)
        assert out_rate == goal / (1.0 + 5e-10)
        out, out_ch, out_rate, out_powers, moves = grid.place(
            state, layout, ch, goal / (1.0 + 2e-9), powers)
        assert moves == 1
        assert np.array_equal(out.t[0], grid.points[target])
        assert out_rate == goal
        fresh = received_powers(state.W_t, state.W_r, state.p, out_ch, cfg)
        assert all(np.array_equal(v, getattr(fresh, k))
                   for k, v in vars(out_powers).items())

    def test_positions_kept_without_gain(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, L=3, L_SI=3, A=2.0)
        rlz, layout, ch, state = random_grid_case(cfg, 0)
        grid = RateGrid(rlz, cfg)
        # Silent transmitters: every rate is zero wherever antennas sit.
        silent, _ = initial_state(ch, cfg)
        silent.W_t = np.zeros_like(silent.W_t)
        silent.p = np.zeros(cfg.K_U)
        out, _, out_rate, _, moves = grid.place(
            silent, layout, ch, 0.0,
            received_powers(silent.W_t, silent.W_r, silent.p, ch, cfg))
        assert moves == 0 and out_rate == 0.0
        assert np.array_equal(out.t, layout.t)
        assert np.array_equal(out.r, layout.r)
        # A layout no single grid move improves is returned unchanged.
        moves = 1
        while moves:
            layout, ch, rate, _, moves = grid.place(
                state, layout, ch, *rate_and_powers(state, ch, cfg))
        again = grid.place(state, layout, ch,
                           *rate_and_powers(state, ch, cfg))
        assert again[4] == 0 and again[2] == rate
        assert np.array_equal(again[0].t, layout.t)
        assert np.array_equal(again[0].r, layout.r)

    def test_smaller_region_grid_nested_in_larger(self):
        # The region-size sweep relies on this: growing an integer-A
        # region only adds grid points.
        small, large = ScenarioConfig(A=3.0), ScenarioConfig(A=4.0)
        step = small.wavelength / 8
        ax3 = grid_axis(small.region_half_width, step)
        ax4 = grid_axis(large.region_half_width, step)
        assert len(ax3) == 25 and len(ax4) == 33
        assert np.all(np.isin(ax3, ax4))
        assert np.all(np.abs(ax3) <= small.region_half_width)
        rlz = sample_realization(small, trial_rng(0, 0, 0))
        pts3 = {tuple(q) for q in RateGrid(rlz, small).points}
        pts4 = {tuple(q) for q in RateGrid(rlz, large).points}
        assert pts3 < pts4
