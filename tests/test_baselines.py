from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd import baselines
from prafd.baselines import (ALGORITHMS, fpas_layout,
                             gradient_descent_positions, run_algorithm,
                             upa_layout)
from prafd.channel import build_channels, sample_realization, trial_rng
from prafd.config import ConfigError, ScenarioConfig
from prafd.fp import LN2, surrogate_objective
from prafd.geometry import layout_side_feasible, min_pairwise_distance
from prafd.placement import (layout_fields, others_index,
                             placement_objective, side_terms,
                             transmit_context)
from prafd.solver import alternating_optimize, initial_state, initialize_layout


class TestUpaLayout:
    def test_single_antenna_at_origin(self):
        assert_allclose(upa_layout(1, 0.005, 0.02), np.zeros((1, 2)))

    def test_three_antennas_fill_grid_row_first(self):
        out = upa_layout(3, 1.0, 2.0)
        assert out.shape == (3, 2)
        assert_allclose(min_pairwise_distance(out), 1.0)
        assert_allclose(out[1] - out[0], [1.0, 0.0])

    def test_square_grid_centered(self):
        out = upa_layout(4, 1.0, 2.0)
        assert_allclose(out.mean(axis=0), [0.0, 0.0], atol=1e-12)
        assert_allclose(min_pairwise_distance(out), 1.0)

    def test_spacing_respected(self):
        out = upa_layout(9, 0.7, 2.0)
        assert_allclose(min_pairwise_distance(out), 0.7)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ConfigError):
            upa_layout(9, 1.5, 1.0)


class TestGradientDescent:
    def make_ctx(self, trial=0, scored=True):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rng = trial_rng(0, trial, 0)
        rlz = sample_realization(cfg, rng)
        layout = initialize_layout(cfg, rng)
        state = initial_state(build_channels(layout, rlz, cfg), cfg)
        if scored:  # as the solve does before every side
            state.surrogate = surrogate_objective(state, cfg)
        return cfg, layout, transmit_context(state,
                                             side_terms(rlz, cfg, "t"))

    def test_trace_monotone_and_feasible(self, monkeypatch):
        monkeypatch.setattr(baselines, "GD_EPSILON", 1e-4)
        for trial in range(10):
            cfg, layout, ctx = self.make_ctx(trial)
            out, trace, _ = gradient_descent_positions(ctx)
            assert np.all(np.diff(trace) <= 1e-12)
            assert layout_side_feasible(out, ctx.terms.half_width, ctx.terms.d_min)
            assert_allclose(placement_objective(ctx, layout_fields(ctx, out)),
                            trace[-1],
                            rtol=1e-12)

    def test_stop_ignores_the_objective_offset(self, monkeypatch):
        # The placement objective leaves out the surrogate's position-free
        # part, so adding a constant to it must change nothing but the
        # trace, which shifts by exactly that constant.
        offset = 1e4
        for trial in range(5):
            _, _, ctx = self.make_ctx(trial)
            runs = {}
            for c in (0.0, offset):
                monkeypatch.setattr(
                    baselines, "placement_objective",
                    lambda *a, c=c: placement_objective(*a) + c)
                runs[c] = gradient_descent_positions(ctx)
            (pos, trace, steps), (pos_c, trace_c, steps_c) = runs.values()
            assert np.array_equal(pos, pos_c) and steps == steps_c
            assert trace_c == [v + offset for v in trace]

    def test_stops_at_the_first_small_step(self):
        # Every accepted step but the last moves the objective by at least
        # GD_EPSILON times the rate's scale, the surrogate in nats; the
        # last moves it by less, unless the run hit the step cap or ended
        # on a step that no halving made acceptable.
        ended_by_test = 0
        for trial in range(10):
            _, _, ctx = self.make_ctx(trial)
            _, trace, steps = gradient_descent_positions(ctx)
            tol = baselines.GD_EPSILON * LN2 * ctx.surrogate
            drops = -np.diff(trace)
            assert np.all(drops[:-1] >= tol)
            if len(drops) and drops[-1] < tol:
                ended_by_test += 1
            else:
                assert steps in (baselines.GD_MAX_STEPS, len(drops) + 1)
        assert ended_by_test > 0

    def test_improves_objective(self, monkeypatch):
        cfg, layout, ctx = self.make_ctx(3)
        monkeypatch.setattr(baselines, "GD_EPSILON", 1e-6)
        _, trace, _ = gradient_descent_positions(ctx)
        assert trace[-1] < trace[0]

    def test_one_projection_pass_restores_feasibility(self):
        # Joint steps of every size, most of them infeasible, come back
        # feasible from a single pass.  The disc area stays below the
        # square's, so no antenna's region is empty.
        rng = np.random.default_rng(11)
        infeasible = 0
        for A, n_ant in ((2.0, 4), (2.0, 6), (4.0, 4)):
            cfg = ScenarioConfig(A=A, N_t=n_ant)
            hw, lam = cfg.region_half_width, cfg.wavelength
            for scale in (0.05, 0.3, 1.0):
                for _ in range(40):
                    pos = initialize_layout(cfg, rng).t
                    cand = pos + rng.normal(scale=scale * lam,
                                            size=pos.shape)
                    infeasible += not layout_side_feasible(cand, hw, cfg.D_min)
                    proj = baselines._project_side(
                        cand, pos, others_index(n_ant), hw, cfg.D_min)
                    assert layout_side_feasible(proj, hw, cfg.D_min)
        assert infeasible > 180

    @pytest.mark.parametrize("n_ant", [4, 6, 8, 9])
    def test_a_small_step_moves_each_antenna_little(self, n_ant):
        # The fixed arrays sit exactly D_min apart, so a tiny joint step
        # makes candidates that crowd their neighbours.  Projected against
        # its neighbours' current positions, where its own position is
        # feasible, an antenna lands within its step of its candidate, so
        # it moves at most twice its step.
        rng = np.random.default_rng(5)
        cfg = ScenarioConfig(N_t=n_ant)
        hw, lam = cfg.region_half_width, cfg.wavelength
        pos = fpas_layout(cfg).t
        others = others_index(n_ant)
        for _ in range(200):
            step = rng.normal(size=pos.shape)
            step *= 1e-3 * lam / np.linalg.norm(step)
            proj = baselines._project_side(pos + step, pos, others, hw,
                                           cfg.D_min)
            assert layout_side_feasible(proj, hw, cfg.D_min)
            moved = np.linalg.norm(proj - pos, axis=1)
            assert np.all(moved <= 2.0 * np.linalg.norm(step, axis=1)
                          + 1e-12 * lam)

    def test_bundles_only_at_the_first_step(self, monkeypatch):
        # The first step's curvature caps are GD's only use of the
        # per-antenna bundles; that use is also what keeps perfbench's
        # placement.antenna_bundle span alive on defaults-gd.
        events = []
        bundle, project = baselines.antenna_bundle, baselines._project_side

        def counting_bundle(*args):
            events.append("bundle")
            return bundle(*args)

        def counting_project(*args):
            events.append("project")
            return project(*args)

        monkeypatch.setattr(baselines, "antenna_bundle", counting_bundle)
        monkeypatch.setattr(baselines, "_project_side", counting_project)
        monkeypatch.setattr(baselines, "GD_EPSILON", 1e-6)
        for trial in range(4):
            cfg, layout, ctx = self.make_ctx(trial)
            events.clear()
            _, _, steps = gradient_descent_positions(ctx)
            assert steps >= 2
            n_bundles = events.count("bundle")
            assert n_bundles == cfg.N_t
            assert events[:n_bundles] == ["bundle"] * n_bundles

    def test_zero_beamformers_leave_positions_put(self, monkeypatch):
        # A zero transmit beamformer zeroes W and its gram Q = W W^H.
        _, layout, ctx = self.make_ctx(0)
        ctx = replace(ctx, W=np.zeros_like(ctx.W))
        monkeypatch.setattr(baselines, "GD_EPSILON", 1e-6)
        out, trace, steps = gradient_descent_positions(ctx)
        assert steps == 0 and len(trace) == 1
        assert np.array_equal(out, layout.t)

    def test_an_unscored_context_is_rejected(self):
        # No solve scored this state, so its surrogate is nan and would
        # give a nan stop tolerance.
        _, _, ctx = self.make_ctx(0, scored=False)
        with pytest.raises(ValueError, match="scored"):
            gradient_descent_positions(ctx)

    def test_respects_step_cap(self, monkeypatch):
        cfg, layout, ctx = self.make_ctx(3)
        monkeypatch.setattr(baselines, "GD_MAX_STEPS", 3)
        monkeypatch.setattr(baselines, "GD_EPSILON", 0.0)
        _, trace, steps = gradient_descent_positions(ctx)
        assert steps == 3 and len(trace) == 4


class TestFixedArrayBaseline:
    def test_positions_are_uniform_arrays(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=4, N_r=4)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        res = run_algorithm("fpas", cfg, rlz, trial_rng(0, 0, 3),
                            fpas_layout(cfg))
        half = cfg.wavelength / 2
        assert_allclose(res.layout.t, upa_layout(4, half, cfg.region_half_width))
        assert_allclose(res.layout.r, upa_layout(4, half, cfg.region_half_width))
        assert res.bsum_sweeps == 0
        assert res.converged

    def test_wide_spacing_keeps_arrays_feasible(self):
        # Half-wavelength arrays would break a 0.6-wavelength D_min.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=4, N_r=4)
        cfg = cfg.replace(D_min=0.6 * cfg.wavelength)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        res = run_algorithm("fpas", cfg, rlz, trial_rng(0, 0, 3),
                            fpas_layout(cfg))
        upa = upa_layout(4, cfg.D_min, cfg.region_half_width)
        assert_allclose(res.layout.t, upa)
        assert_allclose(res.layout.r, upa)
        assert res.converged

    def test_spacing_that_does_not_fit_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=4, N_r=4, A=1.0)
        cfg = cfg.replace(D_min=1.01 * cfg.wavelength)
        with pytest.raises(ConfigError, match="does not fit"):
            fpas_layout(cfg)


class TestHalfDuplex:
    def test_no_uplink_service(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        rng = trial_rng(0, 0, 3)
        res = run_algorithm("hd", cfg, rlz, rng, initialize_layout(cfg, rng),
                            duplex_factor=0.5)
        assert res.ul_rates.size == 0
        assert res.rate > 0.0

    def test_rate_scales_with_duplex_factor(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        full_rng, half_rng = trial_rng(0, 0, 3), trial_rng(0, 0, 3)
        full = run_algorithm("hd", cfg, rlz, full_rng,
                             initialize_layout(cfg, full_rng),
                             duplex_factor=1.0)
        half = run_algorithm("hd", cfg, rlz, half_rng,
                             initialize_layout(cfg, half_rng),
                             duplex_factor=0.5)
        assert_allclose(half.rate, 0.5 * full.rate, rtol=1e-12)
        assert_allclose(np.asarray(half.trace),
                        0.5 * np.asarray(full.trace), rtol=1e-12)

    def test_starts_from_the_given_layout(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        res = run_algorithm("hd", cfg, rlz, trial_rng(0, 0, 3), layout,
                            duplex_factor=0.5)
        direct = alternating_optimize(cfg.downlink_only(), rlz.downlink_only(),
                                      trial_rng(0, 0, 3), layout, "bsum")
        assert res.trace == [0.5 * v for v in direct.trace]
        assert np.array_equal(res.layout.t, direct.layout.t)
        assert np.array_equal(res.layout.r, direct.layout.r)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_out_of_range_duplex_factor_rejected(self, factor):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        with pytest.raises(ValueError, match="duplex factor"):
            run_algorithm("hd", cfg, rlz, trial_rng(0, 0, 3), layout,
                          duplex_factor=factor)


class TestDispatch:
    def test_all_names_run(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        for name in ALGORITHMS:
            start = fpas_layout(cfg) if name == "fpas" else layout
            res = run_algorithm(name, cfg, rlz, trial_rng(0, 0, 3), start)
            assert np.isfinite(res.rate)
            assert res.rate >= 0.0

    def test_caller_layout_unchanged(self):
        # run_trial hands one layout object to every algorithm of a trial,
        # so no solve may move the caller's antennas.
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        before = layout.copy()
        for name in ("fp-bsum", "fp-gd", "hd"):
            res = run_algorithm(name, cfg, rlz, trial_rng(0, 0, 3), layout)
            assert not np.array_equal(res.layout.t, before.t)
            assert np.array_equal(layout.t, before.t)
            assert np.array_equal(layout.r, before.r)

    def test_unknown_name_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=1, N_r=1)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm("annealing", cfg, rlz, trial_rng(0, 0, 3), layout)

    def test_matched_seeds_reproduce(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 4, 0))
        layout = initialize_layout(cfg, trial_rng(0, 4, 1))
        for name in ("fp-bsum", "fp-gd"):
            a = run_algorithm(name, cfg, rlz, trial_rng(0, 4, 3), layout)
            b = run_algorithm(name, cfg, rlz, trial_rng(0, 4, 3), layout)
            assert a.rate == b.rate

    def test_position_optimization_helps_on_average(self):
        # Aggregate comparison on matched draws; individual trials may flip.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        gains = []
        for trial in range(60):
            rlz = sample_realization(cfg, trial_rng(0, trial, 0))
            layout = initialize_layout(cfg, trial_rng(0, trial, 1))
            moved = run_algorithm("fp-bsum", cfg, rlz, trial_rng(0, trial, 3),
                                  layout)
            fixed = run_algorithm("fpas", cfg, rlz, trial_rng(0, trial, 3),
                                  fpas_layout(cfg))
            gains.append(moved.rate - fixed.rate)
        assert np.mean(gains) > 0.0
