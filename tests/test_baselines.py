from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd import baselines
from prafd.baselines import (ALGORITHMS, gradient_descent_positions,
                             run_algorithm, solve_fpas, solve_half_duplex,
                             upa_layout)
from prafd.channel import build_channels, sample_realization, trial_rng
from prafd.config import ConfigError, ScenarioConfig
from prafd.geometry import layout_side_feasible, min_pairwise_distance
from prafd.placement import (layout_fields, others_index,
                             placement_objective, transmit_context)
from prafd.solver import SolveOptions, initial_state, initialize_layout


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
    def make_ctx(self, trial=0):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rng = trial_rng(0, trial, 0)
        rlz = sample_realization(cfg, rng)
        layout = initialize_layout(cfg, rng)
        ch = build_channels(layout, rlz, cfg)
        state, _ = initial_state(ch, cfg)
        return cfg, layout, transmit_context(state, rlz, layout.r, cfg)

    def test_trace_monotone_and_feasible(self):
        for trial in range(10):
            cfg, layout, ctx = self.make_ctx(trial)
            out, trace, _ = gradient_descent_positions(
                ctx, layout.t, np.random.default_rng(trial), eps=1e-4)
            assert np.all(np.diff(trace) <= 1e-12)
            assert layout_side_feasible(out, ctx.half_width, ctx.d_min)
            assert_allclose(placement_objective(ctx, layout_fields(ctx, out)),
                            trace[-1],
                            rtol=1e-12)

    def test_improves_objective(self):
        cfg, layout, ctx = self.make_ctx(3)
        _, trace, _ = gradient_descent_positions(
            ctx, layout.t, np.random.default_rng(0), eps=1e-6)
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
                        cand, others_index(n_ant), hw, cfg.D_min)
                    assert layout_side_feasible(proj, hw, cfg.D_min)
        assert infeasible > 180

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
        for trial in range(4):
            cfg, layout, ctx = self.make_ctx(trial)
            events.clear()
            _, _, steps = gradient_descent_positions(
                ctx, layout.t, np.random.default_rng(0), eps=1e-6)
            assert steps >= 2
            n_bundles = events.count("bundle")
            assert n_bundles == cfg.N_t
            assert events[:n_bundles] == ["bundle"] * n_bundles

    def test_zero_beamformers_leave_positions_put(self):
        # A zero transmit beamformer zeroes W and its gram Q = W W^H.
        _, layout, ctx = self.make_ctx(0)
        ctx = replace(ctx, W=np.zeros_like(ctx.W), own=np.zeros_like(ctx.own))
        out, trace, steps = gradient_descent_positions(
            ctx, layout.t, np.random.default_rng(0), eps=1e-6)
        assert steps == 0 and len(trace) == 1
        assert np.array_equal(out, layout.t)

    def test_respects_step_cap(self, monkeypatch):
        cfg, layout, ctx = self.make_ctx(3)
        monkeypatch.setattr(baselines, "GD_MAX_STEPS", 3)
        _, trace, steps = gradient_descent_positions(
            ctx, layout.t, np.random.default_rng(0), eps=0.0)
        assert steps == 3 and len(trace) == 4


class TestFixedArrayBaseline:
    def test_positions_are_uniform_arrays(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=4, N_r=4)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        res = solve_fpas(cfg, rlz, trial_rng(0, 0, 3), SolveOptions())
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
        res = solve_fpas(cfg, rlz, trial_rng(0, 0, 3))
        upa = upa_layout(4, cfg.D_min, cfg.region_half_width)
        assert_allclose(res.layout.t, upa)
        assert_allclose(res.layout.r, upa)
        assert res.converged

    def test_spacing_that_does_not_fit_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=4, N_r=4, A=1.0)
        cfg = cfg.replace(D_min=1.01 * cfg.wavelength)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        with pytest.raises(ConfigError, match="does not fit"):
            solve_fpas(cfg, rlz, trial_rng(0, 0, 3))

    def test_ignores_initial_layout(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 5, 1))
        a = run_algorithm("fpas", cfg, rlz, trial_rng(0, 0, 3))
        b = run_algorithm("fpas", cfg, rlz, trial_rng(0, 0, 3),
                          initial_layout=layout)
        assert a.rate == b.rate
        assert_allclose(a.layout.t, b.layout.t)

    def test_caller_options_unchanged(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        opts = SolveOptions(max_outer=3)
        solve_fpas(cfg, rlz, trial_rng(0, 0, 3), opts)
        assert opts == SolveOptions(max_outer=3)


class TestHalfDuplex:
    def test_no_uplink_service(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        res = solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), 0.5,
                                SolveOptions())
        assert res.ul_rates.size == 0
        assert res.rate > 0.0

    def test_rate_scales_with_duplex_factor(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        full = solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), 1.0,
                                 SolveOptions())
        half = solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), 0.5,
                                 SolveOptions())
        assert_allclose(half.rate, 0.5 * full.rate, rtol=1e-12)
        assert_allclose(np.asarray(half.trace),
                        0.5 * np.asarray(full.trace), rtol=1e-12)

    def test_caller_options_unchanged(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        opts = SolveOptions(max_outer=3, eval_rlz=rlz)
        solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), 0.5, opts)
        assert opts.eval_rlz is rlz

    def test_starts_from_the_given_layout(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        res = solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), 0.5,
                                SolveOptions(position_method="none"),
                                initial_layout=layout)
        assert np.array_equal(res.layout.t, layout.t)
        assert np.array_equal(res.layout.r, layout.r)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_out_of_range_duplex_factor_rejected(self, factor):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        with pytest.raises(ValueError, match="duplex factor"):
            solve_half_duplex(cfg, rlz, trial_rng(0, 0, 3), factor,
                              SolveOptions())


class TestDispatch:
    def test_all_names_run(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 0, 1))
        for name in ALGORITHMS:
            res = run_algorithm(name, cfg, rlz, trial_rng(0, 0, 3),
                                initial_layout=layout)
            assert np.isfinite(res.rate)
            assert res.rate >= 0.0

    def test_unknown_name_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=1, N_r=1)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm("annealing", cfg, rlz, trial_rng(0, 0, 3))

    def test_matched_seeds_reproduce(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 4, 0))
        layout = initialize_layout(cfg, trial_rng(0, 4, 1))
        for name in ("fp-bsum", "fp-gd"):
            a = run_algorithm(name, cfg, rlz, trial_rng(0, 4, 3),
                              initial_layout=layout)
            b = run_algorithm(name, cfg, rlz, trial_rng(0, 4, 3),
                              initial_layout=layout)
            assert a.rate == b.rate

    def test_position_optimization_helps_on_average(self):
        # Aggregate comparison on matched draws; individual trials may flip.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        gains = []
        for trial in range(60):
            rlz = sample_realization(cfg, trial_rng(0, trial, 0))
            layout = initialize_layout(cfg, trial_rng(0, trial, 1))
            moved = run_algorithm("fp-bsum", cfg, rlz, trial_rng(0, trial, 3),
                                  initial_layout=layout)
            fixed = run_algorithm("fpas", cfg, rlz, trial_rng(0, trial, 3))
            gains.append(moved.rate - fixed.rate)
        assert np.mean(gains) > 0.0
