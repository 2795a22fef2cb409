from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd.channel import AntennaLayout, build_channels, sample_realization, \
    trial_rng
from prafd import beamforming, fp, placement, solver
from prafd.baselines import run_algorithm
from prafd.config import ConfigError, ScenarioConfig, validate_config
from prafd.geometry import layout_side_feasible
from prafd.solver import (SolveOptions, _Monitor, alternating_optimize,
                          initial_state, initialize_layout)


def solve(cfg, trial=0, seed=0, **opt_kw):
    rlz = sample_realization(cfg, trial_rng(seed, trial, 0))
    rng = trial_rng(seed, trial, 3)
    return alternating_optimize(cfg, rlz, rng, options=SolveOptions(**opt_kw))


class TestInitialization:
    def test_layout_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=4, N_r=4)
        for trial in range(50):
            layout = initialize_layout(cfg, trial_rng(0, trial, 1))
            for side in (layout.t, layout.r):
                assert layout_side_feasible(side, cfg.region_half_width,
                                            cfg.D_min)

    def test_layout_deterministic(self):
        cfg = ScenarioConfig()
        a = initialize_layout(cfg, trial_rng(0, 3, 1))
        b = initialize_layout(cfg, trial_rng(0, 3, 1))
        assert_allclose(a.t, b.t)
        assert_allclose(a.r, b.r)

    def test_impossible_packing_rejected(self):
        # Spacing requirement too large for the square to ever satisfy.
        cfg = ScenarioConfig(N_t=3, N_r=1)
        cfg = cfg.replace(D_min=1.9 * 2 * cfg.region_half_width)
        with pytest.raises(ConfigError):
            initialize_layout(cfg, trial_rng(0, 0, 1))

    def test_rejection_cap_raises_on_valid_config(self, monkeypatch):
        # Four antennas D_min = side apart fit only on the exact corners:
        # the packing bound accepts the config, but sampling never does.
        monkeypatch.setattr(solver, "INIT_REJECTION_CAP", 50)
        cfg = ScenarioConfig(N_t=4, N_r=1)
        cfg = cfg.replace(D_min=2 * cfg.region_half_width)
        validate_config(cfg)
        with pytest.raises(ConfigError, match="after 50 rejections"):
            initialize_layout(cfg, trial_rng(0, 0, 1))

    def test_initial_state_uses_full_budgets(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        rng = trial_rng(0, 0, 0)
        rlz = sample_realization(cfg, rng)
        ch = build_channels(initialize_layout(cfg, rng), rlz, cfg)
        state, _ = initial_state(ch, cfg)
        assert_allclose(np.real(np.trace(state.W_t.conj().T @ state.W_t)),
                        cfg.p_D_max, rtol=1e-12)
        assert_allclose(state.p, np.full(cfg.K_U, cfg.p_U_max))
        assert np.all(np.linalg.norm(state.W_r, axis=0) > 0)

    def test_initial_state_is_scored_by_its_pass(self):
        # The state comes with the full received-power pass it was scored
        # on and the auxiliaries of that pass.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        rng = trial_rng(0, 1, 0)
        rlz = sample_realization(cfg, rng)
        ch = build_channels(initialize_layout(cfg, rng), rlz, cfg)
        state, powers = initial_state(ch, cfg)
        fresh = fp.received_powers(state.W_t, state.W_r, state.p, ch, cfg)
        assert all(np.array_equal(v, getattr(fresh, k))
                   for k, v in vars(powers).items())
        ref = fp.auxiliary_pass(fresh, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(state.aux, ref))

    def test_zero_gain_start_uses_unit_receive_columns(self):
        # With rho_0 = 0 every user channel is zero: the transmit beams are
        # zero and each receive column falls back to the first unit vector,
        # so the first pass scores every SINR at exactly 0.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, rho_0=0.0)
        rng = trial_rng(0, 0, 0)
        rlz = sample_realization(cfg, rng)
        ch = build_channels(initialize_layout(cfg, rng), rlz, cfg)
        state, powers = initial_state(ch, cfg)
        assert not state.W_t.any()
        e0 = np.zeros((cfg.N_r, cfg.K_U))
        e0[0] = 1.0
        assert np.array_equal(state.W_r, e0)
        assert not state.aux.gamma.any() and not state.aux.y.any()
        assert fp.weighted_sum_rate(powers, cfg) == 0.0


class TestAlternatingOptimize:
    def test_trace_monotone_and_converges(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        for trial in range(10):
            res = solve(cfg, trial)
            trace = np.asarray(res.trace)
            assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0,
                                                               trace[:-1]))
            assert res.converged
            assert res.outer_iterations == len(trace) - 1
            assert res.sandwich_gap <= 1e-9
            assert_allclose(res.rate, trace[-1], rtol=1e-12)

    def test_single_path_single_antenna_converges_quickly(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=1, N_r=1, L=1, L_SI=1)
        for trial in range(10):
            res = solve(cfg, trial)
            assert res.converged
            assert res.outer_iterations <= 20

    def test_silent_uplink_budget_converges_quickly(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2, p_U_max=1e-30)
        res = solve(cfg, 0)
        assert res.converged
        assert res.outer_iterations <= 2
        assert_allclose(res.ul_rates, 0.0, atol=1e-12)

    def test_rate_fields_consistent(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        res = solve(cfg, 1)
        w = cfg.weights
        combined = w[:2] @ res.dl_rates + w[2:] @ res.ul_rates
        assert_allclose(combined, res.rate, rtol=1e-9)
        assert res.wall_time > 0.0
        assert res.layout.t.shape == (2, 2) and res.layout.r.shape == (2, 2)

    def test_final_layout_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        for trial in range(5):
            res = solve(cfg, trial)
            for side in (res.layout.t, res.layout.r):
                assert layout_side_feasible(side, cfg.region_half_width,
                                            cfg.D_min)

    def test_deterministic_given_streams(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        a = solve(cfg, 2)
        b = solve(cfg, 2)
        assert a.rate == b.rate
        assert_allclose(a.layout.t, b.layout.t)
        assert a.trace == b.trace

    def test_iteration_cap_reported(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, epsilon=0.0)
        res = solve(cfg, 0, max_outer=3)
        assert not res.converged
        assert res.outer_iterations == 3

    def test_fixed_initial_layout_is_used(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 7, 1))
        opts = SolveOptions(position_method="none")
        res = alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), layout, opts)
        assert_allclose(res.layout.t, layout.t)
        assert_allclose(res.layout.r, layout.r)
        assert res.bsum_sweeps == 0

    def test_positions_move_under_bsum(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 7, 1))
        res = alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), layout,
                                   SolveOptions())
        assert not np.allclose(res.layout.t, layout.t)
        assert res.bsum_sweeps > 0

    def test_wrong_layout_shape_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=3, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        bad = AntennaLayout(t=np.zeros((2, 2)), r=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), bad)

    def test_infeasible_layout_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        bad = AntennaLayout(t=np.zeros((2, 2)), r=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), bad)


    def test_one_received_power_pass_per_block(self, monkeypatch):
        # One full pass at the start scores the initial rate and feeds the
        # first auxiliary pass; every block then updates that record in
        # place, and the surrogates and auxiliary passes read it.  The last
        # auxiliary pass's SINRs give the per-user rates, so no iteration
        # and no end of run makes a full pass.
        calls = []
        real = fp.received_powers
        monkeypatch.setattr(fp, "received_powers",
                            lambda *a: calls.append(1) or real(*a))
        cfg = ScenarioConfig()
        res = solve(cfg, 0, position_method="none")
        assert res.outer_iterations >= 5
        assert len(calls) == 1

    def test_one_auxiliary_record_per_pass(self, monkeypatch):
        # The FP coefficients are derived once per auxiliary pass, and the
        # blocks and surrogates between passes read that record.  The
        # initial state is scored by a pass too, so builds equal passes.
        builds, passes = [], []
        real_build, real_pass = fp.auxiliaries, fp.auxiliary_pass
        monkeypatch.setattr(fp, "auxiliaries",
                            lambda *a: builds.append(1) or real_build(*a))
        monkeypatch.setattr(
            fp, "auxiliary_pass",
            lambda *a, **kw: passes.append(1) or real_pass(*a, **kw))
        cfg = ScenarioConfig()
        res = solve(cfg, 0, position_method="none")
        assert res.outer_iterations >= 5
        assert len(passes) == 1 + res.outer_iterations
        assert len(builds) == len(passes)

    def test_one_evaluation_pass_per_iteration(self, monkeypatch):
        # With evaluation channels the run adds one full pass on them at
        # the start and one per iteration; its SINRs are what is reported.
        calls = []
        real = fp.received_powers
        monkeypatch.setattr(fp, "received_powers",
                            lambda *a: calls.append(1) or real(*a))
        cfg = ScenarioConfig()
        true_rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        shifted = replace(true_rlz, dl_angles=true_rlz.dl_angles + 0.3)
        opts = SolveOptions(position_method="none", eval_rlz=true_rlz)
        res = alternating_optimize(cfg, shifted, trial_rng(0, 0, 3),
                                   options=opts)
        assert res.outer_iterations >= 5
        assert len(calls) == 2 + res.outer_iterations

    def test_one_received_power_pass_per_grid_block(self, monkeypatch):
        # The grid block starts from the record the uplink power block left;
        # every full pass inside it confirms a candidate move on rebuilt
        # channels.
        counts = {"powers": 0, "confirm": 0}
        mark = {}
        blocks = []
        real_powers, real_build = fp.received_powers, placement.build_channels
        real_surrogate, real_place = fp.surrogate_objective, \
            placement.RateGrid.place

        def powers(*a):
            counts["powers"] += 1
            return real_powers(*a)

        def build(*a):
            counts["confirm"] += 1
            return real_build(*a)

        def surrogate(*a, **kw):
            out = real_surrogate(*a, **kw)
            mark.update(counts)
            return out

        def place(self, *a):
            out = real_place(self, *a)
            blocks.append({k: counts[k] - mark[k] for k in counts})
            return out

        monkeypatch.setattr(fp, "received_powers", powers)
        monkeypatch.setattr(fp, "surrogate_objective", surrogate)
        monkeypatch.setattr(placement, "build_channels", build)
        monkeypatch.setattr(placement.RateGrid, "place", place)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0)
        confirmed = 0
        for trial in range(3):
            blocks.clear()
            solve(cfg, trial)
            assert blocks
            for block in blocks:
                assert block["powers"] == block["confirm"]
                confirmed += block["confirm"]
        assert confirmed > 0

    def test_updated_record_equals_a_full_pass(self, monkeypatch):
        # After every block the solver scores the surrogate from the record
        # it updated; that record must equal a full pass on the current
        # state and channels exactly, or the monitor would check stale
        # factors.
        pending, seen = [], {}
        real_surrogate = fp.surrogate_objective
        real_check = _Monitor.check_block

        def surrogate(state, ch, cfg, *, powers):
            fresh = fp.received_powers(state.W_t, state.W_r, state.p, ch, cfg)
            pending.append(vars(powers).keys() == vars(fresh).keys() and all(
                np.array_equal(v, getattr(fresh, k))
                for k, v in vars(powers).items()))
            return real_surrogate(state, ch, cfg, powers=powers)

        def check_block(self, before, after, tag):
            seen.setdefault(tag, []).append(pending[-1])
            return real_check(self, before, after, tag)

        monkeypatch.setattr(fp, "surrogate_objective", surrogate)
        monkeypatch.setattr(_Monitor, "check_block", check_block)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0)
        for trial in range(2):
            solve(cfg, trial)
        assert set(seen) == {"transmit beamformer", "receive beamformer",
                             "uplink power", "grid placement",
                             "transmit placement", "receive placement"}
        assert all(pending)
        assert all(all(v) for v in seen.values())


# The eight symmetries of the square region: each maps a feasible layout to
# a feasible layout.
SQUARE_SYMMETRIES = [np.array([[a, 0], [0, b]]) for a in (1, -1)
                     for b in (1, -1)] + \
    [np.array([[0, a], [b, 0]]) for a in (1, -1) for b in (1, -1)]


class TestMonitorEndToEnd:
    """A block that lowers the surrogate must stop the run, naming itself.

    Each case spoils one block through the module attribute the solver
    looks up; if the surrogate were scored from stale factors, the drop
    would go unseen.
    """

    @pytest.mark.parametrize("attr, tag, spoil", [
        # -W_t keeps every SINR but flips the quadratic transform's linear
        # term; twice the optimal W_r overshoots the receive quadratic;
        # zero power forgoes every uplink reward.
        ("update_transmit_beamformer", "transmit beamformer", np.negative),
        ("update_receive_beamformer", "receive beamformer",
         lambda w: 2.0 * w),
        ("update_uplink_power", "uplink power", np.zeros_like),
    ])
    def test_closed_form_block(self, monkeypatch, attr, tag, spoil):
        real = getattr(beamforming, attr)
        monkeypatch.setattr(beamforming, attr,
                            lambda *a: spoil(real(*a)))
        cfg = ScenarioConfig()
        with pytest.raises(AssertionError,
                           match=f"surrogate decreased in {tag} block"):
            solve(cfg, 0, position_method="none")

    @pytest.mark.parametrize("context, tag", [
        ("transmit_context", "transmit placement"),
        ("receive_context", "receive placement"),
    ])
    def test_placement_side(self, monkeypatch, context, tag):
        spoiled = []
        real_context = getattr(placement, context)
        real_side = placement.bsum_optimize_side

        def marked(*a):
            spoiled.append(real_context(*a))
            return spoiled[-1]

        def side(ctx, positions, rng, eps):
            if not (spoiled and ctx is spoiled[-1]):
                return real_side(ctx, positions, rng, eps)

            # Moves the side to the symmetric layout of highest placement
            # objective, i.e. of lowest surrogate.
            def objective(pos):
                return placement.placement_objective(
                    ctx, placement.layout_fields(ctx, pos))
            start = objective(positions)
            worst = max((positions @ m for m in SQUARE_SYMMETRIES),
                        key=objective)
            assert objective(worst) > start + 1e-6 * (1.0 + abs(start))
            return worst, [start, objective(worst)], 1

        monkeypatch.setattr(placement, context, marked)
        monkeypatch.setattr(placement, "bsum_optimize_side", side)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        with pytest.raises(AssertionError,
                           match=f"surrogate decreased in {tag} block"):
            solve(cfg, 0)


class TestMismatchedEvaluation:
    def test_eval_channels_score_the_result(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        true_rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        shifted = replace(true_rlz, dl_angles=true_rlz.dl_angles + 0.3)
        opts = SolveOptions(eval_rlz=true_rlz)
        res = alternating_optimize(cfg, shifted, trial_rng(0, 0, 3),
                                   options=opts)
        assert len(res.eval_trace) == len(res.trace)
        assert_allclose(res.rate, res.eval_trace[-1], rtol=1e-12)
        assert res.rate != res.trace[-1]

    def test_matched_eval_is_identity(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        opts = SolveOptions(eval_rlz=rlz)
        res = alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), options=opts)
        assert_allclose(res.rate, res.trace[-1], rtol=1e-12)


class TestReportedRates:
    """The trial's rate and its per-user rates come from one SINR vector."""

    @pytest.mark.parametrize("algo", ["fp-bsum", "fp-gd", "fpas"])
    @pytest.mark.parametrize("mismatched", [False, True])
    def test_rate_is_weighted_user_rates(self, algo, mismatched):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0)
        for trial in range(3):
            true_rlz = sample_realization(cfg, trial_rng(5, trial, 0))
            rlz, eval_rlz = true_rlz, None
            if mismatched:
                rlz = replace(true_rlz, dl_angles=true_rlz.dl_angles + 0.05)
                eval_rlz = true_rlz
            res = run_algorithm(algo, cfg, rlz, trial_rng(5, trial, 3),
                                eval_rlz=eval_rlz)
            user_rates = np.concatenate([res.dl_rates, res.ul_rates])
            assert user_rates @ cfg.weights == res.rate
            assert res.rate == res.eval_trace[-1]


class TestMonitor:
    def test_check_block_returns_after_within_tolerance(self):
        m = _Monitor()
        assert m.check_block(2.0, 3.0, "grow") == 3.0
        # A drop of 0.5e-9 relative to max(1, |before|) is tolerated.
        assert m.check_block(2.0, 2.0 - 1e-9, "flat") == 2.0 - 1e-9

    def test_check_block_raises_naming_the_block(self):
        m = _Monitor()
        with pytest.raises(AssertionError, match="receive beamformer"):
            m.check_block(2.0, 2.0 - 3e-9, "receive beamformer")
        with pytest.raises(AssertionError, match="uplink power"):
            m.check_block(0.1, 0.1 - 2e-9, "uplink power")

    def test_check_sandwich_keeps_largest_gap(self):
        m = _Monitor()
        m.check_sandwich(5.0 + 2e-9, 5.0)       # relative gap 4e-10
        m.check_sandwich(0.5, 0.5 + 5e-10)      # gap 5e-10 against 1.0
        m.check_sandwich(5.0, 5.0)
        assert_allclose(m.sandwich_gap, 5e-10, rtol=1e-6)

    def test_check_sandwich_raises_on_gap(self):
        m = _Monitor()
        with pytest.raises(AssertionError, match="does not match"):
            m.check_sandwich(5.0 + 1e-7, 5.0)
        assert m.sandwich_gap > 1e-9
