import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd.channel import AntennaLayout, Channels, build_channels, \
    sample_realization, trial_rng
from prafd import baselines, beamforming, channel, fp, placement, solver
from prafd.baselines import fpas_layout, run_algorithm
from prafd.config import ConfigError, ScenarioConfig, validate_config
from prafd.geometry import FeasibleRegionSpec, is_feasible, \
    layout_side_feasible
from prafd.solver import (_Monitor, alternating_optimize, initial_state,
                          initialize_layout)
from oracles import same_bits, same_powers


def solve_drawn(cfg, rlz, rng, position_method="bsum", eval_rlz=None):
    """Solve from a layout drawn from `rng`, which then sets the sweep order."""
    layout = initialize_layout(cfg, rng)
    return alternating_optimize(cfg, rlz, rng, layout, position_method,
                                eval_rlz)


def start_of(algo, cfg, rng):
    """The layout an experiment starts `algo` from: the fixed arrays for
    fpas, else a draw from `rng`, which then sets the sweep order."""
    return fpas_layout(cfg) if algo == "fpas" else initialize_layout(cfg, rng)


def solve(cfg, trial=0, seed=0, position_method="bsum"):
    rlz = sample_realization(cfg, trial_rng(seed, trial, 0))
    return solve_drawn(cfg, rlz, trial_rng(seed, trial, 3), position_method)


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
        state = initial_state(ch, cfg)
        assert_allclose(np.real(np.trace(state.W_t.conj().T @ state.W_t)),
                        cfg.p_D_max, rtol=1e-12)
        assert_allclose(state.p, np.full(cfg.K_U, cfg.p_U_max))
        assert np.all(np.linalg.norm(state.W_r, axis=0) > 0)

    def test_initial_state_is_scored_by_its_pass(self):
        # The state holds its channels, the full received-power pass it
        # was scored on and the auxiliaries of that pass.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        rng = trial_rng(0, 1, 0)
        rlz = sample_realization(cfg, rng)
        ch = build_channels(initialize_layout(cfg, rng), rlz, cfg)
        state = initial_state(ch, cfg)
        assert state.ch is ch
        fresh = fp.received_powers(state.W_t, state.W_r, state.p, ch, cfg)
        assert all(np.array_equal(v, getattr(fresh, k))
                   for k, v in vars(state.powers).items())
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
        state = initial_state(ch, cfg)
        assert not state.W_t.any()
        e0 = np.zeros((cfg.N_r, cfg.K_U))
        e0[0] = 1.0
        assert np.array_equal(state.W_r, e0)
        assert not state.aux.gamma.any() and not state.aux.y.any()
        assert fp.weighted_sum_rate(fp.sinrs_of(state.powers), cfg) == 0.0


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

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_OUTER", 3)
        monkeypatch.setattr(solver, "EPSILON", 0.0)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        res = solve(cfg, 0)
        assert not res.converged
        assert res.outer_iterations == 3

    def test_fixed_initial_layout_is_used(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 7, 1))
        res = alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), layout,
                                   "none")
        assert_allclose(res.layout.t, layout.t)
        assert_allclose(res.layout.r, layout.r)
        assert res.bsum_sweeps == 0

    def test_positions_move_under_bsum(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        layout = initialize_layout(cfg, trial_rng(0, 7, 1))
        res = alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), layout,
                                   "bsum")
        assert not np.allclose(res.layout.t, layout.t)
        assert res.bsum_sweeps > 0

    def test_wrong_layout_shape_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=3, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        bad = AntennaLayout(t=np.zeros((2, 2)), r=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), bad, "bsum")

    def test_infeasible_layout_rejected(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        bad = AntennaLayout(t=np.zeros((2, 2)), r=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            alternating_optimize(cfg, rlz, trial_rng(0, 0, 3), bad, "bsum")

    def test_unknown_position_method_rejected_before_any_work(
            self, monkeypatch):
        def forbidden(*a):
            raise AssertionError("a received-power pass was made")

        monkeypatch.setattr(fp, "received_powers", forbidden)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        with pytest.raises(ValueError,
                           match="unknown position method 'BSUM'"):
            solve(cfg, 0, position_method="BSUM")

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
        res = solve_drawn(cfg, shifted, trial_rng(0, 0, 3), "none", true_rlz)
        assert res.outer_iterations >= 5
        assert len(calls) == 2 + res.outer_iterations

    def test_one_rate_per_iteration_without_evaluation_channels(
            self, monkeypatch):
        # Without evaluation channels the start and each iteration are
        # scored once, from the auxiliary pass's gamma, and `eval_trace`
        # reuses the rate.
        calls = []
        real = fp.weighted_sum_rate
        monkeypatch.setattr(fp, "weighted_sum_rate",
                            lambda *a: calls.append(1) or real(*a))
        res = solve(ScenarioConfig(), 0, position_method="none")
        assert res.outer_iterations >= 5
        assert len(calls) == 1 + res.outer_iterations
        assert res.eval_trace == res.trace

    def test_one_received_power_pass_per_grid_block(self, monkeypatch):
        # The grid block starts from the record the uplink power block left;
        # every full pass inside it confirms a candidate move on moved
        # channels.
        counts = {"powers": 0, "confirm": 0}
        mark = {}
        blocks = []
        real_powers, real_move = fp.received_powers, placement.move_side
        real_surrogate, real_place = fp.surrogate_objective, \
            placement.RateGrid.place

        def powers(*a):
            counts["powers"] += 1
            return real_powers(*a)

        def move(*a):
            counts["confirm"] += 1
            return real_move(*a)

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
        monkeypatch.setattr(placement, "move_side", move)
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
        # After every block the solver scores the surrogate from the
        # state's record; that record must equal a full pass on the state's
        # channels exactly, and those channels a rebuild of their layout,
        # or the monitor would check stale factors.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0)
        tags = set()
        for method in ("bsum", "gd", "none"):
            for trial in range(2):
                rlz = sample_realization(cfg, trial_rng(0, trial, 0))
                with monkeypatch.context() as m:
                    results, by_block = state_checks(
                        m, lambda state: is_current(state, rlz, cfg))
                    solve_drawn(cfg, rlz, trial_rng(0, trial, 3), method)
                assert len(results) > 1 and all(results)
                assert all(all(v) for v in by_block.values())
                tags |= set(by_block)
        assert tags == {"transmit beamformer", "receive beamformer",
                        "uplink power", "grid placement",
                        "transmit placement", "receive placement"}


class TestSideTerms:
    @pytest.mark.parametrize("algo, cfg, sides", [
        ("fp-bsum", ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2), [True, False]),
        ("fp-gd", ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2), [True, False]),
        ("fp-bsum", ScenarioConfig(K_D=2, K_U=0, N_t=2, N_r=2), [True]),
        ("hd", ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2), [True]),
        ("fpas", ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2), []),
        ("fp-bsum", ScenarioConfig(K_D=0, K_U=2, N_t=2, N_r=2), [False]),
        ("fp-gd", ScenarioConfig(K_D=0, K_U=2, N_t=2, N_r=2), [False]),
    ])
    def test_built_once_per_solve_for_each_side_with_users(
            self, monkeypatch, algo, cfg, sides):
        # Every context of a solve shares the side's terms, built once; a
        # side without users (the receive side of hd or of K_U = 0, the
        # transmit side of K_D = 0) gets none, and fixed arrays need none.
        built, used = [], []
        real_terms = placement.side_terms
        real_contexts = placement.transmit_context, placement.receive_context

        def terms(rlz, cfg, transmit):
            built.append((transmit, real_terms(rlz, cfg, transmit)))
            return built[-1][1]

        def context(real):
            def wrapped(*a):
                ctx = real(*a)
                used.append(ctx.terms)
                return ctx
            return wrapped

        monkeypatch.setattr(placement, "side_terms", terms)
        monkeypatch.setattr(placement, "transmit_context",
                            context(real_contexts[0]))
        monkeypatch.setattr(placement, "receive_context",
                            context(real_contexts[1]))
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        rng = trial_rng(0, 0, 3)
        res = run_algorithm(algo, cfg, rlz, rng, start_of(algo, cfg, rng))
        assert [transmit for transmit, _ in built] == sides
        assert res.outer_iterations > 1
        assert len(used) == len(sides) * res.outer_iterations
        shared = [t for _, t in built]
        assert all(any(t is s for s in shared) for t in used)


def same_record(a, b):
    """Two channel records hold the same bits, their layouts' included."""
    return all(same_bits(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(Channels) if f.name != "layout") \
        and same_bits(a.layout.t, b.layout.t) \
        and same_bits(a.layout.r, b.layout.r)


def is_current(state, rlz, cfg, layout=None):
    """The state's record is a full pass on its channels, and the channels
    are a rebuild of their own layout, or of `layout` when given, bit for
    bit."""
    fresh = fp.received_powers(state.W_t, state.W_r, state.p, state.ch, cfg)
    layout = state.ch.layout if layout is None else layout
    return same_powers(state.powers, fresh) \
        and same_record(state.ch, build_channels(layout, rlz, cfg))


def state_checks(monkeypatch, check):
    """Call `check(state)` wherever the solve scores the surrogate: at the
    start of each iteration and after every block.  Returns every result
    and, by block tag, the result of the surrogate each monitor block check
    compared."""
    results, by_block = [], {}
    real_surrogate, real_check = fp.surrogate_objective, _Monitor.check_block

    def surrogate(state, cfg):
        results.append(check(state))
        return real_surrogate(state, cfg)

    def check_block(self, before, after, tag):
        by_block.setdefault(tag, []).append(results[-1])
        return real_check(self, before, after, tag)

    monkeypatch.setattr(fp, "surrogate_objective", surrogate)
    monkeypatch.setattr(_Monitor, "check_block", check_block)
    return results, by_block


def after_each_side(monkeypatch, method, seen):
    """Call `seen(ctx, out)` after every placement side of `method`."""
    module, name = (placement, "bsum_optimize_side") if method == "bsum" \
        else (baselines, "gradient_descent_positions")
    real = getattr(module, name)

    def side(ctx, rng):
        out = real(ctx, rng)
        seen(ctx, out)
        return out

    monkeypatch.setattr(module, name, side)


def track_layout(monkeypatch, layout, method):
    """Follow the solve's layout from what the blocks return, not from the
    channel record: the start, every placement side's positions and every
    candidate the grid confirmed (`placement.move_side`) and kept, that is
    whose channels it left in the state or moved again.  Returns the
    followed layout."""
    current = layout.copy()
    candidates = []     # (channels moved from, moved to, side, positions)
    real_move, real_place = placement.move_side, placement.RateGrid.place

    def move(ch, side, positions, rlz, cfg):
        out = real_move(ch, side, positions, rlz, cfg)
        candidates.append((ch, out, side, positions.copy()))
        return out

    def place(self, state):
        candidates.clear()
        moves = real_place(self, state)
        for _, moved, side, positions in candidates:
            if moved is state.ch or any(c[0] is moved for c in candidates):
                setattr(current, side, positions)
        return moves

    monkeypatch.setattr(placement, "move_side", move)
    monkeypatch.setattr(placement.RateGrid, "place", place)
    after_each_side(monkeypatch, method, lambda ctx, out: setattr(
        current, "t" if ctx.terms.transmit else "r", out[0].copy()))
    return current


class TestChannelRecord:
    """The solve keeps one channel record: built once, then moved one side
    at a time, and always equal to a rebuild of the current layout, which
    it holds."""

    CFG = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0)

    @pytest.mark.parametrize("method", ["bsum", "gd", "none"])
    def test_equals_a_rebuild_after_every_block(self, monkeypatch, method):
        cfg = self.CFG
        tags = set()
        for trial in range(2):
            rlz = sample_realization(cfg, trial_rng(0, trial, 0))
            rng = trial_rng(0, trial, 3)
            layout = initialize_layout(cfg, rng)
            with monkeypatch.context() as m:
                current = track_layout(m, layout, method)
                # The rebuild's layout is the followed one, so the record's
                # layout is compared with it too.
                results, by_block = state_checks(
                    m, lambda state: is_current(state, rlz, cfg, current))
                res = alternating_optimize(cfg, rlz, rng, layout, method)
            assert len(results) > 1 and all(results)
            assert all(all(v) for v in by_block.values())
            tags |= set(by_block)
            assert same_bits(res.layout.t, current.t)
            assert same_bits(res.layout.r, current.r)
        blocks = {"transmit beamformer", "receive beamformer", "uplink power"}
        if method != "none":
            blocks |= {"transmit placement", "receive placement"}
        if method == "bsum":
            blocks.add("grid placement")
        assert tags == blocks

    @pytest.mark.parametrize("method", ["bsum", "gd"])
    def test_a_side_retakes_only_its_own_phasors(self, monkeypatch, method):
        # Between a placement side's return and the surrogate that scores
        # it, the solve takes exactly two channel exponentials: the moved
        # side's user-path and SI-path phasors at its new positions.
        cfg = self.CFG
        rlz = sample_realization(cfg, trial_rng(0, 1, 0))
        rng = trial_rng(0, 1, 3)
        layout = initialize_layout(cfg, rng)
        events = []
        real_response = channel.field_response
        real_surrogate = fp.surrogate_objective

        def response(positions, dirs, kappa):
            events.append(("exp", np.array(positions), dirs))
            return real_response(positions, dirs, kappa)

        def surrogate(*a, **kw):
            events.append(("surrogate",))
            return real_surrogate(*a, **kw)

        monkeypatch.setattr(channel, "field_response", response)
        after_each_side(monkeypatch, method, lambda ctx, out: events.append(
            ("side", ctx.terms.transmit, out[0].copy())))
        monkeypatch.setattr(fp, "surrogate_objective", surrogate)
        alternating_optimize(cfg, rlz, rng, layout, method)
        # The start's record: each side's two phasor arrays, once.
        assert [e[0] for e in events[:5]] == ["exp"] * 4 + ["surrogate"]
        sides = [i for i, e in enumerate(events) if e[0] == "side"]
        assert len(sides) >= 4
        for i in sides:
            _, transmit, pos = events[i]
            end = events.index(("surrogate",), i)
            taken = events[i + 1:end]
            user, si = (rlz.dl_dirs, rlz.si_t_dirs) if transmit \
                else (rlz.ul_dirs, rlz.si_r_dirs)
            assert [e[0] for e in taken] == ["exp", "exp"]
            assert all(same_bits(e[1], pos) for e in taken)
            assert same_bits(taken[0][2], user.reshape(-1, 2))
            assert same_bits(taken[1][2], si)

    def test_contexts_first_fields_and_grid_take_no_exponential(
            self, monkeypatch):
        # The contexts read their positions and the other side's SI
        # phasors, GD's first fields and the grid's SI rows read the record:
        # none of them takes an exponential, and the first fields equal
        # `layout_fields` bit for bit.
        cfg = ScenarioConfig(K_D=2, K_U=3, N_t=3, N_r=2, L=3, L_SI=2)
        rlz = sample_realization(cfg, trial_rng(0, 2, 0))
        layout = initialize_layout(cfg, trial_rng(0, 2, 3))
        state = initial_state(build_channels(layout, rlz, cfg), cfg)
        grid = placement.RateGrid(rlz, cfg)
        terms = (placement.side_terms(rlz, cfg, True),
                 placement.side_terms(rlz, cfg, False))

        def forbidden(*a, **k):
            raise AssertionError("an exponential was taken")

        with monkeypatch.context() as m:
            m.setattr(channel, "field_response", forbidden)
            m.setattr(np, "exp", forbidden)
            ctxs = (placement.transmit_context(state, terms[0]),
                    placement.receive_context(state, terms[1]))
            first = [placement.channel_fields(ctx) for ctx in ctxs]
            for side, count in (("t", cfg.N_t), ("r", cfg.N_r)):
                for n in range(count):
                    grid.rates(state, side, n)
        for ctx, fields, pos in zip(ctxs, first, (layout.t, layout.r)):
            assert ctx.positions is pos
            ref = placement.layout_fields(ctx, pos)
            assert all(same_bits(a, b) for a, b in zip(fields, ref))

    def test_gd_scores_its_start_from_the_record(self, monkeypatch):
        # GD's first objective is scored before any exponential is taken.
        cfg = self.CFG
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        rng = trial_rng(0, 0, 3)
        layout = initialize_layout(cfg, rng)
        events = []
        real_response = channel.field_response
        real_objective = baselines.placement_objective
        real_side = baselines.gradient_descent_positions

        def response(*a):
            events.append("exp")
            return real_response(*a)

        def objective(*a):
            events.append("objective")
            return real_objective(*a)

        def side(*a):
            events.append("side")
            return real_side(*a)

        monkeypatch.setattr(channel, "field_response", response)
        monkeypatch.setattr(baselines, "placement_objective", objective)
        monkeypatch.setattr(baselines, "gradient_descent_positions", side)
        alternating_optimize(cfg, rlz, rng, layout, "gd")
        starts = [i for i, e in enumerate(events) if e == "side"]
        assert len(starts) >= 4
        assert all(events[i + 1] == "objective" for i in starts)


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

        def side(ctx, rng):
            if not (spoiled and ctx is spoiled[-1]):
                return real_side(ctx, rng)

            # Moves the side to the symmetric layout of highest placement
            # objective, i.e. of lowest surrogate.
            def objective(pos):
                return placement.placement_objective(
                    ctx, placement.layout_fields(ctx, pos))
            start = objective(ctx.positions)
            worst = max((ctx.positions @ m for m in SQUARE_SYMMETRIES),
                        key=objective)
            assert objective(worst) > start + 1e-6 * (1.0 + abs(start))
            return worst, [start, objective(worst)], 1

        monkeypatch.setattr(placement, context, marked)
        monkeypatch.setattr(placement, "bsum_optimize_side", side)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        with pytest.raises(AssertionError,
                           match=f"surrogate decreased in {tag} block"):
            solve(cfg, 0)

    def test_grid_placement(self, monkeypatch):
        def place(self, state):
            # Moves transmit antenna 0 to its feasible grid point of lowest
            # true rate, with the channels and the full pass of the move.
            cfg = self.cfg
            pos = state.ch.layout.t
            region = FeasibleRegionSpec(cfg.region_half_width,
                                        np.delete(pos, 0, axis=0), cfg.D_min)
            vals = self.rates(state, "t", 0)
            vals[~is_feasible(self.points, region)] = np.inf
            cand = pos.copy()
            cand[0] = self.points[np.argmin(vals)]
            rate = fp.weighted_sum_rate(fp.sinrs_of(state.powers), cfg)
            state.ch = placement.move_side(state.ch, "t", cand, self.rlz, cfg)
            state.powers = fp.received_powers(state.W_t, state.W_r, state.p,
                                              state.ch, cfg)
            spoiled.append(fp.weighted_sum_rate(fp.sinrs_of(state.powers),
                                                cfg) < rate)
            return 1

        spoiled = []
        monkeypatch.setattr(placement.RateGrid, "place", place)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        with pytest.raises(AssertionError,
                           match="surrogate decreased in grid placement block"):
            solve(cfg, 0)
        assert spoiled == [True]

    @pytest.mark.parametrize("method", ["none", "bsum", "gd"])
    @pytest.mark.parametrize("gain", ["prm_dl", "prm_ul", "sigma_si",
                                      "h_iui"])
    def test_nan_path_gain(self, gain, method):
        # One NaN path gain makes every rate and surrogate NaN.  The
        # sandwich check must fail on the first one, not let the run go on
        # to a NaN trace or to an error in the placement blocks.  numpy's
        # warnings on the NaN arithmetic are expected here.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        getattr(rlz, gain)[0, 0] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(AssertionError,
                              match="surrogate nan does not match rate nan"):
            solve_drawn(cfg, rlz, trial_rng(0, 0, 3), method)


class TestBlockTable:
    """Each iteration runs the table's entries in order; the grid retires
    the first time it moves nothing."""

    @pytest.mark.parametrize("method", ["bsum", "gd", "none"])
    def test_order_and_grid_retirement(self, monkeypatch, method):
        events = []
        real_place, real_check = placement.RateGrid.place, \
            _Monitor.check_block

        def place(self, state):
            moves = real_place(self, state)
            events.append(("place", moves))
            return moves

        def check_block(self, before, after, tag):
            events.append(tag)
            return real_check(self, before, after, tag)

        monkeypatch.setattr(placement.RateGrid, "place", place)
        monkeypatch.setattr(_Monitor, "check_block", check_block)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        retired = 0
        for trial in range(4):
            events.clear()
            res = solve(cfg, trial, position_method=method)
            # The grid's returns, in order, decide when it retires; the
            # rest of each iteration is fixed by the method.
            moves = iter([e[1] for e in events if isinstance(e, tuple)])
            expected, grid = [], method == "bsum"
            for _ in range(res.outer_iterations):
                expected += ["transmit beamformer", "receive beamformer",
                             "uplink power"]
                if grid:
                    n = next(moves)
                    expected.append(("place", n))
                    if n:
                        expected.append("grid placement")
                    grid = bool(n)
                    retired += not n
                if method != "none":
                    expected += ["transmit placement", "receive placement"]
            assert events == expected
        # The rule is seen to retire the grid before the run converges.
        assert (retired > 0) == (method == "bsum")


class TestMismatchedEvaluation:
    def test_eval_channels_score_the_result(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        true_rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        shifted = replace(true_rlz, dl_angles=true_rlz.dl_angles + 0.3)
        res = solve_drawn(cfg, shifted, trial_rng(0, 0, 3), eval_rlz=true_rlz)
        assert len(res.eval_trace) == len(res.trace)
        assert_allclose(res.rate, res.eval_trace[-1], rtol=1e-12)
        assert res.rate != res.trace[-1]

    def test_matched_eval_is_identity(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz = sample_realization(cfg, trial_rng(0, 0, 0))
        res = solve_drawn(cfg, rlz, trial_rng(0, 0, 3), eval_rlz=rlz)
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
            rng = trial_rng(5, trial, 3)
            res = run_algorithm(algo, cfg, rlz, rng,
                                start_of(algo, cfg, rng), eval_rlz)
            user_rates = np.concatenate([res.dl_rates, res.ul_rates])
            assert user_rates @ cfg.weights == res.rate
            assert res.rate == res.eval_trace[-1]
            if not mismatched:
                assert res.eval_trace == res.trace


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

    @pytest.mark.parametrize("before, after", [
        (2.0, np.nan), (np.nan, 2.0), (np.nan, np.nan)])
    def test_check_block_raises_on_nan(self, before, after):
        with pytest.raises(AssertionError, match="surrogate decreased"):
            _Monitor().check_block(before, after, "transmit beamformer")

    @pytest.mark.parametrize("surrogate, rate", [
        (5.0, np.nan), (np.nan, 5.0), (np.nan, np.nan)])
    def test_check_sandwich_raises_on_nan(self, surrogate, rate):
        with pytest.raises(AssertionError, match="does not match"):
            _Monitor().check_sandwich(surrogate, rate)
