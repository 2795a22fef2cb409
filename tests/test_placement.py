import itertools
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from prafd.channel import build_channels, sample_realization, trial_rng, \
    AntennaLayout
from prafd.config import ScenarioConfig
from prafd import channel, fp, placement
from prafd.fp import (auxiliary_pass, received_powers, sinrs_of,
                      weighted_sum_rate)
from prafd.geometry import layout_side_feasible
from oracles import (auxiliaries_at, central_difference_gradient,
                           central_difference_hessian, fresh_surrogate,
                           random_complex,
                           reference_antenna_bundle,
                           reference_curvature_bound)
from prafd.placement import (ExpSum, RateGrid, antenna_bundle,
                             bsum_optimize_side, curvature_bound, grid_axis,
                             layout_fields, placement_gradient,
                             placement_objective, receive_context,
                             side_terms, term_moments, transmit_context)
from prafd.solver import initial_state, initialize_layout

LN2 = np.log(2.0)


def sides(state, rlz, cfg):
    """(context, positions) of the transmit side, then the receive side,
    on the state's channels."""
    layout = state.ch.layout
    return ((transmit_context(state, side_terms(rlz, cfg, True)), layout.t),
            (receive_context(state, side_terms(rlz, cfg, False)), layout.r))


def make_contexts(cfg, trial=0):
    rng = trial_rng(0, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    state = initial_state(build_channels(layout, rlz, cfg), cfg)
    (ctx_t, _), (ctx_r, _) = sides(state, rlz, cfg)
    return rlz, layout, state.ch, state, ctx_t, ctx_r


def objective_at(ctx, pos):
    return placement_objective(ctx, layout_fields(ctx, pos))


def bundle_at(ctx, pos, n):
    H, _, _, _, si_e = layout_fields(ctx, pos)
    return antenna_bundle(ctx, H, si_e, n)


def random_exp_sum(rng, n_terms=12, kappa=500.0):
    coefs = random_complex(rng, (n_terms,))
    ang = rng.uniform(0, 2 * np.pi, n_terms)
    dirs = kappa * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    cap = float((np.abs(coefs) * (dirs ** 2).sum(axis=1)).sum())
    return ExpSum(coefs=coefs, dirs=dirs, moments=term_moments(dirs), cap=cap)


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
        # Nothing is cached between points: phasors a caller took earlier
        # and kept, like a BSUM phasor-table row, evaluate to what a fresh
        # ExpSum gives at that point, bit for bit, whatever was evaluated
        # in between, also after the point array is mutated in place.
        rng = np.random.default_rng(7)
        es = random_exp_sum(rng)
        t1 = rng.uniform(-0.01, 0.01, 2)
        t2 = rng.uniform(-0.01, 0.01, 2)
        point = t1.copy()
        kept = []

        def same(t):
            kept.append((t.copy(), es.phasors(t)))
            for at, e in kept:
                fresh = ExpSum(coefs=es.coefs, dirs=es.dirs,
                               moments=es.moments, cap=es.curvature_cap())
                value, mp = es.evaluate(e)
                assert value == es.score(e) == fresh.value(at)
                assert np.array_equal(-mp[1, :2], fresh.gradient(at))
                assert np.array_equal(
                    -mp[0, [[2, 3], [3, 4]]], fresh.hessian(at))
                assert np.array_equal(mp, fresh.moment_product(at))

        same(point)
        same(t2)
        same(t1)
        same(point)
        point[:] = t2 + 1e-3
        same(point)
        point[1] = -0.0
        same(point)


class TestBundleReference:
    """The bundle built from per-solve, per-context, per-layout and
    per-point parts equals the from-scratch reference bit for bit; its
    curvature bound, taken from the moment product rather than the
    reference's einsum, agrees to 1e-12 relative."""

    @staticmethod
    def check(ctx, pos, n, bundle):
        ref_coefs, ref_dirs = reference_antenna_bundle(ctx, pos, n)
        assert np.array_equal(bundle.coefs, ref_coefs)
        assert np.array_equal(bundle.dirs, ref_dirs)
        ref = reference_curvature_bound(ref_coefs, ref_dirs, pos[n],
                                        placement.TAU_MIN_FACTOR)
        tau = curvature_bound(bundle, bundle.moment_product(pos[n]))
        assert abs(tau - ref) <= 1e-12 * abs(ref)

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
            for ctx, pos0 in sides(state, rlz, cfg):
                pos = pos0.copy()
                # Revisit antennas after moves, so the parts kept per
                # antenna are reused against new layouts.
                order = list(range(len(pos))) + [len(pos) - 1, 0]
                for n in order:
                    self.check(ctx, pos, n, bundle_at(ctx, pos, n))
                    pos[n] += rng.uniform(-0.1, 0.1, 2) * cfg.wavelength

    def test_rows_stay_the_contexts_own(self):
        # A bundle writes its linear terms into a copy of the context's
        # row: bundles for n, for m != n and for n again under new fields
        # each keep the coefficients of the fields they were built from,
        # and the rows do not change.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=4, L=3, L_SI=3)
        rng = np.random.default_rng(16)
        rlz, layout, _, state, _, _ = make_contexts(cfg, 1)
        state.W_t = random_complex(rng, state.W_t.shape, 0.1)
        for ctx, pos0 in sides(state, rlz, cfg):
            rows = ctx.rows.copy()
            pos1 = pos0.copy()
            pos1[2] += 0.1 * cfg.wavelength
            built = [(pos, n, bundle_at(ctx, pos, n))
                     for pos, n in ((pos0, 0), (pos0, 2), (pos1, 0))]
            for pos, n, bundle in built:
                assert not np.shares_memory(bundle.coefs, ctx.rows)
                ref_coefs, _ = reference_antenna_bundle(ctx, pos, n)
                assert np.array_equal(bundle.coefs, ref_coefs)
            assert not np.array_equal(built[0][2].coefs, built[2][2].coefs)
            assert np.array_equal(ctx.rows, rows)


def deflated_linear_terms(ctx, fields, n):
    """Antenna n's linear coefficients (user, SI) from the fields with its
    own contribution removed: D0 = D - outer(conj(w_n), H[n]) and X with
    column n zeroed.  An independent reference for the factored bundle,
    which reads neither D nor X."""
    H, D, X, _, _ = fields
    wn = ctx.W[n].conj()
    D0 = D - np.outer(wn, H[n, :])
    d = ctx.chan_w * ((ctx.beam_w * wn) @ D0.conj())
    user = (2.0 * (d - ctx.lin * wn))[:, None] * ctx.terms.user_prm
    X0 = X.copy()
    X0[:, n] = 0.0
    u_lin = ctx.other @ X0 @ ctx.own[:, n]
    return user.ravel(), 2.0 * (u_lin.conj() @ ctx.si_mix)


class TestBundleAgainstDeflatedFields:
    def test_both_sides_with_revisits(self):
        # The factored linear terms agree with the deflated-field form to
        # rounding, the pair terms are the context's rows, and the
        # curvature cap, the rows' pair share plus the linear terms', is
        # the sum over all terms.
        cfgs = (ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=4, L=3, L_SI=3),
                ScenarioConfig(K_D=3, K_U=1, N_t=3, N_r=2, L=8, L_SI=3))
        rng = np.random.default_rng(21)
        for cfg, trial in itertools.product(cfgs, range(4)):
            rlz, layout, _, state, _, _ = make_contexts(cfg, trial)
            state.W_t = random_complex(rng, state.W_t.shape, 0.1)
            state.W_r = random_complex(rng, state.W_r.shape)
            for ctx, pos0 in sides(state, rlz, cfg):
                t, pos = ctx.terms, pos0.copy()
                for n in list(range(len(pos))) + [len(pos) - 1, 0]:
                    fields = layout_fields(ctx, pos)
                    bundle = antenna_bundle(ctx, fields[0], fields[4], n)
                    user, si = deflated_linear_terms(ctx, fields, n)
                    scale = np.abs(bundle.coefs).max()
                    assert scale > 0.0
                    assert np.abs(bundle.coefs[t.user_lin] - user).max() \
                        <= 1e-12 * scale
                    assert np.abs(bundle.coefs[t.si_lin] - si).max() \
                        <= 1e-12 * scale
                    assert np.array_equal(bundle.coefs[t.si_lin.stop:],
                                          ctx.rows[n, t.si_lin.stop:])
                    cap = float((np.abs(bundle.coefs) * t.norm2).sum())
                    assert abs(bundle.curvature_cap() - cap) <= 1e-12 * cap
                    pos[n] += rng.uniform(-0.1, 0.1, 2) * cfg.wavelength


class TestMomentProduct:
    def test_cached_evaluation_matches_the_pair_term_reference(self):
        # Value, gradient and Hessian read one evaluation each, the
        # derivatives through the moment product; the reference forms
        # each from the phased coefficients term by term, the Hessian by
        # the three-operand einsum.  Points range over the whole region.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rng = np.random.default_rng(14)
        for trial in range(4):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                for n in range(len(pos)):
                    bundle = bundle_at(ctx, pos, n)
                    cap = bundle.curvature_cap()
                    mag = np.abs(bundle.coefs)
                    for _ in range(25):
                        t = rng.uniform(-1.0, 1.0, 2) * ctx.terms.half_width
                        w = bundle.coefs * np.exp(1j * (bundle.dirs @ t))
                        hess = -np.einsum("m,mi,mj->ij", w.real, bundle.dirs,
                                          bundle.dirs)
                        assert abs(bundle.value(t) - w.real.sum()) \
                            <= 1e-12 * mag.sum()
                        assert np.abs(bundle.gradient(t)
                                      + w.imag @ bundle.dirs).max() \
                            <= 1e-12 * (mag @ np.sqrt(ctx.terms.norm2))
                        assert np.abs(bundle.hessian(t) - hess).max() \
                            <= 1e-12 * cap


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
            for ctx, pos in sides(state, rlz, cfg):
                fields = layout_fields(ctx, pos)
                ref = np.stack([
                    antenna_bundle(ctx, fields[0], fields[4], n).gradient(pos[n])
                    for n in range(len(pos))])
                joint = placement_gradient(ctx, fields)
                assert joint.shape == pos.shape
                assert np.linalg.norm(joint - ref) \
                    <= 1e-12 * np.linalg.norm(ref)

    def test_zero_beamformers_give_a_zero_gradient(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        rlz, layout, _, state, _, _ = make_contexts(cfg)
        state.W_t = np.zeros_like(state.W_t)
        state.W_r = np.zeros_like(state.W_r)
        for ctx, pos in sides(state, rlz, cfg):
            grad = placement_gradient(ctx, layout_fields(ctx, pos))
            assert np.all(grad == 0.0)

    def test_takes_no_exponential(self, monkeypatch):
        # The joint gradient reads the phasors the fields contracted, so
        # it needs neither np.exp nor channel.field_response.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=4, L=3, L_SI=3)
        rlz, layout, _, state, _, _ = make_contexts(cfg, 2)

        def forbidden(*a, **k):
            raise AssertionError("placement_gradient took an exponential")

        for ctx, pos in sides(state, rlz, cfg):
            fields = layout_fields(ctx, pos)
            ref = np.stack([
                antenna_bundle(ctx, fields[0], fields[4], n).gradient(pos[n])
                for n in range(len(pos))])
            with monkeypatch.context() as m:
                m.setattr(np, "exp", forbidden)
                m.setattr(channel, "field_response", forbidden)
                joint = placement_gradient(ctx, fields)
            assert np.linalg.norm(joint - ref) <= 1e-12 * np.linalg.norm(ref)


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
        rlz, layout, _, state, ctx_t, ctx_r = make_contexts(cfg)
        sur0 = fresh_surrogate(state, cfg)
        f0_t = objective_at(ctx_t, layout.t)
        f0_r = objective_at(ctx_r, layout.r)
        for _ in range(10):
            t_new = layout.t + rng.uniform(-1, 1, (3, 2)) * cfg.wavelength
            ch_new = build_channels(AntennaLayout(t=t_new, r=layout.r), rlz, cfg)
            d_sur = fresh_surrogate(replace(state, ch=ch_new), cfg) - sur0
            d_f = objective_at(ctx_t, t_new) - f0_t
            assert_allclose(d_sur, -d_f / LN2, rtol=1e-9, atol=1e-12)
            r_new = layout.r + rng.uniform(-1, 1, (3, 2)) * cfg.wavelength
            ch_new = build_channels(AntennaLayout(t=layout.t, r=r_new), rlz, cfg)
            d_sur = fresh_surrogate(replace(state, ch=ch_new), cfg) - sur0
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
        rlz, layout, _, state, _, _ = make_contexts(cfg)
        state.W_t = np.zeros_like(state.W_t)
        state.aux = auxiliaries_at(state.aux.gamma,
                                   np.zeros_like(state.aux.y), cfg)
        ctx = transmit_context(state, side_terms(rlz, cfg, True))
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
                    tau = curvature_bound(bundle,
                                          bundle.moment_product(pos[n]))
                    lams = np.linalg.eigvalsh(bundle.hessian(pos[n]))
                    assert tau >= lams[-1] - 1e-9 * max(1.0, abs(lams[-1]))
                    assert tau > 0.0

    def test_floor_is_positive_for_live_bundle(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        bundle = bundle_at(ctx_t, layout.t, 0)
        assert curvature_bound(bundle, bundle.moment_product(layout.t[0])) \
            >= 1e-6 * bundle.curvature_cap() - 1e-30


def reference_bsum_side(ctx, rng):
    """`bsum_optimize_side` with every sweep scored by re-contracting D
    and X for `placement_objective`: the reference the summed visit
    decreases are checked against."""
    t = ctx.terms
    pos = np.array(ctx.positions, dtype=float, copy=True)
    others = placement.others_index(len(pos))
    table = np.exp(1j * (pos @ t.dirs.T))
    user_e, si_e = table[:, t.user_lin], table[:, t.si_lin]
    H = channel.user_channel(user_e, t.user_prm)
    f = placement_objective(ctx, placement._fields(ctx, H, user_e, si_e))
    trace = [f]
    sweeps = 0
    for _ in range(placement.MAX_BSUM_SWEEPS):
        sweeps += 1
        for n in rng.permutation(len(pos)):
            bundle = antenna_bundle(ctx, H, si_e, n)
            if bundle.curvature_cap() == 0.0:
                continue
            f_here, mp = bundle.evaluate(table[n])
            tau = curvature_bound(bundle, mp)
            (mx, my), (x, y) = mp[1, :2].tolist(), pos[n].tolist()
            steps = [(mx / (tau * 2.0 ** i), my / (tau * 2.0 ** i))
                     for i in range(placement.MAX_TAU_DOUBLINGS + 1)]
            newton = placement.newton_step(bundle, mp)
            if newton is not None:
                steps.insert(0, newton)
            region = placement.FeasibleRegionSpec(t.half_width,
                                                  pos[others[n]], t.d_min)
            for dx, dy in steps:
                cand = placement.nearest_feasible_point(
                    np.array([x + dx, y + dy]), region)
                e = bundle.phasors(cand)
                if bundle.score(e) <= f_here:
                    pos[n] = cand
                    table[n] = e
                    H[n] = channel.user_channel(user_e[n], t.user_prm)
                    break
        f_new = placement_objective(ctx, placement._fields(ctx, H, user_e,
                                                           si_e))
        trace.append(f_new)
        rel = abs(f - f_new) / max(abs(f), 1e-12)
        f = f_new
        if rel < placement.BSUM_EPSILON:
            break
    return pos, trace, sweeps


class TestBsumSweep:
    def test_summed_decreases_match_the_rescored_sweeps(self):
        # Each sweep's objective is the start's plus its accepted visits'
        # bundle decreases, not a re-contraction of D and X.  Positions
        # come from the visits alone, so they and the sweep counts equal
        # the reference's bit for bit; the trace agrees to rounding.
        contexts = 0
        for cfg in (ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2),
                    ScenarioConfig()):
            for trial in range(10):
                _, _, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
                for ctx in (ctx_t, ctx_r):
                    out, trace, sweeps = bsum_optimize_side(
                        ctx, np.random.default_rng(trial))
                    ref, ref_trace, ref_sweeps = reference_bsum_side(
                        ctx, np.random.default_rng(trial))
                    assert np.array_equal(out, ref)
                    assert sweeps == ref_sweeps
                    assert trace[0] == ref_trace[0]
                    assert_allclose(trace, ref_trace, rtol=1e-12, atol=0.0)
                    contexts += 1
        assert contexts >= 40

    def test_trace_monotone_and_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(15):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            rng = np.random.default_rng(trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                out, trace, sweeps = bsum_optimize_side(ctx, rng)
                diffs = np.diff(trace)
                assert np.all(diffs <= 1e-9 * np.maximum(1.0,
                                                         np.abs(trace[:-1])))
                assert sweeps <= 50
                assert layout_side_feasible(out, ctx.terms.half_width, ctx.terms.d_min)
                assert_allclose(objective_at(ctx, out), trace[-1],
                                rtol=1e-12)

    def test_respects_sweep_cap(self, monkeypatch):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        rng = np.random.default_rng(0)
        monkeypatch.setattr(placement, "MAX_BSUM_SWEEPS", 3)
        monkeypatch.setattr(placement, "BSUM_EPSILON", 0.0)
        _, trace, sweeps = bsum_optimize_side(ctx_t, rng)
        assert sweeps == 3 and len(trace) == 4

    def test_deterministic_given_generator(self, monkeypatch):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        _, layout, _, _, ctx_t, _ = make_contexts(cfg)
        monkeypatch.setattr(placement, "BSUM_EPSILON", 1e-4)
        a, _, _ = bsum_optimize_side(ctx_t, np.random.default_rng(9))
        b, _, _ = bsum_optimize_side(ctx_t, np.random.default_rng(9))
        assert_allclose(a, b)

    def test_muted_side_stays_put(self):
        # All-zero coefficients (silent uplink) leave positions untouched.
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        rlz, layout, ch, state, _, _ = make_contexts(cfg)
        state.p = np.zeros(cfg.K_U)
        state.powers = received_powers(state.W_t, state.W_r, state.p, ch, cfg)
        state.aux = auxiliary_pass(state.powers, cfg)
        ctx = receive_context(state, side_terms(rlz, cfg, False))
        out, trace, sweeps = bsum_optimize_side(ctx, np.random.default_rng(0))
        assert_allclose(out, layout.r)
        assert_allclose(trace, [0.0, 0.0], atol=1e-30)


    def test_phasor_table_fields_track_the_layout(self, monkeypatch):
        # The side never rebuilds the fields from positions.  Every bundle
        # call receives the user channel and SI phasors kept with its
        # phasor table, and the start's objective call the fields
        # contracted from it; they must match layout_fields of the
        # positions reached, which are followed here from the projections:
        # a changed row of the last visited antenna means its last
        # candidate was accepted.  The side call's last visit is settled
        # from the layout it returns.
        real_fields = placement.layout_fields
        real_bundle = placement.antenna_bundle
        real_objective = placement.placement_objective
        real_project = placement.nearest_feasible_point
        seen = {}

        def no_rebuild(*a):
            raise AssertionError("bsum_optimize_side called layout_fields")

        def check(ctx, got):
            n = seen["n"]
            if n is not None and not (np.array_equal(got[0][n], seen["H_n"])
                                      and np.array_equal(got[4][n],
                                                         seen["si_n"])):
                seen["pos"][n] = seen["cand"]
                seen["moves"] += 1
            ref = real_fields(ctx, seen["pos"])
            for i, arr in got.items():
                assert np.linalg.norm(arr - ref[i]) \
                    <= 1e-13 * np.linalg.norm(ref[i])

        def bundle(ctx, H, si_e, n):
            check(ctx, {0: H, 4: si_e})
            seen.update(n=n, H_n=H[n].copy(), si_n=si_e[n].copy())
            return real_bundle(ctx, H, si_e, n)

        def objective(ctx, fields):
            check(ctx, dict(enumerate(fields)))
            seen["n"] = None
            return real_objective(ctx, fields)

        def project(*a):
            seen["cand"] = real_project(*a)
            return seen["cand"]

        monkeypatch.setattr(placement, "layout_fields", no_rebuild)
        monkeypatch.setattr(placement, "antenna_bundle", bundle)
        monkeypatch.setattr(placement, "placement_objective", objective)
        monkeypatch.setattr(placement, "nearest_feasible_point", project)
        monkeypatch.setattr(placement, "BSUM_EPSILON", 1e-4)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        moves = 0
        for trial in range(4):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                seen.update(pos=pos.copy(), n=None, moves=0)
                out, _, _ = bsum_optimize_side(
                    ctx, np.random.default_rng(trial))
                n = seen["n"]
                if n is not None and not np.array_equal(out[n],
                                                        seen["pos"][n]):
                    seen["pos"][n] = seen["cand"]
                    seen["moves"] += 1
                assert np.array_equal(seen["pos"], out)
                moves += seen["moves"]
        assert moves > 20

    def test_fields_contracted_only_at_the_start(self, monkeypatch):
        # An accepted move re-contracts only the antenna's row of H; D and
        # X are contracted once, for the start's objective, however many
        # sweeps and visits follow: a sweep's objective adds up the
        # decreases its visits' acceptance tests computed.
        counts = {"fields": 0, "objective": 0, "visits": 0}
        real_fields = placement._fields
        real_objective = placement.placement_objective
        real_bundle = placement.antenna_bundle

        def fields(*a):
            counts["fields"] += 1
            return real_fields(*a)

        def objective(*a):
            counts["objective"] += 1
            return real_objective(*a)

        def bundle(*a):
            counts["visits"] += 1
            return real_bundle(*a)

        monkeypatch.setattr(placement, "_fields", fields)
        monkeypatch.setattr(placement, "placement_objective", objective)
        monkeypatch.setattr(placement, "antenna_bundle", bundle)
        monkeypatch.setattr(placement, "BSUM_EPSILON", 1e-4)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        visits = total_sweeps = 0
        for trial in range(3):
            _, _, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx in (ctx_t, ctx_r):
                counts.update(fields=0, objective=0, visits=0)
                _, trace, sweeps = bsum_optimize_side(
                    ctx, np.random.default_rng(trial))
                assert counts["fields"] == counts["objective"] == 1
                assert len(trace) == 1 + sweeps
                visits += counts["visits"]
                total_sweeps += sweeps
        assert visits >= 3 * total_sweeps

    def test_tau_doublings_running_out_leave_the_antenna_put(self,
                                                            monkeypatch):
        # A negative curvature makes every majorizer step an ascent step of
        # the antenna's objective (|tau| >= the global curvature cap keeps
        # the first-order gain ahead of the curvature), and doubling keeps
        # it one, so each visit projects MAX_TAU_DOUBLINGS + 1 candidates,
        # rejects them all and falls out of the loop.  One antenna per side
        # keeps the feasible region convex, so the projection keeps the
        # ascent.  The Newton candidate is switched off: this is the ladder.
        monkeypatch.setattr(placement, "MAX_TAU_DOUBLINGS", 2)
        monkeypatch.setattr(placement, "newton_step", lambda bundle, mp: None)
        monkeypatch.setattr(placement, "curvature_bound",
                            lambda bundle, mp: -bundle.curvature_cap())
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
                    ctx, np.random.default_rng(trial))
                assert np.array_equal(out, pos)
                assert np.all(np.diff(trace) <= 0.0)
                assert counts["visits"] > 0
                assert counts["projections"] == 3 * counts["visits"]

    def test_one_exponential_per_projected_candidate(self, monkeypatch):
        # A side call takes one exponential for its phasor table and one
        # per projected candidate; a visit reads the antenna's own point
        # off the table.  With the curvature at its floor most first
        # steps are too long, so tau doubles; the Newton candidate is
        # switched off, so every visit runs the ladder.
        counts = dict.fromkeys(("exp", "projections", "visits"), 0)
        real_exp = np.exp
        real_project = placement.nearest_feasible_point
        real_bound = placement.curvature_bound

        def exp(*a, **k):
            counts["exp"] += 1
            return real_exp(*a, **k)

        def project(*a):
            counts["projections"] += 1
            return real_project(*a)

        def floor(bundle, mp):
            counts["visits"] += 1
            return placement.TAU_MIN_FACTOR * bundle.curvature_cap()

        def bound(bundle, mp):
            counts["visits"] += 1
            return real_bound(bundle, mp)

        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial, tau in itertools.product(range(3), (bound, floor)):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                counts.update(exp=0, projections=0, visits=0)
                with monkeypatch.context() as m:
                    m.setattr(np, "exp", exp)
                    m.setattr(placement, "nearest_feasible_point", project)
                    m.setattr(placement, "curvature_bound", tau)
                    m.setattr(placement, "newton_step",
                              lambda bundle, mp: None)
                    bsum_optimize_side(ctx, np.random.default_rng(trial))
                assert counts["visits"] > 0
                assert counts["exp"] == 1 + counts["projections"]
                if tau is floor:
                    assert counts["projections"] > counts["visits"]

    def test_a_rise_within_rounding_slack_is_rejected(self, monkeypatch):
        # Every candidate scores f_here + delta with delta inside the slack
        # 1e-12 * (1 + |f_here|) a looser test would forgive: no antenna
        # moves and the trace stays flat.
        class Raised(ExpSum):
            def evaluate(self, e):
                self.f_here, mp = super().evaluate(e)
                return self.f_here, mp

            def score(self, e):
                delta = 0.5e-12 * (1.0 + abs(self.f_here))
                assert self.f_here + delta > self.f_here
                return self.f_here + delta

        real_bundle = placement.antenna_bundle

        def bundle(*a):
            b = real_bundle(*a)
            return Raised(b.coefs, b.dirs, b.moments, b.curvature_cap())

        monkeypatch.setattr(placement, "antenna_bundle", bundle)
        for cfg in (ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2),
                    ScenarioConfig()):
            for trial in range(3):
                _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
                for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                    out, trace, _ = bsum_optimize_side(
                        ctx, np.random.default_rng(trial))
                    assert np.array_equal(out, pos)
                    assert trace == [trace[0]] * len(trace)

    def test_every_accepted_candidate_does_not_rise(self, monkeypatch):
        # A visit's accepted candidate is the one whose SI phasors the
        # antenna's table row holds at the next visit; its score must not
        # exceed the antenna's objective at the start of its visit.  The
        # last visit of a call is not seen again and is left out.
        class Recorded(ExpSum):
            def evaluate(self, e):
                self.f_here, mp = super().evaluate(e)
                self.scores = []
                return self.f_here, mp

            def score(self, e):
                f = super().score(e)
                self.scores.append((e.copy(), f))
                return f

        real_bundle = placement.antenna_bundle
        seen = {"last": None, "accepted": 0}

        def settle(si_e):
            if seen["last"] is None:
                return
            n, row, b = seen["last"]
            if np.array_equal(si_e[n], row):
                return
            scores = [f for e, f in b.scores
                      if np.array_equal(e[b.si_lin], si_e[n])]
            assert scores and all(f <= b.f_here for f in scores)
            seen["accepted"] += 1

        def bundle(ctx, H, si_e, n):
            settle(si_e)
            b = real_bundle(ctx, H, si_e, n)
            b = Recorded(b.coefs, b.dirs, b.moments, b.curvature_cap())
            b.si_lin = ctx.terms.si_lin
            seen["last"] = (n, si_e[n].copy(), b)
            return b

        monkeypatch.setattr(placement, "antenna_bundle", bundle)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        for trial in range(10):
            _, _, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx in (ctx_t, ctx_r):
                seen["last"] = None
                bsum_optimize_side(ctx, np.random.default_rng(trial))
        assert seen["accepted"] > 50


def first_visit(monkeypatch, ctx, seed):
    """(n, bundle, moment product, tau, newton step, projected targets) of
    the first visit of a side call, whose antenna sits at its start."""
    real_bundle = placement.antenna_bundle
    real_bound = placement.curvature_bound
    real_newton = placement.newton_step
    real_project = placement.nearest_feasible_point
    seen = {"visits": 0, "targets": []}

    def bundle(ctx, H, si_e, n):
        seen["visits"] += 1
        b = real_bundle(ctx, H, si_e, n)
        if seen["visits"] == 1:
            seen.update(n=n, bundle=b)
        return b

    def bound(b, mp):
        tau = real_bound(b, mp)
        if seen["visits"] == 1:
            seen.update(mp=mp, tau=tau)
        return tau

    def newton(b, mp):
        step = real_newton(b, mp)
        if seen["visits"] == 1:
            seen["newton"] = step
        return step

    def project(target, region):
        if seen["visits"] == 1:
            seen["targets"].append(target.copy())
        return real_project(target, region)

    with monkeypatch.context() as m:
        m.setattr(placement, "antenna_bundle", bundle)
        m.setattr(placement, "curvature_bound", bound)
        m.setattr(placement, "newton_step", newton)
        m.setattr(placement, "nearest_feasible_point", project)
        bsum_optimize_side(ctx, np.random.default_rng(seed))
    return (seen["n"], seen["bundle"], seen["mp"], seen["tau"],
            seen["newton"], seen["targets"])


def ladder_targets(pos, mp, tau):
    """The majorizer targets pos - g / tau, tau doubling, as a visit takes
    them in Python floats."""
    (mx, my), (x, y) = mp[1, :2].tolist(), pos.tolist()
    return [np.array([x + mx / (tau * 2.0 ** i), y + my / (tau * 2.0 ** i)])
            for i in range(placement.MAX_TAU_DOUBLINGS + 1)]


class TestNewtonCandidate:
    def test_step_solves_the_hessian_system(self):
        rng = np.random.default_rng(5)
        solved = declined = 0
        for _ in range(200):
            es = random_exp_sum(rng)
            t = rng.uniform(-0.05, 0.05, 2)
            step = placement.newton_step(es, es.moment_product(t))
            hess = es.hessian(t)
            floor = placement.TAU_MIN_FACTOR * es.curvature_cap()
            if np.linalg.eigvalsh(hess)[0] < floor:
                assert step is None
                declined += 1
                continue
            ref = np.linalg.solve(hess, -es.gradient(t))
            assert np.linalg.norm(np.subtract(step, ref)) \
                <= 1e-10 * np.linalg.norm(ref)
            solved += 1
        assert solved >= 20 and declined >= 20

    def test_declined_just_below_the_floor(self):
        # H = diag(lam, 2 lam) read off a hand-made moment product: the
        # step is given just above the floor and declined just below it.
        es = random_exp_sum(np.random.default_rng(1))
        floor = placement.TAU_MIN_FACTOR * es.curvature_cap()
        for lam, given in ((floor * (1 + 1e-12), True),
                           (floor * (1 - 1e-12), False)):
            mp = np.zeros((2, 5))
            mp[0, 2:] = -lam, 0.0, -2.0 * lam
            mp[1, :2] = lam, 4.0 * lam
            step = placement.newton_step(es, mp)
            if given:
                assert_allclose(step, (1.0, 2.0), rtol=1e-12)
            else:
                assert step is None

    def test_tiny_coefficients_give_the_same_step(self):
        # A faded user's terms can carry coefficients near 1e-165, whose
        # Hessian determinant underflows; the step is scale-free.
        rng = np.random.default_rng(2)
        compared = 0
        while compared < 10:
            es = random_exp_sum(rng)
            t = rng.uniform(-0.05, 0.05, 2)
            step = placement.newton_step(es, es.moment_product(t))
            if step is None:
                continue
            tiny = ExpSum(es.coefs * 1e-165, es.dirs, es.moments,
                          es.curvature_cap() * 1e-165)
            assert_allclose(placement.newton_step(tiny,
                                                  tiny.moment_product(t)),
                            step, rtol=1e-12)
            compared += 1

    def test_first_target_is_the_newton_step(self, monkeypatch):
        newton = ladder = 0
        for cfg in (ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2),
                    ScenarioConfig()):
            for trial in range(10):
                _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
                for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                    n, bundle, mp, tau, step, targets = first_visit(
                        monkeypatch, ctx, trial)
                    hess = bundle.hessian(pos[n])
                    floor = placement.TAU_MIN_FACTOR * bundle.curvature_cap()
                    if step is None:
                        # Below the floor: exactly the ladder, bit for bit.
                        assert np.linalg.eigvalsh(hess)[0] \
                            < floor + 1e-12 * np.abs(hess).max()
                        ladder += 1
                        expect = ladder_targets(pos[n], mp, tau)
                    else:
                        ref = np.linalg.solve(hess, -bundle.gradient(pos[n]))
                        assert np.linalg.norm(targets[0] - pos[n] - ref) \
                            <= 1e-10 * np.linalg.norm(ref)
                        newton += 1
                        expect = [targets[0]] + ladder_targets(pos[n], mp,
                                                               tau)
                    assert len(targets) <= len(expect)
                    for got, want in zip(targets, expect):
                        assert np.array_equal(got, want)
        assert newton >= 10 and ladder >= 5

    def test_no_newton_step_runs_the_ladder(self, monkeypatch):
        monkeypatch.setattr(placement, "newton_step", lambda bundle, mp: None)
        visits = 0
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(6):
            _, layout, _, _, ctx_t, ctx_r = make_contexts(cfg, trial)
            for ctx, pos in ((ctx_t, layout.t), (ctx_r, layout.r)):
                n, _, mp, tau, step, targets = first_visit(
                    monkeypatch, ctx, trial)
                assert step is None
                expect = ladder_targets(pos[n], mp, tau)
                assert 1 <= len(targets) <= len(expect)
                for got, want in zip(targets, expect):
                    assert np.array_equal(got, want)
                visits += 1
        assert visits == 12


def full_pass(state, ch, cfg):
    """A full received-power pass of `state`'s variables on `ch`."""
    return fp.received_powers(state.W_t, state.W_r, state.p, ch, cfg)


def rate_on(state, ch, cfg):
    """The weighted sum-rate of `state`'s variables on `ch`."""
    return weighted_sum_rate(sinrs_of(full_pass(state, ch, cfg)), cfg)


def record_rate(state, cfg):
    """The weighted sum-rate the state's record scores, as `RateGrid.place`
    enters with."""
    return weighted_sum_rate(sinrs_of(state.powers), cfg)


def same_record(a, b) -> bool:
    """Every factor of two received-power records equal, bit for bit."""
    return vars(a).keys() == vars(b).keys() and all(
        np.array_equal(v, getattr(b, k)) for k, v in vars(a).items())


def enter_at(monkeypatch, rate):
    """Make `RateGrid.place` enter at `rate`: the first weighted sum-rate
    it takes, the score of the state's record, returns `rate`; the
    confirming passes are scored as they are."""
    real, calls = fp.weighted_sum_rate, []

    def wsr(sinr, cfg):
        calls.append(sinr)
        return rate if len(calls) == 1 else real(sinr, cfg)

    monkeypatch.setattr(fp, "weighted_sum_rate", wsr)


def random_grid_case(cfg, trial):
    """Realization, feasible layout, its channels and a random state whose
    record is a full pass on them."""
    rng = trial_rng(21, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    ch = build_channels(layout, rlz, cfg)
    state = initial_state(ch, cfg)
    W_t = random_complex(rng, state.W_t.shape)
    state.W_t = W_t * np.sqrt(cfg.p_D_max) / np.linalg.norm(W_t)
    state.W_r = random_complex(rng, state.W_r.shape)
    state.p = rng.uniform(0.0, cfg.p_U_max, cfg.K_U)
    state.powers = full_pass(state, ch, cfg)
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
            for side in ("t", "r"):
                for n in range(len(getattr(layout, side))):
                    vals = grid.rates(state, side, n)
                    ref = []
                    for q in grid.points:
                        moved = layout.copy()
                        getattr(moved, side)[n] = q
                        ref.append(rate_on(
                            state, build_channels(moved, rlz, cfg), cfg))
                    assert_allclose(vals, ref, rtol=1e-12, atol=0.0)

    def test_place_raises_rate_and_stays_feasible(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        hw = cfg.region_half_width
        moved_trials = 0
        for trial in range(8):
            rlz, layout, ch, state = random_grid_case(cfg, trial)
            rate = record_rate(state, cfg)
            moves = RateGrid(rlz, cfg).place(state)
            out_ch, out_rate = state.ch, record_rate(state, cfg)
            out = out_ch.layout
            moved_trials += moves > 0
            assert out_rate >= rate
            assert (moves > 0) == (out_rate > rate)
            assert out_rate == rate_on(state, build_channels(out, rlz, cfg),
                                       cfg)
            assert_allclose(out_ch.H_D, build_channels(out, rlz, cfg).H_D)
            for side in (out.t, out.r):
                assert layout_side_feasible(side, hw, cfg.D_min)
        assert moved_trials >= 4

    def test_place_leaves_the_record_of_its_moved_channels(self):
        # After the grid block the state's record is a full pass of its
        # variables on its channels, and those channels are the rebuild of
        # their layout, bit for bit; with no move both are the inputs.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        total_moves = 0
        for trial in range(4):
            rlz, _, _, state = random_grid_case(cfg, trial)
            grid, moves = RateGrid(rlz, cfg), 1
            while moves:    # until the block retires, as in a solve
                ch, powers = state.ch, state.powers
                moves = grid.place(state)
                total_moves += moves
                assert same_record(state.powers,
                                   full_pass(state, state.ch, cfg))
                rebuilt = build_channels(state.ch.layout, rlz, cfg)
                assert all(np.array_equal(getattr(state.ch, k),
                                          getattr(rebuilt, k))
                           for k in ("H_D", "H_U", "H_SI", "H_IUI", "u_t",
                                     "s_t", "u_r", "s_r"))
            assert state.ch is ch and state.powers is powers
        assert total_moves > 0

    def test_one_received_power_pass_per_channel_state(self, monkeypatch):
        # The grid scores its first visit from the state's record.  Each
        # candidate move costs one more pass, on its moved channels, which
        # confirms the move and, when it is accepted, scores the next
        # visit.
        counts = {"powers": 0, "confirm": 0}
        real_powers, real_move = fp.received_powers, placement.move_side

        def powers(*a):
            counts["powers"] += 1
            return real_powers(*a)

        def move(*a):
            counts["confirm"] += 1
            return real_move(*a)

        monkeypatch.setattr(fp, "received_powers", powers)
        monkeypatch.setattr(placement, "move_side", move)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        total_moves = 0
        for trial in range(4):
            rlz, _, ch, state = random_grid_case(cfg, trial)
            counts.update(powers=0, confirm=0)
            moves = RateGrid(rlz, cfg).place(state)
            assert counts["powers"] == counts["confirm"]
            total_moves += moves
        assert total_moves > 0

    def test_a_confirmation_takes_only_the_moved_sides_phasors(
            self, monkeypatch):
        # A candidate's channels are the record with one side moved: its
        # confirmation takes two channel exponentials, that side's
        # user-path and SI-path phasors at the candidate positions, and the
        # grid block takes no other.
        taken, confirmed = [], []
        real_response, real_move = channel.field_response, placement.move_side

        def response(positions, dirs, kappa):
            taken.append((np.array(positions), dirs))
            return real_response(positions, dirs, kappa)

        def move(ch, side, positions, rlz, cfg):
            start = len(taken)
            out = real_move(ch, side, positions, rlz, cfg)
            confirmed.append((side, positions.copy(), taken[start:]))
            return out

        monkeypatch.setattr(channel, "field_response", response)
        monkeypatch.setattr(placement, "move_side", move)
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3, A=2.0)
        moved = set()
        for trial in range(4):
            rlz, _, ch, state = random_grid_case(cfg, trial)
            taken.clear()
            confirmed.clear()
            RateGrid(rlz, cfg).place(state)
            assert len(taken) == 2 * len(confirmed)
            for side, positions, exps in confirmed:
                user, si = (rlz.dl_dirs, rlz.si_t_dirs) if side == "t" \
                    else (rlz.ul_dirs, rlz.si_r_dirs)
                assert all(np.array_equal(e[0], positions) for e in exps)
                assert np.array_equal(exps[0][1], user.reshape(-1, 2))
                assert np.array_equal(exps[1][1], si)
                moved.add(side)
        assert moved == {"t", "r"}

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
        state.ch = build_channels(layout, rlz, cfg)
        state.powers = full_pass(state, state.ch, cfg)
        target = 16 * len(axis) + 5
        assert np.array_equal(grid.points[target], goal)

        def rates(self, *args):
            return np.where(np.arange(len(self.points)) == target, 1.0, 0.0)

        # Every grid point but the goal scores 0 and any point beats the
        # entry rate of -1, so antenna 0 lands on the goal only if the goal
        # is eligible.
        monkeypatch.setattr(RateGrid, "rates", rates)
        enter_at(monkeypatch, -1.0)
        moves = grid.place(state)
        out = state.ch.layout
        assert moves >= 1
        assert np.array_equal(out.t[0], goal)
        assert layout_side_feasible(out.t, cfg.region_half_width, cfg.D_min)

    def test_gain_below_the_margin_is_refused(self, monkeypatch):
        # A move whose true gain is 5e-10 relative, far above rounding but
        # below the 1e-9 margin, is refused; one of 2e-9 is taken.  The
        # faked grid rates send every visit to one point; the confirming
        # pass on the moved channels then sees the true rate `goal` there.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, L=3, L_SI=3, A=2.0)
        rlz, layout, ch, _ = random_grid_case(cfg, 2)
        state = initial_state(ch, cfg)
        powers = state.powers
        grid = RateGrid(rlz, cfg)
        region = placement.FeasibleRegionSpec(
            cfg.region_half_width, layout.t[1:], cfg.D_min)
        target = int(np.flatnonzero(
            placement.is_feasible(grid.points, region))[0])
        moved = layout.copy()
        moved.t[0] = grid.points[target]
        goal = rate_on(state, build_channels(moved, rlz, cfg), cfg)
        assert goal > 1.0   # so the margin is relative

        def rates(self, *args):
            return np.where(np.arange(len(self.points)) == target, goal,
                            -np.inf)

        monkeypatch.setattr(RateGrid, "rates", rates)
        with monkeypatch.context() as m:
            enter_at(m, goal / (1.0 + 5e-10))
            moves = grid.place(state)
        assert moves == 0
        assert state.ch is ch and state.powers is powers
        assert np.array_equal(state.ch.layout.t, layout.t)
        with monkeypatch.context() as m:
            enter_at(m, goal / (1.0 + 2e-9))
            moves = grid.place(state)
        assert moves == 1
        assert np.array_equal(state.ch.layout.t[0], grid.points[target])
        assert record_rate(state, cfg) == goal
        assert same_record(state.powers, full_pass(state, state.ch, cfg))

    def test_positions_kept_without_gain(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2, L=3, L_SI=3, A=2.0)
        rlz, layout, ch, state = random_grid_case(cfg, 0)
        grid = RateGrid(rlz, cfg)
        # Silent transmitters: every rate is zero wherever antennas sit.
        silent = initial_state(ch, cfg)
        silent.W_t = np.zeros_like(silent.W_t)
        silent.p = np.zeros(cfg.K_U)
        silent.powers = full_pass(silent, ch, cfg)
        moves = grid.place(silent)
        assert moves == 0 and record_rate(silent, cfg) == 0.0
        assert silent.ch is ch
        assert np.array_equal(silent.ch.layout.t, layout.t)
        assert np.array_equal(silent.ch.layout.r, layout.r)
        # A layout no single grid move improves is left unchanged.
        while grid.place(state):
            pass
        ch, powers, rate = state.ch, state.powers, record_rate(state, cfg)
        assert grid.place(state) == 0 and record_rate(state, cfg) == rate
        assert state.ch is ch and state.powers is powers
        assert np.array_equal(state.ch.layout.t, ch.layout.t)
        assert np.array_equal(state.ch.layout.r, ch.layout.r)

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
