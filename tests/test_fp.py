import numpy as np
import pytest
from numpy.testing import assert_allclose

from prafd.channel import build_channels, sample_realization, trial_rng
from prafd.config import ScenarioConfig
from prafd.fp import (auxiliary_pass, receive_gram, received_powers,
                      sinrs_of, surrogate_objective, weighted_sum_rate)
from oracles import (auxiliaries_at, dual_transform_objective,
                           fresh_surrogate, random_complex, same_powers)
from prafd.solver import initial_state, initialize_layout


def make_instance(cfg, trial=0, seed=0, randomize=False):
    rng = trial_rng(seed, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    ch = build_channels(layout, rlz, cfg)
    state = initial_state(ch, cfg)
    if randomize:
        state.W_t = random_complex(rng, state.W_t.shape,
                                   np.sqrt(cfg.p_D_max / (2 * state.W_t.size)))
        state.W_r = random_complex(rng, state.W_r.shape)
        state.p = rng.uniform(0.0, cfg.p_U_max, cfg.K_U)
    return rlz, layout, ch, state


def full_pass(state, cfg):
    """A full received-power pass of `state` on its channels."""
    return received_powers(state.W_t, state.W_r, state.p, state.ch, cfg)


def sinrs(state, cfg):
    """SINRs, DL then UL, of a full received-power pass."""
    return sinrs_of(full_pass(state, cfg))


def rate(state, cfg):
    """Weighted sum-rate of a full received-power pass."""
    return weighted_sum_rate(sinrs(state, cfg), cfg)


def rate_by_hand(cfg, ch, state):
    """Weighted sum rate from scalar loops, no matrix shortcuts."""
    W_t, W_r, p = state.W_t, state.W_r, state.p
    total = 0.0
    for k in range(cfg.K_D):
        h = ch.H_D[:, k]
        sig = abs(np.vdot(h, W_t[:, k])) ** 2
        intra = sum(abs(np.vdot(h, W_t[:, j])) ** 2
                    for j in range(cfg.K_D) if j != k)
        cross = sum(p[u] * abs(ch.H_IUI[k, u]) ** 2 for u in range(cfg.K_U))
        sinr = sig / (intra + cross + cfg.sigma2)
        total += cfg.weights[k] * np.log2(1.0 + sinr)
    for u in range(cfg.K_U):
        w = W_r[:, u]
        sig = p[u] * abs(np.vdot(w, ch.H_U[:, u])) ** 2
        intra = sum(p[v] * abs(np.vdot(w, ch.H_U[:, v])) ** 2
                    for v in range(cfg.K_U) if v != u)
        si = sum(abs(np.vdot(w, ch.H_SI @ W_t[:, k])) ** 2
                 for k in range(cfg.K_D))
        noise = cfg.sigma2 * np.linalg.norm(w) ** 2
        sinr = sig / (intra + si + noise)
        total += cfg.weights[cfg.K_D + u] * np.log2(1.0 + sinr)
    return total


class TestRate:
    def test_matches_scalar_loops(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(20):
            _, _, ch, state = make_instance(cfg, trial, randomize=True)
            assert_allclose(rate(state, cfg), rate_by_hand(cfg, ch, state),
                            rtol=1e-12)

    def test_per_user_rates_sum_to_weighted_rate(self):
        cfg = ScenarioConfig(K_D=2, K_U=3, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 1, randomize=True)
        user_rates = np.log2(1.0 + sinrs(state, cfg))
        assert user_rates.shape == (5,)
        assert user_rates @ cfg.weights == rate(state, cfg)

    def test_weighted_sum_rate_scores_a_stack_row_by_row(self):
        cfg = ScenarioConfig(K_D=2, K_U=3, N_t=2, N_r=2)
        stack = np.random.default_rng(4).uniform(0.0, 10.0, (7, cfg.K))
        rows = [weighted_sum_rate(row, cfg) for row in stack]
        assert all(type(r) is float for r in rows)
        # Row-major, and user by user as `RateGrid.rates` stores it.
        for layout in (stack, np.asfortranarray(stack)):
            rates = weighted_sum_rate(layout, cfg)
            assert rates.shape == (7,)
            assert_allclose(rates, rows, rtol=1e-14)

    def test_zero_uplink_power_gives_zero_uplink_rate(self):
        cfg = ScenarioConfig(K_D=1, K_U=2, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 2)
        state.p = np.zeros(cfg.K_U)
        ul = np.log2(1.0 + sinrs(state, cfg)[cfg.K_D:])
        assert_allclose(ul, np.zeros(2), atol=1e-15)

    def test_uplink_sinr_rejects_dead_beamformer(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 3)
        state.W_r[:, 0] = 0.0
        with pytest.raises(ValueError, match="zero receive beamformer"):
            sinrs(state, cfg)
        with pytest.raises(ValueError, match="zero receive beamformer"):
            auxiliary_pass(full_pass(state, cfg), cfg)

    def test_received_powers_match_loops(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=3, L=2, L_SI=2)
        _, _, ch, state = make_instance(cfg, 4, randomize=True)
        pw = full_pass(state, cfg)
        s1, s2, C, G, S = pw.s1, pw.s2, pw.C, pw.G, pw.S
        for k in range(cfg.K_D):
            ref = sum(abs(np.vdot(ch.H_D[:, k], state.W_t[:, j])) ** 2
                      for j in range(cfg.K_D))
            ref += sum(state.p[u] * abs(ch.H_IUI[k, u]) ** 2
                       for u in range(cfg.K_U))
            ref += cfg.sigma2
            assert_allclose(s1[k], ref, rtol=1e-12)
            assert_allclose(C[k, k], np.vdot(ch.H_D[:, k], state.W_t[:, k]),
                            rtol=1e-12)
        for u in range(cfg.K_U):
            w = state.W_r[:, u]
            ref = sum(state.p[v] * abs(np.vdot(w, ch.H_U[:, v])) ** 2
                      for v in range(cfg.K_U))
            ref += sum(abs(np.vdot(w, ch.H_SI @ state.W_t[:, k])) ** 2
                       for k in range(cfg.K_D))
            ref += cfg.sigma2 * np.linalg.norm(w) ** 2
            assert_allclose(s2[u], ref, rtol=1e-12)
            for k in range(cfg.K_D):
                assert_allclose(S[u, k], np.vdot(w, ch.H_SI @ state.W_t[:, k]),
                                rtol=1e-12)


class TestAuxiliaries:
    def test_gamma_update_returns_sinrs(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 5, randomize=True)
        gamma = auxiliary_pass(full_pass(state, cfg), cfg).gamma
        assert_allclose(gamma, sinrs(state, cfg), rtol=1e-14)

    def test_surrogate_touches_rate_after_pass(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(30):
            _, _, _, state = make_instance(cfg, trial, randomize=True)
            state.aux = auxiliary_pass(full_pass(state, cfg), cfg)
            wsr = weighted_sum_rate(state.aux.gamma, cfg)
            sur = fresh_surrogate(state, cfg)
            assert abs(sur - wsr) <= 1e-12 * max(1.0, abs(wsr))

    def test_dual_transform_tight_at_sinr(self):
        cfg = ScenarioConfig(K_D=2, K_U=1, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 6, randomize=True)
        gamma = sinrs(state, cfg)
        val = dual_transform_objective(gamma, state.W_t, state.W_r, state.p,
                                       ch, cfg)
        assert_allclose(val, rate(state, cfg), rtol=1e-12)

    def test_dual_transform_majorized_by_rate(self):
        # For any gamma the dual transform value sits at or below the rate.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rng = np.random.default_rng(17)
        for trial in range(10):
            _, _, ch, state = make_instance(cfg, trial, randomize=True)
            wsr = rate(state, cfg)
            for _ in range(10):
                gamma = rng.uniform(0.0, 5.0, cfg.K)
                val = dual_transform_objective(gamma, state.W_t, state.W_r,
                                               state.p, ch, cfg)
                assert val <= wsr + 1e-9 * max(1.0, abs(wsr))

    def test_quadratic_transform_majorized_by_dual(self):
        # For any y the surrogate sits at or below the dual value at gamma.
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        rng = np.random.default_rng(18)
        for trial in range(10):
            _, _, ch, state = make_instance(cfg, trial, randomize=True)
            gamma = sinrs(state, cfg)
            dual = dual_transform_objective(gamma, state.W_t, state.W_r,
                                            state.p, ch, cfg)
            for _ in range(10):
                state.aux = auxiliaries_at(
                    gamma, random_complex(rng, (cfg.K,), scale=10.0), cfg)
                sur = fresh_surrogate(state, cfg)
                assert sur <= dual + 1e-9 * max(1.0, abs(dual))

    def test_optimal_y_closes_quadratic_gap(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        _, _, ch, state = make_instance(cfg, 7, randomize=True)
        state.aux = auxiliary_pass(full_pass(state, cfg), cfg)
        dual = dual_transform_objective(state.aux.gamma, state.W_t, state.W_r,
                                        state.p, ch, cfg)
        assert_allclose(fresh_surrogate(state, cfg), dual, rtol=1e-12)

    def test_y_zero_for_silent_uplink_user(self):
        cfg = ScenarioConfig(K_D=1, K_U=2, N_t=2, N_r=2)
        _, _, _, state = make_instance(cfg, 8)
        state.p = np.array([cfg.p_U_max, 0.0])
        y = auxiliary_pass(full_pass(state, cfg), cfg).y
        assert y[cfg.K_D + 1] == 0.0
        assert y[cfg.K_D] != 0.0

    def test_pass_does_not_mutate_state(self):
        cfg = ScenarioConfig(K_D=1, K_U=1, N_t=2, N_r=2)
        _, _, _, state = make_instance(cfg, 9)
        aux = state.aux
        g0, y0 = aux.gamma.copy(), aux.y.copy()
        auxiliary_pass(full_pass(state, cfg), cfg)
        assert state.aux is aux
        assert_allclose(state.aux.gamma, g0)
        assert_allclose(state.aux.y, y0)

    def test_amplitude_and_receive_gram_match_loops(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=3)
        _, _, _, state = make_instance(cfg, 10, randomize=True)
        state.aux = x = auxiliary_pass(full_pass(state, cfg), cfg)
        kd = cfg.K_D
        amp = np.concatenate([x.amp_dl, x.amp_ul])
        y2 = np.concatenate([x.y2_dl, x.y2_ul])
        assert np.array_equal(np.concatenate([x.y_dl, x.y_ul]), x.y)
        assert_allclose(x.lift_ul, 1.0 + x.gamma[kd:], rtol=1e-15)
        for i in range(cfg.K):
            assert_allclose(amp[i] ** 2,
                            cfg.weights[i] * (1.0 + x.gamma[i]), rtol=1e-12)
            assert_allclose(y2[i], x.y[i].real ** 2 + x.y[i].imag ** 2,
                            rtol=1e-12)
        base = sum(cfg.weights[i] * (np.log(1.0 + x.gamma[i]) - x.gamma[i])
                   for i in range(cfg.K))
        assert_allclose(x.base, base, rtol=1e-12)
        B = receive_gram(state)
        ref = sum(abs(x.y[kd + u]) ** 2
                  * np.outer(state.W_r[:, u], state.W_r[:, u].conj())
                  for u in range(cfg.K_U))
        assert_allclose(B, ref, rtol=1e-12)


class TestReceivedPowersUpdates:
    """An updated record equals a full pass on the new state, exactly."""

    CASES = [ScenarioConfig(K_D=2, K_U=3, N_t=3, N_r=2, L=3, L_SI=2),
             ScenarioConfig(K_D=3, K_U=0, N_t=2, N_r=2, L=2, L_SI=2),
             ScenarioConfig(K_D=1, K_U=2, N_t=1, N_r=3, L=2, L_SI=3)]

    def test_each_block_kind(self):
        rng = np.random.default_rng(3)
        for trial, cfg in enumerate(self.CASES):
            rlz, layout, _, state = make_instance(cfg, trial, randomize=True)
            pw = full_pass(state, cfg)
            state.W_t = random_complex(rng, state.W_t.shape)
            pw.transmit_changed(state)
            assert same_powers(pw, full_pass(state, cfg))
            state.W_r = random_complex(rng, state.W_r.shape)
            pw.receive_changed(state)
            assert same_powers(pw, full_pass(state, cfg))
            state.p = rng.uniform(0.0, cfg.p_U_max, cfg.K_U)
            pw.power_changed(state)
            assert same_powers(pw, full_pass(state, cfg))
            # Placement: one side's antennas move, the channels are rebuilt.
            for side, changed in (("t", pw.transmit_changed),
                                  ("r", pw.receive_changed)):
                setattr(layout, side,
                        getattr(initialize_layout(cfg, rng), side))
                state.ch = build_channels(layout, rlz, cfg)
                changed(state)
                assert same_powers(pw, full_pass(state, cfg))

    def test_scores_match_a_fresh_pass(self):
        cfg = self.CASES[0]
        _, _, _, state = make_instance(cfg, 11, randomize=True)
        # A record brought up to date by a block, not a fresh one.
        state.powers = pw = full_pass(state, cfg)
        state.W_t = random_complex(np.random.default_rng(3), state.W_t.shape)
        pw.transmit_changed(state)
        fresh = full_pass(state, cfg)
        aux = auxiliary_pass(pw, cfg)
        assert np.array_equal(aux.gamma, auxiliary_pass(fresh, cfg).gamma)
        assert weighted_sum_rate(sinrs_of(pw), cfg) \
            == weighted_sum_rate(sinrs_of(fresh), cfg)
        state.aux = aux
        assert surrogate_objective(state, cfg) == fresh_surrogate(state, cfg)


def test_beam_only_transmit_update_keeps_the_si_factor():
    # The transmit beamformer block moves no antenna, so its update leaves
    # V as it was and still brings the record up to a full pass exactly.
    rng = np.random.default_rng(5)
    for trial, cfg in enumerate(TestReceivedPowersUpdates.CASES):
        _, _, _, state = make_instance(cfg, trial, randomize=True)
        pw = full_pass(state, cfg)
        V = pw.V
        state.W_t = random_complex(rng, state.W_t.shape)
        pw.transmit_beams_changed(state)
        assert pw.V is V
        assert same_powers(pw, full_pass(state, cfg))
