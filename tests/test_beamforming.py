import numpy as np
from numpy.testing import assert_allclose

from prafd import beamforming
from prafd.beamforming import (optimal_scalar_power,
                               receive_subproblem_matrices, solve_transmit_qp,
                               transmit_subproblem_matrices,
                               update_receive_beamformer,
                               update_transmit_beamformer, update_uplink_power,
                               uplink_power_coefficients)
from prafd.channel import build_channels, sample_realization, trial_rng
from prafd.config import ScenarioConfig
from prafd.fp import auxiliary_pass, received_powers, surrogate_objective
from oracles import (auxiliaries_at, fresh_surrogate, power_grid_search,
                           random_complex, random_psd, receive_objective_value,
                           reference_power_coefficients,
                           reference_receive_matrices, reference_surrogate,
                           reference_transmit_matrices, transmit_qp_bisect,
                           transmit_qp_pgd, transmit_qp_value)
from prafd.solver import initial_state, initialize_layout


def refreshed_state(cfg, trial=0):
    rng = trial_rng(0, trial, 0)
    rlz = sample_realization(cfg, rng)
    layout = initialize_layout(cfg, rng)
    return initial_state(build_channels(layout, rlz, cfg), cfg)


class TestTransmitQP:
    def test_beats_projected_gradient(self):
        rng = np.random.default_rng(0)
        for i in range(60):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            H_t = random_psd(rng, n, eig_lo=0.0 if i % 5 == 0 else 0.05)
            Hbar = random_complex(rng, (n, k))
            p_max = float(rng.uniform(0.2, 5.0))
            W, _, _ = solve_transmit_qp(H_t, Hbar, p_max)
            W_ref = transmit_qp_pgd(H_t, Hbar, p_max)
            v = transmit_qp_value(H_t, Hbar, W)
            v_ref = transmit_qp_value(H_t, Hbar, W_ref)
            assert v >= v_ref - 1e-6 * max(1.0, abs(v_ref))

    def test_power_budget_respected(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            H_t = random_psd(rng, n)
            Hbar = random_complex(rng, (n, 2))
            p_max = float(rng.uniform(0.01, 2.0))
            W, mu, _ = solve_transmit_qp(H_t, Hbar, p_max)
            pw = float(np.real(np.trace(W.conj().T @ W)))
            assert pw <= p_max * (1 + 1e-9)
            if mu > 0:
                assert abs(pw - p_max) <= 1e-6 * p_max

    def test_step_cap_returns_a_feasible_beamformer(self, monkeypatch):
        # Cut short, the last iterate may lie on either side of the
        # budget; the feasible end of the bracket is returned.
        monkeypatch.setattr(beamforming, "QP_MAX_ITER", 3)
        rng = np.random.default_rng(4)
        capped = 0
        for _ in range(200):
            H_t = random_psd(rng, 4)
            Hbar = random_complex(rng, (4, 4))
            p_max = float(rng.uniform(0.01, 2.0))
            W, _, iters = solve_transmit_qp(H_t, Hbar, p_max)
            capped += iters == 3
            pw = float(np.real(np.trace(W.conj().T @ W)))
            assert pw <= p_max * (1 + 1e-12)
        assert capped >= 100

    def test_newton_matches_bisection(self):
        # Random sizes, an active mode with lam = 0, a single mode (the
        # secular equation is then linear, so the lower bound is the root),
        # interior solutions and budgets over six decades.
        rng = np.random.default_rng(6)
        steps, interior = [], 0
        for i in range(400):
            n = 1 if i % 10 == 0 else int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            H_t = random_psd(rng, n, eig_lo=0.05, eig_hi=3.0)
            if i % 10 == 1:
                lam, V = np.linalg.eigh(H_t)
                lam[0] = 0.0
                H_t = (V * lam) @ V.conj().T
            Hbar = random_complex(rng, (n, k))
            p_max = float(10.0 ** rng.uniform(-3, 3))
            W, mu, iters = solve_transmit_qp(H_t, Hbar, p_max)
            W_ref, mu_ref, _ = transmit_qp_bisect(H_t, Hbar, p_max)
            assert_allclose(mu, mu_ref, rtol=1e-9, atol=0.0)
            assert_allclose(W, W_ref, rtol=1e-9, atol=0.0)
            assert np.linalg.norm(W) ** 2 <= p_max * (1 + 1e-12)
            assert iters <= 20
            if mu > 0.0:
                steps.append(iters)
                if n == 1:
                    assert iters == 1
            else:
                assert iters == 0
                interior += 1
        assert interior >= 20 and len(steps) >= 200
        assert np.mean(steps) <= 8

    def test_interior_solution_has_zero_multiplier(self):
        # Strong curvature keeps the unconstrained optimum inside the ball.
        rng = np.random.default_rng(2)
        H_t = random_psd(rng, 3, eig_lo=5.0, eig_hi=10.0)
        Hbar = 0.1 * random_complex(rng, (3, 2))
        W, mu, iters = solve_transmit_qp(H_t, Hbar, p_max=100.0)
        assert mu == 0.0 and iters == 0
        # Unconstrained optimum solves H_t W = Hbar exactly.
        assert_allclose(H_t @ W, Hbar, atol=1e-10)

    def test_singular_quadratic_form_is_handled(self):
        # Null modes with zero numerator are dropped (pseudo-inverse).
        rng = np.random.default_rng(3)
        v = random_complex(rng, (3, 1))
        H_t = v @ v.conj().T                    # rank one
        Hbar = v @ random_complex(rng, (1, 2))  # numerator in range(H_t)
        W, _, _ = solve_transmit_qp(H_t, Hbar, p_max=1e6)
        val = transmit_qp_value(H_t, Hbar, W)
        ref = transmit_qp_value(H_t, Hbar, transmit_qp_pgd(H_t, Hbar, 1e6))
        assert val >= ref - 1e-6 * max(1.0, abs(ref))

    def test_update_never_decreases_surrogate(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(15):
            state = refreshed_state(cfg, trial)
            before = fresh_surrogate(state, cfg)
            state.W_t = update_transmit_beamformer(state, cfg)
            after = fresh_surrogate(state, cfg)
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_update_respects_power_budget(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        W = update_transmit_beamformer(refreshed_state(cfg, 0), cfg)
        assert np.real(np.trace(W.conj().T @ W)) <= cfg.p_D_max * (1 + 1e-9)


class TestReceiveUpdate:
    def test_matches_linear_solve_up_to_column_scale(self):
        cfg = ScenarioConfig(K_D=2, K_U=3, N_t=2, N_r=3)
        state = refreshed_state(cfg, 1)
        H_r, Hbar = receive_subproblem_matrices(state, cfg)
        W = update_receive_beamformer(state, cfg)
        ref = np.linalg.solve(H_r, Hbar)
        for u in range(cfg.K_U):
            cross = np.vdot(W[:, u], ref[:, u])
            # parallel columns: |<a,b>| = |a||b|
            assert_allclose(abs(cross),
                            np.linalg.norm(W[:, u]) * np.linalg.norm(ref[:, u]),
                            rtol=1e-10)

    def test_closed_form_value_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            H_r = random_psd(rng, n) + 1e-3 * np.eye(n)
            Hbar = random_complex(rng, (n, k))
            W = np.linalg.solve(H_r, Hbar)
            val = 2 * np.real(np.trace(Hbar.conj().T @ W)) \
                - np.real(np.trace(W.conj().T @ H_r @ W))
            assert_allclose(val, receive_objective_value(H_r, Hbar), rtol=1e-10)

    def test_update_never_decreases_surrogate(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(15):
            state = refreshed_state(cfg, trial)
            before = fresh_surrogate(state, cfg)
            state.W_r = update_receive_beamformer(state, cfg)
            after = fresh_surrogate(state, cfg)
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_silent_user_column_kept(self):
        cfg = ScenarioConfig(K_D=1, K_U=2, N_t=2, N_r=2)
        state = refreshed_state(cfg, 2)
        state.p = np.array([cfg.p_U_max, 0.0])
        state.powers = received_powers(state.W_t, state.W_r, state.p,
                                       state.ch, cfg)
        state.aux = auxiliary_pass(state.powers, cfg)
        old = state.W_r.copy()
        W = update_receive_beamformer(state, cfg)
        assert_allclose(W[:, 1], old[:, 1])
        assert not np.allclose(W[:, 0], old[:, 0])


class TestUplinkPower:
    def test_scalar_optimum_cases(self):
        assert optimal_scalar_power(-1.0, 0.5, 4.0) == 0.0
        assert optimal_scalar_power(0.0, 0.5, 4.0) == 0.0
        assert optimal_scalar_power(1.0, 0.0, 4.0) == 4.0
        assert_allclose(optimal_scalar_power(2.0, 1.0, 4.0), 1.0)
        assert optimal_scalar_power(100.0, 1.0, 4.0) == 4.0

    def test_scalar_optimum_matches_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c1 = rng.uniform(-1.0, 2.0)
            c2 = rng.uniform(0.0, 1.5)
            p_max = 10.0 ** rng.uniform(-3, 1)
            p = optimal_scalar_power(c1, c2, p_max)
            ref = power_grid_search(c1, c2, p_max, num=4001)
            assert abs(p - ref) <= p_max / 4000

    def test_coefficients_have_expected_signs(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=2, N_r=2)
        c1, c2 = uplink_power_coefficients(refreshed_state(cfg, 4))
        assert np.all(c2 >= 0.0)
        assert c1.shape == (cfg.K_U,) and c2.shape == (cfg.K_U,)

    def test_update_never_decreases_surrogate(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
        for trial in range(15):
            state = refreshed_state(cfg, trial)
            before = fresh_surrogate(state, cfg)
            state.p = update_uplink_power(state, cfg)
            after = fresh_surrogate(state, cfg)
            assert after >= before - 1e-9 * max(1.0, abs(before))
            assert np.all(state.p >= 0.0) and np.all(state.p <= cfg.p_U_max)


class TestSubproblemMatrices:
    def test_transmit_quadratic_form_is_psd(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        H_t, _ = transmit_subproblem_matrices(refreshed_state(cfg, 5))
        assert_allclose(H_t, H_t.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(H_t)[0] >= -1e-12

    def test_receive_quadratic_form_is_pd(self):
        cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3)
        H_r, _ = receive_subproblem_matrices(refreshed_state(cfg, 6), cfg)
        assert_allclose(H_r, H_r.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(H_r)[0] >= cfg.sigma2 * (1 - 1e-9)


def record_instances():
    """(tag, cfg, state) with random beamformers, powers and auxiliaries,
    the state's record a fresh pass of them: plain ones, a downlink-only
    view (K_U = 0, as `hd` runs), an uplink user at zero power (its y is
    0, so its receive column is dead) and an all-zero receive column."""
    rng = np.random.default_rng(11)
    cases = [("random", ScenarioConfig(K_D=2, K_U=3, N_t=3, N_r=2, L=3,
                                       L_SI=2), t) for t in range(6)]
    cases += [("random", ScenarioConfig(), t) for t in range(3)]
    cases += [("downlink only", ScenarioConfig(K_D=3, K_U=0, N_t=2, N_r=2), 0),
              ("zero power", ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3), 1),
              ("zero column", ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3), 2)]
    for tag, cfg, trial in cases:
        state = refreshed_state(cfg, trial)
        state.W_t = random_complex(rng, state.W_t.shape)
        state.W_r = random_complex(rng, state.W_r.shape)
        state.p = rng.uniform(0.0, cfg.p_U_max, cfg.K_U)
        if tag == "zero column":
            state.W_r[:, 0] = 0.0
        if tag == "zero power":
            state.p[1] = 0.0
        state.powers = received_powers(state.W_t, state.W_r, state.p,
                                       state.ch, cfg)
        if tag == "zero power":
            state.aux = auxiliary_pass(state.powers, cfg)
            assert state.aux.y_ul[1] == 0.0
        else:
            state.aux = auxiliaries_at(rng.uniform(0.0, 5.0, cfg.K),
                                       random_complex(rng, (cfg.K,)), cfg)
        yield tag, cfg, state


def frobenius_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestRecordReadingForms:
    """The blocks' forms read the received-power record; the forms built
    from the channels alone (`oracles`) are their references."""

    def test_power_coefficients_equal_the_reference(self):
        for _, cfg, state in record_instances():
            c1, c2 = uplink_power_coefficients(state)
            r1, r2 = reference_power_coefficients(state)
            assert np.array_equal(c1, r1) and np.array_equal(c2, r2)

    def test_transmit_form_matches_the_reference(self):
        for _, cfg, state in record_instances():
            H_t, Hbar = transmit_subproblem_matrices(state)
            H_ref, Hbar_ref = reference_transmit_matrices(state)
            assert frobenius_gap(H_t, H_ref) <= 1e-12
            assert np.array_equal(Hbar, Hbar_ref)

    def test_receive_form_matches_the_reference(self):
        for _, cfg, state in record_instances():
            H_r, Hbar = receive_subproblem_matrices(state, cfg)
            H_ref, Hbar_ref = reference_receive_matrices(state, cfg)
            assert frobenius_gap(H_r, H_ref) <= 1e-12
            assert np.array_equal(Hbar, Hbar_ref)

    def test_receive_update_matches_the_reference_solve(self):
        # Every live column solves the reference system; a dead one keeps
        # its previous value.
        for tag, cfg, state in record_instances():
            W = update_receive_beamformer(state, cfg)
            H_ref, Hbar_ref = reference_receive_matrices(state, cfg)
            y_ul = state.aux.y_ul
            live = y_ul != 0.0
            assert live.all() == (tag != "zero power")
            ref = np.linalg.solve(H_ref, Hbar_ref[:, live]) / y_ul[live].conj()
            assert_allclose(W[:, live], ref, rtol=0.0,
                            atol=1e-10 * np.abs(ref).max(initial=0.0))
            assert np.array_equal(W[:, ~live], state.W_r[:, ~live])

    def test_surrogate_matches_the_reference(self):
        for _, cfg, state in record_instances():
            sur = surrogate_objective(state, cfg)
            ref = reference_surrogate(state, cfg)
            assert type(sur) is float
            assert abs(sur - ref) <= 1e-13 * abs(ref)
