"""Closed-form beamformer and power blocks of the alternating optimizer.

With the FP auxiliaries frozen, the surrogate separates into a transmit
quadratic program with one sum-power constraint (solved by KKT and a
safeguarded Newton iteration on the multiplier's secular equation), an
unconstrained receive quadratic program (plain linear solve), and per-user
scalar uplink power problems.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import Channels
from .config import ScenarioConfig
from .fp import SolverState, receive_gram

QP_TOL = 1e-13
QP_MAX_ITER = 200


def transmit_subproblem_matrices(state: SolverState, ch: Channels,
                                 cfg: ScenarioConfig):
    """Quadratic form H_t and linear term Hbar_D of the transmit block."""
    x = state.aux
    H_t = (ch.H_D * x.y2_dl) @ ch.H_D.conj().T \
        + ch.H_SI.conj().T @ receive_gram(state) @ ch.H_SI
    Hbar = ch.H_D * (x.y_dl * x.amp_dl)
    return H_t, Hbar


def solve_transmit_qp(H_t: np.ndarray, Hbar: np.ndarray, p_max: float):
    """Maximize 2Re tr(Hbar^H W) - tr(W^H H_t W) s.t. tr(W W^H) <= p_max.

    Returns (W, mu, iterations).  Solved through the eigendecomposition of
    H_t: with H_t = V diag(lam) V^H and R = V^H Hbar, the transmit power of
    the stationary point at multiplier mu is P(mu) = sum_i num_i / (lam_i+mu)^2
    with num_i = ||R[i]||^2, decreasing in mu.  The binding multiplier is the
    root of the secular equation 1/sqrt(P(mu)) = 1/sqrt(p_max), whose left
    side is concave, increasing and nearly linear (exactly so for one mode;
    More & Sorensen 1983), so Newton steps from the lower bound
    max_i sqrt(num_i / p_max) - lam_i converge in a few steps.  A bracket
    [lo, hi] safeguards them: a step that leaves it is replaced by
    bisection.
    Eigenvalues are clipped at zero and null modes with zero numerator are
    dropped, which is the pseudo-inverse solution when H_t is singular.
    """
    lam, V = np.linalg.eigh(H_t)
    lam = np.clip(lam, 0.0, None)
    R = V.conj().T @ Hbar
    num = (np.abs(R) ** 2).sum(axis=1)
    active = num > 0.0
    lam_a, num_a = lam[active], num[active]
    modes = list(zip(lam_a.tolist(), num_a.tolist()))

    def power(mu: float):
        """P(mu) and -P'(mu)/2 = sum_i num_i / (lam_i+mu)^3.

        P is infinite only at mu = 0 with an active mode of lam = 0, which
        the interior check below meets; every later iterate is >= lo > 0
        when such a mode exists.
        """
        pw = slope = 0.0
        for lam_i, num_i in modes:
            d = lam_i + mu
            if d == 0.0:
                return math.inf, math.inf
            term = num_i / (d * d)
            pw += term
            slope += term / d
        return pw, slope

    def build(mu: float) -> np.ndarray:
        scale = np.zeros_like(lam)
        scale[active] = 1.0 / (lam_a + mu)
        return V @ (R * scale[:, None])

    if power(0.0)[0] <= p_max:
        return build(0.0), 0.0, 0

    # power(hi) <= p_max from the start, and hi only ever takes feasible
    # iterates, so hi is the answer when the step cap runs out.
    lo = max(0.0, max(math.sqrt(num_i / p_max) - lam_i
                      for lam_i, num_i in modes))
    hi = math.sqrt(float(num.sum()) / p_max)
    mu = lo
    for it in range(1, QP_MAX_ITER + 1):
        pw, slope = power(mu)
        if abs(pw - p_max) / p_max < QP_TOL or hi - lo < 1e-16 * hi:
            break
        if pw > p_max:
            lo = mu
        else:
            hi = mu
        # Newton on 1/sqrt(P(mu)) - 1/sqrt(p_max); a step that rounding
        # carries out of the bracket is replaced by bisection.
        mu += pw / slope * (math.sqrt(pw / p_max) - 1.0)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    else:
        mu = hi
    return build(mu), mu, it


def update_transmit_beamformer(state: SolverState, ch: Channels,
                               cfg: ScenarioConfig) -> np.ndarray:
    H_t, Hbar = transmit_subproblem_matrices(state, ch, cfg)
    W, _, _ = solve_transmit_qp(H_t, Hbar, cfg.p_D_max)
    return W


def receive_subproblem_matrices(state: SolverState, ch: Channels,
                                cfg: ScenarioConfig):
    """Quadratic form H_r and linear term Hbar_U of the receive block."""
    H_r = (ch.H_U * state.p) @ ch.H_U.conj().T \
        + ch.H_SI @ state.W_t @ state.W_t.conj().T @ ch.H_SI.conj().T \
        + cfg.sigma2 * np.eye(ch.H_U.shape[0])
    Hbar = ch.H_U * (state.aux.amp_ul * np.sqrt(state.p))
    return H_r, Hbar


def update_receive_beamformer(state: SolverState, ch: Channels,
                              cfg: ScenarioConfig) -> np.ndarray:
    """Unconstrained receive block: W_r = H_r^{-1} Hbar_U Y_U^{-H}.

    Columns whose y auxiliary is zero have a flat subproblem and keep their
    previous value.
    """
    H_r, Hbar = receive_subproblem_matrices(state, ch, cfg)
    y_ul = state.aux.y_ul
    W = state.W_r.copy()
    live = y_ul != 0.0
    if np.any(live):
        sol = np.linalg.solve(H_r, Hbar[:, live])
        W[:, live] = sol / y_ul[live].conj()
    return W


def uplink_power_coefficients(state: SolverState, ch: Channels,
                              cfg: ScenarioConfig):
    """Per-user coefficients of the scalar power objective c1*sqrt(p) - c2*p.

    c1 collects the user's own matched-filter reward; c2 collects the damage
    its power does through every receive beamformer and every downlink user.
    """
    x = state.aux
    G = state.W_r.conj().T @ ch.H_U
    c1 = 2.0 * x.amp_ul * np.real(x.y_ul * G.diagonal())
    c2 = x.y2_dl @ (np.abs(ch.H_IUI) ** 2) + x.y2_ul @ (np.abs(G) ** 2)
    return c1, c2


def optimal_scalar_power(c1: float, c2: float, p_max: float) -> float:
    """Maximizer of c1*sqrt(p) - c2*p on [0, p_max] (c2 >= 0)."""
    if c1 <= 0.0:
        return 0.0
    if c2 <= 0.0:
        return p_max
    return min(p_max, (c1 / (2.0 * c2)) ** 2)


def update_uplink_power(state: SolverState, ch: Channels,
                        cfg: ScenarioConfig) -> np.ndarray:
    """Exact maximizer of each scalar power problem on [0, p_U_max]."""
    c1, c2 = uplink_power_coefficients(state, ch, cfg)
    return np.array([optimal_scalar_power(c1[u], c2[u], cfg.p_U_max)
                     for u in range(cfg.K_U)])
