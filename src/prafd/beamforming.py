"""Closed-form beamformer and power blocks of the alternating optimizer.

With the FP auxiliaries frozen, the surrogate separates into a transmit
quadratic program with one sum-power constraint (solved by KKT and a
safeguarded Newton iteration on the multiplier's secular equation), an
unconstrained receive quadratic program (plain linear solve), and per-user
scalar uplink power problems.

Every block update takes `(state, cfg)` and reads the channels
(`state.ch`) and the received-power record (`state.powers`) from the
state, taking from the record what it already holds: the transmit form's
SI part is built from its V = W_r^H H_SI, and the power coefficients from
its G = W_r^H H_U, |G|^2 and |H_IUI|^2.  The receive form holds no W_r
product, so that block reads only the channels.  The tests' references
build the same forms from the channels alone.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig
from .fp import SolverState

QP_TOL = 1e-13
QP_MAX_ITER = 200


def transmit_subproblem_matrices(state: SolverState):
    """Quadratic form H_t and linear term Hbar_D of the transmit block.

    The SI part H_SI^H W_r |Y_U|^2 W_r^H H_SI is V^H |Y_U|^2 V with the
    record's V = W_r^H H_SI.
    """
    x, ch, V = state.aux, state.ch, state.powers.V
    H_t = (ch.H_D * x.y2_dl) @ ch.H_D.conj().T + (V.conj().T * x.y2_ul) @ V
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
    lam = np.maximum(lam, 0.0)
    R = V.conj().T @ Hbar
    num = (np.abs(R) ** 2).sum(axis=1)
    active = num > 0.0
    if not active.all():
        # An inactive mode's row of R is zero, so it adds nothing to W;
        # dropping it keeps build from forming 1 / (lam + mu) at 0.
        lam, V, R, num = lam[active], V[:, active], R[active], num[active]
    modes = list(zip(lam.tolist(), num.tolist()))

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
        scale = 1.0 / (lam + mu)
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


def update_transmit_beamformer(state: SolverState,
                               cfg: ScenarioConfig) -> np.ndarray:
    H_t, Hbar = transmit_subproblem_matrices(state)
    W, _, _ = solve_transmit_qp(H_t, Hbar, cfg.p_D_max)
    return W


def receive_subproblem_matrices(state: SolverState, cfg: ScenarioConfig):
    """Quadratic form H_r and linear term Hbar_U of the receive block.

    The SI part is F F^H with F = H_SI W_t.
    """
    ch = state.ch
    F = ch.H_SI @ state.W_t
    H_r = (ch.H_U * state.p) @ ch.H_U.conj().T + F @ F.conj().T
    # H_r is a fresh contiguous sum, so ravel() is a view of it.
    H_r.ravel()[::H_r.shape[0] + 1] += cfg.sigma2
    Hbar = ch.H_U * (state.aux.amp_ul * np.sqrt(state.p))
    return H_r, Hbar


def update_receive_beamformer(state: SolverState,
                              cfg: ScenarioConfig) -> np.ndarray:
    """Unconstrained receive block: W_r = H_r^{-1} Hbar_U Y_U^{-H}.

    Columns whose y auxiliary is zero have a flat subproblem and keep their
    previous value.
    """
    H_r, Hbar = receive_subproblem_matrices(state, cfg)
    y_ul = state.aux.y_ul
    live = y_ul != 0.0
    if live.all():
        return np.linalg.solve(H_r, Hbar) / y_ul.conj()
    W = state.W_r.copy()
    if live.any():
        sol = np.linalg.solve(H_r, Hbar[:, live])
        W[:, live] = sol / y_ul[live].conj()
    return W


def uplink_power_coefficients(state: SolverState):
    """Per-user coefficients of the scalar power objective c1*sqrt(p) - c2*p.

    c1 collects the user's own matched-filter reward; c2 collects the damage
    its power does through every receive beamformer and every downlink user.
    Both read G, |G|^2 and |H_IUI|^2 from the state's record.
    """
    x, powers = state.aux, state.powers
    c1 = 2.0 * x.amp_ul * np.real(x.y_ul * powers.G.diagonal())
    c2 = x.y2_dl @ powers.iui2 + x.y2_ul @ powers.g2
    return c1, c2


def optimal_scalar_power(c1: float, c2: float, p_max: float) -> float:
    """Maximizer of c1*sqrt(p) - c2*p on [0, p_max] (c2 >= 0)."""
    if c1 <= 0.0:
        return 0.0
    if c2 <= 0.0:
        return p_max
    return min(p_max, (c1 / (2.0 * c2)) ** 2)


def update_uplink_power(state: SolverState,
                        cfg: ScenarioConfig) -> np.ndarray:
    """Exact maximizer of each scalar power problem on [0, p_U_max]."""
    c1, c2 = uplink_power_coefficients(state)
    return np.array([optimal_scalar_power(c1[u], c2[u], cfg.p_U_max)
                     for u in range(cfg.K_U)])
