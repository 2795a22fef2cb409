"""Slow, transparent reference implementations used to cross-check the
closed-form updates.

Everything here trades speed for obviousness: projected gradient ascent in
place of the eigenbasis water-filling solution, plain bisection in place of
the Newton multiplier search, dense grids in place of KKT reasoning, and
central differences in place of analytic derivatives.  The test suite
compares the fast paths against these oracles on randomized instances.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from prafd.channel import Channels, side_phasors, user_channel
from prafd.config import ScenarioConfig
from prafd.fp import (LN2, auxiliaries, receive_gram, received_powers,
                 surrogate_objective)
from prafd.geometry import FeasibleRegionSpec


# ---------------------------------------------------------------------------
# random instances


def random_complex(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_psd(rng: np.random.Generator, n: int, eig_lo: float = 0.05,
               eig_hi: float = 2.0) -> np.ndarray:
    """Hermitian PSD matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    q, _ = np.linalg.qr(random_complex(rng, (n, n)))
    lam = rng.uniform(eig_lo, eig_hi, n)
    return (q * lam) @ q.conj().T


# ---------------------------------------------------------------------------
# transmit beamformer: power-constrained concave QP


def transmit_qp_value(H_t: np.ndarray, Hbar: np.ndarray, W: np.ndarray):
    """2 Re tr(Hbar^H W) - tr(W^H H_t W); batched over any leading axes."""
    lin = 2.0 * np.real(np.sum(np.conj(Hbar) * W, axis=(-2, -1)))
    quad = np.real(np.sum(np.conj(W) * (H_t @ W), axis=(-2, -1)))
    return lin - quad


def transmit_qp_pgd(H_t: np.ndarray, Hbar: np.ndarray, p_max,
                    iters: int = 4000) -> np.ndarray:
    """Projected gradient ascent for the transmit subproblem.

    Maximizes ``transmit_qp_value`` over the Frobenius ball
    ||W||_F^2 <= p_max using fixed step 1 / (2 lambda_max).  Accepts a
    single (N, K) instance or a stacked batch with one leading axis.
    Deliberately avoids the eigendecomposition shortcut the solver uses.
    """
    H_t = np.asarray(H_t)
    Hbar = np.asarray(Hbar)
    single = H_t.ndim == 2
    if single:
        H_t = H_t[None]
        Hbar = Hbar[None]
    batch = H_t.shape[0]
    rad = np.sqrt(np.broadcast_to(np.asarray(p_max, dtype=float), (batch,)))
    lip = 2.0 * np.maximum(np.linalg.eigvalsh(H_t)[:, -1], 1e-12)
    step = (1.0 / lip)[:, None, None]
    W = np.zeros_like(Hbar)
    for _ in range(iters):
        W = W + step * 2.0 * (Hbar - H_t @ W)
        nrm = np.linalg.norm(W, axis=(1, 2))
        shrink = np.where(nrm > rad, rad / np.maximum(nrm, 1e-300), 1.0)
        W = W * shrink[:, None, None]
    return W[0] if single else W


def transmit_qp_bisect(H_t: np.ndarray, Hbar: np.ndarray, p_max: float):
    """Transmit subproblem by eigendecomposition and plain bisection on the
    multiplier; returns (W, mu, iterations) like `solve_transmit_qp`.

    Same KKT solution as the solver's Newton iteration, found the slow and
    obvious way: halve [0, sqrt(sum num / p_max)] until the power
    sum_i num_i / (lam_i + mu)^2 is within 1e-13 relative of p_max, or for
    at most 200 halvings.
    """
    lam, V = np.linalg.eigh(H_t)
    lam = np.clip(lam, 0.0, None)
    R = V.conj().T @ Hbar
    num = (np.abs(R) ** 2).sum(axis=1)
    active = num > 0.0
    lam_a, num_a = lam[active], num[active]

    def power(mu: float) -> float:
        den = (lam_a + mu) ** 2
        if not den.all():
            return np.inf
        return float((num_a / den).sum())

    def build(mu: float) -> np.ndarray:
        scale = np.zeros_like(lam)
        scale[active] = 1.0 / (lam_a + mu)
        return V @ (R * scale[:, None])

    if power(0.0) <= p_max:
        return build(0.0), 0.0, 0
    lo, hi = 0.0, float(np.sqrt(num.sum() / p_max))
    for it in range(1, 201):
        mu = 0.5 * (lo + hi)
        pw = power(mu)
        if abs(pw - p_max) / p_max < 1e-13 or hi - lo < 1e-16 * hi:
            break
        if pw > p_max:
            lo = mu
        else:
            hi = mu
    else:
        mu = hi
    return build(mu), mu, it


# ---------------------------------------------------------------------------
# rate surrogates and the receive block's optimal value


def dual_transform_objective(gamma, W_t, W_r, p, ch: Channels,
                             cfg: ScenarioConfig) -> float:
    """Rate surrogate after the dual transform only, in bits.

    Concave in gamma with maximizer gamma = SINR, where it equals the
    weighted sum-rate.
    """
    kd = cfg.K_D
    a = cfg.weights
    pw = received_powers(W_t, W_r, p, ch, cfg)
    base = a @ (np.log(1.0 + gamma) - gamma)
    ratio_dl = np.abs(np.diag(pw.C)) ** 2 / pw.s1
    ratio_ul = p * np.abs(np.diag(pw.G)) ** 2 / pw.s2
    lift = (a[:kd] * (1.0 + gamma[:kd])) @ ratio_dl \
        + (a[kd:] * (1.0 + gamma[kd:])) @ ratio_ul
    return float(base + lift) / LN2


def auxiliaries_at(gamma, y, cfg: ScenarioConfig):
    """The auxiliary record of a hand-set (gamma, y), with 1 + gamma and
    the amplitudes sqrt(a (1 + gamma)) formed as `fp.auxiliary_pass`
    forms them."""
    lift = 1.0 + gamma
    return auxiliaries(gamma, y, lift, np.sqrt(cfg.weights * lift), cfg)


def fresh_surrogate(state, cfg: ScenarioConfig) -> float:
    """The surrogate at the state's own auxiliaries, scored from a fresh
    received-power pass on the state's channels."""
    powers = received_powers(state.W_t, state.W_r, state.p, state.ch, cfg)
    return surrogate_objective(replace(state, powers=powers), cfg)


def reference_surrogate(state, cfg: ScenarioConfig) -> float:
    """The surrogate of `fp.surrogate_objective` as one numpy expression
    over the user vectors, from a fresh pass on the state's channels."""
    x = state.aux
    powers = received_powers(state.W_t, state.W_r, state.p, state.ch, cfg)
    t1 = 2.0 * x.amp_dl @ (x.y_dl.conj() * powers.C.diagonal()).real \
        - x.y2_dl @ powers.s1
    t2 = 2.0 * np.sqrt(cfg.weights[cfg.K_D:] * state.p * x.lift_ul) \
        @ (x.y_ul * powers.G.diagonal()).real - x.y2_ul @ powers.s2
    return float(x.base + t1 + t2) / LN2


def receive_objective_value(H_r: np.ndarray, Hbar: np.ndarray) -> float:
    """Optimal value tr(Hbar^H H_r^{-1} Hbar) of the receive block."""
    return float(np.real(np.trace(Hbar.conj().T @ np.linalg.solve(H_r, Hbar))))


# ---------------------------------------------------------------------------
# closed-form blocks: forms built from the channels alone


def reference_transmit_matrices(state):
    """H_t and Hbar_D of the transmit block, the SI part as
    H_SI^H (W_r |Y_U|^2 W_r^H) H_SI from the state's channels."""
    x, ch = state.aux, state.ch
    H_t = (ch.H_D * x.y2_dl) @ ch.H_D.conj().T \
        + ch.H_SI.conj().T @ receive_gram(state) @ ch.H_SI
    return H_t, ch.H_D * (x.y_dl * x.amp_dl)


def reference_receive_matrices(state, cfg: ScenarioConfig):
    """H_r and Hbar_U of the receive block, the SI part as the chain
    H_SI W_t W_t^H H_SI^H and the noise as sigma2 times an identity."""
    ch = state.ch
    H_r = (ch.H_U * state.p) @ ch.H_U.conj().T \
        + ch.H_SI @ state.W_t @ state.W_t.conj().T @ ch.H_SI.conj().T \
        + cfg.sigma2 * np.eye(ch.H_U.shape[0])
    return H_r, ch.H_U * (state.aux.amp_ul * np.sqrt(state.p))


def reference_power_coefficients(state):
    """(c1, c2) of the uplink power block with G = W_r^H H_U and |H_IUI|^2
    formed from the state's channels."""
    x, ch = state.aux, state.ch
    G = state.W_r.conj().T @ ch.H_U
    c1 = 2.0 * x.amp_ul * np.real(x.y_ul * G.diagonal())
    c2 = x.y2_dl @ (np.abs(ch.H_IUI) ** 2) + x.y2_ul @ (np.abs(G) ** 2)
    return c1, c2


# ---------------------------------------------------------------------------
# placement: an exponential sum evaluated at a position


def bundle_evaluation(bundle, t: np.ndarray) -> tuple:
    """`ExpSum.evaluate` at the position t: (value, gradient, Hessian
    entries), from the phasors `ExpSum.phasors` takes there."""
    return bundle.evaluate(bundle.phasors(t))


def bundle_value(bundle, t: np.ndarray) -> float:
    return bundle_evaluation(bundle, t)[0]


def bundle_gradient(bundle, t: np.ndarray) -> np.ndarray:
    return np.array(bundle_evaluation(bundle, t)[1])


def bundle_hessian(bundle, t: np.ndarray) -> np.ndarray:
    hxx, hxy, hyy = bundle_evaluation(bundle, t)[2]
    return np.array([[hxx, hxy], [hxy, hyy]])


# ---------------------------------------------------------------------------
# placement: the antenna bundle built from scratch


def reference_antenna_bundle(ctx, positions: np.ndarray, n: int):
    """Coefficients and directions of antenna n's exponential sum, with
    every term rebuilt from the context and the positions on each call.

    Same arithmetic, in the same order, as `placement.antenna_bundle`,
    which keeps the position-free parts per context and takes the user
    channel and SI phasors per layout state; the two must agree bit for
    bit.  Of `ctx.terms` it reads only the raw directions, gains and kappa.
    """
    t = ctx.terms
    user_e, si_e = side_phasors(positions, t.user_dirs, t.si_dirs, t.kappa)
    H = user_channel(user_e, t.user_prm)
    G0 = (ctx.beam_w * ctx.W.conj()) @ ctx.W.T
    np.fill_diagonal(G0, 0.0)
    own0 = ctx.own.copy()
    np.fill_diagonal(own0, 0.0)
    gram_nn = float(np.real(ctx.own[n, n]))
    lin_coef = 2.0 * (ctx.chan_w * (G0[n] @ H.conj())
                      - ctx.lin * ctx.W[n].conj())
    omega = ctx.chan_w * gram_nn
    pair = t.user_prm[:, :, None] * t.user_prm.conj()[:, None, :]
    ddiff = t.kappa * (t.user_dirs[:, None, :, :]
                       - t.user_dirs[:, :, None, :])
    M = ctx.si_mix.conj().T @ ctx.other @ ctx.si_mix
    sdiff = t.kappa * (t.si_dirs[None, :, :] - t.si_dirs[:, None, :])
    coefs = np.concatenate([(lin_coef[:, None] * t.user_prm).ravel(),
                            2.0 * ((own0[:, n] @ si_e).conj() @ M),
                            (omega[:, None, None] * pair).ravel(),
                            (gram_nn * M).ravel()])
    dirs = np.vstack([(-t.kappa * t.user_dirs).reshape(-1, 2),
                      t.kappa * t.si_dirs, ddiff.reshape(-1, 2),
                      sdiff.reshape(-1, 2)])
    return coefs, dirs


def reference_curvature_bound(coefs: np.ndarray, dirs: np.ndarray,
                              t: np.ndarray, floor_factor: float) -> float:
    """Top Hessian eigenvalue of sum Re{c exp(j u.t)} at t, floored at
    floor_factor * sum |c| ||u||^2."""
    w = np.real(coefs * np.exp(1j * (dirs @ t)))
    h = -np.einsum("m,mi,mj->ij", w, dirs, dirs)
    lam = 0.5 * (h[0, 0] + h[1, 1] + np.hypot(h[0, 0] - h[1, 1], 2.0 * h[0, 1]))
    cap = float(np.sum(np.abs(coefs) * (dirs ** 2).sum(axis=1)))
    return max(lam, floor_factor * cap)


# ---------------------------------------------------------------------------
# uplink power: scalar grid search


def power_objective(c1, c2, p):
    return c1 * np.sqrt(p) - c2 * p


def power_grid_search(c1: float, c2: float, p_max: float,
                      num: int = 10_000) -> float:
    """Argmax of c1 sqrt(p) - c2 p over a uniform grid on [0, p_max].

    The objective is concave in sqrt(p), hence unimodal in p, so the grid
    argmax lies within one cell of the true maximizer.
    """
    grid = np.linspace(0.0, p_max, num)
    return float(grid[int(np.argmax(power_objective(c1, c2, grid)))])


# ---------------------------------------------------------------------------
# feasible-region projection: dense grid


def grid_nearest_feasible(sp: np.ndarray, spec: FeasibleRegionSpec,
                          step: float) -> np.ndarray | None:
    """Nearest-to-sp point of a uniform grid over the square that clears all
    obstacle discs.  Returns None when no grid point is feasible."""
    hw = spec.half_width
    n = max(2, int(np.floor(2.0 * hw / step)) + 1)
    ax = np.linspace(-hw, hw, n)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    ok = np.ones(len(pts), dtype=bool)
    for c in spec.obstacles:
        d2 = (pts[:, 0] - c[0]) ** 2 + (pts[:, 1] - c[1]) ** 2
        ok &= d2 >= spec.radius**2
    if not ok.any():
        return None
    pts = pts[ok]
    d2 = (pts[:, 0] - sp[0]) ** 2 + (pts[:, 1] - sp[1]) ** 2
    return pts[int(np.argmin(d2))]


# ---------------------------------------------------------------------------
# derivative checks


def central_difference_gradient(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a real array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    for i in range(x.size):
        bump = np.zeros_like(x).ravel()
        bump[i] = step
        bump = bump.reshape(x.shape)
        flat[i] = (func(x + bump) - func(x - bump)) / (2.0 * step)
    return grad


def central_difference_hessian(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a real array."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            ei = (step * eye[i]).reshape(x.shape)
            ej = (step * eye[j]).reshape(x.shape)
            val = (func(x + ei + ej) - func(x + ei - ej)
                   - func(x - ei + ej) + func(x - ei - ej)) / (4.0 * step**2)
            hess[i, j] = val
            hess[j, i] = val
    return hess


# ---------------------------------------------------------------------------
# bit-level comparison


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, and so do a
    float and a complex array of the same values."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def same_powers(a, b) -> bool:
    """Every factor of two received-power records equal, bit for bit."""
    return vars(a).keys() == vars(b).keys() and all(
        same_bits(v, getattr(b, k)) for k, v in vars(a).items())
