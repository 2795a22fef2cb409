"""Antenna position optimization by block successive upper-bound descent.

With beamformers, powers and FP auxiliaries frozen, the (negated) surrogate
restricted to one side's antenna positions is a finite sum of terms
Re{c * exp(j u.t)} per antenna: every channel entry is a sum of unit-modulus
path phasors, and the objective is (at most) quadratic in channel entries,
so products of phasors just add their spatial frequencies.  That gives the
exact gradient and Hessian of the per-antenna objective in closed form.

Each antenna is then moved to the minimizer of the standard quadratic
majorizer built from its gradient and a curvature bound tau, projected onto
the feasible region; tau doubles on the rare occasions the projected step
fails to descend (the term-wise bound sum(|c|*||u||^2) majorizes the Hessian
everywhere, so finitely many doublings always restore descent).

Each quantity is built once at the level where it can change:

* per context (one side's placement call): the spatial frequencies of
  every term and their squared norms, the path-pair products, the SI mix
  product M, W^H, and every antenna's quadratic coefficients;
* per layout state: the channel fields H, D = W^H H and the SI matrix X
  (`layout_fields`), rebuilt in full after an accepted move, and from
  them the joint gradient in every antenna's position
  (`placement_gradient`), the one gradient projected gradient descent
  reads per step;
* per point: one phasor vector serves the value, gradient and Hessian of
  an `ExpSum`, and its curvature cap is taken once.

That step only looks near the current layout: the quadratic-transform
auxiliaries anchor the surrogate at the present channel, so one antenna's
best reachable |h| is barely above its current one.  `RateGrid` supplies the
global step.  With beamformers and powers fixed it evaluates the *true*
weighted sum-rate with one antenna at every point of a lambda/8 grid
anchored at the region centre (spacing discs masked out) and moves the
antenna to the best point when that raises the rate.  Grid phasors are
separable (x phasor times y phasor), and a move changes one row or column
of each channel, so every grid point costs a rank-1 update of the
beamformed products C, G and S rather than a channel rebuild.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import fp
from .channel import (AntennaLayout, ChannelRealization, Channels,
                      _user_channel, build_channels, field_response)
from .config import ScenarioConfig
from .fp import SolverState
from .geometry import FeasibleRegionSpec, is_feasible, nearest_feasible_point

TAU_MIN_FACTOR = 1e-6
MAX_TAU_DOUBLINGS = 20
MAX_BSUM_SWEEPS = 50
GRID_STEP_WAVELENGTHS = 0.125
MAX_GRID_ROUNDS = 5
# Relative rate rise a grid move must beat: well above the rounding of a
# solve, so last-bit differences do not decide whether the grid block moves.
GRID_MIN_GAIN = 1e-9


class ExpSum:
    """f(t) = sum_m Re{coefs[m] * exp(j dirs[m].t)} with exact derivatives.

    The phasors of the last point evaluated are kept, keyed by the point's
    bytes, so value, gradient and Hessian at one point share one
    exponential.
    """

    def __init__(self, coefs: np.ndarray, dirs: np.ndarray,
                 norm2: np.ndarray):
        self.coefs = coefs  # (M,) complex
        self.dirs = dirs    # (M, 2), spatial frequencies (kappa absorbed)
        self.norm2 = norm2  # (M,) squared norms of dirs
        self._cap = None
        self._at = None     # (point bytes, phased coefficients)

    def _phased(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        key = t.tobytes()
        if self._at is None or self._at[0] != key:
            self._at = (key, self.coefs * np.exp(1j * (self.dirs @ t)))
        return self._at[1]

    def value(self, t: np.ndarray) -> float:
        return float(self._phased(t).real.sum())

    def gradient(self, t: np.ndarray) -> np.ndarray:
        w = self._phased(t)
        return -(np.imag(w) @ self.dirs)

    def hessian(self, t: np.ndarray) -> np.ndarray:
        w = np.real(self._phased(t))
        return -np.einsum("m,mi,mj->ij", w, self.dirs, self.dirs)

    def curvature_cap(self) -> float:
        """Global bound on the Hessian spectral norm: sum |c| ||u||^2."""
        if self._cap is None:
            self._cap = float((np.abs(self.coefs) * self.norm2).sum())
        return self._cap


@dataclass
class SurrogateContext:
    """Everything the per-side placement objective needs besides positions.

    Valid while beamformers, powers, auxiliaries and the *other* side's
    positions stay fixed, i.e. for one side's whole BSUM run.  Each side
    sees the self-interference matrix with its own antennas as columns:
    X = H_SI on the transmit side and X = H_SI^H on the receive side, so
    the SI term is tr(own X^H other X) on both.  The position-free parts of
    every antenna bundle are built here, once.
    """

    kappa: float
    half_width: float
    d_min: float
    user_dirs: np.ndarray  # (K, L, 2) path directions of this side's users
    user_prm: np.ndarray   # (K, L)
    lin: np.ndarray        # (K,) linear-term coefficients
    chan_w: np.ndarray     # (K,) weight of ||.||^2 per user channel
    beam_w: np.ndarray     # (K,) weight per beamformer column
    W: np.ndarray          # (N, K) this side's beamformer
    own: np.ndarray        # (N, N) this side's gram, sum_b beam_w_b w_b w_b^H
    other: np.ndarray      # the other side's gram
    si_dirs: np.ndarray    # (L_SI, 2) this side's SI path directions
    si_mix: np.ndarray     # (N_other, L_SI) X = si_mix @ phasors^T
    # Derived in __post_init__:
    WH: np.ndarray = field(init=False, repr=False)     # W^H
    dirs: np.ndarray = field(init=False, repr=False)   # every bundle's dirs
    norm2: np.ndarray = field(init=False, repr=False)  # their squared norms
    user_quad: np.ndarray = field(init=False, repr=False)  # (N, K*L*L)
    si_quad: np.ndarray = field(init=False, repr=False)    # (N, L_SI^2)

    def __post_init__(self):
        k = self.kappa
        self.WH = self.W.conj().T
        pair = self.user_prm[:, :, None] * self.user_prm.conj()[:, None, :]
        M = self.si_mix.conj().T @ self.other @ self.si_mix
        ddiff = k * (self.user_dirs[:, None, :, :] - self.user_dirs[:, :, None, :])
        sdiff = k * (self.si_dirs[None, :, :] - self.si_dirs[:, None, :])
        # Term order: user linear, user pairs, SI linear, SI pairs.
        self.dirs = np.vstack([(-k * self.user_dirs).reshape(-1, 2),
                               ddiff.reshape(-1, 2), k * self.si_dirs,
                               sdiff.reshape(-1, 2)])
        self.norm2 = (self.dirs ** 2).sum(axis=1)
        # Antenna n's user-pair and SI-pair coefficients, row n.
        gram = np.real(np.diag(self.own))
        omega = gram[:, None] * self.chan_w
        n_ant = len(gram)
        self.user_quad = (omega[:, :, None, None] * pair).reshape(n_ant, -1)
        self.si_quad = (gram[:, None, None] * M).reshape(n_ant, -1)


def _context(state: SolverState, rlz: ChannelRealization,
             other_positions: np.ndarray, cfg: ScenarioConfig,
             transmit: bool) -> SurrogateContext:
    x = state.aux
    Q = state.W_t @ state.W_t.conj().T
    B = fp.receive_gram(state)
    if transmit:
        side = dict(user_dirs=rlz.dl_dirs, user_prm=rlz.prm_dl,
                    lin=x.amp_dl * x.y_dl, chan_w=x.y2_dl,
                    beam_w=np.ones(cfg.K_D), W=state.W_t, own=Q, other=B,
                    si_dirs=rlz.si_t_dirs)
        other_dirs, sigma = rlz.si_r_dirs, rlz.sigma_si
    else:
        side = dict(user_dirs=rlz.ul_dirs, user_prm=rlz.prm_ul,
                    lin=x.amp_ul * np.sqrt(state.p) * x.y_ul,
                    chan_w=state.p.astype(float), beam_w=x.y2_ul,
                    W=state.W_r, own=B, other=Q, si_dirs=rlz.si_r_dirs)
        other_dirs, sigma = rlz.si_t_dirs, rlz.sigma_si.conj().T
    e = field_response(other_positions, other_dirs, cfg.kappa)
    return SurrogateContext(kappa=cfg.kappa, half_width=cfg.region_half_width,
                            d_min=cfg.D_min, si_mix=e.conj() @ sigma, **side)


def transmit_context(state: SolverState, rlz: ChannelRealization,
                     r_positions: np.ndarray, cfg: ScenarioConfig) -> SurrogateContext:
    return _context(state, rlz, r_positions, cfg, transmit=True)


def receive_context(state: SolverState, rlz: ChannelRealization,
                    t_positions: np.ndarray, cfg: ScenarioConfig) -> SurrogateContext:
    return _context(state, rlz, t_positions, cfg, transmit=False)


def layout_fields(ctx: SurrogateContext, positions: np.ndarray):
    """Channel fields of one layout state: (H, D = W^H H, X).

    D[b, c] = w_b^H h_c; X is this side's SI matrix.
    """
    H = _user_channel(positions, ctx.user_dirs, ctx.user_prm, ctx.kappa)
    e = np.exp(1j * ctx.kappa * (positions @ ctx.si_dirs.T))
    return H, ctx.WH @ H, ctx.si_mix @ e.T


def placement_objective(ctx: SurrogateContext, fields: tuple) -> float:
    """Negated position-dependent surrogate part; BSUM minimizes this.

    `fields` are the `layout_fields` of the positions to score.
    """
    _, D, X = fields
    t1 = -2.0 * float(np.real(ctx.lin @ D.diagonal()))
    t2 = float(ctx.beam_w @ (np.abs(D) ** 2) @ ctx.chan_w)
    t3 = float(np.real(np.trace(ctx.own @ X.conj().T @ ctx.other @ X)))
    return t1 + t2 + t3


def placement_gradient(ctx: SurrogateContext, positions: np.ndarray,
                       fields: tuple) -> np.ndarray:
    """Gradient of `placement_objective` in every antenna's position, (N, 2).

    `fields` are the `layout_fields` of `positions`.  With
    A = chan_w (conj(W) beam_w) conj(D) - lin conj(W) and Z = other X own,
    row n is 2 Re sum_c A[n, c] dH[n, c]/dt_n + 2 Re sum_i conj(Z[i, n])
    dX[i, n]/dt_n: one evaluation for the whole side, equal up to rounding
    to the stacked `antenna_bundle(ctx, fields, n).gradient(positions[n])`.
    """
    _, D, X = fields
    k = ctx.kappa
    Wc = ctx.W.conj()
    A = ctx.chan_w * ((Wc * ctx.beam_w) @ D.conj()) - ctx.lin * Wc
    udirs = ctx.user_dirs.reshape(-1, 2)
    # dH[n, c]/dt_n = sum_l prm[c, l] exp(-j k u_cl.t_n) (-j k u_cl).
    E = field_response(positions, udirs, -k).reshape((len(A),)
                                                     + ctx.user_prm.shape)
    user = (A[:, :, None] * ctx.user_prm * E).reshape(len(A), -1)
    # dX[i, n]/dt_n = sum_l si_mix[i, l] exp(j k s_l.t_n) (j k s_l).
    Z = ctx.other @ X @ ctx.own
    si = (Z.conj().T @ ctx.si_mix) * field_response(positions, ctx.si_dirs, k)
    return (2.0 * k) * (user.imag @ udirs - si.imag @ ctx.si_dirs)


def antenna_bundle(ctx: SurrogateContext, fields: tuple, n: int) -> ExpSum:
    """Exact exponential-sum form of the objective in antenna n's position.

    The returned ExpSum differs from placement_objective by a constant
    (everything not involving antenna n), so values are only meaningful as
    differences; gradients and Hessians are exact.  `fields` are the
    `layout_fields` of the current positions.
    """
    H, D, X = fields
    wn = ctx.W[n, :].conj()
    # Inner products with antenna n's own contribution removed.  np.outer,
    # not a broadcast product: numpy may round the two differently.
    D0 = D - np.outer(wn, H[n, :])
    # Channel terms.  d_c aggregates how the moving antenna's phasor beats
    # against the rest of the array through every beamformer column.
    d = ctx.chan_w * (ctx.beam_w * wn @ D0.conj())
    lin_coef = 2.0 * (d - ctx.lin * wn)
    # Self-interference terms; antenna n is column n of X.
    X0 = X.copy()
    X0[:, n] = 0.0
    u_lin = ctx.other @ X0 @ ctx.own[:, n]
    coefs = np.concatenate([(lin_coef[:, None] * ctx.user_prm).ravel(),
                            ctx.user_quad[n], 2.0 * (u_lin.conj() @ ctx.si_mix),
                            ctx.si_quad[n]])
    return ExpSum(coefs, ctx.dirs, ctx.norm2)


def _lam_max_2x2(h: np.ndarray) -> float:
    return 0.5 * (h[0, 0] + h[1, 1] + np.hypot(h[0, 0] - h[1, 1], 2.0 * h[0, 1]))


def curvature_bound(bundle: ExpSum, t: np.ndarray) -> float:
    """Majorizer curvature at t: local Hessian top eigenvalue, floored.

    The floor scales with the term-wise global curvature cap so it carries
    the right units (kappa^2 times coefficient magnitude).
    """
    tau_min = TAU_MIN_FACTOR * bundle.curvature_cap()
    return max(_lam_max_2x2(bundle.hessian(t)), tau_min)


def others_index(n_ant: int) -> list:
    """Per antenna n, the indices of the other antennas on its side."""
    idx = np.arange(n_ant)
    return [np.delete(idx, n) for n in range(n_ant)]


def bsum_optimize_side(ctx: SurrogateContext, positions: np.ndarray,
                       rng: np.random.Generator, eps: float):
    """Sweep antennas in random order, each to its projected majorizer step.

    Stops when a sweep changes the objective by less than `eps` relative,
    or after MAX_BSUM_SWEEPS sweeps.
    Returns (positions, objective trace per sweep, sweeps used).  The trace
    is monotone non-increasing: a candidate move is only accepted when the
    per-antenna objective does not increase, and the curvature doubles until
    that holds (or the antenna stays put).
    """
    pos = np.array(positions, dtype=float, copy=True)
    others = others_index(len(pos))
    fields = layout_fields(ctx, pos)
    f = placement_objective(ctx, fields)
    trace = [f]
    sweeps = 0
    for _ in range(MAX_BSUM_SWEEPS):
        sweeps += 1
        for n in rng.permutation(len(pos)):
            bundle = antenna_bundle(ctx, fields, n)
            if bundle.curvature_cap() == 0.0:
                continue  # objective does not depend on this antenna
            g = bundle.gradient(pos[n])
            tau = curvature_bound(bundle, pos[n])
            region = FeasibleRegionSpec(ctx.half_width, pos[others[n]],
                                        ctx.d_min)
            f_here = bundle.value(pos[n])
            for _ in range(MAX_TAU_DOUBLINGS + 1):
                cand = nearest_feasible_point(pos[n] - g / tau, region)
                if bundle.value(cand) <= f_here + 1e-12 * (1.0 + abs(f_here)):
                    pos[n] = cand
                    fields = layout_fields(ctx, pos)
                    break
                tau *= 2.0
        f_new = placement_objective(ctx, fields)
        trace.append(f_new)
        rel = abs(f - f_new) / max(abs(f), 1e-12)
        f = f_new
        if rel < eps:
            break
    return pos, trace, sweeps


def grid_axis(half_width: float, step: float) -> np.ndarray:
    """Coordinates i*step, i = -k..k, that fit in [-half_width, half_width].

    The axis is anchored at the region centre, so when half widths are
    whole multiples of the step (integer A at lambda/8) a larger region's
    axis contains a smaller region's, value for value.
    """
    k = int(np.floor(half_width / step + 1e-9))
    return np.clip(step * np.arange(-k, k + 1), -half_width, half_width)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def _grid_phasors(axis: np.ndarray, dirs: np.ndarray,
                  kappa: float) -> np.ndarray:
    """exp(j*kappa*dirs.q) at every grid point q = (x, y), shape (..., P).

    Built as an x phasor times a y phasor, so only 2 * len(axis)
    exponentials are taken per direction.  Points run x-major.
    """
    ex = np.exp(1j * kappa * dirs[..., 0, None] * axis)
    ey = np.exp(1j * kappa * dirs[..., 1, None] * axis)
    return (ex[..., :, None] * ey[..., None, :]).reshape(*dirs.shape[:-1],
                                                        axis.size ** 2)


class RateGrid:
    """True weighted sum-rate with one antenna moved over a fixed grid.

    The per-point channel rows depend only on the realization, so they are
    built once per solve; beamformers, powers and the other antennas enter
    per call.
    """

    def __init__(self, rlz: ChannelRealization, cfg: ScenarioConfig):
        self.rlz, self.cfg = rlz, cfg
        axis = grid_axis(cfg.region_half_width,
                         GRID_STEP_WAVELENGTHS * cfg.wavelength)
        self.points = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                               axis=-1).reshape(-1, 2)
        k = cfg.kappa
        # Rows of H_D / H_U and the SI phasors with the antenna at each point.
        self.h_dl = np.einsum("kl,klp->pk", rlz.prm_dl,
                              _grid_phasors(axis, rlz.dl_dirs, -k))
        self.h_ul = np.einsum("kl,klp->pk", rlz.prm_ul,
                              _grid_phasors(axis, rlz.ul_dirs, -k))
        self.e_si_t = _grid_phasors(axis, rlz.si_t_dirs, k).T
        self.e_si_r = _grid_phasors(axis, rlz.si_r_dirs, -k).T

    def rates(self, state: SolverState, layout: AntennaLayout, ch: Channels,
              powers: fp.ReceivedPowers, side: str, n: int) -> np.ndarray:
        """Rate with antenna n of `side` ("t" or "r") at each grid point.

        `ch` must be the channels of `layout` and `powers` the
        `fp.ReceivedPowers` record of `state` on `ch`; the spacing
        constraint is not applied here.  Those received powers are expanded
        around the current layout, so no (points x users x users) array is
        formed.
        """
        cfg, rlz = self.cfg, self.rlz
        W_t, W_r, p = state.W_t, state.W_r, state.p
        s1, s2, C, G, S = powers.s1, powers.s2, powers.C, powers.G, powers.S
        sig1 = _abs2(C.diagonal())
        if side == "t":
            # Row n of H_D and column n of H_SI move: C += a w^T, S += d w^T.
            w = W_t[n]
            ww = _abs2(w).sum()
            a = (self.h_dl - ch.H_D[n]).conj()
            s1 = s1 + 2.0 * np.real(a * (C.conj() @ w)) + _abs2(a) * ww
            sig1 = _abs2(C.diagonal() + a * w)
            er = field_response(layout.r, rlz.si_r_dirs, cfg.kappa)
            d = self.e_si_t @ (W_r.conj().T @ er.conj() @ rlz.sigma_si).T \
                - W_r.conj().T @ ch.H_SI[:, n]
            s2 = s2 + 2.0 * np.real(d * (S.conj() @ w)) + _abs2(d) * ww
            sig2 = p * _abs2(G.diagonal())
        else:
            # Row n of H_U and of H_SI move: G += v b^T, S += v e^T.
            v = W_r[n].conj()
            vv = _abs2(v)
            b = self.h_ul - ch.H_U[n]
            et = field_response(layout.t, rlz.si_t_dirs, cfg.kappa)
            e = self.e_si_r @ (rlz.sigma_si @ et.T @ W_t) - ch.H_SI[n] @ W_t
            s2 = s2 + 2.0 * np.real(v * (b @ (p * G.conj()).T
                                         + e @ S.conj().T)) \
                + vv * (_abs2(b) @ p + _abs2(e).sum(axis=1))[:, None]
            sig2 = p * _abs2(G.diagonal() + v * b)
        # (points x users), stored user by user so that each column fills
        # in one contiguous run.  A receive move leaves the downlink SINRs
        # alone, so their one row is broadcast to every point.
        sinr = np.empty((cfg.K, len(self.points))).T
        sinr[:, :cfg.K_D] = sig1 / (s1 - sig1)
        sinr[:, cfg.K_D:] = sig2 / (s2 - sig2)
        return fp.rate_of_sinrs(sinr, cfg)

    def place(self, state: SolverState, layout: AntennaLayout, ch: Channels,
              rate: float, powers: fp.ReceivedPowers):
        """Move antennas one at a time to their best feasible grid point.

        Grid points are masked by `is_feasible` against the side's other
        antennas.  Cycles through the transmit then the receive antennas
        and moves one only when its best grid point raises the true rate,
        confirmed by a full received-power pass on rebuilt channels; an
        accepted move's pass scores the next visit.  `rate` and `powers`
        are the weighted sum-rate and the received-power record of `state`
        on `ch`.  Stops once every antenna has been visited since the
        last move, so that no single grid move raises the rate, or after
        MAX_GRID_ROUNDS passes.  Sides without users are skipped.  Returns
        (layout, channels, rate, powers, moves) with the rate and
        received-power pass of `state` on the returned channels; the inputs
        are not modified.
        """
        cfg = self.cfg
        visits = [(side, n) for side, users, count in
                  (("t", cfg.K_D, cfg.N_t), ("r", cfg.K_U, cfg.N_r))
                  if users > 0 for n in range(count)]
        moves = 0
        settled = 0     # visits since the last move, that move's included
        for side, n in itertools.islice(itertools.cycle(visits),
                                        MAX_GRID_ROUNDS * len(visits)):
            if settled == len(visits):
                break
            settled += 1
            region = FeasibleRegionSpec(
                cfg.region_half_width,
                np.delete(getattr(layout, side), n, axis=0), cfg.D_min)
            vals = self.rates(state, layout, ch, powers, side, n)
            vals[~is_feasible(self.points, region)] = -np.inf
            best = int(np.argmax(vals))
            bar = rate + GRID_MIN_GAIN * max(1.0, abs(rate))
            if not vals[best] > bar:
                continue
            cand = layout.copy()
            getattr(cand, side)[n] = self.points[best]
            cand_ch = build_channels(cand, self.rlz, cfg)
            cand_powers = fp.received_powers(state.W_t, state.W_r, state.p,
                                             cand_ch, cfg)
            cand_rate = fp.weighted_sum_rate(cand_powers, cfg)
            if cand_rate > bar:
                layout, ch, rate, powers = cand, cand_ch, cand_rate, cand_powers
                moves += 1
                settled = 1
        return layout, ch, rate, powers, moves
