"""Antenna position optimization by block successive upper-bound descent.

With beamformers, powers and FP auxiliaries frozen, the (negated) surrogate
restricted to one side's antenna positions is a finite sum of terms
Re{c * exp(j u.t)} per antenna: every channel entry is a sum of unit-modulus
path phasors, and the objective is (at most) quadratic in channel entries,
so products of phasors just add their spatial frequencies.  That gives the
exact gradient and Hessian of the per-antenna objective in closed form.

Each antenna is then moved to a candidate projected onto the feasible
region, and only when that does not raise its objective.  The first
candidate is the Newton step of the antenna's own quadratic expansion, tried
when its Hessian is positive definite above the curvature floor; on an
ill-conditioned Hessian it follows the flat direction that an isotropic step
crawls along.  Then come the minimizers of the standard quadratic majorizer
built from the gradient and a curvature bound tau, tau doubling until the
projected step descends (the term-wise bound sum(|c|*||u||^2) majorizes the
Hessian everywhere, so finitely many doublings always restore descent).

Each quantity is built once at the level where it can change:

* per solve (`side_terms`, one per side that serves users): the side's
  paths, region and spacing, and from them every term's spatial
  frequency, squared norm and moments [u_x, u_y, u_x^2, u_x u_y, u_y^2]
  and the user path-pair products;
* per context (one side's placement call): its start positions and the
  SI mix, read off the state's channel record (`channel.Channels`), the
  mix's product M, conj(W) and its beam-weighted rows, the linear
  terms' factors G0 and own0, and one row of coefficients per antenna
  holding its user-pair and SI-pair terms with its pair cap, their share
  of the curvature cap; a context takes no exponential;
* per layout state: the channel fields H, D = W^H H and the SI matrix X
  with the phasors they contract (`layout_fields`, or `channel_fields`
  from the channel record), and from them, with no exponential, the
  joint gradient (`placement_gradient`) projected gradient descent
  reads per step.  A BSUM side call keeps a phasor table, every term's
  phasor at every antenna, and H, whose row an accepted move contracts
  again; D and X are contracted once, for the start's objective;
* per visit, with no field rebuild: the antenna's bundle is its context
  row with the linear terms written in from H, the SI phasors and the
  factors, evaluated once from its table row for its value, gradient and
  Hessian entries, which `newton_step`, `curvature_bound` and the ladder
  read; each candidate then costs one exponential and one product with
  the coefficients.

That step only looks near the current layout: the quadratic-transform
auxiliaries anchor the surrogate at the present channel, so one antenna's
best reachable |h| is barely above its current one.  `RateGrid` supplies the
global step.  With beamformers and powers fixed it evaluates the *true*
weighted sum-rate with one antenna at every point of a lambda/8 grid
anchored at the region centre (spacing discs masked out) and moves the
antenna to the best point when that raises the rate.  Grid phasors are
separable (x phasor times y phasor), and a move changes one row or column
of each channel, so every grid point costs a rank-1 update of the
beamformed products C, G and S rather than a channel rebuild.  The grid
reads only the solver state: positions and the other side's SI phasors
come from its channel record and the expansion from its received-power
record, and an accepted move, confirmed on the record moved one side
(`channel.move_side`), replaces both in the state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fp
from .channel import (ChannelRealization, Channels, move_side, side_phasors,
                      user_channel)
from .config import ScenarioConfig
from .fp import SolverState
from .geometry import FeasibleRegionSpec, is_feasible, nearest_feasible_point

TAU_MIN_FACTOR = 1e-6
MAX_TAU_DOUBLINGS = 20
MAX_BSUM_SWEEPS = 50
BSUM_EPSILON = 1e-3
GRID_STEP_WAVELENGTHS = 0.125
MAX_GRID_ROUNDS = 5
# Relative rate rise a grid move must beat: well above the rounding of a
# solve, so last-bit differences do not decide whether the grid block moves.
GRID_MIN_GAIN = 1e-9


def term_moments(dirs: np.ndarray) -> np.ndarray:
    """Moment table [u_x, u_y, u_x^2, u_x u_y, u_y^2] of every term, (M, 5)."""
    ux, uy = dirs[:, 0], dirs[:, 1]
    return np.column_stack([ux, uy, ux * ux, ux * uy, uy * uy])


class ExpSum:
    """f(t) = sum_m Re{coefs[m] * exp(j dirs[m].t)} with exact derivatives.

    Nothing is kept between points.  `evaluate` takes one point's phasors
    exp(j dirs.t), from `phasors(t)` or from a table the caller keeps, and
    returns the value, gradient and Hessian entries there as Python
    floats; `score` is the value alone.
    """

    def __init__(self, coefs: np.ndarray, dirs: np.ndarray,
                 moments: np.ndarray, cap: float):
        self.coefs = coefs      # (M,) complex
        self.dirs = dirs        # (M, 2), spatial frequencies (kappa absorbed)
        self.moments = moments  # (M, 5) `term_moments(dirs)`
        self._cap = cap         # sum |c| ||u||^2 over the terms

    def phasors(self, t: np.ndarray) -> np.ndarray:
        return np.exp(1j * (self.dirs @ t))

    def score(self, e: np.ndarray) -> float:
        """Value at the point whose phasors are e."""
        return float((self.coefs * e).real.sum())

    def evaluate(self, e: np.ndarray) -> tuple:
        """(value, (gx, gy), (hxx, hxy, hyy)) at the point whose phasors
        are e, from one product of w = coefs * e (a (2, M) real view) with
        the moment table: -Im(w)'s first and -Re(w)'s second moments."""
        w = self.coefs * e
        _, _, rxx, rxy, ryy, ix, iy, _, _, _ = \
            (w.view(float).reshape(-1, 2).T @ self.moments).ravel().tolist()
        return float(w.real.sum()), (-ix, -iy), (-rxx, -rxy, -ryy)

    def curvature_cap(self) -> float:
        """Global bound on the Hessian spectral norm: sum |c| ||u||^2."""
        return self._cap


@dataclass(frozen=True)
class SideTerms:
    """Everything a solve fixes for one side's placement.

    Built once per side that serves users (`side_terms`), shared by every
    context of the solve and oriented for the side: `user_*` are its
    users' paths, `si_dirs` its SI paths and `sigma_si` has its SI paths
    as columns.  Terms run user linear, SI linear, user pairs, SI pairs;
    `user_lin` and `si_lin` select the linear terms, whose phasors are the
    user and SI paths'.
    """

    side: str                  # "t" or "r", as `AntennaLayout` names the sides
    kappa: float
    half_width: float
    d_min: float
    user_dirs: np.ndarray      # (K, L, 2)
    user_prm: np.ndarray       # (K, L)
    si_dirs: np.ndarray        # (L_SI, 2)
    sigma_si: np.ndarray       # (L_SI other, L_SI)
    dirs: np.ndarray     # (M, 2) spatial frequencies of every term
    norm2: np.ndarray    # (M,) their squared norms
    moments: np.ndarray  # (M, 5) their `term_moments`
    pair: np.ndarray     # (K, L, L) user path-pair products
    user_lin: slice
    si_lin: slice


def side_terms(rlz: ChannelRealization, cfg: ScenarioConfig,
               side: str) -> SideTerms:
    """`SideTerms` of the transmit side "t" (users are downlink) or the
    receive side "r" (users are uplink)."""
    k = cfg.kappa
    if side == "t":
        user_dirs, prm, si_dirs = rlz.dl_dirs, rlz.prm_dl, rlz.si_t_dirs
        sigma = rlz.sigma_si
    else:
        user_dirs, prm, si_dirs = rlz.ul_dirs, rlz.prm_ul, rlz.si_r_dirs
        sigma = rlz.sigma_si.conj().T
    pair = prm[:, :, None] * prm.conj()[:, None, :]
    ddiff = k * (user_dirs[:, None, :, :] - user_dirs[:, :, None, :])
    sdiff = k * (si_dirs[None, :, :] - si_dirs[:, None, :])
    dirs = np.vstack([(-k * user_dirs).reshape(-1, 2), k * si_dirs,
                      ddiff.reshape(-1, 2), sdiff.reshape(-1, 2)])
    n_user, n_lin = prm.size, prm.size + len(si_dirs)
    return SideTerms(side=side, kappa=k,
                     half_width=cfg.region_half_width, d_min=cfg.D_min,
                     user_dirs=user_dirs, user_prm=prm, si_dirs=si_dirs,
                     sigma_si=sigma, dirs=dirs, norm2=(dirs ** 2).sum(axis=1),
                     moments=term_moments(dirs), pair=pair,
                     user_lin=slice(0, n_user), si_lin=slice(n_user, n_lin))


@dataclass
class SurrogateContext:
    """What one side's placement call needs.

    Valid while beamformers, powers, auxiliaries and the *other* side's
    positions stay fixed, i.e. for one side's whole BSUM run.  `ch` is the
    channel record the side starts from: its positions, the other side's
    SI phasors and GD's first fields (`channel_fields`) are read from it.
    Each side sees the self-interference matrix with its own antennas as
    columns: X = H_SI on the transmit side and X = H_SI^H on the receive
    side, so the SI term is tr(own X^H other X) on both.  What the solve
    fixes is read from `terms`; the rest is derived here, once, down to
    `rows`: row n holds antenna n's coefficients in term order, its
    user-pair and SI-pair blocks set and its linear blocks zero until
    `antenna_bundle` writes them into a copy.
    """

    lin: np.ndarray        # (K,) linear-term coefficients
    chan_w: np.ndarray     # (K,) weight of ||.||^2 per user channel
    beam_w: np.ndarray     # (K,) weight per beamformer column
    W: np.ndarray          # (N, K) this side's beamformer
    other: np.ndarray      # the other side's gram
    ch: Channels           # channels of the layout the side starts from
    terms: SideTerms
    surrogate: float       # bits, the state's; GD's stop scale
    # Derived in __post_init__:
    own: np.ndarray = field(init=False, repr=False)  # (N, N) gram W beam_w W^H
    positions: np.ndarray = field(init=False, repr=False)  # (N, 2) start
    si_mix: np.ndarray = field(init=False, repr=False)  # X = si_mix @ e^T
    Wc: np.ndarray = field(init=False, repr=False)     # conj(W)
    Wcb: np.ndarray = field(init=False, repr=False)    # beam_w * conj(W)
    M: np.ndarray = field(init=False, repr=False)      # si_mix^H other si_mix
    G0: np.ndarray = field(init=False, repr=False)     # 2 Wcb W^T, 0 diagonal
    own0: np.ndarray = field(init=False, repr=False)   # 2 own, 0 diagonal
    lin_w: np.ndarray = field(init=False, repr=False)  # 2 lin conj(W)
    rows: np.ndarray = field(init=False, repr=False)   # (N, M) coefficients
    pair_cap: np.ndarray = field(init=False, repr=False)  # rows' cap share

    def __post_init__(self):
        t = self.terms
        self.positions = getattr(self.ch.layout, t.side)
        other_si = self.ch.s_r if t.side == "t" else self.ch.s_t
        self.si_mix = other_si.conj() @ t.sigma_si
        self.own = (self.W * self.beam_w) @ self.W.conj().T
        self.Wc = self.W.conj()
        self.Wcb = self.beam_w * self.Wc
        self.M = self.si_mix.conj().T @ self.other @ self.si_mix
        gram = np.real(np.diag(self.own))
        n_ant = len(gram)
        twice_off = 2.0 - 2.0 * np.eye(n_ant)
        self.G0 = twice_off * (self.Wcb @ self.W.T)
        self.own0 = twice_off * self.own
        self.lin_w = 2.0 * (self.lin * self.Wc)
        omega = gram[:, None] * self.chan_w
        self.rows = np.zeros((n_ant, len(t.dirs)), dtype=complex)
        self.rows[:, t.si_lin.stop:] = np.hstack([
            (omega[:, :, None, None] * t.pair).reshape(n_ant, -1),
            (gram[:, None, None] * self.M).reshape(n_ant, -1)])
        self.pair_cap = np.abs(self.rows) @ t.norm2


def transmit_context(state: SolverState, terms: SideTerms) -> SurrogateContext:
    """Transmit-side context on the state's channels; `terms` are the
    solve's `side_terms(rlz, cfg, "t")`."""
    x = state.aux
    return SurrogateContext(lin=x.amp_dl * x.y_dl, chan_w=x.y2_dl,
                            beam_w=np.ones(len(x.y_dl)), W=state.W_t,
                            other=fp.receive_gram(state), ch=state.ch,
                            terms=terms, surrogate=state.surrogate)


def receive_context(state: SolverState, terms: SideTerms) -> SurrogateContext:
    """Receive-side context on the state's channels; `terms` are the
    solve's `side_terms(rlz, cfg, "r")`."""
    x = state.aux
    return SurrogateContext(lin=x.amp_ul * np.sqrt(state.p) * x.y_ul,
                            chan_w=state.p.astype(float), beam_w=x.y2_ul,
                            W=state.W_r, other=state.W_t @ state.W_t.conj().T,
                            ch=state.ch, terms=terms,
                            surrogate=state.surrogate)


def _fields(ctx: SurrogateContext, H: np.ndarray, user_e: np.ndarray,
            si_e: np.ndarray):
    """(H, D, X, user_e, si_e) from the user channel H (N, K) and every
    antenna's user-path phasors (N, K*L) and SI-path phasors (N, L_SI);
    the one contraction of D and X behind every field build."""
    return H, ctx.Wc.T @ H, ctx.si_mix @ si_e.T, user_e, si_e


def layout_fields(ctx: SurrogateContext, positions: np.ndarray):
    """Channel fields of one layout state: (H, D = W^H H, X) and the user
    and SI phasors they contract.

    D[b, c] = w_b^H h_c; X is this side's SI matrix.
    """
    t = ctx.terms
    user_e, si_e = side_phasors(positions, t.user_dirs, t.si_dirs, t.kappa)
    return _fields(ctx, user_channel(user_e, t.user_prm), user_e, si_e)


def channel_fields(ctx: SurrogateContext):
    """`layout_fields` of the layout `ctx.ch` holds, contracted from the
    record's user channel and phasors with no exponential; the same
    products of the same operands, so the two agree bit for bit."""
    ch = ctx.ch
    if ctx.terms.side == "t":
        return _fields(ctx, ch.H_D, ch.u_t, ch.s_t)
    return _fields(ctx, ch.H_U, ch.u_r, ch.s_r)


def placement_objective(ctx: SurrogateContext, fields: tuple) -> float:
    """Negated position-dependent surrogate part; BSUM minimizes this.

    `fields` are the `layout_fields` of the positions to score.
    """
    _, D, X, _, _ = fields
    t1 = -2.0 * float((ctx.lin @ D.diagonal()).real)
    t2 = float(ctx.beam_w @ (np.abs(D) ** 2) @ ctx.chan_w)
    t3 = float(np.vdot(X, ctx.other @ X @ ctx.own).real)
    return t1 + t2 + t3


def placement_gradient(ctx: SurrogateContext, fields: tuple) -> np.ndarray:
    """Gradient of `placement_objective` in every antenna's position, (N, 2).

    `fields` are the `layout_fields` of the positions, whose phasors it
    reads, so it takes no exponential.  With
    A = chan_w (conj(W) beam_w) conj(D) - lin conj(W) and Z = other X own,
    row n is 2 Re sum_c A[n, c] dH[n, c]/dt_n + 2 Re sum_i conj(Z[i, n])
    dX[i, n]/dt_n: one evaluation for the whole side, equal up to rounding
    to the stacked gradients of `antenna_bundle(ctx, H, si_e, n)` at
    `positions[n]`.
    """
    _, D, X, user_e, si_e = fields
    t = ctx.terms
    A = ctx.chan_w * (ctx.Wcb @ D.conj()) - ctx.lin * ctx.Wc
    # dH[n, c]/dt_n = sum_l prm[c, l] exp(-j k u_cl.t_n) (-j k u_cl).
    E = user_e.reshape((len(A),) + t.user_prm.shape)
    user = (A[:, :, None] * t.user_prm * E).reshape(len(A), -1)
    # dX[i, n]/dt_n = sum_l si_mix[i, l] exp(j k s_l.t_n) (j k s_l).
    Z = ctx.other @ X @ ctx.own
    si = (Z.conj().T @ ctx.si_mix) * si_e
    return (2.0 * t.kappa) * (user.imag @ t.user_dirs.reshape(-1, 2)
                              - si.imag @ t.si_dirs)


def antenna_bundle(ctx: SurrogateContext, H: np.ndarray, si_e: np.ndarray,
                   n: int) -> ExpSum:
    """Exact exponential-sum form of the objective in antenna n's position.

    The returned ExpSum differs from placement_objective by a constant
    (everything not involving antenna n), so values are only meaningful as
    differences; gradients and Hessians are exact.  `H` and `si_e` are the
    user channel and the SI phasors of the current positions.  The
    coefficients are a copy of the context's row n with the linear terms
    written in; its curvature cap adds theirs to the row's `pair_cap`.
    """
    t = ctx.terms
    # Channel terms: antenna n beats against the others' channels via G0.
    lin_coef = ctx.chan_w * (ctx.G0[n] @ H.conj()) - ctx.lin_w[n]
    coefs = ctx.rows[n].copy()
    coefs[t.user_lin] = (lin_coef[:, None] * t.user_prm).ravel()
    # Self-interference terms: the other antennas' SI phasors through M.
    coefs[t.si_lin] = (ctx.own0[:, n] @ si_e).conj() @ ctx.M
    lin = slice(t.si_lin.stop)     # the linear terms come first
    cap = ctx.pair_cap[n] + np.abs(coefs[lin]) @ t.norm2[lin]
    return ExpSum(coefs, t.dirs, t.moments, float(cap))


def curvature_bound(bundle: ExpSum, hess: tuple) -> float:
    """Majorizer curvature at a point: local Hessian top eigenvalue, floored.

    `hess` is the bundle's Hessian entries (xx, xy, yy) at the point.  The
    floor scales with the term-wise global curvature cap so it carries the
    right units (kappa^2 times coefficient magnitude).
    """
    hxx, hxy, hyy = hess
    lam = 0.5 * (hxx + hyy + math.hypot(hxx - hyy, 2.0 * hxy))
    return max(lam, TAU_MIN_FACTOR * bundle.curvature_cap())


def newton_step(bundle: ExpSum, grad: tuple, hess: tuple):
    """Newton step H^-1 (-g) of the bundle at a point, as (dx, dy), or None.

    `grad` and `hess` are the bundle's gradient g and Hessian entries H at
    the point; the bundle's curvature cap must be positive.  The step is
    given only when H's smallest eigenvalue is at least the floor
    `curvature_bound` applies, so that the model it minimizes is convex
    and the solve well posed.
    """
    (gx, gy), (hxx, hxy, hyy) = grad, hess
    # H / cap = [[a, b], [b, c]].  The cap bounds H's norm, so the scaled
    # entries are at most 1 and, above the floor, the determinant at least
    # TAU_MIN_FACTOR**2: it cannot underflow on a bundle of tiny
    # coefficients (a faded user's).
    cap = bundle.curvature_cap()
    a, b, c = hxx / cap, hxy / cap, hyy / cap
    if not 0.5 * (a + c - math.hypot(a - c, 2.0 * b)) >= TAU_MIN_FACTOR:
        return None
    det = a * c - b * b
    return (b * gy - c * gx) / cap / det, (b * gx - a * gy) / cap / det


def others_index(n_ant: int) -> np.ndarray:
    """(N, N - 1) array whose row n indexes the other antennas of a side."""
    return np.array([[m for m in range(n_ant) if m != n]
                     for n in range(n_ant)], dtype=np.intp)


def bsum_optimize_side(ctx: SurrogateContext, rng: np.random.Generator):
    """Sweep antennas in random order, each to its first descending step.

    Starts at the context's positions; stops after MAX_BSUM_SWEEPS sweeps,
    or once a sweep changes the objective by less than BSUM_EPSILON relative.
    Returns (positions, objective trace per sweep, sweeps used).  A visit
    projects its candidates in turn and moves the antenna to the first that
    does not raise its objective: the Newton step (`newton_step`) when the
    Hessian admits one, then the majorizer steps g / tau, tau starting at
    `curvature_bound` and doubling up to MAX_TAU_DOUBLINGS times.  When none
    is accepted the antenna stays put, so the trace is monotone
    non-increasing.

    The phasors of every term at every antenna are kept in one table.  A
    visit evaluates its bundle once, from the antenna's row, and takes one
    exponential per candidate; an accepted candidate's phasors replace the
    row and re-contract the antenna's row of the user channel H, which the
    bundles read.  A sweep's objective adds its moves' bundle decreases.
    """
    t = ctx.terms
    pos = np.array(ctx.positions, dtype=float, copy=True)
    others = others_index(len(pos))
    table = np.exp(1j * (pos @ t.dirs.T))
    user_e, si_e = table[:, t.user_lin], table[:, t.si_lin]
    H = user_channel(user_e, t.user_prm)
    f = placement_objective(ctx, _fields(ctx, H, user_e, si_e))
    trace = [f]
    for _ in range(MAX_BSUM_SWEEPS):
        f_new = f
        for n in rng.permutation(len(pos)):
            bundle = antenna_bundle(ctx, H, si_e, n)
            if bundle.curvature_cap() == 0.0:
                continue  # objective does not depend on this antenna
            f_here, grad, hess = bundle.evaluate(table[n])
            tau = curvature_bound(bundle, hess)
            newton = newton_step(bundle, grad, hess)
            # Steps are taken in Python floats, which round as numpy would,
            # and tau * 2**i is exact.
            (gx, gy), (x, y) = grad, pos[n].tolist()
            ladder = ((-gx / (tau * 2.0 ** i), -gy / (tau * 2.0 ** i))
                      for i in range(MAX_TAU_DOUBLINGS + 1))
            region = FeasibleRegionSpec(t.half_width, pos[others[n]], t.d_min)
            for dx, dy in itertools.chain(() if newton is None else (newton,),
                                          ladder):
                cand = nearest_feasible_point(np.array([x + dx, y + dy]),
                                              region)
                e = bundle.phasors(cand)
                f_cand = bundle.score(e)
                if f_cand <= f_here:
                    pos[n] = cand
                    table[n] = e
                    H[n] = user_channel(user_e[n], t.user_prm)
                    f_new += f_cand - f_here
                    break
        trace.append(f_new)
        if abs(f - f_new) / max(abs(f), 1e-12) < BSUM_EPSILON:
            break
        f = f_new
    return pos, trace, len(trace) - 1


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

    def rates(self, state: SolverState, side: str, n: int) -> np.ndarray:
        """Rate with antenna n of `side` ("t" or "r") at each grid point.

        The state's received-power record is expanded around its channels'
        layout, so no (points x users x users) array is formed; the spacing
        constraint is not applied here.
        """
        cfg, sigma_si = self.cfg, self.rlz.sigma_si
        W_t, W_r, p, ch = state.W_t, state.W_r, state.p, state.ch
        pw = state.powers
        s1, s2, C, G, S = pw.s1, pw.s2, pw.C, pw.G, pw.S
        sig1 = _abs2(C.diagonal())
        if side == "t":
            # Row n of H_D and column n of H_SI move: C += a w^T, S += d w^T.
            w = W_t[n]
            ww = _abs2(w).sum()
            a = (self.h_dl - ch.H_D[n]).conj()
            s1 = s1 + 2.0 * np.real(a * (C.conj() @ w)) + _abs2(a) * ww
            sig1 = _abs2(C.diagonal() + a * w)
            d = self.e_si_t @ (W_r.conj().T @ ch.s_r.conj() @ sigma_si).T \
                - W_r.conj().T @ ch.H_SI[:, n]
            s2 = s2 + 2.0 * np.real(d * (S.conj() @ w)) + _abs2(d) * ww
            sig2 = p * _abs2(G.diagonal())
        else:
            # Row n of H_U and of H_SI move: G += v b^T, S += v e^T.
            v = W_r[n].conj()
            vv = _abs2(v)
            b = self.h_ul - ch.H_U[n]
            e = self.e_si_r @ (sigma_si @ ch.s_t.T @ W_t) - ch.H_SI[n] @ W_t
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
        return fp.weighted_sum_rate(sinr, cfg)

    def place(self, state: SolverState) -> int:
        """Move antennas one at a time to their best feasible grid point.

        Grid points are masked by `is_feasible` against the side's other
        antennas in the state's layout.  Cycles through the transmit then
        the receive antennas and moves one only when its best grid point
        raises the true rate, confirmed by a full received-power pass on
        the channels of the move (`move_side`); an accepted move sets
        `state.ch` and `state.powers` to those channels and that pass,
        which scores the next visit.  The entry rate is scored from the
        state's record.  Stops once every antenna has been visited since
        the last move, so that no single grid move raises the rate, or
        after MAX_GRID_ROUNDS passes.  Sides without users are skipped.
        Returns the number of moves.
        """
        cfg = self.cfg
        rate = fp.weighted_sum_rate(fp.sinrs_of(state.powers), cfg)
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
            pos = getattr(state.ch.layout, side)
            region = FeasibleRegionSpec(
                cfg.region_half_width, np.delete(pos, n, axis=0), cfg.D_min)
            vals = self.rates(state, side, n)
            vals[~is_feasible(self.points, region)] = -np.inf
            best = int(np.argmax(vals))
            bar = rate + GRID_MIN_GAIN * max(1.0, abs(rate))
            if not vals[best] > bar:
                continue
            cand = pos.copy()
            cand[n] = self.points[best]
            cand_ch = move_side(state.ch, side, cand, self.rlz, cfg)
            cand_powers = fp.received_powers(state.W_t, state.W_r, state.p,
                                             cand_ch, cfg)
            cand_rate = fp.weighted_sum_rate(fp.sinrs_of(cand_powers), cfg)
            if cand_rate > bar:
                state.ch, state.powers, rate = cand_ch, cand_powers, cand_rate
                moves += 1
                settled = 1
        return moves
