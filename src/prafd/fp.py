"""Weighted sum-rate objective and its fractional-programming surrogates.

The nonconvex weighted sum-rate is handled with two classic moves: a
Lagrangian dual transform introducing per-user auxiliaries gamma, then a
quadratic transform introducing complex auxiliaries y.  With (gamma, y)
jointly refreshed from the current transceiver state the surrogate touches
the true rate exactly; each block update afterwards can only push it up.

Rates are in bits (log2).  The surrogates are computed in nats and scaled
by 1/ln 2, which leaves every closed-form maximizer unchanged.

The rate is scored from an SINR vector, and the auxiliary pass and the
surrogate from a `ReceivedPowers` record, making no pass of their own: a
full pass happens only where `received_powers` is called.  A solve keeps
one record in its state (`SolverState.powers`) and updates it per block.

(gamma, y) and every coefficient the blocks read from them live in one
immutable `Auxiliaries` record, made only by `auxiliaries`: each auxiliary
pass forms gamma and y from its received-power record and derives the rest
once, and the surrogate, the closed-form blocks and the placement contexts
read them from the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Channels
from .config import ScenarioConfig

LN2 = float(np.log(2.0))


class Auxiliaries(NamedTuple):
    """The FP auxiliaries (gamma, y) and every coefficient derived from them.

    gamma and y are ordered downlink users first, then uplink users,
    matching the weight vector.  Only `auxiliaries` builds one.
    """

    gamma: np.ndarray    # (K,) dual-transform auxiliaries
    y: np.ndarray        # (K,) quadratic-transform auxiliaries
    base: float          # a . (log(1 + gamma) - gamma)
    amp_dl: np.ndarray   # amplitude sqrt(a (1 + gamma)), downlink users
    amp_ul: np.ndarray   # the same, uplink users
    lift_ul: np.ndarray  # 1 + gamma, uplink users
    y_dl: np.ndarray     # y, downlink users
    y_ul: np.ndarray     # y, uplink users
    y2_dl: np.ndarray    # |y|^2, downlink users
    y2_ul: np.ndarray    # |y|^2, uplink users


@dataclass
class SolverState:
    """Designed variables, their channels and received-power record, from
    which every block reads, and the FP auxiliaries they are scored
    against; a new pass replaces `aux` whole."""

    W_t: np.ndarray           # (N_t, K_D) transmit beamformers
    W_r: np.ndarray           # (N_r, K_U) receive beamformers
    p: np.ndarray             # (K_U,) uplink transmit powers
    ch: Channels              # channels of the current layout
    powers: ReceivedPowers    # the pass of (W_t, W_r, p) on `ch`
    aux: Auxiliaries


class ReceivedPowers:
    """One received-power pass of (W_t, W_r, p) on one set of channels.

    s1[k] is the total power at downlink user k: every transmit beam (its
    own counted), uplink leakage and noise.  s2[u] is the total power after
    receive beamformer u: every uplink user, residual self-interference
    after W_t/W_r, and filtered noise.  The record also keeps the factors
    they are summed from, so that after a block changes one variable the
    record is brought up to date by recomputing only what that variable
    enters.  S = W_r^H H_SI W_t is kept as V @ W_t with the factor
    V = W_r^H H_SI, which the transmit block also reads; V depends on W_r
    and on both sides' antennas, not on W_t.

    * `transmit_beams_changed` (W_t alone, the antennas where they were):
      C and S;
    * `transmit_changed` (W_t, or the transmit antennas): C, V and S;
    * `receive_changed` (W_r, or the receive antennas): G, V, S, the
      receive column norms and |G|^2 p;
    * `power_changed` (p): only the p-weighted sums |H_IUI|^2 p and
      |G|^2 p, from the cached squares.

    Each reads the new variables and channels from the state (`state.ch`)
    and updates the record in place, re-adding s1 and s2 from the kept
    parts.  H_IUI couples users only, so no block changes |H_IUI|^2.
    Every factor is the numpy expression of a full pass on the same
    operands, so an updated record equals a fresh pass bit for bit.
    """

    sigma2: float
    iui2: np.ndarray      # |H_IUI|^2
    p: np.ndarray         # the uplink powers s1 and s2 are taken at
    C: np.ndarray         # (K_D, K_D) C[k, i] = h_D,k^H w_t,i
    G: np.ndarray         # (K_U, K_U) G[u, i] = w_r,u^H h_U,i
    V: np.ndarray         # (K_U, N_t) W_r^H H_SI
    S: np.ndarray         # (K_U, K_D) V @ W_t
    c_rows: np.ndarray    # row sums of |C|^2
    g2: np.ndarray        # |G|^2
    iui_p: np.ndarray     # |H_IUI|^2 p, uplink leakage at each downlink user
    g_p: np.ndarray       # |G|^2 p, uplink power after each receive beam
    s_rows: np.ndarray    # row sums of |S|^2
    wr_norm2: np.ndarray  # squared column norms of W_r
    noise: np.ndarray     # wr_norm2 * sigma2
    s1: np.ndarray        # (K_D,)
    s2: np.ndarray        # (K_U,)

    def __init__(self, W_t, W_r, p, ch: Channels, sigma2: float):
        self.sigma2 = sigma2
        self.iui2 = np.abs(ch.H_IUI) ** 2
        self.p = p
        self.iui_p = self.iui2 @ p
        self._downlink(W_t, ch)
        self._uplink(W_r, ch)
        self._si(W_t)
        self._totals()

    def transmit_beams_changed(self, state: SolverState) -> None:
        self._downlink(state.W_t, state.ch)
        self._si(state.W_t)
        self._totals()

    def transmit_changed(self, state: SolverState) -> None:
        self.V = state.W_r.conj().T @ state.ch.H_SI
        self.transmit_beams_changed(state)

    def receive_changed(self, state: SolverState) -> None:
        self._uplink(state.W_r, state.ch)
        self._si(state.W_t)
        self._totals()

    def power_changed(self, state: SolverState) -> None:
        self.p = state.p
        self.iui_p = self.iui2 @ self.p
        self.g_p = self.g2 @ self.p
        self._totals()

    def _downlink(self, W_t, ch: Channels) -> None:
        self.C = ch.H_D.conj().T @ W_t
        self.c_rows = (np.abs(self.C) ** 2).sum(axis=1)

    def _uplink(self, W_r, ch: Channels) -> None:
        W_rh = W_r.conj().T
        self.G = W_rh @ ch.H_U
        self.g2 = np.abs(self.G) ** 2
        self.g_p = self.g2 @ self.p
        self.wr_norm2 = (np.abs(W_r) ** 2).sum(axis=0)
        self.noise = self.wr_norm2 * self.sigma2
        self.V = W_rh @ ch.H_SI

    def _si(self, W_t) -> None:
        self.S = self.V @ W_t
        self.s_rows = (np.abs(self.S) ** 2).sum(axis=1)

    def _totals(self) -> None:
        self.s1 = self.c_rows + self.iui_p + self.sigma2
        self.s2 = self.g_p + self.s_rows + self.noise


def received_powers(W_t, W_r, p, ch: Channels,
                    cfg: ScenarioConfig) -> ReceivedPowers:
    """A full received-power pass: every factor computed afresh."""
    return ReceivedPowers(W_t, W_r, p, ch, cfg.sigma2)


def sinrs_of(powers: ReceivedPowers) -> np.ndarray:
    """SINRs, DL then UL, of one received-power pass."""
    if (powers.wr_norm2 == 0.0).any():
        raise ValueError("zero receive beamformer column")
    sig_dl = np.abs(powers.C.diagonal()) ** 2
    sig_ul = powers.p * np.abs(powers.G.diagonal()) ** 2
    return np.concatenate([sig_dl / (powers.s1 - sig_dl),
                           sig_ul / (powers.s2 - sig_ul)])


def weighted_sum_rate(sinr: np.ndarray, cfg: ScenarioConfig):
    """Objective: sum_i a_i log2(1 + SINR_i) of a DL-then-UL SINR vector.

    A vector gives a float; a stack of vectors (users last) gives one rate
    per vector.
    """
    rate = np.log2(1.0 + sinr) @ cfg.weights
    return rate if np.ndim(rate) else float(rate)


def auxiliaries(gamma: np.ndarray, y: np.ndarray, lift: np.ndarray,
                amp: np.ndarray, cfg: ScenarioConfig) -> Auxiliaries:
    """The record of (gamma, y): the one place its coefficients are derived.

    The blocks read the amplitudes, |y|^2 and the slices from the record,
    so each is derived once per pass.  `lift` = 1 + gamma and `amp` =
    sqrt(a lift) come from the caller, which formed them to build y.
    """
    kd = cfg.K_D
    a = cfg.weights
    y_dl, y_ul = y[:kd], y[kd:]
    return Auxiliaries(
        gamma=gamma, y=y, base=a @ (np.log(lift) - gamma),
        amp_dl=amp[:kd], amp_ul=amp[kd:], lift_ul=lift[kd:],
        y_dl=y_dl, y_ul=y_ul, y2_dl=np.abs(y_dl) ** 2,
        y2_ul=np.abs(y_ul) ** 2)


def receive_gram(state: SolverState) -> np.ndarray:
    """Weighted receive gram W_r |Y_U|^2 W_r^H, shape (N_r, N_r)."""
    return (state.W_r * state.aux.y2_ul) @ state.W_r.conj().T


def auxiliary_pass(powers: ReceivedPowers, cfg: ScenarioConfig) -> Auxiliaries:
    """One (gamma, y) refresh from the received-power pass `powers`.

    gamma is the SINR vector of the pass (the dual-transform optimizer) and
    y the quadratic-transform optimizer for that gamma on the same pass.
    Jointly this never decreases the surrogate and lands it exactly on the
    weighted sum-rate.  (The gamma half alone, evaluated against a stale y,
    can transiently decrease it; only the pair is monotone.)  Uplink users
    with zero power get y = 0: their surrogate terms vanish identically.
    """
    kd = cfg.K_D
    a = cfg.weights
    gamma = sinrs_of(powers)
    lift = 1.0 + gamma
    amp = np.sqrt(a * lift)
    y = np.concatenate([
        amp[:kd] * powers.C.diagonal() / powers.s1,
        np.sqrt(a[kd:] * powers.p * lift[kd:])
        * powers.G.diagonal().conj() / powers.s2])
    return auxiliaries(gamma, y, lift, amp, cfg)


def surrogate_objective(state: SolverState, cfg: ScenarioConfig) -> float:
    """Quadratic-transform surrogate at the state's own auxiliaries, in bits,
    read from the state's received-power record.

    Summed user by user in Python floats, which for a handful of users is
    about half the cost of the numpy expression the tests keep as its
    reference and agrees with it to rounding; the value feeds only the
    monitor.
    """
    x, powers = state.aux, state.powers
    total = float(x.base)
    for amp, y, y2, c, s1 in zip(x.amp_dl.tolist(), x.y_dl.tolist(),
                                 x.y2_dl.tolist(), powers.C.diagonal().tolist(),
                                 powers.s1.tolist()):
        total += 2.0 * amp * (y.conjugate() * c).real - y2 * s1
    # Uplink terms pair the *unconjugated* auxiliary with w_r^H h_U; this is
    # the pairing under which the closed-form y and W_r updates both hold.
    for a, p, lift, y, y2, g, s2 in zip(
            cfg.weights[cfg.K_D:].tolist(), state.p.tolist(),
            x.lift_ul.tolist(), x.y_ul.tolist(), x.y2_ul.tolist(),
            powers.G.diagonal().tolist(), powers.s2.tolist()):
        total += 2.0 * math.sqrt(a * p * lift) * (y * g).real - y2 * s2
    return total / LN2
