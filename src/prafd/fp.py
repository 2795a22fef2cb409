"""Weighted sum-rate objective and its fractional-programming surrogates.

The nonconvex weighted sum-rate is handled with two classic moves: a
Lagrangian dual transform introducing per-user auxiliaries gamma, then a
quadratic transform introducing complex auxiliaries y.  With (gamma, y)
jointly refreshed from the current transceiver state the surrogate touches
the true rate exactly; each block update afterwards can only push it up.

Rates are in bits (log2).  The surrogates are computed in nats and scaled
by 1/ln 2, which leaves every closed-form maximizer unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channels
from .config import ScenarioConfig

LN2 = float(np.log(2.0))


@dataclass
class SolverState:
    """Designed variables plus the FP auxiliaries.

    gamma and y are ordered downlink users first, then uplink users,
    matching the weight vector.
    """

    W_t: np.ndarray   # (N_t, K_D) transmit beamformers
    W_r: np.ndarray   # (N_r, K_U) receive beamformers
    p: np.ndarray     # (K_U,) uplink transmit powers
    gamma: np.ndarray  # (K,) dual-transform auxiliaries
    y: np.ndarray      # (K,) quadratic-transform auxiliaries


def received_powers(W_t, W_r, p, ch: Channels, cfg: ScenarioConfig):
    """Total received powers s1 (at DL users) and s2 (per RX beamformer).

    s1[k] includes every transmit beam (own signal counted), uplink leakage
    and noise; s2[u] includes every uplink user, residual self-interference
    after W_t/W_r, and filtered noise.  Also returns C[k,i] = h_D,k^H w_t,i,
    G[u,i] = w_r,u^H h_U,i and S = W_r^H H_SI W_t.
    """
    C = ch.H_D.conj().T @ W_t
    G = W_r.conj().T @ ch.H_U
    S = W_r.conj().T @ ch.H_SI @ W_t
    s1 = (np.abs(C) ** 2).sum(axis=1) + np.abs(ch.H_IUI) ** 2 @ p + cfg.sigma2
    wr_norm2 = (np.abs(W_r) ** 2).sum(axis=0)
    s2 = np.abs(G) ** 2 @ p + (np.abs(S) ** 2).sum(axis=1) + wr_norm2 * cfg.sigma2
    return s1, s2, C, G, S


def _sinrs(state: SolverState, ch: Channels, cfg: ScenarioConfig):
    """SINRs (DL then UL) and the received-power pass they came from."""
    W_r, p = state.W_r, state.p
    if W_r.shape[1] and np.any((np.abs(W_r) ** 2).sum(axis=0) == 0.0):
        raise ValueError("zero receive beamformer column")
    powers = received_powers(state.W_t, W_r, p, ch, cfg)
    s1, s2, C, G, _ = powers
    sig_dl = np.abs(np.diag(C)) ** 2
    sig_ul = p * np.abs(np.diag(G)) ** 2
    sinr = np.concatenate([sig_dl / (s1 - sig_dl), sig_ul / (s2 - sig_ul)])
    return sinr, powers


def all_sinrs(state: SolverState, ch: Channels, cfg: ScenarioConfig) -> np.ndarray:
    return _sinrs(state, ch, cfg)[0]


def rate_of_sinrs(sinr: np.ndarray, cfg: ScenarioConfig) -> float:
    """sum_i a_i log2(1 + SINR_i) for a DL-then-UL SINR vector."""
    return float(cfg.weights @ np.log2(1.0 + sinr))


def rate_and_powers(state: SolverState, ch: Channels, cfg: ScenarioConfig):
    """Weighted sum-rate and the received-power pass it came from."""
    sinr, powers = _sinrs(state, ch, cfg)
    return rate_of_sinrs(sinr, cfg), powers


def weighted_sum_rate(state: SolverState, ch: Channels, cfg: ScenarioConfig) -> float:
    """Objective: sum_i a_i log2(1 + SINR_i) over DL then UL users."""
    return rate_and_powers(state, ch, cfg)[0]


def per_user_rates(state: SolverState, ch: Channels, cfg: ScenarioConfig):
    g = all_sinrs(state, ch, cfg)
    rates = np.log2(1.0 + g)
    return rates[: cfg.K_D], rates[cfg.K_D:]


def amplitude(gamma: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """FP amplitudes sqrt(a_i (1 + gamma_i)) that scale each user's signal.

    Uplink users additionally carry sqrt(p_u) wherever their signal enters.
    """
    return np.sqrt(cfg.weights * (1.0 + gamma))


def receive_gram(state: SolverState, cfg: ScenarioConfig) -> np.ndarray:
    """Weighted receive gram W_r |Y_U|^2 W_r^H, shape (N_r, N_r)."""
    return (state.W_r * np.abs(state.y[cfg.K_D:]) ** 2) @ state.W_r.conj().T


def auxiliary_pass(state: SolverState, ch: Channels, cfg: ScenarioConfig):
    """One (gamma, y) refresh; returns the new pair without mutating state.

    gamma is the current SINR vector (the dual-transform optimizer) and y
    the quadratic-transform optimizer for that gamma, both from one
    received-power pass.  Jointly this never decreases the surrogate and
    lands it exactly on the weighted sum-rate.  (The gamma half alone,
    evaluated against a stale y, can transiently decrease it; only the pair
    is monotone.)  Uplink users with zero power get y = 0: their surrogate
    terms vanish identically.
    """
    kd = cfg.K_D
    gamma, (s1, s2, C, G, _) = _sinrs(state, ch, cfg)
    a = cfg.weights
    y_dl = amplitude(gamma, cfg)[:kd] * np.diag(C) / s1
    y_ul = np.sqrt(a[kd:] * state.p * (1.0 + gamma[kd:])) * np.diag(G).conj() / s2
    return gamma, np.concatenate([y_dl, y_ul])


def surrogate_objective(state: SolverState, ch: Channels,
                        cfg: ScenarioConfig) -> float:
    """Quadratic-transform surrogate at the state's own (gamma, y), in bits."""
    kd = cfg.K_D
    a = cfg.weights
    gamma, y = state.gamma, state.y
    s1, s2, C, G, _ = received_powers(state.W_t, state.W_r, state.p, ch, cfg)
    base = a @ (np.log(1.0 + gamma) - gamma)
    y_dl, y_ul = y[:kd], y[kd:]
    t1 = 2.0 * amplitude(gamma, cfg)[:kd] @ np.real(y_dl.conj() * np.diag(C)) \
        - (np.abs(y_dl) ** 2) @ s1
    # Uplink terms pair the *unconjugated* auxiliary with w_r^H h_U; this is
    # the pairing under which the closed-form y and W_r updates both hold.
    t2 = 2.0 * np.sqrt(a[kd:] * state.p * (1.0 + gamma[kd:])) \
        @ np.real(y_ul * np.diag(G)) - (np.abs(y_ul) ** 2) @ s2
    return float(base + t1 + t2) / LN2
