"""Finite-scattering channel model with movable antennas.

Every channel is a sum over a small number of planar-wavefront paths.  An
antenna at position t inside the array region contributes a unit-modulus
phase factor exp(j*kappa*n.t) per path, where n is the path's unit direction
projected on the array plane and kappa = 2*pi/wavelength.  Moving antennas
only changes these phase factors; the per-path complex gains (the PRM
entries) stay fixed, which is what makes position optimization meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ScenarioConfig


def wave_vector(theta, phi) -> np.ndarray:
    """In-plane unit direction [sin(theta)cos(phi), cos(theta)] of a path.

    theta is elevation, phi azimuth; broadcasting over array inputs gives a
    trailing axis of length 2.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.sin(theta) * np.cos(phi), np.cos(theta)], axis=-1)


def field_response(positions: np.ndarray, dirs: np.ndarray, kappa: float) -> np.ndarray:
    """Phase matrix exp(j*kappa*<position, direction>), shape (M, L).

    positions: (M, 2) antenna coordinates [m]; dirs: (L, 2) path directions.
    """
    positions = np.atleast_2d(positions)
    return np.exp(1j * kappa * (positions @ dirs.T))


@dataclass
class AntennaLayout:
    """Transmit and receive antenna coordinates, each (N, 2) in meters."""

    t: np.ndarray
    r: np.ndarray

    def copy(self) -> "AntennaLayout":
        return AntennaLayout(self.t.copy(), self.r.copy())


@dataclass
class ChannelRealization:
    """One random draw of all path parameters (positions excluded).

    Angles are (theta, phi) pairs; *_dirs are the matching in-plane unit
    directions, recomputed whenever the instance is constructed so that
    angle perturbations stay consistent.
    """

    dl_angles: np.ndarray    # (K_D, L, 2)
    ul_angles: np.ndarray    # (K_U, L, 2)
    si_t_angles: np.ndarray  # (L_SI, 2) transmit-side departures
    si_r_angles: np.ndarray  # (L_SI, 2) receive-side arrivals
    dl_dist: np.ndarray      # (K_D,) user distances [m]
    ul_dist: np.ndarray      # (K_U,)
    prm_dl: np.ndarray       # (K_D, L) diagonal path responses
    prm_ul: np.ndarray       # (K_U, L)
    sigma_si: np.ndarray     # (L_SI, L_SI) full self-interference response
    h_iui: np.ndarray        # (K_D, K_U) uplink->downlink coupling

    def __post_init__(self):
        self.dl_dirs = wave_vector(self.dl_angles[..., 0], self.dl_angles[..., 1])
        self.ul_dirs = wave_vector(self.ul_angles[..., 0], self.ul_angles[..., 1])
        self.si_t_dirs = wave_vector(self.si_t_angles[..., 0], self.si_t_angles[..., 1])
        self.si_r_dirs = wave_vector(self.si_r_angles[..., 0], self.si_r_angles[..., 1])

    def downlink_only(self) -> "ChannelRealization":
        """View with no uplink users (used by half-duplex runs)."""
        l = self.dl_angles.shape[1]
        return replace(
            self,
            ul_angles=np.zeros((0, l, 2)), ul_dist=np.zeros(0),
            prm_ul=np.zeros((0, l), dtype=complex),
            h_iui=np.zeros((self.h_iui.shape[0], 0), dtype=complex),
        )


def _cn(rng: np.random.Generator, shape, var) -> np.ndarray:
    """Circularly-symmetric complex Gaussian with total variance `var`."""
    scale = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_realization(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Draw order is fixed (distances, angles, path responses, coupling) so a
    given generator state maps to exactly one realization.  User path
    responses have per-entry variance rho_0 * d^-alpha / L; the
    self-interference response uses rho_SI split across its own paths.
    """
    kd, ku, l, lsi = cfg.K_D, cfg.K_U, cfg.L, cfg.L_SI
    dl_dist = rng.uniform(cfg.d_near, cfg.d_far, size=kd)
    ul_dist = rng.uniform(cfg.d_near, cfg.d_far, size=ku)
    dl_angles = rng.uniform(0.0, np.pi, size=(kd, l, 2))
    ul_angles = rng.uniform(0.0, np.pi, size=(ku, l, 2))
    si_t_angles = rng.uniform(0.0, np.pi, size=(lsi, 2))
    si_r_angles = rng.uniform(0.0, np.pi, size=(lsi, 2))
    prm_dl = _cn(rng, (kd, l), (cfg.rho_0 * dl_dist**-cfg.alpha / l)[:, None])
    prm_ul = _cn(rng, (ku, l), (cfg.rho_0 * ul_dist**-cfg.alpha / l)[:, None])
    sigma_si = _cn(rng, (lsi, lsi), cfg.si_path_variance())
    h_iui = _cn(rng, (kd, ku), cfg.rho_IUI)
    return ChannelRealization(
        dl_angles=dl_angles, ul_angles=ul_angles,
        si_t_angles=si_t_angles, si_r_angles=si_r_angles,
        dl_dist=dl_dist, ul_dist=ul_dist,
        prm_dl=prm_dl, prm_ul=prm_ul, sigma_si=sigma_si, h_iui=h_iui,
    )


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, trial, stream), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, stream)))


def side_phasors(positions: np.ndarray, user_dirs: np.ndarray,
                 si_dirs: np.ndarray, kappa: float) -> tuple:
    """One side's user-path phasors exp(-j*kappa*n.pos), (N, K*L), and
    SI-path phasors exp(j*kappa*n.pos), (N, L_SI)."""
    return (field_response(positions, user_dirs.reshape(-1, 2), -kappa),
            field_response(positions, si_dirs, kappa))


def user_channel(e: np.ndarray, prm: np.ndarray) -> np.ndarray:
    """Stack per-user columns sum_l prm[u,l] * e[n, (u, l)]: one contraction
    builds the (N, K) matrix, or one antenna's row bit for bit."""
    return np.einsum("...kl,kl->...k", e.reshape(*e.shape[:-1], *prm.shape),
                     prm)


@dataclass
class Channels:
    """All four channel matrices for one layout, the layout, and the path
    phasors of each side they are contracted from.

    u_* are a side's user-path phasors (downlink paths on the transmit
    side, uplink paths on the receive side), s_* its SI-path phasors; they
    are the only place positions enter, so a record can be moved to a new
    layout of one side without touching the other (`move_side`).  Column
    k of H_D (H_U) is user k's channel; H_SI[i, j] =
    sum_{p,q} exp(-j*kappa*mu_p.r_i) Sigma[p,q] exp(j*kappa*nu_q.t_j)
    with receive arrivals mu and transmit departures nu.
    """

    H_D: np.ndarray   # (N_t, K_D)
    H_U: np.ndarray   # (N_r, K_U)
    H_SI: np.ndarray  # (N_r, N_t) s_r^* Sigma s_t^T
    H_IUI: np.ndarray  # (K_D, K_U)
    u_t: np.ndarray   # (N_t, K_D*L) exp(-j*kappa*n.t) per downlink path
    s_t: np.ndarray   # (N_t, L_SI) exp(j*kappa*nu.t) per SI departure
    u_r: np.ndarray   # (N_r, K_U*L) exp(-j*kappa*n.r) per uplink path
    s_r: np.ndarray   # (N_r, L_SI) exp(j*kappa*mu.r) per SI arrival
    layout: AntennaLayout  # where the phasors were taken; a solve's only copy


def build_channels(layout: AntennaLayout, rlz: ChannelRealization,
                   cfg: ScenarioConfig) -> Channels:
    """Channels of `layout`, which the record keeps (not a copy): each
    side's phasors taken once, every matrix contracted from them."""
    u_t, s_t = side_phasors(layout.t, rlz.dl_dirs, rlz.si_t_dirs, cfg.kappa)
    u_r, s_r = side_phasors(layout.r, rlz.ul_dirs, rlz.si_r_dirs, cfg.kappa)
    return Channels(H_D=user_channel(u_t, rlz.prm_dl),
                    H_U=user_channel(u_r, rlz.prm_ul),
                    H_SI=s_r.conj() @ rlz.sigma_si @ s_t.T, H_IUI=rlz.h_iui,
                    u_t=u_t, s_t=s_t, u_r=u_r, s_r=s_r, layout=layout)


def move_side(ch: Channels, side: str, positions: np.ndarray,
              rlz: ChannelRealization, cfg: ScenarioConfig) -> Channels:
    """`ch` with `side` ("t" or "r") moved to `positions`.

    Only the moved side's two phasor arrays are taken again; its user
    channel and H_SI are contracted as `build_channels` does, with the
    other side's phasors read from `ch`, so the result equals
    `build_channels` of the moved layout bit for bit, its layout holding
    `positions` (not a copy) for `side`.  `ch` is not modified.
    """
    if side == "t":
        u_t, s_t = side_phasors(positions, rlz.dl_dirs, rlz.si_t_dirs,
                                cfg.kappa)
        return replace(ch, H_D=user_channel(u_t, rlz.prm_dl),
                       H_SI=ch.s_r.conj() @ rlz.sigma_si @ s_t.T, u_t=u_t,
                       s_t=s_t, layout=replace(ch.layout, t=positions))
    u_r, s_r = side_phasors(positions, rlz.ul_dirs, rlz.si_r_dirs, cfg.kappa)
    return replace(ch, H_U=user_channel(u_r, rlz.prm_ul),
                   H_SI=s_r.conj() @ rlz.sigma_si @ ch.s_t.T,
                   u_r=u_r, s_r=s_r, layout=replace(ch.layout, r=positions))
