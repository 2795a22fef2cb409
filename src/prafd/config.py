"""Scenario configuration: system sizes, propagation constants, solver knobs.

All internal quantities are linear (watts, meters, dimensionless gains).
dB / dBm values are accepted only at the config-file boundary through keys
with an explicit ``_db`` / ``_dbm`` suffix and are converted on load.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Fields that may be given in dB/dBm in a config file.  Maps suffixed key
# to (target field, converter).
_DB_KEYS = {
    "rho_0_db": ("rho_0", lambda v: 10.0 ** (v / 10.0)),
    "rho_SI_db": ("rho_SI", lambda v: 10.0 ** (v / 10.0)),
    "rho_IUI_db": ("rho_IUI", lambda v: 10.0 ** (v / 10.0)),
    "sigma2_dbm": ("sigma2", lambda v: 10.0 ** ((v - 30.0) / 10.0)),
    "p_D_max_dbm": ("p_D_max", lambda v: 10.0 ** ((v - 30.0) / 10.0)),
    "p_U_max_dbm": ("p_U_max", lambda v: 10.0 ** ((v - 30.0) / 10.0)),
}

_INT_FIELDS = {"K_D", "K_U", "N_t", "N_r", "L", "L_SI", "seed"}
_FLOAT_FIELDS = ("A", "D_min", "rho_0", "alpha", "rho_SI", "rho_IUI",
                 "sigma2", "p_D_max", "p_U_max", "d_near", "d_far",
                 "epsilon", "epsilon_bsum")


@dataclass
class ScenarioConfig:
    """Full description of one simulated deployment.

    Defaults reproduce the reference operating point: a 4+4-user
    full-duplex node with 4 transmit / 4 receive movable antennas in a
    4-wavelength square region at 30 GHz.
    """

    K_D: int = 4            # downlink users
    K_U: int = 4            # uplink users
    N_t: int = 4            # transmit antennas
    N_r: int = 4            # receive antennas
    A: float = 4.0          # region side length, in wavelengths
    D_min: float | None = None  # min antenna spacing [m]; default lambda/2
    L: int = 8              # propagation paths per user channel
    L_SI: int = 6           # propagation paths of the self-interference channel
    rho_0: float = 1e-4     # reference path gain at 1 m (-40 dB)
    alpha: float = 2.8      # path loss exponent
    rho_SI: float = 1e-9    # residual self-interference gain (-90 dB)
    rho_IUI: float = 1e-9   # uplink->downlink inter-user coupling gain (-90 dB)
    sigma2: float = 1e-12   # noise power [W] (-90 dBm), same at BS and users
    p_D_max: float = 10.0   # downlink power budget [W] (40 dBm)
    p_U_max: float = 0.01   # per-user uplink power budget [W] (10 dBm)
    f_c: float = 30e9       # carrier frequency [Hz]
    d_near: float = 20.0    # min user distance [m]
    d_far: float = 100.0    # max user distance [m]
    weights: np.ndarray | None = None  # rate weights, DL users then UL users
    epsilon: float = 1e-3       # outer-loop relative convergence threshold
    epsilon_bsum: float = 1e-3  # placement-sweep relative convergence threshold
    seed: int = 0

    def __post_init__(self):
        if self.D_min is None:
            # f_c is checked by validate_config; no default from a bad one.
            self.D_min = 0.5 * self.wavelength \
                if 0.0 < self.f_c < math.inf else math.nan
        if self.weights is None:
            k = self.K_D + self.K_U
            self.weights = np.full(k, 1.0 / k) if k else np.zeros(0)
        else:
            self.weights = np.asarray(self.weights, dtype=float)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    @property
    def kappa(self) -> float:
        """Wavenumber 2 pi / lambda, in rad/m."""
        return 2.0 * np.pi / self.wavelength

    @property
    def region_half_width(self) -> float:
        """Half the side of the antenna region, in meters."""
        return 0.5 * self.A * self.wavelength

    @property
    def K(self) -> int:
        return self.K_D + self.K_U

    def si_path_variance(self) -> float:
        return self.rho_SI / self.L_SI

    def replace(self, **kw) -> "ScenarioConfig":
        return dataclasses.replace(self, **kw)

    def downlink_only(self) -> "ScenarioConfig":
        """View with the uplink removed (used by half-duplex runs).

        Downlink weights are kept as-is rather than renormalized so the
        weighted downlink rate stays directly comparable.
        """
        return self.replace(K_U=0, weights=self.weights[: self.K_D].copy())


class ConfigError(ValueError):
    pass


def validate_config(cfg: ScenarioConfig) -> None:
    """Reject configs that are structurally unusable.

    Raises ConfigError with the offending field named.
    """
    if not 0.0 < cfg.f_c < math.inf:
        raise ConfigError("f_c must be positive and finite")
    for name in _FLOAT_FIELDS:
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    if cfg.K_D < 0 or cfg.K_U < 0 or cfg.K_D + cfg.K_U == 0:
        raise ConfigError("need at least one user (K_D + K_U >= 1)")
    if cfg.N_t < 1 or cfg.N_r < 1:
        raise ConfigError("N_t and N_r must be >= 1")
    if cfg.A <= 0:
        raise ConfigError("region side A must be positive")
    if cfg.D_min < 0:
        raise ConfigError("D_min must be non-negative")
    if cfg.L < 1 or cfg.L_SI < 1:
        raise ConfigError("path counts L, L_SI must be >= 1")
    for name in ("rho_0", "rho_SI", "rho_IUI"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be non-negative")
    for name in ("sigma2", "p_D_max", "p_U_max", "epsilon", "epsilon_bsum"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be strictly positive")
    if not (0 < cfg.d_near <= cfg.d_far):
        raise ConfigError("need 0 < d_near <= d_far")
    if cfg.alpha <= 0:
        raise ConfigError("alpha must be positive")
    w = np.asarray(cfg.weights, dtype=float)
    if w.shape != (cfg.K,):
        raise ConfigError(f"weights must have length K_D + K_U = {cfg.K}")
    if not np.all(np.isfinite(w)):
        raise ConfigError("weights must be finite")
    if np.any(w < 0):
        raise ConfigError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ConfigError("weights must sum to 1 within 1e-12")
    # Packing sanity: disjoint D_min/2 discs centered in the square must fit
    # inside the square grown by D_min/2 on each side.  Violating this area
    # bound makes any feasible layout impossible.
    side = cfg.A * cfg.wavelength
    cap = (side + cfg.D_min) ** 2
    for n, tag in ((cfg.N_t, "N_t"), (cfg.N_r, "N_r")):
        if n * math.pi * (cfg.D_min / 2.0) ** 2 > cap:
            raise ConfigError(
                f"{tag}={n} antennas with D_min={cfg.D_min:g} m cannot fit in a "
                f"{side:g} m square (disc packing bound)"
            )


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "weights":
        return np.array([float(x) for x in raw.replace(",", " ").split()])
    if key in _INT_FIELDS:
        return int(raw)
    return float(raw)


def parse_setting(key: str, raw: str):
    """Parse one textual ``key``/``value`` pair into (field name, value).

    Accepts the same dB/dBm suffixed aliases as config files.
    """
    if key in _DB_KEYS:
        target, conv = _DB_KEYS[key]
        return target, conv(float(raw))
    if key not in {f.name for f in dataclasses.fields(ScenarioConfig)}:
        raise ConfigError(f"unknown config key {key!r}")
    return key, _parse_value(key, raw)


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Read a flat ``key = value`` config file.

    Keys match ScenarioConfig field names; ``#`` starts a comment.  Gains and
    powers may instead be given through their ``_db`` / ``_dbm`` suffixed keys.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            try:
                target, val = parse_setting(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if target in values:
                raise ConfigError(f"{path}:{lineno}: {target} given twice")
            values[target] = val
    if overrides:
        values.update(overrides)
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg
