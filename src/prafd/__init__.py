"""Joint antenna placement, beamforming, and power allocation for
full-duplex multi-user MIMO with position-reconfigurable antennas.

The solver alternates closed-form fractional-programming updates of the
transmit/receive beamformers and uplink powers with successive-surrogate
coordinate descent on the antenna positions inside a bounded square
region with minimum-spacing constraints.
"""

from .baselines import ALGORITHMS, run_algorithm
from .channel import build_channels, sample_realization, trial_rng
from .config import ConfigError, ScenarioConfig, load_config, validate_config
from .experiment import ExperimentSpec, emit_csv, run_experiment
from .solver import TrialResult, alternating_optimize, initialize_layout

__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "ExperimentSpec",
    "ScenarioConfig",
    "TrialResult",
    "alternating_optimize",
    "build_channels",
    "emit_csv",
    "initialize_layout",
    "load_config",
    "run_algorithm",
    "run_experiment",
    "sample_realization",
    "trial_rng",
    "validate_config",
]

__version__ = "0.1.0"
