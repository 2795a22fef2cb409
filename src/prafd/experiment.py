"""Monte Carlo harness: paired trials, sweeps, robustness, CSV emission.

Every trial derives its random streams from (master seed, trial index,
stream id), so any trial can be reproduced in isolation and all algorithms
within a trial see the identical channel realization and initial layout
(paired comparisons).  Imperfect-CSI runs hand the solver a perturbed
realization while rates are always evaluated against the true one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import ALGORITHMS, fpas_layout, run_algorithm
from .channel import ChannelRealization, sample_realization, trial_rng
from .config import INT_FIELDS, ConfigError, ScenarioConfig, validate_config
from .solver import TrialResult, initialize_layout

# Stream ids for per-trial generators.
_STREAM_CHANNEL = 0
_STREAM_LAYOUT = 1
_STREAM_PERTURB = 2
_STREAM_SOLVER = 3

RAW_COLUMNS = ("algorithm", "sweep_field", "sweep_value", "trial", "rate",
               "dl_rates", "ul_rates", "outer_iterations", "bsum_sweeps",
               "converged", "failure", "wall_time_s")
AGG_COLUMNS = ("algorithm", "sweep_field", "sweep_value", "n_trials",
               "n_failed", "rate_mean", "rate_std", "rate_p10", "rate_p50",
               "rate_p90", "iters_mean", "iters_median", "sweeps_mean",
               "time_mean_s")


@dataclass
class ExperimentSpec:
    base: ScenarioConfig
    algorithms: tuple = ("fp-bsum", "fpas")
    trials: int = 200
    seed: int = 0
    sweep_field: str | None = None
    sweep_values: tuple = ()
    duplex_factor: float = 0.5
    threads: int = 1

    def __post_init__(self):
        validate_config(self.base)
        self.algorithms = tuple(self.algorithms)
        self.sweep_values = tuple(self.sweep_values)
        if not self.algorithms:
            raise ConfigError("--algos names no algorithm")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
            if self.algorithms.count(a) > 1:
                raise ConfigError(f"--algos names {a!r} twice")
        if self.sweep_field is None and self.sweep_values:
            raise ConfigError("--sweep lists values but names no field")
        if self.sweep_field is not None and not self.sweep_values:
            raise ConfigError("--sweep lists no values")
        for v in self.sweep_values:
            if self.sweep_values.count(v) > 1:
                raise ConfigError(f"--sweep lists {v:g} twice")
            if self.sweep_field in PERTURBATIONS and not 0.0 <= v < np.inf:
                raise ConfigError(f"{self.sweep_field} must be finite and "
                                  f"non-negative, got {v:g}")
            apply_sweep(self.base, self.sweep_field, v)
        if self.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {self.threads}")
        if not 0.0 < self.duplex_factor <= 1.0:
            raise ConfigError(f"duplex factor must be in (0, 1], "
                              f"got {self.duplex_factor:g}")

    def points(self) -> list:
        return list(self.sweep_values) if self.sweep_field else [float("nan")]


def perturb_angles(rlz: ChannelRealization, theta_m: float,
                   rng: np.random.Generator) -> ChannelRealization:
    """Additive U(-theta_m/2, theta_m/2) noise on every AoA/AoD, clipped.

    Path responses are untouched; theta_m = 0 returns an identical copy.
    """
    def noisy(a):
        return np.clip(a + rng.uniform(-theta_m / 2.0, theta_m / 2.0,
                                       size=a.shape), 0.0, np.pi)
    return replace(rlz,
                   dl_angles=noisy(rlz.dl_angles), ul_angles=noisy(rlz.ul_angles),
                   si_t_angles=noisy(rlz.si_t_angles),
                   si_r_angles=noisy(rlz.si_r_angles))


def perturb_prm(rlz: ChannelRealization, sigma_e2: float,
                rng: np.random.Generator) -> ChannelRealization:
    """Multiplicative-scale estimation error on every path response entry.

    Each entry h becomes h + |h| * sqrt(sigma_e2) * CN(0, 1), i.e. the error
    variance is proportional to the entry's own power.  Angles untouched.
    """
    def noisy(h):
        g = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) \
            / np.sqrt(2.0)
        return h + np.abs(h) * np.sqrt(sigma_e2) * g
    return replace(rlz, prm_dl=noisy(rlz.prm_dl), prm_ul=noisy(rlz.prm_ul),
                   sigma_si=noisy(rlz.sigma_si))


# Imperfect-CSI sweep fields (not config fields) and their perturbations.
PERTURBATIONS = {"theta_m": perturb_angles, "sigma_e2": perturb_prm}


def apply_sweep(cfg: ScenarioConfig, field_name: str | None,
                value) -> ScenarioConfig:
    """Config for one sweep point; perturbation fields leave it unchanged."""
    if field_name is None or field_name in PERTURBATIONS:
        return cfg
    if field_name != "N" and field_name not in {f.name for f in fields(cfg)}:
        # Every trial draws from the spec's seed, which is not swept.
        hint = "; run once per --seed instead" if field_name == "seed" else ""
        raise ConfigError(f"unknown sweep field {field_name!r}{hint}")
    if field_name == "N" or field_name in INT_FIELDS:
        if not float(value).is_integer():
            raise ConfigError(
                f"{field_name} takes integral values only, got {value!r}")
        value = int(value)
    if field_name == "N":
        out = cfg.replace(N_t=value, N_r=value)
    elif field_name in ("K_D", "K_U"):
        # Each point gets equal weights over its own user count, which
        # weights set by hand for the base count cannot follow.
        if not np.array_equal(cfg.weights, np.full(cfg.K, 1.0 / cfg.K)):
            raise ConfigError(
                f"a {field_name} sweep needs equal weights; weights were "
                f"set to {cfg.weights.tolist()}")
        out = cfg.replace(**{field_name: value}, weights=None)
    elif field_name in INT_FIELDS:
        out = cfg.replace(**{field_name: value})
    elif field_name == "f_c" and cfg.D_min == 0.5 * cfg.wavelength:
        # A D_min left at lambda/2 follows each point's own wavelength.
        out = cfg.replace(f_c=float(value), D_min=None)
    else:
        out = cfg.replace(**{field_name: float(value)})
    validate_config(out)
    return out


def run_trial(spec: ExperimentSpec, sweep_value, trial: int) -> list[TrialResult]:
    """All algorithms on one (sweep point, trial), on identical channels.

    fpas starts from `fpas_layout`, every other algorithm from the trial's
    random layout, drawn once on first need; a failed draw fails each of
    them.  A failed row keeps its algorithm's start, or None.
    """
    cfg = apply_sweep(spec.base, spec.sweep_field, sweep_value)
    rlz = sample_realization(cfg, trial_rng(spec.seed, trial, _STREAM_CHANNEL))
    solver_rlz, eval_rlz = rlz, None
    if spec.sweep_field in PERTURBATIONS:
        solver_rlz = PERTURBATIONS[spec.sweep_field](
            rlz, sweep_value, trial_rng(spec.seed, trial, _STREAM_PERTURB))
        eval_rlz = rlz
    drawn = None    # the trial's random layout, or the error of its draw
    out = []
    for algo in spec.algorithms:
        layout = None
        try:
            if algo == "fpas":
                layout = fpas_layout(cfg)
            else:
                if drawn is None:
                    try:
                        drawn = initialize_layout(cfg, trial_rng(
                            spec.seed, trial, _STREAM_LAYOUT))
                    except ConfigError as exc:
                        drawn = exc
                if isinstance(drawn, ConfigError):
                    raise drawn
                layout = drawn
            res = run_algorithm(
                algo, cfg, solver_rlz,
                trial_rng(spec.seed, trial, _STREAM_SOLVER), layout,
                eval_rlz=eval_rlz,
                duplex_factor=spec.duplex_factor)
        except Exception as exc:  # recorded, excluded from aggregates
            res = TrialResult(
                dl_rates=np.full(cfg.K_D, np.nan),
                ul_rates=np.full(cfg.K_U, np.nan), outer_iterations=0,
                bsum_sweeps=0, wall_time=0.0, layout=layout, trace=[],
                eval_trace=[], converged=False,
                sandwich_gap=float("nan"))
            res.failure = f"{type(exc).__name__}: {exc}"
        res.algorithm = algo
        res.sweep_value = sweep_value
        res.trial = trial
        out.append(res)
    return out


def run_experiment(spec: ExperimentSpec) -> list[TrialResult]:
    """Execute all (sweep point, trial) cells; deterministic result order."""
    tasks = [(v, t) for v in spec.points() for t in range(spec.trials)]
    if spec.threads > 1:
        # Here, so a one-process run never imports multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        points, trials = zip(*tasks)
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            chunks = list(pool.map(run_trial, [spec] * len(tasks), points,
                                   trials, chunksize=1))
    else:
        chunks = [run_trial(spec, v, t) for v, t in tasks]
    results = [r for chunk in chunks for r in chunk]
    order = {a: i for i, a in enumerate(spec.algorithms)}
    point_order = {repr(v): i for i, v in enumerate(spec.points())}
    results.sort(key=lambda r: (point_order[repr(r.sweep_value)],
                                order[r.algorithm], r.trial))
    return results


def _fmt(x) -> str:
    return repr(float(x))


def _join(vec) -> str:
    return ";".join(_fmt(v) for v in np.atleast_1d(vec)) if np.size(vec) else ""


def emit_csv(results: list[TrialResult], spec: ExperimentSpec,
             raw_path: str, agg_path: str) -> None:
    """Write per-trial rows and per-(algorithm, sweep point) aggregates.

    Schema v1; wall-time columns are last so byte-level comparisons can
    drop them.  Failed trials keep their row (rate empty, failure set) and
    are excluded from aggregate statistics.
    """
    sweep_name = spec.sweep_field or ""
    with open(raw_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RAW_COLUMNS)
        for r in results:
            failed = r.failure
            w.writerow([
                r.algorithm, sweep_name, _fmt(r.sweep_value), r.trial,
                "" if failed else _fmt(r.rate),
                "" if failed else _join(r.dl_rates),
                "" if failed else _join(r.ul_rates),
                r.outer_iterations, r.bsum_sweeps, int(r.converged),
                failed or "", _fmt(r.wall_time),
            ])
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(AGG_COLUMNS)
        for v in spec.points():
            for algo in spec.algorithms:
                cell = [r for r in results
                        if r.algorithm == algo and repr(r.sweep_value) == repr(v)]
                ok = [r for r in cell if not r.failure]
                n_failed = len(cell) - len(ok)
                if ok:
                    rates = np.array([r.rate for r in ok])
                    iters = np.array([r.outer_iterations for r in ok])
                    sweeps = np.array([r.bsum_sweeps for r in ok])
                    times = np.array([r.wall_time for r in ok])
                    stats = [rates.mean(), rates.std(),
                             np.percentile(rates, 10), np.percentile(rates, 50),
                             np.percentile(rates, 90), iters.mean(),
                             np.median(iters), sweeps.mean(), times.mean()]
                else:
                    stats = [float("nan")] * 9
                w.writerow([algo, sweep_name, _fmt(v), len(cell), n_failed]
                           + [_fmt(s) for s in stats])
