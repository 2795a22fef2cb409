"""The benchmark's workloads: one algorithm each, so that a gain for one
algorithm cannot hide a loss for another.

`round_trials` sets how many trials one `run_experiment` call (a round)
holds; it is sized so a round takes one to two seconds on a 2-core host,
which keeps the run-length overshoot small.  `rate_rounds` is the fixed
prefix of rounds over which `rate_mean` is taken, so that the rate is a
function of the seed alone and not of how many rounds fit in the time.
`bypassed` lists the traced spans that must record no call on the
workload; every other span must record at least one.  The one-line
reason for each workload is in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

_PLACEMENT = frozenset({"placement.side", "placement.antenna_bundle",
                        "placement.curvature_bound", "placement.objective",
                        "placement.context", "geometry.project"})


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    config: dict
    round_trials: int
    rate_rounds: int
    bypassed: frozenset


WORKLOADS = {w.name: w for w in (
    # Placement does about 72% of the work; 1-2% of projections walk.
    Workload(
        "desk-bsum", "fp-bsum", dict(K_D=2, K_U=2, N_t=2, N_r=2, A=4.0),
        round_trials=16, rate_rounds=12,
        bypassed=frozenset({"baselines.gd_side"})),
    # No placement: the bypass workload for every placement change.
    Workload(
        "defaults-fpas", "fpas", {},
        round_trials=48, rate_rounds=8,
        bypassed=_PLACEMENT | {"baselines.gd_side"}),
    # Each round is a prefix of the same defaults-fpas round, so trials share
    # inputs; placement is reached through baselines.
    Workload(
        "defaults-gd", "fp-gd", {},
        round_trials=16, rate_rounds=8,
        bypassed=frozenset({"placement.side", "placement.curvature_bound"})),
)}
