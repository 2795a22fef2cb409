"""prafd benchmark: seeded Monte Carlo rounds through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-bsum --seed 1 --seconds 32 --trace 0

The program is imported from `src/` next to this directory, in this one
process, with `threads=1` and BLAS pinned to one thread.  A round is one
`run_experiment` plus `emit_csv` call on `round_trials` trials; round r of
seed s uses master seed s * 100000 + r, so the seed fixes every input.

`--trace 0` times rounds for `--seconds` and reports the end-to-end
metrics; trial and round times are normalised to a reference host speed
with the kernel in `yardstick.py`.  `--trace 1` repeats round 0,
alternating untraced and traced passes, and reports the per-layer
metrics of the traced passes.  Both check every trial (no failure,
feasible layouts, sandwich gap, monotone rate trace) and that a repeated
round writes the same raw CSV once `wall_time_s` is stripped.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy loads: one BLAS thread, so timings do not depend on the
# host's core count and the process matches `threads=1`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import yardstick  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / ".out"

SETUP_PROBES = 15
GAP_LIMIT = 1e-9


def load_prafd():
    """Import the program from this checkout's `src/`, never from elsewhere."""
    pkg = SRC / "prafd"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import prafd
    if Path(prafd.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported prafd from {prafd.__file__}, not {pkg}")
    return prafd


def round_spec(prafd, workload, seed: int, r: int):
    return prafd.ExperimentSpec(
        base=prafd.ScenarioConfig(**workload.config),
        algorithms=(workload.algorithm,), trials=workload.round_trials,
        seed=seed * 100_000 + r, threads=1)


def rate_digest(raw_path: Path) -> str:
    """sha256 of the raw CSV with its last column, wall_time_s, removed."""
    lines = raw_path.read_text(encoding="utf-8").splitlines()
    body = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return hashlib.sha256(body.encode()).hexdigest()


def trial_faults(res, cfg, layout_side_feasible) -> list:
    """The correctness gate for one trial; empty when it passes."""
    if res.failure:
        return [res.failure]
    faults = []
    hw, d_min = cfg.region_half_width, cfg.D_min
    if not (layout_side_feasible(res.layout.t, hw, d_min)
            and layout_side_feasible(res.layout.r, hw, d_min)):
        faults.append("infeasible final layout")
    if not res.sandwich_gap <= GAP_LIMIT:
        faults.append(f"sandwich gap {res.sandwich_gap!r}")
    trace = np.asarray(res.trace)
    tol = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
    if np.any(np.diff(trace) < -tol):
        faults.append("rate trace decreased")
    return faults


class Bench:
    """One workload and seed: runs rounds, checks them, keeps the tallies."""

    def __init__(self, prafd, workload, seed: int):
        from prafd import experiment, geometry
        self.prafd, self.workload, self.seed = prafd, workload, seed
        self.experiment = experiment
        self.feasible = geometry.layout_side_feasible
        self.raw = OUT_DIR / f"raw-{os.getpid()}.csv"
        self.agg = OUT_DIR / f"agg-{os.getpid()}.csv"
        self.attempted = 0
        self.failed_trials = set()
        self.faults = []
        self.digests = {}   # round -> rate digest of its first run

    def run_round(self, r: int, tracer: Tracer | None = None):
        """Run round r; return (results, seconds for run_experiment+emit_csv)."""
        spec = round_spec(self.prafd, self.workload, self.seed, r)
        span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
        t0 = time.perf_counter()
        with span("bench.round"):
            with span("experiment.run"):
                results = self.experiment.run_experiment(spec)
            with span("experiment.emit_csv"):
                self.experiment.emit_csv(results, spec, str(self.raw),
                                         str(self.agg))
        elapsed = time.perf_counter() - t0
        self.check(r, results, spec.base)
        return results, elapsed

    def check(self, r: int, results, cfg) -> None:
        self.attempted += len(results)
        for res in results:
            for fault in trial_faults(res, cfg, self.feasible):
                self.failed_trials.add((r, res.trial))
                self.faults.append(f"round {r} trial {res.trial}: {fault}")
        digest = rate_digest(self.raw)
        first = self.digests.setdefault(r, digest)
        if digest != first:
            self.faults.append(f"round {r}: rate digest changed on a rerun")

    @contextlib.contextmanager
    def trial_timer(self, times: list, refs: list):
        """Record the wall time of each experiment.run_trial call, and the
        reference kernel's time just before it."""
        exp = self.experiment
        inner = exp.run_trial

        def timed(*args, **kwargs):
            refs.append(yardstick.sample())
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            times.append(time.perf_counter() - t0)
            return out
        exp.run_trial = timed
        try:
            yield
        finally:
            exp.run_trial = inner


def measure_setup(workload: str, seed: int) -> float:
    """Median, over fresh processes, of process start to first trial.

    This stays a wall time: the reference kernel does not track process
    start-up, which is mostly loading and page faults.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--setup-probe", repr(t0)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def untraced_run(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics from rounds timed for `seconds`.

    Rounds past the time limit still run, untimed for throughput, until
    the first `rate_rounds` are done: the rate is then taken over a set
    fixed by the seed, and the trial-time percentiles always have at
    least rate_rounds * round_trials samples.

    Every timing is normalised to the reference host speed: trial i's
    wall time is scaled by NOMINAL_S over the mean of the reference
    kernel's times just before trial i and just before the next trial.
    A round's time outside its trials is scaled by its trials' factor.
    """
    w = bench.workload
    yardstick.warm()
    bench.run_round(0)                      # warm-up; digest reference
    times, refs, rates, n_trials = [], [], [], 0
    rounds = []     # (elapsed, first trial index, end trial index)
    start = time.perf_counter()
    r = 0
    with bench.trial_timer(times, refs):
        while r == 0 or time.perf_counter() - start < seconds:
            i0 = len(times)
            results, elapsed = bench.run_round(r)
            rounds.append((elapsed, i0, len(times)))
            rates += [res.rate for res in results]
            n_trials += len(results)
            r += 1
        timed_rounds = r
        for r in range(r, w.rate_rounds):
            rates += [res.rate for res in bench.run_round(r)[0]]
    refs.append(yardstick.sample())
    wall, ref = np.array(times), np.array(refs)
    norm = wall * yardstick.NOMINAL_S / (0.5 * (ref[:-1] + ref[1:]))
    busy = busy_wall = 0.0
    for elapsed, i0, i1 in rounds:
        # The reference samples ran inside the round; they are not its work.
        work = elapsed - ref[i0:i1].sum()
        busy += work * norm[i0:i1].sum() / wall[i0:i1].sum()
        busy_wall += work
    ms, wall_ms = norm * 1e3, wall * 1e3
    print(f"# timed rounds {timed_rounds}, trials {n_trials}, busy "
          f"{busy_wall:.3f} s wall; trial-time samples {len(ms)}")
    print(f"# reference kernel: median {np.median(ref) * 1e3:.3f} ms, "
          f"range {ref.min() * 1e3:.3f}-{ref.max() * 1e3:.3f} ms; nominal "
          f"{yardstick.NOMINAL_S * 1e3:.3f} ms")
    print(f"# wall clock: trials_per_s {n_trials / busy_wall:.4f}, "
          f"trial_ms_p50 {np.percentile(wall_ms, 50):.4f}, "
          f"trial_ms_p90 {np.percentile(wall_ms, 90):.4f}")
    return {
        "trials_per_s": (n_trials / busy, "1/s"),
        "trial_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "trial_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "rate_mean": (float(np.nanmean(rates[:w.rate_rounds * w.round_trials])),
                      "bit/s/Hz"),
    }


def layer_metrics(tracer: Tracer, results, n_trials: int) -> dict:
    """Per-layer metrics of one traced pass over round 0."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    def stat(name, key):
        n, incl, own = tot.get(name, (0, 0.0, 0.0))
        return {"calls": n / n_trials, "ms": incl * 1e3 / n_trials,
                "self_ms": own * 1e3 / n_trials,
                "us_per_call": ratio(incl * 1e6, n)}[key]

    out = {f"{name}.{key}": stat(name, key) for name, keys in (
        ("placement.side", ("calls", "ms", "self_ms")),
        ("placement.antenna_bundle", ("calls", "ms", "us_per_call")),
        ("placement.curvature_bound", ("calls", "ms")),
        ("placement.objective", ("calls", "ms")),
        ("placement.context", ("ms",)),
        ("geometry.project", ("calls", "ms", "us_per_call")),
        ("beamforming.transmit", ("calls", "ms", "us_per_call")),
        ("beamforming.receive", ("calls", "ms")),
        ("beamforming.power", ("calls", "ms")),
        ("fp.auxiliary_pass", ("calls", "ms")),
        ("fp.surrogate_objective", ("calls", "ms")),
        ("fp.weighted_sum_rate", ("calls", "ms")),
        ("baselines.gd_side", ("calls", "ms", "self_ms")),
        ("channel.sample_realization", ("calls", "ms")),
        ("channel.build_channels", ("calls", "ms"))) for key in keys}
    c = tracer.counts
    iters = [res.outer_iterations for res in results]
    out["placement.sweeps_mean"] = ratio(c["sweeps"], calls("placement.side"))
    out["placement.projections_per_visit"] = ratio(
        tracer.count_under("geometry.project", "placement.side"),
        tracer.count_under("placement.antenna_bundle", "placement.side"))
    out["geometry.walk_frac"] = ratio(c["walks"], calls("geometry.project"))
    out["beamforming.qp_iters_mean"] = ratio(
        c["qp_iters"], calls("beamforming.transmit_qp"))
    out["solver.outer_iters_p50"] = float(np.median(iters))
    out["solver.outer_iters_mean"] = float(np.mean(iters))
    out["solver.converged_frac"] = float(np.mean([res.converged
                                                  for res in results]))
    out["solver.self_ms"] = stat("solver.optimize", "self_ms")
    out["baselines.gd_steps_mean"] = ratio(c["gd_steps"],
                                           calls("baselines.gd_side"))
    out["experiment.overhead_ms"] = (stat("experiment.run", "ms")
                                     - stat("experiment.trial", "ms"))
    out["experiment.emit_csv_ms"] = stat("experiment.emit_csv", "ms")
    return out


# Metrics that are exact counts: equal on every traced pass of one seed.
EXACT_SUFFIXES = (".calls", "_mean", "_p50", "_frac", "_per_visit")


def traced_run(bench: Bench, seconds: float) -> dict:
    w = bench.workload
    bench.run_round(0)                      # warm-up; digest reference
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if len(plain) % 2 == 0
                           else (True, False)):
            if not with_trace:
                plain.append(bench.run_round(0)[1])
                continue
            tracer = Tracer()
            with tracer.installed("prafd"):
                results, elapsed = bench.run_round(0, tracer)
            traced.append(elapsed)
            passes.append(layer_metrics(tracer, results, len(results)))
            check_trace(bench, tracer, elapsed)

    first = passes[0]
    for p in passes[1:]:
        for key, value in p.items():
            if key.endswith(EXACT_SUFFIXES) and value != first[key]:
                bench.faults.append(f"traced: count {key} differs between passes")
    out = {key: (first[key] if key.endswith(EXACT_SUFFIXES)
                 else statistics.median(p[key] for p in passes))
           for key in first}
    t_plain, t_traced = statistics.median(plain), statistics.median(traced)
    out["trace.trials_per_s"] = w.round_trials / t_traced
    out["trace.untraced_trials_per_s"] = w.round_trials / t_plain
    out["trace.overhead_frac"] = t_traced / t_plain - 1.0
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced")
    return out


def check_trace(bench: Bench, tracer: Tracer, elapsed: float) -> None:
    """Blind-spot check and self-time coverage for one traced pass."""
    tot = tracer.totals()
    for name in SPAN_NAMES:
        n = tot.get(name, (0,))[0]
        if name in bench.workload.bypassed and n:
            bench.faults.append(f"traced: {name} ran {n} times on a bypass")
        elif name not in bench.workload.bypassed and not n:
            bench.faults.append(f"traced: {name} recorded no call")
    self_sum = sum(v[2] for v in tot.values())
    if abs(self_sum / elapsed - 1.0) > 1e-3:
        bench.faults.append(f"traced: self times cover {self_sum / elapsed:.6f}"
                            " of the traced wall time")


LAYER_UNITS = (("us_per_call", "us"), ("self_ms", "ms/trial"),
               ("ms", "ms/trial"), ("calls", "1/trial"),
               ("trials_per_s", "1/s"), ("_frac", "ratio"),
               ("_per_visit", "ratio"), ("", "count"))


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    prafd = load_prafd()
    if args.setup_probe is not None:
        round_spec(prafd, workload, args.seed, 0)
        print(time.monotonic() - args.setup_probe)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(prafd, workload, args.seed)
    try:
        if args.trace:
            metrics = {k: (v, layer_unit(k))
                       for k, v in traced_run(bench, args.seconds).items()}
        else:
            setup_s = measure_setup(args.workload, args.seed)
            metrics = untraced_run(bench, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")
    finally:
        for path in (bench.raw, bench.agg):
            path.unlink(missing_ok=True)

    for fault in bench.faults[:20]:
        print(f"# FAULT {fault}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(f"# rate digest of round 0: {bench.digests[0]}")
    print(json.dumps({
        "correct": not bench.faults,
        "attempted": bench.attempted,
        "failed": len(bench.failed_trials),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
