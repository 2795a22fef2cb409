"""Command line entry points: single solves and Monte Carlo experiments."""

from __future__ import annotations

import argparse
import os
import time

from .baselines import ALGORITHMS
from .config import ConfigError, ScenarioConfig, load_config, parse_setting
from .experiment import ExperimentSpec, emit_csv, run_experiment, run_trial


def _config_from_args(args) -> ScenarioConfig:
    overrides = {}
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        target, val = parse_setting(key.strip(), raw)
        overrides[target] = val
    if args.config:
        return load_config(args.config, overrides)
    return ScenarioConfig(**overrides)


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    if args.trial < 0:
        raise ConfigError(f"--trial must be non-negative, got {args.trial}")
    spec = ExperimentSpec(base=cfg, algorithms=(args.algo,), seed=args.seed,
                          duplex_factor=args.duplex_factor)
    (res,) = run_trial(spec, float("nan"), args.trial)
    print(f"algorithm        {args.algo}")
    if res.failure:
        print(f"failed           {res.failure}")
        return 1
    print(f"weighted rate    {res.rate:.6f} bit/s/Hz")
    if res.dl_rates.size:
        print("downlink rates   " + " ".join(f"{v:.4f}" for v in res.dl_rates))
    if res.ul_rates.size:
        print("uplink rates     " + " ".join(f"{v:.4f}" for v in res.ul_rates))
    note = "" if res.converged else " (hit iteration cap)"
    print(f"outer iterations {res.outer_iterations}{note}")
    print(f"wall time        {res.wall_time:.3f} s")
    if args.positions:
        for tag, pts in (("transmit", res.layout.t), ("receive", res.layout.r)):
            print(f"{tag} positions (m)")
            for q in pts:
                print(f"  {q[0]: .6e} {q[1]: .6e}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    sweep_field, sweep_values = None, ()
    if args.sweep:
        name, sep, rest = args.sweep.partition("=")
        if not sep:
            raise ConfigError("--sweep expects FIELD=V1,V2,...")
        sweep_field = name.strip()
        sweep_values = tuple(float(v) for v in rest.replace(",", " ").split())
    spec = ExperimentSpec(
        base=cfg,
        algorithms=tuple(s.strip() for s in args.algos.split(",") if s.strip()),
        trials=args.trials, seed=args.seed,
        sweep_field=sweep_field,
        sweep_values=sweep_values,
        duplex_factor=args.duplex_factor,
        threads=args.threads,
    )
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    results = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    raw_path = args.out + "_raw.csv"
    agg_path = args.out + "_agg.csv"
    emit_csv(results, spec, raw_path, agg_path)
    n_fail = sum(1 for r in results if r.failure)
    print(f"{len(results)} runs in {elapsed:.1f} s, {n_fail} failed")
    print(f"raw rows:   {raw_path}")
    print(f"aggregates: {agg_path}")
    with open(agg_path, "r", encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prafd",
        description="Joint antenna placement, beamforming and power "
                    "allocation for full-duplex multi-user MIMO.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a 'key = value' config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field (repeatable)")
    common.add_argument("--seed", type=int, default=0,
                        help="master seed of the trials' random streams")
    common.add_argument("--duplex-factor", type=float, default=0.5,
                        help="share of time hd's downlink runs, in (0, 1]")

    ps = sub.add_parser("solve", parents=[common],
                        help="run one algorithm on one channel draw")
    ps.add_argument("--algo", default="fp-bsum", choices=ALGORITHMS)
    ps.add_argument("--trial", type=int, default=0,
                    help="trial index feeding the random streams")
    ps.add_argument("--positions", action="store_true",
                    help="print the optimized antenna positions")
    ps.set_defaults(func=_cmd_solve)

    pe = sub.add_parser("experiment", parents=[common],
                        help="Monte Carlo comparison with CSV output")
    pe.add_argument("--algos", default="fp-bsum,fpas",
                    help="comma separated algorithm names")
    pe.add_argument("--trials", type=int, default=200)
    pe.add_argument("--sweep", metavar="FIELD=V1,V2,...",
                    help="sweep one config field or perturbation level")
    pe.add_argument("--out", default="results", help="output path prefix")
    pe.add_argument("--threads", type=int, default=1,
                    help="worker processes over (sweep point, trial) cells")
    pe.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
