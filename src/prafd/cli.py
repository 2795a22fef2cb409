"""Command line entry points: single solves, Monte Carlo experiments, and
oracle self-checks of the closed-form updates."""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from . import oracles
from .baselines import ALGORITHMS
from .beamforming import optimal_scalar_power, solve_transmit_qp
from .channel import build_channels, sample_realization
from .config import ConfigError, ScenarioConfig, load_config, parse_setting
from .experiment import ExperimentSpec, emit_csv, run_experiment, run_trial
from .geometry import FeasibleRegionSpec, is_feasible, nearest_feasible_point
from .placement import (antenna_bundle, layout_fields, placement_gradient,
                        placement_objective, receive_context, side_terms,
                        transmit_context)
from .solver import initial_state, initialize_layout


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


def _report(name: str, worst: float, limit: float, lines: list, fails: list):
    ok = worst <= limit
    lines.append(f"{name:<40} worst {worst: .3e}  limit {limit:.1e}  "
                 + ("ok" if ok else "FAIL"))
    if not ok:
        fails.append(name)


def _oracle_transmit(rng, count, lines, fails):
    n, k = 4, 4
    H_t = np.stack([oracles.random_psd(rng, n) for _ in range(count)])
    Hbar = np.stack([oracles.random_complex(rng, (n, k), 0.5)
                     for _ in range(count)])
    p_max = rng.uniform(0.5, 4.0, count)
    ref = oracles.transmit_qp_pgd(H_t, Hbar, p_max)
    f_ref = oracles.transmit_qp_value(H_t, Hbar, ref)
    worst = 0.0
    for i in range(count):
        W, _, _ = solve_transmit_qp(H_t[i], Hbar[i], float(p_max[i]))
        f_cf = oracles.transmit_qp_value(H_t[i], Hbar[i], W)
        worst = max(worst, abs(f_cf - f_ref[i]) / max(1.0, abs(f_cf)))
    _report("transmit qp vs projected gradient", worst, 1e-4, lines, fails)


def _oracle_power(rng, count, lines, fails):
    worst = 0.0
    for _ in range(count):
        c1 = rng.uniform(-1.0, 2.0)
        c2 = rng.uniform(0.0, 1.5)
        p_max = 10.0 ** rng.uniform(-2.0, 0.5)
        p_cf = optimal_scalar_power(c1, c2, p_max)
        p_grid = oracles.power_grid_search(c1, c2, p_max)
        worst = max(worst, abs(p_cf - p_grid) / (p_max / 9999.0))
    _report("uplink power vs grid (cells)", worst, 1.0 + 1e-9, lines, fails)


def _oracle_projection(rng, count, lines, fails):
    hw, radius = 2.0, 0.35
    step = hw / 100.0
    worst = 0.0
    for _ in range(count):
        n_obs = int(rng.integers(0, 7))
        spec = FeasibleRegionSpec(hw, rng.uniform(-hw, hw, (n_obs, 2)), radius)
        sp = rng.uniform(-1.2 * hw, 1.2 * hw, 2)
        t = nearest_feasible_point(sp, spec)
        if not is_feasible(t, spec):
            worst = np.inf
            continue
        g = oracles.grid_nearest_feasible(sp, spec, step)
        if g is None:
            continue
        worst = max(worst, float(np.linalg.norm(t - sp) - np.linalg.norm(g - sp)))
    _report("projection vs dense grid", worst, np.sqrt(2.0) * step, lines, fails)


def _oracle_placement(rng, count, lines, fails):
    cfg = ScenarioConfig(K_D=2, K_U=2, N_t=3, N_r=3, L=3, L_SI=3)
    step = 1e-6 * cfg.wavelength
    hess_step = 3e-5 * cfg.wavelength
    worst = worst_joint = worst_hess = worst_offset = 0.0
    for _ in range(max(2, count // 25)):
        rlz = sample_realization(cfg, rng)
        state = initial_state(
            build_channels(initialize_layout(cfg, rng), rlz, cfg), cfg)
        for ctx in (transmit_context(state, side_terms(rlz, cfg, True)),
                    receive_context(state, side_terms(rlz, cfg, False))):
            pos = ctx.positions
            fields = layout_fields(ctx, pos)
            joint = placement_gradient(ctx, fields)
            for n in range(len(pos)):
                bundle = antenna_bundle(ctx, fields[0], fields[4], n)
                grad = bundle.gradient(pos[n])

                def obj(q, n=n, ctx=ctx, pos=pos):
                    trial = pos.copy()
                    trial[n] = q
                    return placement_objective(ctx, layout_fields(ctx, trial))

                ref = oracles.central_difference_gradient(obj, pos[n], step)
                scale = max(1.0, np.linalg.norm(ref))
                worst = max(worst, np.linalg.norm(grad - ref) / scale)
                worst_joint = max(worst_joint,
                                  np.linalg.norm(joint[n] - ref) / scale)
                ref = oracles.central_difference_hessian(obj, pos[n],
                                                         hess_step)
                worst_hess = max(worst_hess,
                                 np.linalg.norm(bundle.hessian(pos[n]) - ref)
                                 / max(1.0, np.linalg.norm(ref)))
                # The bundle differs from the objective by a constant:
                # compare differences between two antennas' positions.
                a, b = pos[n], pos[n - 1]
                ref = obj(a) - obj(b)
                err = abs(bundle.value(a) - bundle.value(b) - ref)
                worst_offset = max(worst_offset, err / max(1.0, abs(ref)))
    _report("placement gradient vs differences", worst, 1e-4, lines, fails)
    _report("joint placement gradient vs differences", worst_joint, 1e-4,
            lines, fails)
    # Measured worst 4.4e-7 over seeds 0-3 and 7 at the default count; the
    # differences' truncation and rounding set that floor.
    _report("placement Hessian vs differences", worst_hess, 1e-5, lines,
            fails)
    # Measured worst 1.1e-13 over seeds 0-9 at count 500 and 10-14 at 2500.
    _report("bundle offset vs objective", worst_offset, 1e-12, lines, fails)


def _cmd_oracle(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    lines: list = []
    fails: list = []
    _oracle_transmit(rng, args.count, lines, fails)
    _oracle_power(rng, args.count, lines, fails)
    _oracle_projection(rng, args.count, lines, fails)
    _oracle_placement(rng, args.count, lines, fails)
    print("\n".join(lines))
    if fails:
        print(f"{len(fails)} check(s) failed")
        return 1
    print("all checks passed")
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

    ps = sub.add_parser("solve", parents=[common],
                        help="run one algorithm on one channel draw")
    ps.add_argument("--algo", default="fp-bsum", choices=ALGORITHMS)
    ps.add_argument("--trial", type=int, default=0,
                    help="trial index feeding the random streams")
    ps.add_argument("--duplex-factor", type=float, default=0.5)
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
    pe.add_argument("--duplex-factor", type=float, default=0.5)
    pe.add_argument("--threads", type=int, default=1,
                    help="worker processes for sweep points")
    pe.set_defaults(func=_cmd_experiment)

    po = sub.add_parser("oracle",
                        help="cross-check closed forms against slow references")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--count", type=int, default=100,
                    help="instances per check")
    po.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
