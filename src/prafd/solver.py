"""Alternating optimizer over beamformers, uplink powers and positions.

Each outer iteration solves the transmit, receive, power, grid-placement,
transmit-placement and receive-placement blocks in that order, then
refreshes the FP auxiliaries (as is also done once before the first
iteration).  The refresh pins the surrogate to the true weighted sum-rate,
and its gamma is the SINR vector, so it also scores the iteration.  Every
block maximizes the same surrogate exactly or monotonically, so the true
rate trace is non-decreasing and convergence is declared on its relative
change.

The grid-placement block runs with BSUM placement only.  It moves antennas
to grid points of higher *true* rate (`placement.RateGrid`) and, if any
moved, refreshes the auxiliaries again: the stale surrogate is at most the
rate before the jump, which is at most the rate after it, so the surrogate
still never decreases.  The first time the block moves no antenna it is
retired for the rest of the run; from there on the loop is plain BSUM.

One received-power record (`fp.ReceivedPowers`) of the current state and
channels is kept through the run.  `initial_state` makes its first full
pass and returns the starting state already scored, with the auxiliaries
of that pass.  A block updates only the factors its variable enters, the
rate, the surrogate after each block and the auxiliary passes read the
updated record, and a grid move hands over the record of its confirming
pass.  So the only full passes of a run are the first one, plus the
grid's confirmations and, with `eval_rlz`, one pass at the start and one
per iteration on the evaluation channels.

Each auxiliary pass replaces `state.aux`, the one record of (gamma, y) and
every coefficient derived from them (`fp.Auxiliaries`); the blocks and
surrogates up to the next pass read it, so nothing is re-derived per block.

The SINR vector that scores an iteration is the only source of what the
run reports: each `eval_trace` entry is its weighted sum-rate and the
per-user rates are those of the last one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import beamforming, fp, placement
from .channel import (AntennaLayout, ChannelRealization, Channels,
                      build_channels)
from .config import ConfigError, ScenarioConfig
from .geometry import FeasibleRegionSpec, is_feasible, layout_side_feasible

INIT_REJECTION_CAP = 100_000


@dataclass
class SolveOptions:
    max_outer: int = 100
    position_method: str = "bsum"   # "bsum", "gd", or "none"
    eval_rlz: ChannelRealization | None = None  # true channels, if the solver
    # is fed an imperfect estimate; rates are then reported against these.


@dataclass
class TrialResult:
    rate: float                 # final weighted sum-rate (true channels)
    dl_rates: np.ndarray
    ul_rates: np.ndarray
    outer_iterations: int
    bsum_sweeps: int
    wall_time: float
    layout: AntennaLayout
    trace: list                 # solver-side rate per outer iteration
    eval_trace: list            # rate on true channels per iteration
    converged: bool
    sandwich_gap: float         # worst |surrogate - rate| after aux passes
    # filled by the experiment harness:
    algorithm: str = ""
    sweep_value: float = float("nan")
    trial: int = -1
    failure: str | None = None


def _sample_side(n: int, half_width: float, d_min: float,
                 rng: np.random.Generator) -> np.ndarray:
    region = FeasibleRegionSpec(half_width, np.empty((0, 2)), d_min)
    failures = 0
    while len(region.obstacles) < n:
        q = rng.uniform(-half_width, half_width, size=2)
        if is_feasible(q, region):
            region = FeasibleRegionSpec(
                half_width, np.vstack([region.obstacles, q]), d_min)
        else:
            failures += 1
            if failures > INIT_REJECTION_CAP:
                raise ConfigError(
                    f"could not place {n} antennas with spacing {d_min:g} m in a "
                    f"{2 * half_width:g} m square after {INIT_REJECTION_CAP} rejections"
                )
    return region.obstacles


def initialize_layout(cfg: ScenarioConfig, rng: np.random.Generator) -> AntennaLayout:
    """Uniform random feasible layout (rejection sampling per side)."""
    hw = cfg.region_half_width
    return AntennaLayout(
        t=_sample_side(cfg.N_t, hw, cfg.D_min, rng),
        r=_sample_side(cfg.N_r, hw, cfg.D_min, rng),
    )


def initial_state(ch: Channels,
                  cfg: ScenarioConfig) -> tuple[fp.SolverState, fp.ReceivedPowers]:
    """Matched-filter beamformers at full power budgets, scored.

    Returns the state, with the auxiliaries of its first received-power
    pass, and that pass.
    """
    g = float(np.sum(np.abs(ch.H_D) ** 2))
    W_t = ch.H_D * np.sqrt(cfg.p_D_max / g) if g > 0 else np.zeros_like(ch.H_D)
    W_r = ch.H_U.copy()
    for u in range(cfg.K_U):
        if np.linalg.norm(W_r[:, u]) == 0.0:
            W_r[:, u] = 0.0
            W_r[0, u] = 1.0
    p = np.full(cfg.K_U, cfg.p_U_max)
    powers = fp.received_powers(W_t, W_r, p, ch, cfg)
    return fp.SolverState(W_t, W_r, p, fp.auxiliary_pass(powers, cfg)), powers


def _check_layout(layout: AntennaLayout, cfg: ScenarioConfig) -> None:
    hw = cfg.region_half_width
    if layout.t.shape != (cfg.N_t, 2) or layout.r.shape != (cfg.N_r, 2):
        raise ValueError("layout shape does not match antenna counts")
    for pts, tag in ((layout.t, "transmit"), (layout.r, "receive")):
        if not layout_side_feasible(pts, hw, cfg.D_min):
            raise ValueError(f"infeasible {tag} layout")


def _position_optimizer(method: str):
    if method == "bsum":
        return placement.bsum_optimize_side
    if method == "gd":
        from .baselines import gradient_descent_positions
        return gradient_descent_positions
    raise ValueError(f"unknown position method {method!r}")


class _Monitor:
    """Checks surrogate monotonicity and the post-aux-pass sandwich gap."""

    def __init__(self):
        self.sandwich_gap = 0.0

    def check_block(self, before: float, after: float, tag: str) -> float:
        """Raise if the surrogate fell in block `tag`; return `after`."""
        if after < before - 1e-9 * max(1.0, abs(before)):
            raise AssertionError(
                f"surrogate decreased in {tag} block: {before!r} -> {after!r}")
        return after

    def check_sandwich(self, surrogate: float, rate: float) -> None:
        gap = abs(surrogate - rate) / max(1.0, abs(rate))
        self.sandwich_gap = max(self.sandwich_gap, gap)
        if gap > 1e-9:
            raise AssertionError(
                f"surrogate {surrogate!r} does not match rate {rate!r}")


def _reported(state: fp.SolverState, layout: AntennaLayout,
              cfg: ScenarioConfig,
              eval_rlz: ChannelRealization | None) -> np.ndarray:
    """SINR vector to report: the auxiliary pass's gamma, or with
    `eval_rlz` the SINRs of a full pass on the evaluation channels."""
    if eval_rlz is None:
        return state.aux.gamma
    eval_ch = build_channels(layout, eval_rlz, cfg)
    return fp.sinrs_of(fp.received_powers(state.W_t, state.W_r, state.p,
                                          eval_ch, cfg))


def alternating_optimize(cfg: ScenarioConfig, rlz: ChannelRealization,
                         rng: np.random.Generator,
                         initial_layout: AntennaLayout | None = None,
                         options: SolveOptions | None = None) -> TrialResult:
    """Run the full alternating scheme from a (possibly given) layout.

    All randomness (layout initialization, placement sweep order) comes from
    `rng`, so results are bit-stable for a fixed generator state.
    """
    opts = options or SolveOptions()
    t_start = time.perf_counter()
    layout = initial_layout.copy() if initial_layout is not None \
        else initialize_layout(cfg, rng)
    _check_layout(layout, cfg)

    ch = build_channels(layout, rlz, cfg)
    # `powers` is the run's one full pass; every block updates it in place.
    state, powers = initial_state(ch, cfg)
    monitor = _Monitor()
    rate = fp.weighted_sum_rate(powers, cfg)
    sinr = _reported(state, layout, cfg, opts.eval_rlz)
    trace, eval_trace = [rate], [fp.rate_of_sinrs(sinr, cfg)]
    bsum_sweeps = 0
    converged = False
    iterations = 0

    move = opts.position_method != "none"
    optimizer = _position_optimizer(opts.position_method) if move else None
    grid = placement.RateGrid(rlz, cfg) \
        if opts.position_method == "bsum" else None
    # Built per call, not at import: the functions are looked up on their
    # modules, so wrappers installed there at run time are honoured.
    record = fp.ReceivedPowers
    closed_form = (
        ("transmit beamformer", "W_t", beamforming.update_transmit_beamformer,
         record.transmit_changed),
        ("receive beamformer", "W_r", beamforming.update_receive_beamformer,
         record.receive_changed),
        ("uplink power", "p", beamforming.update_uplink_power,
         record.power_changed),
    )
    sides = []      # placement blocks, only for sides that serve users
    if move and cfg.K_D > 0:
        sides.append(("transmit placement", "t", "r", placement.transmit_context,
                      record.transmit_changed))
    if move and cfg.K_U > 0:
        sides.append(("receive placement", "r", "t", placement.receive_context,
                      record.receive_changed))

    for it in range(1, opts.max_outer + 1):
        iterations = it
        # The auxiliaries were refreshed from `powers`, the pass `rate` was
        # scored on, so the surrogate must touch it.
        p3 = fp.surrogate_objective(state, ch, cfg, powers=powers)
        monitor.check_sandwich(p3, rate)

        for tag, attr, update, changed in closed_form:
            setattr(state, attr, update(state, ch, cfg))
            changed(powers, state, ch)
            p3 = monitor.check_block(p3, fp.surrogate_objective(
                state, ch, cfg, powers=powers), tag)

        if grid is not None:
            layout, ch, grid_rate, powers, moves = grid.place(
                state, layout, ch, fp.weighted_sum_rate(powers, cfg), powers)
            if moves:
                state.aux = fp.auxiliary_pass(powers, cfg)
                p3_new = fp.surrogate_objective(state, ch, cfg, powers=powers)
                monitor.check_sandwich(p3_new, grid_rate)
                p3 = monitor.check_block(p3, p3_new, "grid placement")
            else:
                grid = None

        for tag, side, other, context, changed in sides:
            ctx = context(state, rlz, getattr(layout, other), cfg)
            pos, _, sw = optimizer(ctx, getattr(layout, side), rng,
                                   cfg.epsilon_bsum)
            setattr(layout, side, pos)
            bsum_sweeps += sw
            ch = build_channels(layout, rlz, cfg)
            changed(powers, state, ch)
            p3 = monitor.check_block(p3, fp.surrogate_objective(
                state, ch, cfg, powers=powers), tag)

        # gamma is the SINR vector, so the pass that refreshes the
        # auxiliaries for the next iteration also scores this one; it
        # reuses the last block's record.
        state.aux = fp.auxiliary_pass(powers, cfg)
        new_rate = fp.rate_of_sinrs(state.aux.gamma, cfg)
        sinr = _reported(state, layout, cfg, opts.eval_rlz)
        trace.append(new_rate)
        eval_trace.append(fp.rate_of_sinrs(sinr, cfg))
        converged = abs(new_rate - rate) <= cfg.epsilon * max(abs(rate), 1e-12)
        rate = new_rate
        if converged:
            break

    user_rates = np.log2(1.0 + sinr)
    return TrialResult(
        rate=eval_trace[-1],
        dl_rates=user_rates[:cfg.K_D], ul_rates=user_rates[cfg.K_D:],
        outer_iterations=iterations, bsum_sweeps=bsum_sweeps,
        wall_time=time.perf_counter() - t_start,
        layout=layout, trace=trace, eval_trace=eval_trace,
        converged=converged, sandwich_gap=monitor.sandwich_gap,
    )
