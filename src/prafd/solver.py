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

The solve keeps one state (`fp.SolverState`): the variables, the
channels of the current layout (`state.ch`), their received-power record
on those channels (`state.powers`) and the auxiliaries; every block reads
its channels and received powers from it.  `initial_state` makes the
first full pass and returns the starting state with the auxiliaries of
that pass, whose gamma scores the start.  A block updates only the
factors its variable enters; the surrogate after each block and the
auxiliary passes read the updated record, and a grid move sets the
state's channels and record to those of its confirming pass.  So the only full passes of a run are the
first one, plus the grid's confirmations and, with `eval_rlz`, one pass at
the start and one per iteration on the evaluation channels.

The channel record (`channel.Channels`) holds the layout and each side's
user-path and SI-path phasors, the only place positions enter.
`build_channels` takes them once per solve; after a placement side, and
for each grid confirmation, `channel.move_side` re-takes only the moved
side's two phasor arrays and rebuilds that side's user channel and H_SI.

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
                      build_channels, move_side)
from .config import ConfigError, ScenarioConfig
from .geometry import FeasibleRegionSpec, is_feasible, layout_side_feasible

INIT_REJECTION_CAP = 100_000
MAX_OUTER = 100
EPSILON = 1e-3  # relative rate change that ends the outer loop


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


def initial_state(ch: Channels, cfg: ScenarioConfig) -> fp.SolverState:
    """Matched-filter beamformers at full power budgets on `ch`, scored:
    the state holds its first received-power pass and its auxiliaries."""
    g = float(np.sum(np.abs(ch.H_D) ** 2))
    W_t = ch.H_D * np.sqrt(cfg.p_D_max / g) if g > 0 else np.zeros_like(ch.H_D)
    W_r = ch.H_U.copy()
    for u in range(cfg.K_U):
        if np.linalg.norm(W_r[:, u]) == 0.0:
            W_r[:, u] = 0.0
            W_r[0, u] = 1.0
    p = np.full(cfg.K_U, cfg.p_U_max)
    powers = fp.received_powers(W_t, W_r, p, ch, cfg)
    return fp.SolverState(W_t, W_r, p, ch, powers,
                          fp.auxiliary_pass(powers, cfg))


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
    """Checks surrogate monotonicity and the sandwich gap; NaN fails both."""

    def __init__(self):
        self.sandwich_gap = 0.0

    def check_block(self, before: float, after: float, tag: str) -> float:
        """Raise if the surrogate fell in block `tag`; return `after`."""
        if not after >= before - 1e-9 * max(1.0, abs(before)):
            raise AssertionError(
                f"surrogate decreased in {tag} block: {before!r} -> {after!r}")
        return after

    def check_sandwich(self, surrogate: float, rate: float) -> None:
        gap = abs(surrogate - rate) / max(1.0, abs(rate))
        self.sandwich_gap = max(self.sandwich_gap, gap)
        if not gap <= 1e-9:
            raise AssertionError(
                f"surrogate {surrogate!r} does not match rate {rate!r}")


def _reported(state: fp.SolverState, cfg: ScenarioConfig,
              eval_rlz: ChannelRealization | None,
              rate: float) -> tuple[np.ndarray, float]:
    """SINR vector to report and its weighted sum-rate: the auxiliary
    pass's gamma, which `rate` was scored from, or with `eval_rlz` the
    SINRs of a full pass on the evaluation channels of the state's
    layout."""
    if eval_rlz is None:
        return state.aux.gamma, rate
    eval_ch = build_channels(state.ch.layout, eval_rlz, cfg)
    sinr = fp.sinrs_of(fp.received_powers(state.W_t, state.W_r, state.p,
                                          eval_ch, cfg))
    return sinr, fp.weighted_sum_rate(sinr, cfg)


def alternating_optimize(cfg: ScenarioConfig, rlz: ChannelRealization,
                         rng: np.random.Generator, layout: AntennaLayout,
                         position_method: str,
                         eval_rlz: ChannelRealization | None = None) -> TrialResult:
    """Run the full alternating scheme from a copy of `layout`.

    `position_method` names the placement block: "bsum", "gd" or "none".
    Rates are reported on `eval_rlz`, the true channels, when it is given.
    The placement sweep order comes from `rng`, so results are bit-stable
    for a fixed generator state.
    """
    t_start = time.perf_counter()
    _check_layout(layout, cfg)
    state = initial_state(build_channels(layout.copy(), rlz, cfg), cfg)
    monitor = _Monitor()
    rate = fp.weighted_sum_rate(state.aux.gamma, cfg)
    sinr, eval_rate = _reported(state, cfg, eval_rlz, rate)
    trace, eval_trace = [rate], [eval_rate]
    bsum_sweeps = 0
    converged = False
    iterations = 0

    optimizer = None if position_method == "none" \
        else _position_optimizer(position_method)
    grid = placement.RateGrid(rlz, cfg) \
        if position_method == "bsum" else None
    # Built per call, not at import: the functions are looked up on their
    # modules, so wrappers installed there at run time are honoured.
    record = fp.ReceivedPowers
    closed_form = (
        ("transmit beamformer", "W_t", beamforming.update_transmit_beamformer,
         record.transmit_beams_changed),
        ("receive beamformer", "W_r", beamforming.update_receive_beamformer,
         record.receive_changed),
        ("uplink power", "p", beamforming.update_uplink_power,
         record.power_changed),
    )
    # Placement blocks, only for sides that serve users; each side's
    # `placement.SideTerms` record is built here, once per solve.
    sides = []
    if optimizer and cfg.K_D > 0:
        sides.append(("transmit placement", "t", placement.transmit_context,
                      placement.side_terms(rlz, cfg, True),
                      record.transmit_changed))
    if optimizer and cfg.K_U > 0:
        sides.append(("receive placement", "r", placement.receive_context,
                      placement.side_terms(rlz, cfg, False),
                      record.receive_changed))

    for it in range(1, MAX_OUTER + 1):
        iterations = it
        # The auxiliaries were refreshed from the state's record, the pass
        # `rate` was scored on, so the surrogate must touch it.
        p3 = fp.surrogate_objective(state, cfg)
        monitor.check_sandwich(p3, rate)

        for tag, attr, update, changed in closed_form:
            setattr(state, attr, update(state, cfg))
            changed(state.powers, state)
            p3 = monitor.check_block(p3, fp.surrogate_objective(state, cfg),
                                     tag)

        if grid is not None:
            if grid.place(state):
                state.aux = fp.auxiliary_pass(state.powers, cfg)
                p3_new = fp.surrogate_objective(state, cfg)
                monitor.check_sandwich(
                    p3_new, fp.weighted_sum_rate(state.aux.gamma, cfg))
                p3 = monitor.check_block(p3, p3_new, "grid placement")
            else:
                grid = None

        for tag, side, context, terms, changed in sides:
            pos, _, sw = optimizer(context(state, terms), rng)
            bsum_sweeps += sw
            state.ch = move_side(state.ch, side, pos, rlz, cfg)
            changed(state.powers, state)
            p3 = monitor.check_block(p3, fp.surrogate_objective(state, cfg),
                                     tag)

        # gamma is the SINR vector, so the pass that refreshes the
        # auxiliaries for the next iteration also scores this one; it
        # reuses the last block's record.
        state.aux = fp.auxiliary_pass(state.powers, cfg)
        new_rate = fp.weighted_sum_rate(state.aux.gamma, cfg)
        sinr, eval_rate = _reported(state, cfg, eval_rlz, new_rate)
        trace.append(new_rate)
        eval_trace.append(eval_rate)
        converged = abs(new_rate - rate) <= EPSILON * max(abs(rate), 1e-12)
        rate = new_rate
        if converged:
            break

    user_rates = np.log2(1.0 + sinr)
    return TrialResult(
        rate=eval_trace[-1],
        dl_rates=user_rates[:cfg.K_D], ul_rates=user_rates[cfg.K_D:],
        outer_iterations=iterations, bsum_sweeps=bsum_sweeps,
        wall_time=time.perf_counter() - t_start,
        layout=state.ch.layout, trace=trace, eval_trace=eval_trace,
        converged=converged, sandwich_gap=monitor.sandwich_gap,
    )
