"""Alternating optimizer over beamformers, uplink powers and positions.

Each outer iteration runs the entries of one block table (`block_table`)
in order, then refreshes the FP auxiliaries, as is also done once before
the first.  The refresh pins the surrogate to the true weighted sum-rate,
and its gamma, the SINR vector, scores the iteration.  That vector is the
only source of what the run reports: each `eval_trace` entry is its
weighted sum-rate and the per-user rates are those of the last one.  Every
block raises the same surrogate, exactly or monotonically, so the rate
trace is non-decreasing; convergence is declared on its relative change.

Every table holds the transmit beamformer, receive beamformer and uplink
power; "bsum" adds grid placement, and "bsum" and "gd" add transmit and
receive placement for each side that serves users.  An entry (`_Block`)
is a monitor name and a step that updates the state and its record in
place and returns a count: a placement side's sweeps, which add to
`bsum_sweeps`, the grid's moves, or 0.  The loop scores the surrogate
after each step and the monitor checks that it did not fall.  Only the
grid sets the flag (`true_rate`): its moves raise the *true* rate, so a
nonzero count is scored after an auxiliary refresh (the stale surrogate
is at most the rate before a jump, which is at most the rate after it),
and its first step that moves nothing drops it from the table unscored.

The solve keeps one state (`fp.SolverState`), from which every block
reads: the variables, the channels of the current layout (`state.ch`),
their received-power record (`state.powers`) and the auxiliaries
(`state.aux`, replaced whole by each pass).  `initial_state` makes the
first full pass and scores the start with its auxiliaries.  A block
updates only the factors its variable enters, so the only other full
passes are the grid's confirmations and, with `eval_rlz`, one at the
start and one per iteration on the evaluation channels.  The channels
are built once per solve (`build_channels`); a placement side and each
grid confirmation re-take only the moved side's phasors
(`channel.move_side`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    """One solve's report; a failed trial's row has empty traces."""
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

    @property
    def rate(self) -> float:
        """Final weighted sum-rate on the true channels; nan when failed."""
        return self.eval_trace[-1] if self.eval_trace else float("nan")


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


def _scored(state: fp.SolverState, cfg: ScenarioConfig,
            eval_rlz: ChannelRealization | None) -> tuple:
    """The rate scored from the state's gamma, and the SINR vector to report
    with its weighted sum-rate: that gamma and rate, or with `eval_rlz` the
    SINRs of a full pass on the evaluation channels of the state's layout."""
    rate = fp.weighted_sum_rate(state.aux.gamma, cfg)
    if eval_rlz is None:
        return rate, state.aux.gamma, rate
    eval_ch = build_channels(state.ch.layout, eval_rlz, cfg)
    sinr = fp.sinrs_of(fp.received_powers(state.W_t, state.W_r, state.p,
                                          eval_ch, cfg))
    return rate, sinr, fp.weighted_sum_rate(sinr, cfg)


class _Block(NamedTuple):
    """One entry of a solve's block table; see the module docstring."""
    tag: str                    # the monitor's name for the block
    step: Callable[[fp.SolverState], int]   # sweeps, grid moves or 0
    true_rate: bool = False     # moves on the true rate (the grid)


def block_table(cfg: ScenarioConfig, rlz: ChannelRealization,
                rng: np.random.Generator, position_method: str) -> list:
    """One solve's entries in run order; `position_method` is checked first.
    Built per solve, not at import: the functions are looked up on their
    modules, so wrappers installed there at run time are honoured."""
    from . import baselines     # baselines imports this module
    optimizers = {"bsum": placement.bsum_optimize_side,
                  "gd": baselines.gradient_descent_positions, "none": None}
    if position_method not in optimizers:
        raise ValueError(f"unknown position method {position_method!r}")
    optimizer, record = optimizers[position_method], fp.ReceivedPowers

    def closed_form(tag, attr, update, changed):
        def step(state):
            setattr(state, attr, update(state, cfg))
            changed(state.powers, state)
            return 0
        return _Block(tag, step)

    def placement_side(tag, side, context, changed):
        terms = placement.side_terms(rlz, cfg, side == "t")  # once per solve
        def step(state):
            pos, _, sweeps = optimizer(context(state, terms), rng)
            state.ch = move_side(state.ch, side, pos, rlz, cfg)
            changed(state.powers, state)
            return sweeps
        return _Block(tag, step)

    blocks = [closed_form("transmit beamformer", "W_t",
                          beamforming.update_transmit_beamformer,
                          record.transmit_beams_changed),
              closed_form("receive beamformer", "W_r",
                          beamforming.update_receive_beamformer,
                          record.receive_changed),
              closed_form("uplink power", "p", beamforming.update_uplink_power,
                          record.power_changed)]
    if position_method == "bsum":
        blocks.append(_Block("grid placement", placement.RateGrid(rlz, cfg).place,
                             true_rate=True))
    if optimizer and cfg.K_D > 0:
        blocks.append(placement_side("transmit placement", "t",
                                     placement.transmit_context,
                                     record.transmit_changed))
    if optimizer and cfg.K_U > 0:
        blocks.append(placement_side("receive placement", "r",
                                     placement.receive_context,
                                     record.receive_changed))
    return blocks


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
    blocks = block_table(cfg, rlz, rng, position_method)
    state = initial_state(build_channels(layout.copy(), rlz, cfg), cfg)
    monitor = _Monitor()
    rate, sinr, eval_rate = _scored(state, cfg, eval_rlz)
    trace, eval_trace = [rate], [eval_rate]
    bsum_sweeps = 0
    converged = False
    iterations = 0

    for iterations in range(1, MAX_OUTER + 1):
        # The auxiliaries were refreshed from the state's record, the pass
        # `rate` was scored on, so the surrogate must touch it.
        p3 = fp.surrogate_objective(state, cfg)
        monitor.check_sandwich(p3, rate)
        for tag, step, true_rate in blocks:
            count = step(state)
            if true_rate:
                if not count:
                    # The sweep over `blocks` in progress keeps the old list.
                    blocks = [b for b in blocks if b.step is not step]
                    continue
                state.aux = fp.auxiliary_pass(state.powers, cfg)
                after = fp.surrogate_objective(state, cfg)
                monitor.check_sandwich(
                    after, fp.weighted_sum_rate(state.aux.gamma, cfg))
            else:
                bsum_sweeps += count
                after = fp.surrogate_objective(state, cfg)
            p3 = monitor.check_block(p3, after, tag)
        # Refreshed for the next iteration, gamma also scores this one.
        state.aux = fp.auxiliary_pass(state.powers, cfg)
        new_rate, sinr, eval_rate = _scored(state, cfg, eval_rlz)
        trace.append(new_rate)
        eval_trace.append(eval_rate)
        converged = abs(new_rate - rate) <= EPSILON * max(abs(rate), 1e-12)
        rate = new_rate
        if converged:
            break

    user_rates = np.log2(1.0 + sinr)
    return TrialResult(
        dl_rates=user_rates[:cfg.K_D], ul_rates=user_rates[cfg.K_D:],
        outer_iterations=iterations, bsum_sweeps=bsum_sweeps,
        wall_time=time.perf_counter() - t_start,
        layout=state.ch.layout, trace=trace, eval_trace=eval_trace,
        converged=converged, sandwich_gap=monitor.sandwich_gap,
    )
