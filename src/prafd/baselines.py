"""Reference schemes the position-optimizing solver is compared against.

* fpas: beamforming/power only, so the antennas stay where they start: in
  an experiment, at the fixed uniform planar arrays of `fpas_layout`.
* fp-gd: same alternating scheme but positions move by projected gradient
  descent with Armijo backtracking instead of per-antenna majorization;
  each step moves the whole side along one joint gradient
  (`placement.placement_gradient`).
* hd: downlink-only half-duplex operation, scaled by a duplex factor.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelRealization
from .config import ConfigError, ScenarioConfig
from .fp import LN2
from .geometry import FeasibleRegionSpec, layout_side_feasible, nearest_feasible_point
from .placement import (SurrogateContext, antenna_bundle, channel_fields,
                        layout_fields, others_index, placement_gradient,
                        placement_objective)
from .solver import AntennaLayout, TrialResult, alternating_optimize

# The full-duplex algorithms and the position method each solves with.
POSITION_METHODS = {"fp-bsum": "bsum", "fp-gd": "gd", "fpas": "none"}
ALGORITHMS = (*POSITION_METHODS, "hd")

ARMIJO_C = 1e-4
GD_MAX_HALVINGS = 40
GD_MAX_STEPS = 200
GD_EPSILON = 1e-3


def upa_layout(n: int, spacing: float, half_width: float) -> np.ndarray:
    """Centered ceil(sqrt(n)) x ceil(sqrt(n)) grid, filled row-major.

    Raises ConfigError when `layout_side_feasible` rejects the grid.
    """
    m = math.ceil(math.sqrt(n))
    pts = []
    for idx in range(n):
        i, j = divmod(idx, m)
        pts.append([(j - (m - 1) / 2.0) * spacing,
                    (i - (m - 1) / 2.0) * spacing])
    pts = np.array(pts).reshape(n, 2)
    if not layout_side_feasible(pts, half_width, spacing):
        raise ConfigError(
            f"a {m}x{m} grid at spacing {spacing:g} m does not fit the region")
    return pts


def _project_side(cand: np.ndarray, pos: np.ndarray, others: list,
                  half_width: float, d_min: float) -> np.ndarray:
    """Restore feasibility after a joint move from `pos` in one pass.

    Each antenna's candidate is projected against the final positions of
    the ones before it and the current positions of the ones after it,
    where its own position is feasible: a small step moves it little, and
    every pair ends at least d_min apart.  `others` is the side's
    `others_index`.
    """
    proj = pos.copy()
    for n in range(len(proj)):
        region = FeasibleRegionSpec(half_width, proj[others[n]], d_min)
        proj[n] = nearest_feasible_point(cand[n], region)
    return proj


def gradient_descent_positions(ctx: SurrogateContext):
    """Projected gradient descent on one side's placement objective.

    Same returns and monotonicity contract as the per-antenna majorizer
    sweep, from the context's positions.  Stops when a step changes the
    objective by less than GD_EPSILON times the rate's scale, the
    surrogate it starts from in nats (the objective's own magnitude
    carries an arbitrary offset), or after GD_MAX_STEPS steps; a context
    whose state no solve has scored has no such scale and raises
    ValueError.  Step sizes come from Armijo backtracking (sufficient
    decrease c=1e-4, halving), so the objective trace never increases.
    The channel fields of each layout are built once and serve its
    objective and its joint gradient, one `placement_gradient` call per
    step; those of the start are read off the context's channel record
    (`channel_fields`).  The per-antenna bundles are built once, before
    the first step: their largest curvature cap sets the first trial step
    1 / cap, and a zero cap means the objective does not depend on the
    positions.
    """
    if not math.isfinite(ctx.surrogate):
        raise ValueError(f"GD needs a scored state; surrogate {ctx.surrogate}")
    half_width, d_min = ctx.terms.half_width, ctx.terms.d_min
    pos = np.array(ctx.positions, dtype=float, copy=True)
    others = others_index(len(pos))
    fields = channel_fields(ctx)
    f = placement_objective(ctx, fields)
    tol = GD_EPSILON * LN2 * ctx.surrogate
    trace = [f]
    steps = 0
    cap = max(antenna_bundle(ctx, fields[0], fields[4], n).curvature_cap()
              for n in range(len(pos)))
    if cap == 0.0:
        return pos, trace, steps
    alpha0 = 1.0 / cap
    for _ in range(GD_MAX_STEPS):
        grad = placement_gradient(ctx, fields)
        gnorm2 = float((grad ** 2).sum())
        if gnorm2 == 0.0:
            break
        steps += 1
        alpha = alpha0
        for _ in range(GD_MAX_HALVINGS):
            proj = _project_side(pos - alpha * grad, pos, others,
                                 half_width, d_min)
            proj_fields = layout_fields(ctx, proj)
            f_new = placement_objective(ctx, proj_fields)
            if f_new <= f - ARMIJO_C * alpha * gnorm2:
                break
            alpha *= 0.5
        else:
            break  # constrained stationary point at this resolution
        alpha0 = 2.0 * alpha  # warm start the next line search
        pos, fields = proj, proj_fields
        trace.append(f_new)
        if abs(f - f_new) < tol:
            break
        f = f_new
    return pos, trace, steps


def fpas_layout(cfg: ScenarioConfig) -> AntennaLayout:
    """Fixed planar arrays, the layout of the fpas baseline.

    Neighbours sit half a wavelength apart, or D_min apart when that is
    larger, so the arrays always meet the spacing constraint.
    """
    spacing = max(0.5 * cfg.wavelength, cfg.D_min)
    return AntennaLayout(
        t=upa_layout(cfg.N_t, spacing, cfg.region_half_width),
        r=upa_layout(cfg.N_r, spacing, cfg.region_half_width),
    )


def run_algorithm(name: str, cfg: ScenarioConfig, rlz: ChannelRealization,
                  rng: np.random.Generator, layout: AntennaLayout,
                  eval_rlz: ChannelRealization | None = None,
                  duplex_factor: float = 0.5) -> TrialResult:
    """Solve one named algorithm from a copy of `layout`.

    hd is fp-bsum on the downlink only: no uplink means no
    self-interference and no uplink-to-downlink coupling.  Its rates are
    scaled by `duplex_factor`, the share of time the downlink runs, so
    their absolute values depend on that factor, not on the solver.
    """
    if name in POSITION_METHODS:
        return alternating_optimize(cfg, rlz, rng, layout,
                                    POSITION_METHODS[name], eval_rlz)
    if name != "hd":
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    if not 0.0 < duplex_factor <= 1.0:
        raise ValueError(
            f"duplex factor must be in (0, 1], got {duplex_factor:g}")
    eval_dl = None if eval_rlz is None else eval_rlz.downlink_only()
    res = alternating_optimize(cfg.downlink_only(), rlz.downlink_only(), rng,
                               layout, "bsum", eval_dl)
    res.dl_rates = res.dl_rates * duplex_factor
    res.trace = [duplex_factor * v for v in res.trace]
    res.eval_trace = [duplex_factor * v for v in res.eval_trace]
    return res
