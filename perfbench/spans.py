"""Span tracing from outside the program.

`Tracer.installed()` replaces the module attributes listed in
`TRACE_POINTS` with `perf_counter` wrappers and restores them on exit.
Each wrapper records a span (name, start, end, parent, trial) in memory.
Only attributes that callers look up at call time are wrapped: a module
that did `from .x import f` holds its own binding, so both bindings are
listed where both are called.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Several bindings may share one name.
TRACE_POINTS = (
    ("experiment", "run_trial", "experiment.trial"),
    ("experiment", "sample_realization", "channel.sample_realization"),
    ("baselines", "alternating_optimize", "solver.optimize"),
    ("solver", "build_channels", "channel.build_channels"),
    ("fp", "auxiliary_pass", "fp.auxiliary_pass"),
    ("fp", "surrogate_objective", "fp.surrogate_objective"),
    ("fp", "weighted_sum_rate", "fp.weighted_sum_rate"),
    ("beamforming", "update_transmit_beamformer", "beamforming.transmit"),
    ("beamforming", "solve_transmit_qp", "beamforming.transmit_qp"),
    ("beamforming", "update_receive_beamformer", "beamforming.receive"),
    ("beamforming", "update_uplink_power", "beamforming.power"),
    ("placement", "transmit_context", "placement.context"),
    ("placement", "receive_context", "placement.context"),
    ("placement", "bsum_optimize_side", "placement.side"),
    ("baselines", "gradient_descent_positions", "baselines.gd_side"),
    ("placement", "antenna_bundle", "placement.antenna_bundle"),
    ("baselines", "antenna_bundle", "placement.antenna_bundle"),
    ("placement", "curvature_bound", "placement.curvature_bound"),
    ("placement", "placement_objective", "placement.objective"),
    ("baselines", "placement_objective", "placement.objective"),
    ("placement", "nearest_feasible_point", "geometry.project"),
    ("baselines", "nearest_feasible_point", "geometry.project"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACE_POINTS))


def _walked(args, out) -> int:
    """1 when a projection did not end at the square clamp of its target."""
    target, region = np.asarray(args[0], dtype=float), args[1]
    clamp = np.clip(target, -region.half_width, region.half_width)
    return int(not np.array_equal(out, clamp))


# Exact per-call counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "geometry.project": ("walks", _walked),
    "beamforming.transmit_qp": ("qp_iters", lambda args, out: out[2]),
    "placement.side": ("sweeps", lambda args, out: out[2]),
    "baselines.gd_side": ("gd_steps", lambda args, out: out[2]),
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, trial]
        self.counts = dict.fromkeys((c for c, _ in COUNTERS.values()), 0)
        self._stack = []
        self._trial = -1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._trial]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if name == "experiment.trial":
                self._trial = kwargs.get("trial", args[-1])
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self, package: str):
        saved = []
        try:
            for mod_name, attr, name in TRACE_POINTS:
                mod = importlib.import_module(f"{package}.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the time its children cover;
        spans nest strictly in one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, incl, self_t = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (t1 - t0),
                         self_t + (t1 - t0) - child[i])
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for rec in self.spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n
