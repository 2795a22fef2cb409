"""The benchmark's span tracer wraps module attributes of the program by
name; each one must exist, or the traced benchmark run stops."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_points():
    """TRACE_POINTS of perfbench/spans.py, read from its source without
    importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "TRACE_POINTS"
                        for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACE_POINTS not found in perfbench/spans.py")


def test_every_trace_point_resolves():
    points = trace_points()
    assert points
    missing = [f"prafd.{mod}.{attr}" for mod, attr, _ in points
               if not callable(getattr(importlib.import_module(f"prafd.{mod}"),
                                       attr, None))]
    assert not missing, f"span targets not found: {missing}"
