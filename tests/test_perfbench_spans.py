"""The benchmark's span tracer names library functions and dispatch
methods by string; a deleted or renamed function would only surface
when `perfbench/run.py --trace 1` raises, and a renamed method would
silently drop out of its class's useful-call ratio.  This reads
`perfbench/spans.py` and checks those names against the library."""

import importlib
import importlib.util
from pathlib import Path

from endvertex.deciders import _ROUTES
from endvertex.graph import Graph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves_in_the_library():
    pairs = [(mod, fn) for mod, fns in _spans().TRACED.items() for fn in fns]
    assert pairs
    for mod, fn in pairs:
        if fn == "from_edges":  # the tracer wraps this classmethod on Graph itself
            assert callable(Graph.__dict__["from_edges"].__func__)
            continue
        assert callable(getattr(importlib.import_module(f"endvertex.{mod}"), fn, None)), f"{mod}.{fn}"


def test_every_dispatch_method_maps_to_the_class_it_relies_on():
    method_class = _spans()._METHOD_CLASS
    routes = [route for kind_routes in _ROUTES.values() for route in kind_routes]
    assert routes
    for cls, method, _ in routes:
        assert method_class.get(method) == cls, method
    assert method_class["interval MCS sufficient condition"] == "interval"
