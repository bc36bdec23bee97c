"""The benchmark's span tracer names library functions by string; a
deleted or renamed function would only surface when `perfbench/run.py
--trace 1` raises.  This reads `perfbench/spans.py` and checks every
name it traces against the library."""

import importlib
import importlib.util
from pathlib import Path

from endvertex.graph import Graph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves_in_the_library():
    pairs = [(mod, fn) for mod, fns in _traced().items() for fn in fns]
    assert pairs
    for mod, fn in pairs:
        if fn == "from_edges":  # the tracer wraps this classmethod on Graph itself
            assert callable(Graph.__dict__["from_edges"].__func__)
            continue
        assert callable(getattr(importlib.import_module(f"endvertex.{mod}"), fn, None)), f"{mod}.{fn}"
