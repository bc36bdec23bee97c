"""Outside-in span tracing of the library's public functions.

`install` replaces each traced function at every module attribute where
callers look it up (``endvertex.chordal.mcs_order``,
``endvertex.deciders.recognize_chordal``, ...), so calls between
modules are recorded without touching the library's files.  Spans stay
in memory as ``[name, start, end, parent, query]`` lists and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs whose calls become spans, named "module.function".
TRACED = {
    "cli": ("parse_graph_text", "main"),
    "graph": ("from_edges", "is_connected", "is_simplicial", "cut_vertices",
              "induced_subgraph", "is_inclusion_chain"),
    "chordal": ("mcs_order", "peo_violation", "clique_tree", "recognize_chordal"),
    "recognize": ("is_split", "recognize_split", "recognize_interval",
                  "recognize_unit_interval", "is_claw_net_free"),
    "deciders": ("dispatch_endvertex", "hamiltonian_path"),
    "oracle": ("is_endvertex_exhaustive", "randomized_endvertex_probe"),
    "search": ("run_search", "validate_order"),
    "reduction": ("build_mns_gadget", "build_mcs_gadget"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Class each recognizer certifies, for the useful-call ratio.
RECOGNIZER_CLASS = {
    "chordal.recognize_chordal": "chordal",
    "recognize.is_split": "split",
    "recognize.recognize_split": "split",
    "recognize.recognize_interval": "interval",
    "recognize.recognize_unit_interval": "unit-interval",
    "recognize.is_claw_net_free": "claw-net-free",
}
_METHOD_CLASS = {
    "unit-interval characterization": "unit-interval",
    "split MCS characterization": "split",
    "chordal MNS characterization": "chordal",
    "cut-vertex characterization": "claw-net-free",
    "interval DFS characterization": "interval",
    "interval MCS sufficient condition": "interval",
}


def class_used(method: str | None, detail: str | None) -> str | None:
    """The graph class a dispatch result's method relied on, if any."""
    if method == "exhaustive oracle" and detail and "interval" in detail:
        return "interval"  # the MCS-on-interval branch falls back to the oracle
    return _METHOD_CLASS.get(method or "")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query: int | None = None

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each endvertex module attribute
        bound to it.  The library must already be imported."""
        from endvertex.graph import Graph

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "endvertex" or name.startswith("endvertex."))]
        for mod, fns in TRACED.items():
            home = sys.modules[f"endvertex.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if fn == "from_edges":
                    Graph.from_edges = classmethod(self.wrap(name, Graph.__dict__["from_edges"].__func__))
                    continue
                original = getattr(home, fn)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def add(self, spans: list[list], query: int) -> None:
        """Append spans recorded by a child process, re-rooted at the end
        of this tracer's list and tagged with the query id."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, query])


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """name -> [self seconds, calls].  A span's self time is its duration
    minus the durations of its direct children (children nest, so their
    intervals do not overlap)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, *_rest) in enumerate(spans):
        acc = out[name]
        acc[0] += end - start - child_time[i]
        acc[1] += 1
    return out


def recognizer_calls(spans: list[list], query: int) -> list[str]:
    """Classes of the recognizer spans called directly by a
    dispatch_endvertex span of the given query."""
    dispatch = {i for i, s in enumerate(spans)
                if s[4] == query and s[0] == "deciders.dispatch_endvertex"}
    return [RECOGNIZER_CLASS[s[0]] for s in spans
            if s[4] == query and s[3] in dispatch and s[0] in RECOGNIZER_CLASS]
