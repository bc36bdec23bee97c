"""dispatch-desk: in-process ``dispatch_endvertex(g, t, kind)`` calls with
automatic class detection, plus 3-SAT gadget queries.

The pool mixes every family the dispatcher routes differently: general
graphs that fall back to the oracle, each recognised class, and the
known exponential recognizer cases (stars, non-interval spiders, long
windows), sized to show their cost yet finish.  Search kinds rotate
over all seven.  Recognizers, the oracle, the numpy probe and the
reductions do almost all the work.
"""

from __future__ import annotations

import random
from time import perf_counter

import instances
from harness import QueryTimeout, Record, time_limit

import endvertex as ev
# Bound at import, before any tracer is installed: the correctness gate
# calls these, so its work never shows up as spans.  Timed calls go
# through ``ev.`` so that the wrappers see them.
from endvertex import (CnfFormula, Graph, SearchKind, build_mns_gadget, is_endvertex_exhaustive,
                       mcs_gadget_edge_count, mns_gadget_edge_count, sat_bruteforce,
                       validate_order)
from endvertex.oracle import DEFAULT_GUARD_PREFIX, DEFAULT_GUARD_SET_STATE, SET_STATE_KINDS

SETUP_REPEATS = 5
POOL_CYCLES = 16
PROBE_TRIALS = 300
KINDS = list(SearchKind)

# One cycle: (label, kind, generator).  A generator takes the rng and
# returns (n, edges) or a CNF tagged with the gadget it compiles to.
# Random families take kind None: their kind rotates from cycle to
# cycle.  The deterministic families (stars, spiders, windows) keep one
# kind each, chosen so that together they cover all seven, which keeps
# their cost, the bulk of a cycle, the same in every cycle.
K = SearchKind
SLOTS = [
    ("general-9", None, lambda r: instances.random_connected(r, 9, 0.5)),
    ("general-10", None, lambda r: instances.random_connected(r, 10, 0.5)),
    ("general-11", None, lambda r: instances.random_connected(r, 11, 0.5)),
    ("chordal-9", None, lambda r: instances.random_chordal(r, 9)[:2]),
    ("chordal-10", None, lambda r: instances.random_chordal(r, 10)[:2]),
    ("split-8", None, lambda r: instances.random_split(r, 8)),
    ("split-9", None, lambda r: instances.random_split(r, 9)),
    ("interval-8", None, lambda r: instances.random_interval(r, 8)),
    ("interval-9", None, lambda r: instances.random_interval(r, 9)),
    ("unit-interval-20", None, lambda r: instances.random_unit_interval(r, 20)),
    ("unit-interval-40", None, lambda r: instances.random_unit_interval(r, 40)),
    ("claw-net-free-10", None, lambda r: instances.random_claw_net_free(r, 10)),
    ("star-6", K.GENERIC, lambda r: instances.star(6)),
    ("star-7", K.BFS, lambda r: instances.star(7)),
    ("star-8", K.DFS, lambda r: instances.star(8)),
    ("spider-10", K.LBFS, lambda r: instances.spider((3, 3, 3))),
    ("spider-11", K.LDFS, lambda r: instances.spider((3, 3, 4))),
    ("spider-12", K.MCS, lambda r: instances.spider((3, 4, 4))),
    ("spider-13", K.MNS, lambda r: instances.spider((4, 4, 4))),
    ("window-100", K.BFS, lambda r: instances.window(100)),
    ("window-200", K.LDFS, lambda r: instances.window(200)),
    ("window-300", K.MNS, lambda r: instances.window(300)),
    ("mns-gadget-sat", K.MNS, lambda r: ("mns", instances.random_cnf(r, 5, 6))),
    ("mns-gadget-unsat", K.MNS, lambda r: ("mns", instances.unsat_cnf(r, 4, 1))),
    ("mcs-gadget", K.MCS, lambda r: ("mcs", instances.random_cnf(r, 3, 4))),
]


class State:
    def __init__(self, pool: list[list[dict]]):
        self.pool = pool


def setup(seed: int, root, work) -> State:
    rng = random.Random(seed)
    pool = []
    for c in range(POOL_CYCLES):
        specs = []
        for slot, (label, kind, make) in enumerate(SLOTS):
            made = make(rng)
            spec = {"label": label, "kind": kind or KINDS[(slot + c) % len(KINDS)]}
            if isinstance(made[0], str):
                gadget, (k, clauses) = made
                spec["cnf"] = CnfFormula(k, tuple(clauses))
                spec["gadget"] = gadget
                spec["seed"] = rng.randrange(1 << 30)
                l = len(clauses)
                if gadget == "mns":  # s, b, t follow the literals and clauses
                    spec["n"], spec["m"] = 2 * k + l + 3, mns_gadget_edge_count(k, l)
                    spec["target"] = 2 * k + l + 2
                else:  # t is the last vertex
                    spec["n"], spec["m"] = 48 * k + 3 * l - 25, mcs_gadget_edge_count(k, l)
                    spec["target"] = spec["n"] - 1
            else:
                n, edges = made
                g = Graph.from_edges(n, edges)
                spec["graph"] = g
                spec["n"], spec["m"] = n, g.m
                if label.startswith("window"):
                    spec["target"] = rng.choice((0, n // 2, n - 1))
                else:
                    spec["target"] = rng.randrange(n)
            specs.append(spec)
        pool.append(specs)
    return State(pool)


def manifest(state: State) -> list[dict]:
    return [{"cycle": c, "label": s["label"], "n": s["n"], "m": s["m"],
             "kind": s["kind"].value, "target": s["target"]}
            for c, specs in enumerate(state.pool) for s in specs]


def cycle(state: State, index: int) -> list[dict]:
    return state.pool[index % POOL_CYCLES]


def execute(state: State, spec: dict, cycle_no: int, slot: int, qid: int,
            tracer, limit: float) -> Record:
    kind = spec["kind"]
    rec = Record(qid, cycle_no % POOL_CYCLES, slot, spec["label"], spec["n"], spec["m"],
                 kind.value, spec["target"], tracer is not None)
    if tracer is not None:
        tracer.query = qid
    start = perf_counter()
    try:
        with time_limit(limit):
            if spec.get("gadget") == "mns":
                art = ev.build_mns_gadget(spec["cnf"])
                res = ev.dispatch_endvertex(art.graph, art.target, kind, oracle_guard=art.graph.n)
            elif spec.get("gadget") == "mcs":
                art = ev.build_mcs_gadget(spec["cnf"])
                hits = ev.randomized_endvertex_probe(art.graph, kind, art.target,
                                                  PROBE_TRIALS, spec["seed"])
                res = None
            else:
                res = ev.dispatch_endvertex(spec["graph"], spec["target"], kind)
        rec.latency_s = perf_counter() - start
    except QueryTimeout:
        rec.latency_s = perf_counter() - start
        rec.fail(f"timeout after {limit:.1f} s")
        return rec
    except Exception as exc:  # any library error fails this query, not the run
        rec.latency_s = perf_counter() - start
        rec.fail(f"{type(exc).__name__}: {exc}"[:200])
        return rec
    finally:
        if tracer is not None:
            tracer.query = None
    if "gadget" in spec and (art.graph.m, art.target) != (spec["m"], spec["target"]):
        rec.wrong("gadget size or target differs from the construction")
        return rec
    if res is None:
        rec.verdict = "yes" if hits else "unknown"
        rec.method = "randomized probe"
        rec.extra["hits"] = hits
    else:
        rec.verdict, rec.method, rec.detail = res.verdict.value, res.method, res.detail
        rec.extra["witness"] = res.witness
    return rec


def _window_fact(kind: SearchKind, n: int, t: int) -> str | None:
    """End-vertex status on a window graph (w = 3) known from the
    characterizations, or None where no fact is derived here."""
    if kind in (SearchKind.MNS, SearchKind.MCS, SearchKind.LDFS):
        # Unit interval: simplicial and G - N[t] connected, i.e. an end.
        return "yes" if t in (0, n - 1) else "no"
    if kind in (SearchKind.DFS, SearchKind.GENERIC):
        return "yes"  # no cut vertex; both are characterized by cut vertices here
    return None


def check(state: State, records: list[Record]) -> dict:
    """Check every answered query once per distinct (instance, kind):
    against the exhaustive oracle where the instance fits its default
    guard, against satisfiability for gadgets, against construction
    facts for windows.  Marks wrong records; returns coverage counts."""
    verdicts: dict[tuple[int, int], str] = {}
    verified = unverified = 0
    for rec in records:
        if rec.status != "ok":
            continue
        key = (rec.cycle, rec.slot)
        spec = state.pool[rec.cycle][rec.slot]
        if key in verdicts:
            if verdicts[key] != rec.verdict:
                rec.wrong(f"answer {rec.verdict} differs from {verdicts[key]} on the same query")
            continue
        verdicts[key] = rec.verdict
        why = _check_one(spec, rec)
        if why is None:
            verified += 1
        elif why == "unverified":
            unverified += 1
        else:
            rec.wrong(why)
    return {"verified": verified, "unverified": unverified}


def _check_one(spec: dict, rec: Record) -> str | None:
    kind = spec["kind"]
    if spec.get("gadget") == "mns":
        sat = sat_bruteforce(spec["cnf"]) is not None
        if rec.verdict != ("yes" if sat else "no"):
            return f"MNS gadget answer {rec.verdict}, formula satisfiable={sat}"
        return _witness_ok(build_mns_gadget(spec["cnf"]).graph, kind, rec)
    if spec.get("gadget") == "mcs":
        if rec.verdict == "yes" and sat_bruteforce(spec["cnf"]) is None:
            return "probe ended at t on an unsatisfiable formula"
        return None
    if rec.verdict == "unknown":
        return None
    g, t = spec["graph"], spec["target"]
    witness_error = _witness_ok(g, kind, rec)
    if witness_error:
        return witness_error
    guard = DEFAULT_GUARD_SET_STATE if kind in SET_STATE_KINDS else DEFAULT_GUARD_PREFIX
    if g.n <= guard:
        if rec.method == "exhaustive oracle":
            return None  # the answer is the oracle's; its witness was validated above
        truth, _ = is_endvertex_exhaustive(g, kind, t)
        if rec.verdict != ("yes" if truth else "no"):
            return f"answer {rec.verdict}, oracle says {'yes' if truth else 'no'}"
        return None
    if spec["label"].startswith("window"):
        fact = _window_fact(kind, g.n, t)
        if fact is None:
            return "unverified"
        return None if rec.verdict == fact else f"answer {rec.verdict}, expected {fact}"
    return "unverified"


def _witness_ok(g, kind, rec: Record) -> str | None:
    witness = rec.extra.get("witness")
    if witness is None:
        return None
    if witness[-1] != rec.target or validate_order(kind, g, list(witness)) != (True, None):
        return "witness order does not validate"
    return None
