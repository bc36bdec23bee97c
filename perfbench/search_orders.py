"""search-orders: in-process run_search / validate_order round trips.

Each query generates an order with one search kind and one tie-break
policy, validates it under its own kind and under the kind above it in
the search hierarchy, and validates a planted order whose first
violation is known.  This is all `search` plus the bitmask side of
`graph`; no recognizer or decider runs.  Kinds whose round trip uses
the MNS rule (MNS itself, and MCS validated as MNS) run on the n = 300
members of each family, because that rule is cubic today.
"""

from __future__ import annotations

import random
from time import perf_counter

import instances
from harness import QueryTimeout, Record, time_limit

import endvertex as ev  # timed calls go through the package, where the tracer wraps them
from endvertex import FixedPreference, Graph, LowestId, SearchKind, SeededRandom

SETUP_REPEATS = 5
POOL_CYCLES = 6
K = SearchKind
# The kind each order is also validated under: every LBFS order is a BFS
# order, every MCS order an MNS order, and so on up to generic search.
ABOVE = {K.LBFS: K.BFS, K.LDFS: K.DFS, K.MCS: K.MNS, K.MNS: K.GENERIC,
         K.BFS: K.GENERIC, K.DFS: K.GENERIC, K.GENERIC: None}
SMALL_KINDS = (K.MCS, K.MNS)
FAMILIES = ("window", "sparse", "chordal")
POLICIES = ("lowest", "random", "preference")


class State:
    def __init__(self, graphs: dict, preference: dict, pool: list[list[dict]]):
        self.graphs = graphs
        self.preference = preference
        self.pool = pool


def _family(rng: random.Random, name: str, n: int) -> Graph:
    if name == "window":
        made = instances.window(n)
    elif name == "sparse":
        made = instances.sparse_connected(rng, n, 8)
    else:
        made = instances.random_chordal(rng, n)[:2]
    return Graph.from_edges(*made)


def setup(seed: int, root, work) -> State:
    rng = random.Random(seed)
    graphs, preference = {}, {}
    for name in FAMILIES:
        for n in (1000, 300):
            g = _family(rng, name, n)
            graphs[(name, n)] = g
            order = list(range(n))
            rng.shuffle(order)
            preference[(name, n)] = FixedPreference(tuple(order))
    pool = []
    for c in range(POOL_CYCLES):
        specs = []
        for name in FAMILIES:
            for kind in K:
                slot = len(specs)
                n = 300 if kind in SMALL_KINDS else 1000
                g = graphs[(name, n)]
                specs.append({"label": f"{name}-{n}-{kind.value}", "family": (name, n),
                              "kind": kind, "n": n, "m": g.m,
                              "policy": POLICIES[(slot + c) % len(POLICIES)],
                              "policy_seed": rng.randrange(1 << 30),
                              "plant_at": rng.uniform(0.2, 0.6)})
        pool.append(specs)
    return State(graphs, preference, pool)


def manifest(state: State) -> list[dict]:
    return [{"cycle": c, "label": s["label"], "n": s["n"], "m": s["m"], "kind": s["kind"].value,
             "policy": s["policy"], "target": None}
            for c, specs in enumerate(state.pool) for s in specs]


def cycle(state: State, index: int) -> list[dict]:
    return state.pool[index % POOL_CYCLES]


def plant_violation(g: Graph, order: list[int], at: float) -> tuple[list[int], int]:
    """Move a vertex with no neighbour in the first p-1 vertices of a
    valid order to position p (1-based).  The first p-1 steps stay
    valid and no search may visit a vertex without a visited neighbour,
    so the first violation is exactly at p."""
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    p = max(2, int(at * n))
    while p >= 2:
        for v in reversed(order[p - 1:]):
            if all(pos[w] >= p - 1 for w in g.adj[v]):
                rest = [w for w in order[p - 1:] if w != v]
                return order[:p - 1] + [v] + rest, p
        p -= 1
    raise ValueError("no vertex to plant")  # a connected graph on >= 3 vertices always has one


def execute(state: State, spec: dict, cycle_no: int, slot: int, qid: int,
            tracer, limit: float) -> Record:
    kind = spec["kind"]
    g = state.graphs[spec["family"]]
    rec = Record(qid, cycle_no % POOL_CYCLES, slot, spec["label"], spec["n"], spec["m"],
                 kind.value, None, tracer is not None)
    rec.extra["policy"] = spec["policy"]
    policy = {"lowest": LowestId(), "random": SeededRandom(spec["policy_seed"]),
              "preference": state.preference[spec["family"]]}[spec["policy"]]
    if tracer is not None:
        tracer.query = qid
    begin = perf_counter()
    try:
        with time_limit(limit):
            start = begin
            order = ev.run_search(kind, g, policy=policy)
            own = ev.validate_order(kind, g, order)
            above = ev.validate_order(ABOVE[kind], g, order) if ABOVE[kind] else (True, None)
            elapsed = perf_counter() - start
            planted, position = plant_violation(g, order, spec["plant_at"])
            start = perf_counter()
            found = ev.validate_order(kind, g, planted)
            elapsed += perf_counter() - start
    except QueryTimeout:
        rec.latency_s = perf_counter() - begin
        rec.fail(f"timeout after {limit:.1f} s")
        return rec
    except Exception as exc:  # any library error fails this query, not the run
        rec.latency_s = perf_counter() - begin
        rec.fail(f"{type(exc).__name__}: {exc}"[:200])
        return rec
    finally:
        if tracer is not None:
            tracer.query = None
    rec.latency_s = elapsed
    if sorted(order) != list(range(g.n)):
        rec.wrong("run_search did not return a permutation")
    elif own != (True, None):
        rec.wrong(f"own {kind.value} order rejected at {own[1]}")
    elif above != (True, None):
        rec.wrong(f"{kind.value} order rejected as {ABOVE[kind].value} at {above[1]}")
    elif found != (False, position):
        rec.wrong(f"planted violation at {position}, validator reported {found}")
    return rec


def check(state: State, records: list[Record]) -> dict:
    """Every round trip is checked as it returns."""
    return {"verified": sum(r.status != "failed" for r in records), "unverified": 0}
