"""cli-large: sequential ``endvertex endvertex FILE --json`` processes on
graphs of 1e5 vertices, one child at a time.

Each query pays interpreter start-up and imports, parsing and graph
construction, the hinted class check and the decider; auto-detection
and run_search are bypassed.  Every expected answer is known from how
the instance was built.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import instances
from harness import Record

SETUP_REPEATS = 3
N = 100_000
CHILD = Path(__file__).with_name("cli_child.py")
PLAIN = "import sys; from endvertex.cli import main; sys.exit(main())"


class State:
    def __init__(self, root: Path, work: Path, queries: list[dict]):
        self.root = root
        self.work = work
        self.queries = queries
        self.import_s: list[float] = []


def _write(path: Path, n: int, edges: list) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in edges))
    return len(edges)


def setup(seed: int, root: Path, work: Path) -> State:
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    files = {"window": _write(work / "window.txt", *instances.window(N))}
    pendant = {}
    for name in ("chordal-a", "chordal-b"):
        n, edges, pendant[name] = instances.random_chordal(rng, N, pendant=True)
        files[name] = _write(work / f"{name}.txt", n, edges)
    n, edges, split_t = instances.split_nested(rng, N)
    files["split"] = _write(work / "split.txt", n, edges)

    def q(label, file, cls, kind, target, expected):
        return {"label": label, "file": file, "class": cls, "kind": kind,
                "target": target, "expected": expected, "n": N, "m": files[file]}

    # MNS end-vertices of a chordal graph are simplicial, and on a unit
    # interval graph they are exactly the simplicial t with G - N[t]
    # connected: the window's end vertices, not its inner ones.  A
    # pendant vertex is simplicial and N(t) holds one vertex, so its
    # minimal separators form a chain.  The split target sits above
    # nested neighbourhoods.  Each completing query has a twin on
    # another instance or target, so a cycle holds six answers for the
    # two that fail today.
    queries = [
        q("window-mns-last", "window", "chordal", "mns", N - 1, "yes"),
        q("window-mns-middle", "window", "chordal", "mns", N // 2, "no"),
        q("chordal-mns-pendant-a", "chordal-a", "chordal", "mns", pendant["chordal-a"], "yes"),
        q("split-mcs", "split", "split", "mcs", split_t, "yes"),
        q("window-mns-first", "window", "chordal", "mns", 0, "yes"),
        q("window-mns-third", "window", "chordal", "mns", N // 3, "no"),
        q("chordal-mns-pendant-b", "chordal-b", "chordal", "mns", pendant["chordal-b"], "yes"),
        q("window-ldfs-unit-interval", "window", "unit-interval", "ldfs", N - 1, "yes"),
    ]
    # Compile the library's bytecode once, as an installed package has
    # it, so that the first timed process does not pay for it.
    subprocess.run([sys.executable, "-c", "import endvertex.cli"], env=_child_env(root),
                   capture_output=True, timeout=60)
    return State(root, work, queries)


def _child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def manifest(state: State) -> list[dict]:
    return [{k: q[k] for k in ("label", "n", "m", "kind", "target", "class", "expected")}
            for q in state.queries]


def cycle(state: State, index: int) -> list[dict]:
    return state.queries


def execute(state: State, spec: dict, cycle_no: int, slot: int, qid: int,
            tracer, limit: float) -> Record:
    rec = Record(qid, cycle_no, slot, spec["label"], spec["n"], spec["m"], spec["kind"],
                 spec["target"], tracer is not None)
    args = ["endvertex", str(state.work / f"{spec['file']}.txt"), "--class", spec["class"],
            "--kind", spec["kind"], "--target", str(spec["target"]), "--json"]
    spans_path = state.work / "spans.json"
    if tracer is None:
        cmd = [sys.executable, "-c", PLAIN, *args]
    else:
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(spans_path), *args]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(state.root), capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        rec.latency_s = perf_counter() - start
        rec.fail(f"timeout after {limit:.0f} s")
        return rec
    rec.latency_s = perf_counter() - start
    if tracer is not None and spans_path.exists():
        traced = json.loads(spans_path.read_text(encoding="utf-8"))
        tracer.add(traced["spans"], qid)
        state.import_s.append(traced["import_s"])
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        rec.fail(f"exit {proc.returncode}: {last[0][:200]}")
        return rec
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        rec.wrong("output is not one JSON document")
        return rec
    rec.verdict, rec.method, rec.detail = doc.get("answer"), doc.get("method"), doc.get("detail")
    if rec.verdict != spec["expected"]:
        rec.wrong(f"answer {rec.verdict!r}, expected {spec['expected']!r}")
    return rec


def check(state: State, records: list[Record]) -> dict:
    """Answers are checked as each query returns; nothing is left."""
    return {"verified": sum(r.status != "failed" for r in records), "unverified": 0}
