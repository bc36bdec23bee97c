"""Benchmark for the endvertex library.

    python3 perfbench/run.py --workload cli-large|dispatch-desk|search-orders|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
./src).  Instances come from --seed.  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it installs span wrappers around
the library's public functions and reports per-layer metrics.  The last
line of output is one JSON object; exit status is 1 when any answer is
wrong.  Manifests and spans go to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("cli-large", "dispatch-desk", "search-orders")
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "queries_per_s": "1/s",
    "throughput_nm_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "share",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    s = sorted(values)
    x = q * (len(s) - 1)
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def end_to_end(loop, setup_s: float, peak_rss_mb: float) -> dict:
    """Times are at the reference speed (see harness): each query's
    latency times its speed factor.  Rates are per cycle, completed
    queries over the cycle's summed query time, and the run reports
    their median.  Latency percentiles pool the completed queries of all
    cycles; failures show in success_rate (a failed query has no finite
    latency)."""
    rates = []
    for records in loop.rounds:
        busy = sum(r.ref_latency_s for r in records)
        done = [r for r in records if r.status == "ok"]
        rates.append((len(done) / busy, sum(r.n + r.m for r in done) / busy))
    timed = [r for records in loop.rounds for r in records]
    lat_ms = [r.ref_latency_s * 1e3 for r in timed if r.status == "ok"] or [float("nan")]
    values = {
        "setup_s": setup_s,
        "queries_per_s": statistics.median(q for q, _ in rates),
        "throughput_nm_per_s": statistics.median(t for _, t in rates),
        "latency_p50_ms": _quantile(lat_ms, 0.5),
        "latency_p90_ms": _quantile(lat_ms, 0.9),
        "success_rate": sum(r.status == "ok" for r in timed) / max(len(timed), 1),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def raw_latency(loop) -> tuple[float, float, float]:
    """Measured p50 and p90 latency (ms) and median machine speed factor."""
    done = [r for records in loop.rounds for r in records if r.status == "ok"]
    lat_ms = [r.latency_s * 1e3 for r in done] or [float("nan")]
    speeds = [r.speed for records in loop.rounds for r in records] or [float("nan")]
    return _quantile(lat_ms, 0.5), _quantile(lat_ms, 0.9), statistics.median(speeds)


def per_layer(loop, tracer, import_s: float) -> dict:
    """Per-layer metrics of the traced cycles, per cycle."""
    from spans import SPAN_NAMES, class_used, recognizer_calls, self_times

    cycles = max(loop.traced_cycles, 1)
    totals = self_times(tracer.spans)
    out = {"cli.import_s": (import_s, "s")}
    for name in SPAN_NAMES:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = (self_s / cycles, "s")
        out[f"{name}.calls"] = (calls / cycles, "count")
    traced = [r for r in loop.records if r.traced]
    useful = attempts = 0
    for r in traced:
        classes = recognizer_calls(tracer.spans, r.qid)
        used = class_used(r.method, r.detail)
        attempts += len(classes)
        useful += sum(c == used for c in classes)
    dispatched = [r for r in traced if r.method not in (None, "randomized probe")]
    out["recognize.useful_ratio"] = (useful / attempts if attempts else 0.0, "share")
    out["deciders.oracle_share"] = (
        sum(r.method == "exhaustive oracle" for r in dispatched) / len(dispatched)
        if dispatched else 0.0, "share")
    out["deciders.unknown_share"] = (
        sum(r.verdict == "unknown" for r in traced) / len(traced) if traced else 0.0, "share")
    # Tracing overhead: pool cycle 0 ran untraced, then again traced.
    first = [r for r in loop.records if not r.traced]
    again = traced[:len(first)]
    pairs = [(b.latency_s - a.latency_s) * 1e3 for a, b in zip(first, again)
             if a.status == b.status == "ok"]
    out["trace.overhead_ms"] = (statistics.fmean(pairs) if pairs else 0.0, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run_one(args, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    start = perf_counter()
    import endvertex.cli  # noqa: F401  (timed: the in-process import cost)
    import_s = perf_counter() - start
    import numpy

    from harness import Calibrator, run_cycles
    from spans import Tracer

    workload = __import__(args.workload.replace("-", "_"))
    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-seed{args.seed}"
    calibrator = Calibrator()
    setups = []  # seconds at the reference speed
    for _ in range(workload.SETUP_REPEATS):
        calibrator.sample(force=True)
        t0 = perf_counter()
        state = workload.setup(args.seed, root, work)
        t1 = perf_counter()
        calibrator.sample(force=True)
        setups.append((t1 - t0) * calibrator.speed(t0, t1))
    tracer = Tracer() if args.trace else None
    baseline = workload.setup(args.seed, root, work) if args.trace else None
    loop = run_cycles(workload, state, args.seconds, calibrator, tracer, baseline)
    coverage = workload.check(state, loop.records)

    if args.workload == "cli-large":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.trace:
            import_s = statistics.median(state.import_s) if state.import_s else 0.0
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        metrics = per_layer(loop, tracer, import_s)
    else:
        metrics = end_to_end(loop, statistics.median(setups), peak_kb / 1024)

    attempted = len(loop.records)
    failed = sum(r.status != "ok" for r in loop.records)
    wrong = [r for r in loop.records if r.status == "wrong"]
    unknown = sum(r.verdict == "unknown" for r in loop.records)

    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": _commit(root), "setup_runs_s": setups,
        "reference_kernel_s": calibrator.samples,
        "aborted": loop.aborted, "coverage": coverage, "metrics": metrics,
        "instances": workload.manifest(state),
        "queries": [{"qid": r.qid, "cycle": r.cycle, "slot": r.slot, "label": r.label,
                     "n": r.n, "m": r.m, "kind": r.kind, "target": r.target,
                     "traced": r.traced, "latency_s": r.latency_s, "speed": r.speed,
                     "status": r.status,
                     "verdict": r.verdict, "method": r.method, "error": r.error}
                    for r in loop.records],
    }
    stem.with_suffix(".json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"queries {attempted}  failed {failed}  wrong {len(wrong)}"
          f"{'  traced cycles ' + str(loop.traced_cycles) if args.trace else ''}"
          f"{'  ABORTED at run limit' if loop.aborted else ''}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        p50, p90, speed = raw_latency(loop)
        print(f"  {'measured latency p50 / p90':<44} {p50:>14.6g} / {p90:.6g} ms"
              f"  (median speed factor {speed:.3f})")
    print(f"  {'error_rate':<44} {failed / max(attempted, 1):>14.6g} share (failed / attempted)")
    print(f"  {'unknown_rate':<44} {unknown / max(attempted, 1):>14.6g} share (unknown / attempted)")
    print(f"  answers checked {coverage['verified']}, beyond every check {coverage['unverified']}")
    if args.trace and args.workload == "cli-large":
        _print_query_counts(tracer)
    for r in loop.records:
        if r.status != "ok" and r.cycle == 0 and not r.traced:
            print(f"  {r.status}: {r.label} ({r.kind}): {r.error}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


def _print_query_counts(tracer) -> None:
    """Deterministic per-query call counts of the first traced query."""
    first = min((s[4] for s in tracer.spans), default=None)
    counts: dict[str, int] = {}
    for s in tracer.spans:
        if s[4] == first:
            counts[s[0]] = counts.get(s[0], 0) + 1
    shown = ", ".join(f"{k}={counts.get(k, 0)}" for k in
                      ("graph.is_connected", "chordal.mcs_order", "chordal.peo_violation"))
    print(f"  calls in the first traced query (window, --class chordal, mns): {shown}")


def run_all(args, root: Path) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=root)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "endvertex" / "__init__.py").is_file():
        _fail("run from the root of an endvertex checkout (src/endvertex not found)")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    return run_all(args, root) if args.workload == "all" else run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
