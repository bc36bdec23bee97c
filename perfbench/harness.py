"""Closed-loop query runner shared by the workloads.

One client sends one query at a time.  A workload is a fixed list of
query slots (a cycle); the seed changes the instances in each slot,
never the list, so runs on different seeds do the same mix of work.
Whole cycles run until the measuring time is spent.  Every query has a
time limit, and the run as a whole has one, so a pathology is recorded
as a failed query instead of hanging the run.

The machines this runs on are shared, and their speed drifts by 20-40 %
over tens of seconds, far more than one run can average out.  So the
harness times a fixed pure-Python reference kernel at least once a
second between queries, and each query also carries the speed factor
REF_KERNEL_S / (median kernel time around it): multiplying a latency by it
gives the latency at the reference speed, the kernel's time on the
machine the baselines were taken on.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

QUERY_LIMIT_S = 12.0   # longest a single query may run (2.5x the slowest one that completes)
RUN_LIMIT_S = 120.0    # no query starts after this much measuring time
CALIBRATE_EVERY_S = 1.0
SMOOTH_S = 10.0        # a query's speed factor uses the kernel samples this close to it
REF_KERNEL_S = 0.005   # the reference kernel's time on the baseline machine


@dataclass
class Record:
    qid: int
    cycle: int          # pool cycle the instance came from
    slot: int
    label: str
    n: int
    m: int
    kind: str
    target: int | None
    traced: bool
    latency_s: float = 0.0
    status: str = "ok"  # ok | failed | wrong
    verdict: str | None = None
    method: str | None = None
    detail: str | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    speed: float = 1.0  # REF_KERNEL_S / reference-kernel time around this query

    @property
    def ref_latency_s(self) -> float:
        return self.latency_s * self.speed

    def fail(self, why: str) -> None:
        self.status = "failed"
        self.error = why

    def wrong(self, why: str) -> None:
        self.status = "wrong"
        self.error = why


class QueryTimeout(BaseException):
    """Raised by the interval timer inside an in-process query.  A
    BaseException, so the library's own ``except Exception`` handlers
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


@contextmanager
def time_limit(seconds: float):
    """Interrupt the enclosed in-process computation after `seconds`."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Calibrator:
    """Times a fixed reference kernel: breadth-first search from three
    sources over a fixed 3000-vertex graph held as frozensets, the same
    kind of work the library does.  It calls no library code, and runs
    with the cyclic collector paused so that the library's heap does not
    slow it; a sample is the fastest of three runs."""

    def __init__(self):
        rng = random.Random(0)
        n = 3000
        adj: list[set[int]] = [set() for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        for _ in range(6000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self._adj = [frozenset(a) for a in adj]
        self.times: list[float] = []    # when each sample ended
        self.samples: list[float] = []  # kernel seconds

    def _kernel(self) -> None:
        adj = self._adj
        for source in (0, 1000, 2000):
            seen = bytearray(len(adj))
            seen[source] = 1
            queue = [source]
            for v in queue:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = 1
                        queue.append(w)

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless it ran less than CALIBRATE_EVERY_S ago."""
        if not force and self.times and perf_counter() - self.times[-1] < CALIBRATE_EVERY_S:
            return
        runs = []
        gc.disable()
        try:
            for _ in range(3):
                start = perf_counter()
                self._kernel()
                runs.append(perf_counter() - start)
        finally:
            gc.enable()
        self.times.append(perf_counter())
        self.samples.append(min(runs))

    def speed(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the median kernel time sampled from
        SMOOTH_S before `start` to SMOOTH_S after `end` (or the nearest
        sample, if none falls in that window)."""
        lo = bisect.bisect_left(self.times, start - SMOOTH_S)
        hi = bisect.bisect_right(self.times, end + SMOOTH_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return REF_KERNEL_S / statistics.median(near)


@dataclass
class Loop:
    records: list[Record]
    rounds: list[list[Record]]  # records of each untraced cycle
    traced_cycles: int
    aborted: bool


def run_cycles(workload, state, seconds: float, calibrator: Calibrator, tracer=None,
               baseline=None) -> Loop:
    """Run whole cycles until `seconds` have passed.

    Untraced: pool cycles 0, 1, 2, ...  Traced: pool cycle 0 of
    `baseline`, a second set-up from the same seed, runs untraced (the
    baseline for the tracing overhead; a fresh copy, so that values the
    library caches on its graphs do not carry over), then the tracer is
    installed and pool cycles 0, 1, 2, ... of `state` run traced.
    """
    records: list[Record] = []
    rounds: list[list[Record]] = []
    spans: list[tuple[float, float]] = []
    start = perf_counter()
    hard_stop = start + RUN_LIMIT_S
    traced_cycles = 0
    aborted = False
    for step in itertools.count():
        traced = tracer is not None and step > 0
        cycle = step - 1 if traced else step
        source = (baseline or state) if tracer is not None and step == 0 else state
        if traced and cycle == 0:
            tracer.install()
        first = len(records)
        for slot, spec in enumerate(workload.cycle(source, cycle)):
            calibrator.sample()
            now = perf_counter()
            if now >= hard_stop:
                aborted = True
                break
            records.append(workload.execute(source, spec, cycle, slot, len(records),
                                            tracer if traced else None,
                                            min(QUERY_LIMIT_S, hard_stop - now)))
            spans.append((now, perf_counter()))
        if traced:
            traced_cycles += 1
        else:
            rounds.append(records[first:])
        if aborted or (perf_counter() - start >= seconds and (tracer is None or traced_cycles)):
            break
    calibrator.sample(force=True)
    for rec, (begin, end) in zip(records, spans):
        rec.speed = calibrator.speed(begin, end)
    return Loop(records, rounds, traced_cycles, aborted)
