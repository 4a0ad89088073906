"""Shared pieces of the stack benchmark: paths, percentiles, failure
accounting, result digests, memory readings and the span tracer.

Nothing here imports the program under test at module level, so the
self-tests and the launcher can import it before ``src/`` is on the
path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space for caches, traces and launcher reports.  It lives
#: inside the checkout (and is git-ignored): the benchmark writes
#: nowhere else.
RUNS_DIR = ROOT / ".stackbench"


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` and ``benchmarks/`` on the import
    path; exit 2 when the checkout does not hold the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT / "benchmarks"), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10
#: The tail percentile never goes past p99.
TAIL_CAP = 99.0


def tail_percentile(n: int) -> float | None:
    """The highest percentile (capped at p99, floored to 0.1) that has
    at least :data:`TAIL_BEYOND` of ``n`` samples beyond it; ``None``
    when even the median would not."""
    if n < 2 * TAIL_BEYOND:
        return None
    p = math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0
    return min(TAIL_CAP, p)


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``; failed
    operations enter as ``inf`` and so rank as missing any limit."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return ordered[hi] if rank > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def latency_summary(seconds) -> dict:
    """Median and tail (see :func:`tail_percentile`) in milliseconds,
    with the sample count and the tail percentile used."""
    seconds = list(seconds)
    tail = tail_percentile(len(seconds)) or 50.0
    return {"n": len(seconds), "tail_pct": tail,
            "p50_ms": percentile(seconds, 50) * 1e3,
            "tail_ms": percentile(seconds, tail) * 1e3}


def median(values):
    return percentile(values, 50)


def fast_quartile(values, higher_is_better: bool = False):
    """The quartile of ``values`` at the fast end (the 25th percentile
    of times, the 75th of rates).

    Other tenants of a shared host slow it by up to ~1.6x for seconds
    at a time, so each timed quantity is sampled over several slices of
    a run and the fast quartile is reported: it ignores slices that a
    slow stretch hit as long as a quarter of them ran undisturbed, and
    it moves with the program's own speed like any other quantile."""
    return percentile(values, 75 if higher_is_better else 25)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`reference_task` takes on an undisturbed host (about
#: what a 2-vCPU Xeon VM takes); measured times are scaled to that speed.
NOMINAL_REFERENCE_S = 0.002


def reference_task() -> None:
    """A fixed piece of interpreter work that does not touch the program
    under test: integer arithmetic plus dict, sort and JSON traffic."""
    x = 0
    for i in range(15_000):
        x += i * i
    table = {(i, str(i)): [i, i + 1] for i in range(1_500)}
    ordered = sorted(table.items(), key=lambda kv: -kv[1][0])
    json.loads(json.dumps({str(k[0]): v for k, v in ordered[:500]}))


def host_slowness(repeats: int = 3) -> float:
    """How much slower than nominal the host runs right now: the
    fastest of ``repeats`` reference tasks over the nominal time."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - start)
    return best / NOMINAL_REFERENCE_S


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Attempted / succeeded / failed / refused operations per phase.

    ``failed`` covers errors, unverified results and wrong payloads;
    ``refused`` covers admission refusals (HTTP 429)."""

    phases: dict = field(default_factory=dict)

    def record(self, phase: str, attempted: int, failed: int = 0,
               refused: int = 0) -> None:
        row = self.phases.setdefault(
            phase, {"attempted": 0, "succeeded": 0, "failed": 0,
                    "refused": 0})
        row["attempted"] += attempted
        row["failed"] += failed
        row["refused"] += refused
        row["succeeded"] += attempted - failed - refused

    @property
    def attempted(self) -> int:
        return sum(row["attempted"] for row in self.phases.values())

    @property
    def failed(self) -> int:
        """Failed plus refused operations."""
        return sum(row["failed"] + row["refused"]
                   for row in self.phases.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def run_record(run) -> dict:
    """The modelled content of a :class:`KernelRun`: everything but the
    host-time field ``wall_seconds``."""
    stats = asdict(run.stats)
    stats["extra"] = {key: value for key, value in stats["extra"].items()
                      if key != "wall_seconds"}
    return {"kernel": run.kernel, "backend": run.backend,
            "verified": run.verified, "stats": stats}


def digest(runs) -> str:
    """sha256 prefix over the modelled content of ``runs`` in order."""
    h = hashlib.sha256()
    for run in runs:
        h.update(json.dumps(run_record(run), sort_keys=True,
                            default=repr).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def peak_rss_mb(children: bool = True) -> float:
    """Peak resident memory, in MiB, of the largest of this process and
    (unless ``children`` is false) its ended child processes: pool
    workers and set-up probes, each counted on its own, not summed."""
    who = [resource.RUSAGE_SELF]
    if children:
        who.append(resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, name, start, end, pid, tid, tag, meta)``;
    ``parent`` is the enclosing span of the same thread, ``tag`` a job
    or request id, ``meta`` the counts recorded at that boundary.
    Clock: ``time.perf_counter`` (system-wide monotonic on Linux, so
    worker spans share the parent's time axis).
    """

    def __init__(self, worker_dir: Path | None = None):
        self.spans: list[tuple] = []
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self):
        if os.getpid() != self.pid:
            # first span in a forked worker: drop the parent's spans
            self.spans, self.pid = [], os.getpid()
            self._local = threading.local()
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _end(self, opened, name, tag, meta) -> None:
        span_id, parent, start = opened
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, self.pid,
                           threading.get_ident(), tag, meta))

    def span(self, name: str):
        """A context manager recording one span; set its ``meta``
        attribute inside to attach counts."""
        return _Span(self, name)

    def wrap(self, owner, attr: str, name, tag=None, meta=None,
             on_result=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a string or ``f(args)``; ``tag(args)`` and
        ``meta(args, result)`` are optional.  ``on_result(result)``
        may replace the result (used to wrap returned functions);
        ``after()`` runs once the span is recorded."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            opened = tracer._begin()
            result = None
            try:
                result = original(*args, **kwargs)
                return (on_result(result) if on_result is not None
                        else result)
            finally:
                tracer._end(
                    opened, name(args) if callable(name) else name,
                    tag(args) if tag is not None else None,
                    meta(args, result) if meta is not None
                    and result is not None else None)
                if after is not None:
                    after()

        for key in ("__module__", "__qualname__", "__name__", "__doc__"):
            setattr(wrapper, key, getattr(original, key, None))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """Span a coroutine method from call to completion.  Coroutines
        interleave on one thread, so these spans take no parent and
        parent nothing."""
        original = owner.__dict__[attr]
        tracer = self

        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.spans.append(
                    (next(tracer._ids), None, name, start,
                     time.perf_counter(), tracer.pid,
                     threading.get_ident(), None, None))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- files ---------------------------------------------------------
    def dump(self, path: Path, mode: str = "w") -> None:
        """Write the spans as JSONL (``mode="a"`` appends)."""
        with path.open(mode) as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def load(self, path: Path) -> None:
        """Merge spans another process wrote with :meth:`dump`."""
        with path.open() as lines:
            self.spans.extend(tuple(json.loads(line))
                              for line in lines if line.strip())

    def flush_worker(self) -> None:
        """Append this worker's spans to its JSONL file and forget
        them (workers cannot hand spans back through the engine)."""
        if self.worker_dir is not None and self.spans:
            self.dump(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a")
            self.spans = []

    def collect_workers(self) -> None:
        """Merge the worker span files into this tracer."""
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            self.load(path)
            path.unlink()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name
        self.meta = None

    def __enter__(self):
        self.opened = self.tracer._begin()
        return self

    def __exit__(self, *exc_info):
        self.tracer._end(self.opened, self.name, None, self.meta)
        return False


def layer_table(spans) -> dict:
    """Per span name: calls, total seconds, self seconds (duration
    minus the direct children recorded in the same process), and the
    summed numeric ``meta`` fields.  Keys ``meta`` fields that are
    strings are collected as the set of distinct values."""
    children = defaultdict(float)
    for span in spans:
        _, parent, _, start, end, pid, _, _, _ = span
        if parent is not None:
            children[(pid, parent)] += end - start
    table: dict[str, dict] = {}
    for span in spans:
        span_id, _, name, start, end, pid, _, _, meta = span
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "meta": defaultdict(float),
                                      "distinct": defaultdict(set)})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - children[(pid, span_id)]
        for key, value in (meta or {}).items():
            if isinstance(value, str):
                row["distinct"][key].add(value)
            else:
                row["meta"][key] += value
    return table
