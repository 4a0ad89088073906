"""Parallel, cached experiment execution engine.

Every simulation a figure/table/ablation needs is expressed as a
hashable :class:`SimJob` (kernel, workload source, sparsity pattern,
:class:`KernelOptions`, :class:`ProcessorConfig`).  The
:class:`ExperimentEngine` deduplicates jobs within a batch, memoises
results in-process and in an on-disk JSON cache keyed by a content
hash of the job, and fans cache misses out across a **persistent**
worker-process pool (falling back to in-process execution when a pool
cannot be created).  Result order is always the submission order, so
parallel and serial runs render bit-identical tables.

Dispatch path (fast to slow)::

    in-process memo -> cache LRU -> pack index -> simulate
    (persistent pool / in-process)

Pool rules
----------
* The pool is spawned lazily on the first parallel batch and **reused
  across** ``run()`` calls, so repeated-batch workloads (the tuner,
  ``repro bench``, figure regeneration) pay pool spin-up and module
  re-import exactly once.
* ``$REPRO_POOL_IDLE`` seconds after the last batch (default 60;
  ``<= 0`` disables reaping) an idle pool is reaped; the next batch
  respawns it transparently.  A pool broken mid-batch (a worker died)
  is respawned once; a second failure degrades to in-process
  execution, as do sandboxes without fork/semaphores.
* Workers receive **compact chunk payloads**: each chunk carries its
  referenced jobs once (shards addressed by job index), and shards of
  one multicore job are dealt round-robin across chunks so they are
  never serialised onto one worker.
* Workers memoise deterministic operand generation and compiled
  traces by content identity (see :mod:`repro.eval.memo`), so sweeps
  that vary only the schedule or shard fan-out of one job stop
  redoing identical work.  Memoisation is bit-exact: the memoised
  values are pure functions of the key.

Cache rules
-----------
* Location: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/sim``.
* Key: sha256 over the canonical JSON of the job plus
  :data:`CACHE_SCHEMA`; bump :data:`CACHE_SCHEMA` whenever a simulator
  change alters results, or delete the cache directory.
* One layout, an append-only **pack log**: per-process segment files
  under ``pack/`` hold the compact JSON payloads, and one shared
  manifest ``pack/index.jsonl`` maps key -> segment/offset/size/backend
  a line at a time, so a warm hit is one seek+read, with an in-memory
  LRU in front (``$REPRO_CACHE_LRU`` entries, default 256, ``0``
  disables it).  Concurrent engine processes append safely; each reads
  the others' appends off the manifest tail.  Unreadable/corrupted
  payloads count as misses and are re-simulated and re-appended.
* Per-file entries of earlier revisions (``xx/<key>.json``) are never
  read by lookups; ``repro cache --vacuum`` imports them once.

Environment knobs (read when the default engine is built):
``REPRO_JOBS`` (worker processes; ``0`` = one per CPU, default ``1``),
``REPRO_NO_CACHE`` (any non-empty value disables the disk cache),
``REPRO_POOL_IDLE``, ``REPRO_CACHE_LRU`` and
``REPRO_WORKER_MEMO`` (see above / :mod:`repro.eval.memo`).
``REPRO_BACKEND`` selects the timing backend when a job is built
without an explicit ``backend=`` (see :mod:`repro.arch.timing`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.arch.timing import resolve_backend
from repro.errors import EngineError
from repro.eval.memo import canonical, content_key, worker_memo
from repro.eval.planner import plan_batch
from repro.eval.runner import (
    CSR_KERNEL,
    KernelRun,
    ShardRun,
    merge_shard_runs,
    run_csr,
    run_csr_shard,
    run_spmm,
    run_spmm_shard,
)
from repro.kernels.builder import KernelOptions
from repro.kernels.compiler import Schedule
from repro.nn.models import get_model
from repro.nn.workload import ScalePolicy, make_layer_workload, make_workload

#: Bump whenever a simulator/workload change invalidates cached results.
#: Schema 2: timing backends — the backend is part of the job identity,
#: so cached ``detailed`` results can never answer ``compressed-replay``
#: runs (or vice versa).
#: Schema 3: schedule-driven kernel compiler — the full ``Schedule``
#: (including vlmax and B-tile residency, which the legacy
#: ``KernelOptions`` cannot express) joins the job identity, so the
#: autotuner's sweep points can never alias each other.
#: Schema 4: multi-core sharded simulation — ``Schedule`` grew
#: ``cores``/``shard`` fields (hashed via the schedule), and multicore
#: results carry merged makespan stats that single-core entries must
#: never answer.
#: Schema 5: batch-replay + analytic-sampled backends — the replay
#: bracket's pricing changed (pooled probes, regressed row-miss slope,
#: lead/trail/chunk defaults), so compressed-replay cycles differ from
#: schema 4; analytic jobs additionally fold the active calibration
#: table's digest into the hash, so a refit can never be answered by
#: stale predictions.
#: (The pack log did NOT bump the schema: the JSON payload is
#: unchanged, only its framing is new.)
CACHE_SCHEMA = 5


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sim"


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise EngineError(f"{name}={raw!r} is not a number") from None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise EngineError(f"{name}={raw!r} is not an integer") from None


# ======================================================================
# Jobs
# ======================================================================
@dataclass(frozen=True)
class SimJob:
    """One simulation, described by value (no arrays — workers rebuild
    the operands deterministically from this spec, and the spec is what
    gets content-hashed for the disk cache).

    The workload comes from exactly one source: a named CNN layer
    (``model``/``layer``/``policy``) or an explicit synthetic GEMM
    (``shape``/``seed``).
    """

    kernel: str
    nm: tuple[int, int]
    options: KernelOptions = KernelOptions()
    config: ProcessorConfig = field(
        default_factory=ProcessorConfig.scaled_default)
    verify: bool = True
    #: Timing backend name (part of the cache identity: a detailed
    #: result must never be served for a compressed-replay job).
    #: ``None`` resolves via ``$REPRO_BACKEND``, default ``detailed``.
    backend: str | None = None
    # -- workload source A: a (scaled) CNN layer GEMM.  The policy is
    # carried by value, so custom (unregistered) policies work and two
    # policies sharing a name can never alias in the cache.
    model: str | None = None
    layer: str | None = None
    policy: ScalePolicy | None = None
    # -- workload source B: an explicit synthetic GEMM
    shape: tuple[int, int, int] | None = None  #: (rows, k, n)
    seed: int | None = None
    #: Full kernel schedule (part of the cache identity).  ``None``
    #: lifts ``options``; when given, ``options`` is overwritten with
    #: its legacy projection so the two can never disagree in the hash.
    schedule: Schedule | None = None

    def __post_init__(self):
        # resolve (and validate) the backend eagerly so the content
        # hash always sees a concrete name, however the job was built
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        if self.schedule is None:
            # options may itself be a full Schedule (direct construction
            # mirrors the classmethods): promote it verbatim so
            # vlmax/b_residency are never silently dropped
            if isinstance(self.options, Schedule):
                object.__setattr__(self, "schedule", self.options)
            else:
                object.__setattr__(self, "schedule",
                                   Schedule.from_options(self.options))
        object.__setattr__(self, "options", self.schedule.to_options())
        if self.schedule.shard is not None:
            raise EngineError(
                "SimJob describes a whole kernel execution; shard "
                "selection (schedule.shard) is an engine-internal "
                "execution detail — set cores=N and leave shard=None")
        layer_src = (self.model, self.layer, self.policy)
        shape_src = (self.shape, self.seed)
        if not ((all(v is not None for v in layer_src)
                 and all(v is None for v in shape_src))
                or (all(v is None for v in layer_src)
                    and all(v is not None for v in shape_src))):
            raise EngineError(
                "SimJob needs exactly one workload source: either "
                "model+layer+policy or shape+seed")

    @staticmethod
    def _split_options(options, schedule):
        """Let ``options`` carry a full Schedule (the tuner hands its
        sweep points straight to the job constructors)."""
        if isinstance(options, Schedule):
            if schedule is not None and schedule != options:
                raise EngineError(
                    "conflicting schedules: options carries a Schedule "
                    "that differs from schedule=")
            return KernelOptions(), options
        return options or KernelOptions(), schedule

    @classmethod
    def for_layer(cls, model: str, layer: str, nm: tuple[int, int],
                  policy: ScalePolicy, kernel: str,
                  options: KernelOptions | Schedule | None = None,
                  config: ProcessorConfig | None = None,
                  verify: bool = True,
                  backend: str | None = None,
                  schedule: Schedule | None = None) -> "SimJob":
        options, schedule = cls._split_options(options, schedule)
        return cls(kernel=kernel, nm=tuple(nm), options=options,
                   config=config or ProcessorConfig.scaled_default(),
                   verify=verify, backend=backend,
                   model=model, layer=layer, policy=policy,
                   schedule=schedule)

    @classmethod
    def for_shape(cls, rows: int, k: int, n: int, nm: tuple[int, int],
                  kernel: str, seed: int = 0,
                  options: KernelOptions | Schedule | None = None,
                  config: ProcessorConfig | None = None,
                  verify: bool = True,
                  backend: str | None = None,
                  schedule: Schedule | None = None) -> "SimJob":
        options, schedule = cls._split_options(options, schedule)
        return cls(kernel=kernel, nm=tuple(nm), options=options,
                   config=config or ProcessorConfig.scaled_default(),
                   verify=verify, backend=backend,
                   shape=(rows, k, n), seed=seed, schedule=schedule)


def job_hash(job: SimJob) -> str:
    """Stable content hash of a job (identical across processes)."""
    payload = {"schema": CACHE_SCHEMA, "job": canonical(job)}
    if job.backend == "analytic-sampled":
        # an analytic prediction is a function of the calibration table,
        # not just the job: refitting must invalidate cached predictions
        from repro.analytic.calibration import active_digest
        payload["calibration"] = active_digest()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def operand_identity(job: SimJob) -> str:
    """Content identity of a job's deterministic operand generation.

    Deliberately *narrower* than :func:`job_hash`: two jobs that differ
    only in schedule (beyond ``tile_rows``, which pads K), backend,
    kernel or config share their (A, B) operands — the worker-side memo
    keys on this, so tuner sweeps and shard fan-outs of one workload
    generate the operands once per process.
    """
    return content_key({
        "model": job.model, "layer": job.layer,
        "policy": canonical(job.policy),
        "nm": list(job.nm),
        "shape": list(job.shape) if job.shape is not None else None,
        "seed": job.seed,
        "tile_rows": job.schedule.tile_rows,
    })


def trace_identity(job: SimJob) -> str:
    """Content identity of a job's staged-operand layout.

    Staging is deterministic (a fresh simulated memory allocates
    sequentially), so the compiled trace is a pure function of
    (operands, config, kernel, schedule); the runner keys its per-worker
    trace memo on this identity plus the kernel and shard schedule.
    """
    return content_key({"operands": operand_identity(job),
                        "config": canonical(job.config)})


def _build_operands(job: SimJob):
    if job.model is not None:
        layer = next((l for l in get_model(job.model)
                      if l.name == job.layer), None)
        if layer is None:
            raise EngineError(
                f"model {job.model!r} has no layer {job.layer!r}")
        workload = make_layer_workload(layer, *job.nm, policy=job.policy,
                                       tile_rows=job.schedule.tile_rows)
        a, b = workload.a, workload.b
    else:
        rows, k, n_cols = job.shape
        rng = np.random.default_rng(job.seed)
        a, b = make_workload(rows, k, n_cols, *job.nm, rng,
                             tile_rows=job.schedule.tile_rows)
    # memoised operands are shared across runs: freeze the dense side so
    # an accidental in-place mutation fails loudly instead of silently
    # corrupting every later run of the same workload
    b.setflags(write=False)
    return a, b


def job_operands(job: SimJob):
    """Rebuild the (A, B) operands of a job deterministically.

    Memoised per process by :func:`operand_identity` — callers must
    treat the returned arrays as read-only."""
    return worker_memo("operands", 8).get(
        operand_identity(job), lambda: _build_operands(job))


def execute_job(job: SimJob) -> KernelRun:
    """Run one job to completion (multicore jobs fan in sequentially).

    This is the whole-job worker entry point; the engine's pool path
    additionally shards multicore jobs across workers via
    :func:`execute_shard_job` + :func:`finish_multicore_job`, with
    bit-identical results.
    """
    a, b = job_operands(job)
    memo_key = trace_identity(job)
    if job.kernel == CSR_KERNEL:
        return run_csr(a, b, config=job.config, verify=job.verify,
                       backend=job.backend, schedule=job.schedule,
                       memo_key=memo_key)
    return run_spmm(a, b, job.kernel, schedule=job.schedule,
                    config=job.config, verify=job.verify,
                    backend=job.backend, memo_key=memo_key)


def execute_shard_job(job: SimJob, shard: int) -> ShardRun:
    """Run one core's shard of a multicore job (worker entry point)."""
    a, b = job_operands(job)
    memo_key = trace_identity(job)
    if job.kernel == CSR_KERNEL:
        return run_csr_shard(a, b, job.schedule, shard, config=job.config,
                             backend=job.backend, memo_key=memo_key)
    return run_spmm_shard(a, b, job.kernel, job.schedule, shard,
                          config=job.config, backend=job.backend,
                          memo_key=memo_key)


def finish_multicore_job(job: SimJob, shards) -> KernelRun:
    """Merge a multicore job's shard results (stitch C, verify, merge
    per-core cycle streams into makespan + aggregated counters)."""
    a = b = None
    if job.verify:
        a, b = job_operands(job)
    return merge_shard_runs(job.kernel, shards, job.backend,
                            a=a, b=b, verify=job.verify)


def _execute_task(task) -> "KernelRun | ShardRun":
    """In-process entry point: a task is (job, shard) with shard=None
    meaning the whole job."""
    job, shard = task
    if shard is None:
        return execute_job(job)
    return execute_shard_job(job, shard)


def _execute_chunk(jobs, tasks):
    """Pool entry point: run one chunk of (job-index, shard) tasks
    against the chunk's deduplicated job table.

    The payload is compact by construction — each referenced job is
    pickled once per chunk however many of its shards the chunk holds —
    and the reply leads with the worker's pid so the engine can record
    where each shard actually ran (``ExperimentEngine.last_dispatch``).
    """
    return os.getpid(), [_execute_task((jobs[index], shard))
                         for index, shard in tasks]


def _worker_ping(linger: float) -> int:
    """Pool warm-up probe: hold the worker briefly so concurrent pings
    fan out across distinct processes, then report the pid."""
    time.sleep(linger)
    return os.getpid()


def _chunk_tasks(jobs, tasks, n_chunks):
    """Deal ``tasks`` (``(job_index, shard)`` pairs) round-robin into at
    most ``n_chunks`` compact chunk payloads.

    Shards of one multicore job occupy consecutive task slots, so the
    round-robin deal puts them in distinct chunks whenever ``n_chunks``
    is at least the job's core count — the pool then simulates them on
    distinct workers instead of serialising them through one.  Each
    payload is ``(chunk_jobs, chunk_tasks, originals)``: the jobs the
    chunk references (each exactly once), the tasks re-indexed against
    that local table, and the original tasks for reassembly.
    """
    dealt = [[] for _ in range(max(1, n_chunks))]
    for position, task in enumerate(tasks):
        dealt[position % len(dealt)].append(task)
    payloads = []
    for chunk in dealt:
        if not chunk:
            continue
        local_index: dict[int, int] = {}
        chunk_jobs = []
        chunk_tasks = []
        for job_index, shard in chunk:
            if job_index not in local_index:
                local_index[job_index] = len(chunk_jobs)
                chunk_jobs.append(jobs[job_index])
            chunk_tasks.append((local_index[job_index], shard))
        payloads.append((tuple(chunk_jobs), tuple(chunk_tasks),
                         tuple(chunk)))
    return payloads


# ======================================================================
# On-disk result cache
# ======================================================================
#: Advisory lockfile guarding offline cache maintenance (lives inside
#: the cache root, beside ``pack/``).
CACHE_LOCK_NAME = ".lock"


def acquire_cache_lock(root: Path, exclusive: bool = False):
    """Take the cache directory's advisory lock; returns a handle for
    :func:`release_cache_lock` (or ``None`` where unsupported).

    Online users of a cache directory (an :class:`~repro.serve.service.
    ExperimentService` for its whole lifetime) hold the lock *shared* —
    many processes may store into one cache concurrently, that is a
    supported sharing model.  Offline maintenance
    (:meth:`ResultCache.vacuum`) takes it *exclusive*, non-blocking:
    if any live holder exists the vacuum fails with a clean
    :class:`EngineError` instead of racing concurrent manifest appends.

    On platforms without ``fcntl`` (or filesystems rejecting ``flock``)
    the lock degrades to a no-op ``None`` handle — the historical,
    unguarded behaviour.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-posix
        return None
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        handle = open(root / CACHE_LOCK_NAME, "a+")
    except OSError:
        return None
    try:
        if exclusive:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise EngineError(
                    f"cache {root} is in use (another process holds "
                    f"{root / CACHE_LOCK_NAME}, e.g. a live experiment "
                    "server): stop it before running offline "
                    "maintenance like `repro cache --vacuum`") from None
        else:
            fcntl.flock(handle, fcntl.LOCK_SH)
    except EngineError:
        raise
    except OSError:  # pragma: no cover - exotic filesystems
        handle.close()
        return None
    return handle


def release_cache_lock(handle) -> None:
    """Release a lock from :func:`acquire_cache_lock` (None-safe)."""
    if handle is not None:
        try:
            handle.close()  # closing the fd drops the flock
        except OSError:  # pragma: no cover
            pass


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed store of :class:`KernelRun` results.

    One layout, the append-only **pack log** under ``pack/``:
    per-process segment files (``*.seg``) of concatenated compact-JSON
    payloads, plus one shared manifest ``pack/index.jsonl`` of
    key -> segment/offset/size/backend lines.  :meth:`store` appends
    the payload to this instance's segment, then one manifest line, so
    a manifest line never names bytes that are not yet written.  In
    front of it sits an in-memory LRU of decoded runs
    (``$REPRO_CACHE_LRU`` entries, default 256): a repeat hit costs a
    dict lookup, an LRU miss one seek+read, and :meth:`load_many`
    batches a whole key set per segment.

    The manifest is read incrementally from a remembered byte offset,
    up to its last complete line (a torn tail is picked up once it is
    completed).  A lookup with index misses re-reads the tail once
    before reporting them, which is how a long-lived engine or server
    sees results other processes appended.  Entries in the per-file
    layout of earlier revisions (``xx/<key>.json``) are never read by
    lookups: :meth:`vacuum` imports them once.
    """

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._lru_capacity = max(0, _env_int("REPRO_CACHE_LRU", 256))
        self._lru: OrderedDict[str, KernelRun] = OrderedDict()
        #: guards the LRU, the index and the manifest offset — the serve
        #: layer probes the cache from the event-loop thread while the
        #: dispatcher thread stores results into the same instance
        self._lock = threading.Lock()
        self._index: dict[str, tuple[str, int, int, str]] = {}
        #: bytes of the manifest folded into ``_index``, and the inode
        #: they were read from (a vacuum replaces the manifest)
        self._manifest_offset = 0
        self._manifest_inode: int | None = None
        self._segment: str | None = None  #: this instance's pack segment

    # -- paths ---------------------------------------------------------
    @property
    def pack_dir(self) -> Path:
        return self.root / "pack"

    @property
    def manifest_path(self) -> Path:
        return self.pack_dir / "index.jsonl"

    def legacy_entries(self) -> list[Path]:
        """Per-file entries of earlier revisions awaiting import by
        :meth:`vacuum` (sorted)."""
        return sorted(self.root.glob("??/*.json"))

    # -- the manifest --------------------------------------------------
    def _refresh(self) -> None:
        """Fold manifest lines appended since the last read into the
        index (caller holds ``_lock``)."""
        try:
            with open(self.manifest_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if (stat.st_ino != self._manifest_inode
                        or stat.st_size < self._manifest_offset):
                    # first read, or a vacuum rewrote the manifest
                    self._index = {}
                    self._manifest_offset = 0
                    self._manifest_inode = stat.st_ino
                handle.seek(self._manifest_offset)
                tail = handle.read()
        except OSError:
            return
        complete = tail.rfind(b"\n") + 1
        for line in tail[:complete].splitlines():
            try:
                rec = json.loads(line)
                self._index[rec["k"]] = (rec["s"], int(rec["o"]),
                                         int(rec["n"]), rec["b"])
            except (ValueError, KeyError, TypeError):
                continue  # corrupt line: skip, don't fail
        self._manifest_offset += complete

    def _current_index(self) -> dict[str, tuple[str, int, int, str]]:
        """A snapshot of the index after reading the manifest tail."""
        with self._lock:
            self._refresh()
            return dict(self._index)

    def _decode(self, payload) -> KernelRun:
        if payload["schema"] != CACHE_SCHEMA:
            raise ValueError("stale cache schema")
        stats = ExecutionStats(**payload["stats"])
        return KernelRun(kernel=payload["kernel"], stats=stats,
                         verified=payload["verified"],
                         backend=payload["backend"])

    def _lru_put(self, key: str, run: KernelRun) -> None:
        if self._lru_capacity <= 0:
            return
        with self._lock:
            self._lru[key] = run
            self._lru.move_to_end(key)
            while len(self._lru) > self._lru_capacity:
                self._lru.popitem(last=False)

    # -- public API ----------------------------------------------------
    def load(self, key: str) -> KernelRun | None:
        """The cached run for ``key``, or None on a miss (an unreadable
        or corrupted payload is a miss: the job is re-simulated and
        re-appended)."""
        return self.load_many((key,)).get(key)

    def load_many(self, keys) -> dict[str, KernelRun]:
        """Every hit among ``keys``; misses are simply absent.

        LRU hits first; the rest are grouped per segment so each
        segment is opened once and read in offset order.
        """
        found: dict[str, KernelRun] = {}
        wanted: list[str] = []
        by_segment: dict[str, list[tuple[int, int, str]]] = {}
        with self._lock:
            for key in dict.fromkeys(keys):
                run = self._lru.get(key)
                if run is not None:
                    self._lru.move_to_end(key)
                    found[key] = run
                else:
                    wanted.append(key)
            if any(key not in self._index for key in wanted):
                self._refresh()  # other processes' appends
            for key in wanted:
                if key in self._index:
                    segment, offset, size, _ = self._index[key]
                    by_segment.setdefault(segment, []).append(
                        (offset, size, key))
        for segment, wanted in by_segment.items():
            try:
                handle = open(self.pack_dir / segment, "rb")
            except OSError:
                continue
            with handle:
                for offset, size, key in sorted(wanted):
                    try:
                        handle.seek(offset)
                        run = self._decode(json.loads(handle.read(size)))
                    except (OSError, ValueError, TypeError, KeyError):
                        continue
                    found[key] = run
                    self._lru_put(key, run)
        return found

    def store(self, key: str, job: SimJob, run: KernelRun) -> None:
        """Append ``run`` to this instance's segment, then its manifest
        line; a failed write raises :class:`EngineError`."""
        payload = {
            "schema": CACHE_SCHEMA,
            "job": canonical(job),
            "kernel": run.kernel,
            "verified": run.verified,
            "backend": run.backend,
            "stats": canonical(run.stats),
        }
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        # held across the append: the offset read before the write must
        # still be the segment's end when the blob lands
        with self._lock:
            try:
                self.pack_dir.mkdir(parents=True, exist_ok=True)
                if self._segment is None:
                    self._segment = (f"{os.getpid():x}-"
                                     f"{os.urandom(4).hex()}.seg")
                with open(self.pack_dir / self._segment, "ab") as handle:
                    offset = handle.tell()
                    handle.write(blob)
                line = _manifest_line(key, self._segment, offset,
                                      len(blob), run.backend)
                with open(self.manifest_path, "ab") as handle:
                    handle.write(line.encode())
            except OSError as exc:
                raise EngineError(
                    f"cannot store a result in cache {self.root}: "
                    f"{exc}") from exc
            self._index[key] = (self._segment, offset, len(blob),
                                run.backend)
        self._lru_put(key, run)

    def usage(self) -> tuple[int, int]:
        """(entry count, total bytes of segments and manifest)."""
        count = len(self._current_index())
        size = 0
        if self.pack_dir.is_dir():
            for path in self.pack_dir.iterdir():
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
        return count, size

    def backend_counts(self) -> dict[str, int]:
        """Entry count per timing backend (for ``repro cache``), read
        off the manifest — the backend rides in every line."""
        counts: dict[str, int] = {}
        for _, _, _, backend in self._current_index().values():
            counts[backend] = counts.get(backend, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> int:
        """Delete every cache entry (pack log and any per-file entries
        awaiting import); returns how many distinct keys were removed."""
        keys = set(self._current_index())
        for path in self.legacy_entries():
            keys.add(path.stem)
            _unlink_entry(path)
        shutil.rmtree(self.pack_dir, ignore_errors=True)
        with self._lock:
            self._index = {}
            self._manifest_offset = 0
            self._manifest_inode = None
            self._lru.clear()
        self._segment = None
        return len(keys)

    def vacuum(self) -> tuple[int, int]:
        """Compact the cache into one fresh pack segment.

        Rewrites every live result into a single new segment with a
        fresh manifest (dropping superseded manifest lines, corrupt
        blobs and dead bytes in abandoned segments), deletes the old
        segments, and imports per-file entries of earlier revisions:
        each valid one is copied into the new segment (unless the pack
        log already holds its key), and every one is unlinked.  This is
        an offline maintenance operation: the cache directory's
        advisory lock is taken exclusively for its duration, so a
        vacuum can never race a live :class:`~repro.serve.service.
        ExperimentService` (which holds the lock shared) — it fails
        with a clean :class:`EngineError` instead.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        lock = acquire_cache_lock(self.root, exclusive=True)
        try:
            return self._vacuum_locked()
        finally:
            release_cache_lock(lock)

    def _vacuum_locked(self) -> tuple[int, int]:
        legacy = self.legacy_entries()
        _, bytes_before = self.usage()
        bytes_before += sum(path.stat().st_size for path in legacy)
        old_segments = set()
        if self.pack_dir.is_dir():
            old_segments = {p.name for p in self.pack_dir.iterdir()
                            if p.name != self.manifest_path.name}
        # 1. every live blob, then 2. the valid per-file entries the
        # pack log lacks, in the order they go into one fresh segment
        kept: dict[str, tuple[bytes, str]] = {}
        for key, (segment, start, size, backend) in \
                self._current_index().items():
            try:
                with open(self.pack_dir / segment, "rb") as handle:
                    handle.seek(start)
                    blob = handle.read(size)
                self._decode(json.loads(blob))
            except (OSError, ValueError, TypeError, KeyError):
                continue  # unreadable: drop from the compacted index
            kept[key] = (blob, backend)
        for path in legacy:
            if path.stem in kept:
                continue
            try:
                payload = json.loads(path.read_text())
                run = self._decode(payload)
            except (OSError, ValueError, TypeError, KeyError):
                continue
            kept[path.stem] = (json.dumps(payload, sort_keys=True,
                                          separators=(",", ":")).encode(),
                               run.backend)
        new_segment = f"compact-{os.getpid():x}-{os.urandom(4).hex()}.seg"
        lines: list[str] = []
        offset = 0
        for key, (blob, backend) in kept.items():
            lines.append(_manifest_line(key, new_segment, offset,
                                        len(blob), backend))
            offset += len(blob)
        if kept:
            self.pack_dir.mkdir(parents=True, exist_ok=True)
            with open(self.pack_dir / new_segment, "wb") as handle:
                handle.write(b"".join(blob for blob, _ in kept.values()))
            atomic_write_text(self.manifest_path, "".join(lines))
        elif self.manifest_path.exists():
            atomic_write_text(self.manifest_path, "")
        # 3. drop the superseded segments and the imported entries
        removed = 0
        for name in old_segments:
            try:
                (self.pack_dir / name).unlink()
                removed += 1
            except OSError:
                pass
        removed += sum(_unlink_entry(path) for path in legacy)
        self._segment = None  # future stores open a fresh segment
        _, bytes_after = self.usage()
        return removed, max(0, bytes_before - bytes_after)


def _manifest_line(key: str, segment: str, offset: int, size: int,
                   backend: str) -> str:
    return json.dumps({"k": key, "s": segment, "o": offset, "n": size,
                       "b": backend},
                      sort_keys=True, separators=(",", ":")) + "\n"


def _unlink_entry(path: Path) -> bool:
    """Delete one per-file entry, and its shard directory once empty."""
    try:
        path.unlink()
    except OSError:
        return False
    try:
        path.parent.rmdir()
    except OSError:
        pass
    return True


# ======================================================================
# Engine
# ======================================================================
@dataclass
class EngineCounters:
    """Cumulative accounting of how each requested job was satisfied."""

    simulated: int = 0   #: jobs actually executed on the simulator
    disk_hits: int = 0   #: jobs answered from the on-disk cache
    memo_hits: int = 0   #: jobs answered from the in-process memo
    #: dynamic instructions and wall-clock seconds spent inside the
    #: timing backends of freshly simulated jobs (cache hits cost
    #: nothing) — the ``repro bench`` throughput column.
    sim_instructions: int = 0
    sim_seconds: float = 0.0
    #: wall-clock spent serving batches that simulated *nothing*
    #: (memo/disk hits only) — the warm jobs/s denominator.
    warm_seconds: float = 0.0
    #: persistent-pool lifecycle: fresh spawns, respawns after a broken
    #: pool, and batches dispatched through the pool.  A repeated-batch
    #: workload that reuses the pool shows ``pool_spawns == 1`` with
    #: ``pool_batches`` counting every parallel batch.
    pool_spawns: int = 0
    pool_respawns: int = 0
    pool_batches: int = 0
    #: cold-job planner split: jobs priced by the in-process bulk
    #: analytic evaluator vs jobs executed through the pooled path
    #: (``bulk_jobs + pooled_jobs == simulated``).
    bulk_jobs: int = 0
    pooled_jobs: int = 0
    #: wall-clock seconds per cold-path stage (operands / compile /
    #: profile / price from the bulk evaluator, plus pooled execution
    #: and the batched result store).
    stage_seconds: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.simulated + self.disk_hits + self.memo_hits

    @property
    def throughput(self) -> float:
        """Simulated instructions per second of backend wall-clock.

        Guarded against zero/absent ``sim_seconds`` — a cold engine or
        an all-hits (simulation-free) run reports 0.0 rather than
        dividing by zero.
        """
        if self.sim_seconds <= 0.0:
            return 0.0
        return self.sim_instructions / self.sim_seconds

    @property
    def hit_rate(self) -> float:
        """Fraction of requested jobs served without simulating."""
        if self.total == 0:
            return 0.0
        return (self.disk_hits + self.memo_hits) / self.total

    @property
    def warm_rate(self) -> float:
        """Cache/memo hits served per second of warm batch time (0.0
        when no simulation-free batch has been timed yet)."""
        if self.warm_seconds <= 0.0:
            return 0.0
        return (self.disk_hits + self.memo_hits) / self.warm_seconds

    def snapshot(self) -> "EngineCounters":
        """A frozen copy of the current counts (for phase accounting,
        e.g. the per-layer tuner's sweep-vs-finalist split)."""
        return EngineCounters(
            simulated=self.simulated,
            disk_hits=self.disk_hits,
            memo_hits=self.memo_hits,
            sim_instructions=self.sim_instructions,
            sim_seconds=self.sim_seconds,
            warm_seconds=self.warm_seconds,
            pool_spawns=self.pool_spawns,
            pool_respawns=self.pool_respawns,
            pool_batches=self.pool_batches,
            bulk_jobs=self.bulk_jobs,
            pooled_jobs=self.pooled_jobs,
            stage_seconds=dict(self.stage_seconds))

    def since(self, start: "EngineCounters") -> "EngineCounters":
        """The counts accumulated after ``start`` was snapshotted."""
        return EngineCounters(
            simulated=self.simulated - start.simulated,
            disk_hits=self.disk_hits - start.disk_hits,
            memo_hits=self.memo_hits - start.memo_hits,
            sim_instructions=self.sim_instructions - start.sim_instructions,
            sim_seconds=self.sim_seconds - start.sim_seconds,
            warm_seconds=self.warm_seconds - start.warm_seconds,
            pool_spawns=self.pool_spawns - start.pool_spawns,
            pool_respawns=self.pool_respawns - start.pool_respawns,
            pool_batches=self.pool_batches - start.pool_batches,
            bulk_jobs=self.bulk_jobs - start.bulk_jobs,
            pooled_jobs=self.pooled_jobs - start.pooled_jobs,
            stage_seconds={
                name: seconds - start.stage_seconds.get(name, 0.0)
                for name, seconds in self.stage_seconds.items()})

    def add_stage_seconds(self, stages: dict) -> None:
        """Fold one batch's per-stage seconds into the running totals."""
        for name, seconds in stages.items():
            self.stage_seconds[name] = (self.stage_seconds.get(name, 0.0)
                                        + seconds)


class ExperimentEngine:
    """Deduplicating, memoising, parallel executor of :class:`SimJob`s.

    ``jobs`` is the worker-process count: ``1`` (default) runs
    in-process, ``0``/``None`` means one worker per CPU.  ``cache``
    toggles the on-disk result cache at ``cache_dir``.  ``pool_idle``
    is the idle-reap timeout of the persistent worker pool in seconds
    (``None`` reads ``$REPRO_POOL_IDLE``, default 60; ``<= 0`` keeps
    the pool alive until :meth:`shutdown`).  ``bulk`` toggles the
    cold-job planner's in-process bulk analytic path (``None`` reads
    ``$REPRO_BULK``, default on; the split is observationally
    identical either way — this is the escape hatch).
    """

    def __init__(self, jobs: int | None = 1, cache: bool = True,
                 cache_dir: Path | None = None,
                 pool_idle: float | None = None,
                 bulk: bool | None = None):
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        self.cache = ResultCache(cache_dir) if cache else None
        if bulk is None:
            bulk = os.environ.get("REPRO_BULK", "1") != "0"
        self.bulk = bool(bulk)
        self.counters = EngineCounters()
        self.pool_idle = (pool_idle if pool_idle is not None
                          else _env_float("REPRO_POOL_IDLE", 60.0))
        #: ``(job_index, shard, worker_pid)`` of every task the last
        #: pool batch dispatched (observability: tests assert shards of
        #: one multicore job landed on distinct workers).
        self.last_dispatch: list[tuple[int, int | None, int]] = []
        self._memo: dict[str, KernelRun] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._idle_timer: threading.Timer | None = None
        self._pool_unavailable = False
        #: serialises :meth:`run` so concurrent submitters (the serve
        #: layer's dispatcher thread plus direct callers) never
        #: interleave a batch's execute/store sequence
        self._run_lock = threading.RLock()
        #: guards counter updates — :meth:`probe` runs on the event
        #: loop thread while :meth:`run` executes in a worker thread
        self._counters_lock = threading.Lock()

    @classmethod
    def from_env(cls, jobs: int | None = None,
                 cache: bool | None = None,
                 bulk: bool | None = None) -> "ExperimentEngine":
        """Build an engine from ``REPRO_JOBS``/``REPRO_NO_CACHE``/
        ``REPRO_BULK``, with explicit arguments taking precedence."""
        if jobs is None:
            raw = os.environ.get("REPRO_JOBS", "1") or "1"
            try:
                jobs = int(raw)
            except ValueError:
                raise EngineError(
                    f"REPRO_JOBS={raw!r} is not an integer") from None
        if cache is None:
            cache = not os.environ.get("REPRO_NO_CACHE")
        return cls(jobs=jobs, cache=cache, bulk=bulk)

    # -- persistent pool lifecycle -------------------------------------
    def _acquire_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, spawning it lazily; None when worker
        processes cannot be created in this environment."""
        with self._pool_lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if self._pool is None:
                if self._pool_unavailable:
                    return None
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                except (OSError, ImportError):
                    # sandboxes without fork/semaphores: remember, so
                    # later batches skip straight to in-process
                    self._pool_unavailable = True
                    return None
                self.counters.pool_spawns += 1
            return self._pool

    def _release_pool(self) -> None:
        """Arm the idle-reap timer after a batch (the next batch
        disarms it; firing reaps the pool until it is needed again)."""
        with self._pool_lock:
            if self._pool is None or self.pool_idle <= 0:
                return
            timer = threading.Timer(
                self.pool_idle, lambda: self._reap_idle(timer))
            timer.daemon = True
            self._idle_timer = timer
            timer.start()

    def _reap_idle(self, timer: threading.Timer) -> None:
        with self._pool_lock:
            if self._idle_timer is not timer:
                return  # superseded by a newer batch — not idle
            self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next acquisition respawns."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the persistent pool down (idempotent; the next parallel
        batch would lazily respawn it)."""
        with self._pool_lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def warm_pool(self, linger: float = 0.05) -> list[int]:
        """Eagerly spawn the pool and fan one ping per worker; returns
        the worker pids (empty when the pool is unavailable).  Useful
        before latency-sensitive batches and in dispatch tests."""
        if self.jobs <= 1:
            return []
        pool = self._acquire_pool()
        if pool is None:
            return []
        try:
            futures = [pool.submit(_worker_ping, linger)
                       for _ in range(self.jobs)]
            return [future.result() for future in futures]
        except (BrokenProcessPool, OSError):
            self._discard_pool()
            return []
        finally:
            self._release_pool()

    def __del__(self):  # best-effort: tests build many engines
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    # -- execution -----------------------------------------------------
    def probe(self, jobs) -> "list[KernelRun | None]":
        """Cache-only lookup: the warm layers of the dispatch path
        (in-process memo -> cache LRU -> pack index),
        never simulating.  Misses come back as ``None``.

        Hits are promoted into the in-process memo and counted exactly
        as :meth:`run` would count them, so a service that answers
        warm requests straight off :meth:`probe` (the serve layer's
        microsecond path) keeps the engine's accounting coherent.
        Safe to call concurrently with :meth:`run` from another
        thread.
        """
        start = time.perf_counter()
        jobs = list(jobs)
        keys = [job_hash(job) for job in jobs]
        fetched: dict[str, KernelRun] = {}
        if self.cache is not None:
            unknown = [key for key in dict.fromkeys(keys)
                       if key not in self._memo]
            if unknown:
                fetched = self.cache.load_many(unknown)
        results: list[KernelRun | None] = []
        memo_hits = disk_hits = 0
        for key in keys:
            run = self._memo.get(key)
            if run is not None:
                memo_hits += 1
            else:
                run = fetched.get(key)
                if run is not None:
                    disk_hits += 1
                    self._memo[key] = run
            results.append(run)
        with self._counters_lock:
            self.counters.memo_hits += memo_hits
            self.counters.disk_hits += disk_hits
            if memo_hits or disk_hits:
                self.counters.warm_seconds += time.perf_counter() - start
        return results

    def run(self, jobs) -> list[KernelRun]:
        """Run a batch of jobs; results arrive in submission order.

        Identical jobs (same content hash) within the batch are
        simulated once.  Disk-cache lookups for the whole batch are
        batched through :meth:`ResultCache.load_many`; hits are
        promoted into the in-process memo.  Reentrant: concurrent
        callers are serialised on an internal lock and counters are
        updated atomically.
        """
        with self._run_lock:
            return self._run_locked(list(jobs))

    def _run_locked(self, jobs: list[SimJob]) -> list[KernelRun]:
        start = time.perf_counter()
        keys = [job_hash(job) for job in jobs]
        fetched: dict[str, KernelRun] = {}
        if self.cache is not None:
            unknown = [key for key in dict.fromkeys(keys)
                       if key not in self._memo]
            if unknown:
                fetched = self.cache.load_many(unknown)
        pending: dict[str, SimJob] = {}
        memo_hits = disk_hits = 0
        for job, key in zip(jobs, keys):
            if key in self._memo:
                memo_hits += 1
                continue
            if key in pending:
                # duplicate within the batch: satisfied by the pending
                # job's single simulation, via the memo, at no cost
                memo_hits += 1
                continue
            cached = fetched.get(key)
            if cached is not None:
                disk_hits += 1
                self._memo[key] = cached
                continue
            pending[key] = job
        if pending:
            pending_jobs = list(pending.values())
            plan = plan_batch(pending_jobs, bulk_enabled=self.bulk)
            runs: list[KernelRun | None] = [None] * len(pending_jobs)
            stage_seconds: dict[str, float] = {}
            if plan.bulk:
                # imported lazily: the bulk evaluator pulls in the
                # analytic stack, which plain functional runs never need
                from repro.analytic.bulk import evaluate_bulk

                bulk_runs, bulk_stages = evaluate_bulk(
                    [pending_jobs[i] for i in plan.bulk])
                for index, run in zip(plan.bulk, bulk_runs):
                    runs[index] = run
                for name, seconds in bulk_stages.items():
                    stage_seconds[name] = (stage_seconds.get(name, 0.0)
                                           + seconds)
            if plan.pooled:
                t_pooled = time.perf_counter()
                pooled_runs = self._execute(
                    [pending_jobs[i] for i in plan.pooled])
                stage_seconds["pooled"] = (
                    stage_seconds.get("pooled", 0.0)
                    + time.perf_counter() - t_pooled)
                for index, run in zip(plan.pooled, pooled_runs):
                    runs[index] = run
            sim_instructions = sim_seconds = 0
            t_store = time.perf_counter()
            for key, job, run in zip(pending, pending.values(), runs):
                sim_instructions += run.stats.instructions
                sim_seconds += run.wall_seconds
                if self.cache:
                    self.cache.store(key, job, run)
                # memoised only once stored: after a failed store a
                # retry re-simulates and stores instead of a memo hit
                self._memo[key] = run
            stage_seconds["store"] = (stage_seconds.get("store", 0.0)
                                      + time.perf_counter() - t_store)
            with self._counters_lock:
                self.counters.simulated += len(pending)
                self.counters.sim_instructions += sim_instructions
                self.counters.sim_seconds += sim_seconds
                self.counters.memo_hits += memo_hits
                self.counters.disk_hits += disk_hits
                self.counters.bulk_jobs += len(plan.bulk)
                self.counters.pooled_jobs += len(plan.pooled)
                self.counters.add_stage_seconds(stage_seconds)
        else:
            with self._counters_lock:
                self.counters.memo_hits += memo_hits
                self.counters.disk_hits += disk_hits
                if memo_hits or disk_hits:
                    self.counters.warm_seconds += (time.perf_counter()
                                                   - start)
        return [self._memo[key] for key in keys]

    async def submit_async(self, jobs) -> list[KernelRun]:
        """Async-friendly submit hook: :meth:`run` on the running
        event loop's default thread executor.

        The coroutine awaits without blocking the loop, so an asyncio
        service (see :mod:`repro.serve`) can keep answering warm
        probes while a batch simulates; :meth:`run`'s internal lock
        makes overlapping submissions safe.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.run, list(jobs))

    def _execute(self, jobs: list[SimJob]) -> list[KernelRun]:
        """Execute jobs, fanning multicore jobs out shard-by-shard.

        A job with ``schedule.cores = N > 1`` becomes N shard tasks, so
        the worker pool simulates the N cores truly in parallel (even
        for a single multicore job); the shard results are then merged
        back into one :class:`KernelRun` per job, bit-identical to the
        sequential in-process path.
        """
        tasks: list[tuple[int, int | None]] = []
        for index, job in enumerate(jobs):
            cores = job.schedule.cores
            if cores > 1:
                tasks.extend((index, shard) for shard in range(cores))
            else:
                tasks.append((index, None))
        self.last_dispatch = []
        outputs = None
        if self.jobs > 1 and len(tasks) > 1:
            outputs = self._dispatch(jobs, tasks)
        if outputs is None:
            outputs = [_execute_task((jobs[index], shard))
                       for index, shard in tasks]
        results: list[KernelRun | None] = [None] * len(jobs)
        shards: dict[int, list[ShardRun]] = {}
        for (index, shard), output in zip(tasks, outputs):
            if shard is None:
                results[index] = output
            else:
                shards.setdefault(index, []).append(output)
        for index, shard_runs in shards.items():
            results[index] = finish_multicore_job(jobs[index], shard_runs)
        return results

    def _dispatch(self, jobs, tasks):
        """Fan one batch of tasks across the persistent pool; None
        means "run in-process" (no pool, or it broke twice in a row).

        Chunks are dealt so shards of one multicore job never share a
        chunk (see :func:`_chunk_tasks`); a pool broken mid-batch is
        respawned once and the batch retried (execution is
        deterministic and results are stored only after the whole
        batch, so the retry is idempotent).
        """
        workers = min(self.jobs, len(tasks))
        fanout = max(job.schedule.cores for job in jobs)
        n_chunks = min(len(tasks), max(workers * 4, fanout))
        payloads = _chunk_tasks(jobs, tasks, n_chunks)
        for retry in (False, True):
            pool = self._acquire_pool()
            if pool is None:
                return None
            try:
                futures = [pool.submit(_execute_chunk, chunk_jobs,
                                       chunk_tasks)
                           for chunk_jobs, chunk_tasks, _ in payloads]
                replies = [future.result() for future in futures]
            except BrokenProcessPool:
                self._discard_pool()
                if retry:
                    return None
                self.counters.pool_respawns += 1
                continue
            except (OSError, ImportError):
                self._discard_pool()
                return None
            finally:
                self._release_pool()
            position = {task: i for i, task in enumerate(tasks)}
            outputs: list = [None] * len(tasks)
            for (_, _, originals), (pid, chunk_outputs) in zip(payloads,
                                                               replies):
                for original, output in zip(originals, chunk_outputs):
                    outputs[position[original]] = output
                    self.last_dispatch.append((*original, pid))
            self.counters.pool_batches += 1
            return outputs
        return None

    # -- reporting -----------------------------------------------------
    def summary(self) -> str:
        """One-line accounting, e.g. for the ``repro bench`` report."""
        c = self.counters
        where = str(self.cache.root) if self.cache else "disabled"
        speed = ""
        if c.simulated and c.sim_seconds > 0.0:
            speed = (f", {c.sim_instructions:,} instrs in "
                     f"{c.sim_seconds:.1f}s "
                     f"({c.throughput / 1e3:,.0f}k instr/s)")
        elif c.simulated == 0 and c.total:
            # fully-warm batch: instr/s would be a misleading zero —
            # report what actually happened (hit rate + warm serve rate)
            speed = f", {c.hit_rate:.0%} hit rate"
            if c.warm_rate > 0.0:
                speed += f" ({c.warm_rate:,.0f} warm jobs/s)"
        pool = ""
        if c.pool_spawns:
            pool = (f", pool {c.pool_spawns} spawn(s)/"
                    f"{c.pool_batches} batch(es)")
        split = ""
        if c.bulk_jobs or c.pooled_jobs:
            split = (f", split {c.bulk_jobs} bulk/"
                     f"{c.pooled_jobs} pooled/"
                     f"{c.disk_hits + c.memo_hits} warm")
            stages = [f"{name} {c.stage_seconds[name]:.2f}s"
                      for name in ("operands", "compile", "profile",
                                   "price", "pooled", "store")
                      if name in c.stage_seconds]
            if stages:
                split += f" [{' '.join(stages)}]"
        return (f"engine: {c.simulated} simulations, "
                f"{c.disk_hits} disk-cache hits, "
                f"{c.memo_hits} memo hits{speed}{split} "
                f"(workers {self.jobs}{pool}, cache {where})")


# ======================================================================
# Default (module-level) engine
# ======================================================================
_default_engine: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    """The process-wide default engine (built from env on first use)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine.from_env()
    return _default_engine


def set_engine(engine: ExperimentEngine | None) -> ExperimentEngine | None:
    """Install (or, with None, reset) the default engine.

    The outgoing engine's persistent pool is shut down — reconfiguring
    must never leak worker processes.
    """
    global _default_engine
    if _default_engine is not None and _default_engine is not engine:
        _default_engine.shutdown(wait=False)
    _default_engine = engine
    return engine


def configure(jobs: int | None = None,
              cache: bool | None = None) -> ExperimentEngine:
    """Install a default engine from env + explicit overrides."""
    return set_engine(ExperimentEngine.from_env(jobs=jobs, cache=cache))
