"""Cross-process cache sharing and offline compaction (vacuum).

The serve layer's whole premise is one on-disk cache shared by many
engines — this file pins down (a) that two engines in *separate
processes* storing into one ``$REPRO_CACHE_DIR`` interleave safely in
the append-only pack manifest and observe each other's results, and
(b) that ``ResultCache.vacuum()`` compacts the pack layout without
losing a single result.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import repro
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import (
    CACHE_SCHEMA,
    ExperimentEngine,
    ResultCache,
    SimJob,
    job_hash,
)
from repro.eval.memo import canonical


def tiny_job(kernel=PROPOSED, nm=(1, 4), seed=0):
    return SimJob.for_shape(8, 32, 16, nm, kernel, seed=seed)


def runs_equal(a, b) -> bool:
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return (a.kernel == b.kernel and a.verified == b.verified
            and sa == sb)


# ----------------------------------------------------------------------
# Two engines, two processes, one cache directory
# ----------------------------------------------------------------------
_WORKER = """
import sys
from repro.eval.engine import ExperimentEngine, SimJob, job_hash

seeds = [int(s) for s in sys.argv[1].split(",")]
engine = ExperimentEngine(jobs=1)
jobs = [SimJob.for_shape(8, 32, 16, (1, 4), "indexmac-spmm", seed=s)
        for s in seeds]
runs = engine.run(jobs)
engine.shutdown()
for job, run in zip(jobs, runs):
    print(job_hash(job), run.stats.cycles)
"""


def _spawn(cache_dir: Path, seeds) -> subprocess.Popen:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir,
           "REPRO_CACHE_DIR": str(cache_dir)}
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER,
         ",".join(str(s) for s in seeds)],
        env=env, stdout=subprocess.PIPE, text=True)


def test_two_processes_store_concurrently_into_one_cache(tmp_path):
    """Concurrent ``store()`` streams from two engine processes must
    interleave safely in the append-only manifest: no line torn, no
    entry lost, and afterwards *both* workloads are loadable by a
    third engine through the batched index path."""
    cache_dir = tmp_path / "shared"
    seeds_a, seeds_b = list(range(0, 12)), list(range(12, 24))
    procs = [_spawn(cache_dir, seeds_a), _spawn(cache_dir, seeds_b)]
    reported: dict[str, int] = {}
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        for line in out.splitlines():
            key, cycles = line.split()
            reported[key] = float(cycles)
    assert len(reported) == 24

    # every manifest line is intact JSON (no torn interleaved appends)
    cache = ResultCache(cache_dir)
    manifest = cache.manifest_path.read_text().splitlines()
    assert len(manifest) == 24
    assert cache.usage()[0] == 24

    # a fresh engine observes all 24 without a single simulation
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    jobs = [tiny_job(seed=s) for s in seeds_a + seeds_b]
    runs = engine.run(jobs)
    engine.shutdown()
    assert engine.counters.simulated == 0
    assert engine.counters.disk_hits == 24
    for job, run in zip(jobs, runs):
        assert run.stats.cycles == reported[job_hash(job)]


def test_engine_sees_other_processes_appends_via_load_many(tmp_path):
    """A long-lived engine that already read the manifest still picks
    up entries a *different process* appended afterwards (per-file /
    re-read fallback keeps shared caches coherent)."""
    cache_dir = tmp_path / "shared"
    watcher = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warm = tiny_job(seed=100)
    watcher.run([warm])  # forces the manifest read, stores one entry

    proc = _spawn(cache_dir, [101, 102])
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0

    runs = watcher.run([tiny_job(seed=101), tiny_job(seed=102)])
    watcher.shutdown()
    assert watcher.counters.simulated == 1  # only the warm-up job
    assert len(runs) == 2 and all(r.verified for r in runs)


# ----------------------------------------------------------------------
# vacuum
# ----------------------------------------------------------------------
def test_vacuum_compacts_without_losing_results(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    jobs = [tiny_job(seed=s) for s in range(6)] + \
           [tiny_job(kernel=BASELINE, nm=(2, 4), seed=s)
            for s in range(3)]
    originals = engine.run(jobs)
    engine.shutdown()
    # a second cache instance re-stores three keys into its own
    # segment: their first blobs and manifest lines become dead bytes
    restore = ResultCache(cache_dir)
    for job, run in list(zip(jobs, originals))[:3]:
        restore.store(job_hash(job), job, run)

    cache = ResultCache(cache_dir)
    count_before, bytes_before = cache.usage()
    assert count_before == 9

    removed, reclaimed = cache.vacuum()
    assert removed == 2  # both superseded segments
    assert reclaimed > 0
    count_after, bytes_after = cache.usage()
    assert count_after == 9  # no entry lost
    assert bytes_after == bytes_before - reclaimed
    segments = [p for p in cache.pack_dir.iterdir()
                if p.name != cache.manifest_path.name]
    assert len(segments) == 1  # one compacted segment
    assert len(cache.manifest_path.read_text().splitlines()) == 9

    # every result still loads bit-exact through a fresh cache
    fresh = ResultCache(cache_dir)
    for job, original in zip(jobs, originals):
        reloaded = fresh.load(job_hash(job))
        assert reloaded is not None
        assert runs_equal(reloaded, original)

    assert fresh.backend_counts() == {originals[0].backend: 9}


def test_vacuum_imports_legacy_per_file_entry(tmp_path):
    """A per-file entry written by an earlier revision is never read by
    lookups; vacuum copies it into the compacted segment and deletes
    it, after which it loads and no per-file entry is left behind."""
    cache_dir = tmp_path / "cache"
    engine = ExperimentEngine(jobs=1, cache=False)
    legacy_job = tiny_job(seed=500)
    legacy_run = engine.run([legacy_job])[0]
    engine.shutdown()
    key = job_hash(legacy_job)
    payload = {"schema": CACHE_SCHEMA, "job": canonical(legacy_job),
               "kernel": legacy_run.kernel,
               "verified": legacy_run.verified,
               "backend": legacy_run.backend,
               "stats": canonical(legacy_run.stats)}
    entry = cache_dir / key[:2] / f"{key}.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(json.dumps(payload, sort_keys=True, indent=1))
    garbage = cache_dir / "zz" / f"zz{62 * '0'}.json"
    garbage.parent.mkdir()
    garbage.write_text("{ not json !!!")

    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine.run([tiny_job(seed=501)])
    engine.shutdown()

    cache = ResultCache(cache_dir)
    assert cache.load(key) is None  # lookups never read per-file
    assert len(cache.legacy_entries()) == 2
    removed, _ = cache.vacuum()
    assert removed == 3  # the old segment + both per-file entries
    assert cache.legacy_entries() == []
    assert sorted(p.name for p in cache_dir.iterdir()) == \
        [".lock", "pack"]
    reloaded = ResultCache(cache_dir).load(key)
    assert reloaded is not None and runs_equal(reloaded, legacy_run)
    assert cache.usage()[0] == 2


def test_vacuum_idempotent_and_store_after_vacuum(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine.run([tiny_job(seed=s) for s in range(4)])
    engine.shutdown()

    cache = ResultCache(cache_dir)
    cache.vacuum()
    removed, reclaimed = cache.vacuum()  # second pass: nothing to do
    assert removed == 1  # only the previous compacted segment rewritten
    count, _ = cache.usage()
    assert count == 4

    # the same cache instance keeps serving stores and loads
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    runs = engine.run([tiny_job(seed=99)])
    assert runs[0].verified
    engine2 = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine2.run([tiny_job(seed=99)])
    assert engine2.counters.disk_hits == 1
    engine.shutdown()
    engine2.shutdown()


def test_cli_cache_vacuum(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine = ExperimentEngine(jobs=1)
    engine.run([tiny_job(seed=s) for s in range(3)])
    engine.shutdown()
    assert main(["cache", "--vacuum"]) == 0
    out = capsys.readouterr().out
    assert "vacuumed:" in out and "KiB reclaimed" in out
    assert main(["cache"]) == 0
    assert "entries:      3" in capsys.readouterr().out


# ----------------------------------------------------------------------
# warm-batch summary (no more "0k instr/s" on fully-warm runs)
# ----------------------------------------------------------------------
def test_summary_reports_hit_rate_on_fully_warm_batches(tmp_path):
    cache_dir = tmp_path / "cache"
    jobs = [tiny_job(seed=s) for s in range(4)]
    warmup = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warmup.run(jobs)
    warmup.shutdown()

    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    engine.run(jobs)
    engine.shutdown()
    summary = engine.summary()
    assert summary.startswith("engine: 0 simulations")  # CI greps this
    assert "0k instr/s" not in summary
    assert "100% hit rate" in summary
    assert engine.counters.hit_rate == 1.0
    assert engine.counters.warm_rate > 0


def test_summary_keeps_throughput_on_simulating_batches():
    engine = ExperimentEngine(jobs=1, cache=False)
    engine.run([tiny_job(seed=1000)])
    engine.shutdown()
    assert "instr/s" in engine.summary()
    assert "hit rate" not in engine.summary()
