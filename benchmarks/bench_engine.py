"""Engine dispatch-path benchmark: cold batches vs the warm cache.

Measures, over a full Fig. 4-style job set (every unique ResNet-50
GEMM layer x {baseline, proposed} x N:M patterns):

* **cold** — jobs/s of a first-ever engine batch (simulation plus all
  orchestration overhead: operand generation, trace compilation,
  dispatch, cache stores);
* **warm** — jobs/s of a fresh engine replaying the same set from the
  on-disk cache (asserted to perform **zero** simulations);
* **per-hit latency** of each warm layer: the in-memory LRU and the
  pack index alone (LRU off: seek, read and decode per hit);
* the **acceptance gate**: replaying the full key set through the
  engine's warm path (pack index + LRU) must be >= 10x faster than an
  index-only replay, with bit-identical results and unchanged cache
  keys.

The measured numbers are archived as ``engine_throughput.json`` (the
CI ``engine-throughput-smoke`` job uploads it), alongside the usual
rendered table.  ``REPRO_BENCH_POLICY`` scales the layer set as in the
other benches.
"""

import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import (  # noqa: E402
    RESULTS_DIR,
    config_from_env,
    policy_from_env,
    publish,
)

from repro.eval.engine import (
    ExperimentEngine,
    ResultCache,
    SimJob,
    atomic_write_text,
    job_hash,
)
from repro.eval.report import format_table
from repro.nn.models import get_model, unique_gemm_layers

BASELINE, PROPOSED = "rowwise-spmm", "indexmac-spmm"

#: The warm-path acceptance gate: index+LRU replay of the full key set
#: must beat an index-only replay (every hit read and decoded from its
#: segment) by at least this factor.  Typical local ratios are
#: 50-150x; 10x keeps CI noise-proof.
WARM_SPEEDUP_FLOOR = 10.0

#: Replay rounds for the latency measurements (enough to average out
#: filesystem jitter without dominating bench runtime).
ROUNDS = 20


def _job_set():
    policy = policy_from_env()
    config = config_from_env()
    return [
        SimJob.for_layer("resnet50", layer.name, nm, policy, kernel,
                         config=config)
        for layer, _ in unique_gemm_layers(get_model("resnet50"))
        for kernel in (BASELINE, PROPOSED)
        for nm in ((1, 4), (2, 4))
    ]


def _stats_identical(a, b) -> bool:
    """Bit-exact result equality (wall_seconds is host metadata)."""
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return a.kernel == b.kernel and a.verified == b.verified and sa == sb


def _cache_with(cache_dir, lru) -> ResultCache:
    """A ResultCache with the LRU capacity pinned for measurement."""
    saved = os.environ.get("REPRO_CACHE_LRU")
    os.environ["REPRO_CACHE_LRU"] = str(lru)
    try:
        return ResultCache(cache_dir)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_LRU", None)
        else:
            os.environ["REPRO_CACHE_LRU"] = saved


def _packed_blobs(cache_dir):
    """Every payload blob the manifest names, read from its segment."""
    cache = ResultCache(cache_dir)
    for line in cache.manifest_path.read_text().splitlines():
        rec = json.loads(line)
        with open(cache.pack_dir / rec["s"], "rb") as handle:
            handle.seek(rec["o"])
            yield handle.read(rec["n"])


def _replay_seconds(cache: ResultCache, keys, rounds=ROUNDS) -> float:
    """Mean seconds per full-key-set replay through ``cache``."""
    cache.load_many(keys)  # prime (index parse / LRU fill)
    t0 = time.perf_counter()
    for _ in range(rounds):
        hits = cache.load_many(keys)
    elapsed = (time.perf_counter() - t0) / rounds
    assert len(hits) == len(keys), "warm replay must hit every key"
    return elapsed


def bench_engine_throughput(benchmark, capsys):
    jobs = _job_set()
    keys = [job_hash(job) for job in jobs]
    with tempfile.TemporaryDirectory(prefix="bench-engine-") as tmp:
        cache_dir = Path(tmp)

        # -- cold: first-ever batch, all orchestration overhead ------
        cold_engine = ExperimentEngine.from_env()
        cold_engine.cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        cold_runs = cold_engine.run(jobs)
        cold_s = time.perf_counter() - t0
        assert cold_engine.counters.simulated == len(jobs)
        cold_engine.shutdown(wait=False)

        # -- warm: fresh engine, zero simulations --------------------
        def warm_replay():
            engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
            runs = engine.run(jobs)
            assert engine.counters.simulated == 0, "warm run simulated!"
            return runs

        t0 = time.perf_counter()
        warm_runs = warm_replay()
        warm_s = time.perf_counter() - t0
        for cold, warm in zip(cold_runs, warm_runs):
            assert _stats_identical(cold, warm), "warm result drifted"
        assert keys == [job_hash(job) for job in jobs], "keys drifted"
        benchmark.pedantic(warm_replay, rounds=3, iterations=1)

        # -- per-hit latency of each warm layer ----------------------
        lru_s = _replay_seconds(_cache_with(cache_dir, 4096), keys)
        index_s = _replay_seconds(_cache_with(cache_dir, 0), keys)
        # the gated comparison: the engine's actual warm path
        # (index + LRU) vs an index-only replay
        warm_speedup = index_s / lru_s if lru_s > 0 else float("inf")

        # -- compact-store size vs the old indent=1 encoding ---------
        compact = indented = 0
        for blob in _packed_blobs(cache_dir):
            compact += len(blob)
            indented += len(json.dumps(json.loads(blob), sort_keys=True,
                                       indent=1))

    report = {
        "policy": policy_from_env().name,
        "jobs": len(jobs),
        "cold_seconds": round(cold_s, 6),
        "cold_jobs_per_s": round(len(jobs) / cold_s, 2),
        "warm_seconds": round(warm_s, 6),
        "warm_jobs_per_s": round(len(jobs) / warm_s, 2),
        "hit_latency_us": {
            "lru": round(1e6 * lru_s / len(keys), 3),
            "index": round(1e6 * index_s / len(keys), 3),
        },
        "warm_replay_speedup": round(warm_speedup, 2),
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "compact_store_bytes": compact,
        "indent1_store_bytes": indented,
        "store_size_ratio": round(compact / indented, 3) if indented else 1.0,
    }
    atomic_write_text(RESULTS_DIR / "engine_throughput.json",
                      json.dumps(report, indent=2) + "\n")

    rows = [
        ["cold batch", f"{cold_s:.3f}s",
         f"{len(jobs) / cold_s:,.1f} jobs/s"],
        ["warm replay (engine)", f"{warm_s:.3f}s",
         f"{len(jobs) / warm_s:,.1f} jobs/s"],
        ["warm hit: LRU", f"{1e6 * lru_s / len(keys):.1f} us/hit", ""],
        ["warm hit: pack index only",
         f"{1e6 * index_s / len(keys):.1f} us/hit", ""],
        ["warm replay speedup", f"{warm_speedup:,.1f}x",
         f"(gate >= {WARM_SPEEDUP_FLOOR:.0f}x)"],
        ["compact vs indent=1 store",
         f"{100 * (1 - report['store_size_ratio']):.0f}% smaller",
         f"{compact} vs {indented} bytes"],
    ]
    publish("engine_throughput",
            format_table(["path", "time", "rate"], rows,
                         title=f"engine dispatch paths "
                               f"({len(jobs)} jobs, "
                               f"{policy_from_env().name} scale)"),
            capsys)

    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm path only {warm_speedup:.1f}x faster than index-only "
        f"(gate {WARM_SPEEDUP_FLOOR:.0f}x)")
