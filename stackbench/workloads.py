"""The four workloads of the stack benchmark.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome` holding its end-to-end metrics (untraced run) or its
per-layer metrics (traced run), the failure ledger, the output checks
and the report lines.  Why each workload exists is documented in
``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    BENCH_DIR,
    Ledger,
    Tracer,
    digest,
    fast_quartile,
    host_slowness,
    latency_summary,
    median,
    peak_rss_mb,
    percentile,
    run_record,
)

#: Setup samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 10
#: Seconds of warm replays, and of single-job lookups, after each cold
#: job group.
SLICE_S = 0.25
#: Single-job lookups between two host-slowness readings.
LOOKUP_CHUNK = 32
#: Reference tasks per host-slowness reading around set-up samples,
#: which are few.
MARK_REPEATS = 20
#: Seconds a setup probe or the server may take to become ready.
READY_TIMEOUT = 60.0

BASELINE, PROPOSED = "rowwise-spmm", "indexmac-spmm"


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    run_dir: Path
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    tracer: Tracer | None = None
    #: shrink every job set to a few seconds of work (self-tests)
    smoke: bool = False

    @property
    def slice_s(self) -> float:
        return 0.02 if self.smoke else SLICE_S

    @property
    def setup_samples(self) -> int:
        return 2 if self.smoke else SETUP_SAMPLES

    def span(self, name: str):
        return (self.tracer.span(name) if self.tracer
                else contextlib.nullcontext())

    def scratch(self, name: str) -> Path:
        path = self.run_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    ledger: Ledger = field(default_factory=Ledger)
    #: (check name, passed, detail)
    checks: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    #: the timed end-to-end metrics as measured, before scaling to the
    #: nominal host speed
    raw: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def engine_setup_seconds(ctx: Context, workers: int, analytic: bool):
    """Per sample, ``(seconds, host slowness)``: seconds from process
    start until a fresh process has imported the stack, built an engine
    and warmed its worker pool."""
    samples = []
    slow = host_slowness(MARK_REPEATS)
    for i in range(ctx.setup_samples):
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                "--workers", str(workers),
                "--cache", str(ctx.scratch(f"setup-{i}"))]
        if analytic:
            argv.append("--analytic")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdin.close()
        proc.wait(timeout=READY_TIMEOUT)
        if not ready.startswith("ready"):
            raise RuntimeError("the setup probe never became ready")
        before, slow = slow, host_slowness(MARK_REPEATS)
        samples.append((seconds, (before + slow) / 2))
    return samples


# ----------------------------------------------------------------------
# Batch workloads: cold batch, then warm replays and single-job lookups
# ----------------------------------------------------------------------
def balanced_groups(costs, count: int) -> list[list[int]]:
    """Split item indices into ``count`` groups of near-equal summed
    cost (largest first, each into the currently cheapest group)."""
    groups = [[] for _ in range(count)]
    load = [0.0] * count
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        target = load.index(min(load))
        groups[target].append(index)
        load[target] += costs[index]
    return [sorted(group) for group in groups]


def groups_by(jobs, key, cost, count: int) -> list[list[int]]:
    """Job indices split into at most ``count`` balanced groups; jobs
    with equal ``key(job)`` stay together, each key weighs
    ``cost(job)``."""
    keys = list(dict.fromkeys(key(job) for job in jobs))
    first = {key(job): job for job in reversed(jobs)}
    split = balanced_groups([cost(first[k]) for k in keys],
                            min(count, len(keys)))
    members = [{keys[i] for i in group} for group in split]
    return [[i for i, job in enumerate(jobs) if key(job) in group]
            for group in members]


def _gemm_cost(job) -> float:
    rows, k, n = job.shape
    return float(rows * k * n)


def _batch_round(ctx: Context, jobs, groups, workers: int, host_work):
    """One round in a fresh cache.  Per job group: a cold engine batch,
    then a slice of warm replays of the group (fresh engine each) and a
    slice of single-job lookups (fresh engine, one job per call) over
    the jobs cached so far.  Interleaving spreads every measurement
    over the whole round; each is paired with the host slowness
    measured right before and after it."""
    from repro.eval.engine import ExperimentEngine

    cache = ctx.scratch("cache")
    engine = ExperimentEngine(jobs=workers, cache_dir=cache, pool_idle=0)
    engine.warm_pool()
    cold, warm = [None] * len(jobs), [None] * len(jobs)
    group_s, warm_rates, slices, simulated = [], [], [], 0
    cached = []
    slow = host_slowness()

    def slowness_since(inside_phase: bool = False) -> float:
        """Mean host slowness over the reading before and now; traced
        rounds skip the readings inside phases (and are not scaled)."""
        nonlocal slow
        if ctx.trace and inside_phase:
            return slow
        before, slow = slow, host_slowness(2 if inside_phase else 3)
        return (before + slow) / 2

    for group in groups:
        batch = [jobs[i] for i in group]
        with ctx.span("phase.cold"):
            start = time.perf_counter()
            runs = engine.run(batch)
            group_s.append((time.perf_counter() - start, slowness_since()))
        for i, run in zip(group, runs):
            cold[i] = run
        cached += batch
        # one host reading after every replay and every LOOKUP_CHUNK
        # lookups, so the scaling follows the host within the slice
        with ctx.span("phase.warm"):
            slice_start = time.perf_counter()
            while time.perf_counter() - slice_start < ctx.slice_s:
                replay = ExperimentEngine(jobs=workers, cache_dir=cache)
                start = time.perf_counter()
                runs = replay.run(batch)
                rate = len(batch) / (time.perf_counter() - start)
                warm_rates.append((rate, slowness_since(inside_phase=True)))
                simulated += replay.counters.simulated
        for i, run in zip(group, runs):
            warm[i] = run
        with ctx.span("phase.lookup"):
            raw, scaled, chunk = [], [], []
            lookup, position = None, len(cached)
            slice_start = time.perf_counter()
            while time.perf_counter() - slice_start < ctx.slice_s:
                if position == len(cached):
                    if lookup is not None:
                        simulated += lookup.counters.simulated
                    lookup = ExperimentEngine(jobs=1, cache_dir=cache)
                    position = 0
                start = time.perf_counter()
                lookup.run([cached[position]])
                chunk.append(time.perf_counter() - start)
                position += 1
                if len(chunk) == LOOKUP_CHUNK or (
                        time.perf_counter() - slice_start >= ctx.slice_s):
                    slowness = slowness_since(inside_phase=True)
                    raw += chunk
                    scaled += [t / slowness for t in chunk]
                    chunk = []
            simulated += lookup.counters.simulated
        slices.append((latency_summary(raw), latency_summary(scaled)))
        slowness_since()
    pids = {pid for _, _, pid in engine.last_dispatch}
    counters = engine.counters
    # after the shutdown the ended pool workers count in the reading
    engine.shutdown(wait=True)
    rss = peak_rss_mb()
    work = [sum(host_work(cold[i]) for i in group) for group in groups]
    total = sum(work)
    return {"cold": cold,
            "instructions": sum(run.stats.instructions for run in cold),
            "cold_s": sum(t for t, _ in group_s),
            "cold_nominal_s": sum(t / slowness for t, slowness in group_s),
            # each group's time scaled up to the whole job set by its
            # share of the host work (see batch_workload)
            "cold_equiv": [(t * total / w, slowness)
                           for (t, slowness), w in zip(group_s, work)],
            "warm": warm, "warm_rates": warm_rates, "slices": slices,
            "rss": rss, "counters": counters, "warm_simulated": simulated,
            "workers": len(pids) or 1}


def batch_workload(ctx: Context, jobs, groups, workers: int,
                   analytic: bool, functional: bool,
                   host_work=lambda run: 1.0,
                   min_rounds: int = 1) -> tuple[Outcome, list]:
    """Measure a batch workload whose cold pass runs ``groups`` (lists
    of job indices) as one engine batch each; returns the outcome and
    the cold runs of the last round (for workload-specific checks).

    ``host_work(run)`` is the host work a cold job stands for, relative
    to the others; each group's cold time is scaled up to the whole job
    set by its share of that work.  The default weighs every job
    alike.  Rounds repeat until ``ctx.seconds`` have passed and at
    least ``min_rounds`` ran."""
    import layers

    out = Outcome()
    if not ctx.trace:
        samples = engine_setup_seconds(ctx, workers, analytic)
        out.lines.append("setup samples: " + ", ".join(
            f"{s:.3f}s" for s, _ in samples))
    n = len(jobs)
    rounds = []

    def run_round():
        r = _batch_round(ctx, jobs, groups, workers, host_work)
        _check_round(out, f"round{len(rounds)}", r, n, functional)
        if rounds:
            # only the last round's runs are kept
            del rounds[-1]["cold"]
        rounds.append(r)

    started = time.perf_counter()
    while (len(rounds) < (1 if ctx.smoke else min_rounds)
           or time.perf_counter() - started < ctx.seconds):
        run_round()
        if ctx.trace:
            break
    if ctx.trace:
        ctx.tracer = Tracer(worker_dir=ctx.scratch("spans"))
        layers.install(ctx.tracer)
        try:
            run_round()
        finally:
            ctx.tracer.unwrap_all()
        ctx.tracer.collect_workers()
        untraced, traced = (rounds[0]["cold_nominal_s"],
                            rounds[-1]["cold_nominal_s"])
        metrics = layers.per_layer(ctx.tracer, rounds[-1]["workers"])
        wall, other = layers.main_timeline(ctx.tracer)
        metrics["eval.pool.spawns"] = rounds[-1]["counters"].pool_spawns
        metrics["other.s"] = other
        metrics["named_frac"] = 1.0 - other / wall if wall else 0.0
        metrics["trace_overhead_frac"] = traced / untraced - 1.0
        out.lines.append(f"cold pass at nominal host speed: "
                         f"{untraced:.3f}s untraced, {traced:.3f}s traced")
        out.metrics = metrics
    digests = {r["digest"] for r in rounds}
    out.check("every round modelled the same results", len(digests) == 1)
    last = rounds[-1]
    out.lines.append(f"simulated-statistics digest: {last['digest']}"
                     f" ({n} jobs)")
    if not ctx.trace:
        out.metrics, out.raw = _batch_metrics(rounds, samples, n)
        out.lines.append(
            f"{len(rounds)} round(s); cold {n} jobs in {len(groups)} "
            f"batches, {last['cold_s']:.3f}s; "
            f"{sum(len(r['warm_rates']) for r in rounds)} warm replays; "
            f"{sum(s['n'] for r in rounds for s, _ in r['slices'])} "
            f"single-job lookups in {len(last['slices'])} slices per round,"
            f" tail = p{last['slices'][-1][0]['tail_pct']:g}; "
            f"peak RSS {max(r['rss'] for r in rounds):.1f} MiB (this "
            f"process {peak_rss_mb(children=False):.1f} MiB)")
    return out, last["cold"]


def _check_round(out: Outcome, phase: str, r: dict, n: int,
                 functional: bool) -> None:
    """Ledger rows and output checks of one round; takes the digest of
    its cold runs and drops its warm runs."""
    unverified = sum(1 for run in r["cold"] if not run.verified) \
        if functional else 0
    out.ledger.record(f"{phase}.cold", n, failed=unverified)
    drifted = sum(1 for a, b in zip(r["cold"], r.pop("warm"))
                  if run_record(a) != run_record(b))
    out.ledger.record(f"{phase}.warm", n, failed=drifted)
    out.ledger.record(f"{phase}.lookup",
                      sum(s["n"] for s, _ in r["slices"]))
    out.check(f"{phase}: cold batch simulated every job",
              r["counters"].simulated == n,
              f"{r['counters'].simulated}/{n}")
    if functional:
        out.check(f"{phase}: every functional-tier run verified",
                  unverified == 0, f"{unverified} unverified")
    out.check(f"{phase}: warm payloads equal cold payloads",
              drifted == 0, f"{drifted} differ")
    out.check(f"{phase}: warm replays and lookups simulated nothing",
              r["warm_simulated"] == 0)
    r["digest"] = digest(r["cold"])


def _batch_metrics(rounds, samples, n) -> tuple[dict, dict]:
    """End-to-end metrics at the nominal host speed, and the timed ones
    as measured.  Each is the fast quartile over its samples (groups,
    replays, lookup slices) pooled across rounds."""
    def pooled(key):
        return [sample for r in rounds for sample in r[key]]

    instructions = rounds[-1]["instructions"]
    views = []
    for scaled in (True, False):
        def at(seconds, slowness):
            return seconds / slowness if scaled else seconds

        cold_s = fast_quartile([at(*c) for c in pooled("cold_equiv")])
        lookups = [pair[scaled] for pair in pooled("slices")]
        views.append({
            "setup_s": median([at(*c) for c in samples]),
            "cold_jobs_per_s": n / cold_s,
            "warm_jobs_per_s": fast_quartile(
                [1.0 / at(1.0 / rate, slowness)
                 for rate, slowness in pooled("warm_rates")],
                higher_is_better=True),
            "sim_instr_per_s": instructions / cold_s,
            "lat.p50_ms": fast_quartile([s["p50_ms"] for s in lookups]),
            "lat.tail_ms": fast_quartile([s["tail_ms"] for s in lookups]),
            "peak_rss_mb": max(r["rss"] for r in rounds),
        })
    return views[0], views[1]


def _instructions(run) -> float:
    """Host work of a functional-tier job: its simulated instructions
    (their interpretation is most of the job's time)."""
    return float(run.stats.instructions)


def _seeded(job, seed: int):
    return dataclasses.replace(job, seed=seed)


def _shape_job(layer, policy, nm, kernel, seed, backend):
    """A layer's scaled GEMM as a synthetic job whose operand values the
    benchmark seed draws (layer jobs seed from the layer name)."""
    from repro.eval.engine import SimJob

    g = policy.scale(layer.gemm)
    return SimJob.for_shape(g.rows, g.k, g.n, nm, kernel, seed=seed,
                            backend=backend)


def fig4_detailed(ctx: Context) -> Outcome:
    from repro.nn.models import get_model, unique_gemm_layers
    from repro.nn.workload import SMALL, TINY
    from repro.serve.client import fig4_jobs

    model = get_model("resnet50")
    layer_by_name = {layer.name: layer for layer in model}
    multiplicity = {layer.name: mult
                    for layer, mult in unique_gemm_layers(model)}
    names = list(multiplicity)
    policy = TINY if ctx.smoke else SMALL
    specs = fig4_jobs(scale=policy, backend="detailed")
    jobs = [_shape_job(layer_by_name[job.layer], policy, job.nm, job.kernel,
                       ctx.seed * 1000 + names.index(job.layer),
                       "detailed") for job in specs]
    # eight cold batches of whole layers (both kernels share operands)
    groups = groups_by(jobs, lambda job: job.shape, _gemm_cost, 8)
    out, runs = batch_workload(ctx, jobs, groups, ctx.workers,
                               analytic=False, functional=True,
                               host_work=_instructions)
    totals = {}
    for spec, run in zip(specs, runs):
        key = (spec.nm, spec.kernel)
        totals[key] = (totals.get(key, 0.0)
                       + multiplicity[spec.layer] * run.stats.cycles)
    for nm in sorted({spec.nm for spec in specs}):
        speedup = totals[(nm, BASELINE)] / totals[(nm, PROPOSED)]
        out.lines.append(
            f"IndexMAC / Row-Wise total speedup at {nm[0]}:{nm[1]}: "
            f"{speedup:.4f}x (simulated cycles, no hardware reference)")
    return out


#: The tall steady-state band of the ResNet-50 layer set used by
#: ``benchmarks/bench_backends.py`` (there the list is local to each
#: bench function, so it is restated here).
TALL_LAYERS = ("conv2_1_1x1b", "conv3_1_1x1b", "conv4_1_1x1b",
               "conv4_1_proj", "conv5_1_1x1b", "conv5_1_proj")
REPLAY_TIERS = ("compressed-replay", "batch-replay")


def replay_tall(ctx: Context) -> Outcome:
    from bench_backends import REPLAY_SCALE

    from repro.nn.models import get_model

    layer_by_name = {layer.name: layer for layer in get_model("resnet50")}
    jobs = [_shape_job(layer_by_name[name], REPLAY_SCALE, nm, kernel,
                       ctx.seed * 1000 + i, tier)
            for tier in REPLAY_TIERS
            for i, name in enumerate(TALL_LAYERS[:1] if ctx.smoke
                                     else TALL_LAYERS)
            for nm in ((1, 4), (2, 4))
            for kernel in (BASELINE, PROPOSED)]
    # six cold batches, one layer each with both tiers
    groups = groups_by(jobs, lambda job: job.seed, _gemm_cost, 6)
    out, runs = batch_workload(ctx, jobs, groups, ctx.workers,
                               analytic=False, functional=True,
                               host_work=_instructions)
    half = len(jobs) // 2
    same = all(a.stats.instructions == b.stats.instructions
               and a.stats.vector_mem_instrs == b.stats.vector_mem_instrs
               for a, b in zip(runs[:half], runs[half:]))
    out.check("both replay tiers count the same instructions and "
              "vector memory accesses", same)
    return out


def sweep_analytic(ctx: Context) -> Outcome:
    from bench_sweep import _job_set

    base = _job_set()[::48] if ctx.smoke else _job_set()
    jobs = [_seeded(job, job.seed + 16 * ctx.seed) for job in base]
    # one cold batch per (schedule, kernel): each compiles and profiles
    # its own eighth of the trace geometries, so no work repeats, and
    # each group of 576 jobs stands for an equal share of the host work
    groups = groups_by(jobs, lambda job: (job.schedule, job.kernel),
                       lambda job: 1.0, 8)
    # two rounds: eight cold groups alone left the fast quartile loose
    out, _ = batch_workload(ctx, jobs, groups, 1, analytic=True,
                            functional=False, min_rounds=2)
    return out


# ----------------------------------------------------------------------
# serve-mix: repro serve in its own process, open-loop generator here
# ----------------------------------------------------------------------
#: Closed-loop capacity (requests/s) of ``repro serve --jobs 1`` on
#: this mix with one connection per CPU, as ``capacity.py`` measured it
#: on a 2-vCPU x86-64 VM (three 5 s repeats: 624, 559, 542; median
#: 559).  The traced run re-measures it as ``serve.capacity_rps``.
CAPACITY_RPS = 560.0
#: Arrival rates (requests/s) of the two open-loop phases: 0.3x and
#: 0.9x capacity.  The low phase is the served latency a user sees with
#: headroom (the end-to-end ``lat.*``); the high phase sits just below
#: the knee, where queueing starts to dominate.
LOW_RATE, HIGH_RATE = 0.3 * CAPACITY_RPS, 0.9 * CAPACITY_RPS
#: Share of the run the low phase takes (its latencies are the
#: end-to-end ones, so it gets the larger share).
LOW_SHARE = 0.6
#: Latency limit on the tail percentile for a rate to count as met:
#: five times the tail measured at the low rate (p99 of 20-25 ms,
#: set by one cold job's simulation plus the 5 ms batching window), so
#: a rate passes while queueing at most quintuples the unloaded tail.
LATENCY_LIMIT_MS = 100.0
#: Seconds of the traced run's capacity re-measurement.
CAPACITY_S = 3.0
#: Consecutive windows a phase's latencies are summarized over.
LATENCY_WINDOWS = 4
#: One request in this many is a never-seen (cold) job.
COLD_EVERY = 10
HOT_POOL = 16
#: Served results re-run in process and compared field by field.
VERIFY_SAMPLE = 8
#: Request plan length and plan phase of the capacity measurement.
CAPACITY_PLAN, CAPACITY_PHASE = 50_000, 9


class _Server:
    """``repro serve`` through the benchmark's launcher."""

    def __init__(self, ctx: Context, name: str, traced: bool = False):
        self.report = ctx.run_dir / f"{name}.json"
        cache = ctx.scratch(f"{name}-cache")
        argv = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                "--report", str(self.report)]
        if traced:
            argv.append("--trace")
        argv += ["--", "serve", "--jobs", "1", "--port", "0"]
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env)
        url = None
        while url is None:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise RuntimeError("the server exited before serving")
            if line.startswith("serving on "):
                url = line.split()[2]
        from repro.serve import ServeClient

        self.url = url
        ServeClient(url).wait_until_ready(READY_TIMEOUT)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> dict:
        import json

        from repro.serve import ServeClient

        ServeClient(self.url).shutdown()
        self.proc.stdout.read()
        self.proc.wait(timeout=READY_TIMEOUT)
        return json.loads(self.report.read_text())


class _Requests:
    """The request plan of one phase and its send function."""

    def __init__(self, url, plan, expected):
        self.url, self.plan, self.expected = url, plan, expected
        self.results = {}

    def session(self):
        from repro.serve import ServeClient

        return ServeClient(self.url, timeout=READY_TIMEOUT)

    def close(self, client):
        client.close()

    def __call__(self, client, i):
        from repro.errors import (
            ServeError,
            ServeOverloadedError,
            ServeUnavailableError,
        )

        job = self.plan[i]
        try:
            reply = client.submit([job])
        except ServeOverloadedError:
            return "refused"
        except (ServeError, ServeUnavailableError, ValueError):
            # an error answer, a dropped connection or an undecodable
            # body: the request failed
            return "failed"
        results = reply.get("results") or [{}]
        result = results[0]
        if len(results) == 1 and "error" in result:
            # the server answered with a per-job error
            return "failed"
        want = self.expected.get(job)
        if (len(results) != 1 or not result.get("verified")
                or result.get("kernel") != job.kernel
                or (want is not None and result.get("cycles") != want)):
            return "wrong"
        self.results[job] = result
        return "ok"


def _phase_plan(ctx, phase: int, count: int, hot):
    from bench_serve import _cold_job

    rng = random.Random(ctx.seed * 100 + phase)
    plan = []
    for i in range(count):
        if rng.randrange(COLD_EVERY) == 0:
            plan.append(_cold_job(ctx.seed * 1_000_000 + phase * 100_000
                                  + i))
        else:
            plan.append(hot[rng.randrange(len(hot))])
    return plan


def _prewarm(ctx: Context, client, out: Outcome):
    """Submit the hot pool once; returns it and the prewarmed cycle
    count of each hot job."""
    from bench_serve import _hot_pool

    hot = [_seeded(job, ctx.seed * 1000 + job.seed)
           for job in _hot_pool(HOT_POOL)]
    warmed = client.submit(hot)["results"]
    expected = {job: r["cycles"] for job, r in zip(hot, warmed)
                if "error" not in r}
    out.ledger.record("prewarm", len(hot),
                      failed=len(hot) - len(expected))
    return hot, expected


def serve_capacity(ctx: Context, server: _Server, seconds: float,
                   out: Outcome) -> float:
    """Closed-loop capacity of ``server`` on the serve mix: completed
    requests per second when each of ``ctx.workers`` connections sends
    its next request as soon as its last one is answered."""
    import loadgen

    from repro.serve import ServeClient

    with ServeClient(server.url, timeout=READY_TIMEOUT) as client:
        hot, expected = _prewarm(ctx, client, out)
    count = CAPACITY_PLAN
    requests = _Requests(server.url,
                         _phase_plan(ctx, CAPACITY_PHASE, count, hot),
                         expected)
    outcomes, elapsed = loadgen.closed_loop(requests, count, seconds,
                                            senders=ctx.workers)
    _record_phase(out, "capacity", outcomes)
    return sum(o.status == "ok" for o in outcomes) / elapsed


def _record_phase(out: Outcome, label: str, outcomes) -> None:
    """Ledger row of one request phase; a wrong answer also fails the
    run's served-results check."""
    count = {status: sum(o.status == status for o in outcomes)
             for status in ("failed", "wrong", "refused")}
    out.ledger.record(label, len(outcomes),
                      failed=count["failed"] + count["wrong"],
                      refused=count["refused"])
    out.check(f"{label}: every served result verified and unchanged",
              count["wrong"] == 0, f"{count['wrong']} wrong")


def _serve_pass(ctx: Context, server: _Server, out: Outcome):
    """Prewarm, both open-loop phases, stats and the served-result
    check against the same server; returns phase data."""
    import loadgen

    from repro.eval.engine import ExperimentEngine
    from repro.serve import ServeClient

    client = ServeClient(server.url, timeout=READY_TIMEOUT)
    hot, expected = _prewarm(ctx, client, out)
    phases = {}
    for phase, (label, rate, share) in enumerate(
            (("low", LOW_RATE, LOW_SHARE),
             ("high", HIGH_RATE, 1.0 - LOW_SHARE)), start=1):
        count = max(1, int(rate * ctx.seconds * share))
        requests = _Requests(server.url,
                             _phase_plan(ctx, phase, count, hot), expected)
        with ctx.span(f"phase.{label}"):
            outcomes = loadgen.open_loop(requests, count, rate,
                                         senders=ctx.workers)
        _record_phase(out, label, outcomes)
        phases[label] = (rate, outcomes, requests.results)
    stats = client.stats()

    # served results equal the same jobs run in process
    cold = [job for job in phases["low"][2] if job not in expected]
    sample = hot[:VERIFY_SAMPLE // 2] + cold[:VERIFY_SAMPLE // 2]
    served = client.submit(sample, include_stats=True)["results"]
    reference = ExperimentEngine(jobs=1, cache=False).run(sample)
    mismatched = sum(
        1 for got, ref in zip(served, reference)
        if got.get("stats") is None or _served_record(got) != run_record(ref))
    out.ledger.record("verify", len(sample), failed=mismatched)
    out.check("served results equal in-process runs", mismatched == 0,
              f"{mismatched}/{len(sample)} differ")
    client.close()
    served_cold = sum(1 for _, _, served in phases.values()
                      for job in served if job not in expected)
    return phases, stats, len(expected) + served_cold


def _served_record(payload) -> dict:
    from repro.serve.protocol import run_from_dict

    return run_record(run_from_dict(payload))


def _median_rtt(phases) -> float:
    """Median request round trip (send to answer) of a serve pass."""
    return median([o.done - o.sent for _, outcomes, _ in phases.values()
                   for o in outcomes if o.status == "ok"])


def _rate_summary(rate, outcomes) -> dict:
    import loadgen

    ok = [o for o in outcomes if o.status == "ok"]
    summary = latency_summary(o.latency for o in outcomes)
    span = (max(o.done for o in ok) - outcomes[0].due) if ok else 0.0
    summary["achieved_rps"] = len(ok) / span if span > 0 else 0.0
    summary["met"] = (summary["tail_ms"] <= LATENCY_LIMIT_MS
                      and not loadgen.backlog_grew(
                          outcomes, LATENCY_LIMIT_MS / 1e3))
    summary["rate"] = rate
    # the fast quartile over consecutive windows, as for batch slices
    size = -(-len(outcomes) // LATENCY_WINDOWS)
    windows = [latency_summary(o.latency for o in outcomes[i:i + size])
               for i in range(0, len(outcomes), size)]
    summary["fast_p50_ms"] = fast_quartile([w["p50_ms"] for w in windows])
    summary["fast_tail_ms"] = fast_quartile([w["tail_ms"] for w in windows])
    return summary


def serve_mix(ctx: Context) -> Outcome:
    import layers

    out = Outcome()
    if ctx.trace:
        # untraced pass first: the trace overhead's reference
        server = _Server(ctx, "serve-untraced")
        untraced, _, _ = _serve_pass(ctx, server, out)
        capacity = serve_capacity(
            ctx, server, 0.2 if ctx.smoke else CAPACITY_S, out)
        server.stop()
        ctx.tracer = Tracer()
        from repro.serve import ServeClient
        ctx.tracer.wrap(ServeClient, "submit", "serve.client.submit")
        ctx.tracer.wrap(ServeClient, "stats", "serve.client.stats")
        server = _Server(ctx, "serve", traced=True)
    else:
        samples = []
        for i in range(ctx.setup_samples):
            server = _Server(ctx, f"serve-{i}")
            samples.append(server.setup_s)
            if i < ctx.setup_samples - 1:
                server.stop()
        out.lines.append("setup samples: " + ", ".join(
            f"{s:.3f}s" for s in samples))
    try:
        phases, stats, unique = _serve_pass(ctx, server, out)
    finally:
        report = server.stop()
        if ctx.tracer:
            ctx.tracer.unwrap_all()

    summaries = {label: _rate_summary(rate, outcomes)
                 for label, (rate, outcomes, _) in phases.items()}
    met = [s for s in summaries.values() if s["met"]]
    max_ok = max((s["achieved_rps"] for s in met), default=0.0)
    counters = report["counters"]
    cold_s = sum(counters["stage_seconds"].values())
    for label, s in summaries.items():
        out.lines.append(
            f"serve.{label}: {s['rate']:g} req/s offered, "
            f"{s['achieved_rps']:.1f} completed/s, p50 {s['p50_ms']:.2f} ms"
            f", p{s['tail_pct']:g} {s['tail_ms']:.2f} ms over {s['n']} "
            f"requests ({'meets' if s['met'] else 'misses'} the "
            f"{LATENCY_LIMIT_MS:g} ms limit)")
    out.lines.append(f"serve.max_ok_rps: {max_ok:.1f}; server simulated "
                     f"{counters['simulated']} jobs")
    out.check("the server simulated each distinct job exactly once",
              counters["simulated"] == unique,
              f"{counters['simulated']} simulations, {unique} jobs")
    if not ctx.trace:
        # not scaled to the nominal host speed: the work runs in the
        # server process, and host readings taken in this process
        # widened the run-to-run spread instead of narrowing it
        out.metrics = {
            "setup_s": median(samples),
            "cold_jobs_per_s": counters["simulated"] / cold_s,
            "warm_jobs_per_s": ((counters["disk_hits"]
                                 + counters["memo_hits"])
                                / counters["warm_seconds"]),
            "sim_instr_per_s": counters["sim_instructions"] / cold_s,
            "lat.p50_ms": summaries["low"]["fast_p50_ms"],
            "lat.tail_ms": summaries["low"]["fast_tail_ms"],
            "peak_rss_mb": report["maxrss_kib"] / 1024.0,
        }
        return out

    tracer = ctx.tracer
    tracer.load(Path(report["spans"]))
    metrics = layers.per_layer(tracer)
    outcomes = [o for _, phase_outcomes, _ in phases.values()
                for o in phase_outcomes]
    client_s = sum(s[4] - s[3] for s in tracer.spans
                   if s[2] == "serve.client.submit")
    server_s = sum(s[4] - s[3] for s in tracer.spans
                   if s[2] == "serve.http.submit")
    latency = stats["latency_ms"]
    metrics.update({
        "eval.pool.spawns": counters["pool_spawns"],
        "serve.capacity_rps": capacity,
        "serve.client.rtt_ms": _median_rtt(phases) * 1e3,
        "serve.server.warm_ms": latency["warm"]["p50"],
        "serve.server.interactive_ms": latency["interactive"]["p50"],
        "serve.jobs_per_batch": (stats["queued"] / stats["engine_batches"]
                                 if stats["engine_batches"] else 0.0),
        "serve.single_flight_joins": stats["single_flight_joins"],
        "serve.shed": stats["shed"],
        "serve.hit_rate": stats["hit_rate"],
        "loadgen.low.p50_ms": summaries["low"]["p50_ms"],
        "loadgen.low.tail_ms": summaries["low"]["tail_ms"],
        "loadgen.high.p50_ms": summaries["high"]["p50_ms"],
        "loadgen.high.tail_ms": summaries["high"]["tail_ms"],
        "loadgen.max_ok_rps": max_ok,
        "loadgen.late_p99_ms": percentile(
            [o.late for o in outcomes], 99) * 1e3,
        # request time the server's handler did not cover: client,
        # socket and HTTP framing
        "other.s": client_s - server_s,
        "named_frac": server_s / client_s if client_s else 0.0,
        "trace_overhead_frac": _median_rtt(phases) / _median_rtt(untraced)
        - 1.0,
    })
    out.metrics = metrics
    return out


WORKLOADS = {
    "fig4-detailed": fig4_detailed,
    "sweep-analytic": sweep_analytic,
    "serve-mix": serve_mix,
    "replay-tall": replay_tall,
}
