"""Layer boundaries of the stack, timed from outside the program.

:func:`install` wraps the public entry points of each layer with
:class:`~harness.Tracer` spans; :func:`per_layer` turns the recorded
spans into the per-layer metrics listed in :data:`PER_LAYER`.  The
serve launcher installs the same boundaries in the server process.
"""

from __future__ import annotations

from harness import Tracer, layer_table

#: Every per-layer metric a traced run reports, with its unit, in
#: report order.  Metrics of a layer a workload bypasses read 0.
PER_LAYER = [
    ("eval.job_hash.calls", "count"), ("eval.job_hash.s", "s"),
    ("eval.cache.load.s", "s"), ("eval.cache.load.keys", "count"),
    ("eval.cache.hit_ratio", "ratio"),
    ("eval.cache.store.calls", "count"), ("eval.cache.store.s", "s"),
    ("eval.planner.s", "s"), ("eval.planner.bulk_jobs", "count"),
    ("eval.planner.pooled_jobs", "count"),
    ("eval.engine.self_s", "s"),
    ("eval.pool.wait_s", "s"), ("eval.pool.spawns", "count"),
    ("eval.runner.self_s", "s"),
    ("nn.operands.calls", "count"), ("nn.operands.s", "s"),
    ("nn.operands.reuse", "ratio"),
    ("kernels.stage.s", "s"), ("kernels.compile.calls", "count"),
    ("kernels.compile.s", "s"),
    ("analytic.bulk.self_s", "s"),
    ("analytic.profile.calls", "count"), ("analytic.profile.s", "s"),
    ("analytic.price.s", "s"), ("analytic.jobs_per_trace", "ratio"),
    ("arch.detailed.s", "s"), ("arch.detailed.instr", "count"),
    ("arch.detailed.instr_per_s", "1/s"),
    ("arch.compressed-replay.s", "s"),
    ("arch.compressed-replay.timed_frac", "ratio"),
    ("arch.batch-replay.s", "s"),
    ("arch.batch-replay.timed_frac", "ratio"),
    ("serve.capacity_rps", "1/s"),
    ("serve.client.rtt_ms", "ms"), ("serve.server.warm_ms", "ms"),
    ("serve.server.interactive_ms", "ms"),
    ("serve.jobs_per_batch", "ratio"),
    ("serve.single_flight_joins", "count"), ("serve.shed", "count"),
    ("serve.hit_rate", "ratio"),
    ("loadgen.low.p50_ms", "ms"), ("loadgen.low.tail_ms", "ms"),
    ("loadgen.high.p50_ms", "ms"), ("loadgen.high.tail_ms", "ms"),
    ("loadgen.max_ok_rps", "1/s"), ("loadgen.late_p99_ms", "ms"),
    ("other.s", "s"), ("named_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
]

#: Timing tiers whose ``run`` is spanned as ``arch.<name>``.
TIERS = ("detailed", "compressed-replay", "batch-replay")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the stack (in this process, and in
    worker processes forked after the call)."""
    import repro.analytic.bulk as bulk
    import repro.eval.engine as engine
    import repro.eval.runner as runner
    from repro.analytic.calibration import CalibrationTable
    from repro.arch.timing import (
        AnalyticSampledBackend,
        CompressedReplayBackend,
        DetailedBackend,
    )
    from repro.eval.engine import ExperimentEngine, ResultCache

    def job_tag(args):
        job = args[0]
        return f"{job.kernel}/{job.shape or job.layer}/{job.nm}"

    tracer.wrap(ExperimentEngine, "run", "eval.engine.run")
    tracer.wrap(ExperimentEngine, "probe", "eval.engine.probe")
    tracer.wrap(engine, "job_hash", "eval.job_hash")
    tracer.wrap(ResultCache, "load_many", "eval.cache.load",
                meta=lambda args, hits: {"keys": len(args[1]),
                                         "hits": len(hits)})
    tracer.wrap(ResultCache, "store", "eval.cache.store")
    tracer.wrap(engine, "plan_batch", "eval.planner",
                meta=lambda args, plan: {"bulk": len(plan.bulk),
                                         "pooled": len(plan.pooled)})
    tracer.wrap(engine, "execute_job", "eval.runner", tag=job_tag)

    # pickled by reference: the wrapper keeps the original's module
    # and qualname, and forked workers inherit the patched module
    tracer.wrap(engine, "_execute_chunk", "eval.pool.chunk",
                after=tracer.flush_worker)
    tracer.wrap(engine, "job_operands", "nn.operands", tag=job_tag,
                meta=lambda args, _: {
                    "key": engine.operand_identity(args[0])})
    tracer.wrap(runner, "stage_spmm", "kernels.stage")

    def compiled(in_bulk: bool):
        """Span the trace function a registry lookup returns: calling
        it compiles the kernel."""
        def on_result(trace_kernel):
            def build(*args, **kwargs):
                with tracer.span("kernels.compile") as span:
                    span.meta = {"bulk": int(in_bulk)}
                    return trace_kernel(*args, **kwargs)
            return build
        return on_result

    tracer.wrap(runner, "get_trace_kernel", "kernels.lookup",
                on_result=compiled(False))
    tracer.wrap(bulk, "get_trace_kernel", "kernels.lookup",
                on_result=compiled(True))
    tracer.wrap(bulk, "evaluate_bulk", "analytic.bulk")
    tracer.wrap(bulk, "profile_trace", "analytic.profile")
    tracer.wrap(CalibrationTable, "predict_many", "analytic.price")
    tracer.wrap(AnalyticSampledBackend, "price", "analytic.price")

    def tier_meta(_args, result):
        return {"instr": result.stats.instructions,
                "timed": result.timed_instructions,
                "dynamic": result.dynamic_instructions}

    for cls in (DetailedBackend, CompressedReplayBackend):
        # batch-replay inherits compressed-replay's ``run``; the span
        # is named after the instance's tier
        tracer.wrap(cls, "run", lambda args: f"arch.{args[0].name}",
                    meta=tier_meta)


def per_layer(tracer: Tracer, workers: int = 1) -> dict:
    """The layer metrics of :data:`PER_LAYER` from ``tracer``'s spans
    (serve and loadgen metrics are filled in by the serve workload)."""
    table = layer_table(tracer.spans)

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "meta": {}, "distinct": {}})

    load, plan = row("eval.cache.load"), row("eval.planner")
    operands, compile_ = row("nn.operands"), row("kernels.compile")
    chunks = row("eval.pool.chunk")
    bulk_jobs = plan["meta"].get("bulk", 0)
    bulk_traces = compile_["meta"].get("bulk", 0)
    out = {
        "eval.job_hash.calls": row("eval.job_hash")["calls"],
        "eval.job_hash.s": row("eval.job_hash")["s"],
        "eval.cache.load.s": load["s"],
        "eval.cache.load.keys": load["meta"].get("keys", 0),
        "eval.cache.hit_ratio": (load["meta"].get("hits", 0)
                                 / load["meta"]["keys"]
                                 if load["meta"].get("keys") else 0.0),
        "eval.cache.store.calls": row("eval.cache.store")["calls"],
        "eval.cache.store.s": row("eval.cache.store")["s"],
        "eval.planner.s": plan["s"],
        "eval.planner.bulk_jobs": bulk_jobs,
        "eval.planner.pooled_jobs": plan["meta"].get("pooled", 0),
        "eval.engine.self_s": (row("eval.engine.run")["self_s"]
                               + row("eval.engine.probe")["self_s"]),
        "eval.pool.wait_s": max(
            0.0, row("eval.engine.run")["self_s"]
            - chunks["s"] / max(1, workers)) if chunks["calls"] else 0.0,
        "eval.runner.self_s": row("eval.runner")["self_s"],
        "nn.operands.calls": operands["calls"],
        "nn.operands.s": operands["s"],
        "nn.operands.reuse": (operands["calls"]
                              / len(operands["distinct"]["key"])
                              if operands["calls"] else 0.0),
        "kernels.stage.s": row("kernels.stage")["s"],
        "kernels.compile.calls": compile_["calls"],
        "kernels.compile.s": compile_["s"],
        "analytic.bulk.self_s": row("analytic.bulk")["self_s"],
        "analytic.profile.calls": row("analytic.profile")["calls"],
        "analytic.profile.s": row("analytic.profile")["s"],
        "analytic.price.s": row("analytic.price")["s"],
        "analytic.jobs_per_trace": (bulk_jobs / bulk_traces
                                    if bulk_traces else 0.0),
    }
    for tier in TIERS:
        r = row(f"arch.{tier}")
        out[f"arch.{tier}.s"] = r["s"]
        dynamic = r["meta"].get("dynamic", 0)
        out[f"arch.{tier}.timed_frac"] = (r["meta"].get("timed", 0)
                                          / dynamic if dynamic else 0.0)
        out[f"arch.{tier}.instr"] = r["meta"].get("instr", 0)
        out[f"arch.{tier}.instr_per_s"] = (out[f"arch.{tier}.instr"]
                                           / r["s"] if r["s"] else 0.0)
    return out


def main_timeline(tracer: Tracer) -> tuple[float, float]:
    """``(wall, other)`` of the benchmark process: the summed duration
    of its top-level ``phase.*`` spans, and the part of it that no
    named layer span covers."""
    phases = [row for name, row in layer_table(tracer.spans).items()
              if name.startswith("phase.")]
    return (sum(row["s"] for row in phases),
            sum(row["self_s"] for row in phases))
