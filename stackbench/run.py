"""The stack benchmark: one seeded workload per invocation.

Run from the root of a checkout::

    python3 stackbench/run.py --workload fig4-detailed --seed 1 \
        --seconds 10 --trace 0

Prints a human-readable report, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when an output check fails, 2 when the
checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import RUNS_DIR, use_repo_sources

#: End-to-end metrics (name, unit), reported by every workload.
END_TO_END = [
    ("setup_s", "s"), ("cold_jobs_per_s", "1/s"),
    ("warm_jobs_per_s", "1/s"), ("sim_instr_per_s", "1/s"),
    ("lat.p50_ms", "ms"), ("lat.tail_ms", "ms"), ("peak_rss_mb", "MiB"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repo_sources()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: "
                     f"{', '.join(workloads.WORKLOADS)})")
    run_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), run_dir=run_dir)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    print(f"== {args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}) ==")
    for line in outcome.lines:
        print(line)
    for name, passed, detail in outcome.checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    for phase, row in outcome.ledger.phases.items():
        print(f"ops {phase}: {row['attempted']} attempted, "
              f"{row['succeeded']} succeeded, {row['failed']} failed, "
              f"{row['refused']} refused")
    print(f"failed_frac: {outcome.ledger.failed_frac:.6f}")
    if outcome.raw:
        print("as measured: " + json.dumps(outcome.raw))
    metrics = {name: {"value": outcome.metrics.get(name, 0),
                      "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    correct = all(passed for _, passed, _ in outcome.checks)
    print(json.dumps({"correct": correct,
                      "attempted": outcome.ledger.attempted,
                      "failed": outcome.ledger.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
