"""Set-up probe: import the stack, build an engine, warm its pool.

Prints ``ready`` once the engine could take its first job, then holds
the engine until its standard input closes.  Run by the benchmark to
time set-up from process start::

    python3 stackbench/setup_probe.py --workers 2 --cache DIR [--analytic]
"""

import argparse
import sys

from harness import use_repo_sources


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--analytic", action="store_true",
                        help="also load the bulk analytic evaluator")
    args = parser.parse_args()
    use_repo_sources()
    from repro.eval.engine import ExperimentEngine

    if args.analytic:
        import repro.analytic.bulk  # noqa: F401
    engine = ExperimentEngine(jobs=args.workers, cache_dir=args.cache,
                              pool_idle=0)
    engine.warm_pool()
    print("ready", flush=True)
    sys.stdin.read()
    engine.shutdown(wait=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
