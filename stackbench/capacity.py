"""Closed-loop capacity of ``repro serve --jobs 1`` on the serve mix.

Starts a server through the benchmark's launcher, prewarms the hot
pool, then lets one connection per CPU send the 90/10 hot/cold mix
back to back and prints the completed requests per second of each
repeat.  The serve-mix rates in ``workloads.py`` are stated fractions
of this figure::

    python3 stackbench/capacity.py --seconds 5 --repeats 3
"""

import argparse
import statistics
import sys

from harness import RUNS_DIR, use_repo_sources


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    use_repo_sources()
    import shutil

    import workloads

    rates = []
    for repeat in range(args.repeats):
        ctx = workloads.Context(seed=args.seed + repeat,
                                seconds=args.seconds, trace=False,
                                run_dir=RUNS_DIR / "capacity")
        try:
            server = workloads._Server(ctx, "capacity")
            try:
                out = workloads.Outcome()
                rates.append(workloads.serve_capacity(
                    ctx, server, args.seconds, out))
            finally:
                server.stop()
        finally:
            shutil.rmtree(ctx.run_dir, ignore_errors=True)
        print(f"repeat {repeat}: {rates[-1]:.1f} req/s "
              f"({ctx.workers} connections)", flush=True)
    print(f"median capacity: {statistics.median(rates):.1f} req/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
