"""Run ``repro serve`` with the benchmark's layer spans installed.

Everything after ``--`` is passed to the ``repro`` CLI.  When the
server stops, the launcher writes a JSON report (engine counters, peak
RSS and, with ``--trace``, the path of the span file)::

    python3 stackbench/serve_launcher.py --report OUT.json [--trace] \
        -- serve --jobs 1 --port 0
"""

import argparse
import json
import resource
import sys
from pathlib import Path

from harness import Tracer, use_repo_sources


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    use_repo_sources()
    import layers
    from repro.cli import main as repro_main
    from repro.serve.http import ExperimentServer
    from repro.serve.service import ExperimentService

    services = []
    original_init = ExperimentService.__init__

    def capture(self, *a, **kw):
        original_init(self, *a, **kw)
        services.append(self)

    ExperimentService.__init__ = capture
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        tracer.wrap_async(ExperimentServer, "_submit", "serve.http.submit")
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code = repro_main(argv)

    counters = services[0].engine.counters
    report = {
        "counters": {
            "simulated": counters.simulated,
            "disk_hits": counters.disk_hits,
            "memo_hits": counters.memo_hits,
            "sim_instructions": counters.sim_instructions,
            "sim_seconds": counters.sim_seconds,
            "warm_seconds": counters.warm_seconds,
            "pool_spawns": counters.pool_spawns,
            "stage_seconds": counters.stage_seconds,
        },
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": None,
    }
    if tracer is not None:
        spans = args.report.with_suffix(".spans.jsonl")
        tracer.dump(spans)
        report["spans"] = str(spans)
    args.report.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
