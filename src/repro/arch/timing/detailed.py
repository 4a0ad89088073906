"""The detailed backend: every dynamic instruction gets full timing.

This is the original behaviour of the simulator — every dynamic
instruction pays dispatch, issue, memory and dependency modelling.  The
trace's structure is walked directly: each Block runs as a pre-bound
list of fused handlers and Loops repeat those lists (see
:meth:`~repro.arch.processor.DecoupledProcessor.run_nodes`).  It is the accuracy reference the
``compressed-replay`` backend is validated against.
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult, TimingBackend


class DetailedBackend(TimingBackend):
    """Cycle-approximate timing for the full dynamic stream."""

    name = "detailed"

    def run(self, proc, trace) -> BackendResult:
        proc.run_nodes(trace.nodes)
        stats = proc.stats()
        return self.record(stats, stats.instructions, stats.instructions)
