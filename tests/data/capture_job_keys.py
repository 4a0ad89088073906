"""Regenerate ``golden_job_keys.json`` — the cache-key identity oracle.

Each case describes one :class:`~repro.eval.engine.SimJob` by value and
records its :func:`~repro.eval.engine.job_hash`.  The key is what the
on-disk result cache is addressed by, so it must not drift unless
``CACHE_SCHEMA`` is bumped on purpose; ``tests/test_job_keys_golden.py``
rebuilds every job and demands the pinned key byte for byte.

The corpus covers every timing backend (analytic jobs hash the packaged
calibration table's digest), both workload sources (CNN layer and
explicit shape), legacy ``KernelOptions``, a ``cores=2`` schedule, a
fully non-default ``Schedule``, a non-default processor config, an
unregistered scale policy and ``verify=False``.

Regenerate only together with a deliberate ``CACHE_SCHEMA`` bump::

    PYTHONPATH=src python tests/data/capture_job_keys.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.arch.config import ProcessorConfig
from repro.eval.engine import SimJob, job_hash
from repro.kernels import KernelOptions, Schedule
from repro.kernels.compiler.spec import parse_dataflow
from repro.nn.workload import POLICIES, ScalePolicy

OUT = Path(__file__).parent / "golden_job_keys.json"

#: A scale policy no registry knows: the job carries it by value.
CUSTOM_POLICY = dict(name="custom", rows_div=16, rows_range=[8, 32],
                     k_div=8, k_range=[32, 128], n_div=8,
                     n_range=[16, 64])

NON_DEFAULT_SCHEDULE = dict(tile_rows=8, unroll=2, dataflow="C",
                            vlmax=8, b_residency="vrf",
                            init_c_zero=False)


def cases() -> dict[str, dict]:
    """Every case of the corpus, by name, as JSON-ready dicts."""
    shape = dict(source="shape", rows=16, k=64, n=16, seed=3)
    layer = dict(source="layer", model="resnet50", layer="conv2_1_3x3",
                 policy="small")
    return {
        "shape-indexmac-1:4-detailed": dict(
            shape, kernel="indexmac-spmm", nm=[1, 4], backend="detailed"),
        "shape-rowwise-2:4-compressed": dict(
            shape, kernel="rowwise-spmm", nm=[2, 4],
            backend="compressed-replay"),
        "shape-dense-1:4-batch": dict(
            shape, kernel="dense-rowwise", nm=[1, 4],
            backend="batch-replay"),
        "shape-csr-2:4-analytic": dict(
            shape, kernel="csr-spmm", nm=[2, 4],
            backend="analytic-sampled"),
        "shape-indexmac-2:4-analytic": dict(
            shape, kernel="indexmac-spmm", nm=[2, 4],
            backend="analytic-sampled"),
        "layer-indexmac-1:4-detailed": dict(
            layer, kernel="indexmac-spmm", nm=[1, 4], backend="detailed"),
        "layer-rowwise-2:4-analytic-tiny": dict(
            layer, policy="tiny", kernel="rowwise-spmm", nm=[2, 4],
            backend="analytic-sampled"),
        "layer-custom-policy-batch": dict(
            layer, policy=CUSTOM_POLICY, kernel="indexmac-spmm",
            nm=[1, 4], backend="batch-replay"),
        "shape-cores2-detailed": dict(
            shape, kernel="indexmac-spmm", nm=[2, 4], backend="detailed",
            schedule=dict(cores=2)),
        "shape-schedule-non-default-compressed": dict(
            shape, kernel="rowwise-spmm", nm=[1, 4],
            backend="compressed-replay", schedule=NON_DEFAULT_SCHEDULE),
        "shape-legacy-options-detailed": dict(
            shape, kernel="rowwise-spmm", nm=[2, 4], backend="detailed",
            options=dict(unroll=1, tile_rows=32, dataflow="A",
                         init_c_zero=False)),
        "shape-l2-32k-unverified-analytic": dict(
            shape, kernel="indexmac-spmm", nm=[1, 4],
            backend="analytic-sampled", l2_kib=32, verify=False),
    }


def build_job(case: dict) -> SimJob:
    """The job a case describes."""
    kwargs = dict(kernel=case["kernel"], nm=tuple(case["nm"]),
                  backend=case["backend"],
                  verify=case.get("verify", True),
                  config=ProcessorConfig.scaled_default(
                      case.get("l2_kib", 96)))
    if "schedule" in case:
        kwargs["schedule"] = Schedule(**case["schedule"])
    if "options" in case:
        options = dict(case["options"])
        options["dataflow"] = parse_dataflow(options["dataflow"])
        kwargs["options"] = KernelOptions(**options)
    if case["source"] == "shape":
        return SimJob.for_shape(case["rows"], case["k"], case["n"],
                                seed=case["seed"], **kwargs)
    policy = case["policy"]
    if isinstance(policy, str):
        policy = POLICIES[policy]
    else:
        policy = ScalePolicy(**{key: tuple(value) if isinstance(value, list)
                                else value for key, value in policy.items()})
    return SimJob.for_layer(case["model"], case["layer"], policy=policy,
                            **kwargs)


def main() -> None:
    for name in ("REPRO_CALIBRATION", "REPRO_BACKEND"):
        if os.environ.get(name):
            raise SystemExit(f"unset ${name}: the fixture pins the "
                             "packaged defaults")
    golden = {name: {"case": case, "key": job_hash(build_job(case))}
              for name, case in cases().items()}
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden job keys -> {OUT}")


if __name__ == "__main__":
    main()
