"""Regenerate ``golden_timing.json`` — the cycle-model identity oracle.

Each case runs one simulation end to end and records every
:class:`~repro.arch.stats.ExecutionStats` counter (cycles as
``float.hex`` so the value is exact) plus the functional core's
``state_fingerprint()``.  ``tests/test_timing_golden.py`` re-runs the
same cases and demands field-for-field equality, so any change to the
processor model's timing arithmetic, handler binding or functional
semantics that moves a single cycle shows up as a failure.

The corpus:

* all four kernels (dense row-wise, Row-Wise-SpMM, IndexMAC SpMM,
  CSR SpMM) x {1:4, 2:4} x two shapes x the three executing backends
  (``detailed``, ``compressed-replay``, ``batch-replay``);
* one ``cores=2`` IndexMAC job (per-shard fingerprints plus the
  merged makespan statistics);
* the assembled Algorithm 3 program run through the ISS;
* a raw instruction stream touching every opcode, run through
  ``DecoupledProcessor.run``.

The fixture is a reference: regenerate it only from a revision whose
cycle model is known-good, and only when a cycle change is intended::

    PYTHONPATH=src python tests/data/capture_timing_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.arch import DecoupledProcessor, ExecutionStats, ProcessorConfig
from repro.arch.timing import get_backend, merge_core_results
from repro.isa import I
from repro.kernels import (
    Schedule,
    stage_dense,
    stage_spmm,
    trace_dense_rowwise,
    trace_indexmac_spmm,
    trace_rowwise_spmm,
)
from repro.kernels.asm_kernels import run_assembly_spmm
from repro.kernels.spmm_csr import stage_csr, trace_csr_spmm
from repro.sparse import random_nm_matrix
from repro.sparse.csr import CSRMatrix

OUT = Path(__file__).parent / "golden_timing.json"

KERNELS = ("dense-rowwise", "rowwise-spmm", "indexmac-spmm", "csr-spmm")
PATTERNS = ((1, 4), (2, 4))
SHAPES = ((128, 32, 16), (64, 32, 32))   # (rows, k, n): tall enough to compress
BACKENDS = ("detailed", "compressed-replay", "batch-replay")

#: ExecutionStats counters pinned by the fixture (``extra`` excluded:
#: it holds wall-clock times).
STAT_FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionStats)
                    if f.name != "extra")


def cases() -> list[dict]:
    """Every case of the corpus, as JSON-ready parameter dicts."""
    out = []
    for kernel in KERNELS:
        for nm in PATTERNS:
            for rows, k, n in SHAPES:
                for backend in BACKENDS:
                    out.append(dict(kind="kernel", kernel=kernel,
                                    nm=list(nm), rows=rows, k=k, n=n,
                                    backend=backend))
    out.append(dict(kind="multicore", kernel="indexmac-spmm", nm=[2, 4],
                    rows=64, k=32, n=32, backend="detailed", cores=2))
    out.append(dict(kind="assembly", nm=[2, 4], rows=6))
    out.append(dict(kind="stream"))
    return out


def case_id(case: dict) -> str:
    if case["kind"] == "kernel":
        return (f"{case['kernel']}-{case['nm'][0]}of{case['nm'][1]}-"
                f"{case['rows']}x{case['k']}x{case['n']}-{case['backend']}")
    return case["kind"]


def _operands(case: dict, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(case["rows"], case["k"], *case["nm"], rng)
    b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
    return a, b


def _stage_and_trace(proc, kernel: str, a, b, schedule=None):
    if kernel == "dense-rowwise":
        return trace_dense_rowwise(stage_dense(proc.mem, a.to_dense(), b))
    if kernel == "csr-spmm":
        staged = stage_csr(proc.mem, CSRMatrix.from_dense(a.to_dense()), b)
        return trace_csr_spmm(staged, schedule=schedule)
    staged = stage_spmm(proc.mem, a, b)
    build = (trace_rowwise_spmm if kernel == "rowwise-spmm"
             else trace_indexmac_spmm)
    return build(staged, schedule)


def _record(stats: ExecutionStats) -> dict:
    out = {}
    for name in STAT_FIELDS:
        value = getattr(stats, name)
        out[name] = float(value).hex() if name == "cycles" else int(value)
    return out


def _every_op_stream() -> list:
    """A straight-line stream that touches every opcode class the
    processor times (scalar ALU/memory/branches, vector memory,
    arithmetic, slides, moves, reductions and vindexmac)."""
    base = 4096
    s = [
        I.li("s0", base), I.li("t0", 16), I.vsetvli("t1", "t0", 208),
        I.li("t2", 7), I.addi("t3", "t2", -3), I.add("t4", "t2", "t3"),
        I.sub("t5", "t4", "t2"), I.mul("t6", "t4", "t5"),
        I.and_("a0", "t6", "t4"), I.or_("a1", "t6", "t3"),
        I.xor("a2", "a1", "a0"), I.sll("a3", "t2", "t3"),
        I.srl("a4", "a3", "t3"), I.sra("a5", "a3", "t3"),
        I.slt("a6", "t3", "t2"), I.sltu("a7", "t2", "t3"),
        I.andi("s1", "t6", 12), I.ori("s2", "t6", 3),
        I.xori("s3", "t6", 5), I.slli("s4", "t2", 4),
        I.srli("s5", "s4", 2), I.srai("s6", "s4", 1),
        I.slti("s7", "t2", 9), I.sltiu("s8", "t2", 3), I.lui("s9", 3),
        I.sw("t4", "s0", 0), I.sd("t6", "s0", 8), I.sh("t2", "s0", 16),
        I.sb("t3", "s0", 18), I.lw("a0", "s0", 0), I.lwu("a1", "s0", 0),
        I.ld("a2", "s0", 8), I.lh("a3", "s0", 16),
        I.lhu("a4", "s0", 16), I.lb("a5", "s0", 18),
        I.lbu("a6", "s0", 18), I.sw("s4", "s0", 20),
        I.flw("ft1", "s0", 20), I.fsw("ft1", "s0", 24),
        I.beq("t2", "t3", 8), I.bne("t2", "t3", 8), I.blt("t2", "t3", 8),
        I.bge("t2", "t3", 8), I.bltu("t2", "t3", 8),
        I.bgeu("t2", "t3", 8), I.jal("ra", 8), I.jalr("zero", "ra", 0),
        I.vid_v(1), I.vle32(2, "s0"), I.vadd_vx(3, 1, "t2"),
        I.vadd_vi(4, 3, 5), I.vadd_vv(5, 3, 4), I.vmul_vx(6, 5, "t2"),
        I.vsub_vv(7, 6, 5), I.vsub_vx(8, 7, "t3"),
        I.vrsub_vx(9, 8, "t2"), I.vrsub_vi(10, 9, 3),
        I.vand_vv(11, 10, 9), I.vand_vx(12, 11, "t6"),
        I.vor_vv(13, 12, 11), I.vor_vx(14, 13, "t3"),
        I.vxor_vv(15, 14, 13), I.vxor_vx(16, 15, "t2"),
        I.vmin_vv(17, 16, 15), I.vmin_vx(18, 17, "t3"),
        I.vmax_vv(19, 18, 17), I.vmax_vx(20, 19, "t2"),
        I.vminu_vv(21, 20, 19), I.vminu_vx(22, 21, "t3"),
        I.vmaxu_vv(23, 22, 21), I.vmaxu_vx(24, 23, "t2"),
        I.vmul_vv(25, 24, 23), I.vmacc_vv(25, 24, 23),
        I.vmacc_vx(25, "t2", 24), I.vredsum_vs(26, 25, 24),
        I.vmv_v_i(27, 3), I.vmv_v_x(28, "t4"), I.vmv_v_v(29, 28),
        I.vmv_s_x(30, "t6"), I.vmv_x_s("s10", 30),
        I.vfmv_s_f(2, "ft1"), I.vfmv_f_s("ft3", 2),
        I.vfmul_vf(3, 2, "ft1"), I.vfadd_vf(4, 3, "ft1"),
        I.vfsub_vf(5, 4, "ft3"), I.vfadd_vv(6, 5, 4),
        I.vfsub_vv(7, 6, 5), I.vfmul_vv(8, 7, 6),
        I.vfmacc_vf(8, "ft1", 7), I.vfmacc_vv(8, 7, 6),
        I.vfredusum_vs(9, 8, 7), I.vslide1down_vx(10, 8, "t2"),
        I.vslide1up_vx(11, 10, "t3"), I.vslidedown_vx(12, 11, "t2"),
        I.vslidedown_vi(13, 12, 3), I.vslideup_vx(14, 13, "t2"),
        I.vslideup_vi(15, 14, 2), I.li("s11", 8),
        I.vindexmac_vx(16, 2, "s11"), I.vse32(16, "s0"),
        I.vle32(17, "s0"), I.vse32(17, "s0"),
    ]
    return s * 3


def measure(case: dict) -> dict:
    """Run ``case`` and return its pinned record (stats + fingerprint)."""
    kind = case["kind"]
    if kind == "kernel":
        a, b = _operands(case)
        proc = DecoupledProcessor(ProcessorConfig.scaled_default())
        trace = _stage_and_trace(proc, case["kernel"], a, b)
        result = get_backend(case["backend"]).run(proc, trace)
        return dict(stats=_record(result.stats),
                    timed=result.timed_instructions,
                    fingerprint=proc.core.state_fingerprint())
    if kind == "multicore":
        a, b = _operands(case)
        schedule = Schedule(cores=case["cores"])
        results, prints = [], []
        for shard in range(case["cores"]):
            proc = DecoupledProcessor(ProcessorConfig.scaled_default())
            trace = _stage_and_trace(proc, case["kernel"], a, b,
                                     schedule.for_shard(shard))
            results.append(get_backend(case["backend"]).run(proc, trace))
            prints.append(proc.core.state_fingerprint())
        merged = merge_core_results(results, case["backend"])
        return dict(stats=_record(merged.merged.stats),
                    shard_cycles=[float(r.stats.cycles).hex()
                                  for r in results],
                    fingerprint=prints)
    if kind == "assembly":
        rng = np.random.default_rng(1)
        a = random_nm_matrix(case["rows"], 16, *case["nm"], rng)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        stats = run_assembly_spmm(stage_spmm(proc.mem, a, b), proc)
        return dict(stats=_record(stats),
                    fingerprint=proc.core.state_fingerprint())
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    proc.run(_every_op_stream())
    return dict(stats=_record(proc.stats()),
                fingerprint=proc.core.state_fingerprint())


def main() -> None:
    golden = {case_id(case): dict(case=case, **measure(case))
              for case in cases()}
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden timing cases -> {OUT}")


if __name__ == "__main__":
    main()
