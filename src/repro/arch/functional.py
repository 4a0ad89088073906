"""Bit-exact functional semantics of the RV64IM + RVV subset.

This module is the single source of truth for *what every instruction
does* to architectural state — scalar/FP/vector registers and memory —
with no notion of time.  :class:`repro.arch.processor.DecoupledProcessor`
composes a :class:`FunctionalCore` with the timing model, and the
``compressed-replay`` timing backend drives the core directly to execute
the iterations it does not time, so kernel results stay bit-exact no
matter which backend produced the cycle numbers.

Control flow mirrors the processor's trace-mode contract: handlers
return ``None`` for straight-line instructions, a byte offset for a
taken branch, ``("jump", imm)`` for ``jal`` and ``("jump_abs", target)``
for ``jalr`` (link registers are patched by the ISS, which knows the
program counter).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.memory import FlatMemory
from repro.arch.regfile import FpRegisterFile, IntRegisterFile, to_unsigned64
from repro.arch.vrf import VectorRegisterFile
from repro.errors import SimulationError
from repro.isa.instructions import Instr, Op


def _i32(value: int) -> np.int32:
    """Truncate a Python int to a signed 32-bit numpy scalar."""
    value &= 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 1 << 32
    return np.int32(value)


class FunctionalCore:
    """Architectural state + bit-exact execution, no timing."""

    def __init__(self, config: ProcessorConfig | None = None,
                 memory: FlatMemory | None = None):
        self.config = config or ProcessorConfig.paper_default()
        self.mem = memory or FlatMemory(self.config.memory_bytes)
        self.xrf = IntRegisterFile()
        self.frf = FpRegisterFile()
        vcfg = self.config.vector
        self.vrf = VectorRegisterFile(vcfg.num_vregs, vcfg.vlmax)
        #: per-register views of the first ``vl`` elements (raw, int32,
        #: float32), refreshed in place whenever ``vl`` changes
        self._raw_v: list[np.ndarray] = []
        self._i32_v: list[np.ndarray] = []
        self._f32_v: list[np.ndarray] = []
        self.vl = vcfg.vlmax

    @property
    def vl(self) -> int:
        """The current vector length (set by ``vsetvli``)."""
        return self._vl

    @vl.setter
    def vl(self, value: int) -> None:
        self._vl = value
        vrf = self.vrf
        self._raw_v[:] = vrf.raw[:, :value]
        self._i32_v[:] = vrf.i32[:, :value]
        self._f32_v[:] = vrf.f32[:, :value]
        #: scratch row for products formed before an accumulate
        self._product = np.empty_like(self._f32_v[0])

    # ==================================================================
    # public API
    # ==================================================================
    def execute(self, instr: Instr):
        """Execute one instruction; returns control-flow info."""
        return self.handlers[instr.op](self, instr)

    def run(self, stream) -> None:
        """Execute a dynamic stream functionally (trace mode)."""
        handlers = self.handlers
        for instr in stream:
            handlers[instr.op](self, instr)

    def state_fingerprint(self) -> str:
        """Digest over all architectural state (registers + memory).

        Two cores that ran the same program through different replay
        strategies must produce identical fingerprints; the
        batch-replay equivalence tests gate on this.
        """
        digest = hashlib.sha256()
        digest.update(np.array(self.xrf.values, dtype=np.int64).tobytes())
        digest.update(np.array(self.frf.values, dtype=np.float64).tobytes())
        digest.update(self.vrf.raw.tobytes())
        digest.update(np.int64(self.vl).tobytes())
        digest.update(self.mem._buf.tobytes())
        return digest.hexdigest()

    # ==================================================================
    # handler construction
    # ==================================================================
    @classmethod
    def _build_handlers(cls):
        """Opcode -> ``handler(core, instr)``."""
        h = {}
        # scalar ALU register-register
        h[Op.ADD] = cls._make_alu_rr(lambda a, b: a + b)
        h[Op.SUB] = cls._make_alu_rr(lambda a, b: a - b)
        h[Op.AND] = cls._make_alu_rr(lambda a, b: a & b)
        h[Op.OR] = cls._make_alu_rr(lambda a, b: a | b)
        h[Op.XOR] = cls._make_alu_rr(lambda a, b: a ^ b)
        h[Op.SLL] = cls._make_alu_rr(lambda a, b: a << (b & 63))
        h[Op.SRL] = cls._make_alu_rr(
            lambda a, b: to_unsigned64(a) >> (b & 63))
        h[Op.SRA] = cls._make_alu_rr(lambda a, b: a >> (b & 63))
        h[Op.SLT] = cls._make_alu_rr(lambda a, b: int(a < b))
        h[Op.SLTU] = cls._make_alu_rr(
            lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)))
        h[Op.MUL] = cls._make_alu_rr(lambda a, b: a * b)
        # scalar ALU immediate
        h[Op.ADDI] = cls._make_alu_ri(lambda a, i: a + i)
        h[Op.ANDI] = cls._make_alu_ri(lambda a, i: a & i)
        h[Op.ORI] = cls._make_alu_ri(lambda a, i: a | i)
        h[Op.XORI] = cls._make_alu_ri(lambda a, i: a ^ i)
        h[Op.SLLI] = cls._make_alu_ri(lambda a, i: a << i)
        h[Op.SRLI] = cls._make_alu_ri(lambda a, i: to_unsigned64(a) >> i)
        h[Op.SRAI] = cls._make_alu_ri(lambda a, i: a >> i)
        h[Op.SLTI] = cls._make_alu_ri(lambda a, i: int(a < i))
        h[Op.SLTIU] = cls._make_alu_ri(
            lambda a, i: int(to_unsigned64(a) < to_unsigned64(i)))
        h[Op.LUI] = cls._lui
        h[Op.AUIPC] = cls._lui  # pc-relative not used in trace mode
        # scalar memory
        for op in (Op.LB, Op.LBU, Op.LH, Op.LHU, Op.LW, Op.LWU, Op.LD):
            h[op] = cls._scalar_load
        h[Op.FLW] = cls._scalar_load_fp
        for op in (Op.SB, Op.SH, Op.SW, Op.SD):
            h[op] = cls._scalar_store
        h[Op.FSW] = cls._scalar_store_fp
        # control flow
        for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            h[op] = cls._branch
        h[Op.JAL] = cls._jal
        h[Op.JALR] = cls._jalr
        # vector
        h[Op.VSETVLI] = cls._vsetvli
        h[Op.VLE32] = cls._vle32
        h[Op.VSE32] = cls._vse32
        h[Op.VADD_VX] = cls._make_vx_i32(lambda a, s: a + s)
        h[Op.VADD_VI] = cls._make_vi_i32(lambda a, s: a + s)
        h[Op.VADD_VV] = cls._make_vv_i32(lambda a, b: a + b)
        h[Op.VMUL_VX] = cls._make_vx_i32(lambda a, s: a * s)
        h[Op.VFMACC_VF] = cls._vfmacc_vf
        h[Op.VFMACC_VV] = cls._vfmacc_vv
        h[Op.VFMUL_VF] = cls._make_vf_f32(lambda a, s: a * s)
        h[Op.VSLIDE1DOWN_VX] = cls._vslide1down_vx
        h[Op.VSLIDEDOWN_VX] = cls._vslidedown_vx
        h[Op.VSLIDEDOWN_VI] = cls._vslidedown_vi
        h[Op.VMV_V_I] = cls._vmv_v_i
        h[Op.VMV_V_X] = cls._vmv_v_x
        h[Op.VMV_V_V] = cls._vmv_v_v
        h[Op.VMV_X_S] = cls._vmv_x_s
        h[Op.VFMV_F_S] = cls._vfmv_f_s
        h[Op.VFMV_S_F] = cls._vfmv_s_f
        h[Op.VINDEXMAC_VX] = cls._vindexmac_vx
        # wider RVV subset (elementwise, generated handlers)
        h[Op.VSUB_VV] = cls._make_vv_i32(lambda a, b: a - b)
        h[Op.VSUB_VX] = cls._make_vx_i32(lambda a, s: a - s)
        h[Op.VRSUB_VX] = cls._make_vx_i32(lambda a, s: s - a)
        h[Op.VRSUB_VI] = cls._make_vi_i32(lambda a, s: s - a)
        h[Op.VAND_VV] = cls._make_vv_i32(lambda a, b: a & b)
        h[Op.VAND_VX] = cls._make_vx_i32(lambda a, s: a & s)
        h[Op.VOR_VV] = cls._make_vv_i32(lambda a, b: a | b)
        h[Op.VOR_VX] = cls._make_vx_i32(lambda a, s: a | s)
        h[Op.VXOR_VV] = cls._make_vv_i32(lambda a, b: a ^ b)
        h[Op.VXOR_VX] = cls._make_vx_i32(lambda a, s: a ^ s)
        h[Op.VMIN_VV] = cls._make_vv_i32(np.minimum)
        h[Op.VMIN_VX] = cls._make_vx_i32(np.minimum)
        h[Op.VMAX_VV] = cls._make_vv_i32(np.maximum)
        h[Op.VMAX_VX] = cls._make_vx_i32(np.maximum)
        h[Op.VMINU_VV] = cls._make_vv_u32(np.minimum)
        h[Op.VMINU_VX] = cls._make_vx_u32(np.minimum)
        h[Op.VMAXU_VV] = cls._make_vv_u32(np.maximum)
        h[Op.VMAXU_VX] = cls._make_vx_u32(np.maximum)
        h[Op.VMUL_VV] = cls._make_vv_i32(lambda a, b: a * b)
        h[Op.VMACC_VV] = cls._vmacc_vv
        h[Op.VMACC_VX] = cls._vmacc_vx
        h[Op.VREDSUM_VS] = cls._vredsum_vs
        h[Op.VFADD_VV] = cls._make_vv_f32(lambda a, b: a + b)
        h[Op.VFADD_VF] = cls._make_vf_f32(lambda a, s: a + s)
        h[Op.VFSUB_VV] = cls._make_vv_f32(lambda a, b: a - b)
        h[Op.VFSUB_VF] = cls._make_vf_f32(lambda a, s: a - s)
        h[Op.VFMUL_VV] = cls._make_vv_f32(lambda a, b: a * b)
        h[Op.VFREDUSUM_VS] = cls._vfredusum_vs
        h[Op.VSLIDEUP_VX] = cls._vslideup_vx
        h[Op.VSLIDEUP_VI] = cls._vslideup_vi
        h[Op.VSLIDE1UP_VX] = cls._vslide1up_vx
        h[Op.VMV_S_X] = cls._vmv_s_x
        h[Op.VID_V] = cls._vid_v
        return h

    # ==================================================================
    # scalar handlers
    # ==================================================================
    @staticmethod
    def _make_alu_rr(fn):
        def handler(self, instr: Instr):
            xv = self.xrf.values
            self.xrf.write(instr.rd, fn(xv[instr.rs1], xv[instr.rs2]))
            return None
        return handler

    @staticmethod
    def _make_alu_ri(fn):
        def handler(self, instr: Instr):
            self.xrf.write(instr.rd, fn(self.xrf.values[instr.rs1],
                                        instr.imm))
            return None
        return handler

    def _lui(self, instr: Instr):
        value = instr.imm << 12
        if value & 0x80000000:  # RV64: LUI sign-extends bit 31
            value -= 1 << 32
        self.xrf.write(instr.rd, value)
        return None

    _LOAD_SIZES = {
        Op.LB: (1, True), Op.LBU: (1, False), Op.LH: (2, True),
        Op.LHU: (2, False), Op.LW: (4, True), Op.LWU: (4, False),
        Op.LD: (8, True),
    }

    def _scalar_load(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        size, signed = self._LOAD_SIZES[instr.op]
        mem = self.mem
        if size == 1:
            value = mem.load_u8(addr)
        elif size == 2:
            value = mem.load_u16(addr)
        elif size == 4:
            value = mem.load_u32(addr)
        else:
            value = mem.load_u64(addr)
        if signed and size < 8 and value & (1 << (8 * size - 1)):
            value -= 1 << (8 * size)
        self.xrf.write(instr.rd, value)
        return None

    def _scalar_load_fp(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        self.frf.write(instr.rd, self.mem.load_f32(addr))
        return None

    _STORE_SIZES = {Op.SB: 1, Op.SH: 2, Op.SW: 4, Op.SD: 8}

    def _scalar_store(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        size = self._STORE_SIZES[instr.op]
        value = self.xrf.values[instr.rs2]
        mem = self.mem
        if size == 1:
            mem.store_u8(addr, value)
        elif size == 2:
            mem.store_u16(addr, value)
        elif size == 4:
            mem.store_u32(addr, value)
        else:
            mem.store_u64(addr, value)
        return None

    def _scalar_store_fp(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        self.mem.store_f32(addr, self.frf.values[instr.rs2])
        return None

    _BRANCH_FNS = {
        Op.BEQ: lambda a, b: a == b,
        Op.BNE: lambda a, b: a != b,
        Op.BLT: lambda a, b: a < b,
        Op.BGE: lambda a, b: a >= b,
        Op.BLTU: lambda a, b: to_unsigned64(a) < to_unsigned64(b),
        Op.BGEU: lambda a, b: to_unsigned64(a) >= to_unsigned64(b),
    }

    def _branch(self, instr: Instr):
        xv = self.xrf.values
        taken = self._BRANCH_FNS[instr.op](xv[instr.rs1], xv[instr.rs2])
        return instr.imm if taken else None

    def _jal(self, instr: Instr):
        # rd receives pc+4; the ISS patches the true value afterwards.
        return ("jump", instr.imm)

    def _jalr(self, instr: Instr):
        target = (self.xrf.values[instr.rs1] + instr.imm) & ~1
        return ("jump_abs", target)

    # ==================================================================
    # vector handlers
    # ==================================================================
    def _vsetvli(self, instr: Instr):
        avl = self.xrf.values[instr.rs1]
        vlmax = self.config.vector.vlmax
        new_vl = vlmax if avl >= vlmax or avl < 0 else avl
        if new_vl <= 0:
            raise SimulationError("vsetvli selected a zero vector length")
        self.vl = new_vl
        self.xrf.write(instr.rd, new_vl)
        return None

    def _vle32(self, instr: Instr):
        addr = self.xrf.values[instr.rs1]
        vl = self._vl
        words = self.mem.words
        if addr & 3 or addr < 0 or addr + 4 * vl > 4 * len(words):
            # unaligned or out of range: the checked byte path
            self._raw_v[instr.vd][:] = self.mem.load_vec_u32(addr, vl)
        else:
            self._raw_v[instr.vd][:] = words[addr >> 2:(addr >> 2) + vl]
        return None

    def _vse32(self, instr: Instr):
        addr = self.xrf.values[instr.rs1]
        vl = self._vl
        words = self.mem.words
        if addr & 3 or addr < 0 or addr + 4 * vl > 4 * len(words):
            self.mem.store_vec_u32(addr, self._raw_v[instr.vd])
        else:
            words[addr >> 2:(addr >> 2) + vl] = self._raw_v[instr.vd]
        return None

    @staticmethod
    def _make_vv_i32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            i32 = self.vrf.i32
            i32[instr.vd, :vl] = fn(i32[instr.vs2, :vl], i32[instr.vs1, :vl])
            return None
        return handler

    @staticmethod
    def _make_vv_u32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            raw = self.vrf.raw
            raw[instr.vd, :vl] = fn(raw[instr.vs2, :vl], raw[instr.vs1, :vl])
            return None
        return handler

    @staticmethod
    def _make_vx_i32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            value = _i32(self.xrf.values[instr.rs1])
            i32 = self.vrf.i32
            i32[instr.vd, :vl] = fn(i32[instr.vs2, :vl], value)
            return None
        return handler

    @staticmethod
    def _make_vx_u32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            value = np.uint32(self.xrf.values[instr.rs1] & 0xFFFFFFFF)
            raw = self.vrf.raw
            raw[instr.vd, :vl] = fn(raw[instr.vs2, :vl], value)
            return None
        return handler

    @staticmethod
    def _make_vi_i32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            i32 = self.vrf.i32
            i32[instr.vd, :vl] = fn(i32[instr.vs2, :vl], np.int32(instr.imm))
            return None
        return handler

    @staticmethod
    def _make_vv_f32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            f32 = self.vrf.f32
            f32[instr.vd, :vl] = fn(f32[instr.vs2, :vl], f32[instr.vs1, :vl])
            return None
        return handler

    @staticmethod
    def _make_vf_f32(fn):
        def handler(self, instr: Instr):
            vl = self.vl
            scalar = np.float32(self.frf.values[instr.rs1])
            f32 = self.vrf.f32
            f32[instr.vd, :vl] = fn(f32[instr.vs2, :vl], scalar)
            return None
        return handler

    def _vfmacc_vf(self, instr: Instr):
        product = self._product
        np.multiply(np.float32(self.frf.values[instr.rs1]),
                    self._f32_v[instr.vs2], out=product)
        vd = self._f32_v[instr.vd]
        np.add(vd, product, out=vd)
        return None

    def _vfmacc_vv(self, instr: Instr):
        vl = self.vl
        self.vrf.f32[instr.vd, :vl] += \
            self.vrf.f32[instr.vs1, :vl] * self.vrf.f32[instr.vs2, :vl]
        return None

    def _vmacc_vv(self, instr: Instr):
        vl = self.vl
        i32 = self.vrf.i32
        i32[instr.vd, :vl] += i32[instr.vs1, :vl] * i32[instr.vs2, :vl]
        return None

    def _vmacc_vx(self, instr: Instr):
        vl = self.vl
        value = _i32(self.xrf.values[instr.rs1])
        i32 = self.vrf.i32
        i32[instr.vd, :vl] += value * i32[instr.vs2, :vl]
        return None

    def _vredsum_vs(self, instr: Instr):
        vl = self.vl
        i32 = self.vrf.i32
        total = int(i32[instr.vs1, 0]) + int(i32[instr.vs2, :vl].sum(
            dtype=np.int64))
        i32[instr.vd, 0] = _i32(total)
        return None

    def _vfredusum_vs(self, instr: Instr):
        vl = self.vl
        f32 = self.vrf.f32
        f32[instr.vd, 0] = np.float32(
            f32[instr.vs1, 0] + f32[instr.vs2, :vl].sum(dtype=np.float32))
        return None

    def _vslide1down_vx(self, instr: Instr):
        vd = self._raw_v[instr.vd]
        vd[:-1] = self._raw_v[instr.vs2][1:]  # overlap-safe view copy
        vd[-1] = self.xrf.values[instr.rs1] & 0xFFFFFFFF
        return None

    def _vslidedown_common(self, instr: Instr, amount: int):
        vl = self.vl
        raw = self.vrf.raw
        if amount >= vl:
            raw[instr.vd, :vl] = 0
        else:
            src = raw[instr.vs2, :vl].copy()
            raw[instr.vd, :vl - amount] = src[amount:]
            raw[instr.vd, vl - amount:vl] = 0

    def _vslidedown_vx(self, instr: Instr):
        # the offset is XLEN-unsigned: x = -1 slides everything out
        self._vslidedown_common(instr,
                                to_unsigned64(self.xrf.values[instr.rs1]))
        return None

    def _vslidedown_vi(self, instr: Instr):
        self._vslidedown_common(instr, instr.imm)
        return None

    def _vslideup_common(self, instr: Instr, amount: int):
        """vd[i + amount] = vs2[i]; elements below `amount` keep vd."""
        vl = self.vl
        raw = self.vrf.raw
        if amount < vl:
            src = raw[instr.vs2, :vl - amount].copy()
            raw[instr.vd, amount:vl] = src

    def _vslideup_vx(self, instr: Instr):
        # the offset is XLEN-unsigned: x = -1 leaves vd unchanged
        self._vslideup_common(instr,
                              to_unsigned64(self.xrf.values[instr.rs1]))
        return None

    def _vslideup_vi(self, instr: Instr):
        self._vslideup_common(instr, instr.imm)
        return None

    def _vslide1up_vx(self, instr: Instr):
        vl = self.vl
        raw = self.vrf.raw
        src = raw[instr.vs2, :vl - 1].copy()
        raw[instr.vd, 1:vl] = src
        raw[instr.vd, 0] = np.uint32(self.xrf.values[instr.rs1] & 0xFFFFFFFF)
        return None

    def _vmv_v_i(self, instr: Instr):
        self.vrf.i32[instr.vd, :self.vl] = np.int32(instr.imm)
        return None

    def _vmv_v_x(self, instr: Instr):
        self.vrf.i32[instr.vd, :self.vl] = _i32(self.xrf.values[instr.rs1])
        return None

    def _vmv_v_v(self, instr: Instr):
        self.vrf.raw[instr.vd, :self.vl] = self.vrf.raw[instr.vs1, :self.vl]
        return None

    def _vmv_s_x(self, instr: Instr):
        self.vrf.raw[instr.vd, 0] = \
            np.uint32(self.xrf.values[instr.rs1] & 0xFFFFFFFF)
        return None

    def _vmv_x_s(self, instr: Instr):
        if instr.rd:
            self.xrf.values[instr.rd] = self._i32_v[instr.vs2].item(0)
        return None

    def _vfmv_f_s(self, instr: Instr):
        self.frf.values[instr.rd] = self._f32_v[instr.vs2].item(0)
        return None

    def _vfmv_s_f(self, instr: Instr):
        self.vrf.f32[instr.vd, 0] = np.float32(self.frf.values[instr.rs1])
        return None

    def _vid_v(self, instr: Instr):
        vl = self.vl
        self.vrf.i32[instr.vd, :vl] = np.arange(vl, dtype=np.int32)
        return None

    def _vindexmac_vx(self, instr: Instr):
        """``vd[i] += vs2[0] * vrf[rs1[4:0]][i]`` (paper Section III-A)."""
        f32 = self._f32_v
        product = self._product
        np.multiply(f32[instr.vs2][0], f32[self.xrf.values[instr.rs1] & 0x1F],
                    out=product)
        vd = f32[instr.vd]
        np.add(vd, product, out=vd)
        return None


#: opcode -> ``handler(core, instr)``, shared by every core: holding no
#: core keeps cores free of reference cycles, so a finished job's
#: memory image is released as soon as its last reference goes.
FunctionalCore.handlers = FunctionalCore._build_handlers()

#: Bytes moved per scalar memory op, FP included — the shared vocabulary
#: of the replaying backends and the loop-summary pass (trace/analytic).
SCALAR_LOAD_BYTES = {op: size
                     for op, (size, _) in FunctionalCore._LOAD_SIZES.items()}
SCALAR_LOAD_BYTES[Op.FLW] = 4
SCALAR_STORE_BYTES = dict(FunctionalCore._STORE_SIZES)
SCALAR_STORE_BYTES[Op.FSW] = 4
