"""Instruction representation for the RV64IM + RVV subset used by IndexMAC.

The whole library shares a single flat instruction record, :class:`Instr`.
Flat records (rather than one dataclass per format) keep trace generation
and simulation fast: kernels emit millions of these objects, and the
processor model dispatches on the integer :class:`Op` code.

Operand conventions follow the RISC-V assembly forms:

* scalar R-type:  ``op rd, rs1, rs2``
* scalar I-type:  ``op rd, rs1, imm``
* loads:          ``op rd, imm(rs1)``
* stores:         ``op rs2, imm(rs1)``  (``rs2`` is the data source)
* branches:       ``op rs1, rs2, offset``
* vector .vx:     ``op vd, vs2, rs1``   (RVV puts the scalar in rs1)
* vector .vf:     ``op vd, vs2, rs1``   (rs1 names an ``f`` register)
* vector .vi:     ``op vd, vs2, imm``
* vle/vse:        ``op vd, (rs1)`` / ``op vs3, (rs1)`` (vs3 stored in vd)
* vindexmac.vx:   ``vindexmac.vx vd, vs2, rs1`` with semantics
  ``vd[i] += vs2[0] * vrf[x[rs1] & 0x1f][i]`` (Section III-A of the paper).
"""

from __future__ import annotations

from enum import IntEnum

from repro.errors import EncodingError
from repro.isa import registers as _regs


class Op(IntEnum):
    """Opcode identifiers for every supported instruction."""

    # --- RV64I scalar ALU, register-register ---
    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    SLL = 5
    SRL = 6
    SRA = 7
    SLT = 8
    SLTU = 9
    MUL = 10  # RV64M

    # --- RV64I scalar ALU, immediate ---
    ADDI = 20
    ANDI = 21
    ORI = 22
    XORI = 23
    SLLI = 24
    SRLI = 25
    SRAI = 26
    SLTI = 27
    SLTIU = 28

    # --- upper-immediate ---
    LUI = 40
    AUIPC = 41

    # --- scalar memory ---
    LB = 50
    LBU = 51
    LH = 52
    LHU = 53
    LW = 54
    LWU = 55
    LD = 56
    SB = 60
    SH = 61
    SW = 62
    SD = 63
    FLW = 64
    FSW = 65

    # --- control flow ---
    BEQ = 70
    BNE = 71
    BLT = 72
    BGE = 73
    BLTU = 74
    BGEU = 75
    JAL = 76
    JALR = 77

    # --- vector configuration ---
    VSETVLI = 90

    # --- vector memory (unit-stride, 32-bit elements) ---
    VLE32 = 100
    VSE32 = 101

    # --- vector arithmetic / permutation ---
    VADD_VX = 110
    VADD_VI = 111
    VADD_VV = 112
    VMUL_VX = 113
    VFMACC_VF = 114
    VFMACC_VV = 115
    VFMUL_VF = 116
    VSLIDE1DOWN_VX = 120
    VSLIDEDOWN_VX = 121
    VSLIDEDOWN_VI = 122
    VMV_V_I = 130
    VMV_V_X = 131
    VMV_V_V = 132
    VMV_X_S = 133
    VFMV_F_S = 134
    VFMV_S_F = 135

    # --- the proposed instruction (paper Section III-A) ---
    VINDEXMAC_VX = 150

    # --- wider RVV subset (general-purpose vector machine) ---
    VSUB_VV = 160
    VSUB_VX = 161
    VRSUB_VX = 162
    VRSUB_VI = 163
    VAND_VV = 164
    VAND_VX = 165
    VOR_VV = 166
    VOR_VX = 167
    VXOR_VV = 168
    VXOR_VX = 169
    VMIN_VV = 170
    VMIN_VX = 171
    VMINU_VV = 172
    VMINU_VX = 173
    VMAX_VV = 174
    VMAX_VX = 175
    VMAXU_VV = 176
    VMAXU_VX = 177
    VMUL_VV = 178
    VMACC_VV = 179
    VMACC_VX = 180
    VREDSUM_VS = 181
    VFADD_VV = 182
    VFADD_VF = 183
    VFSUB_VV = 184
    VFSUB_VF = 185
    VFMUL_VV = 186
    VFREDUSUM_VS = 187
    VSLIDEUP_VX = 188
    VSLIDEUP_VI = 189
    VSLIDE1UP_VX = 190
    VMV_S_X = 191
    VID_V = 192


#: Ops whose result register is a vector register.
VECTOR_DEST_OPS = frozenset({
    Op.VLE32, Op.VADD_VX, Op.VADD_VI, Op.VADD_VV, Op.VMUL_VX,
    Op.VFMACC_VF, Op.VFMACC_VV, Op.VFMUL_VF,
    Op.VSLIDE1DOWN_VX, Op.VSLIDEDOWN_VX, Op.VSLIDEDOWN_VI,
    Op.VMV_V_I, Op.VMV_V_X, Op.VMV_V_V, Op.VFMV_S_F, Op.VINDEXMAC_VX,
    Op.VSUB_VV, Op.VSUB_VX, Op.VRSUB_VX, Op.VRSUB_VI,
    Op.VAND_VV, Op.VAND_VX, Op.VOR_VV, Op.VOR_VX, Op.VXOR_VV, Op.VXOR_VX,
    Op.VMIN_VV, Op.VMIN_VX, Op.VMINU_VV, Op.VMINU_VX,
    Op.VMAX_VV, Op.VMAX_VX, Op.VMAXU_VV, Op.VMAXU_VX,
    Op.VMUL_VV, Op.VMACC_VV, Op.VMACC_VX, Op.VREDSUM_VS,
    Op.VFADD_VV, Op.VFADD_VF, Op.VFSUB_VV, Op.VFSUB_VF, Op.VFMUL_VV,
    Op.VFREDUSUM_VS, Op.VSLIDEUP_VX, Op.VSLIDEUP_VI, Op.VSLIDE1UP_VX,
    Op.VMV_S_X, Op.VID_V,
})

#: Ops executed by the vector engine (including vector memory and moves).
VECTOR_OPS = VECTOR_DEST_OPS | frozenset({
    Op.VSE32, Op.VMV_X_S, Op.VFMV_F_S, Op.VSETVLI,
})

#: Vector ops that move a value from the vector engine back to the scalar
#: core.  These are the costly round-trips in a decoupled design.
VECTOR_TO_SCALAR_OPS = frozenset({Op.VMV_X_S, Op.VFMV_F_S})

#: Vector ops that access memory.
VECTOR_MEM_OPS = frozenset({Op.VLE32, Op.VSE32})

#: Scalar ops that access memory.
SCALAR_LOAD_OPS = frozenset({
    Op.LB, Op.LBU, Op.LH, Op.LHU, Op.LW, Op.LWU, Op.LD, Op.FLW,
})
SCALAR_STORE_OPS = frozenset({Op.SB, Op.SH, Op.SW, Op.SD, Op.FSW})

#: Control-flow ops.
BRANCH_OPS = frozenset({
    Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU, Op.JAL, Op.JALR,
})

#: Ops that read a floating-point scalar register through ``rs1``/``rs2``.
FP_SCALAR_OPS = frozenset({
    Op.FLW, Op.FSW, Op.VFMACC_VF, Op.VFMUL_VF, Op.VFMV_F_S, Op.VFMV_S_F,
    Op.VFADD_VF, Op.VFSUB_VF,
})


class Instr:
    """A single decoded instruction.

    The record is deliberately flat; unused operand slots hold 0.  Use the
    constructor helpers in :mod:`repro.isa.builders` (or the assembler) to
    create instances with the right operand slots filled in.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "vd", "vs1", "vs2")

    def __init__(self, op, rd=0, rs1=0, rs2=0, imm=0, vd=0, vs1=0, vs2=0):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.vd = vd
        self.vs1 = vs1
        self.vs2 = vs2

    # ------------------------------------------------------------------
    # classification helpers (used by the timing model and by tests)
    # ------------------------------------------------------------------
    @property
    def is_vector(self) -> bool:
        """True if the vector engine executes this instruction."""
        return self.op in VECTOR_OPS

    @property
    def is_vector_mem(self) -> bool:
        """True for vector loads/stores (the Fig. 6 memory-access metric)."""
        return self.op in VECTOR_MEM_OPS

    @property
    def is_vector_to_scalar(self) -> bool:
        """True for ``vmv.x.s`` / ``vfmv.f.s`` round-trips."""
        return self.op in VECTOR_TO_SCALAR_OPS

    @property
    def is_scalar_mem(self) -> bool:
        return self.op in SCALAR_LOAD_OPS or self.op in SCALAR_STORE_OPS

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Hashable identity of the instruction (used in tests)."""
        return (self.op, self.rd, self.rs1, self.rs2, self.imm,
                self.vd, self.vs1, self.vs2)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Instr({self.asm()})"

    # ------------------------------------------------------------------
    def asm(self) -> str:
        """Render the canonical assembly text of this instruction."""
        # Imported lazily to avoid a circular import at module load time.
        from repro.isa.disassembler import format_instr

        return format_instr(self)


def _x(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.x_reg(idx_or_name)
    return int(idx_or_name)


def _f(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.f_reg(idx_or_name)
    return int(idx_or_name)


def _v(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.v_reg(idx_or_name)
    return int(idx_or_name)


def _uimm5(imm) -> int:
    """A slide amount immediate: unsigned, 5 bits (as the encoder)."""
    imm = int(imm)
    if not 0 <= imm <= 31:
        raise EncodingError(f"slide immediate {imm} out of range [0, 31]")
    return imm


class I:
    """Constructor helpers: ``I.addi("t0", "t0", 4)``, ``I.vle32(4, "a1")``.

    Register operands accept either integer indices or ABI names.  The
    class only namespaces the helpers; it is never instantiated.
    """

    # --- scalar ALU ---
    @staticmethod
    def add(rd, rs1, rs2):
        return Instr(Op.ADD, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def sub(rd, rs1, rs2):
        return Instr(Op.SUB, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def and_(rd, rs1, rs2):
        return Instr(Op.AND, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def or_(rd, rs1, rs2):
        return Instr(Op.OR, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def xor(rd, rs1, rs2):
        return Instr(Op.XOR, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def sll(rd, rs1, rs2):
        return Instr(Op.SLL, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def srl(rd, rs1, rs2):
        return Instr(Op.SRL, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def sra(rd, rs1, rs2):
        return Instr(Op.SRA, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def slt(rd, rs1, rs2):
        return Instr(Op.SLT, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def sltu(rd, rs1, rs2):
        return Instr(Op.SLTU, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    @staticmethod
    def mul(rd, rs1, rs2):
        return Instr(Op.MUL, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2))

    # --- scalar ALU immediate ---
    @staticmethod
    def addi(rd, rs1, imm):
        return Instr(Op.ADDI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def andi(rd, rs1, imm):
        return Instr(Op.ANDI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def ori(rd, rs1, imm):
        return Instr(Op.ORI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def xori(rd, rs1, imm):
        return Instr(Op.XORI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def slli(rd, rs1, imm):
        return Instr(Op.SLLI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def srli(rd, rs1, imm):
        return Instr(Op.SRLI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def srai(rd, rs1, imm):
        return Instr(Op.SRAI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def slti(rd, rs1, imm):
        return Instr(Op.SLTI, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def sltiu(rd, rs1, imm):
        return Instr(Op.SLTIU, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def li(rd, imm):
        """Pseudo-instruction: materialise a small constant (``addi rd,x0``)."""
        return Instr(Op.ADDI, rd=_x(rd), rs1=0, imm=int(imm))

    @staticmethod
    def mv(rd, rs1):
        """Pseudo-instruction: register copy (``addi rd, rs1, 0``)."""
        return Instr(Op.ADDI, rd=_x(rd), rs1=_x(rs1), imm=0)

    @staticmethod
    def nop():
        return Instr(Op.ADDI, rd=0, rs1=0, imm=0)

    # --- upper immediates ---
    @staticmethod
    def lui(rd, imm):
        return Instr(Op.LUI, rd=_x(rd), imm=int(imm))

    @staticmethod
    def auipc(rd, imm):
        return Instr(Op.AUIPC, rd=_x(rd), imm=int(imm))

    # --- scalar memory ---
    @staticmethod
    def lw(rd, rs1, imm=0):
        return Instr(Op.LW, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def lwu(rd, rs1, imm=0):
        return Instr(Op.LWU, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def ld(rd, rs1, imm=0):
        return Instr(Op.LD, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def lb(rd, rs1, imm=0):
        return Instr(Op.LB, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def lbu(rd, rs1, imm=0):
        return Instr(Op.LBU, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def lh(rd, rs1, imm=0):
        return Instr(Op.LH, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def lhu(rd, rs1, imm=0):
        return Instr(Op.LHU, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def sw(rs2, rs1, imm=0):
        return Instr(Op.SW, rs2=_x(rs2), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def sd(rs2, rs1, imm=0):
        return Instr(Op.SD, rs2=_x(rs2), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def sb(rs2, rs1, imm=0):
        return Instr(Op.SB, rs2=_x(rs2), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def sh(rs2, rs1, imm=0):
        return Instr(Op.SH, rs2=_x(rs2), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def flw(rd, rs1, imm=0):
        return Instr(Op.FLW, rd=_f(rd), rs1=_x(rs1), imm=int(imm))

    @staticmethod
    def fsw(rs2, rs1, imm=0):
        return Instr(Op.FSW, rs2=_f(rs2), rs1=_x(rs1), imm=int(imm))

    # --- control flow (imm = byte offset or label-resolved offset) ---
    @staticmethod
    def beq(rs1, rs2, imm):
        return Instr(Op.BEQ, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def bne(rs1, rs2, imm):
        return Instr(Op.BNE, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def blt(rs1, rs2, imm):
        return Instr(Op.BLT, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def bge(rs1, rs2, imm):
        return Instr(Op.BGE, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def bltu(rs1, rs2, imm):
        return Instr(Op.BLTU, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def bgeu(rs1, rs2, imm):
        return Instr(Op.BGEU, rs1=_x(rs1), rs2=_x(rs2), imm=int(imm))

    @staticmethod
    def jal(rd, imm):
        return Instr(Op.JAL, rd=_x(rd), imm=int(imm))

    @staticmethod
    def jalr(rd, rs1, imm=0):
        return Instr(Op.JALR, rd=_x(rd), rs1=_x(rs1), imm=int(imm))

    # --- vector configuration ---
    @staticmethod
    def vsetvli(rd, rs1, vtypei):
        """``vsetvli rd, rs1, vtypei`` — request AVL=x[rs1], get vl in rd."""
        return Instr(Op.VSETVLI, rd=_x(rd), rs1=_x(rs1), imm=int(vtypei))

    # --- vector memory ---
    @staticmethod
    def vle32(vd, rs1):
        return Instr(Op.VLE32, vd=_v(vd), rs1=_x(rs1))

    @staticmethod
    def vse32(vs3, rs1):
        return Instr(Op.VSE32, vd=_v(vs3), rs1=_x(rs1))

    # --- vector arithmetic ---
    @staticmethod
    def vadd_vx(vd, vs2, rs1):
        return Instr(Op.VADD_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vadd_vi(vd, vs2, imm):
        return Instr(Op.VADD_VI, vd=_v(vd), vs2=_v(vs2), imm=int(imm))

    @staticmethod
    def vadd_vv(vd, vs2, vs1):
        return Instr(Op.VADD_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vmul_vx(vd, vs2, rs1):
        return Instr(Op.VMUL_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vfmacc_vf(vd, rs1, vs2):
        """``vfmacc.vf vd, rs1, vs2`` — ``vd[i] += f[rs1] * vs2[i]``."""
        return Instr(Op.VFMACC_VF, vd=_v(vd), rs1=_f(rs1), vs2=_v(vs2))

    @staticmethod
    def vfmacc_vv(vd, vs1, vs2):
        return Instr(Op.VFMACC_VV, vd=_v(vd), vs1=_v(vs1), vs2=_v(vs2))

    @staticmethod
    def vfmul_vf(vd, vs2, rs1):
        return Instr(Op.VFMUL_VF, vd=_v(vd), vs2=_v(vs2), rs1=_f(rs1))

    @staticmethod
    def vslide1down_vx(vd, vs2, rs1):
        """Slide elements down one slot; x[rs1] fills the top element."""
        return Instr(Op.VSLIDE1DOWN_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vslidedown_vx(vd, vs2, rs1):
        return Instr(Op.VSLIDEDOWN_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vslidedown_vi(vd, vs2, imm):
        return Instr(Op.VSLIDEDOWN_VI, vd=_v(vd), vs2=_v(vs2),
                     imm=_uimm5(imm))

    @staticmethod
    def vmv_v_i(vd, imm):
        return Instr(Op.VMV_V_I, vd=_v(vd), imm=int(imm))

    @staticmethod
    def vmv_v_x(vd, rs1):
        return Instr(Op.VMV_V_X, vd=_v(vd), rs1=_x(rs1))

    @staticmethod
    def vmv_v_v(vd, vs1):
        return Instr(Op.VMV_V_V, vd=_v(vd), vs1=_v(vs1))

    @staticmethod
    def vmv_x_s(rd, vs2):
        """``vmv.x.s rd, vs2`` — move element 0 to an integer register."""
        return Instr(Op.VMV_X_S, rd=_x(rd), vs2=_v(vs2))

    @staticmethod
    def vfmv_f_s(rd, vs2):
        """``vfmv.f.s rd, vs2`` — move element 0 to an FP register."""
        return Instr(Op.VFMV_F_S, rd=_f(rd), vs2=_v(vs2))

    @staticmethod
    def vfmv_s_f(vd, rs1):
        return Instr(Op.VFMV_S_F, vd=_v(vd), rs1=_f(rs1))

    # --- the proposed instruction ---
    @staticmethod
    def vindexmac_vx(vd, vs2, rs1):
        """``vindexmac.vx vd, vs2, rs1`` (paper Section III-A).

        ``vd[i] += vs2[0] * vrf[x[rs1] & 0x1f][i]`` — the scalar register
        indirectly addresses the vector register file; ``vs2`` contributes
        only its least-significant element.
        """
        return Instr(Op.VINDEXMAC_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    # --- wider RVV subset ---
    @staticmethod
    def vsub_vv(vd, vs2, vs1):
        return Instr(Op.VSUB_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vsub_vx(vd, vs2, rs1):
        return Instr(Op.VSUB_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vrsub_vx(vd, vs2, rs1):
        return Instr(Op.VRSUB_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vrsub_vi(vd, vs2, imm):
        return Instr(Op.VRSUB_VI, vd=_v(vd), vs2=_v(vs2), imm=int(imm))

    @staticmethod
    def vand_vv(vd, vs2, vs1):
        return Instr(Op.VAND_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vand_vx(vd, vs2, rs1):
        return Instr(Op.VAND_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vor_vv(vd, vs2, vs1):
        return Instr(Op.VOR_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vor_vx(vd, vs2, rs1):
        return Instr(Op.VOR_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vxor_vv(vd, vs2, vs1):
        return Instr(Op.VXOR_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vxor_vx(vd, vs2, rs1):
        return Instr(Op.VXOR_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vmin_vv(vd, vs2, vs1):
        return Instr(Op.VMIN_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vmin_vx(vd, vs2, rs1):
        return Instr(Op.VMIN_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vminu_vv(vd, vs2, vs1):
        return Instr(Op.VMINU_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vminu_vx(vd, vs2, rs1):
        return Instr(Op.VMINU_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vmax_vv(vd, vs2, vs1):
        return Instr(Op.VMAX_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vmax_vx(vd, vs2, rs1):
        return Instr(Op.VMAX_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vmaxu_vv(vd, vs2, vs1):
        return Instr(Op.VMAXU_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vmaxu_vx(vd, vs2, rs1):
        return Instr(Op.VMAXU_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vmul_vv(vd, vs2, vs1):
        return Instr(Op.VMUL_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vmacc_vv(vd, vs1, vs2):
        """``vmacc.vv vd, vs1, vs2`` — ``vd[i] += vs1[i] * vs2[i]`` (int)."""
        return Instr(Op.VMACC_VV, vd=_v(vd), vs1=_v(vs1), vs2=_v(vs2))

    @staticmethod
    def vmacc_vx(vd, rs1, vs2):
        """``vmacc.vx vd, rs1, vs2`` — ``vd[i] += x[rs1] * vs2[i]`` (int)."""
        return Instr(Op.VMACC_VX, vd=_v(vd), rs1=_x(rs1), vs2=_v(vs2))

    @staticmethod
    def vredsum_vs(vd, vs2, vs1):
        """``vredsum.vs vd, vs2, vs1`` — ``vd[0] = vs1[0] + sum(vs2[*])``."""
        return Instr(Op.VREDSUM_VS, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vfadd_vv(vd, vs2, vs1):
        return Instr(Op.VFADD_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vfadd_vf(vd, vs2, rs1):
        return Instr(Op.VFADD_VF, vd=_v(vd), vs2=_v(vs2), rs1=_f(rs1))

    @staticmethod
    def vfsub_vv(vd, vs2, vs1):
        return Instr(Op.VFSUB_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vfsub_vf(vd, vs2, rs1):
        return Instr(Op.VFSUB_VF, vd=_v(vd), vs2=_v(vs2), rs1=_f(rs1))

    @staticmethod
    def vfmul_vv(vd, vs2, vs1):
        return Instr(Op.VFMUL_VV, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vfredusum_vs(vd, vs2, vs1):
        """Unordered float reduction: ``vd[0] = vs1[0] + sum(vs2[*])``."""
        return Instr(Op.VFREDUSUM_VS, vd=_v(vd), vs2=_v(vs2), vs1=_v(vs1))

    @staticmethod
    def vslideup_vx(vd, vs2, rs1):
        return Instr(Op.VSLIDEUP_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vslideup_vi(vd, vs2, imm):
        return Instr(Op.VSLIDEUP_VI, vd=_v(vd), vs2=_v(vs2), imm=_uimm5(imm))

    @staticmethod
    def vslide1up_vx(vd, vs2, rs1):
        """Slide elements up one slot; x[rs1] fills element 0."""
        return Instr(Op.VSLIDE1UP_VX, vd=_v(vd), vs2=_v(vs2), rs1=_x(rs1))

    @staticmethod
    def vmv_s_x(vd, rs1):
        """``vmv.s.x vd, rs1`` — write x[rs1] into element 0 only."""
        return Instr(Op.VMV_S_X, vd=_v(vd), rs1=_x(rs1))

    @staticmethod
    def vid_v(vd):
        """``vid.v vd`` — ``vd[i] = i``."""
        return Instr(Op.VID_V, vd=_v(vd))
