"""The decoupled vector processor model (timing over a functional core).

This is the library's substitute for the paper's Gem5 setup (model
``1bDV`` of big.VLITTLE [24]): an out-of-order superscalar scalar core
driving a decoupled, in-order vector engine that talks to the shared L2
directly.

The simulator is **trace-driven**: it consumes the dynamic instruction
stream (either emitted by a kernel builder or fetched by the ISS in
:mod:`repro.arch.interpreter`) and, for each instruction, both

* executes it functionally — the :class:`~repro.arch.functional.
  FunctionalCore` keeps registers and memory bit-exact, so every kernel
  result can be checked against numpy; and
* assigns it timing — dispatch bandwidth and ROB occupancy in the
  scalar core, in-order posting through the vector instruction queue,
  in-order single-issue with whole-register dependency tracking in the
  vector engine, load/store queue occupancy, banked L2 and DRAM
  latency/bandwidth, and the vector-to-scalar round-trip that the
  ``vindexmac`` instruction exists to avoid.

The two concerns are split across modules: every handler here computes
*when* an instruction happens and then delegates *what* it does to the
functional core, so timing backends (:mod:`repro.arch.timing`) can run
the same instructions with or without the cycle model.

**Where the timing state lives.**  :meth:`DecoupledProcessor.
_build_handlers` binds one fused closure per opcode class.  Each closure
inlines the whole per-instruction bookkeeping — claim a dispatch slot
inside the ROB window, wait for scalar operands, post in order to the
vector instruction queue (VIQ), retire into the ROB, issue in order,
bump the end cycle — with the configuration constants captured.  The
scalar clocks (dispatch cycle and slot count, last commit/post/issue,
end cycle) are closure cells of that builder, shared by every handler;
the ROB, VIQ and load/store-queue deques are captured the same way.
:attr:`~DecoupledProcessor.cycles` and :meth:`~DecoupledProcessor.
shift_time` reach them through two accessor closures, and the shift
mutates the deques in place.  Register readiness (``x_ready``,
``f_ready``, ``v_ready``) and the vector-store line map are plain
processor attributes the closures hold by reference.

**How Blocks are bound.**  :meth:`~DecoupledProcessor.run_block`
resolves a trace :class:`~repro.isa.trace.Block` once into a list of
``(handler, instr)`` pairs plus its instruction-class counter deltas,
then replays that list; :meth:`~DecoupledProcessor.run_nodes` repeats
the bound Blocks of each Loop body — no per-instruction generator, no
per-instruction opcode lookup.  Bindings are kept on the processor,
never on the (memoised, shared) trace, so they die with the job.
:meth:`~DecoupledProcessor.run` (raw streams) and :meth:`~
DecoupledProcessor.step` (the ISS) call the very same closures.

The model is cycle-approximate, not cycle-accurate: it reproduces the
relative behaviour of instruction streams on a fixed microarchitecture,
which is what the paper's speedup and memory-traffic results measure.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.arch.config import ProcessorConfig
from repro.arch.functional import FunctionalCore
from repro.arch.hierarchy import MemoryHierarchy
from repro.arch.memory import FlatMemory
from repro.arch.stats import ExecutionStats
from repro.isa.instructions import Instr, Op
from repro.isa.trace import Block

#: Hierarchy counters mirrored into :meth:`DecoupledProcessor.
#: counter_snapshot` — (snapshot key, component attr, counter attr).
_HIERARCHY_COUNTERS = (
    ("l1d_hits", "l1d", "hits"),
    ("l1d_misses", "l1d", "misses"),
    ("l2_hits", "l2", "hits"),
    ("l2_misses", "l2", "misses"),
    ("l2_writebacks", "l2", "writebacks"),
    ("dram_reads", "dram", "reads"),
    ("dram_writes", "dram", "writes"),
    ("dram_row_hits", "dram", "row_hits"),
    ("dram_row_misses", "dram", "row_misses"),
)


class DecoupledProcessor:
    """Scalar core + decoupled vector engine + memory hierarchy.

    Architectural state (registers, memory, ``vl``) lives in the
    :class:`FunctionalCore` exposed as :attr:`core`; this class owns
    only timing state and statistics.
    """

    def __init__(self, config: ProcessorConfig | None = None,
                 memory: FlatMemory | None = None,
                 core: FunctionalCore | None = None):
        if core is None:
            core = FunctionalCore(config, memory)
        self.core = core
        self.config = core.config
        self.mem = core.mem
        self.xrf = core.xrf
        self.frf = core.frf
        self.vrf = core.vrf
        self.hierarchy = MemoryHierarchy(self.config)
        # per-register readiness (cycle when the value is available)
        self.x_ready = [0.0] * 32
        self.f_ready = [0.0] * 32
        self.v_ready = [0.0] * self.config.vector.num_vregs
        self._line_store_done: dict[int, float] = {}
        self._counts = {
            "instructions": 0, "scalar": 0, "vector": 0,
            "vloads": 0, "vstores": 0, "sloads": 0, "sstores": 0,
            "v2s": 0, "vindexmac": 0, "vfmacc": 0, "slides": 0,
            "branches": 0,
        }
        #: id(block) -> (block, [(handler, instr)], counter deltas)
        self._bound: dict[int, tuple] = {}
        self._build_handlers()

    # ==================================================================
    # public API
    # ==================================================================
    @property
    def vl(self) -> int:
        """Current vector length (architectural state, lives in the core)."""
        return self.core.vl

    @vl.setter
    def vl(self, value: int) -> None:
        self.core.vl = value

    def run_nodes(self, nodes) -> None:
        """Time a sequence of trace nodes in full detail: Blocks run
        their bound handler lists, Loops repeat their bodies."""
        run_block = self.run_block
        for node in nodes:
            if type(node) is Block:
                run_block(node)
            else:
                body = node.body
                for _ in range(node.repeat):
                    self.run_nodes(body)

    def run_block(self, block: Block) -> None:
        """Time one straight-line :class:`Block` (bound on first use)."""
        bound = self._bound.get(id(block))
        if bound is None or bound[0] is not block:
            handlers, keys = self._handlers, self._count_keys
            deltas = Counter(key for instr in block.instrs
                             for key in keys[instr.op])
            bound = (block, [(handlers[instr.op], instr)
                             for instr in block.instrs],
                     tuple(deltas.items()))
            self._bound[id(block)] = bound
        counts = self._counts
        for key, n in bound[2]:
            counts[key] += n
        for handler, instr in bound[1]:
            handler(instr)

    def run(self, stream) -> None:
        """Execute a raw dynamic instruction stream (trace mode)."""
        step = self.step
        for instr in stream:
            step(instr)

    def step(self, instr: Instr):
        """Execute one instruction; returns control-flow info (see ISS)."""
        counts = self._counts
        for key in self._count_keys[instr.op]:
            counts[key] += 1
        return self._handlers[instr.op](instr)

    def stats(self) -> ExecutionStats:
        """Snapshot of all statistics up to now."""
        c = self._counts
        h = self.hierarchy
        return ExecutionStats(
            cycles=self._now(),
            instructions=c["instructions"],
            scalar_instructions=c["scalar"],
            vector_instructions=c["vector"],
            vector_loads=c["vloads"],
            vector_stores=c["vstores"],
            scalar_loads=c["sloads"],
            scalar_stores=c["sstores"],
            vector_to_scalar_moves=c["v2s"],
            vindexmac_count=c["vindexmac"],
            vfmacc_count=c["vfmacc"],
            slide_count=c["slides"],
            branches=c["branches"],
            l1d_hits=h.l1d.hits, l1d_misses=h.l1d.misses,
            l2_hits=h.l2.hits, l2_misses=h.l2.misses,
            l2_writebacks=h.l2.writebacks,
            dram_reads=h.dram.reads, dram_writes=h.dram.writes,
            dram_row_hits=h.dram.row_hits, dram_row_misses=h.dram.row_misses,
        )

    @property
    def cycles(self) -> float:
        return self._now()

    # ==================================================================
    # extrapolation hooks (used by the compressed-replay backend)
    # ==================================================================
    def counter_snapshot(self) -> dict[str, float]:
        """All cumulative counters plus the current cycle, as one dict."""
        snap = dict(self._counts)
        snap["cycles"] = self._now()
        h = self.hierarchy
        for key, part, attr in _HIERARCHY_COUNTERS:
            snap[key] = getattr(getattr(h, part), attr)
        return snap

    def counter_keys(self):
        """Keys of the instruction-class counters (no memory system)."""
        return tuple(self._counts)

    def charge(self, counts_delta: dict, repeats: int,
               cycle_shift: float) -> None:
        """Add ``repeats`` copies of a known per-iteration instruction
        mix and advance all clocks by ``cycle_shift`` cycles (the
        compressed backend's accounting for replayed loop iterations
        whose memory statistics were already simulated exactly)."""
        for key, delta in counts_delta.items():
            self._counts[key] += delta * repeats
        self.shift_time(cycle_shift)

    def shift_time(self, dt: float) -> None:
        """Advance every timing clock by ``dt`` cycles."""
        if dt <= 0:
            return
        for ready in (self.x_ready, self.f_ready, self.v_ready):
            for i, t in enumerate(ready):
                ready[i] = t + dt
        store_map = self._line_store_done
        for line, t in store_map.items():
            store_map[line] = t + dt
        self._shift_clocks(dt)
        self.hierarchy.shift(dt)

    # ==================================================================
    # fused timing handlers
    # ==================================================================
    def _build_handlers(self) -> None:
        """Bind the per-opcode timing closures and the clock accessors
        (see the module docstring for where each piece of state lives).

        Dispatch: at most ``issue_width`` instructions per cycle, and
        instruction *k* waits for the commit of *k - rob_entries*.
        Scalar instructions then start once their source registers are
        ready and commit in order at completion.  Vector instructions
        post in order to the VIQ (stalling while it is full), commit at
        post, and issue in order one per cycle once their vector
        operands are ready (memory operations hold the issue port for
        several cycles and wait for a load/store-queue entry).
        """
        scfg = self.config.scalar
        vcfg = self.config.vector
        core = self.core
        functional = core.handlers  # op -> handler(core, instr)
        xv = self.xrf.values
        x_ready, f_ready, v_ready = self.x_ready, self.f_ready, self.v_ready
        store_map = self._line_store_done
        scalar_access = self.hierarchy.scalar_access
        vector_access = self.hierarchy.vector_access
        width, rob_entries = scfg.issue_width, scfg.rob_entries
        viq_depth, post_latency = vcfg.queue_depth, vcfg.post_latency
        load_queues, store_queues = vcfg.load_queues, vcfg.store_queues
        load_hold = vcfg.vload_issue_occupancy - 1
        store_hold = vcfg.vstore_issue_occupancy - 1
        agen, mem_overhead = vcfg.agen_latency, vcfg.mem_overhead_latency
        move, v2s_latency = vcfg.move_latency, vcfg.v2s_latency
        line = self.config.l2.line_bytes

        cycle = 0.0        # current dispatch cycle
        used = 0           # dispatch slots claimed in `cycle`
        last_commit = 0.0  # in-order commit of the youngest instruction
        last_post = 0.0    # in-order VIQ post of the youngest vector op
        last_issue = 0.0   # last cycle the vector issue port is held
        end = 0.0          # completion of the latest-finishing instr
        rob = deque()      # commit cycle per ROB entry
        viq = deque()      # issue cycle per queued vector instruction
        lq = deque()       # completion per in-flight vector load
        sq = deque()       # completion per in-flight vector store

        def scalar_op(fexec, latency, sources, writes_rd):
            """ALU, upper-immediate, ``vsetvli`` and control flow: start
            once ``sources`` of (rs1, rs2) are ready, done after
            ``latency``; returns the functional control-flow outcome."""
            def handler(instr):
                nonlocal cycle, used, last_commit, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                if sources:
                    t = x_ready[instr.rs1]
                    if t > d:
                        d = t
                    if sources == 2:
                        t = x_ready[instr.rs2]
                        if t > d:
                            d = t
                complete = d + latency
                if writes_rd and instr.rd:
                    x_ready[instr.rd] = complete
                if complete > last_commit:
                    last_commit = complete
                rob.append(last_commit)
                if complete > end:
                    end = complete
                return fexec(core, instr)
            return handler

        def scalar_load(fexec, size, ready_file):
            fp = ready_file is f_ready

            def handler(instr):
                nonlocal cycle, used, last_commit, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                t = x_ready[instr.rs1]
                if t > d:
                    d = t
                complete = scalar_access(xv[instr.rs1] + instr.imm, size,
                                         d + 1, False)
                fexec(core, instr)
                if fp or instr.rd:
                    ready_file[instr.rd] = complete
                if complete > last_commit:
                    last_commit = complete
                rob.append(last_commit)
                if complete > end:
                    end = complete
            return handler

        def scalar_store(fexec, size, data_file):
            """Stores post through the store buffer: done one cycle
            after address and data are ready."""
            def handler(instr):
                nonlocal cycle, used, last_commit, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                t = x_ready[instr.rs1]
                if t > d:
                    d = t
                t = data_file[instr.rs2]
                if t > d:
                    d = t
                scalar_access(xv[instr.rs1] + instr.imm, size, d + 1, True)
                fexec(core, instr)
                complete = d + 1
                if complete > last_commit:
                    last_commit = complete
                rob.append(last_commit)
                if complete > end:
                    end = complete
            return handler

        def vle32(fexec):
            def handler(instr):
                nonlocal cycle, used, last_commit, last_post, last_issue, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                t = x_ready[instr.rs1]
                if t > d:
                    d = t
                if len(viq) >= viq_depth:
                    t = viq.popleft()
                    if t > d:
                        d = t
                if last_post > d:
                    d = last_post
                last_post = d
                if d > last_commit:
                    last_commit = d
                rob.append(last_commit)
                vd = instr.vd
                operands = v_ready[vd]  # write-after-write ordering
                if len(lq) >= load_queues:
                    t = lq.popleft()
                    if t > operands:
                        operands = t
                issue = d + post_latency
                if operands > issue:
                    issue = operands
                if last_issue + 1 > issue:
                    issue = last_issue + 1
                last_issue = issue + load_hold
                viq.append(issue)
                addr = xv[instr.rs1]
                start = issue + agen
                # order against older vector stores to the same lines
                nbytes = 4 * core.vl
                if store_map:
                    for ln in range(addr // line,
                                    (addr + nbytes - 1) // line + 1):
                        t = store_map.get(ln)
                        if t is not None and t > start:
                            start = t
                complete = vector_access(addr, nbytes, start, False) \
                    + mem_overhead
                lq.append(complete)
                fexec(core, instr)
                v_ready[vd] = complete
                if complete > end:
                    end = complete
            return handler

        def vse32(fexec):
            def handler(instr):
                nonlocal cycle, used, last_commit, last_post, last_issue, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                t = x_ready[instr.rs1]
                if t > d:
                    d = t
                if len(viq) >= viq_depth:
                    t = viq.popleft()
                    if t > d:
                        d = t
                if last_post > d:
                    d = last_post
                last_post = d
                if d > last_commit:
                    last_commit = d
                rob.append(last_commit)
                operands = v_ready[instr.vd]  # store data
                if len(sq) >= store_queues:
                    t = sq.popleft()
                    if t > operands:
                        operands = t
                issue = d + post_latency
                if operands > issue:
                    issue = operands
                if last_issue + 1 > issue:
                    issue = last_issue + 1
                last_issue = issue + store_hold
                viq.append(issue)
                addr = xv[instr.rs1]
                nbytes = 4 * core.vl
                done = vector_access(addr, nbytes, issue + agen, True)
                sq.append(done)
                for ln in range(addr // line, (addr + nbytes - 1) // line + 1):
                    if done > store_map.get(ln, 0.0):
                        store_map[ln] = done
                fexec(core, instr)
                complete = issue + 1  # posted
                if done > end:
                    end = done
                if complete > end:
                    end = complete
            return handler

        def varith(fexec, scalar_file, reads_vs1, reads_vs2, latency):
            """Vector arithmetic: wait for the scalar operand (if any)
            before posting, issue once ``vd`` and the named vector
            sources are ready, complete after ``latency``."""
            def handler(instr):
                nonlocal cycle, used, last_commit, last_post, last_issue, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                if scalar_file is not None:
                    t = scalar_file[instr.rs1]
                    if t > d:
                        d = t
                if len(viq) >= viq_depth:
                    t = viq.popleft()
                    if t > d:
                        d = t
                if last_post > d:
                    d = last_post
                last_post = d
                if d > last_commit:
                    last_commit = d
                rob.append(last_commit)
                operands = v_ready[instr.vd]
                if reads_vs2:
                    t = v_ready[instr.vs2]
                    if t > operands:
                        operands = t
                if reads_vs1:
                    t = v_ready[instr.vs1]
                    if t > operands:
                        operands = t
                issue = d + post_latency
                if operands > issue:
                    issue = operands
                if last_issue + 1 > issue:
                    issue = last_issue + 1
                last_issue = issue
                viq.append(issue)
                complete = issue + latency
                fexec(core, instr)
                v_ready[instr.vd] = complete
                if complete > end:
                    end = complete
            return handler

        def v2s(fexec, ready_file):
            """Vector-to-scalar move: the result crosses back to the
            scalar core and pays the round-trip ``v2s_latency``."""
            fp = ready_file is f_ready

            def handler(instr):
                nonlocal cycle, used, last_commit, last_post, last_issue, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                if len(viq) >= viq_depth:
                    t = viq.popleft()
                    if t > d:
                        d = t
                if last_post > d:
                    d = last_post
                last_post = d
                if d > last_commit:
                    last_commit = d
                rob.append(last_commit)
                issue = d + post_latency
                operands = v_ready[instr.vs2]
                if operands > issue:
                    issue = operands
                if last_issue + 1 > issue:
                    issue = last_issue + 1
                last_issue = issue
                viq.append(issue)
                arrive = issue + move + v2s_latency
                fexec(core, instr)
                if fp or instr.rd:
                    ready_file[instr.rd] = arrive
                if arrive > end:
                    end = arrive
            return handler

        def vindexmac(fexec, latency):
            """The proposed instruction (Section III-A).

            Timing mirrors ``vfmacc.vf`` — the indexed VRF read reuses
            an existing read port behind a mux (Section III-B) — plus
            the configurable ``indexmac_extra_latency`` (0 by default).
            The crucial property: **no memory access and no second
            vector-to-scalar round-trip**.
            """
            def handler(instr):
                nonlocal cycle, used, last_commit, last_post, last_issue, end
                d = cycle
                if used >= width:
                    d += 1
                if len(rob) >= rob_entries:
                    t = rob.popleft()
                    if t > d:
                        d = t
                if d > cycle:
                    cycle = d
                    used = 1
                else:
                    used += 1
                t = x_ready[instr.rs1]
                if t > d:
                    d = t
                if len(viq) >= viq_depth:
                    t = viq.popleft()
                    if t > d:
                        d = t
                if last_post > d:
                    d = last_post
                last_post = d
                if d > last_commit:
                    last_commit = d
                rob.append(last_commit)
                vd = instr.vd
                operands = v_ready[instr.vs2]
                t = v_ready[vd]
                if t > operands:
                    operands = t
                t = v_ready[xv[instr.rs1] & 0x1F]
                if t > operands:
                    operands = t
                issue = d + post_latency
                if operands > issue:
                    issue = operands
                if last_issue + 1 > issue:
                    issue = last_issue + 1
                last_issue = issue
                viq.append(issue)
                complete = issue + latency
                fexec(core, instr)
                v_ready[vd] = complete
                if complete > end:
                    end = complete
            return handler

        def now() -> float:
            return end

        def shift_clocks(dt: float) -> None:
            nonlocal cycle, last_commit, last_post, last_issue, end
            cycle += dt
            last_commit += dt
            last_post += dt
            last_issue += dt
            end += dt
            for queue in (rob, viq, lq, sq):
                shifted = [t + dt for t in queue]
                queue.clear()
                queue.extend(shifted)

        handlers, count_keys = {}, {}

        def register(op, handler, *counters):
            handlers[op] = handler
            count_keys[op] = ("instructions",) + counters

        alu = scfg.int_alu_latency
        # scalar ALU
        for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL,
                   Op.SRA, Op.SLT, Op.SLTU):
            register(op, scalar_op(functional[op], alu, 2, True), "scalar")
        register(Op.MUL,
                 scalar_op(functional[Op.MUL], scfg.mul_latency, 2, True),
                 "scalar")
        for op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI,
                   Op.SRAI, Op.SLTI, Op.SLTIU):
            register(op, scalar_op(functional[op], alu, 1, True), "scalar")
        for op in (Op.LUI, Op.AUIPC):
            register(op, scalar_op(functional[op], alu, 0, True), "scalar")
        # scalar memory
        for op, (size, _) in FunctionalCore._LOAD_SIZES.items():
            register(op, scalar_load(functional[op], size, x_ready),
                     "scalar", "sloads")
        register(Op.FLW, scalar_load(functional[Op.FLW], 4, f_ready),
                 "scalar", "sloads")
        for op, size in FunctionalCore._STORE_SIZES.items():
            register(op, scalar_store(functional[op], size, x_ready),
                     "scalar", "sstores")
        register(Op.FSW, scalar_store(functional[Op.FSW], 4, f_ready),
                 "scalar", "sstores")
        # control flow (jal's rd receives pc+4; the ISS patches the value)
        for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            register(op,
                     scalar_op(functional[op], scfg.branch_latency, 2, False),
                     "scalar", "branches")
        register(Op.JAL, scalar_op(functional[Op.JAL], 1, 0, True),
                 "scalar", "branches")
        register(Op.JALR, scalar_op(functional[Op.JALR], 1, 1, True),
                 "scalar", "branches")
        # vector configuration and memory
        register(Op.VSETVLI, scalar_op(functional[Op.VSETVLI], 1, 1, True),
                 "vector")
        register(Op.VLE32, vle32(functional[Op.VLE32]), "vector", "vloads")
        register(Op.VSE32, vse32(functional[Op.VSE32]), "vector", "vstores")
        # vector arithmetic: (ops, scalar operand file, reads vs1, reads
        # vs2, completion latency, extra stat counters); vd is always
        # an operand (accumulation or write-after-write ordering)
        mac = vcfg.mac_latency
        slide = vcfg.slide_latency
        # log2(lanes) combining levels behind the MAC pipeline
        reduction = mac + max(1, vcfg.lanes.bit_length() - 1)
        spec = [
            ((Op.VADD_VX, Op.VMUL_VX, Op.VSUB_VX, Op.VRSUB_VX, Op.VAND_VX,
              Op.VOR_VX, Op.VXOR_VX, Op.VMIN_VX, Op.VMAX_VX, Op.VMINU_VX,
              Op.VMAXU_VX), x_ready, False, True, vcfg.alu_latency, ()),
            ((Op.VADD_VI, Op.VRSUB_VI), None, False, True, vcfg.alu_latency,
             ()),
            ((Op.VADD_VV, Op.VSUB_VV, Op.VAND_VV, Op.VOR_VV, Op.VXOR_VV,
              Op.VMIN_VV, Op.VMAX_VV, Op.VMINU_VV, Op.VMAXU_VV, Op.VMUL_VV),
             None, True, True, vcfg.alu_latency, ()),
            ((Op.VFMACC_VF,), f_ready, False, True, mac, ("vfmacc",)),
            ((Op.VFMACC_VV,), None, True, True, mac, ("vfmacc",)),
            ((Op.VFMUL_VF, Op.VFADD_VF, Op.VFSUB_VF), f_ready, False, True,
             mac, ()),
            ((Op.VFADD_VV, Op.VFSUB_VV, Op.VFMUL_VV, Op.VMACC_VV), None,
             True, True, mac, ()),
            ((Op.VMACC_VX,), x_ready, False, True, mac, ()),
            ((Op.VREDSUM_VS, Op.VFREDUSUM_VS), None, True, True, reduction,
             ()),
            ((Op.VSLIDE1DOWN_VX, Op.VSLIDEDOWN_VX, Op.VSLIDEUP_VX,
              Op.VSLIDE1UP_VX), x_ready, False, True, slide, ("slides",)),
            ((Op.VSLIDEDOWN_VI, Op.VSLIDEUP_VI), None, False, True, slide,
             ("slides",)),
            ((Op.VMV_V_I,), None, False, False, move, ()),
            ((Op.VMV_V_X, Op.VMV_S_X), x_ready, False, False, move, ()),
            ((Op.VMV_V_V,), None, True, False, move, ()),
            ((Op.VFMV_S_F,), f_ready, False, False, move, ()),
            ((Op.VID_V,), None, False, False, vcfg.alu_latency, ()),
        ]
        for ops, scalar_file, reads_vs1, reads_vs2, latency, extra in spec:
            for op in ops:
                register(op, varith(functional[op], scalar_file, reads_vs1,
                                    reads_vs2, latency), "vector", *extra)
        register(Op.VMV_X_S, v2s(functional[Op.VMV_X_S], x_ready),
                 "vector", "v2s")
        register(Op.VFMV_F_S, v2s(functional[Op.VFMV_F_S], f_ready),
                 "vector", "v2s")
        register(Op.VINDEXMAC_VX,
                 vindexmac(functional[Op.VINDEXMAC_VX],
                           mac + vcfg.indexmac_extra_latency),
                 "vector", "vindexmac")
        self._handlers = handlers
        self._count_keys = count_keys
        self._now = now
        self._shift_clocks = shift_clocks
