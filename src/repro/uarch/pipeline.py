"""Cycle-accurate model of the 5-stage in-order RV32IM core.

This is the processor of HPCA 2020 §II-A: Fetch, Decode, Execute, Memory,
Writeback; 2-level branch predictor with a BTB; 32-entry register file;
32 KB data cache (hit = one extra cycle, miss = two further cycles);
multi-cycle multiply/divide; misprediction resolved at the end of Execute
with two younger instructions flushed to bubbles.

Beyond architectural state, the pipeline maintains the hardware *latch*
model of :mod:`repro.uarch.latches`: stages that do real work update their
latches, stalled stages hold them, and flushed stages snap to the NOP bubble
pattern — producing the per-cycle transition-bit vectors that drive both the
ground-truth hardware emitter and EMSim's regression model.

The core is one fused cycle loop (:meth:`Pipeline.run`).  Each cycle
processes Writeback, Memory, Execute, then either the misprediction
flush or Decode and Fetch, so every stage sees the slots its older
neighbours vacated this cycle.  Per-instruction constants (machine word,
control words, operand shape, ...) come from a memo keyed by the
instruction's value, and each stage's trace record is one list append
of the in-flight instruction's packed tag OR a ``PACK_*`` constant.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from ..isa.instructions import NOP, Instruction
from ..isa.program import TEXT_BASE, Program
from .branch import BranchTargetBuffer, make_predictor
from .cache import DataCache
from .config import CoreConfig, DEFAULT_CONFIG
from .events import BranchEvent, FlushEvent, StallCause
from .isa_exec import (alu_result, branch_taken, control_flow_target,
                       load_width, store_width)
from .latches import (_C_ALU_A, _C_ALU_B, _C_ALU_OUT, _C_DEC_CTRL,
                      _C_DEC_IMM, _C_DEC_INSTR, _C_EX_CTRL, _C_FETCH_INSTR,
                      _C_MEM_ADDR, _C_MEM_CTRL, _C_MEM_RDATA, _C_MEM_WDATA,
                      _C_MULDIV_HI, _C_MULDIV_LO, _C_PC, _C_PRED_STATE,
                      _C_RS1_VAL, _C_RS2_VAL, _C_WB_CTRL, _C_WB_DATA,
                      _C_WB_RD, _M_PRED_STATE, NOP_CONTROL, HardwareLatches,
                      control_word)
from .memory import MainMemory
from .regfile import RegisterFile
from .trace import (PACK_BUBBLE, PACK_FINAL, PACK_HIT, PACK_MISS, PACK_STALL,
                    ActivityTrace)

MASK32 = 0xFFFFFFFF

# What Execute does with an instruction in its first cycle.
_ALU, _MEMORY, _BRANCH, _JALR, _MULDIV = range(5)


class _Statics:
    """Per-instruction constants of the core, shared by equal instructions."""

    __slots__ = ("word", "ctrl8", "ctrl12", "imm", "b_is_reg", "halts",
                 "is_jal", "is_mul", "sources", "rs1", "rs2", "rd",
                 "kind", "is_load", "is_store", "width", "signed")

    def __init__(self, instr: Instruction) -> None:
        name = instr.name
        self.word = instr.encode()
        self.ctrl8 = control_word(instr, 8)
        self.ctrl12 = control_word(instr, 12)
        self.imm = instr.imm & MASK32
        self.b_is_reg = instr.fmt.value in ("R", "S", "B")
        self.halts = name in ("ecall", "ebreak")
        self.is_jal = name == "jal"
        self.is_mul = name.startswith("mul")
        self.sources = instr.unique_sources
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.rd = instr.destination_register
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.width, self.signed = (
            load_width(name) if instr.is_load else
            (store_width(name), False) if instr.is_store else (0, False))
        if instr.is_branch:
            self.kind = _BRANCH
        elif name == "jalr":
            self.kind = _JALR
        elif instr.is_muldiv:
            self.kind = _MULDIV
        elif instr.is_load or instr.is_store:
            self.kind = _MEMORY
        else:
            self.kind = _ALU


@functools.lru_cache(maxsize=4096)
def _statics(instr: Instruction) -> _Statics:
    """The :class:`_Statics` of ``instr``, memoized by instruction value,
    so every run of a program (and equal instructions of other programs)
    derives them once."""
    return _Statics(instr)


class _Uop:
    """One in-flight dynamic instruction.

    ``e_remaining`` / ``m_remaining`` count the extra cycles left in
    Execute / Memory, ``-1`` until the uop first enters the stage.  For a
    load or store, ``result`` holds the effective address from Execute
    until Memory replaces a load's with the loaded data.
    """

    __slots__ = ("instr", "pc", "seq", "tag", "st", "rd", "pred_taken",
                 "pred_target", "rs1_val", "rs2_val", "result",
                 "result_ready", "e_remaining", "m_remaining", "mem_hit")

    def __init__(self, instr: Instruction, pc: int, seq: int, tag: int,
                 st: _Statics, pred_taken: bool,
                 pred_target: Optional[int]) -> None:
        self.instr = instr
        self.pc = pc
        self.seq = seq
        self.tag = tag
        self.st = st
        self.rd = st.rd
        self.pred_taken = pred_taken
        self.pred_target = pred_target
        self.rs1_val = 0
        self.rs2_val = 0
        self.result = 0
        self.result_ready = False
        self.e_remaining = -1
        self.m_remaining = -1
        self.mem_hit = False


_NOP_WORD = NOP.encode()


class Pipeline:
    """The pipelined core; run a :class:`Program`, get an
    :class:`ActivityTrace` plus final architectural state."""

    def __init__(self, program: Program,
                 config: CoreConfig = DEFAULT_CONFIG,
                 alu_bug: Optional[object] = None,
                 oracle: Optional[object] = None):
        self.program = program
        self.config = config
        self.regfile = RegisterFile()
        self.memory = MainMemory(program.data)
        self.cache = DataCache(config.cache)
        self.predictor = make_predictor(config.predictor,
                                        config.predictor_history_bits,
                                        config.predictor_table_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.latches = HardwareLatches()
        self.trace = ActivityTrace()
        self.alu_bug = alu_bug   # optional callable(instr, a, b) -> result
        self.oracle = oracle     # optional OracleOutcomes (perfect fetch)

        self.pc = program.entry
        self.cycle = 0
        self.next_seq = 0
        self.fetch_halted = False
        self.halted = False

        # stage slots (None = empty / bubble)
        self.f_uop: Optional[_Uop] = None
        self.d_uop: Optional[_Uop] = None
        self.e_uop: Optional[_Uop] = None
        self.m_uop: Optional[_Uop] = None
        self.w_uop: Optional[_Uop] = None

    def run(self, max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run until the program halts or ``max_cycles`` elapse.

        One fused loop, one iteration per clock cycle.  The stage
        slots, ``pc``, ``cycle`` and the halt flags live in locals and
        are written back on exit, so a later call continues the run
        exactly where this one stopped.  Per cycle, each stage appends
        one packed code to its trace column, the latch vector is copied
        into the trace's next row, and stalls, cache accesses and
        retirements are appended as tuples (built into event objects
        when first read).  The result is bit-identical to the retired
        step-per-method engine kept in ``tests/oracles/pipeline.py``.
        """
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        config = self.config
        trace = self.trace
        flat = self.latches.flat_values()
        instructions = self.program.instructions
        text_bytes = 4 * len(instructions)
        alu_bug = self.alu_bug
        oracle = self.oracle
        forwarding = config.forwarding
        hit_cycles = config.cache.hit_extra_cycles
        miss_cycles = hit_cycles + config.cache.miss_extra_cycles
        mul_latency = config.mul_latency
        div_latency = config.div_latency

        read_register = self.regfile.read
        write_register = self.regfile.write
        cache_access = self.cache.access
        memory_load = self.memory.load
        memory_store = self.memory.store
        predictor = self.predictor
        predict = predictor.predict
        predictor_update = predictor.update
        signature = predictor.state_signature
        btb_lookup = self.btb.lookup
        btb_update = self.btb.update
        oracle_pop = oracle.pop if oracle is not None else None
        tag_of = trace.tag
        put_f, put_d, put_e, put_m, put_w = trace.code_appenders()
        stall_rows, cache_rows, retired_rows = trace.event_rows()
        stall, cache_event, retire = (stall_rows.append, cache_rows.append,
                                      retired_rows.append)
        branch_event = trace.branch_events.append
        flush_event = trace.flushes.append
        raw_hazard = StallCause.RAW_HAZARD
        load_use = StallCause.LOAD_USE
        ex_busy = StallCause.EX_BUSY
        mem_busy = StallCause.MEM_BUSY
        cache_miss = StallCause.CACHE_MISS

        row = trace.num_cycles
        vals = trace.reserve(row)
        capacity = vals.shape[0]
        f, d, e, m, w = (self.f_uop, self.d_uop, self.e_uop, self.m_uop,
                         self.w_uop)
        pc = self.pc
        cycle = self.cycle
        seq = self.next_seq
        fetch_halted = self.fetch_halted
        halted = self.halted

        while not halted and cycle < limit:
            # clock-edge handoff: the instruction fetched last cycle
            # enters Decode if the slot was vacated
            if d is None and f is not None:
                d = f
                f = None

            # -- Writeback --------------------------------------------
            if w is None:
                flat[_C_WB_DATA] = 0
                flat[_C_WB_RD] = 0
                flat[_C_WB_CTRL] = 0
                put_w(PACK_BUBBLE)
            else:
                rd = w.rd
                if rd is None:
                    flat[_C_WB_DATA] = 0
                    flat[_C_WB_RD] = 0
                    flat[_C_WB_CTRL] = 0
                else:
                    write_register(rd, w.result)
                    flat[_C_WB_DATA] = w.result & MASK32
                    flat[_C_WB_RD] = rd
                    flat[_C_WB_CTRL] = 1
                put_w(w.tag)
                retire((w.seq, w.pc, w.instr, cycle))
                if w.st.halts:
                    fetch_halted = True
                w = None

            # -- Memory -----------------------------------------------
            if m is None:
                flat[_C_MEM_ADDR] = 0
                flat[_C_MEM_WDATA] = 0
                flat[_C_MEM_CTRL] = 0
                put_m(PACK_BUBBLE)
                mem_free = True
            else:
                st = m.st
                remaining = m.m_remaining
                if remaining < 0:
                    if st.kind == _MEMORY:
                        # first Memory cycle: cache access + data move
                        address = m.result
                        is_store = st.is_store
                        hit = cache_access(address, is_store)
                        m.mem_hit = hit
                        remaining = hit_cycles if hit else miss_cycles
                        cache_event((cycle, address, is_store, hit, m.seq))
                        flat[_C_MEM_ADDR] = address & MASK32
                        flat[_C_MEM_CTRL] = st.ctrl8
                        if is_store:
                            memory_store(address, m.rs2_val, st.width)
                            flat[_C_MEM_WDATA] = m.rs2_val & MASK32
                        else:
                            m.result = memory_load(address, st.width,
                                                   st.signed)
                            if remaining == 0:
                                flat[_C_MEM_RDATA] = m.result & MASK32
                                m.result_ready = True
                        put_m(m.tag | (PACK_HIT if hit else PACK_MISS))
                    else:
                        flat[_C_MEM_CTRL] = st.ctrl8
                        put_m(m.tag)
                        remaining = 0
                else:
                    remaining -= 1
                    if m.mem_hit:
                        put_m(m.tag | PACK_STALL | PACK_HIT)
                        stall((cycle, "M", mem_busy, m.seq))
                    else:
                        put_m(m.tag | PACK_STALL | PACK_MISS)
                        stall((cycle, "M", cache_miss, m.seq))
                    if remaining == 0 and st.is_load:
                        # data-return flip on the read-data bus
                        flat[_C_MEM_RDATA] = m.result & MASK32
                        m.result_ready = True
                m.m_remaining = remaining
                if remaining == 0:
                    w = m
                    m = None
                    mem_free = True
                else:
                    mem_free = False

            # -- Execute ----------------------------------------------
            redirect = None
            if e is None:
                flat[_C_ALU_A] = 0
                flat[_C_ALU_B] = 0
                flat[_C_ALU_OUT] = 0
                flat[_C_EX_CTRL] = 0
                put_e(PACK_BUBBLE)
                exec_free = True
            else:
                remaining = e.e_remaining
                if remaining < 0:
                    # first Execute cycle: compute, resolve control flow
                    st = e.st
                    instr = e.instr
                    a = e.rs1_val
                    b = e.rs2_val
                    flat[_C_ALU_A] = a & MASK32
                    flat[_C_ALU_B] = (b if st.b_is_reg else st.imm) & MASK32
                    flat[_C_EX_CTRL] = st.ctrl8
                    put_e(e.tag)
                    kind = st.kind
                    remaining = 0
                    if kind == _BRANCH or kind == _JALR:
                        upc = e.pc
                        if kind == _BRANCH:
                            taken = branch_taken(instr, a, b)
                            target = control_flow_target(instr, upc, a)
                            flat[_C_ALU_OUT] = \
                                (target if taken else 0) & MASK32
                        else:
                            taken = True
                            target = control_flow_target(instr, upc, a)
                            e.result = (upc + 4) & MASK32
                            flat[_C_ALU_OUT] = e.result
                        e.result_ready = True
                        fallthrough = (upc + 4) & MASK32
                        actual = target if taken else fallthrough
                        pred_taken = e.pred_taken
                        predicted = e.pred_target if pred_taken \
                            else fallthrough
                        mispredicted = (taken != pred_taken) or \
                            (taken and predicted != actual)
                        if kind == _BRANCH:
                            predictor_update(upc, taken)
                        if taken:
                            btb_update(upc, target)
                        branch_event(BranchEvent(
                            cycle=cycle, pc=upc, taken=taken,
                            target=actual, predicted_taken=pred_taken,
                            predicted_target=e.pred_target,
                            mispredicted=mispredicted, seq=e.seq))
                        if mispredicted:
                            redirect = actual
                    else:
                        result = None
                        if alu_bug is not None:
                            result = alu_bug(instr, a, b)
                        result = alu_result(instr, a, b, e.pc) \
                            if result is None else result & MASK32
                        e.result = result
                        if kind == _MULDIV:
                            remaining = (mul_latency if st.is_mul
                                         else div_latency) - 1
                            if remaining == 0:
                                flat[_C_ALU_OUT] = result & MASK32
                                flat[_C_MULDIV_LO] = result & MASK32
                                e.result_ready = True
                        else:
                            flat[_C_ALU_OUT] = result & MASK32
                            # a load/store's result so far is only the
                            # effective address; load data becomes
                            # forwardable when Memory returns it
                            if kind != _MEMORY:
                                e.result_ready = True
                    e.e_remaining = remaining
                    exec_free = remaining == 0 and mem_free
                elif remaining == 0:
                    # finished earlier, waiting for Memory to drain
                    put_e(e.tag | PACK_STALL)
                    if not mem_free:
                        stall((cycle, "E", mem_busy, e.seq))
                    exec_free = mem_free
                else:
                    remaining -= 1
                    e.e_remaining = remaining
                    if remaining == 0:
                        # final multiply/divide cycle: result registers
                        # switch
                        result = e.result
                        flat[_C_ALU_OUT] = result & MASK32
                        flat[_C_MULDIV_LO] = result & MASK32
                        flat[_C_MULDIV_HI] = \
                            ((e.rs1_val * e.rs2_val) >> 32) & MASK32
                        e.result_ready = True
                        put_e(e.tag | PACK_FINAL)
                        exec_free = mem_free
                    else:
                        put_e(e.tag | PACK_STALL)
                        stall((cycle, "E", ex_busy, e.seq))
                        exec_free = False
                if exec_free:
                    m = e
                    e = None

            if redirect is not None:
                # squash the two younger wrong-path instructions — the
                # one in Decode and this cycle's (suppressed) fetch: the
                # paper's 2-cycle misprediction penalty
                flush_event(FlushEvent(
                    cycle=cycle,
                    flushed=1 + (d is not None) + (f is not None),
                    redirect_pc=redirect))
                d = None
                f = None
                flat[_C_DEC_INSTR] = _NOP_WORD
                flat[_C_RS1_VAL] = 0
                flat[_C_RS2_VAL] = 0
                flat[_C_DEC_IMM] = 0
                flat[_C_DEC_CTRL] = NOP_CONTROL
                flat[_C_FETCH_INSTR] = _NOP_WORD
                flat[_C_PRED_STATE] = 0
                put_d(PACK_BUBBLE)
                put_f(PACK_BUBBLE)
                pc = redirect
                fetch_halted = False  # wrong path may have run off the end
            else:
                # -- Decode -------------------------------------------
                if d is None:
                    flat[_C_DEC_INSTR] = _NOP_WORD
                    flat[_C_RS1_VAL] = 0
                    flat[_C_RS2_VAL] = 0
                    flat[_C_DEC_IMM] = 0
                    flat[_C_DEC_CTRL] = NOP_CONTROL
                    put_d(PACK_BUBBLE)
                elif not exec_free:
                    put_d(d.tag | PACK_STALL)
                    stall((cycle, "D",
                           ex_busy if e is not None and e.e_remaining > 0
                           else mem_busy, d.seq))
                else:
                    st = d.st
                    rs1 = st.rs1
                    rs2 = st.rs2
                    rs1_val = rs2_val = 0
                    cause = None
                    # each source: the youngest in-flight producer
                    # (Execute, Memory, Writeback), else the register file
                    for reg in st.sources:
                        if reg == 0:
                            value = 0
                        else:
                            if e is not None and e.rd == reg:
                                holder = e
                            elif m is not None and m.rd == reg:
                                holder = m
                            elif w is not None and w.rd == reg:
                                holder = w
                            else:
                                holder = None
                            if holder is None:
                                value = read_register(reg)
                            elif not forwarding:
                                cause = raw_hazard
                                break
                            elif holder.result_ready:
                                value = holder.result
                            else:
                                cause = load_use if holder.st.is_load \
                                    else raw_hazard
                                break
                        if reg == rs1:
                            rs1_val = value
                        if reg == rs2:
                            rs2_val = value
                    if cause is not None:
                        put_d(d.tag | PACK_STALL)
                        stall((cycle, "D", cause, d.seq))
                    else:
                        d.rs1_val = rs1_val
                        d.rs2_val = rs2_val
                        flat[_C_DEC_INSTR] = st.word
                        flat[_C_RS1_VAL] = rs1_val & MASK32
                        flat[_C_RS2_VAL] = rs2_val & MASK32
                        flat[_C_DEC_IMM] = st.imm
                        flat[_C_DEC_CTRL] = st.ctrl12
                        put_d(d.tag)
                        e = d
                        d = None
                        if st.is_jal:
                            upc = e.pc
                            target = (upc + e.instr.imm) & MASK32
                            e.result = (upc + 4) & MASK32
                            e.result_ready = True
                            btb_update(upc, target)
                            if not (e.pred_taken and
                                    e.pred_target == target):
                                # redirect fetch, squash 1 instruction
                                redirect = target

                # -- Fetch --------------------------------------------
                if redirect is not None:
                    # jal resolved in Decode: squash the one wrong-path
                    # fetch
                    f = None
                    flat[_C_FETCH_INSTR] = _NOP_WORD
                    flat[_C_PRED_STATE] = 0
                    put_f(PACK_BUBBLE)
                    pc = redirect
                    fetch_halted = False  # squashed fetch may have halted
                elif f is not None:
                    # Decode is still occupied: the fetched instruction
                    # waits
                    put_f(f.tag | PACK_STALL)
                    stall((cycle, "F", raw_hazard, f.seq))
                else:
                    offset = pc - TEXT_BASE
                    if fetch_halted or not 0 <= offset < text_bytes or \
                            offset & 3:
                        fetch_halted = True
                        flat[_C_FETCH_INSTR] = _NOP_WORD
                        flat[_C_PRED_STATE] = 0
                        put_f(PACK_BUBBLE)
                    else:
                        instr = instructions[offset >> 2]
                        st = _statics(instr)
                        pred_taken = False
                        pred_target = None
                        if st.kind == _BRANCH or instr.is_jump:
                            # fetch-time prediction via predictor + BTB
                            outcome = oracle_pop(pc) \
                                if oracle_pop is not None else None
                            if outcome is not None:
                                pred_taken, pred_target = outcome
                            else:
                                pred_target = btb_lookup(pc)
                                if st.kind == _BRANCH:
                                    pred_taken = predict(pc) and \
                                        pred_target is not None
                                else:
                                    pred_taken = pred_target is not None
                        f = _Uop(instr, pc, seq, tag_of(instr, seq), st,
                                 pred_taken, pred_target)
                        seq += 1
                        flat[_C_PC] = pc & MASK32
                        flat[_C_FETCH_INSTR] = st.word
                        flat[_C_PRED_STATE] = (int(pred_taken) |
                                               (signature() << 1)) & \
                            _M_PRED_STATE
                        put_f(f.tag)
                        pc = pred_target if (pred_taken and
                                             pred_target is not None) \
                            else (pc + 4) & MASK32
                        if st.halts:
                            fetch_halted = True

            if row == capacity:
                vals = trace.reserve(row)
                capacity = vals.shape[0]
            vals[row] = flat
            row += 1
            cycle += 1
            if fetch_halted and f is None and d is None and e is None \
                    and m is None and w is None:
                halted = True

        trace.reserve(row)
        self.f_uop, self.d_uop, self.e_uop, self.m_uop, self.w_uop = \
            f, d, e, m, w
        self.pc = pc
        self.cycle = cycle
        self.next_seq = seq
        self.fetch_halted = fetch_halted
        self.halted = halted
        return trace


def run_program(program: Program, config: CoreConfig = DEFAULT_CONFIG,
                max_cycles: Optional[int] = None,
                alu_bug: Optional[object] = None,
                oracle: Optional[object] = None) -> Tuple[ActivityTrace,
                                                          Pipeline]:
    """Convenience: run ``program`` on a fresh core, return (trace, core)."""
    core = Pipeline(program, config=config, alu_bug=alu_bug, oracle=oracle)
    trace = core.run(max_cycles=max_cycles)
    return trace, core
