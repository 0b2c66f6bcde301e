"""The step-per-method in-order core, retired from ``repro.uarch.pipeline``.

Byte-for-byte the engine the fused cycle loop of
:class:`repro.uarch.pipeline.Pipeline` replaced: one method per stage,
a :meth:`Pipeline.step` per clock cycle, events built as objects as they
happen, and the ``legacy_trace=True`` branch that records through the
seed's object-graph trace and dict-backed latches.  The property tests
assert the fused loop reproduces its traces, events and final state bit
for bit, and ``benchmarks/test_perf_trace.py`` times its legacy branch
as the baseline arm.

The core it models is the processor of HPCA 2020 §II-A: Fetch, Decode,
Execute, Memory, Writeback; 2-level branch predictor with a BTB; 32-entry
register file; 32 KB data cache (hit = one extra cycle, miss = two
further cycles); multi-cycle multiply/divide; misprediction resolved at
the end of Execute with two younger instructions flushed to bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.uarch.branch import BranchTargetBuffer, make_predictor
from repro.uarch.cache import DataCache
from repro.uarch.config import CoreConfig, DEFAULT_CONFIG
from repro.uarch.events import (BranchEvent, CacheEvent, FlushEvent,
                                StallCause, StallEvent)
from repro.uarch.isa_exec import (alu_result, branch_taken,
                                  control_flow_target, load_width,
                                  store_width)
from repro.uarch.latches import (HardwareLatches, LegacyHardwareLatches,
                                 STAGES, control_word)
from repro.uarch.memory import MainMemory
from repro.uarch.regfile import RegisterFile
from repro.uarch.trace import (DYN_FINAL, DYN_HIT, DYN_MISS, KIND_INSTR,
                               KIND_STALL, ActivityTrace,
                               LegacyActivityTrace, RetiredInstruction)

MASK32 = 0xFFFFFFFF


@dataclass
class _Uop:
    """One in-flight dynamic instruction."""

    instr: Instruction
    pc: int
    seq: int
    pred_taken: bool = False
    pred_target: Optional[int] = None
    rs1_val: int = 0
    rs2_val: int = 0
    result: int = 0              # ALU result / load data / link value
    mem_addr: int = 0
    store_val: int = 0
    result_ready: bool = False
    e_started: bool = False
    e_remaining: int = 0
    m_started: bool = False
    m_remaining: int = 0
    mem_hit: Optional[bool] = None
    taken: bool = False
    target: int = 0

    @property
    def writes_reg(self) -> Optional[int]:
        return self.instr.destination_register


class Pipeline:
    """The pipelined core; run a :class:`Program`, get an
    :class:`ActivityTrace` plus final architectural state."""

    def __init__(self, program: Program,
                 config: CoreConfig = DEFAULT_CONFIG,
                 alu_bug: Optional[object] = None,
                 oracle: Optional[object] = None,
                 legacy_trace: bool = False):
        self.program = program
        self.config = config
        self.regfile = RegisterFile()
        self.memory = MainMemory(program.data)
        self.cache = DataCache(config.cache)
        self.predictor = make_predictor(config.predictor,
                                        config.predictor_history_bits,
                                        config.predictor_table_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        # legacy_trace selects the seed's object-graph recorder and
        # dict-backed latches — the reference oracle / bench baseline
        if legacy_trace:
            self.latches = LegacyHardwareLatches()
            self.trace = LegacyActivityTrace()
        else:
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

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> ActivityTrace:
        """Run until the program halts or ``max_cycles`` elapse."""
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        while not self.halted and self.cycle < limit:
            self.step()
        return self.trace

    @property
    def pipeline_empty(self) -> bool:
        """True when no in-flight instruction remains."""
        return not any((self.f_uop, self.d_uop, self.e_uop, self.m_uop,
                        self.w_uop))

    # ------------------------------------------------------------------
    # one clock cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the core by one clock cycle.

        Stages record occupancy straight into the trace (unrecorded
        stages default to bubbles); the cycle ends with one latch
        snapshot via ``end_cycle``.
        """
        # clock-edge handoff: the instruction fetched last cycle enters
        # Decode if the slot was vacated
        if self.d_uop is None and self.f_uop is not None:
            self.d_uop = self.f_uop
            self.f_uop = None

        self.trace.begin_cycle()
        self._stage_writeback()
        mem_free = self._stage_memory()
        exec_free, flush_redirect = self._stage_execute(mem_free)

        if flush_redirect is not None:
            self._flush_wrong_path(flush_redirect)
        else:
            decode_redirect = self._stage_decode(exec_free)
            self._stage_fetch(decode_redirect)

        self.trace.end_cycle(self.latches)
        self.cycle += 1
        if self.fetch_halted and self.pipeline_empty:
            self.halted = True

    def _flush_wrong_path(self, flush_redirect: int) -> None:
        """Squash the two younger wrong-path instructions — the one in
        Decode and this cycle's (suppressed) fetch: the paper's 2-cycle
        misprediction penalty.  The squashed stages stay bubbles in the
        trace and their latches snap to the bubble pattern."""
        flushed = 1 + int(self.d_uop is not None) + \
            int(self.f_uop is not None)
        self.d_uop = None
        self.f_uop = None
        self.latches.write_bubble("D")
        self.latches.write_bubble("F")
        self.pc = flush_redirect
        self.fetch_halted = False  # wrong path may have run off the end
        self.trace.flushes.append(FlushEvent(cycle=self.cycle,
                                             flushed=flushed,
                                             redirect_pc=flush_redirect))

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------
    def _stage_writeback(self) -> None:
        uop = self.w_uop
        if uop is None:
            self.latches.write_bubble("W")
            return
        rd = uop.writes_reg
        if rd is not None:
            self.regfile.write(rd, uop.result)
        self.latches.write_writeback(uop.result if rd is not None else 0,
                                     rd or 0, 1 if rd is not None else 0)
        self.trace.record("W", KIND_INSTR, uop.instr, uop.seq)
        self.trace.retired.append(RetiredInstruction(
            seq=uop.seq, pc=uop.pc, instr=uop.instr, cycle=self.cycle))
        if uop.instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True
        self.w_uop = None

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _stage_memory(self) -> bool:
        """Process the Memory stage; returns True if the slot is free for
        the Execute stage to advance into."""
        uop = self.m_uop
        if uop is None:
            self.latches.write_bubble("M")
            return True
        instr = uop.instr
        if not uop.m_started:
            uop.m_started = True
            if instr.is_load or instr.is_store:
                self._memory_access(uop)
            else:
                self.latches.write_mem_ctrl(control_word(instr, 8))
                self.trace.record("M", KIND_INSTR, instr, uop.seq)
                uop.m_remaining = 0
        else:
            uop.m_remaining -= 1
            cause = StallCause.CACHE_MISS if uop.mem_hit is False \
                else StallCause.MEM_BUSY
            self.trace.record("M", KIND_STALL, instr, uop.seq,
                              DYN_MISS if uop.mem_hit is False else DYN_HIT)
            self.trace.stalls.append(StallEvent(cycle=self.cycle, stage="M",
                                                cause=cause, seq=uop.seq))
            if uop.m_remaining == 0 and instr.is_load:
                # data-return flip on the read-data bus
                self.latches.write_mem_rdata(uop.result)
                uop.result_ready = True
        if uop.m_remaining == 0:
            self.m_uop = None
            self.w_uop = uop
            return True
        return False

    def _memory_access(self, uop: _Uop) -> None:
        """First Memory cycle of a load/store: cache access + data move."""
        instr = uop.instr
        address = uop.mem_addr
        hit = self.cache.access(address, is_store=instr.is_store)
        uop.mem_hit = hit
        cache_cfg = self.config.cache
        uop.m_remaining = cache_cfg.hit_extra_cycles + \
            (0 if hit else cache_cfg.miss_extra_cycles)
        self.trace.cache_events.append(CacheEvent(
            cycle=self.cycle, address=address, is_store=instr.is_store,
            hit=hit, seq=uop.seq))
        if instr.is_store:
            self.memory.store(address, uop.store_val,
                              store_width(instr.name))
            self.latches.write("M", mem_addr=address,
                               mem_wdata=uop.store_val,
                               mem_ctrl=control_word(instr, 8))
        else:
            nbytes, signed = load_width(instr.name)
            uop.result = self.memory.load(address, nbytes, signed)
            self.latches.write("M", mem_addr=address,
                               mem_ctrl=control_word(instr, 8))
            if uop.m_remaining == 0:
                self.latches.write_mem_rdata(uop.result)
                uop.result_ready = True
        self.trace.record("M", KIND_INSTR, instr, uop.seq,
                          DYN_HIT if hit else DYN_MISS)

    # ------------------------------------------------------------------
    # Execute
    # ------------------------------------------------------------------
    def _stage_execute(self, mem_free: bool) -> Tuple[bool, Optional[int]]:
        """Process Execute; returns (slot free for Decode, flush redirect)."""
        uop = self.e_uop
        if uop is None:
            self.latches.write_bubble("E")
            return True, None
        instr = uop.instr

        if not uop.e_started:
            uop.e_started = True
            redirect = self._execute_first_cycle(uop)
            if uop.e_remaining == 0 and mem_free:
                self.e_uop = None
                self.m_uop = uop
                return True, redirect
            if uop.e_remaining == 0 and not mem_free:
                return False, redirect
            return False, redirect

        if not mem_free and uop.e_remaining == 0:
            # finished, waiting for the Memory stage to drain
            self.trace.record("E", KIND_STALL, instr, uop.seq)
            self.trace.stalls.append(StallEvent(
                cycle=self.cycle, stage="E", cause=StallCause.MEM_BUSY,
                seq=uop.seq))
            return False, None
        if uop.e_remaining == 0:
            # previously finished, was waiting on Memory; transits quietly
            self.trace.record("E", KIND_STALL, instr, uop.seq)
        if uop.e_remaining > 0:
            uop.e_remaining -= 1
            if uop.e_remaining == 0:
                # final multiply/divide cycle: result registers switch
                self.latches.write("E", alu_out=uop.result,
                                   muldiv_lo=uop.result,
                                   muldiv_hi=(uop.rs1_val * uop.rs2_val)
                                   >> 32)
                uop.result_ready = True
                self.trace.record("E", KIND_INSTR, instr, uop.seq,
                                  DYN_FINAL)
            else:
                self.trace.record("E", KIND_STALL, instr, uop.seq)
                self.trace.stalls.append(StallEvent(
                    cycle=self.cycle, stage="E", cause=StallCause.EX_BUSY,
                    seq=uop.seq))
        if uop.e_remaining == 0 and mem_free:
            self.e_uop = None
            self.m_uop = uop
            return True, None
        return False, None

    def _execute_first_cycle(self, uop: _Uop) -> Optional[int]:
        """First Execute cycle: compute, resolve control flow."""
        instr = uop.instr
        a, b = uop.rs1_val, uop.rs2_val
        operand_b = b if instr.fmt.value in ("R", "S", "B") else \
            (instr.imm & MASK32)
        self.latches.write_execute(a, operand_b, control_word(instr, 8))
        self.trace.record("E", KIND_INSTR, instr, uop.seq)
        redirect: Optional[int] = None

        if instr.is_branch:
            uop.taken = branch_taken(instr, a, b)
            uop.target = control_flow_target(instr, uop.pc, a)
            uop.result_ready = True
            self.latches.write_alu_out(uop.target if uop.taken else 0)
            redirect = self._resolve_control(uop)
        elif instr.name == "jalr":
            uop.taken = True
            uop.target = control_flow_target(instr, uop.pc, a)
            uop.result = (uop.pc + 4) & MASK32
            uop.result_ready = True
            self.latches.write_alu_out(uop.result)
            redirect = self._resolve_control(uop)
        elif instr.is_muldiv:
            uop.result = self._alu(instr, a, b, uop.pc)
            latency = self.config.mul_latency if instr.name.startswith("mul") \
                else self.config.div_latency
            uop.e_remaining = latency - 1
            if uop.e_remaining == 0:
                self.latches.write("E", alu_out=uop.result,
                                   muldiv_lo=uop.result)
                uop.result_ready = True
        else:
            uop.result = self._alu(instr, a, b, uop.pc)
            self.latches.write_alu_out(uop.result)
            if instr.is_load or instr.is_store:
                # the "result" so far is only the effective address; load
                # data becomes forwardable when Memory returns it
                uop.mem_addr = uop.result
                uop.store_val = b
            else:
                uop.result_ready = True
        return redirect

    def _alu(self, instr: Instruction, a: int, b: int, pc: int) -> int:
        """ALU computation, optionally routed through an injected bug."""
        if self.alu_bug is not None:
            bugged = self.alu_bug(instr, a, b)
            if bugged is not None:
                return bugged & MASK32
        return alu_result(instr, a, b, pc)

    def _resolve_control(self, uop: _Uop) -> Optional[int]:
        """Resolve a branch/jalr in Execute; returns a redirect PC if the
        fetch prediction was wrong (triggering a flush)."""
        instr = uop.instr
        actual_target = uop.target if uop.taken else (uop.pc + 4) & MASK32
        predicted_target = uop.pred_target if uop.pred_taken \
            else (uop.pc + 4) & MASK32
        mispredicted = (uop.taken != uop.pred_taken) or \
            (uop.taken and predicted_target != actual_target)
        if instr.is_branch:
            self.predictor.update(uop.pc, uop.taken)
        if uop.taken:
            self.btb.update(uop.pc, uop.target)
        self.trace.branch_events.append(BranchEvent(
            cycle=self.cycle, pc=uop.pc, taken=uop.taken,
            target=actual_target, predicted_taken=uop.pred_taken,
            predicted_target=uop.pred_target, mispredicted=mispredicted,
            seq=uop.seq))
        return actual_target if mispredicted else None

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def _stage_decode(self, exec_free: bool) -> Optional[int]:
        """Process Decode; returns a fetch redirect PC for unpredicted
        direct jumps (jal), else None."""
        uop = self.d_uop
        if uop is None:
            self.latches.write_bubble("D")
            return None
        instr = uop.instr

        if not exec_free:
            cause = StallCause.EX_BUSY if (self.e_uop and
                                           self.e_uop.e_remaining > 0) \
                else StallCause.MEM_BUSY
            self.trace.record("D", KIND_STALL, instr, uop.seq)
            self.trace.stalls.append(StallEvent(
                cycle=self.cycle, stage="D", cause=cause, seq=uop.seq))
            return None

        operands = {}
        for reg in instr.unique_sources:
            value, ready, cause = self._operand(reg)
            if not ready:
                self.trace.record("D", KIND_STALL, instr, uop.seq)
                self.trace.stalls.append(StallEvent(
                    cycle=self.cycle, stage="D", cause=cause, seq=uop.seq))
                return None
            operands[reg] = value
        uop.rs1_val = operands.get(instr.rs1, 0)
        uop.rs2_val = operands.get(instr.rs2, 0)

        self.latches.write_decode(instr.encode(), uop.rs1_val,
                                  uop.rs2_val, instr.imm & MASK32,
                                  control_word(instr, 12))
        self.trace.record("D", KIND_INSTR, instr, uop.seq)
        self.d_uop = None
        self.e_uop = uop

        if instr.name == "jal":
            uop.taken = True
            uop.target = (uop.pc + instr.imm) & MASK32
            uop.result = (uop.pc + 4) & MASK32
            uop.result_ready = True
            self.btb.update(uop.pc, uop.target)
            if not (uop.pred_taken and uop.pred_target == uop.target):
                return uop.target  # redirect fetch, squash 1 instruction
        return None

    def _operand(self, reg: int):
        """Resolve a source register: value, readiness, stall cause.

        Scans in-flight producers youngest-first (Execute, Memory,
        Writeback slots); falls back to the register file.
        """
        if reg == 0:
            return 0, True, None
        for slot, holder in (("E", self.e_uop), ("M", self.m_uop),
                             ("W", self.w_uop)):
            if holder is None or holder.writes_reg != reg:
                continue
            if not self.config.forwarding:
                return 0, False, StallCause.RAW_HAZARD
            if holder.result_ready:
                return holder.result, True, None
            cause = StallCause.LOAD_USE if holder.instr.is_load \
                else StallCause.RAW_HAZARD
            return 0, False, cause
        return self.regfile.read(reg), True, None

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _stage_fetch(self, decode_redirect: Optional[int]) -> None:
        if decode_redirect is not None:
            # jal resolved in Decode: squash the one wrong-path fetch
            self.f_uop = None
            self.latches.write_bubble("F")
            self.pc = decode_redirect
            self.fetch_halted = False  # squashed fetch may have halted us
            return
        if self.f_uop is not None:
            # Decode is still occupied: the fetched instruction waits
            self.trace.record("F", KIND_STALL, self.f_uop.instr,
                              self.f_uop.seq)
            self.trace.stalls.append(StallEvent(
                cycle=self.cycle, stage="F",
                cause=StallCause.RAW_HAZARD, seq=self.f_uop.seq))
            return
        if self.fetch_halted:
            self.latches.write_bubble("F")
            return
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            self.fetch_halted = True
            self.latches.write_bubble("F")
            return
        uop = _Uop(instr=instr, pc=self.pc, seq=self.next_seq)
        self.next_seq += 1
        self._predict(uop)
        self.latches.write_fetch(self.pc, instr.encode(),
                                 int(uop.pred_taken) |
                                 (self.predictor.state_signature() << 1))
        self.trace.record("F", KIND_INSTR, instr, uop.seq)
        self.f_uop = uop
        self.pc = uop.pred_target if (uop.pred_taken and
                                      uop.pred_target is not None) \
            else (self.pc + 4) & MASK32
        if instr.name in ("ecall", "ebreak"):
            self.fetch_halted = True

    def _predict(self, uop: _Uop) -> None:
        """Fetch-time branch/jump prediction via predictor + BTB."""
        instr = uop.instr
        if self.oracle is not None and (instr.is_branch or instr.is_jump):
            outcome = self.oracle.pop(uop.pc)
            if outcome is not None:
                uop.pred_taken, uop.pred_target = outcome
                return
        if instr.is_branch:
            target = self.btb.lookup(uop.pc)
            taken = self.predictor.predict(uop.pc) and target is not None
            uop.pred_taken = taken
            uop.pred_target = target
        elif instr.is_jump:
            target = self.btb.lookup(uop.pc)
            uop.pred_taken = target is not None
            uop.pred_target = target


def run_program(program: Program, config: CoreConfig = DEFAULT_CONFIG,
                max_cycles: Optional[int] = None,
                alu_bug: Optional[object] = None,
                oracle: Optional[object] = None,
                legacy_trace: bool = False) -> Tuple[ActivityTrace,
                                                     Pipeline]:
    """Convenience: run ``program`` on a fresh core, return (trace, core).

    ``legacy_trace=True`` records through the seed's object-graph trace
    and dict-backed latches (the reference oracle / bench baseline).
    """
    core = Pipeline(program, config=config, alu_bug=alu_bug, oracle=oracle,
                    legacy_trace=legacy_trace)
    trace = core.run(max_cycles=max_cycles)
    return trace, core
