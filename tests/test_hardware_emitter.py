"""Unit tests for the emission synthesis internals (repro.hardware.emitter)."""

import numpy as np
import pytest

from repro.hardware import DE0_CV, HardwareEmitter, ProbePosition
from repro.hardware.boards import BOARDS
from repro.hardware.emitter import stage_couplings
from repro.isa import Instruction
from repro.uarch import run_program
from repro.workloads import ALL_KERNELS, nop_padded


@pytest.fixture(scope="module")
def trace():
    program = nop_padded([Instruction("mul", rd=5, rs1=8, rs2=9),
                          Instruction("lw", rd=6, rs1=3, imm=64)])
    result, _ = run_program(program)
    return result


@pytest.fixture(scope="module")
def emitter():
    return HardwareEmitter(DE0_CV.build_units())


def test_unit_amplitudes_shape_and_positivity(emitter, trace):
    amplitudes = emitter.unit_amplitudes(trace)
    assert amplitudes.shape == (trace.num_cycles, len(emitter.units))
    assert np.all(amplitudes >= 0)


def _label_unit_amplitudes(emitter, trace):
    """Unit amplitudes with static activity looked up per class label."""
    amplitudes = np.zeros((trace.num_cycles, len(emitter.units)))
    for column, unit in enumerate(emitter.units):
        labels, inverse = np.unique(np.array(trace.em_classes(unit.stage)),
                                    return_inverse=True)
        static = np.array([unit.static_activity(label)
                           for label in labels], dtype=float)[inverse]
        flips = trace.transition_matrix(unit.stage)[:, unit.bit_indices] \
            @ unit.bit_weights
        amplitudes[:, column] = static + flips
    return amplitudes


@pytest.mark.parametrize("kernel", sorted(ALL_KERNELS))
def test_unit_amplitudes_match_label_lookup(kernel, trace):
    traces = (trace, run_program(ALL_KERNELS[kernel]())[0])
    for board in BOARDS.values():
        board_emitter = HardwareEmitter(board.build_units())
        for each in traces:
            assert np.array_equal(board_emitter.unit_amplitudes(each),
                                  _label_unit_amplitudes(board_emitter,
                                                         each))


def test_signal_is_superposition_of_units(emitter, trace):
    total = emitter.signal_on_grid(trace, 20)
    summed = np.zeros_like(total)
    for name, signal in emitter.per_unit_signals(trace, 20).items():
        summed += signal
    assert np.allclose(total, summed, atol=1e-9)


def test_stage_signals_partition_the_total(emitter, trace):
    total = emitter.signal_on_grid(trace, 20)
    by_stage = sum(emitter.stage_signal_on_grid(trace, stage, 20)
                   for stage in ("F", "D", "E", "M", "W"))
    assert np.allclose(total, by_stage, atol=1e-9)


def test_continuous_matches_grid_at_grid_points(emitter, trace):
    grid = emitter.signal_on_grid(trace, 20)
    continuous = emitter.continuous(trace)
    times = np.arange(len(grid)) / 20.0
    values = continuous(times)
    # continuous evaluation includes kernel tails past the truncated
    # support, so allow a small absolute tolerance
    assert np.allclose(values, grid, atol=5e-3)


def test_gain_scales_linearly(trace):
    units = DE0_CV.build_units()
    base = HardwareEmitter(units, gain=1.0).signal_on_grid(trace, 20)
    doubled = HardwareEmitter(units, gain=2.0).signal_on_grid(trace, 20)
    assert np.allclose(doubled, 2.0 * base)


def test_clock_scale_stretches_continuous_time(trace):
    units = DE0_CV.build_units()
    nominal = HardwareEmitter(units, clock_scale=1.0)
    slow = HardwareEmitter(units, clock_scale=1.01)
    times = np.linspace(0, trace.num_cycles - 1, 500)
    nominal_values = nominal.continuous(trace)(times)
    stretched = slow.continuous(trace)(times * 1.01)
    assert np.allclose(nominal_values, stretched, atol=1e-9)


def test_probe_position_changes_couplings(trace):
    units = DE0_CV.build_units()
    centered = HardwareEmitter(units)
    offset = HardwareEmitter(units, probe=ProbePosition(3.0, 1.0, 6.0))
    center_couplings = stage_couplings(units, centered.probe)
    offset_couplings = stage_couplings(units, offset.probe)
    assert all(offset_couplings[stage] < center_couplings[stage]
               for stage in offset_couplings)
    # and not uniformly: relative stage weights change with position
    ratios = [offset_couplings[stage] / center_couplings[stage]
              for stage in ("F", "D", "E", "M", "W")]
    assert max(ratios) - min(ratios) > 0.005


def test_mul_final_cycle_radiates_more_than_mid_stall(emitter, trace):
    mul_seq = next(index for index, occ
                   in enumerate(trace.occupancy["E"])
                   if occ.active and occ.instr is not None
                   and occ.instr.name == "mul")
    cycles = trace.cycles_of(
        next(entry.seq for entry in trace.retired
             if entry.instr.name == "mul"), "E")
    amplitudes = emitter.unit_amplitudes(trace)
    muldiv_column = [unit.name for unit in emitter.units] \
        .index("muldiv_unit")
    final = amplitudes[cycles[-1], muldiv_column]
    middle = amplitudes[cycles[1], muldiv_column]
    assert final > middle
