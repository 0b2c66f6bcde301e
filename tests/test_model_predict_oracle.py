"""The vectorized EMSim predictor against the retired per-cycle loop.

``EMSimModel.predict_cycle_amplitudes`` indexes a per-stage A(c, s)
table with the trace's EM-class codes and, for the Fig. 5 no-stall
ablation, a per-instruction stalled-class row.  It must agree bit for
bit with :mod:`tests.oracles.model_predict` under every combination of
:class:`ModelSwitches`, on programs with cache misses, multi-cycle
multiplies and stalled loads, and on AES.  The EM-class rows are
memoized by instruction value, so a trace decoded from the
``repro-trace/1`` codec (new but equal instructions) must classify
exactly as the original.  Eq. 8 activity factors, built from only the
selected design columns, must equal the fitted model applied to the full
stage design.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMSim, ModelSwitches, train_emsim
from repro.core.activity import stage_design_matrix
from repro.core.factors import RegressionActivity, _clip
from repro.core.regression import LinearModel
from repro.hardware import HardwareDevice
from repro.isa.instructions import Instruction
from repro.leakage.aes import DEFAULT_KEY, aes_program
from repro.uarch import trace as trace_module
from repro.uarch.latches import STAGE_REGISTERS, STAGES, stage_bit_count
from repro.uarch.trace import (OCC_BUBBLE, OCC_INSTR, OCC_STALL,
                               ActivityTrace, StageOccupancy)
from repro.uarch.tracecodec import decode_trace, encode_trace
from repro.workloads import RandomProgramBuilder
from tests.oracles.model_predict import predict_cycle_amplitudes_loop

ALL_SWITCHES = [
    ModelSwitches(*flags) for flags in itertools.product(
        (True, False),
        repeat=len(dataclasses.fields(ModelSwitches)))]


@pytest.fixture(scope="module")
def simulator():
    device = HardwareDevice(seed=3)
    model = train_emsim(device)
    # off-base betas so the beta scaling is exercised too, and nonzero
    # "nop"/"stall" entries, which prediction must never read
    amplitudes = dict(model.amplitudes)
    for stage in STAGES:
        amplitudes[("nop", stage)] = 0.5
        amplitudes[("stall", stage)] = 0.7
    model = dataclasses.replace(
        model, amplitudes=amplitudes,
        beta={stage: 0.75 + 0.125 * index
              for index, stage in enumerate(STAGES)})
    return EMSim(model, core_config=device.core_config)


def _random_program(seed, length):
    return RandomProgramBuilder(seed=seed).program(
        length, name=f"oracle_{seed}_{length}")


def _assert_matches_oracle(model, trace):
    for switches in ALL_SWITCHES:
        got = model.predict_cycle_amplitudes(trace, switches=switches)
        want = predict_cycle_amplitudes_loop(model, trace, switches)
        assert np.array_equal(got, want), switches.describe()


def _stalled_classes(trace):
    """(stage, class) pairs of instructions held by a stall."""
    found = set()
    for stage in STAGES:
        for occ in trace.occupancy[stage]:
            if occ.kind == "stall" and occ.instr is not None:
                found.add((stage, "load" if occ.instr.is_load
                           else occ.instr.cls.value))
    return found


def test_switch_grid_covers_the_prediction_switches():
    for name in ("model_stalls", "model_cache", "data_dependence",
                 "regression_alpha", "per_stage_sources"):
        assert {getattr(switches, name) for switches in ALL_SWITCHES} == \
            {True, False}


@given(seed=st.integers(0, 2**16 - 1), length=st.integers(8, 48))
@settings(max_examples=12, deadline=None)
def test_random_programs_match_oracle(simulator, seed, length):
    trace = simulator.run_trace(_random_program(seed, length))
    _assert_matches_oracle(simulator.model, trace)


def test_fixed_programs_cover_dynamic_classes(simulator):
    """The fixed inputs reach every dynamic class the ablations touch."""
    classes = set()
    stalled = set()
    for seed in range(6):
        trace = simulator.run_trace(_random_program(seed, 40))
        _assert_matches_oracle(simulator.model, trace)
        for stage in STAGES:
            classes.update(trace.em_classes(stage))
        stalled |= _stalled_classes(trace)
    assert {"load_mem", "load_cache", "muldiv_final", "stall"} <= classes
    assert any(cls == "load" for _, cls in stalled)


def test_aes_matches_oracle(simulator):
    trace = simulator.run_trace(aes_program(DEFAULT_KEY, [7] * 16, rounds=1))
    _assert_matches_oracle(simulator.model, trace)


def test_hand_built_stalls_match_oracle(simulator):
    """Stall records the cores rarely or never emit: a stall holding
    no instruction, a load stalled before its cache outcome, a stalled
    final multiply, and a stalled NOP."""
    lw = Instruction("lw", rd=5, rs1=2, imm=4)
    mul = Instruction("mul", rd=6, rs1=5, rs2=5)
    nop = Instruction("addi")
    held = [StageOccupancy(OCC_STALL),
            StageOccupancy(OCC_STALL, lw, 1, None),
            StageOccupancy(OCC_STALL, lw, 1, "hit"),
            StageOccupancy(OCC_STALL, lw, 1, "miss"),
            StageOccupancy(OCC_STALL, mul, 2, "final"),
            StageOccupancy(OCC_STALL, nop, 3, None),
            StageOccupancy(OCC_INSTR, mul, 2, "final"),
            StageOccupancy(OCC_BUBBLE)]
    trace = ActivityTrace()
    for cycle in range(2 * len(held)):
        occupancy = {stage: held[(cycle + index) % len(held)]
                     for index, stage in enumerate(STAGES)}
        values = {stage: tuple((cycle * 2654435761 + column) % 2**32
                               for column in
                               range(len(STAGE_REGISTERS[stage])))
                  for stage in STAGES}
        trace.commit_cycle(occupancy, values)
    _assert_matches_oracle(simulator.model, trace)


def test_codec_round_trip_keeps_em_codes(simulator):
    trace = simulator.run_trace(_random_program(4, 40))
    decoded = decode_trace(encode_trace(trace))
    table, decoded_table = trace.instruction_table, \
        decoded.instruction_table
    assert decoded_table == table
    assert not any(a is b for a, b in zip(table, decoded_table))
    for stage in STAGES:
        assert np.array_equal(decoded.em_codes(stage),
                              trace.em_codes(stage))
        assert decoded.em_classes(stage) == \
            [occ.em_class() for occ in trace.occupancy[stage]]
    # the decoded table is served from the rows the original computed
    trace_module._em_row.cache_clear()
    lookup = trace._em_lookup()
    misses = trace_module._em_row.cache_info().misses
    assert np.array_equal(decoded._em_lookup(), lookup)
    assert trace_module._em_row.cache_info().misses == misses
    assert np.array_equal(
        simulator.model.predict_cycle_amplitudes(decoded),
        simulator.model.predict_cycle_amplitudes(trace))


def _assert_alpha_matches_full_design(model, trace):
    """Eq. 8 from the selected columns equals Eq. 8 on the full design."""
    activity = model.regression_activity
    assert set(activity.models) == set(STAGES)
    for stage, linear in activity.models.items():
        full = _clip(linear.predict(stage_design_matrix(trace, stage)))
        assert np.array_equal(activity.alpha(trace, stage), full), stage


@given(seed=st.integers(0, 2**16 - 1), length=st.integers(8, 48))
@settings(max_examples=12, deadline=None)
def test_selected_column_alpha_matches_full_design(simulator, seed,
                                                   length):
    trace = simulator.run_trace(_random_program(seed, length))
    _assert_alpha_matches_full_design(simulator.model, trace)


def test_selected_column_alpha_matches_full_design_on_aes(simulator):
    for plaintext in ([7] * 16, list(range(16))):
        trace = simulator.run_trace(aes_program(DEFAULT_KEY, plaintext,
                                                rounds=2))
        _assert_alpha_matches_full_design(simulator.model, trace)


def test_selected_column_alpha_of_every_feature_kind(simulator):
    """Count-only, bit-only, mixed and unsorted feature selections."""
    trace = simulator.run_trace(_random_program(11, 40))
    rng = np.random.default_rng(5)
    for stage in STAGES:
        registers = len(STAGE_REGISTERS[stage])
        width = registers + stage_bit_count(stage)
        for features in (np.arange(registers), np.arange(registers, width),
                         rng.permutation(width)[:17], np.array([0])):
            linear = LinearModel(intercept=0.25,
                                 coefficients=rng.normal(
                                     size=features.size) * 0.05,
                                 features=features)
            activity = RegressionActivity(models={stage: linear})
            full = _clip(linear.predict(stage_design_matrix(trace, stage)))
            assert np.array_equal(activity.alpha(trace, stage), full)
