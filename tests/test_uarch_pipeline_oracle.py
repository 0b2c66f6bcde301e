"""The fused in-order cycle loop against the retired step-per-method core.

:meth:`repro.uarch.pipeline.Pipeline.run` replaced a core that called
one method per stage per cycle and built every event object as it
happened; that engine lives on in :mod:`tests.oracles.pipeline`.  Over
random programs, six core configurations, perfect-fetch oracles, an
injected ALU bug, a cycle limit and a run split in two, both cores must
leave the same trace (codec bytes and every event list), the same
retired instructions, the same final architectural state and the same
final latch values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leakage.aes import DEFAULT_KEY, aes_program
from repro.leakage.debugging import (buggy_multiplier,
                                     multiplier_stress_program)
from repro.uarch import CacheConfig, CoreConfig, Pipeline, collect_oracle
from repro.uarch.tracecodec import encode_trace
from repro.workloads import ALL_KERNELS
from repro.workloads.generators import RandomProgramBuilder
from tests.oracles import pipeline as oracle_pipeline

CONFIGS = (CoreConfig(),
           CoreConfig(forwarding=False),
           CoreConfig(predictor="gshare"),
           CoreConfig(predictor="not-taken"),
           CoreConfig(cache=CacheConfig(miss_extra_cycles=0)),
           CoreConfig(mul_latency=1, div_latency=1))

MODES = ("plain", "oracle", "alu_bug", "max_cycles", "split")


def _final_state(core):
    trace = core.trace
    return {
        "codec": encode_trace(trace),
        "stalls": trace.stalls,
        "cache_events": trace.cache_events,
        "branch_events": trace.branch_events,
        "flushes": trace.flushes,
        "retired": [(entry.seq, entry.pc, entry.instr, entry.cycle)
                    for entry in trace.retired],
        "instructions_retired": trace.instructions_retired,
        "regfile": (core.regfile.dump(), core.regfile.reads,
                    core.regfile.writes, core.regfile.last_write_value),
        "memory": core.memory.snapshot(),
        "control": (core.pc, core.cycle, core.halted, core.fetch_halted,
                    core.next_seq),
        "latches": core.latches.flat_values().tolist(),
    }


def _run(core_class, program, config, mode, split=23):
    options = {}
    if mode == "oracle":
        options["oracle"] = collect_oracle(program)
    elif mode == "alu_bug":
        options["alu_bug"] = buggy_multiplier
    core = core_class(program, config=config, **options)
    if mode == "max_cycles":
        core.run(max_cycles=37)
    elif mode == "split":
        core.run(max_cycles=split)
        core.run()
    else:
        core.run()
    return _final_state(core)


def _assert_same_as_oracle(program, config, mode, **options):
    fused = _run(Pipeline, program, config, mode, **options)
    retired = _run(oracle_pipeline.Pipeline, program, config, mode,
                   **options)
    for key in retired:
        assert fused[key] == retired[key], key


@given(seed=st.integers(0, 2**16 - 1), length=st.integers(4, 48),
       config=st.sampled_from(CONFIGS), mode=st.sampled_from(MODES),
       split=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_random_programs_match_retired_engine(seed, length, config, mode,
                                              split):
    program = RandomProgramBuilder(seed=seed).program(
        length, name=f"engine_{seed}_{length}")
    _assert_same_as_oracle(program, config, mode, split=split)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("mode", MODES)
def test_fixed_programs_match_retired_engine(config, mode):
    for program in (multiplier_stress_program(4, seed=1),
                    ALL_KERNELS["bubble_sort"](),
                    ALL_KERNELS["fibonacci"]()):
        _assert_same_as_oracle(program, config, mode)


@pytest.mark.parametrize("config", CONFIGS)
def test_aes_matches_retired_engine(config):
    program = aes_program(DEFAULT_KEY, list(range(16)), rounds=1)
    for mode in ("plain", "split"):
        _assert_same_as_oracle(program, config, mode, split=301)


def test_split_run_continues_exactly():
    """``run(k)`` then ``run()`` leaves what one ``run()`` leaves."""
    program = ALL_KERNELS["dot_product"]()
    whole = Pipeline(program)
    whole.run()
    for split in (1, 2, 17, whole.cycle - 1):
        core = Pipeline(program)
        core.run(max_cycles=split)
        assert core.cycle == split and not core.halted
        core.run()
        assert _final_state(core) == _final_state(whole)


def test_events_are_built_on_first_read_only():
    core = Pipeline(ALL_KERNELS["crc32"]())
    trace = core.run()
    stall_rows, cache_rows, retired_rows = trace.event_rows()
    assert stall_rows and cache_rows and retired_rows
    retired = trace.instructions_retired
    misses = trace.cache_misses
    assert retired == len(retired_rows)
    assert misses == sum(not row[3] for row in cache_rows)
    assert len(trace.retired) == retired and not retired_rows
    stalls = trace.stalls
    assert trace.stalls is stalls and not stall_rows
    assert sum(not event.hit for event in trace.cache_events) == misses
    assert not cache_rows and trace.cache_misses == misses
