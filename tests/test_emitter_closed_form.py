"""Closed-form repetition evaluator vs the ``continuous`` oracle.

``HardwareEmitter.continuous_fast`` evaluates a repetition-structured
:class:`~repro.signal.acquisition.SampleGrid` through per-cycle complex
tables, a per-repetition scalar and an integer cycle carry.  These
properties pin it to the per-sample ``continuous`` oracle over generated
programs, clock scales, trigger offsets (including the edges of the
scope's jitter window) and grids whose samples land exactly on integer
cycles, where the carry flips.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hardware.device as device_module
from repro.hardware import DE0_CV, HardwareDevice, HardwareEmitter
from repro.robustness import ConfigurationError
from repro.robustness.faults import FaultPlan
from repro.signal.acquisition import SampleGrid
from repro.signal.kernels import ExpKernel
from repro.uarch import run_program
from repro.workloads import RandomProgramBuilder

TOLERANCE = 1e-9
UNITS = DE0_CV.build_units()
JITTER_EDGE = float(np.nextafter(0.4, 0.0))   # just below the default window

_SEEDS = st.integers(0, 2 ** 16)
_LENGTHS = st.integers(4, 16)
_SCALES = st.one_of(st.just(1.0), st.floats(0.97, 1.03))
_OFFSETS = st.lists(
    st.one_of(st.just(0.0), st.just(JITTER_EDGE),
              st.floats(0.0, 0.4, exclude_max=True)),
    min_size=1, max_size=5)
_RATES = st.one_of(st.just(20.0), st.floats(4.0, 24.0))


def _trace(seed, length):
    program = RandomProgramBuilder(seed=seed).program(length, name="prop")
    trace, _ = run_program(program)
    return trace


def _scope_grid(offsets, rate, count):
    """The scope's batched sample times, wrapped with their structure."""
    times = np.concatenate([offset + np.arange(count) / rate
                            for offset in offsets])
    return SampleGrid(times, offsets=offsets, step=1.0 / rate, count=count)


@given(seed=_SEEDS, length=_LENGTHS, scale=_SCALES, offsets=_OFFSETS,
       rate=_RATES)
@settings(max_examples=30, deadline=None)
def test_scope_grid_matches_oracle(seed, length, scale, offsets, rate):
    trace = _trace(seed, length)
    emitter = HardwareEmitter(UNITS, gain=1.1, clock_scale=scale)
    count = int(trace.num_cycles * scale * rate)
    grid = _scope_grid(offsets, rate, count)
    fast = emitter.continuous_fast(trace)(grid)
    oracle = emitter.continuous(trace)(np.asarray(grid))
    assert fast.shape == oracle.shape
    assert np.max(np.abs(fast - oracle)) <= TOLERANCE


@given(seed=_SEEDS, length=_LENGTHS, scale=_SCALES,
       samples_per_cycle=st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_pilot_grid_matches_oracle(seed, length, scale, samples_per_cycle):
    """The auto-range pilot: one repetition at offset 0, step
    ``duration / N``; every ``samples_per_cycle``-th sample sits on an
    integer cycle, the carry boundary."""
    trace = _trace(seed, length)
    emitter = HardwareEmitter(UNITS, clock_scale=scale)
    duration = trace.num_cycles * scale
    count = trace.num_cycles * samples_per_cycle
    grid = SampleGrid(np.linspace(0.0, duration, count, endpoint=False),
                      offsets=[0.0], step=duration / count, count=count)
    fast = emitter.continuous_fast(trace)(grid)
    oracle = emitter.continuous(trace)(np.asarray(grid))
    assert np.max(np.abs(fast - oracle)) <= TOLERANCE


@pytest.mark.parametrize("offsets", [[0.0], [JITTER_EDGE], [0.0, 1.0, 2.0],
                                     [0.25, 0.5, 0.75]])
def test_integer_cycle_samples_carry(offsets):
    """Quarter-cycle steps put many samples exactly on cycle edges, and
    whole-cycle offsets carry every sample of a repetition."""
    trace = _trace(11, 12)
    emitter = HardwareEmitter(UNITS)
    count = trace.num_cycles * 4
    grid = SampleGrid(np.concatenate([offset + np.arange(count) * 0.25
                                      for offset in offsets]),
                      offsets=offsets, step=0.25, count=count)
    fast = emitter.continuous_fast(trace)(grid)
    oracle = emitter.continuous(trace)(np.asarray(grid))
    assert np.max(np.abs(fast - oracle)) <= TOLERANCE


def test_plain_times_match_oracle():
    trace = _trace(2, 10)
    emitter = HardwareEmitter(UNITS, clock_scale=1.02)
    times = np.sort(np.random.default_rng(4).uniform(
        -2.0, trace.num_cycles + 6.0, 700))
    fast = emitter.continuous_fast(trace)(times)
    oracle = emitter.continuous(trace)(times)
    assert np.max(np.abs(fast - oracle)) <= TOLERANCE


def test_sample_grid_is_its_sample_times():
    grid = _scope_grid([0.1, 0.3], 20.0, 50)
    assert len(grid) == 100
    assert grid.count == 50 and grid.step == 1.0 / 20.0
    assert np.array_equal(np.asarray(grid),
                          np.concatenate([0.1 + np.arange(50) / 20.0,
                                          0.3 + np.arange(50) / 20.0]))
    # derived arrays carry no structure
    assert (grid * 2.0).offsets is None
    assert grid[:10].offsets is None


def test_non_damped_sine_unit_rejected():
    units = list(UNITS)
    units[0] = dataclasses.replace(units[0], kernel=ExpKernel())
    with pytest.raises(ConfigurationError, match="damped sine") as raised:
        HardwareEmitter(units)
    assert raised.value.exit_code == 16


def _faulted_capture(monkeypatch, oracle):
    """A fault-injected batched reference capture and its screen."""
    device = HardwareDevice(seed=7, fault_plan=FaultPlan(
        saturation_prob=0.1, burst_prob=0.2, drift_prob=0.2,
        jitter_spike_prob=0.2, trigger_loss_prob=0.1, seed=2))
    if oracle:
        monkeypatch.setattr(device.emitter, "continuous_fast",
                            device.emitter.continuous)
    screens = []

    def recording_screen(*args, **kwargs):
        screens.append(screen(*args, **kwargs))
        return screens[-1]

    screen = device_module.screen_repetitions
    monkeypatch.setattr(device_module, "screen_repetitions",
                        recording_screen)
    program = RandomProgramBuilder(seed=8).program(16, name="faulted")
    measurement = device.capture_reference(program, repetitions=24,
                                           batched=True)
    monkeypatch.setattr(device_module, "screen_repetitions", screen)
    return measurement, screens[0]


def test_faulted_batched_capture_matches_oracle(monkeypatch):
    fast, fast_screen = _faulted_capture(monkeypatch, oracle=False)
    slow, slow_screen = _faulted_capture(monkeypatch, oracle=True)
    assert fast_screen.rejected > 0
    assert np.array_equal(fast_screen.keep, slow_screen.keep)
    assert fast_screen.reasons == slow_screen.reasons
    assert np.max(np.abs(fast.signal - slow.signal)) <= TOLERANCE
    fast_quality = dataclasses.asdict(fast.quality)
    slow_quality = dataclasses.asdict(slow.quality)
    assert fast_quality.keys() == slow_quality.keys()
    for name, value in fast_quality.items():
        assert abs(value - slow_quality[name]) <= TOLERANCE, name
