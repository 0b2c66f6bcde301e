"""One offset-bin assignment per capture, reused bit for bit.

``screen_repetitions`` computes an equal-length capture's offset bins
once from the stacked sample times; the provisional fold, the residuals,
the final ``modulo_average`` and ``assess_capture`` reuse them.  Every
consumer must return exactly what recomputing the bins from the sample
times gives.  Ragged captures (sample drops) carry no shared bins and
keep the per-repetition path.
"""

import dataclasses

import numpy as np
import pytest

import repro.hardware.device as device_module
import repro.robustness.health as health
from repro.hardware import HardwareDevice
from repro.robustness.faults import FaultPlan
from repro.robustness.health import assess_capture, screen_repetitions
from repro.signal.acquisition import Oscilloscope
from repro.signal.modulo import modulo_average, offset_bins
from repro.workloads import RandomProgramBuilder

PROGRAM = RandomProgramBuilder(seed=4).program(16, name="shared_bins")
EQUAL = FaultPlan(burst_prob=0.2, drift_prob=0.2, jitter_spike_prob=0.3,
                  saturation_prob=0.1, seed=4)
RAGGED = FaultPlan(drop_rate=0.01, jitter_spike_prob=0.2, seed=5)


def _capture(plan):
    """``(times_list, samples_list, period, num_bins, scope_config)`` of
    a batched, auto-ranged reference capture, as the screen receives
    them."""
    device = HardwareDevice(seed=6, fault_plan=plan)
    trace = device.run_trace(PROGRAM)
    period = trace.num_cycles * device.instance.clock_scale
    waveform = device.emitter.continuous_fast(trace)
    num_bins = trace.num_cycles * device.samples_per_cycle
    span = np.max(np.abs(waveform(np.linspace(0.0, period, num_bins,
                                              endpoint=False))))
    config = dataclasses.replace(device.scope_config, adc_range=2.5 * span)
    scope = Oscilloscope(config, device.rng, injector=device.fault_injector)
    times_list, samples_list = scope.capture_repetition_list(
        waveform, period, 20, batched=True)
    return times_list, samples_list, period, num_bins, config


def _legacy_bins(times, period, num_bins):
    return np.round(np.mod(times, period) / period * num_bins).astype(int) \
        % num_bins


def _screen(times_list, samples_list, period, num_bins, config):
    return screen_repetitions(times_list, samples_list, period=period,
                              num_bins=num_bins, adc_range=config.adc_range,
                              adc_bits=config.adc_bits)


def _recomputing_fold(samples, times, period, num_bins, bins=None):
    return modulo_average(samples, times, period, num_bins)


def test_equal_length_screen_shares_bins(monkeypatch):
    times_list, samples_list, period, num_bins, config = _capture(EQUAL)
    assert len({len(times) for times in times_list}) == 1
    shared = _screen(times_list, samples_list, period, num_bins, config)
    # both screening stages reject: clipping, then the fold residual
    assert any("clipped" in reason for reason in shared.reasons)
    assert any("fold residual" in reason for reason in shared.reasons)
    for row, times in zip(shared.bins, times_list):
        assert np.array_equal(row, _legacy_bins(times, period, num_bins))
    monkeypatch.setattr(health, "modulo_average", _recomputing_fold)
    recomputed = _screen(times_list, samples_list, period, num_bins,
                         config)
    assert np.array_equal(shared.keep, recomputed.keep)
    assert shared.reasons == recomputed.reasons


@pytest.mark.parametrize("plan", [EQUAL, RAGGED], ids=["equal", "ragged"])
def test_fold_and_assessment_match_recomputed_bins(plan):
    times_list, samples_list, period, num_bins, config = _capture(plan)
    screen = _screen(times_list, samples_list, period, num_bins, config)
    kept = np.flatnonzero(screen.keep)
    times = np.concatenate([times_list[i] for i in kept])
    samples = np.concatenate([samples_list[i] for i in kept])
    if plan is RAGGED:
        assert len({len(t) for t in times_list}) > 1
        assert screen.bins is None
        bins = np.concatenate([offset_bins(times_list[i], period, num_bins)
                               for i in kept])
    else:
        bins = screen.bins[screen.keep].ravel()
    assert np.array_equal(bins, _legacy_bins(times, period, num_bins))
    given = modulo_average(samples, times, period, num_bins, bins=bins)
    recomputed = modulo_average(samples, times, period, num_bins)
    assert np.array_equal(given[0], recomputed[0])
    assert np.array_equal(given[1], recomputed[1])
    kwargs = dict(period=period, num_bins=num_bins,
                  adc_range=config.adc_range, adc_bits=config.adc_bits,
                  reference=given[0])
    assert dataclasses.asdict(assess_capture(samples, times, bins=bins,
                                             **kwargs)) == \
        dataclasses.asdict(assess_capture(samples, times, **kwargs))


@pytest.mark.parametrize("plan", [EQUAL, RAGGED], ids=["equal", "ragged"])
def test_capture_reference_bit_identical_without_shared_bins(monkeypatch,
                                                             plan):
    def capture():
        device = HardwareDevice(seed=6, fault_plan=plan)
        return device.capture_reference(PROGRAM, repetitions=20,
                                        batched=True)

    shared = capture()

    def unshared_screen(*args, **kwargs):
        return dataclasses.replace(screen(*args, **kwargs), bins=None)

    screen = device_module.screen_repetitions
    monkeypatch.setattr(device_module, "screen_repetitions",
                        unshared_screen)
    monkeypatch.setattr(health, "modulo_average", _recomputing_fold)
    recomputed = capture()
    assert np.array_equal(shared.signal, recomputed.signal)
    assert dataclasses.asdict(shared.quality) == \
        dataclasses.asdict(recomputed.quality)
