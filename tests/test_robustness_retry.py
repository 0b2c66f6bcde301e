"""Tests for retry, backoff, degradation, and robust fitting.

The supervisor tests use a stub device so each ladder rung (retry on
acquisition failure, escalation on quality rejection, ideal-grid
degradation, strict mode) can be exercised deterministically.
"""

import numpy as np
import pytest

from repro.core import irls_solve, mad_outlier_mask
from repro.robustness import (AcquisitionError, CaptureQuality,
                              CaptureQualityError, CaptureSupervisor,
                              HealthPolicy, RetryPolicy)
from repro.robustness.errors import (ConvergenceError, ModelFormatError,
                                     ProbeError, ReproError, exit_code_for)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

def test_backoff_schedule_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=6, base_delay=0.01, backoff=2.0,
                         jitter=0.25, max_delay=0.05, seed=3)
    schedule = policy.schedule()
    assert schedule == policy.schedule()          # reproducible
    assert len(schedule) == 5
    assert all(delay >= 0.0 for delay in schedule)
    # exponential up to the cap, +/- 25% jitter
    for index, delay in enumerate(schedule):
        raw = min(0.05, 0.01 * 2.0 ** index)
        assert raw * 0.75 <= delay <= raw * 1.25
    # a different seed gives a different (desynchronized) schedule
    other = RetryPolicy(max_attempts=6, base_delay=0.01, backoff=2.0,
                        jitter=0.25, max_delay=0.05, seed=4)
    assert other.schedule() != schedule


# ----------------------------------------------------------------------
# CaptureSupervisor against a stub device
# ----------------------------------------------------------------------

class _Probe:
    name = "stub_probe"


GOOD_QUALITY = CaptureQuality(clipping_ratio=0.0, snr_db=30.0,
                              alignment_residual=0.05,
                              total_repetitions=16, num_samples=640)
BAD_QUALITY = CaptureQuality(clipping_ratio=0.5, snr_db=-3.0,
                             alignment_residual=2.0,
                             total_repetitions=16, num_samples=640)


class _Meas:
    def __init__(self, quality, method="reference"):
        self.quality = quality
        self.method = method
        self.signal = np.zeros(8)


class _StubDevice:
    """Scripted bench: a list of per-attempt behaviours."""

    def __init__(self, script):
        self.script = list(script)   # "fail" | "bad" | "good"
        self.calls = []              # (method, repetitions)
        self.ideal_captures = 0

    def measure(self, program, method="reference", repetitions=100,
                max_cycles=None):
        self.calls.append((method, repetitions))
        action = self.script.pop(0) if self.script else "good"
        if action == "fail":
            raise AcquisitionError("trigger loss: scope did not fire")
        quality = BAD_QUALITY if action == "bad" else GOOD_QUALITY
        return _Meas(quality, method=method)

    def capture_ideal(self, program, max_cycles=None):
        self.ideal_captures += 1
        return _Meas(None, method="ideal")


def _supervisor(device, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3, seed=1))
    return CaptureSupervisor(device, health=HealthPolicy(), **kwargs)


def test_clean_capture_first_try():
    device = _StubDevice(["good"])
    supervisor = _supervisor(device)
    measurement, outcome = supervisor.measure(_Probe(), method="reference",
                                              repetitions=16)
    assert measurement.quality is GOOD_QUALITY
    assert outcome.attempts == 1 and outcome.retries == 0
    assert not outcome.degraded
    assert supervisor.stats.probes == 1
    assert supervisor.stats.probes_retried == 0


class _UnprintableProbe(_Probe):
    def __repr__(self):
        raise AssertionError("a named program must not be stringified")


def test_named_program_is_never_stringified():
    _, outcome = _supervisor(_StubDevice(["good"])).measure(
        _UnprintableProbe(), method="reference", repetitions=16)
    assert outcome.program == "stub_probe"


def test_nameless_program_is_labelled_by_its_string():
    _, outcome = _supervisor(_StubDevice(["good"])).measure(
        "nameless", method="reference", repetitions=16)
    assert outcome.program == "nameless"


def test_retry_recovers_from_acquisition_failure():
    device = _StubDevice(["fail", "good"])
    supervisor = _supervisor(device)
    _, outcome = supervisor.measure(_Probe(), method="reference",
                                    repetitions=16)
    assert outcome.attempts == 2
    assert outcome.capture_failures == 1
    assert not outcome.degraded
    # delivery failures don't escalate the repetition budget
    assert [reps for _, reps in device.calls] == [16, 16]


def test_quality_rejection_escalates_repetitions():
    device = _StubDevice(["bad", "bad", "good"])
    supervisor = _supervisor(device)
    _, outcome = supervisor.measure(_Probe(), method="reference",
                                    repetitions=16)
    assert outcome.quality_rejects == 2
    assert outcome.escalations == 2
    assert [reps for _, reps in device.calls] == [16, 32, 64]
    assert outcome.final_repetitions == 64


def test_degrades_to_ideal_after_budget():
    device = _StubDevice(["bad", "bad", "bad"])
    warnings = []
    supervisor = _supervisor(device, log=warnings.append)
    measurement, outcome = supervisor.measure(_Probe(), method="reference",
                                              repetitions=16)
    assert outcome.degraded
    assert outcome.final_method == "ideal"
    assert device.ideal_captures == 1
    assert measurement.method == "ideal"
    assert supervisor.stats.probes_degraded == 1
    assert any("degraded" in line for line in warnings)


def test_strict_mode_raises_instead_of_degrading():
    device = _StubDevice(["bad", "bad", "bad"])
    supervisor = _supervisor(device, allow_degradation=False)
    with pytest.raises(CaptureQualityError):
        supervisor.measure(_Probe(), method="reference", repetitions=16)
    assert device.ideal_captures == 0


def test_all_failures_exhaust_and_degrade():
    device = _StubDevice(["fail", "fail", "fail"])
    supervisor = _supervisor(device)
    _, outcome = supervisor.measure(_Probe(), method="reference",
                                    repetitions=16)
    assert outcome.degraded
    assert outcome.capture_failures == 3


def test_backoff_is_recorded_and_sleep_called():
    device = _StubDevice(["fail", "fail", "good"])
    slept = []
    supervisor = _supervisor(device, sleep=slept.append)
    _, outcome = supervisor.measure(_Probe(), method="reference",
                                    repetitions=16)
    assert len(slept) == 2
    assert outcome.waited == pytest.approx(sum(slept))
    assert slept == RetryPolicy(max_attempts=3, seed=1).schedule()


def test_stats_summary_mentions_all_counters():
    device = _StubDevice(["bad", "fail", "good"])
    supervisor = _supervisor(device)
    supervisor.measure(_Probe(), method="reference", repetitions=16)
    summary = supervisor.stats.summary()
    for token in ("probes=1", "retried=1", "rejected=1", "lost=1",
                  "escalated=1", "degraded=0"):
        assert token in summary


# ----------------------------------------------------------------------
# error hierarchy
# ----------------------------------------------------------------------

def test_error_hierarchy_and_exit_codes():
    assert issubclass(AcquisitionError, ReproError)
    assert issubclass(CaptureQualityError, AcquisitionError)
    assert issubclass(ConvergenceError, ReproError)
    # dual inheritance keeps legacy ValueError call sites working
    assert issubclass(ModelFormatError, ValueError)
    assert issubclass(ProbeError, ValueError)
    codes = {exit_code_for(cls("x")) for cls in (
        ReproError, AcquisitionError, ConvergenceError, ProbeError)}
    codes.add(exit_code_for(ModelFormatError("x", path="p")))
    assert len(codes) == 5                    # all distinct
    assert all(code >= 10 for code in codes)
    assert exit_code_for(RuntimeError("x")) == 1


def test_model_format_error_names_path_and_reason():
    error = ModelFormatError("checksum mismatch", path="/tmp/m.json")
    assert "/tmp/m.json" in str(error)
    assert "checksum mismatch" in str(error)


# ----------------------------------------------------------------------
# robust fitting
# ----------------------------------------------------------------------

def test_irls_matches_lstsq_on_clean_data(rng):
    matrix = np.column_stack([np.ones(60), rng.normal(0, 1, (60, 3))])
    truth = np.array([1.0, 2.0, -0.5, 0.25])
    target = matrix @ truth + rng.normal(0, 0.01, 60)
    solution, info = irls_solve(matrix, target)
    assert info.converged
    assert np.allclose(solution, truth, atol=0.02)
    # a tightly-scaled Huber may down-weight a tail point or two, but
    # clean Gaussian data should not look contaminated
    assert info.outliers_rejected <= 3


def test_irls_resists_gross_outliers(rng):
    matrix = np.column_stack([np.ones(80), rng.normal(0, 1, (80, 2))])
    truth = np.array([0.5, 3.0, -1.0])
    target = matrix @ truth + rng.normal(0, 0.02, 80)
    corrupted = target.copy()
    corrupted[::10] += 50.0                       # 8 gross outliers

    plain = np.linalg.lstsq(matrix, corrupted, rcond=None)[0]
    robust, info = irls_solve(matrix, corrupted)
    assert info.outliers_rejected >= 6
    plain_err = np.linalg.norm(plain - truth)
    robust_err = np.linalg.norm(robust - truth)
    assert robust_err < plain_err / 5
    assert robust_err < 0.1


def test_irls_rejects_nonfinite_input():
    matrix = np.ones((4, 2))
    target = np.array([1.0, np.nan, 3.0, 4.0])
    with pytest.raises(ConvergenceError):
        irls_solve(matrix, target)


def test_mad_outlier_mask_flags_only_outliers(rng):
    values = rng.normal(0.0, 1.0, 200)
    values[17] = 40.0
    values[91] = -35.0
    mask = mad_outlier_mask(values, threshold=6.0)   # True = outlier
    assert mask[17] and mask[91]
    assert mask.sum() <= 10
