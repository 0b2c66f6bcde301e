"""Measurement core for ``repro bench --mode signal``.

Times the streaming signal-analytics engine against the seed's direct
paths on three axes, matching the acceptance floors in
docs/architecture.md ("Signal fast path"):

* **synthesis** — the planned overlap-add/FFT engine vs the direct
  ``np.convolve`` oracle on a >= 4096-cycle trace, floor **3x**;
* **deconvolution** — a cold banded-Cholesky batch estimate vs a cold
  legacy sparse-LU rebuild (geometry caches cleared for *both* arms
  every repetition), floor **2x**;
* **TVLA memory** — peak traced allocation of a streaming Welford
  assessment vs the batch materialize-then-test path over the same
  2048-trace campaign, floor **5x** smaller.

Every ratio is gated on agreement first: the engine's synthesis and
amplitude estimates must match their oracles to within 1e-9, and the
streaming t-values must match the batch Welch statistic to within
1e-9, before any timing is reported — the speedups can never come from
computing something different.  Both the CLI bench and
``benchmarks/test_perf_signal.py`` call :func:`run_signal_bench`.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..leakage.streaming import StreamingTTest
from ..leakage.tvla import welch_t_statistic
from ..profiling import monotonic
from ..signal.kernels import DampedSineKernel
from ..signal.reconstruction import (batch_estimate_cycle_amplitudes,
                                     clear_plan_caches, reconstruct)


def _paired_best(baseline: Callable[[], Any],
                 candidate: Callable[[], Any],
                 reps: int) -> Tuple[float, float]:
    """Best-of-``reps`` wall times of an interleaved baseline/candidate
    pair.

    The two arms alternate within every repetition rather than running
    as separate blocks, so machine-load drift (thermal throttling, a
    co-scheduled job appearing mid-bench) hits both arms alike instead
    of skewing whichever block it lands on.
    """
    best_baseline = best_candidate = float("inf")
    for _ in range(reps):
        start = monotonic()
        baseline()
        best_baseline = min(best_baseline, monotonic() - start)
        start = monotonic()
        candidate()
        best_candidate = min(best_candidate, monotonic() - start)
    return best_baseline, best_candidate


def _campaign_trace(seed: int, samples: int, fixed: bool) -> np.ndarray:
    """One deterministic synthetic campaign trace.

    Fixed-group traces share a data-dependent ridge on top of the
    common carrier, so the assessment has genuine leakage to find; the
    generator owns no state between calls, which is what lets the
    streaming arm run without retaining traces.
    """
    rng = np.random.default_rng(seed)
    carrier = np.sin(np.linspace(0.0, 40.0, samples))
    trace = carrier + 0.35 * rng.standard_normal(samples)
    if fixed:
        trace[samples // 3::7] += 0.08
    return trace


def _tvla_batch(traces: int, samples: int) -> np.ndarray:
    """Batch arm: materialize both trace groups, then one Welch test."""
    fixed = np.vstack([_campaign_trace(seed, samples, True)
                       for seed in range(traces)])
    random = np.vstack([_campaign_trace(traces + seed, samples, False)
                        for seed in range(traces)])
    return welch_t_statistic(fixed, random)


def _tvla_streaming(traces: int, samples: int) -> np.ndarray:
    """Streaming arm: fold each trace as generated, retain none."""
    accumulator = StreamingTTest()
    for seed in range(traces):
        accumulator.add_fixed(_campaign_trace(seed, samples, True))
    for seed in range(traces):
        accumulator.add_random(
            _campaign_trace(traces + seed, samples, False))
    return accumulator.t_values()


def _traced_peak(function) -> Tuple[Any, int]:
    """Run ``function`` under tracemalloc; return (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_signal_bench(cycles: int = 4096,
                     deconv_traces: int = 24,
                     deconv_cycles: int = 256,
                     tvla_traces: int = 1024,
                     tvla_cycles: int = 128,
                     samples_per_cycle: int = 20,
                     reps: int = 5) -> Dict[str, Any]:
    """Run the signal-engine benchmark and return its metrics document.

    ``cycles`` sizes the synthesis trace, ``deconv_traces`` x
    ``deconv_cycles`` the batch deconvolution, and ``tvla_traces``
    (per group) x ``tvla_cycles`` the memory comparison; ``reps`` is
    the best-of repetition count for the timed sections.  Oracle
    agreement (<= 1e-9) is asserted before any ratio is reported.
    """
    kernel = DampedSineKernel()
    spc = samples_per_cycle
    rng = np.random.default_rng(20260808)

    # -- synthesis: planned engine vs the direct np.convolve oracle ----
    amplitudes = rng.uniform(0.1, 2.0, size=cycles)
    direct = reconstruct(amplitudes, kernel, spc, method="direct")
    engine = reconstruct(amplitudes, kernel, spc)   # builds + caches plan
    synthesis_error = float(np.max(np.abs(engine - direct)))
    assert synthesis_error <= 1e-9, \
        f"synthesis engine disagrees with oracle by {synthesis_error:g}"
    # the engine arm is sub-millisecond at realistic sizes, so one call
    # per timed sample would let scheduler jitter swamp the ratio; each
    # sample times a small inner batch instead and both arms divide by
    # the same count
    inner = 4

    def _direct_batch() -> None:
        for _ in range(inner):
            reconstruct(amplitudes, kernel, spc, method="direct")

    def _engine_batch() -> None:
        for _ in range(inner):
            reconstruct(amplitudes, kernel, spc)

    direct_seconds, engine_seconds = _paired_best(
        _direct_batch, _engine_batch, reps)
    direct_seconds /= inner
    engine_seconds /= inner

    # -- deconvolution: cold banded Cholesky vs cold sparse-LU rebuild -
    true_amplitudes = rng.uniform(0.1, 2.0,
                                  size=(deconv_traces, deconv_cycles))
    signals = [reconstruct(row, kernel, spc) for row in true_amplitudes]
    banded = batch_estimate_cycle_amplitudes(signals, kernel, spc,
                                             method="banded")
    legacy = batch_estimate_cycle_amplitudes(signals, kernel, spc,
                                             method="lu")
    deconv_error = float(max(np.max(np.abs(b - l))
                             for b, l in zip(banded, legacy)))
    assert deconv_error <= 1e-9, \
        f"banded deconvolution disagrees with LU by {deconv_error:g}"

    def cold(method: str):
        clear_plan_caches()
        return batch_estimate_cycle_amplitudes(signals, kernel, spc,
                                               method=method)

    lu_seconds, banded_seconds = _paired_best(
        lambda: cold("lu"), lambda: cold("banded"), reps)

    # -- TVLA memory: streaming Welford vs batch materialization -------
    samples = tvla_cycles * spc
    batch_t, batch_peak = _traced_peak(
        lambda: _tvla_batch(tvla_traces, samples))
    stream_t, stream_peak = _traced_peak(
        lambda: _tvla_streaming(tvla_traces, samples))
    tvla_error = float(np.max(np.abs(batch_t - stream_t)))
    assert tvla_error <= 1e-9, \
        f"streaming t-values disagree with batch by {tvla_error:g}"

    return {
        "benchmark": "signal_engine",
        "reps": reps,
        "samples_per_cycle": spc,
        "synthesis_cycles": cycles,
        "direct_synth_seconds": direct_seconds,
        "engine_synth_seconds": engine_seconds,
        "synthesis_speedup": direct_seconds / engine_seconds,
        "synthesis_max_error": synthesis_error,
        "deconv_traces": deconv_traces,
        "deconv_cycles": deconv_cycles,
        "lu_deconv_seconds": lu_seconds,
        "banded_deconv_seconds": banded_seconds,
        "batch_deconv_speedup": lu_seconds / banded_seconds,
        "deconv_max_error": deconv_error,
        "tvla_traces_per_group": tvla_traces,
        "tvla_samples": samples,
        "batch_tvla_peak_bytes": batch_peak,
        "streaming_tvla_peak_bytes": stream_peak,
        "tvla_rss_ratio": batch_peak / stream_peak,
        "tvla_max_error": tvla_error,
        "oracle_agreement": True,
    }
