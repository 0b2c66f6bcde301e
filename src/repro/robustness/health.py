"""Capture quality assessment and health gating.

Before a capture is allowed into model training it is scored on three
bench-observable statistics:

* **clipping ratio** — fraction of raw samples pinned to the ADC rails
  (gain surges, probe repositioning accidents);
* **SNR** — per-sample signal-to-residual ratio against the folded
  reference (burst interference, dead probes);
* **modulo-alignment residual** — how well the folded repetitions agree
  within offset bins (Eq. 1 consistency; clock-jitter spikes and trigger
  walk destroy it even when the SNR looks fine).

:func:`assess_capture` computes a :class:`CaptureQuality` from the raw
repetition stream; :class:`HealthPolicy` holds the thresholds and either
lists the violations or raises a typed
:class:`~repro.robustness.errors.CaptureQualityError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..signal.modulo import modulo_average, offset_bins
from .errors import CaptureQualityError

_EPS = 1e-12

__all__ = ["CaptureQuality", "HealthPolicy", "RepetitionScreen",
           "assess_capture", "clipping_ratio", "screen_repetitions"]


def clipping_ratio(samples: np.ndarray, adc_range: float,
                   adc_bits: int) -> float:
    """Fraction of samples at (or beyond) the ADC rails."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0.0
    step = adc_range / (2 ** adc_bits)
    low = -adc_range / 2.0
    high = adc_range / 2.0 - step
    railed = (samples <= low + step / 2) | (samples >= high - step / 2)
    return float(np.mean(railed))


@dataclass
class CaptureQuality:
    """Bench-observable quality statistics of one capture.

    ``lost_repetitions`` counts traces the scope never delivered
    (trigger loss, brown-outs); ``screened_repetitions`` counts delivered
    traces the per-repetition screen rejected as corrupt; the remaining
    ``clean_repetitions`` are what the folded reference is built from.
    """

    clipping_ratio: float
    snr_db: float
    alignment_residual: float     # within-bin residual RMS / signal RMS
    lost_repetitions: int = 0
    screened_repetitions: int = 0
    total_repetitions: int = 0
    num_samples: int = 0

    @property
    def clean_repetitions(self) -> int:
        return max(0, self.total_repetitions - self.lost_repetitions -
                   self.screened_repetitions)

    @property
    def lost_fraction(self) -> float:
        if self.total_repetitions <= 0:
            return 0.0
        return (self.lost_repetitions + self.screened_repetitions) / \
            self.total_repetitions

    def summary(self) -> str:
        return (f"clip={self.clipping_ratio:.1%} snr={self.snr_db:.1f}dB "
                f"align={self.alignment_residual:.3f} "
                f"clean={self.clean_repetitions}/{self.total_repetitions} "
                f"(lost {self.lost_repetitions}, screened "
                f"{self.screened_repetitions})")


@dataclass(frozen=True)
class HealthPolicy:
    """Acceptance thresholds for a capture (the health gate).

    The pooled statistics are computed *after* per-repetition screening,
    so the gate checks the reference the fit would actually consume.
    ``min_clean_repetitions`` is the knob the escalation ladder pulls on:
    doubling the repetition budget roughly doubles the clean survivors,
    so a rejected capture becomes acceptable instead of looping forever.
    """

    max_clipping_ratio: float = 0.02
    min_snr_db: float = 6.0
    max_alignment_residual: float = 0.45
    min_clean_repetitions: int = 6
    min_samples: int = 32

    def violations(self, quality: CaptureQuality) -> List[str]:
        """Human-readable threshold violations (empty = healthy)."""
        found = []
        if quality.num_samples < self.min_samples:
            found.append(f"only {quality.num_samples} samples "
                         f"(min {self.min_samples})")
        if quality.clipping_ratio > self.max_clipping_ratio:
            found.append(f"clipping ratio {quality.clipping_ratio:.1%} "
                         f"> {self.max_clipping_ratio:.1%}")
        if quality.snr_db < self.min_snr_db:
            found.append(f"SNR {quality.snr_db:.1f} dB "
                         f"< {self.min_snr_db:.1f} dB floor")
        if quality.alignment_residual > self.max_alignment_residual:
            found.append(
                f"modulo-alignment residual {quality.alignment_residual:.3f}"
                f" > {self.max_alignment_residual:.3f}")
        if quality.total_repetitions > 0 and \
                quality.clean_repetitions < self.min_clean_repetitions:
            found.append(f"only {quality.clean_repetitions} clean "
                         f"repetitions of {quality.total_repetitions} "
                         f"(min {self.min_clean_repetitions})")
        return found

    def check(self, quality: CaptureQuality,
              context: str = "capture") -> None:
        """Raise :class:`CaptureQualityError` if the capture is unhealthy."""
        violations = self.violations(quality)
        if violations:
            raise CaptureQualityError(
                f"{context} failed health gate: {'; '.join(violations)}",
                violations=violations)


@dataclass
class RepetitionScreen:
    """Result of per-repetition screening of one capture run.

    ``bins`` holds the capture's :func:`~repro.signal.modulo.offset_bins`
    as a (repetitions, samples) matrix when every repetition has the same
    length, so the final fold and :func:`assess_capture` reuse them;
    ``None`` for ragged captures (drop faults).
    """

    keep: np.ndarray                  # boolean mask over delivered reps
    reasons: List[str]                # one line per rejected repetition
    bins: Optional[np.ndarray] = None

    @property
    def rejected(self) -> int:
        return int((~self.keep).sum())


def screen_repetitions(times_list, samples_list, period: float,
                       num_bins: int, adc_range: float, adc_bits: int,
                       max_clipping_ratio: float = 0.02,
                       energy_tolerance: float = 0.5,
                       residual_factor: float = 3.0) -> RepetitionScreen:
    """Reject individually corrupted repetitions before folding.

    What a careful bench operator does with a thousand-trace campaign:
    throw away the traces that clipped, the ones whose energy is wildly
    off the run median (gain surges, strong drift, dead probe), and —
    after a provisional fold of the survivors — the ones that disagree
    with the folded reference far more than their peers (clock-jitter
    spikes, burst interference).  Retrying a rejected *run* with a larger
    repetition budget therefore converges: the clean subset grows even if
    the corruption rate stays constant.
    """
    count = len(samples_list)
    keep = np.ones(count, dtype=bool)
    reasons: List[str] = []
    if count == 0:
        return RepetitionScreen(keep=keep, reasons=reasons)

    # Equal-length repetitions (the overwhelmingly common case — only
    # drop faults produce ragged lists) stack into a matrix so both
    # screening stages run as row-wise reductions.  numpy reduces each
    # row of a 2-D array with the same pairwise summation it applies to
    # the equivalent 1-D array, so the stacked statistics are
    # bit-identical to the per-repetition loop's.  The stacked capture's
    # offset bins are computed once here and shared by the provisional
    # fold, the residuals, and (through the returned screen) the caller's
    # final fold and quality assessment.
    lengths = {len(s) for s in samples_list}
    stacked = np.vstack(samples_list) if len(lengths) == 1 else None
    bins = offset_bins(np.vstack(times_list), period, num_bins) \
        if stacked is not None else None

    # stage A: per-trace amplitude statistics
    if stacked is not None:
        rms = np.sqrt(np.mean(np.square(stacked), axis=1)) + _EPS
    else:
        rms = np.array([float(np.sqrt(np.mean(np.square(s))) + _EPS)
                        for s in samples_list])
    median_rms = float(np.median(rms))
    if stacked is not None:
        step = adc_range / (2 ** adc_bits)
        low = -adc_range / 2.0
        high = adc_range / 2.0 - step
        railed = (stacked <= low + step / 2) | (stacked >= high - step / 2)
        clip_ratios = np.mean(railed, axis=1)
    else:
        clip_ratios = np.array([clipping_ratio(s, adc_range, adc_bits)
                                for s in samples_list])
    for index in range(count):
        clip = float(clip_ratios[index])
        if clip > max_clipping_ratio:
            keep[index] = False
            reasons.append(f"rep {index}: clipped ({clip:.1%})")
            continue
        if median_rms > _EPS and \
                abs(rms[index] / median_rms - 1.0) > energy_tolerance:
            keep[index] = False
            reasons.append(f"rep {index}: energy {rms[index]:.3f} vs "
                           f"median {median_rms:.3f}")

    # stage B: agreement with the provisional fold of the survivors
    if keep.sum() >= 3:
        survivor_samples = np.concatenate(
            [samples_list[i] for i in range(count) if keep[i]])
        survivor_times = np.concatenate(
            [times_list[i] for i in range(count) if keep[i]])
        reference, _ = modulo_average(
            survivor_samples, survivor_times, period=period,
            num_bins=num_bins,
            bins=bins[keep] if bins is not None else None)
        residuals = np.full(count, np.nan)
        if stacked is not None:
            residual = stacked - reference[bins]
            all_residuals = np.sqrt(np.mean(residual ** 2, axis=1))
            residuals[keep] = all_residuals[keep]
        else:
            for index in range(count):
                if not keep[index]:
                    continue
                residual = samples_list[index] - reference[offset_bins(
                    times_list[index], period, num_bins)]
                residuals[index] = float(np.sqrt(np.mean(residual ** 2)))
        median_residual = float(np.nanmedian(residuals))
        if median_residual > _EPS:
            for index in range(count):
                if not keep[index]:
                    continue
                if residuals[index] > residual_factor * median_residual:
                    keep[index] = False
                    reasons.append(
                        f"rep {index}: fold residual "
                        f"{residuals[index]:.3f} vs median "
                        f"{median_residual:.3f}")

    return RepetitionScreen(keep=keep, reasons=reasons, bins=bins)


def assess_capture(samples: np.ndarray, times: np.ndarray, period: float,
                   num_bins: int, adc_range: float, adc_bits: int,
                   lost_repetitions: int = 0,
                   screened_repetitions: int = 0,
                   total_repetitions: int = 0,
                   reference: Optional[np.ndarray] = None,
                   bins: Optional[np.ndarray] = None
                   ) -> CaptureQuality:
    """Score one raw repetition stream against its folded reference.

    ``reference`` may be passed when the caller already folded the
    capture (avoids folding twice); otherwise it is recomputed here.
    ``bins`` likewise passes the samples' offset bins (see
    :func:`~repro.signal.modulo.offset_bins`) when already known.
    """
    samples = np.asarray(samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if samples.size == 0:
        return CaptureQuality(clipping_ratio=0.0, snr_db=-np.inf,
                              alignment_residual=np.inf,
                              lost_repetitions=lost_repetitions,
                              screened_repetitions=screened_repetitions,
                              total_repetitions=total_repetitions,
                              num_samples=0)
    if bins is None:
        bins = offset_bins(times, period, num_bins)
    bins = np.ravel(bins)
    if reference is None:
        reference, _ = modulo_average(samples, times, period=period,
                                      num_bins=num_bins, bins=bins)
    # residual of every raw sample against its own offset bin's average:
    # AWGN, bursts, drift, and misalignment all land here
    residual = samples - reference[bins]
    signal_rms = float(np.sqrt(np.mean(
        (reference - reference.mean()) ** 2)))
    residual_rms = float(np.sqrt(np.mean(residual ** 2)))
    snr = (signal_rms + _EPS) / (residual_rms + _EPS)
    return CaptureQuality(
        clipping_ratio=clipping_ratio(samples, adc_range, adc_bits),
        snr_db=float(20.0 * np.log10(snr)),
        alignment_residual=residual_rms / (signal_rms + _EPS),
        lost_repetitions=lost_repetitions,
        screened_repetitions=screened_repetitions,
        total_repetitions=total_repetitions,
        num_samples=int(samples.size))
