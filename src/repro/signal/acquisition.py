"""Signal-acquisition front end: the oscilloscope model.

Stands in for the paper's Keysight DSOS804A (10 GSa/s) capturing the probe
output.  Models the practical imperfections the modulo operation has to
undo: a sampling grid asynchronous to the device clock, random trigger
offsets per repetition, additive white Gaussian noise, and finite ADC
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..robustness.errors import AcquisitionError
from ..robustness.faults import FaultInjector


@dataclass(frozen=True)
class ScopeConfig:
    """Acquisition parameters, normalized to the device clock.

    ``samples_per_cycle`` plays the role of f_s / f_clk (e.g. the paper's
    10 GSa/s at 50 MHz is 200 samples per cycle); a non-integer value (via
    ``rate_offset``) makes the grid asynchronous so that folded repetitions
    interleave, exactly the situation the modulo operation exploits.
    """

    samples_per_cycle: float = 20.0
    rate_offset: float = 1.37e-3     # fractional sample-rate mismatch
    noise_rms: float = 0.05          # AWGN std-dev (signal units)
    adc_bits: int = 10
    adc_range: float = 4.0           # full scale, signal units
    trigger_jitter_cycles: float = 0.4

    @property
    def effective_rate(self) -> float:
        """Actual samples per cycle including the rate mismatch."""
        return self.samples_per_cycle * (1.0 + self.rate_offset)


class SampleGrid(np.ndarray):
    """Sample times of repetitions that share one uniform sampling grid.

    The data are exactly the concatenated sample times the scope feeds
    its waveform — repetition ``r`` contributes ``count`` samples at
    ``offsets[r] + k * step`` — so a grid passes anywhere a plain time
    array does (``len()`` is the total sample count; ``np.asarray``
    reads it as a plain array).  ``offsets``, ``step`` and ``count``
    expose the repetition structure to evaluators that exploit it
    (:meth:`~repro.hardware.emitter.HardwareEmitter.continuous_fast`).
    Arrays derived from a grid (slices, arithmetic) drop the structure:
    their ``offsets`` is ``None``.
    """

    offsets: Optional[np.ndarray]
    step: Optional[float]
    count: Optional[int]

    def __new__(cls, times: np.ndarray, offsets: np.ndarray, step: float,
                count: int) -> "SampleGrid":
        """View ``times`` (``len(offsets) * count`` of them, repetition
        by repetition) as a grid."""
        grid = np.asarray(times, dtype=float).view(cls)
        grid.offsets = np.asarray(offsets, dtype=float)
        grid.step = float(step)
        grid.count = int(count)
        return grid

    def __array_finalize__(self, obj: Optional[np.ndarray]) -> None:
        """Derived arrays carry no grid structure."""
        self.offsets = None
        self.step = None
        self.count = None


@dataclass
class RepetitionStats:
    """Delivery accounting for one repetition capture run."""

    requested: int = 0
    lost: int = 0

    @property
    def delivered(self) -> int:
        """Repetitions that actually arrived (requested minus lost)."""
        return self.requested - self.lost


class Oscilloscope:
    """Samples a continuous signal ``y(t)`` (t in device clock cycles).

    ``injector`` optionally threads a seeded
    :class:`~repro.robustness.faults.FaultInjector` into the capture
    path: capture-killing faults raise
    :class:`~repro.robustness.errors.AcquisitionError`, signal faults
    corrupt the raw samples before quantization (so saturation rails,
    exactly as on a real ADC).
    """

    #: a repetition run losing more than this fraction of its traces is
    #: reported as failed delivery rather than silently under-averaged
    MAX_LOST_FRACTION = 0.5

    def __init__(self, config: ScopeConfig,
                 rng: np.random.Generator,
                 injector: Optional[FaultInjector] = None):
        self.config = config
        self.rng = rng
        self.injector = injector
        self.last_repetition_stats = RepetitionStats()

    def _quantize(self, samples: np.ndarray) -> np.ndarray:
        config = self.config
        step = config.adc_range / (2 ** config.adc_bits)
        clipped = np.clip(samples, -config.adc_range / 2,
                          config.adc_range / 2 - step)
        return np.round(clipped / step) * step

    def capture(self, continuous: Callable[[np.ndarray], np.ndarray],
                duration_cycles: float,
                start_cycle: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Capture one trace; returns ``(sample_times, samples)``.

        ``sample_times`` are in device-clock cycles, offset by trigger
        jitter; samples include AWGN and quantization.  With a fault
        injector attached, a lost trigger or device brown-out raises
        :class:`AcquisitionError` and corrupting faults are folded in
        ahead of the ADC.
        """
        if self.injector is not None:
            self.injector.begin_capture()
        config = self.config
        count = int(duration_cycles * config.effective_rate)
        jitter = self.rng.uniform(0, config.trigger_jitter_cycles)
        times = start_cycle + jitter + \
            np.arange(count) / config.effective_rate
        samples = continuous(times)
        samples = samples + self.rng.normal(0.0, config.noise_rms,
                                            size=samples.shape)
        if self.injector is not None:
            times, samples = self.injector.corrupt(times, samples)
        return times, self._quantize(samples)

    def capture_repetitions(self,
                            continuous: Callable[[np.ndarray], np.ndarray],
                            duration_cycles: float,
                            repetitions: int,
                            batched: bool = False) -> Tuple[np.ndarray,
                                                            np.ndarray]:
        """Capture ``repetitions`` back-to-back traces of the same
        sequence, concatenated on a common absolute time axis.

        This is the paper's "executed several times (1000 times in our
        measurements)" collection loop.  Individual repetitions lost to
        trigger/brown-out faults are skipped and tallied in
        ``last_repetition_stats``; the run only fails (with
        :class:`AcquisitionError`) when more than ``MAX_LOST_FRACTION``
        of the requested traces are gone.
        """
        times_list, samples_list = self.capture_repetition_list(
            continuous, duration_cycles, repetitions, batched=batched)
        lost = self.last_repetition_stats.lost
        if not samples_list or lost > repetitions * self.MAX_LOST_FRACTION:
            raise AcquisitionError(
                f"capture run lost {lost}/{repetitions} repetitions "
                f"to trigger/brown-out faults")
        return np.concatenate(times_list), np.concatenate(samples_list)

    def capture_repetition_list(self,
                                continuous: Callable[[np.ndarray],
                                                     np.ndarray],
                                duration_cycles: float,
                                repetitions: int,
                                batched: bool = False
                                ) -> Tuple[list, list]:
        """Capture repetitions as *separate* traces (for screening).

        Returns ``(times_list, samples_list)`` of the delivered traces,
        each already shifted onto the common absolute time axis; lost
        repetitions are recorded in ``last_repetition_stats`` instead of
        raising, so the caller decides how many losses are tolerable.

        ``batched=True`` selects the vectorized collection loop
        (:meth:`_capture_repetitions_batched`), which produces
        bit-identical traces for a fraction of the wall time.
        """
        if batched:
            return self._capture_repetitions_batched(
                continuous, duration_cycles, repetitions)
        times_list: list = []
        samples_list: list = []
        lost = 0
        for repetition in range(repetitions):
            try:
                times, samples = self.capture(
                    continuous, duration_cycles,
                    start_cycle=0.0)
            except AcquisitionError:
                lost += 1
                continue
            # the sequence restarts every duration_cycles; fold later
            times_list.append(times + repetition * duration_cycles)
            samples_list.append(samples)
        self.last_repetition_stats = RepetitionStats(requested=repetitions,
                                                     lost=lost)
        return times_list, samples_list

    def _capture_repetitions_batched(self,
                                     continuous: Callable[[np.ndarray],
                                                          np.ndarray],
                                     duration_cycles: float,
                                     repetitions: int) -> Tuple[list, list]:
        """Vectorized repetition loop: one waveform evaluation for all
        repetitions.

        The sequential loop pays the continuous-waveform evaluation's
        per-call overhead once *per repetition*; this path replays the
        exact same RNG stream (trigger gating and corruption draws per
        repetition, in order), concatenates every delivered repetition's
        sampling grid into one :class:`SampleGrid`, evaluates ``y(t)``
        **once**, then splits, adds the pre-drawn noise, applies the
        pre-drawn corruption recipes, and quantizes.  The grid's data
        are the sequential loop's sample times, so an elementwise
        waveform returns bit-identical traces; a structure-aware one
        (the emitter's closed-form evaluator) shares its per-sample work
        across the repetitions instead.
        """
        config = self.config
        count = int(duration_cycles * config.effective_rate)
        plans = []          # (repetition, jitter, times, noise, recipe)
        lost = 0
        for repetition in range(repetitions):
            if self.injector is not None:
                try:
                    self.injector.begin_capture()
                except AcquisitionError:
                    lost += 1
                    continue
            jitter = self.rng.uniform(0, config.trigger_jitter_cycles)
            times = jitter + np.arange(count) / config.effective_rate
            noise = self.rng.normal(0.0, config.noise_rms, size=count)
            recipe = self.injector.draw_corruption(count) \
                if self.injector is not None else None
            plans.append((repetition, jitter, times, noise, recipe))

        times_list: list = []
        samples_list: list = []
        if plans:
            values = continuous(SampleGrid(
                np.concatenate([plan[2] for plan in plans]),
                offsets=[plan[1] for plan in plans],
                step=1.0 / config.effective_rate, count=count))
            offset = 0
            for repetition, _, times, noise, recipe in plans:
                samples = values[offset:offset + count] + noise
                offset += count
                if recipe is not None:
                    times, samples = self.injector.apply_corruption(
                        recipe, times, samples)
                times_list.append(times + repetition * duration_cycles)
                samples_list.append(self._quantize(samples))
        self.last_repetition_stats = RepetitionStats(requested=repetitions,
                                                     lost=lost)
        return times_list, samples_list
