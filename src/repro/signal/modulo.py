"""The "modulo operation" reference-signal extraction (paper §II-B, Eq. 1).

A sequence executing in ``noc`` clock cycles is captured many times; each
raw sample at absolute time ``T_m`` is mapped to its *modular offset*
``delta_m = mod(T_m, T_s)`` with ``T_s = noc * T_clk``, and samples sharing
an offset bin are averaged.  This removes additive noise, trigger
misalignment and under-sampling artifacts, producing the clean per-cycle
reference waveform that model training runs on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def modular_offsets(sample_times: np.ndarray,
                    period: float) -> np.ndarray:
    """Eq. 1: ``delta_m = mod(T_m, T_s)`` for each sampling time."""
    return np.mod(np.asarray(sample_times, dtype=float), period)


def offset_bins(sample_times: np.ndarray, period: float,
                num_bins: int) -> np.ndarray:
    """Offset-bin index of every sampling time (any shape).

    Nearest-bin assignment keeps each bin's average centered on its grid
    point (floor would introduce a half-bin phase lag).  Elementwise, so
    the bins of a stacked capture equal its rows' bins computed apart.
    """
    offsets = modular_offsets(sample_times, period)
    return np.round(offsets / period * num_bins).astype(int) % num_bins


def modulo_average(samples: np.ndarray, sample_times: np.ndarray,
                   period: float, num_bins: int,
                   bins: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold samples onto one period and average per offset bin.

    Returns ``(reference, counts)``: the averaged waveform on a uniform
    ``num_bins`` grid over one period, and how many raw samples landed in
    each bin.  Bins that received no samples are filled by linear
    interpolation from their neighbours.  ``bins`` passes the samples'
    :func:`offset_bins` when the caller already has them; the result is
    the same bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    if bins is None:
        bins = offset_bins(sample_times, period, num_bins)
    bins = np.ravel(bins)

    sums = np.bincount(bins, weights=samples, minlength=num_bins)
    counts = np.bincount(bins, minlength=num_bins)
    reference = np.zeros(num_bins)
    filled = counts > 0
    reference[filled] = sums[filled] / counts[filled]
    if not filled.all():
        if not filled.any():
            # imported here, not at module top: robustness.health
            # imports this module, so a top-level errors import would
            # be a hard import cycle.
            from ..robustness.errors import AcquisitionError
            raise AcquisitionError("no samples fell into any bin")
        grid = np.arange(num_bins)
        reference[~filled] = np.interp(grid[~filled], grid[filled],
                                       reference[filled], period=num_bins)
    return reference, counts


def fold_repetitions(samples: np.ndarray, sample_times: np.ndarray,
                     clock_period: float, num_cycles: int,
                     samples_per_cycle: int) -> np.ndarray:
    """Convenience wrapper: reference waveform for a ``num_cycles``-long
    sequence on the standard ``samples_per_cycle`` grid."""
    period = num_cycles * clock_period
    reference, _ = modulo_average(samples, sample_times, period,
                                  num_cycles * samples_per_cycle)
    return reference
