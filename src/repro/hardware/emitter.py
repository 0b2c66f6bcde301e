"""Ground-truth EM emission synthesis from a microarchitectural trace.

Superposes every unit's radiation: per cycle ``n`` each unit ``u``
contributes ``beta_u * g * a_u[n] * k_u(t - n)`` where ``a_u[n]`` combines
the unit's class-dependent static activity with its flip-weighted latch
transitions, ``k_u`` is the unit's own damped-sine kernel (own phase/shape),
``beta_u`` the probe coupling and ``g`` the device instance gain.

This is the finest-grained model in the package — the "physics" that both
the real measurements in the paper and EMSim's reduced per-stage model sit
on top of.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..robustness.errors import ConfigurationError
from ..signal.acquisition import SampleGrid
from ..signal.kernels import DampedSineKernel
from ..uarch.latches import STAGES
from ..uarch.trace import EM_CLASSES, ActivityTrace
from .probe import CENTER, ProbePosition, coupling
from .units import EmUnit

#: Identifies the numerics of :meth:`HardwareEmitter.continuous_fast`.
#: Campaign checkpoint keys are salted with it, so probes journaled by an
#: evaluator whose floating-point results differed are recaptured rather
#: than replayed; change it whenever those results change.
EVALUATOR_TAG = "closed-form-repetition"


class HardwareEmitter:
    """Synthesizes the analog emission of one device for one trace.

    Every unit must radiate through a
    :class:`~repro.signal.kernels.DampedSineKernel` (the closed-form
    evaluator of :meth:`continuous_fast` relies on it); any other kernel
    raises :class:`~repro.robustness.errors.ConfigurationError` here.
    """

    def __init__(self, units: Sequence[EmUnit],
                 probe: ProbePosition = CENTER,
                 gain: float = 1.0,
                 clock_scale: float = 1.0):
        for unit in units:
            if not isinstance(unit.kernel, DampedSineKernel):
                raise ConfigurationError(
                    f"unit {unit.name!r} radiates through a "
                    f"{type(unit.kernel).__name__}; the emitter models "
                    f"every source as a damped sine")
        self.units = tuple(units)
        self.probe = probe
        self.gain = gain
        self.clock_scale = clock_scale
        self._couplings = np.array([coupling(unit, probe) * unit.polarity
                                    for unit in self.units])
        # static activity depends on a cycle only through its EM class:
        # one row per unit over EM_CLASSES, indexed by trace.em_codes
        self._static = np.array([[unit.static_activity(em_class)
                                  for em_class in EM_CLASSES]
                                 for unit in self.units], dtype=float)

    # ------------------------------------------------------------------
    # per-cycle unit amplitudes
    # ------------------------------------------------------------------
    def unit_amplitudes(self, trace: ActivityTrace) -> np.ndarray:
        """(cycles, units) matrix of raw per-unit activity amplitudes."""
        cycles = trace.num_cycles
        transitions = {stage: trace.transition_matrix(stage)
                       for stage in STAGES}
        codes = {stage: trace.em_codes(stage) for stage in STAGES}
        amplitudes = np.zeros((cycles, len(self.units)))
        for column, unit in enumerate(self.units):
            static = self._static[column][codes[unit.stage]]
            flips = transitions[unit.stage][:, unit.bit_indices] @ \
                unit.bit_weights
            amplitudes[:, column] = static + flips
        return amplitudes

    # ------------------------------------------------------------------
    # waveform synthesis
    # ------------------------------------------------------------------
    def signal_on_grid(self, trace: ActivityTrace,
                       samples_per_cycle: int,
                       unit_names: Optional[Sequence[str]] = None
                       ) -> np.ndarray:
        """Noiseless emission on the uniform per-cycle sample grid.

        ``unit_names`` restricts synthesis to a subset of sources (used by
        diagnostics that look at one stage in isolation).
        """
        amplitudes = self.unit_amplitudes(trace)
        total = np.zeros(trace.num_cycles * samples_per_cycle)
        for column, unit in enumerate(self.units):
            if unit_names is not None and unit.name not in unit_names:
                continue
            impulses = np.zeros_like(total)
            impulses[::samples_per_cycle] = amplitudes[:, column]
            response = unit.kernel.sampled(samples_per_cycle)
            scaled = self.gain * self._couplings[column]
            # repro: allow[P602] the measured-hardware emitter stays on
            # the seed's direct summation so captured references are
            # bit-stable against the committed model artifacts
            total += scaled * np.convolve(impulses, response)[:len(total)]
        return total

    def per_unit_signals(self, trace: ActivityTrace,
                         samples_per_cycle: int) -> Dict[str, np.ndarray]:
        """Each unit's individual contribution on the uniform grid."""
        return {unit.name: self.signal_on_grid(trace, samples_per_cycle,
                                               unit_names=(unit.name,))
                for unit in self.units}

    def stage_signal_on_grid(self, trace: ActivityTrace, stage: str,
                             samples_per_cycle: int) -> np.ndarray:
        """Combined contribution of all sources in one pipeline stage."""
        names = tuple(unit.name for unit in self.units
                      if unit.stage == stage)
        return self.signal_on_grid(trace, samples_per_cycle,
                                   unit_names=names)

    def continuous(self, trace: ActivityTrace):
        """Return ``y(t)`` in *nominal*-clock cycle units.

        The device's actual clock may be slightly off nominal
        (``clock_scale``); events land at ``n * clock_scale`` and kernels
        stretch accordingly, exactly what a scope with an absolute time
        base sees.
        """
        amplitudes = self.unit_amplitudes(trace)
        couplings = self.gain * self._couplings
        units = self.units
        num_cycles = trace.num_cycles
        scale = self.clock_scale

        def evaluate(times: np.ndarray) -> np.ndarray:
            times = np.asarray(times, dtype=float) / scale
            result = np.zeros_like(times)
            base_cycle = np.floor(times).astype(int)
            for column, unit in enumerate(units):
                support = int(np.ceil(unit.kernel.support_cycles))
                for lag in range(support + 1):
                    cycle = base_cycle - lag
                    valid = (cycle >= 0) & (cycle < num_cycles)
                    if not valid.any():
                        continue
                    tau = times[valid] - cycle[valid]
                    result[valid] += couplings[column] * \
                        amplitudes[cycle[valid], column] * \
                        unit.kernel.evaluate(tau)
            return result

        return evaluate

    def continuous_fast(self, trace: ActivityTrace):
        """Closed-form ``y(t)`` for repetition-structured sample grids.

        Same math as :meth:`continuous`.  Every unit is a damped sine,
        so its contribution at ``t`` (base cycle ``b = floor(t)``,
        fraction ``f``) is ``Im[A[b, u] * exp(s_u * f)]`` with
        ``s_u = 2*pi*i / t0_u - theta_u``, where the per-cycle complex
        table ``A`` already holds the sum over the kernel's lags and the
        unit's probe phase.

        Given a :class:`~repro.signal.acquisition.SampleGrid` — repetition
        ``r`` sampled at ``offsets[r] + k * step`` — the exponential
        splits into a per-``(k, unit)`` table on the shared grid
        ``k * step`` (at its base cycle and at the next one), a
        per-``(repetition, unit)`` scalar ``exp(s_u * offsets[r])``, and a
        per-sample integer carry taken from ``floor`` of the actual
        sample time.  Each further repetition then costs multiply-adds
        only: no transcendental per sample, and every factor stays
        bounded for offsets of a few cycles.  A plain time array is
        evaluated as one repetition at offset 0 on its own grid.

        The result is mathematically identical to :meth:`continuous` but
        not bit-identical (different operation order; agreement is
        ~1e-12, far inside the batch engine's 1e-9 contract).
        """
        amplitudes = self.unit_amplitudes(trace)
        weighted = amplitudes * (self.gain * self._couplings)[None, :]
        num_cycles = trace.num_cycles
        scale = self.clock_scale
        kernels = [unit.kernel for unit in self.units]
        supports = np.array([int(np.ceil(kernel.support_cycles))
                             for kernel in kernels])
        max_lag = int(supports.max())
        rates = np.array([2j * np.pi / kernel.t0 - kernel.theta
                          for kernel in kernels])
        phases = np.exp(1j * np.array([kernel.phase for kernel in kernels]))
        # per-cycle table over base cycles b = -1 .. num_cycles + max_lag;
        # the guard rows at both ends are zero and absorb clipped indices
        lags = np.arange(max_lag + 1)
        lag_weights = np.where(lags[:, None] <= supports[None, :],
                               phases[None, :] *
                               np.exp(np.outer(lags, rates)), 0.0)
        rows = num_cycles + max_lag + 2
        cycle_table = np.zeros((len(kernels), rows), dtype=complex)
        for lag in lags:
            cycle_table[:, 1 + lag:1 + lag + num_cycles] += \
                weighted.T * lag_weights[lag][:, None]

        def evaluate(times: np.ndarray) -> np.ndarray:
            if isinstance(times, SampleGrid) and times.offsets is not None:
                data = np.asarray(times)
                base = np.arange(times.count) * times.step
                offsets = times.offsets
            else:
                data = base = np.asarray(times, dtype=float)
                offsets = np.zeros(1)
            grid = base / scale
            grid_cycle = np.floor(grid)
            grid_phase = np.exp(np.outer(rates, grid - grid_cycle))
            carry = np.divide(data.reshape(len(offsets), len(base)), scale)
            np.floor(carry, out=carry)
            carry -= grid_cycle
            base_row = grid_cycle.astype(int) + 1    # past the guard row
            # Im(P * E) = P.re * E.im + P.im * E.re, contracted over
            # units; the (2 * units, n) layouts keep einsum's inner loop
            # contiguous
            per_rep = np.exp(np.outer(rates, offsets / scale))
            per_rep = np.concatenate([per_rep.imag, per_rep.real])
            # one contraction per distinct carry (0 and 1 for sub-cycle
            # offsets); each sample keeps the one matching its own carry
            low, high = int(carry.min()), int(carry.max())
            values = np.empty(carry.shape)
            for value in range(low, high + 1):
                shifted = cycle_table * np.exp(-value * rates)[:, None]
                shared = shifted[:, np.clip(base_row + value, 0,
                                            rows - 1)] * grid_phase
                contracted = np.einsum(
                    "uk,ur->rk", np.concatenate([shared.real, shared.imag]),
                    per_rep, out=values if value == low else None)
                if value > low:
                    np.copyto(values, contracted, where=carry == value)
            return values.reshape(-1)

        return evaluate


def stage_couplings(units: Sequence[EmUnit],
                    probe: ProbePosition) -> Dict[str, float]:
    """Mean |coupling| per pipeline stage at a probe position (diagnostic
    for the distance experiments, Fig. 9)."""
    per_stage: Dict[str, list] = {stage: [] for stage in STAGES}
    for unit in units:
        per_stage[unit.stage].append(abs(coupling(unit, probe)))
    return {stage: float(np.mean(values)) if values else 0.0
            for stage, values in per_stage.items()}
