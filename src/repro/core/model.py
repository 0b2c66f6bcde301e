"""The trained EMSim model: amplitudes, floors, MISO coefficients.

Prediction (Eq. 9 of the paper, with explicit event handling from §IV):

    X[n] = delta + sum_s  contribution(s, n)

    contribution = 0                              stage stalled
                 = F_s                            stage flows a NOP/bubble
                 = F_s + M_s * alpha_s[n] * A(c, s)   stage runs class c

``A(c, s)`` is the *baseline hardware amplitude* of behavioural class ``c``
in stage ``s``, measured as the deviation from the all-NOP signal;
``alpha`` the activity factor; ``F_s`` the per-stage NOP floor and ``M_s``
the fitted MISO combination coefficient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..uarch.latches import STAGES
from ..uarch.trace import DYN_FINAL, DYN_HIT, EM_CLASSES, ActivityTrace
from .config import EMSimConfig, ModelSwitches
from .factors import (ActivityFactorModel, AverageActivity,
                      RegressionActivity, UnitActivity)


@dataclass
class EMSimModel:
    """All trained parameters of one EMSim instance."""

    config: EMSimConfig
    amplitudes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    floors: Dict[str, float] = field(default_factory=dict)
    miso: Dict[str, float] = field(default_factory=dict)
    intercept: float = 0.0
    regression_activity: RegressionActivity = \
        field(default_factory=RegressionActivity)
    average_activity: AverageActivity = field(default_factory=AverageActivity)
    # per-stage beta scaling for off-base probe positions (paper §V-D);
    # 1.0 everywhere at the training position
    beta: Dict[str, float] = field(default_factory=dict)
    nop_level: float = 0.0
    trained_on: str = ""

    # ------------------------------------------------------------------
    # parameter lookup
    # ------------------------------------------------------------------
    def amplitude(self, em_class: str, stage: str,
                  switches: Optional[ModelSwitches] = None) -> float:
        """Baseline amplitude A(c, s) with ablation-aware fallbacks."""
        switches = switches or self.config.switches
        if not switches.model_cache and em_class == "load_mem":
            em_class = "load_cache"
        if not switches.per_stage_sources:
            values = [value for (cls, _), value in self.amplitudes.items()
                      if cls == em_class]
            return float(np.mean(values)) if values else 0.0
        key = (em_class, stage)
        if key in self.amplitudes:
            return self.amplitudes[key]
        # dynamic load variants share early-stage behaviour with "load"
        if em_class in ("load_cache", "load_mem") and \
                ("load", stage) in self.amplitudes:
            return self.amplitudes[("load", stage)]
        return 0.0

    def _activity_model(self,
                        switches: ModelSwitches) -> ActivityFactorModel:
        if not switches.data_dependence:
            return UnitActivity()
        if switches.regression_alpha:
            return self.regression_activity
        return self.average_activity

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_cycle_amplitudes(
            self, trace: ActivityTrace,
            switches: Optional[ModelSwitches] = None) -> np.ndarray:
        """Per-cycle predicted signal amplitudes X[n] for a trace.

        Fully vectorized: per stage, a table of A(c, s) over
        :data:`~repro.uarch.trace.EM_CLASSES` (zero for ``nop`` and
        ``stall``) indexed by ``trace.em_codes(stage)`` gives every
        cycle's amplitude, and Eq. 9 runs as one numpy expression.  A
        NOP cycle's zero amplitude contributes ``base + x * 0.0``, which
        equals ``base`` exactly for finite operands, and stalled cycles
        are masked to an exact ``0.0`` afterwards.  With
        ``model_stalls`` off (the Fig. 5 ablation) a stalled cycle is
        charged instead the class its instruction would show at full
        activity, looked up per instruction and dynamic tag.  The output
        is bit-identical to the per-cycle reference loop the tests keep.
        """
        switches = switches or self.config.switches
        activity = self._activity_model(switches)
        prediction = np.full(trace.num_cycles, self.intercept)
        if not switches.model_stalls:
            stalled_lookup = _stalled_lookup(trace)
        for stage in STAGES:
            floor = self.floors.get(stage, 0.0)
            beta = self.beta.get(stage, 1.0)
            scale = self.miso.get(stage, 1.0) * beta
            alphas = activity.alpha(trace, stage)
            table = np.zeros(len(EM_CLASSES))
            for code, em_class in enumerate(EM_CLASSES):
                if code != _EM_NOP and code != _EM_STALL:
                    table[code] = self.amplitude(em_class, stage, switches)
            codes = trace.em_codes(stage)
            stalled = codes == _EM_STALL
            if not switches.model_stalls:
                instr, dyn = trace.instruction_codes(stage)
                codes = np.where(stalled, stalled_lookup[instr + 1, dyn],
                                 codes)
            contribution = (floor * beta) + (scale * alphas) * table[codes]
            if switches.model_stalls and stalled.any():
                contribution[stalled] = 0.0
            prediction += contribution
        return prediction

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def amplitude_table(self) -> str:
        """Formatted A(c, s) table (classes x stages)."""
        classes = sorted({cls for cls, _ in self.amplitudes})
        header = "class      " + "".join(f"{stage:>9s}" for stage in STAGES)
        lines = [header]
        for cls in classes:
            row = f"{cls:<11s}"
            for stage in STAGES:
                value = self.amplitudes.get((cls, stage))
                row += f"{value:9.3f}" if value is not None else \
                    "        -"
            lines.append(row)
        return "\n".join(lines)

    def summary(self) -> str:
        """One-paragraph description of the trained model."""
        kept = self.regression_activity.selected_fraction()
        return (f"EMSimModel(trained_on={self.trained_on!r}, "
                f"classes={len({c for c, _ in self.amplitudes})}, "
                f"nop_level={self.nop_level:.3f}, "
                f"alpha_bits_kept={kept:.1%}, "
                f"miso={{{', '.join(f'{s}: {v:.2f}' for s, v in sorted(self.miso.items()))}}})")


_EM_INDEX: Dict[str, int] = {name: code
                             for code, name in enumerate(EM_CLASSES)}
_EM_NOP = _EM_INDEX["nop"]
_EM_STALL = _EM_INDEX["stall"]
_DYN_COUNT = DYN_FINAL + 1   # DYN_* codes run 0..DYN_FINAL


@functools.lru_cache(maxsize=4096)
def _stalled_row(instr: Instruction) -> Tuple[int, ...]:
    """EM-class codes a stalled ``instr`` is charged when stalls are not
    modelled, one per ``DYN_*`` code: its static class at full activity,
    with a load split by cache outcome (``hit`` or not)."""
    if instr.is_load:
        return tuple(_EM_INDEX["load_cache" if dyn == DYN_HIT
                               else "load_mem"]
                     for dyn in range(_DYN_COUNT))
    return (_EM_INDEX[instr.cls.value],) * _DYN_COUNT


def _stalled_lookup(trace: ActivityTrace) -> np.ndarray:
    """(instruction codes + 1, dyn codes) table of :func:`_stalled_row`;
    row 0, a stall with no instruction, is charged as a NOP."""
    rows = [(_EM_NOP,) * _DYN_COUNT]
    rows.extend(_stalled_row(instr) for instr in trace.instruction_table)
    return np.array(rows, dtype=np.intp)
