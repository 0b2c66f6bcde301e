"""Activity-factor models: how data-dependent bit-flips scale amplitudes.

Three variants, matching the paper's comparison (Fig. 3):

* :class:`UnitActivity` — ``alpha == 1``: no data dependence at all;
* :class:`AverageActivity` — Eq. 7: every bit-flip contributes equally;
* :class:`RegressionActivity` — Eq. 8: per-stage linear regression over
  transition bits with step-wise-selected features (EMSim proper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..uarch.latches import STAGES
from ..uarch.trace import ActivityTrace
from .activity import average_alpha, stage_design_columns
from .regression import LinearModel

ALPHA_MIN = 0.0
ALPHA_MAX = 4.0


def _clip(alpha: np.ndarray) -> np.ndarray:
    return np.clip(alpha, ALPHA_MIN, ALPHA_MAX)


class ActivityFactorModel:
    """Interface: per-cycle activity factor for each stage of a trace."""

    def alpha(self, trace: ActivityTrace, stage: str) -> np.ndarray:
        """(cycles,) activity factors for ``stage``."""
        raise NotImplementedError


@dataclass
class UnitActivity(ActivityFactorModel):
    """``alpha == 1``: ignores operand values entirely."""

    def alpha(self, trace: ActivityTrace, stage: str) -> np.ndarray:
        """All-ones factors: every cycle at nominal activity."""
        return np.ones(trace.num_cycles)


@dataclass
class AverageActivity(ActivityFactorModel):
    """Eq. 7 flip-count averaging: all bit-flips weighted equally.

    ``base_flips`` holds the per-stage flip count observed in the
    zero-operand baseline probes (``flips_base`` in Eq. 7).
    """

    base_flips: Dict[str, float] = field(default_factory=dict)

    def alpha(self, trace: ActivityTrace, stage: str) -> np.ndarray:
        """Eq. 7 factors from the stage's raw per-cycle flip counts."""
        flips = trace.flip_counts(stage)
        return _clip(average_alpha(flips, self.base_flips.get(stage, 0.0),
                                   stage))


@dataclass
class RegressionActivity(ActivityFactorModel):
    """Eq. 8 linear-regression activity factors (EMSim's model).

    One :class:`LinearModel` per pipeline stage, fit on step-wise-selected
    features of that stage's transition design (per-register flip counts
    followed by raw transition bits, see
    :func:`repro.core.activity.stage_design_matrix`).
    """

    models: Dict[str, LinearModel] = field(default_factory=dict)

    def alpha(self, trace: ActivityTrace, stage: str) -> np.ndarray:
        """Eq. 8 factors from the stage's fitted transition-bit model
        (falls back to all-ones for stages without a fit).

        Only the model's selected features of the stage design are
        built (:func:`~repro.core.activity.stage_design_columns`), in
        the Fortran layout of ``design[:, features]``, so the factors
        equal ``model.predict`` on the full
        :func:`~repro.core.activity.stage_design_matrix` bit for bit.
        """
        model = self.models.get(stage)
        if model is None:
            return np.ones(trace.num_cycles)
        return _clip(model.predict_selected(
            stage_design_columns(trace, stage, model.features)))

    def selected_fraction(self) -> float:
        """Fraction of transition features kept across all stages.

        The paper reports the step-wise selection removed more than 65 %
        of the transition bits; this is the complementary keep rate.
        """
        from ..uarch.latches import STAGE_REGISTERS, stage_bit_count
        kept = sum(model.features.size for model in self.models.values())
        total = sum(stage_bit_count(stage) + len(STAGE_REGISTERS[stage])
                    for stage in STAGES if stage in self.models)
        return kept / total if total else 0.0
