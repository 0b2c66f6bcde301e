"""The per-cycle EMSim predictor, retired from ``repro.core.model``.

:func:`predict_cycle_amplitudes_loop` resolves each cycle's behavioural
class in a Python loop (A(c, s) memoized per stage) and walks the
occupancy objects of every stalled cycle when stalls are not modelled.
The Eq. 9 combination and its operation order are the ones
:meth:`repro.core.model.EMSimModel.predict_cycle_amplitudes` keeps, so
the two must agree bit for bit.
"""

from typing import Dict, Optional

import numpy as np

from repro.core.config import ModelSwitches
from repro.core.model import EMSimModel
from repro.uarch.latches import STAGES
from repro.uarch.trace import ActivityTrace


def predict_cycle_amplitudes_loop(
        model: EMSimModel, trace: ActivityTrace,
        switches: Optional[ModelSwitches] = None) -> np.ndarray:
    """Per-cycle predicted amplitudes X[n], one Python step per cycle."""
    switches = switches or model.config.switches
    activity = model._activity_model(switches)
    cycles = trace.num_cycles
    prediction = np.full(cycles, model.intercept)
    for stage in STAGES:
        floor = model.floors.get(stage, 0.0)
        beta = model.beta.get(stage, 1.0)
        scale = model.miso.get(stage, 1.0) * beta
        alphas = activity.alpha(trace, stage)
        amplitudes = np.zeros(cycles)
        stalled = np.zeros(cycles, dtype=bool)
        cache: Dict[str, float] = {}
        occupancy = None
        for cycle, em_class in enumerate(trace.em_classes(stage)):
            if em_class == "stall":
                if switches.model_stalls:
                    stalled[cycle] = True
                    continue
                # ablation: pretend the stalled instruction kept
                # switching at full activity
                if occupancy is None:
                    occupancy = trace.occupancy[stage]
                occ = occupancy[cycle]
                em_class = (occ.instr.cls.value if occ.instr is not None
                            else "nop")
                if occ.instr is not None and occ.instr.is_load:
                    em_class = "load_cache" if occ.dyn == "hit" \
                        else "load_mem"
            if em_class == "nop":
                continue
            value = cache.get(em_class)
            if value is None:
                value = model.amplitude(em_class, stage, switches)
                cache[em_class] = value
            amplitudes[cycle] = value
        contribution = (floor * beta) + (scale * alphas) * amplitudes
        if stalled.any():
            contribution[stalled] = 0.0
        prediction += contribution
    return prediction
