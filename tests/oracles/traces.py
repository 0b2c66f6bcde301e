"""Bit-identity assertion between two recorded activity traces.

Retired from ``repro.core.tracebench`` with the ``repro bench --mode
trace`` harness; the property tests and ``benchmarks/test_perf_trace.py``
compare every recording engine against its oracle through it.
"""

from typing import Any

import numpy as np

from repro.uarch.latches import STAGES


def assert_traces_identical(legacy: Any, columnar: Any) -> None:
    """Assert the columnar trace is bit-identical to the legacy oracle."""
    assert legacy.num_cycles == columnar.num_cycles
    for stage in STAGES:
        assert np.array_equal(legacy.values_matrix(stage),
                              np.asarray(columnar.values_matrix(stage)))
        assert np.array_equal(legacy.transition_matrix(stage),
                              columnar.transition_matrix(stage))
        assert legacy.stage_kinds(stage) == columnar.stage_kinds(stage)
        assert legacy.em_classes(stage) == columnar.em_classes(stage)
        assert list(legacy.occupancy[stage]) == \
            list(columnar.occupancy[stage])
    assert np.array_equal(legacy.total_flip_counts(),
                          columnar.total_flip_counts())
    assert legacy.stalls == columnar.stalls
    assert legacy.cache_events == columnar.cache_events
    assert legacy.branch_events == columnar.branch_events
    assert legacy.flushes == columnar.flushes
    assert [(entry.seq, entry.pc, entry.instr, entry.cycle)
            for entry in legacy.retired] == \
        [(entry.seq, entry.pc, entry.instr, entry.cycle)
         for entry in columnar.retired]
