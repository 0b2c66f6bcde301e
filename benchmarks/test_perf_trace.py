"""Perf: the columnar activity-trace engine vs the legacy recording path.

The acceptance claims for the trace engine (docs/architecture.md):

* cold single-thread simulation records at least **2x** faster with the
  columnar trace than with the seed's object-graph path (kept as
  ``LegacyActivityTrace``, the bit-identity oracle),
* a serialized trace in the ``repro-trace/1`` codec is at least **3x**
  smaller than the legacy trace's pickle,
* a disk-cache hit deserializes at least **2x** faster through
  ``decode_trace`` than through ``pickle.loads``.

The in-order baseline arm is the retired step-per-method core of
``tests/oracles/pipeline.py`` recording through its ``legacy_trace``
branch; the out-of-order core still ships its own.  Bit-identity between
the two recording paths on both cores and codec round-trip
byte-stability are asserted before any ratio is reported, so the
speedups cannot come from computing something different.  Emits the
machine-readable ``benchmarks/results/BENCH_trace.json`` report (schema
``repro-bench/1``).  ``REPRO_BENCH_QUICK=1`` lowers the repetition
count so the bench fits the tier-1 time budget (``make bench-quick``)
and writes ``BENCH_trace.quick.json`` instead, keeping the committed
full-size artifact intact.
"""

import os
import pickle
import sys
from typing import Any, Dict

import pytest

from conftest import bench_quick, run_once, write_bench_report
from repro.core.signalbench import _paired_best
from repro.profiling import disable_profiling, enable_profiling
from repro.uarch import (STAGES, decode_trace, encode_trace, run_program,
                         run_program_ooo)
from repro.workloads import ALL_KERNELS

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.oracles import pipeline as oracle_pipeline  # noqa: E402
from tests.oracles.traces import assert_traces_identical  # noqa: E402

QUICK = bench_quick()
REPS = 3 if QUICK else 9
SIMULATE_FLOOR = 2.0
SIZE_FLOOR = 3.0
DECODE_FLOOR = 2.0


def run_trace_bench(kernel: str = "crc32",
                    reps: int = 9) -> Dict[str, Any]:
    """Run the trace-engine benchmark and return its metrics document.

    ``kernel`` names a :data:`repro.workloads.ALL_KERNELS` workload;
    ``reps`` is the best-of repetition count for every timed section.
    """
    program = ALL_KERNELS[kernel]()

    def run_legacy():
        return oracle_pipeline.run_program(program, legacy_trace=True)

    # -- correctness gates: identity on both cores, byte-stable codec --
    legacy_trace, _ = run_legacy()
    columnar_trace, _ = run_program(program)
    assert_traces_identical(legacy_trace, columnar_trace)
    legacy_ooo, _ = run_program_ooo(program, legacy_trace=True)
    columnar_ooo, _ = run_program_ooo(program)
    assert_traces_identical(legacy_ooo, columnar_ooo)

    payload = encode_trace(columnar_trace)
    decoded = decode_trace(payload)
    assert encode_trace(decoded) == payload
    assert_traces_identical(legacy_trace, decoded)

    # -- cold simulate: full run_program including trace recording -----
    legacy_seconds, columnar_seconds = _paired_best(
        run_legacy, lambda: run_program(program), reps)
    ooo_legacy_seconds, ooo_columnar_seconds = _paired_best(
        lambda: run_program_ooo(program, legacy_trace=True),
        lambda: run_program_ooo(program), reps)

    # -- serialized size: codec bytes vs the legacy trace's pickle -----
    legacy_pickle = pickle.dumps(legacy_trace,
                                 protocol=pickle.HIGHEST_PROTOCOL)
    encoded_bytes = len(payload)
    pickled_bytes = len(legacy_pickle)

    # -- disk-cache hit latency: deserialization of a cached trace ----
    unpickle_seconds, decode_seconds = _paired_best(
        lambda: pickle.loads(legacy_pickle),
        lambda: decode_trace(payload), reps)

    # -- derived views: vectorized vs per-register transition build ----
    def derive(trace):
        trace._transition_cache.clear()
        for stage in STAGES:
            trace.transition_matrix(stage)

    derive_legacy_seconds, derive_columnar_seconds = _paired_best(
        lambda: derive(legacy_trace),
        lambda: derive(columnar_trace), reps)

    return {
        "benchmark": "trace_engine",
        "kernel": kernel,
        "reps": reps,
        "cycles": columnar_trace.num_cycles,
        "cycles_ooo": columnar_ooo.num_cycles,
        "legacy_simulate_seconds": legacy_seconds,
        "columnar_simulate_seconds": columnar_seconds,
        "simulate_speedup": legacy_seconds / columnar_seconds,
        "legacy_simulate_seconds_ooo": ooo_legacy_seconds,
        "columnar_simulate_seconds_ooo": ooo_columnar_seconds,
        "simulate_speedup_ooo": ooo_legacy_seconds / ooo_columnar_seconds,
        "encoded_bytes": encoded_bytes,
        "legacy_pickle_bytes": pickled_bytes,
        "size_ratio": pickled_bytes / encoded_bytes,
        "decode_seconds": decode_seconds,
        "unpickle_seconds": unpickle_seconds,
        "decode_speedup": unpickle_seconds / decode_seconds,
        "derive_legacy_seconds": derive_legacy_seconds,
        "derive_columnar_seconds": derive_columnar_seconds,
        "derive_speedup": derive_legacy_seconds / derive_columnar_seconds,
        "bit_identical": True,
    }


@pytest.mark.benchmark(group="perf")
def test_trace_engine_speedup(benchmark, record):
    def experiment():
        profiler = enable_profiling()
        profiler.reset()
        try:
            metrics = run_trace_bench(kernel="crc32", reps=REPS)
        finally:
            disable_profiling()
        return write_bench_report("trace", metadata=metrics,
                                  profiler=profiler)

    document = run_once(benchmark, experiment)
    lines = [f"trace engine on 'crc32', best of {REPS} reps"
             + (" (quick mode)" if QUICK else ""),
             f"cold simulate (in-order): legacy "
             f"{document['legacy_simulate_seconds'] * 1e3:7.1f} ms, "
             f"columnar "
             f"{document['columnar_simulate_seconds'] * 1e3:7.1f} ms "
             f"({document['simulate_speedup']:.2f}x, floor "
             f"{SIMULATE_FLOOR:.1f}x)",
             f"cold simulate (OoO): "
             f"{document['simulate_speedup_ooo']:.2f}x",
             f"serialized trace: pickle "
             f"{document['legacy_pickle_bytes']} B, codec "
             f"{document['encoded_bytes']} B "
             f"({document['size_ratio']:.1f}x, floor {SIZE_FLOOR:.1f}x)",
             f"cache-hit deserialize: unpickle "
             f"{document['unpickle_seconds'] * 1e3:6.2f} ms, decode "
             f"{document['decode_seconds'] * 1e3:6.2f} ms "
             f"({document['decode_speedup']:.2f}x, floor "
             f"{DECODE_FLOOR:.1f}x)",
             f"derived views rebuild: "
             f"{document['derive_speedup']:.2f}x",
             f"bit-identical: {document['bit_identical']}"]
    record("perf_trace", "\n".join(lines))
    assert document["bit_identical"]
    assert document["simulate_speedup"] >= SIMULATE_FLOOR
    assert document["size_ratio"] >= SIZE_FLOOR
    assert document["decode_speedup"] >= DECODE_FLOOR
