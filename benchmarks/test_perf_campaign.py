"""Perf: batched/parallel measurement campaign vs the sequential engine.

The acceptance claim for the batch layer (docs/architecture.md): a
256-program training-style campaign through ``measurement_campaign``
runs at least 3x faster with ``workers=8`` than with ``workers=1``,
while agreeing to within the 1e-9 numerical contract.  On machines with
fewer than 8 CPUs the pool shrinks to the CPU count and the speedup
comes from the batched engine itself (vectorized repetition folding, the
emitter's closed-form repetition evaluator, and the cached multi-RHS
deconvolver).

Emits the machine-readable ``benchmarks/results/BENCH_sim.json`` report
(schema ``repro-bench/1``) so the perf trajectory is tracked across PRs.
"""

import time

import numpy as np
import pytest

from conftest import run_once, write_bench_report
from repro.core import measurement_campaign
from repro.hardware import HardwareDevice
from repro.profiling import disable_profiling, enable_profiling
from repro.workloads import RandomProgramBuilder

PROGRAMS = 256
PROGRAM_LENGTH = 32
REPETITIONS = 50
WORKERS = 8
SPEEDUP_FLOOR = 3.0
CONTRACT = 1e-9


def _campaign(workers):
    device = HardwareDevice(seed=3)
    builder = RandomProgramBuilder(seed=0)
    programs = [builder.program(PROGRAM_LENGTH, name=f"bench_{i:04d}")
                for i in range(PROGRAMS)]
    start = time.perf_counter()
    probes = measurement_campaign(device, programs,
                                  repetitions=REPETITIONS,
                                  workers=workers, seed=0)
    return probes, time.perf_counter() - start


@pytest.mark.benchmark(group="perf")
def test_campaign_speedup(benchmark, record):
    def experiment():
        profiler = enable_profiling()
        profiler.reset()
        try:
            sequential, sequential_seconds = _campaign(1)
            batched, batched_seconds = _campaign(WORKERS)
        finally:
            disable_profiling()
        speedup = sequential_seconds / batched_seconds
        max_diff = max(
            max(float(np.abs(a.signal - b.signal).max()),
                float(np.abs(a.amplitudes - b.amplitudes).max()))
            for a, b in zip(sequential, batched))
        document = write_bench_report(
            "sim",
            metadata={
                "benchmark": "measurement_campaign",
                "programs": PROGRAMS,
                "program_length": PROGRAM_LENGTH,
                "repetitions": REPETITIONS,
                "workers_sequential": 1,
                "workers_batched": WORKERS,
                "sequential_seconds": sequential_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
                "max_abs_diff": max_diff,
            }, profiler=profiler)
        return document

    document = run_once(benchmark, experiment)
    lines = [f"{PROGRAMS} programs x {PROGRAM_LENGTH} instructions x "
             f"{REPETITIONS} repetitions",
             f"sequential (workers=1): "
             f"{document['sequential_seconds']:7.2f} s",
             f"batched  (workers={WORKERS}): "
             f"{document['batched_seconds']:7.2f} s",
             f"speedup: {document['speedup']:5.2f}x  "
             f"(floor {SPEEDUP_FLOOR:.1f}x)",
             f"max abs diff: {document['max_abs_diff']:.3e}  "
             f"(contract {CONTRACT:.0e})"]
    record("perf_campaign", "\n".join(lines))
    assert document["max_abs_diff"] <= CONTRACT
    assert document["speedup"] >= SPEEDUP_FLOOR
