"""One benchmark process: set a workload up, then time it in a closed loop.

Started by ``run.py`` as a fresh interpreter, so every set-up pays the
imports, device construction and input generation it reports.  After
set-up, one untimed warm-up run pays the lazy first-run costs; then each
timed run starts from cold state (:func:`cold_reset`) on freshly
generated inputs, and the next run starts only when the previous one
returned.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Dict, List, Tuple

import numpy as np

from repro.core.trace_cache import CacheStats, get_trace_cache
from repro.observability import (disable_metrics, disable_tracing,
                                 enable_metrics, enable_tracing,
                                 get_metrics)
from repro.signal.reconstruction import clear_plan_caches

import layers
from workloads import CAMPAIGN_WORKERS, WORKLOADS, Workload

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")

#: Counts a speed-only change must leave identical (checked against the
#: reference on every traced run).
SIM_COUNTS = ("uarch.sim_cycles", "uarch.sim_instructions",
              "uarch.sim_cache_misses", "uarch.sim_mispredictions",
              "uarch.sim_stall_cycles", "core.model.predict.cycles",
              "bench.delivered_cycles")


def cold_reset() -> None:
    """Return the process to the caches of a fresh ``repro`` process.

    Empties the trace cache (and zeroes its statistics), the signal
    plan caches and every ``functools`` cache in a ``repro`` module,
    then collects garbage so the next run starts on a settled heap.
    """
    cache = get_trace_cache()
    cache.clear()
    cache.stats = CacheStats()
    clear_plan_caches()
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()
    gc.collect()


def reference_path(workload: str, seed: int) -> str:
    """File holding the recorded outputs for ``workload`` at ``seed``."""
    return os.path.join(REFERENCE_DIR, f"{workload}-{seed}.npz")


def load_reference(workload: str, seed: int) -> Dict[str, np.ndarray]:
    """The recorded outputs and simulated counts (no pickle)."""
    with np.load(reference_path(workload, seed),
                 allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def traced_run(workload: Workload, inputs: object
               ) -> Tuple[object, float, Dict[str, float]]:
    """One run with every layer wrapped in spans.

    Returns ``(outputs, wall seconds, per-layer metrics)``.  The
    wrappers are installed for this run only, so untraced runs execute
    the unmodified program.
    """
    instrumentation = layers.Instrumentation()
    instrumentation.install()
    get_metrics().reset()
    enable_metrics()
    tracer = enable_tracing()
    try:
        start = time.perf_counter()
        with tracer.span(layers.RUN_SPAN):
            outputs = workload.run(inputs)
        wall = time.perf_counter() - start
    finally:
        disable_tracing()
        disable_metrics()
        instrumentation.remove()
    metrics = layers.account(tracer.spans, os.getpid())
    for layer in layers.LAYERS:
        for name, _, _ in layer.counts:
            if name not in metrics:
                metrics[name] = layers.counter(name)
    metrics["bench.delivered_cycles"] = layers.counter(
        "bench.delivered_cycles")
    hits = layers.program_counters("trace_cache.", ".hits")
    misses = layers.program_counters("trace_cache.", ".misses")
    metrics["core.trace_cache.hits"] = hits
    metrics["core.trace_cache.misses"] = misses
    metrics["core.trace_cache.hit_ratio"] = _ratio(hits, misses)
    for kind in ("deconv", "synth"):
        metrics[f"signal.{kind}.plan_hit_ratio"] = _ratio(
            layers.program_counters(f"signal.{kind}.cache.", "hits"),
            layers.program_counters(f"signal.{kind}.cache.", "misses"))
    metrics["ipc.shm_arrays"] = layers.program_counters(
        "ipc.shm.exported", "")
    tracer.reset()
    get_metrics().reset()
    return outputs, wall, metrics


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def sim_mismatches(metrics: Dict[str, float],
                   reference: Dict[str, np.ndarray]) -> List[str]:
    """Simulated statistics that differ from the recorded ones."""
    messages = []
    for name in SIM_COUNTS:
        expected = int(reference[f"sim/{name}"])
        if int(metrics[name]) != expected:
            messages.append(f"simulated statistic {name} = "
                            f"{int(metrics[name])}, reference {expected}")
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    reference = load_reference(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    messages: List[str] = []
    attempted = failed = 0

    untraced: List[float] = []
    traced: List[Dict[str, float]] = []
    cache_stats: List[Dict[str, int]] = []

    def attempt(inputs: object, trace: bool, timed: bool) -> object:
        """One checked run; its outputs, or ``None`` when it raised."""
        nonlocal attempted, failed
        items = workload.items(inputs)
        attempted += items
        try:
            if trace:
                outputs, wall, metrics = traced_run(workload, inputs)
                metrics["wall_s"] = wall
                traced.append(metrics)
                problems = sim_mismatches(metrics, reference)
            else:
                start = time.perf_counter()
                outputs = workload.run(inputs)
                wall = time.perf_counter() - start
                problems = []
                if timed:
                    untraced.append(wall)
                    cache_stats.append(get_trace_cache().stats.as_dict())
                    if cache_stats[-1] != cache_stats[0]:
                        problems.append(
                            f"run served from a warm cache: trace cache "
                            f"{cache_stats[-1]} != first run "
                            f"{cache_stats[0]}")
        except Exception as error:              # noqa: BLE001 - reported
            # a CampaignError names the quarantined items; anything else
            # loses the whole run
            failed += len(getattr(error, "quarantined", None) or []) \
                or items
            messages.append(traceback.format_exc(limit=4))
            return None
        lost, checks = workload.check(outputs, reference)
        failed += max(lost, int(bool(problems)))
        messages.extend(problems + checks)
        return outputs

    # warm-up: pays lazy first-run set-up (it is checked, not timed)
    cold_reset()
    attempt(workload.inputs(), trace=False, timed=False)

    cold_reset()
    inputs = workload.inputs()
    setup_s = time.monotonic() - args.spawned_at
    began = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        outputs = attempt(inputs, trace=trace_this, timed=True)
        if outputs is None:
            break
        done = time.perf_counter() - began >= args.budget
        if done and (not args.trace or traced):
            break
        cold_reset()
        inputs = workload.inputs()

    accuracy = workload.accuracy(outputs) if outputs is not None \
        else float("nan")
    expected_accuracy = float(reference["accuracy_mean"])
    if not abs(accuracy - expected_accuracy) <= 1e-9:
        messages.append(f"accuracy_mean {accuracy!r} != reference "
                        f"{expected_accuracy!r}")
        failed += 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "untraced_wall_s": untraced,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "accuracy_mean": accuracy,
        "sim_cycles": int(reference["sim/bench.delivered_cycles"]),
        "peak_rss_mb": (own + workers) / 1024.0,
        "workers": CAMPAIGN_WORKERS if args.workload == "campaign" else 1,
        "nproc": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
