"""Layer spans installed from outside the program, and their accounting.

Every layer's public entry points are wrapped in spans on the
program's own tracer (:mod:`repro.observability`); nothing under
``src/`` changes.  Wrappers replace every reference to an entry point
in the loaded ``repro`` modules (or the method on its class), so they
must be installed after the workload has imported everything it uses
and before any worker pool forks: forked workers inherit them, and
their spans and counters come back through the tracer's spool/merge.

A layer's self time is its spans' time minus the time their child
layer spans cover.  For ``parallel`` the children are the worker item
spans, whose union is subtracted.  Spans the program records itself
(``train.pipeline``, ``campaign.measurement``, ...) are not layers and
are ignored, so they never hide time from the layer around them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability import get_metrics, get_tracer

RUN_SPAN = "bench.run"
ITEM_SPAN = "parallel.item"
COUNTER_PREFIX = "perfbench."


@dataclass(frozen=True)
class Layer:
    """One layer: its span, timed entry points and counted metrics.

    README.md maps each layer to the end-to-end metric it should move
    and the workloads that exercise or bypass it.
    """

    span: str
    entries: Tuple[str, ...]
    counts: Tuple[Tuple[str, str, str], ...]   # (metric, unit, better)


LAYERS: Tuple[Layer, ...] = (
    Layer("isa.assemble", ("repro.isa.assembler:assemble",),
          (("isa.assemble.calls", "count", "lower"),)),
    Layer("uarch.pipeline", ("repro.uarch.pipeline:Pipeline.run",),
          (("uarch.pipeline.calls", "count", "lower"),
           ("uarch.sim_cycles", "cycles", "lower"),
           ("uarch.sim_instructions", "count", "lower"),
           ("uarch.sim_cache_misses", "count", "lower"),
           ("uarch.sim_mispredictions", "count", "lower"),
           ("uarch.sim_stall_cycles", "cycles", "lower"))),
    Layer("core.trace_cache",
          ("repro.core.trace_cache:TraceCache.get_or_run",),
          (("core.trace_cache.hits", "count", "higher"),
           ("core.trace_cache.misses", "count", "lower"),
           ("core.trace_cache.hit_ratio", "ratio", "higher"))),
    Layer("hardware.emitter",
          ("repro.hardware.emitter:HardwareEmitter.signal_on_grid",
           "repro.hardware.emitter:HardwareEmitter.continuous_fast"),
          (("hardware.emitter.calls", "count", "lower"),
           ("hardware.emitter.samples", "count", "lower"))),
    Layer("signal.acquisition",
          ("repro.signal.acquisition:Oscilloscope.capture_repetition_list",),
          (("signal.acquisition.repetitions", "count", "lower"),
           ("signal.acquisition.lost", "count", "lower"))),
    Layer("signal.fold",
          ("repro.robustness.health:screen_repetitions",
           "repro.signal.modulo:modulo_average",
           "repro.robustness.health:assess_capture"),
          (("signal.fold.rejected", "count", "lower"),)),
    Layer("signal.deconv",
          ("repro.signal.reconstruction:estimate_cycle_amplitudes",
           "repro.signal.reconstruction:batch_estimate_cycle_amplitudes"),
          (("signal.deconv.calls", "count", "lower"),
           ("signal.deconv.plan_hit_ratio", "ratio", "higher"))),
    Layer("core.regression",
          ("repro.core.regression:stepwise_select",
           "repro.core.regression:fit_full",
           "repro.core.regression:fit_linear"),
          (("core.regression.calls", "count", "lower"),)),
    Layer("core.training", ("repro.core.training:Trainer.train",),
          ()),
    Layer("core.model.predict",
          ("repro.core.model:EMSimModel.predict_cycle_amplitudes",),
          (("core.model.predict.cycles", "cycles", "lower"),)),
    Layer("signal.synth",
          ("repro.signal.reconstruction:reconstruct",
           "repro.signal.reconstruction:batch_reconstruct"),
          (("signal.synth.calls", "count", "lower"),
           ("signal.synth.plan_hit_ratio", "ratio", "higher"))),
    Layer("signal.metrics",
          ("repro.signal.metrics:simulation_accuracy",),
          ()),
    Layer("leakage.streaming",
          ("repro.leakage.streaming:StreamingTTest.add_fixed",
           "repro.leakage.streaming:StreamingTTest.add_random",
           "repro.leakage.streaming:StreamingTTest.result"),
          ()),
    Layer("parallel", ("repro.parallel:supervised_map",),
          (("parallel.items", "count", "lower"),
           ("parallel.retried", "count", "lower"),
           ("parallel.quarantined", "count", "lower"),
           ("parallel.utilisation", "ratio", "higher"),
           ("ipc.shm_arrays", "count", "lower"))),
)

#: The benchmark's own figures, reported next to the layers.
BENCH_METRICS = (("bench.unattributed_s", "s", "lower"),
                 ("bench.trace_overhead", "ratio", "lower"))


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer.span}.self_s", "s", "lower"))
        metrics.extend(layer.counts)
    metrics.extend(BENCH_METRICS)
    return metrics


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries
# ---------------------------------------------------------------------------
def _count(name: str, value: int = 1) -> None:
    get_metrics().increment(COUNTER_PREFIX + name, int(value))


def _after_pipeline(args, kwargs, trace):
    _count("uarch.sim_cycles", trace.num_cycles)
    _count("uarch.sim_instructions", trace.instructions_retired)
    _count("uarch.sim_cache_misses", trace.cache_misses)
    _count("uarch.sim_mispredictions", trace.mispredictions)
    _count("uarch.sim_stall_cycles",
           len({event.cycle for event in trace.stalls}))
    return trace


def _after_signal_on_grid(args, kwargs, signal):
    _count("hardware.emitter.samples", len(signal))
    return signal


def _after_continuous_fast(args, kwargs, evaluator):
    tracer = get_tracer()

    @functools.wraps(evaluator)
    def traced_evaluator(times):
        with tracer.span("hardware.emitter"):
            values = evaluator(times)
        _count("hardware.emitter.samples", len(times))
        return values

    return traced_evaluator


def _after_capture(args, kwargs, result):
    stats = args[0].last_repetition_stats
    _count("signal.acquisition.repetitions", stats.requested)
    _count("signal.acquisition.lost", stats.lost)
    return result


def _after_screen(args, kwargs, screen):
    _count("signal.fold.rejected", screen.rejected)
    return screen


def _after_predict(args, kwargs, amplitudes):
    _count("core.model.predict.cycles", len(amplitudes))
    return amplitudes


_HOOKS: Dict[str, Callable] = {
    "repro.uarch.pipeline:Pipeline.run": _after_pipeline,
    "repro.hardware.emitter:HardwareEmitter.signal_on_grid":
        _after_signal_on_grid,
    "repro.hardware.emitter:HardwareEmitter.continuous_fast":
        _after_continuous_fast,
    "repro.signal.acquisition:Oscilloscope.capture_repetition_list":
        _after_capture,
    "repro.robustness.health:screen_repetitions": _after_screen,
    "repro.core.model:EMSimModel.predict_cycle_amplitudes":
        _after_predict,
}

# nesting depth of TraceCache.get_or_run in this process: only the
# outermost call delivers a trace to the workload (an ideal capture's
# miss runs the device's own cached trace lookup inside it)
_CACHE_DEPTH = [0]


def _delivered_cycles(value) -> int:
    trace = getattr(value, "trace", value)
    return int(trace.num_cycles)


class _ItemSpan:
    """Runs one pool item inside a ``parallel.item`` span.

    A class rather than a closure so the pool can pickle it when the
    fork start method is unavailable.
    """

    def __init__(self, function: Callable) -> None:
        self.function = function

    def __call__(self, item):
        with get_tracer().span(ITEM_SPAN):
            return self.function(item)


def _wrap(entry: str, span: str, original: Callable) -> Callable:
    tracer = get_tracer()
    hook = _HOOKS.get(entry)

    if entry.endswith(":TraceCache.get_or_run"):
        @functools.wraps(original)
        def cached(*args, **kwargs):
            _CACHE_DEPTH[0] += 1
            try:
                with tracer.span(span):
                    value = original(*args, **kwargs)
            finally:
                _CACHE_DEPTH[0] -= 1
            if _CACHE_DEPTH[0] == 0:
                _count("bench.delivered_cycles", _delivered_cycles(value))
            return value
        return cached

    if entry == "repro.parallel:supervised_map":
        @functools.wraps(original)
        def fan_out(function, items, *args, **kwargs):
            from repro.parallel import resolve_workers
            items = list(items)
            workers = kwargs.get("workers", args[0] if args else 1)
            pool = max(1, min(resolve_workers(workers), len(items),
                              os.cpu_count() or 1))
            with tracer.span(span, workers=pool):
                results, ledger = original(_ItemSpan(function), items,
                                           *args, **kwargs)
            counts = ledger.counts()
            _count("parallel.items", len(items))
            _count("parallel.retried", counts["retried"])
            _count("parallel.quarantined",
                   counts["quarantined"] + counts["timeout"])
            return results, ledger
        return fan_out

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        with tracer.span(span):
            result = original(*args, **kwargs)
        if hook is not None:
            result = hook(args, kwargs, result)
        return result
    return wrapped


class Instrumentation:
    """Installs and removes every layer wrapper (see module docstring)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every entry point of every layer."""
        for layer in LAYERS:
            for entry in layer.entries:
                self._install(entry, layer.span)

    def _install(self, entry: str, span: str) -> None:
        module_name, qualname = entry.split(":")
        owner = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(entry, span, original))
            return
        original = getattr(owner, qualname)
        wrapped = _wrap(entry, span, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapped)

    def remove(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo = []


# ---------------------------------------------------------------------------
# self-time accounting
# ---------------------------------------------------------------------------
_SLACK = 1e-9


class _Node:
    __slots__ = ("name", "pid", "start", "end", "workers", "parent",
                 "children")

    def __init__(self, span) -> None:
        self.name = span.name
        self.pid = span.pid
        self.start = span.start
        self.end = span.start + span.seconds
        self.workers = span.attributes.get("workers", 1)
        self.parent: Optional[_Node] = None
        self.children: List[_Node] = []

    def contains(self, other: "_Node") -> bool:
        return (self.start - _SLACK <= other.start and
                other.end <= self.end + _SLACK)


def _covered(start: float, end: float, nodes: Sequence[_Node]) -> float:
    """Length of the union of ``nodes`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for node in sorted(nodes, key=lambda n: n.start):
        low, high = max(node.start, reach), min(node.end, end)
        if high > low:
            total += high - low
            reach = high
    return total


def account(spans, main_pid: int) -> Dict[str, float]:
    """Per-layer self seconds, calls and the run's unattributed time.

    ``spans`` are one traced run's tracer spans, worker spans merged.
    Spans nest by interval within a process; a worker's top-level item
    spans belong to the parent's innermost ``parallel`` span around
    them.  Returns ``<span>.self_s`` and ``<span>.calls`` for every
    layer plus ``bench.unattributed_s``, ``bench.wall_s`` and
    ``parallel.utilisation``.
    """
    names = {layer.span for layer in LAYERS} | {RUN_SPAN, ITEM_SPAN}
    nodes = [_Node(span) for span in spans if span.name in names]
    by_pid: Dict[int, List[_Node]] = {}
    for node in nodes:
        by_pid.setdefault(node.pid, []).append(node)
    for group in by_pid.values():
        group.sort(key=lambda n: (n.start, -n.end))
        stack: List[_Node] = []
        for node in group:
            while stack and not stack[-1].contains(node):
                stack.pop()
            if stack:
                node.parent = stack[-1]
            stack.append(node)
    pools = [node for node in by_pid.get(main_pid, [])
             if node.name == "parallel"]
    for node in nodes:
        if node.pid != main_pid and node.parent is None:
            around = [pool for pool in pools
                      if pool.start - _SLACK <= node.start <= pool.end]
            if around:
                node.parent = max(around, key=lambda pool: pool.start)
    for node in nodes:
        if node.parent is not None:
            node.parent.children.append(node)

    result: Dict[str, float] = {}
    for layer in LAYERS:
        result[f"{layer.span}.self_s"] = 0.0
        result[f"{layer.span}.calls"] = 0
    busy = pool_time = 0.0
    wall = unattributed = 0.0
    for node in nodes:
        own = (node.end - node.start) - _covered(node.start, node.end,
                                                 node.children)
        if node.name == RUN_SPAN:
            wall += node.end - node.start
            unattributed += own
        elif node.name == ITEM_SPAN:
            busy += node.end - node.start
        else:
            result[f"{node.name}.self_s"] += max(own, 0.0)
            if node.parent is None or node.parent.name != node.name:
                result[f"{node.name}.calls"] += 1
            if node.name == "parallel":
                pool_time += (node.end - node.start) * node.workers
    result["bench.unattributed_s"] = unattributed
    result["bench.wall_s"] = wall
    result["parallel.utilisation"] = busy / pool_time if pool_time else 0.0
    return result


def counter(name: str) -> int:
    """A benchmark counter recorded at a layer boundary."""
    return int(get_metrics().counters.get(COUNTER_PREFIX + name, 0))


def program_counters(prefix: str, suffix: str) -> int:
    """Sum of the program's own registry counters ``prefix*suffix``."""
    return sum(value for name, value in get_metrics().counters.items()
               if name.startswith(prefix) and name.endswith(suffix))
