"""Batched, parallel fan-out for simulation and measurement campaigns.

Two campaign shapes dominate this codebase:

* **re-simulation** — run many programs through EMSim's
  trace -> amplitude -> reconstruction flow (accuracy sweeps, SAVAT,
  ablation studies);
* **measurement** — capture many probe programs on a device bench and
  deconvolve their per-cycle amplitudes (model training, TVLA corpora).

:class:`BatchSimulator` and :func:`measurement_campaign` run both as a
single ordered fan-out over :func:`~repro.parallel.parallel_map`: items
are chunked over a process pool when ``workers > 1`` (falling back to an
in-process loop on single-CPU machines), every item is reseeded from
``(campaign seed, item index)`` so results never depend on worker count
or scheduling, and the per-item hot loops go through the batched engine
(the emitter's closed-form repetition evaluator, the cached kernel response,
and the cached multi-RHS deconvolver).

Numerical contract: batched campaign results agree with the sequential
path (``workers=1``) to well inside 1e-9 max abs difference; the
re-simulation fan-out is bit-identical.

Both fan-outs sit on top of the content-addressed trace cache
(:mod:`repro.core.trace_cache`): ``EMSim.run_trace`` and the device's
``run_trace``/``capture_reference`` serve repeated (program, config)
pairs from cache, so campaigns that replay a corpus — or repeat
programs within one — skip the pipeline re-execution.  Worker processes
each hold their own process-local cache (the parent's entries are
inherited by fork at spawn time); determinism is unaffected because
cached traces are bit-identical to fresh runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..hardware.device import HardwareDevice
from ..hardware.emitter import EVALUATOR_TAG
from ..isa.program import Program
from ..observability import get_metrics, get_tracer, record_campaign
from ..parallel import (CampaignLedger, parallel_map, resolve_workers,
                        spawn_seed, supervised_map)
from ..profiling import get_profiler, monotonic
from ..robustness.checkpoint import CheckpointJournal
from ..robustness.errors import CampaignError
from ..robustness.health import CaptureQuality
from ..signal.kernels import DEFAULT_KERNEL, Kernel
from ..signal.reconstruction import (batch_estimate_cycle_amplitudes,
                                     batch_reconstruct,
                                     estimate_cycle_amplitudes)
from .simulator import EMSim, SimulatedSignal
from .trace_cache import trace_key

__all__ = ["BatchSimulator", "CampaignProbe", "campaign_probe_key",
           "measurement_campaign", "supervised_campaign"]


# Per-process worker state, installed by the pool initializer.  With the
# fork start method the initargs are inherited by memory, so even heavy
# objects (a device bench, a trained simulator) cost nothing to install.
_WORKER_STATE: dict = {}


# ---------------------------------------------------------------------------
# batched re-simulation
# ---------------------------------------------------------------------------
def _simulate_init(simulator: EMSim, max_cycles: Optional[int]) -> None:
    """Install the simulator in a pool worker (or the in-process loop)."""
    _WORKER_STATE["simulator"] = simulator
    _WORKER_STATE["max_cycles"] = max_cycles


def _simulate_item(item):
    """Trace + amplitude prediction for one indexed program.

    Reconstruction is deliberately left to the parent so all programs
    share one cached kernel response (and the waveforms never cross the
    process boundary twice).
    """
    _, program = item
    simulator: EMSim = _WORKER_STATE["simulator"]
    trace = simulator.run_trace(program,
                                max_cycles=_WORKER_STATE["max_cycles"])
    amplitudes = simulator.model.predict_cycle_amplitudes(
        trace, switches=simulator.switches)
    return trace, amplitudes


class BatchSimulator:
    """Runs many programs through one :class:`~repro.core.simulator.EMSim`.

    The fan-out covers the full trace -> amplitude -> reconstruction
    flow: traces and per-cycle amplitude predictions run per program
    (optionally on a worker pool), and all waveform reconstructions
    share a single cached kernel response.  Results come back in input
    order and are **bit-identical** to calling
    :meth:`~repro.core.simulator.EMSim.simulate` once per program — the
    amplitude predictor is exactly the sequential one and the batch
    reconstruction performs the same per-trace convolution.
    """

    def __init__(self, simulator: EMSim, workers: int = 1,
                 item_timeout: Optional[float] = None,
                 max_item_retries: int = 0):
        self.simulator = simulator
        self.workers = workers
        self.item_timeout = item_timeout
        self.max_item_retries = max_item_retries

    def simulate_many(self, programs: Sequence,
                      max_cycles: Optional[int] = None
                      ) -> List[SimulatedSignal]:
        """Simulate every program; returns results in input order."""
        programs = list(programs)
        profiler = get_profiler()
        with get_tracer().span("batch.simulate_many",
                               programs=len(programs),
                               workers=self.workers):
            results = parallel_map(
                _simulate_item, list(enumerate(programs)),
                workers=self.workers,
                initializer=_simulate_init,
                initargs=(self.simulator, max_cycles),
                timeout=self.item_timeout,
                max_item_retries=self.max_item_retries)
            model = self.simulator.model
            samples_per_cycle = model.config.samples_per_cycle
            signals = batch_reconstruct(
                [amplitudes for _, amplitudes in results],
                model.config.kernel, samples_per_cycle)
        profiler.count("batch.programs", len(programs))
        return [SimulatedSignal(amplitudes=amplitudes, signal=signal,
                                trace=trace,
                                samples_per_cycle=samples_per_cycle)
                for (trace, amplitudes), signal in zip(results, signals)]


# ---------------------------------------------------------------------------
# batched measurement campaigns
# ---------------------------------------------------------------------------
@dataclass
class CampaignProbe:
    """One probe's result from a measurement campaign.

    Carries the folded reference and its deconvolved per-cycle
    amplitudes but deliberately *not* the activity trace — campaign
    consumers (benchmarks, leakage sweeps) work on signals, and traces
    are the costly part of shipping results across process boundaries.
    """

    index: int
    program_name: str
    signal: np.ndarray
    amplitudes: np.ndarray
    quality: Optional[CaptureQuality] = None
    capture_seconds: float = 0.0
    deconvolve_seconds: float = 0.0


def _campaign_init(device, seed: int, repetitions: int,
                   max_cycles: Optional[int], kernel: Kernel,
                   samples_per_cycle: int, batched: bool) -> None:
    """Install per-process campaign state."""
    _WORKER_STATE.update(
        device=device, seed=seed, repetitions=repetitions,
        max_cycles=max_cycles, kernel=kernel,
        samples_per_cycle=samples_per_cycle, batched=batched)


def _campaign_item(item) -> CampaignProbe:
    """Capture + deconvolve one indexed probe program.

    The device RNG and (if present) the fault injector are reseeded
    from ``(campaign seed, probe index)`` before the capture, so the
    probe's result is a pure function of the campaign seed and its
    position — independent of worker count, chunking, or who captured
    the previous probe.
    """
    index, program = item
    device = _WORKER_STATE["device"]
    seed = _WORKER_STATE["seed"]
    device.rng = spawn_seed(seed, index)
    injector = getattr(device, "fault_injector", None)
    if injector is not None:
        injector.reseed(spawn_seed(seed, index, stream=1))
    batched = _WORKER_STATE["batched"]
    start = monotonic()
    measurement = device.capture_reference(
        program, repetitions=_WORKER_STATE["repetitions"],
        max_cycles=_WORKER_STATE["max_cycles"], batched=batched)
    captured = monotonic()
    kernel = _WORKER_STATE["kernel"]
    samples_per_cycle = _WORKER_STATE["samples_per_cycle"]
    if batched:
        amplitudes = batch_estimate_cycle_amplitudes(
            [measurement.signal], kernel, samples_per_cycle)[0]
    else:
        amplitudes = estimate_cycle_amplitudes(
            measurement.signal, kernel, samples_per_cycle)
    done = monotonic()
    return CampaignProbe(index=index, program_name=measurement.program_name,
                         signal=measurement.signal, amplitudes=amplitudes,
                         quality=measurement.quality,
                         capture_seconds=captured - start,
                         deconvolve_seconds=done - captured)


def campaign_probe_key(device: HardwareDevice, program: Program,
                       index: int, seed: int, repetitions: int,
                       kernel: Kernel, samples_per_cycle: int,
                       max_cycles: Optional[int], batched: bool) -> str:
    """Checkpoint key for one campaign probe.

    Built on :func:`~repro.core.trace_cache.trace_key` — the same
    content hash the trace cache uses for the program/config pair —
    salted with everything else that determines the probe's result:
    campaign seed, probe index, repetition count, kernel, sample rate,
    engine choice, the emitter evaluator's tag
    (:data:`~repro.hardware.emitter.EVALUATOR_TAG`), and the device's
    emitter digest.  A resumed campaign therefore only reuses a journaled
    probe when rerunning it would be bit-identical anyway; journals
    written by an older evaluator are recaptured instead.
    """
    salt = (f"campaign:{seed}:{index}:{repetitions}:{kernel!r}:"
            f"{samples_per_cycle}:{batched}:{EVALUATOR_TAG}:"
            f"{device.name}:{device._emitter_digest}")
    return trace_key(program, device.core_config,
                     core_kind=device.core_kind, max_cycles=max_cycles,
                     salt=salt)


def supervised_campaign(device: HardwareDevice,
                        programs: Sequence[Program],
                        repetitions: int = 50,
                        workers: int = 1,
                        seed: int = 0,
                        kernel: Kernel = DEFAULT_KERNEL,
                        samples_per_cycle: Optional[int] = None,
                        max_cycles: Optional[int] = None,
                        item_timeout: Optional[float] = None,
                        max_item_retries: int = 2,
                        journal: Optional[CheckpointJournal] = None,
                        ) -> "tuple[List[Optional[CampaignProbe]], CampaignLedger]":
    """Supervised measurement campaign: ``(probes, ledger)``.

    The crash-safe core of :func:`measurement_campaign`: probes fan out
    through :func:`~repro.parallel.supervised_map`, so hung workers are
    killed at ``item_timeout``, crashed workers indict only the probe
    they were running, failures retry with seeded backoff, and probes
    that exhaust ``max_item_retries`` leave a ``None`` slot plus a
    ledger row instead of sinking the campaign.  With a ``journal``,
    completed probes are checkpointed under :func:`campaign_probe_key`
    and a resumed run replays them bit-identically without capturing.
    """
    programs = list(programs)
    effective = resolve_workers(workers)
    batched = effective > 1
    if samples_per_cycle is None:
        samples_per_cycle = device.samples_per_cycle

    def key_for(index: int, item) -> str:
        _, program = item
        return campaign_probe_key(device, program, index, seed,
                                  repetitions, kernel, samples_per_cycle,
                                  max_cycles, batched)

    meta = {"campaign": "measurement", "device": device.name,
            "seed": int(seed), "repetitions": int(repetitions),
            "programs": len(programs), "workers": effective}
    with record_campaign("measurement", meta) as recording:
        with get_tracer().span("campaign.measurement",
                               programs=len(programs), workers=effective):
            probes, ledger = supervised_map(
                _campaign_item, list(enumerate(programs)),
                workers=workers,
                initializer=_campaign_init,
                initargs=(device, seed, repetitions, max_cycles, kernel,
                          samples_per_cycle, batched),
                timeout=item_timeout,
                max_item_retries=max_item_retries,
                seed=seed,
                journal=journal,
                key_for=key_for if journal is not None else None)
        recording.ledger(ledger)
        recording.checkpoint(getattr(journal, "path", None))
    profiler = get_profiler()
    registry = get_metrics()
    for probe in probes:
        if probe is None:
            continue
        profiler.add_phase("campaign.capture", probe.capture_seconds)
        profiler.add_phase("campaign.deconvolve", probe.deconvolve_seconds)
        registry.observe("campaign.capture_seconds",
                         probe.capture_seconds)
        registry.observe("campaign.deconvolve_seconds",
                         probe.deconvolve_seconds)
    profiler.count("campaign.programs", len(probes))
    return probes, ledger


def measurement_campaign(device: HardwareDevice,
                         programs: Sequence[Program],
                         repetitions: int = 50,
                         workers: int = 1,
                         seed: int = 0,
                         kernel: Kernel = DEFAULT_KERNEL,
                         samples_per_cycle: Optional[int] = None,
                         max_cycles: Optional[int] = None,
                         item_timeout: Optional[float] = None,
                         max_item_retries: int = 2,
                         checkpoint: Optional[str] = None,
                         resume: bool = False) -> List[CampaignProbe]:
    """Capture and deconvolve every program on a device bench.

    The campaign primitive behind ``repro bench``: each probe runs the
    scope+modulo reference capture and a per-cycle amplitude
    deconvolution, with per-probe deterministic reseeding (see
    :func:`_campaign_item`).

    ``workers=1`` is the sequential baseline: the legacy per-repetition
    capture loop and the uncached deconvolver, one probe at a time.
    ``workers > 1`` switches to the batched engine — the emitter's
    closed-form repetition evaluator (one shared sample grid per
    capture), the vectorized repetition fold with one offset-bin
    assignment per capture, and the cached multi-RHS deconvolver — and
    fans the probes out over (up to) that many worker processes; on
    machines with fewer CPUs the pool shrinks to the CPU count (a
    single-CPU machine runs the batched engine in-process, which is
    where most of the speedup lives anyway).  Because both engines
    reseed identically per probe, results differ only by the batched
    engine's floating-point reordering: max abs difference is well
    inside 1e-9.

    Supervision (see :func:`supervised_campaign` for the mechanics):
    ``item_timeout`` bounds each probe's wall clock, failed probes
    retry up to ``max_item_retries`` times with seeded backoff, and
    ``checkpoint`` names a journal file that makes the campaign
    resumable (``resume=True`` replays completed probes from it).
    This function needs *every* probe, so items still missing after
    supervision raise :class:`~repro.robustness.errors.CampaignError`
    (exit code 18) naming the quarantined indices.
    """
    programs = list(programs)  # generators must not be consumed twice
    if checkpoint is not None:
        meta = {"campaign": "measurement", "device": device.name,
                "seed": int(seed), "repetitions": int(repetitions),
                "programs": len(programs)}
        with CheckpointJournal(checkpoint, meta=meta,
                               resume=resume) as journal:
            with journal.guarded():
                probes, ledger = supervised_campaign(
                    device, programs, repetitions=repetitions,
                    workers=workers, seed=seed, kernel=kernel,
                    samples_per_cycle=samples_per_cycle,
                    max_cycles=max_cycles, item_timeout=item_timeout,
                    max_item_retries=max_item_retries, journal=journal)
    else:
        probes, ledger = supervised_campaign(
            device, programs, repetitions=repetitions, workers=workers,
            seed=seed, kernel=kernel,
            samples_per_cycle=samples_per_cycle, max_cycles=max_cycles,
            item_timeout=item_timeout,
            max_item_retries=max_item_retries)
    if not ledger.complete:
        raise CampaignError(
            f"measurement campaign lost {len(ledger.quarantined)} of "
            f"{len(probes)} probes ({ledger.summary()})",
            quarantined=ledger.quarantined)
    return probes
