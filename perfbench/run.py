"""End-to-end, layer-attributed benchmark for the paper's workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 30 --trace 0

Runs one workload (``fig8``, ``campaign`` or ``tvla-sim``; see
README.md) as a closed loop for ``--seconds`` seconds, split over a few
fresh benchmark processes so set-up is measured more than once, checks
every run's outputs against the recorded references, and prints one
JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs
and reports the per-layer metrics.  Exits non-zero when any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig8", "campaign", "tvla-sim")

#: Input sets with recorded references; ``--seed`` picks one of them.
RECORDED_SEEDS = 4

#: Fresh benchmark processes per invocation (each one sets up once).
PROCESSES = 3

#: Environment the program must not see: a disk cache layer, a disabled
#: trace cache, or disabled shared-memory transport would each change
#: what is measured.
UNSET = ("REPRO_TRACE_CACHE_DIR", "REPRO_TRACE_CACHE", "REPRO_NO_SHM")

#: Benchmark processes still running this long after the command
#: started are stopped, so the command ends within 180 s.
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"),
              ("sim_cycles_per_s", "cycles/s"), ("peak_rss_mb", "MB"),
              ("accuracy_mean", "fraction"))


def input_seed(seed: int) -> int:
    """The recorded input set a ``--seed`` selects."""
    return seed % RECORDED_SEEDS


def child_environment(scratch: str) -> Dict[str, str]:
    """The pinned environment of a benchmark process."""
    env = {key: value for key, value in os.environ.items()
           if key not in UNSET}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                       else []))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    return env


def run_process(args, budget: float, scratch: str,
                deadline: float) -> Dict[str, object]:
    """Start one benchmark process, wait for it, return its report."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload,
               "--seed", str(input_seed(args.seed)),
               "--budget", repr(budget), "--trace", str(args.trace),
               "--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               env=child_environment(scratch), text=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"benchmark still running after {DEADLINE_S:.0f} s")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"benchmark process failed with exit code "
                         f"{process.returncode}")
    return json.loads(lines[-1])


def median(values: List[float]) -> float:
    """Median, or NaN when every run failed before measuring."""
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(reports: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics over every untraced run of every process."""
    walls = [wall for report in reports
             for wall in report["untraced_wall_s"]]
    wall = median(walls)
    return {
        "wall_s": wall,
        "setup_s": median([report["setup_s"] for report in reports]),
        "sim_cycles_per_s": reports[0]["sim_cycles"] / wall,
        "peak_rss_mb": median([report["peak_rss_mb"]
                               for report in reports]),
        "accuracy_mean": reports[0]["accuracy_mean"],
    }


def per_layer(reports: List[Dict[str, object]],
              metrics) -> Dict[str, float]:
    """Per-layer medians over every traced run of every process."""
    traced = [run for report in reports for run in report["traced"]]
    untraced = [wall for report in reports
                for wall in report["untraced_wall_s"]]
    values = {}
    for name, _, _ in metrics:
        if name == "bench.trace_overhead":
            values[name] = median([run["wall_s"] for run in traced]) / \
                median(untraced)
        else:
            values[name] = median([run[name] for run in traced])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    from layers import per_layer_metrics

    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        reports = [run_process(args, args.seconds / PROCESSES, scratch,
                               deadline)
                   for _ in range(PROCESSES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    messages = [message for report in reports
                for message in report["messages"]]
    for message in messages[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        values = per_layer(reports, per_layer_metrics())
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        covered = 1.0 - values["bench.unattributed_s"] / median(
            [run["bench.wall_s"] for report in reports
             for run in report["traced"]])
        print(f"layer coverage of traced wall time: {covered:.1%}",
              file=sys.stderr)
    else:
        values = end_to_end(reports)
        units = dict(END_TO_END)
    first = reports[0]
    walls = [wall for report in reports
             for wall in report["untraced_wall_s"]]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 \
        else walls * 3
    print(f"workload={args.workload} seed={args.seed} "
          f"inputs={input_seed(args.seed)} processes={PROCESSES} "
          f"workers={first['workers']} nproc={first['nproc']} "
          f"error_rate={failed / max(attempted, 1):.4f} "
          f"untraced_runs={len(walls)} wall_s_quartiles="
          f"{','.join(f'{q:.4f}' for q in quartiles)}")
    correct = failed == 0 and not messages
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
