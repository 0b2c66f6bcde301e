"""Record the reference outputs the benchmark checks every run against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py                 # every workload and seed
    python3 perfbench/record.py --workload fig8 --seeds 0 1

For each workload and input seed this runs the workload once untraced
and once traced from cold state, requires the two to agree, and writes
``perfbench/references/<workload>-<seed>.npz``: the outputs the checks
compare (group scores, probe signals and amplitudes, t-values), the
exact simulated statistics, the delivered simulated cycles (the fixed
numerator of ``sim_cycles_per_s``) and ``accuracy_mean``.  Re-record
only when a change is meant to alter the program's results.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
for _name in ("REPRO_TRACE_CACHE_DIR", "REPRO_TRACE_CACHE", "REPRO_NO_SHM"):
    os.environ.pop(_name, None)

import numpy as np  # noqa: E402

from child import (REFERENCE_DIR, SIM_COUNTS, cold_reset,  # noqa: E402
                   reference_path, traced_run)
from run import RECORDED_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


GRID = 2.0 ** 33


def record(name: str, seed: int) -> str:
    """Record one workload at one seed; returns the file written."""
    workload = WORKLOADS[name](seed)
    cold_reset()
    outputs = workload.run(workload.inputs())
    summary = {key: np.asarray(value)
               for key, value in workload.summary(outputs).items()}
    # round to a 2**-33 grid (error <= 6e-11, well inside the 1e-9
    # tolerance) so the zeroed low mantissa bits compress
    summary = {key: np.round(value * GRID) / GRID
               for key, value in summary.items()}
    cold_reset()
    inputs = workload.inputs()
    traced_outputs, _, metrics = traced_run(workload, inputs)
    failed, messages = workload.check(traced_outputs, summary)
    if failed or messages:
        raise SystemExit(f"{name} seed {seed}: traced run disagrees with "
                         f"the untraced run: {messages[:3]}")
    for key in SIM_COUNTS:
        summary[f"sim/{key}"] = np.asarray(int(metrics[key]))
    summary["accuracy_mean"] = np.asarray(workload.accuracy(outputs))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = reference_path(name, seed)
    np.savez_compressed(path, **summary)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(RECORDED_SEEDS)))
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            path = record(name, seed)
            print(f"{name} seed {seed}: {os.path.relpath(path)} "
                  f"({os.path.getsize(path)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
