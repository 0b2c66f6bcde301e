"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The metric test runs the real command briefly on every workload, so the
whole file takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.core import CampaignProbe  # noqa: E402
from repro.leakage.tvla import TVLAResult  # noqa: E402
from workloads import TOLERANCE, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def _command(root: str, workload: str, trace: int, seed: int = 0):
    """Run the benchmark command in ``root``; returns (code, stdout)."""
    process = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    return process.returncode, process.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture()
def scratch_root():
    """A throw-away checkout root inside the repository (gitignored)."""
    path = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == layers.per_layer_metrics()
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for name, _, _ in layers.per_layer_metrics():
        assert f"`{name}`" in readme, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    code, stdout = _command(ROOT, workload, trace)
    result = _result(stdout)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def _outputs_from(name: str, workload, reference):
    """Outputs that match ``reference`` exactly."""
    if name == "fig8":
        return np.array(reference["scores"])
    if name == "campaign":
        return [CampaignProbe(index=index, program_name="",
                              signal=reference[f"signal/{index:03d}"],
                              amplitudes=reference[
                                  f"amplitudes/{index:03d}"])
                for index in range(workload.count)]
    return TVLAResult(t_values=np.array(reference["t_values"]),
                      threshold=4.5)


def _corrupt(reference, name: str, delta: float):
    key = {"fig8": "scores", "campaign": "signal/000",
           "tvla-sim": "t_values"}[name]
    corrupted = dict(reference)
    values = np.array(corrupted[key], dtype=float)
    values.flat[len(values) // 2] += delta
    corrupted[key] = values
    return corrupted


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_output_checks_fire_on_a_corrupted_reference(name):
    reference = child.load_reference(name, 0)
    workload = WORKLOADS[name](0)
    outputs = _outputs_from(name, workload, reference)
    assert workload.check(outputs, reference) == (0, [])
    within = _corrupt(reference, name, TOLERANCE / 10)
    assert workload.check(outputs, within) == (0, [])
    failed, messages = workload.check(outputs,
                                      _corrupt(reference, name, 1e-8))
    assert failed >= 1 and messages


def test_fig8_accuracy_gate_fires():
    reference = dict(child.load_reference("fig8", 0))
    low = np.full_like(reference["scores"], 0.85)
    reference["scores"] = low
    failed, messages = WORKLOADS["fig8"](0).check(low, reference)
    assert failed >= 1 and "accuracy_mean" in messages[0]


def test_simulated_statistics_guard_reports_any_difference():
    reference = child.load_reference("tvla-sim", 0)
    counts = {name: int(reference[f"sim/{name}"])
              for name in child.SIM_COUNTS}
    assert child.sim_mismatches(counts, reference) == []
    counts["uarch.sim_stall_cycles"] += 1
    assert len(child.sim_mismatches(counts, reference)) == 1


def test_corrupted_reference_fails_the_command(scratch_root):
    os.symlink(os.path.join(ROOT, "src"), os.path.join(scratch_root, "src"))
    shutil.copytree(HERE, os.path.join(scratch_root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(scratch_root, "perfbench", "references",
                        "campaign-0.npz")
    reference = _corrupt(child.load_reference("campaign", 0), "campaign",
                         1e-8)
    np.savez_compressed(path, **reference)
    code, stdout = _command(scratch_root, "campaign", 0)
    result = _result(stdout)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_command_fails_without_the_program(scratch_root):
    shutil.copytree(HERE, os.path.join(scratch_root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch_root)
    code, stdout = _command(scratch_root, "fig8", 0)
    assert code != 0 and stdout.strip() == ""
