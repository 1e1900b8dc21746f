"""Self-test of the benchmark: run with `python3 -m pytest perfbench/tests`.

A tiny-size pass of each workload must emit every metric BENCHMARK.json
names, with its unit, and check out correct; one seed must give
byte-identical input files; and without the program's sources the
benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import write_inputs  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_are_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _written(workload, seed, directory):
    write_inputs(build(workload, seed), str(directory))
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_input_files(workload, tmp_path):
    first = _written(workload, 11, tmp_path / "a")
    assert first == _written(workload, 11, tmp_path / "b")
    if first:
        assert first != _written(workload, 12, tmp_path / "c")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = _run("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
