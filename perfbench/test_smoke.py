"""Tiny-scale smoke run of every benchmark workload.

    python -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced at ``--tiny`` scale (small
pools, a two-rung ladder, two-epoch fits) and must pass its own
correctness checks and print exactly the metrics ``BENCHMARK.json``
names.  A copy holding only the benchmark (no ``src/``) must fail fast
without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly_at_tiny_scale(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    *diagnostics, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    info = json.loads(diagnostics[-1])
    assert result["correct"], info["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert math.isfinite(value["value"]), name
        if trace == "0":
            assert value["value"] > 0, name
    assert set(info["fingerprint"]) == {
        "nproc", "cpu", "python", "numpy", "blas", "blas_threads", "commit"
    }


def test_benchmark_alone_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
