"""Smoke test of the benchmark at tiny sizes: result schema, checks, fault injection.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_and_report(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_metric(workload, trace, section):
    result, report = result_and_report(bench("--workload", workload, "--trace", str(trace), "--small"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH[section]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert {"seed", "python", "nproc", "git_commit", "src_balwords_lines"} <= set(report["meta"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_counts_as_failed(workload):
    result, report = result_and_report(bench("--workload", workload, "--small", "--inject-fault"))
    assert not result["correct"] and result["failed"] > 0 and report["failed_frac"] > 0


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "check-long", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
