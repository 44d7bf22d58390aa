"""Smoke test of the benchmark command at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced with ``--smoke``; the printed
metric names and units must be exactly the ones ``BENCHMARK.json``
declares, and every output check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metrics_match_benchmark_json(workload: str, trace: str) -> None:
    result = result_of(
        run_bench(
            ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--trace", trace, "--smoke",
        )
    )
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_delay_is_seed_deterministic() -> None:
    def delay(seed: str) -> float:
        result = result_of(
            run_bench(
                ROOT, "--workload", "olgd_lp", "--seed", seed, "--seconds", "0.2",
                "--smoke",
            )
        )
        return result["metrics"]["delay_ms_geomean"]["value"]

    assert delay("1") == delay("1")
    assert delay("7") != delay("1")


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench(tmp_path, "--workload", WORKLOADS[0], "--smoke")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
