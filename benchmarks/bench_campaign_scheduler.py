"""Benchmark trajectory for campaign-wide execution on one shared queue.

Times a multi-cell campaign executed two ways at **equal total worker
count**:

* **baseline** — cells run sequentially, one
  ``run_repetitions(config=RunConfig(jobs=N, checkpoint_dir=cell_dir))``
  per cell, so each cell spins up its own short-lived process pool and
  workers idle through every cell's tail;
* **fast** — ``run_campaign(config=RunConfig(jobs=N))``: one persistent
  pool drains the whole ``(cell × repetition × controller)`` grid as
  ``(cell, repetition)`` dispatch units, and no pool is ever re-created.

The grid is deliberately build-heavy (bursty workload, thousands of
requests, a short horizon, LP-free controllers).  After timing, the two
result trees are compared byte-for-byte — the speedup only counts
because ``summary.json`` is identical under both.  (``BENCH_pr8.json``
was recorded when the baseline also rebuilt one world per ``(repetition,
controller)`` item; the baseline now shares builds per repetition.)

A second stage isolates the ``PerSlotLpSolver`` capacity patch: the
pre-PR per-station row loop over the sparse buffer (legacy emulation)
versus the one-shot CSC fancy assignment the solver now performs.

Running as a script writes ``BENCH_pr8.json`` at the repo root — the
next point of the recorded benchmark trajectory (see ``BENCH_pr3.json``
onwards; "Performance" in README.md).

Run with::

    PYTHONPATH=src python benchmarks/bench_campaign_scheduler.py          # full
    PYTHONPATH=src python benchmarks/bench_campaign_scheduler.py --quick  # smoke

The tier-1 smoke test (``tests/test_bench_campaign_scheduler.py``) runs
the ``--quick`` configuration and validates the schema, so the benchmark
itself cannot rot.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.campaigns import (
    CampaignScenario,
    CampaignSpec,
    FactorAxis,
    ScenarioSpec,
    cell_directory,
    failure_schedule,
    run_campaign,
)
from repro.campaigns.runner import write_cell_summary
from repro.core.fastlp import PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import RunConfig, run_repetitions
from repro.utils.seeding import RngRegistry

SCHEMA = "repro.bench.trajectory/v1"
PR = 8

# Build-heavy grid: 3 cells x 2 repetitions x 4 LP-free controllers.
# Worlds (bursty demand chains over 4000 requests) cost several times a
# 2-slot simulation, so sharing one build across a repetition's four
# controllers is the dominant win; horizon stays short on purpose.
FULL_CONFIG: Dict = {
    "controllers": ["Greedy_GD", "Pri_GD", "CMAB_UCB", "CMAB_TS"],
    "horizon": 2,
    "workload": "bursty",
    "n_services": 3,
    "n_requests": 4000,
    "n_hotspots": 8,
    "station_grid": [16, 24, 32],
    "repetitions": 2,
    "n_jobs": 2,
    "lp_requests": 200,
    "lp_stations": 64,
    "lp_services": 3,
    "lp_patches": 2000,
    "repeats": 3,
    "seed": 2020,
}

# Tiny everything: the smoke variant exercises both stages in seconds.
QUICK_CONFIG: Dict = {
    "controllers": ["Greedy_GD", "Pri_GD"],
    "horizon": 2,
    "workload": "bursty",
    "n_services": 2,
    "n_requests": 60,
    "n_hotspots": 3,
    "station_grid": [8, 10],
    "repetitions": 1,
    "n_jobs": 2,
    "lp_requests": 12,
    "lp_stations": 8,
    "lp_services": 2,
    "lp_patches": 50,
    "repeats": 1,
    "seed": 2020,
}


def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def _stage(name: str, baseline_seconds: float, fast_seconds: float) -> Dict:
    return {
        "stage": name,
        "baseline_median_seconds": baseline_seconds,
        "fast_median_seconds": fast_seconds,
        "speedup": baseline_seconds / fast_seconds,
    }


def _campaign_spec(config: Dict) -> CampaignSpec:
    return CampaignSpec(
        name="bench-scheduler",
        seed=config["seed"],
        repetitions=config["repetitions"],
        scenario=ScenarioSpec(
            controllers=tuple(config["controllers"]),
            horizon=config["horizon"],
            workload=config["workload"],
            n_services=config["n_services"],
            n_requests=config["n_requests"],
            n_hotspots=config["n_hotspots"],
        ),
        factors=(FactorAxis("n_stations", tuple(config["station_grid"])),),
    )


def _summary_tree(out_dir: Path, spec: CampaignSpec) -> Dict[str, bytes]:
    return {
        cell.cell_id: (
            cell_directory(out_dir, cell.cell_id) / "summary.json"
        ).read_bytes()
        for cell in spec.expand()
    }


def _sequential_cells(spec: CampaignSpec, out: Path, n_jobs: int) -> None:
    """The baseline: one ``run_repetitions`` (and one pool) per cell."""
    for cell in spec.expand():
        cell_dir = cell_directory(out, cell.cell_id)
        study = run_repetitions(
            CampaignScenario(cell.scenario),
            seed=cell.seed,
            repetitions=spec.repetitions,
            horizon=cell.scenario.horizon,
            demands_known=spec.demands_known,
            confidence=spec.confidence,
            config=RunConfig(jobs=n_jobs, checkpoint_dir=cell_dir),
            n_controllers=len(cell.scenario.controllers),
            failures=failure_schedule(cell.scenario),
        )
        write_cell_summary(cell_dir, cell, study)


def _campaign_stage(config: Dict) -> Dict:
    """The acceptance stage: per-cell pools vs one campaign-wide queue."""
    spec = _campaign_spec(config)
    workdir = Path(tempfile.mkdtemp(prefix="bench-campaign-"))
    counter = {"n": 0}

    def run(engine: str) -> Path:
        counter["n"] += 1
        out = workdir / f"{engine}-{counter['n']}"
        if engine == "cell":
            _sequential_cells(spec, out, config["n_jobs"])
        else:
            result = run_campaign(
                spec, out, config=RunConfig(jobs=config["n_jobs"])
            )
            if not result.complete:
                raise RuntimeError(f"benchmark campaign incomplete in {out}")
        return out

    try:
        baseline_out = run("cell")
        fast_out = run("global")
        # The speedup only counts if the engines agree byte-for-byte.
        if _summary_tree(baseline_out, spec) != _summary_tree(fast_out, spec):
            raise RuntimeError(
                "campaign-wide summaries differ from the sequential "
                "per-cell loop; refusing to record the benchmark"
            )
        stage = _stage(
            "campaign_global_scheduler",
            _median_seconds(lambda: run("cell"), config["repeats"]),
            _median_seconds(lambda: run("global"), config["repeats"]),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stage["summaries_identical"] = True
    stage["n_cells"] = len(spec.expand())
    stage["n_items"] = (
        len(spec.expand()) * config["repetitions"] * len(config["controllers"])
    )
    return stage


def _lp_patch_stage(config: Dict) -> Dict:
    """Capacity patching: per-station row loop vs one-shot CSC assignment."""
    rngs = RngRegistry(seed=config["seed"])
    network = MECNetwork.synthetic(
        config["lp_stations"], config["lp_services"], rngs
    )
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(config["lp_services"])),
            basic_demand_mb=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(config["lp_requests"])
    ]
    solver = PerSlotLpSolver(network, requests)
    index = solver._capacity_data_index
    data = solver._a_ub.data
    view = solver._capacity_view
    drift = np.random.default_rng(config["seed"] + 5)
    demands = [
        drift.uniform(0.5, 2.0, config["lp_requests"])
        for _ in range(config["lp_patches"])
    ]
    n_stations = network.n_stations

    def legacy() -> None:
        # The pre-PR loop: one fancy assignment per capacity row.
        for needs in demands:
            scaled = needs * network.c_unit_mhz
            for i in range(n_stations):
                data[index[i]] = scaled

    def fast() -> None:
        # The solver's current patch: one strided-view write per slot.
        for needs in demands:
            view[:] = (needs * network.c_unit_mhz)[:, None]

    return _stage(
        "lp_capacity_patch",
        _median_seconds(legacy, config["repeats"]),
        _median_seconds(fast, config["repeats"]),
    )


def _commit_hash() -> str:
    """HEAD at generation time, with ``-dirty`` when the tree has edits."""
    cwd = Path(__file__).resolve().parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head}-dirty" if status else head


def run_benchmark(config: Dict) -> Dict:
    """Run every stage under ``config``; returns the schema'd result."""
    stages: List[Dict] = [
        _campaign_stage(config),
        _lp_patch_stage(config),
    ]
    return {
        "schema": SCHEMA,
        "pr": PR,
        "commit": _commit_hash(),
        "config": dict(config),
        "stages": stages,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke configuration (seconds, not minutes)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / f"BENCH_pr{PR}.json",
        help="where to write the trajectory JSON",
    )
    args = parser.parse_args(argv)
    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    result = run_benchmark(config)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    for stage in result["stages"]:
        print(
            f"{stage['stage']:<28} baseline {stage['baseline_median_seconds']:8.3f}s"
            f"  fast {stage['fast_median_seconds']:8.3f}s"
            f"  speedup {stage['speedup']:6.2f}x"
        )
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
