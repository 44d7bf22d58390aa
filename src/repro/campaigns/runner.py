"""Campaign execution: the result tree, cell scheduling and resume.

A campaign run owns one directory::

    <out_dir>/
        campaign.json            # the spec's identity payload
        cells/<cell_id>/
            manifest.json        # repro.state sweep manifest
            rep00000-ctrl000.npz # per-(repetition, controller) snapshots
            summary.json         # deterministic aggregate, written once
                                 # the cell is complete
            timing.json          # wall-clock sidecar (decision times,
                                 # execution accounting)

Every cell is one :class:`~repro.sim.parallel.Sweep` over the cell's
:class:`~repro.campaigns.scenario.CampaignScenario`, seeded with the
cell's own derived seed and checkpointed into the cell directory; all
unfinished cells drain through one :func:`repro.sim.parallel.run_sweeps`
queue.  Resume works at two grains: a finished cell is recognised by its
``summary.json`` and never re-executed, and a *partially* finished cell
re-enters the sweep-manifest resume path and runs only its missing
``(repetition, controller)`` items.

``campaign.json`` pins the campaign's identity: restarting with
``resume=True`` against a directory whose payload differs from the spec
raises instead of silently mixing two campaigns' results.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.campaigns.scenario import CampaignScenario, failure_schedule
from repro.campaigns.spec import CampaignCell, CampaignError, CampaignSpec
from repro.sim.config import RunConfig
from repro.sim.multirun import (
    MetricSummary,
    RepetitionStudy,
    aggregate_work_results,
)
from repro.sim.parallel import Sweep, WorkResult, resolve_n_jobs, run_sweeps
from repro.state.manifest import completed_items

__all__ = [
    "CampaignResult",
    "CellStatus",
    "CampaignStatus",
    "TIMING_METRICS",
    "run_campaign",
    "campaign_status",
    "cell_directory",
    "write_cell_summary",
    "read_cell_summary",
    "read_cell_timing",
    "read_campaign_payload",
]

logger = logging.getLogger(__name__)

_CAMPAIGN_FILE = "campaign.json"
_SUMMARY_FILE = "summary.json"
_TIMING_FILE = "timing.json"
_CELLS_DIR = "cells"

#: Metric summaries built from wall-clock measurements.  They are split
#: out of ``summary.json`` (whose contract is byte-identity across
#: reruns, worker counts and resumes) into ``timing.json``;
#: the report layer merges them back for tables and CSV.
TIMING_METRICS = ("mean_decision_s",)


def cell_directory(out_dir: Union[str, Path], cell_id: str) -> Path:
    """The result directory of one cell."""
    return Path(out_dir) / _CELLS_DIR / cell_id


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)


def _summary_payload(metrics: Dict[str, MetricSummary]) -> Dict[str, Dict]:
    return {
        metric: {
            "mean": summary.mean,
            "std": summary.std,
            "ci_low": summary.ci_low,
            "ci_high": summary.ci_high,
            "values": list(summary.values),
            "repetitions": list(summary.repetitions),
        }
        for metric, summary in metrics.items()
    }


def write_cell_summary(
    directory: Union[str, Path], cell: CampaignCell, study: RepetitionStudy
) -> Path:
    """Persist the aggregate of one finished cell (reproducible fields only).

    ``summary.json`` carries only seed-determined fields: the summary of
    a resumed campaign — or one executed with a different worker
    count — must be byte-identical to an uninterrupted sequential
    run's.  Wall-clock-derived metric summaries (:data:`TIMING_METRICS`,
    i.e. controller decision time) and the run's execution accounting go
    to ``timing.json`` next to it; the report layer merges them back.
    """
    payload = {
        "cell_id": cell.cell_id,
        "index": cell.index,
        "seed": cell.seed,
        "overrides": [[path, value] for path, value in cell.overrides],
        "horizon": study.horizon,
        "repetitions": study.repetitions,
        "n_failed": study.n_failed,
        "failed_items": sorted(
            [f.repetition, f.controller_index] for f in study.failures
        ),
        "summaries": {
            controller: _summary_payload(
                {
                    metric: summary
                    for metric, summary in metrics.items()
                    if metric not in TIMING_METRICS
                }
            )
            for controller, metrics in study.summaries.items()
        },
    }
    timing = {
        "cell_id": cell.cell_id,
        "n_jobs": study.n_jobs,
        "wall_clock_seconds": study.wall_clock_seconds,
        "cpu_seconds": study.cpu_seconds,
        "summaries": {
            controller: _summary_payload(
                {
                    metric: summary
                    for metric, summary in metrics.items()
                    if metric in TIMING_METRICS
                }
            )
            for controller, metrics in study.summaries.items()
        },
    }
    directory = Path(directory)
    _write_json(directory / _TIMING_FILE, timing)
    path = directory / _SUMMARY_FILE
    _write_json(path, payload)
    return path


def read_cell_summary(directory: Union[str, Path]) -> Optional[Dict]:
    """The persisted summary of a cell directory, or ``None``."""
    path = Path(directory) / _SUMMARY_FILE
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def read_cell_timing(directory: Union[str, Path]) -> Optional[Dict]:
    """The persisted timing sidecar of a cell directory, or ``None``.

    Absent for campaigns written before the summary/timing split; the
    report layer treats that as "no timing metrics recorded".
    """
    path = Path(directory) / _TIMING_FILE
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def read_campaign_payload(out_dir: Union[str, Path]) -> Dict:
    """The ``campaign.json`` identity payload of a campaign directory."""
    path = Path(out_dir) / _CAMPAIGN_FILE
    if not path.exists():
        raise CampaignError(f"no campaign at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _check_or_claim_directory(
    spec: CampaignSpec, out_dir: Path, resume: bool
) -> None:
    path = out_dir / _CAMPAIGN_FILE
    payload = spec.to_payload()
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
        if existing != payload:
            raise CampaignError(
                f"{out_dir} holds campaign {existing.get('name')!r} with a "
                "different spec; refusing to mix results (pick a fresh "
                "--out directory)"
            )
        if not resume:
            raise CampaignError(
                f"{out_dir} already holds this campaign; pass resume=True "
                "to continue it"
            )
    else:
        _write_json(path, payload)


@dataclass(frozen=True)
class CampaignResult:
    """A completed (or truncated) campaign run."""

    spec: CampaignSpec
    out_dir: Path
    cells: Tuple[CampaignCell, ...]
    #: cell_id -> freshly-executed study (cells skipped on resume or cut
    #: by ``max_cells`` are absent here; their summaries are on disk).
    studies: Dict[str, RepetitionStudy]
    executed: Tuple[str, ...]
    skipped: Tuple[str, ...]
    remaining: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.remaining


def run_campaign(
    spec: CampaignSpec,
    out_dir: Union[str, Path],
    *,
    config: Optional[RunConfig] = None,
    max_cells: Optional[int] = None,
) -> CampaignResult:
    """Execute ``spec``'s cells into ``out_dir``; resumable at any point.

    ``config`` (a :class:`repro.sim.RunConfig`) carries the execution
    knobs — the same spelling :func:`repro.sim.run_simulation` and
    :func:`repro.sim.run_repetitions` use: ``jobs`` counts
    campaign-global workers draining the whole ``(cell × repetition ×
    controller)`` grid from one queue (``1`` runs it in-process);
    ``retries``, ``collect_metrics``, ``checkpoint_every`` and ``resume``
    keep their :func:`repro.sim.parallel.run_sweeps` semantics.  The
    campaign directory is the persistence root, so
    ``config.checkpoint_dir`` is not read.

    Every cell's ``summary.json`` is written the moment its grid
    completes and is byte-identical for any worker count and across
    resumes.  ``max_cells`` executes only the first N unfinished cells
    in expansion order — the programmatic stand-in for a mid-campaign
    kill, and what the CI smoke test uses to exercise the resume path
    deterministically.
    """
    config = config if config is not None else RunConfig()
    out_dir = Path(out_dir)
    cells = spec.expand()
    _check_or_claim_directory(spec, out_dir, config.resume)
    workers = resolve_n_jobs(config.jobs)

    todo: List[CampaignCell] = []
    skipped: List[str] = []
    remaining: List[str] = []
    budget = len(cells) if max_cells is None else max_cells
    for cell in cells:
        if read_cell_summary(cell_directory(out_dir, cell.cell_id)) is not None:
            skipped.append(cell.cell_id)
        elif len(todo) < budget:
            todo.append(cell)
        else:
            remaining.append(cell.cell_id)
    logger.info(
        "campaign %s: %d worker(s), %d cell(s) to run "
        "(%d skipped, %d beyond budget)",
        spec.name, workers, len(todo), len(skipped), len(remaining),
    )

    wall_start = time.perf_counter()
    studies: Dict[str, RepetitionStudy] = {}

    def write_summary(index: int, results: List[WorkResult]) -> None:
        cell = todo[index]
        study = aggregate_work_results(
            results,
            horizon=cell.scenario.horizon,
            repetitions=spec.repetitions,
            confidence=spec.confidence,
            n_jobs=workers,
            wall_clock_seconds=time.perf_counter() - wall_start,
        )
        write_cell_summary(cell_directory(out_dir, cell.cell_id), cell, study)
        studies[cell.cell_id] = study

    run_sweeps(
        [
            Sweep(
                CampaignScenario(cell.scenario),
                seed=cell.seed,
                repetitions=spec.repetitions,
                horizon=cell.scenario.horizon,
                demands_known=spec.demands_known,
                failures=failure_schedule(cell.scenario),
                directory=cell_directory(out_dir, cell.cell_id),
                n_controllers=len(cell.scenario.controllers),
            )
            for cell in todo
        ],
        config=replace(config, jobs=workers),
        on_complete=write_summary,
    )
    return CampaignResult(
        spec=spec,
        out_dir=out_dir,
        cells=cells,
        studies=studies,
        executed=tuple(cell.cell_id for cell in todo),
        skipped=tuple(skipped),
        remaining=tuple(remaining),
    )


@dataclass(frozen=True)
class CellStatus:
    """Progress of one cell: persisted items versus the full grid."""

    cell_id: str
    complete: bool
    items_done: int
    items_total: int


@dataclass(frozen=True)
class CampaignStatus:
    """Progress of a campaign directory, cell by cell."""

    name: str
    out_dir: Path
    cells: Tuple[CellStatus, ...]

    @property
    def n_complete(self) -> int:
        return sum(1 for cell in self.cells if cell.complete)

    @property
    def complete(self) -> bool:
        return self.n_complete == len(self.cells)

    def table(self) -> str:
        lines = [
            f"campaign {self.name!r}: {self.n_complete}/{len(self.cells)} "
            f"cells complete ({self.out_dir})"
        ]
        width = max((len(c.cell_id) for c in self.cells), default=4)
        for cell in self.cells:
            state = (
                "done" if cell.complete
                else f"{cell.items_done}/{cell.items_total} items"
            )
            lines.append(f"  {cell.cell_id:<{width}}  {state}")
        return "\n".join(lines)


def campaign_status(
    out_dir: Union[str, Path], spec: Optional[CampaignSpec] = None
) -> CampaignStatus:
    """Inspect a campaign directory without executing anything.

    With ``spec`` given, its expansion defines the cell list (and the
    directory payload is checked against it); otherwise the cell ids are
    reconstructed from ``campaign.json``'s recorded factor grid by
    re-expanding the persisted payload.
    """
    out_dir = Path(out_dir)
    payload = read_campaign_payload(out_dir)
    if spec is not None and spec.to_payload() != payload:
        raise CampaignError(
            f"{out_dir} holds campaign {payload.get('name')!r} with a "
            "different spec than the one given"
        )
    if spec is None:
        spec = _spec_from_payload(payload)
    cells = spec.expand()
    items_total = spec.repetitions * len(spec.scenario.controllers)
    statuses = []
    for cell in cells:
        cell_dir = cell_directory(out_dir, cell.cell_id)
        done = read_cell_summary(cell_dir) is not None
        n_items = len(completed_items(cell_dir))
        statuses.append(
            CellStatus(
                cell_id=cell.cell_id,
                complete=done,
                items_done=items_total if done else n_items,
                items_total=spec.repetitions
                * len(cell.scenario.controllers),
            )
        )
    return CampaignStatus(
        name=spec.name, out_dir=out_dir, cells=tuple(statuses)
    )


def _spec_from_payload(payload: Dict) -> CampaignSpec:
    """Rebuild a :class:`CampaignSpec` from its ``campaign.json`` payload."""
    from repro.campaigns.spec import FactorAxis, OutageSpec, ScenarioSpec

    scenario_payload = dict(payload["scenario"])
    scenario_payload["controllers"] = tuple(scenario_payload["controllers"])
    scenario_payload["outages"] = tuple(
        OutageSpec(**row) for row in scenario_payload.get("outages", ())
    )
    factors = tuple(
        FactorAxis(path=row["path"], values=tuple(row["values"]))
        for row in payload.get("factors", ())
    )
    return CampaignSpec(
        name=payload["name"],
        seed=payload["seed"],
        repetitions=payload["repetitions"],
        confidence=payload.get("confidence", 0.95),
        demands_known=payload.get("demands_known", True),
        scenario=ScenarioSpec(**scenario_payload),
        factors=factors,
    )
