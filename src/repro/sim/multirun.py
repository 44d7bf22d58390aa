"""Multi-repetition orchestration: means, spreads, confidence intervals.

The paper averages every figure over 80 topologies.  This module makes
that pattern a first-class, tested utility: run a scenario across
independently-seeded repetitions and aggregate any scalar metric with a
normal-approximation confidence interval, plus a paired comparison helper
(:func:`compare_controllers`) that reports whether one controller beats
another consistently across seeds (sign test + paired mean difference).

Execution is delegated to the engine in :mod:`repro.sim.parallel` as one
:class:`~repro.sim.parallel.Sweep`: ``jobs=1`` (default) runs in-process,
``jobs>1`` fans the ``(repetition, controller)`` grid over a process pool
with bit-identical results (see :mod:`repro.sim.parallel` for the
determinism argument).
Crashed repetitions are recorded in :attr:`RepetitionStudy.failures` and
excluded from the summaries instead of killing the study.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.obs import MetricsRegistry
from repro.sim.config import RunConfig
from repro.sim.failures import FailureSchedule
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import (
    RepetitionFailure,
    ScenarioBuilder,
    Sweep,
    WorkResult,
    resolve_n_jobs,
    run_sweeps,
)
from repro.utils.validation import require_open_probability, require_positive

__all__ = [
    "MetricSummary",
    "RepetitionStudy",
    "RepetitionFailure",
    "aggregate_work_results",
    "default_skip_warmup",
    "run_repetitions",
    "compare_controllers",
    "PairedComparison",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetricSummary:
    """Mean / spread / CI of one scalar metric across repetitions.

    ``repetitions[i]`` is the repetition index that produced
    ``values[i]`` — the key :func:`compare_controllers` pairs on.  When a
    repetition crashed for this controller, its index is simply absent.
    """

    name: str
    values: Tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float
    repetitions: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.repetitions:
            # Summaries built from bare value lists (no repetition
            # provenance) default to positional indices.
            object.__setattr__(
                self, "repetitions", tuple(range(len(self.values)))
            )
        if len(self.repetitions) != len(self.values):
            raise ValueError(
                f"{len(self.repetitions)} repetition keys for "
                f"{len(self.values)} values"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    def by_repetition(self) -> Dict[int, float]:
        """``repetition -> value`` (what paired comparisons join on)."""
        return dict(zip(self.repetitions, self.values))


def _summarise(
    name: str,
    values: Sequence[float],
    confidence: float,
    repetitions: Optional[Sequence[int]] = None,
) -> MetricSummary:
    # The closed endpoints are rejected: t.ppf(1.0) is +inf (an infinite
    # CI) and confidence=0 is a zero-width interval nobody means to ask for.
    require_open_probability("confidence", confidence)
    array = np.asarray(list(values), dtype=float)
    mean = float(array.mean())
    std = float(array.std(ddof=1)) if array.size > 1 else 0.0
    if array.size > 1 and std > 0:
        margin = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=array.size - 1)
        half_width = margin * std / math.sqrt(array.size)
    else:
        half_width = 0.0
    return MetricSummary(
        name=name,
        values=tuple(float(v) for v in array),
        mean=mean,
        std=std,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        repetitions=(
            tuple(int(r) for r in repetitions) if repetitions is not None else ()
        ),
    )


@dataclass
class RepetitionStudy:
    """Results of a repeated scenario: per-controller metric summaries.

    Besides the summaries, the study carries the execution accounting of
    the run that produced it: worker count, wall-clock versus summed
    CPU-seconds of the work items, and any failed repetitions (crashes are
    recorded here and excluded from the summaries, never fatal).
    """

    horizon: int
    repetitions: int
    # controller name -> metric name -> summary
    summaries: Dict[str, Dict[str, MetricSummary]]
    # controller name -> raw per-repetition results
    raw: Dict[str, List[SimulationResult]]
    # ---- execution accounting -------------------------------------- #
    n_jobs: int = 1
    wall_clock_seconds: float = 0.0
    cpu_seconds: float = 0.0          # summed across work items
    completed_runs: int = 0           # successful (repetition, controller) items
    failures: List[RepetitionFailure] = field(default_factory=list)
    # ---- telemetry (populated with collect_metrics=True) ------------- #
    #: Aggregate registry merged across every work item (None when off).
    metrics: Optional[MetricsRegistry] = None
    #: Per-worker registries keyed by the executing pid; with ``n_jobs=1``
    #: there is exactly one entry (the parent process).
    worker_metrics: Dict[int, MetricsRegistry] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        """Work items that crashed and were excluded from the summaries."""
        return len(self.failures)

    @property
    def runs_per_second(self) -> float:
        """Completed (repetition, controller) runs per wall-clock second."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.completed_runs / self.wall_clock_seconds

    @property
    def parallel_efficiency(self) -> float:
        """CPU-seconds per wall-clock-second, normalised by worker count.

        1.0 means every worker was busy the whole time; values sink with
        pool start-up cost, stragglers, and (single-core) oversubscription.
        """
        if self.wall_clock_seconds <= 0 or self.n_jobs <= 0:
            return 0.0
        return self.cpu_seconds / (self.wall_clock_seconds * self.n_jobs)

    def timing_table(self) -> str:
        """Aligned text block of the execution accounting."""
        lines = [
            f"{'workers':<22} {self.n_jobs}",
            f"{'wall clock [s]':<22} {self.wall_clock_seconds:.3f}",
            f"{'cpu total [s]':<22} {self.cpu_seconds:.3f}",
            f"{'completed runs':<22} {self.completed_runs}",
            f"{'failed runs':<22} {self.n_failed}",
            f"{'runs / second':<22} {self.runs_per_second:.3f}",
            f"{'parallel efficiency':<22} {self.parallel_efficiency:.2f}",
        ]
        return "\n".join(lines)

    def metrics_table(self) -> str:
        """Aggregate + per-worker telemetry tables (next to timing_table).

        Requires the study to have been run with ``collect_metrics=True``.
        """
        if self.metrics is None:
            raise ValueError(
                "study carries no telemetry; run with collect_metrics=True"
            )
        blocks = ["== aggregate ==", self.metrics.table()]
        for pid in sorted(self.worker_metrics):
            blocks.append(f"== worker pid {pid} ==")
            blocks.append(self.worker_metrics[pid].table())
        return "\n".join(blocks)

    def summary(self, controller: str, metric: str) -> MetricSummary:
        if controller not in self.summaries:
            raise KeyError(
                f"no controller {controller!r}; have {sorted(self.summaries)}"
            )
        metrics = self.summaries[controller]
        if metric not in metrics:
            raise KeyError(f"no metric {metric!r}; have {sorted(metrics)}")
        return metrics[metric]

    def table(self, metric: str = "mean_delay_ms") -> str:
        """Aligned text table of one metric across controllers."""
        lines = [
            f"{'controller':<16} {'mean':>10} {'std':>10} {'95% CI':>23}  (n={self.repetitions})"
        ]
        for name in sorted(self.summaries):
            s = self.summary(name, metric)
            lines.append(
                f"{name:<16} {s.mean:>10.3f} {s.std:>10.3f} "
                f"[{s.ci_low:>9.3f}, {s.ci_high:>9.3f}]"
            )
        return "\n".join(lines)


def default_skip_warmup(horizon: int) -> int:
    """The default warm-up slots dropped from delay averages.

    A quarter of the horizon, clamped so short horizons keep at least one
    measured slot (the bare ``max(horizon // 4, 1)`` made ``horizon=1``
    skip its only slot).
    """
    return max(min(horizon - 1, max(horizon // 4, 1)), 0)


def aggregate_work_results(
    work_results: Sequence[WorkResult],
    *,
    horizon: int,
    repetitions: int,
    confidence: float = 0.95,
    skip_warmup: Optional[int] = None,
    n_jobs: int = 1,
    wall_clock_seconds: float = 0.0,
) -> RepetitionStudy:
    """Aggregate a stream of work items into a :class:`RepetitionStudy`.

    The single summarisation path shared by :func:`run_repetitions` and
    :func:`repro.campaigns.run_campaign`: however the ``(repetition,
    controller)`` grid was executed, the same per-controller metric
    summaries (``mean_delay_ms``, ``mean_decision_s``, ``total_churn``)
    come out of the same work-item stream — which is what makes them
    bit-identical across worker counts and resumes.  ``work_results``
    may arrive in any order; items are sorted into the serial
    ``(repetition, controller)`` iteration order first.  Failed items are recorded in the study's ``failures``
    and excluded; when *every* item failed, a :class:`RuntimeError`
    carries the first traceback.  ``n_jobs`` and ``wall_clock_seconds``
    only fill the study's execution accounting.
    """
    require_positive("horizon", horizon)
    require_positive("repetitions", repetitions)
    if skip_warmup is None:
        skip_warmup = default_skip_warmup(horizon)
    if skip_warmup >= horizon:
        raise ValueError(
            f"skip_warmup ({skip_warmup}) must be below horizon ({horizon})"
        )
    work_results = sorted(
        work_results, key=lambda r: (r.repetition, r.controller_index)
    )

    aggregate_metrics: Optional[MetricsRegistry] = None
    worker_metrics: Dict[int, MetricsRegistry] = {}
    for item in work_results:
        if item.metrics is None:
            continue
        snapshot = MetricsRegistry.from_snapshot(item.metrics)
        if aggregate_metrics is None:
            aggregate_metrics = MetricsRegistry()
        aggregate_metrics.merge(snapshot)
        per_worker = worker_metrics.setdefault(item.pid, MetricsRegistry())
        per_worker.merge(snapshot)

    # metric values are keyed by the repetition that produced them, so a
    # paired comparison can join on repetition instead of list position
    # (failures drop per (repetition, controller) item — positions lie).
    metric_values: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    raw: Dict[str, List[SimulationResult]] = {}
    failed_items: List[RepetitionFailure] = []
    completed = 0
    for item in work_results:
        if not item.ok:
            failed_items.append(item.failure())
            continue
        completed += 1
        result = item.result
        store = metric_values.setdefault(item.controller_name, {})
        store.setdefault("mean_delay_ms", []).append(
            (item.repetition, result.mean_delay_ms(skip_warmup=skip_warmup))
        )
        store.setdefault("mean_decision_s", []).append(
            (item.repetition, result.mean_decision_seconds())
        )
        store.setdefault("total_churn", []).append(
            (item.repetition, float(result.cache_churn.sum()))
        )
        raw.setdefault(item.controller_name, []).append(result)

    if failed_items:
        for failure in failed_items:
            logger.warning("repetition failed: %s", failure)
        logger.warning(
            "%d of %d runs failed and were excluded from the summaries",
            len(failed_items),
            len(work_results),
        )
    if not metric_values:
        details = "\n".join(f.traceback for f in failed_items[:1])
        raise RuntimeError(
            f"all {len(work_results)} runs failed; first traceback:\n{details}"
        )

    summaries = {
        name: {
            metric: _summarise(
                metric,
                [value for _, value in pairs],
                confidence,
                repetitions=[rep for rep, _ in pairs],
            )
            for metric, pairs in metrics.items()
        }
        for name, metrics in metric_values.items()
    }
    return RepetitionStudy(
        horizon=horizon,
        repetitions=repetitions,
        summaries=summaries,
        raw=raw,
        n_jobs=n_jobs,
        wall_clock_seconds=wall_clock_seconds,
        cpu_seconds=float(sum(r.cpu_seconds for r in work_results)),
        completed_runs=completed,
        failures=failed_items,
        metrics=aggregate_metrics,
        worker_metrics=worker_metrics,
    )


def run_repetitions(
    build: ScenarioBuilder,
    seed: int,
    repetitions: int,
    horizon: int,
    *,
    demands_known: bool = True,
    skip_warmup: Optional[int] = None,
    confidence: float = 0.95,
    config: Optional[RunConfig] = None,
    n_controllers: Optional[int] = None,
    failures: Optional[FailureSchedule] = None,
) -> RepetitionStudy:
    """Run ``build`` across ``repetitions`` seeds and aggregate metrics.

    ``build`` receives a per-repetition :class:`RngRegistry` and returns
    ``(network, demand_model, controllers)``; every controller is run on
    the same world of its repetition.  Aggregated metrics per controller:
    ``mean_delay_ms``, ``mean_decision_s``, ``total_churn``.

    ``config`` (a :class:`repro.sim.RunConfig`) carries the execution
    knobs — one spelling shared with every other entry point:

    * ``jobs`` selects the execution mode: ``1`` (default) runs
      in-process, anything else fans the ``(repetition, controller)``
      grid over a process pool (``None``/``0`` = all cores, negative =
      joblib-style count-back) with bit-identical summaries.  The
      builder must be picklable for ``jobs != 1``.
    * ``collect_metrics`` is a tri-state: ``True`` records
      :mod:`repro.obs` telemetry per work item and attaches the merged
      aggregate (``study.metrics``) and the per-worker breakdown
      (``study.worker_metrics``, keyed by executing pid) to the study —
      rendered by :meth:`RepetitionStudy.metrics_table`; ``None``
      (default) auto-enables collection when a registry is active in
      the calling process; ``False`` keeps collection off
      unconditionally, active registry or not.
    * ``retries`` re-executes crashed work items (bounded rounds) before
      recording them as failures; ``checkpoint_dir`` / ``resume``
      persist completed items so an interrupted sweep restarted with
      ``resume=True`` executes only the missing items, and
      ``checkpoint_every`` adds slot-level snapshots inside each item —
      see :func:`repro.sim.parallel.run_sweeps` for the exact semantics.

    ``n_controllers`` (optional) lets a crashed world build be recorded
    as one failure per controller instead of a single failed item.

    A work item that raises is recorded in the study's ``failures`` with
    its traceback and excluded from the summaries; the count is logged.

    ``failures`` applies one scripted
    :class:`~repro.sim.failures.FailureSchedule` (station outages /
    capacity degradations) inside every repetition's run.
    """
    require_positive("repetitions", repetitions)
    require_positive("horizon", horizon)
    require_open_probability("confidence", confidence)
    if skip_warmup is None:
        skip_warmup = default_skip_warmup(horizon)
    if skip_warmup >= horizon:
        raise ValueError(
            f"skip_warmup ({skip_warmup}) must be below horizon ({horizon})"
        )
    config = config if config is not None else RunConfig()
    workers = resolve_n_jobs(config.jobs)
    wall_start = time.perf_counter()
    [work_results] = run_sweeps(
        [
            Sweep(
                build,
                seed=seed,
                repetitions=repetitions,
                horizon=horizon,
                demands_known=demands_known,
                failures=failures,
                directory=config.checkpoint_dir,
                n_controllers=n_controllers,
            )
        ],
        config=replace(config, jobs=workers),
    )
    return aggregate_work_results(
        work_results,
        horizon=horizon,
        repetitions=repetitions,
        confidence=confidence,
        skip_warmup=skip_warmup,
        n_jobs=workers,
        wall_clock_seconds=time.perf_counter() - wall_start,
    )


@dataclass(frozen=True)
class PairedComparison:
    """Paired across-seed comparison of two controllers on one metric.

    Pairs are joined by repetition index, not list position: when a
    repetition crashed for exactly one of the two controllers, it cannot
    be paired and is reported in ``dropped_repetitions`` instead of being
    silently matched against a different world.
    """

    metric: str
    name_a: str
    name_b: str
    mean_difference: float  # mean(b - a): positive => a is better (lower)
    wins_a: int
    wins_b: int
    ties: int
    sign_test_p: float
    #: Repetition indices actually paired (present for both controllers).
    paired_repetitions: Tuple[int, ...] = ()
    #: Repetitions with a value for exactly one controller — unpaired.
    dropped_repetitions: Tuple[int, ...] = ()

    @property
    def n_pairs(self) -> int:
        return len(self.paired_repetitions)

    @property
    def a_wins_majority(self) -> bool:
        return self.wins_a > self.wins_b


def compare_controllers(
    study: RepetitionStudy,
    name_a: str,
    name_b: str,
    metric: str = "mean_delay_ms",
) -> PairedComparison:
    """Paired comparison: per-seed differences, win counts, sign test.

    The two controllers must have been run in the same study (same worlds
    per repetition), which is what makes the pairing valid.  Values are
    joined on their repetition index: a repetition missing on one side
    (its work item crashed) is dropped from the pairing and surfaced in
    :attr:`PairedComparison.dropped_repetitions` — the previous positional
    zip silently compared different worlds whenever the two controllers
    failed on *different* repetitions (equal-length lists, shifted keys).
    """
    a = study.summary(name_a, metric).by_repetition()
    b = study.summary(name_b, metric).by_repetition()
    common = sorted(set(a) & set(b))
    dropped = tuple(sorted(set(a) ^ set(b)))
    if not common:
        raise ValueError(
            f"controllers {name_a!r} and {name_b!r} share no completed "
            f"repetitions on {metric!r}; nothing to pair"
        )
    if dropped:
        logger.warning(
            "paired comparison %s vs %s: repetitions %s completed for only "
            "one controller and were dropped from the pairing",
            name_a,
            name_b,
            list(dropped),
        )
    differences = np.asarray([b[rep] - a[rep] for rep in common])
    wins_a = int(np.sum(differences > 0))
    wins_b = int(np.sum(differences < 0))
    ties = int(np.sum(differences == 0))
    decisive = wins_a + wins_b
    if decisive > 0:
        sign_p = float(
            scipy_stats.binomtest(wins_a, decisive, 0.5).pvalue
        )
    else:
        sign_p = 1.0
    return PairedComparison(
        metric=metric,
        name_a=name_a,
        name_b=name_b,
        mean_difference=float(differences.mean()),
        wins_a=wins_a,
        wins_b=wins_b,
        ties=ties,
        sign_test_p=sign_p,
        paired_repetitions=tuple(common),
        dropped_repetitions=dropped,
    )
