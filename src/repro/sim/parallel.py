"""The one execution engine for repetition studies, figures and campaigns.

Every figure in the paper is an average over 80 independently seeded
topologies (§VI), and a campaign is a grid of such studies.  Both run
through :func:`run_sweeps`, which takes a list of :class:`Sweep` specs and
drains all of their ``(repetition, controller)`` grids through one queue
while keeping results **bit-identical** for any worker count:

* every repetition derives its own :class:`~repro.utils.seeding.RngRegistry`
  via ``RngRegistry(seed).child(f"rep{r}")`` (:func:`repetition_registry`),
  and because all delay/demand realisations are slot-keyed (functions of
  ``(seed, slot)`` only, never of sampling order) a rebuilt world
  realises exactly the same trajectories as any other build of it;
* each controller reads its own named stream from the registry, so
  running controller ``j`` on its own consumes exactly the state it
  would have consumed next to its siblings.

**Units.**  The unfinished items of one ``(sweep, repetition)`` form one
dispatch unit: the executing process builds the world once and runs
every controller index of it that is not yet done.  Units are enqueued
longest-sweep-first, every completed item is streamed to the sweep's
directory as it lands, and a sweep's ``on_complete`` hook fires the
moment its grid is done.  Each executing process keeps a small LRU of
built worlds (``campaign.world_cache_hits`` / ``_misses``), reused only
for controller indices that have not yet run on the cached build.

**Execution.**  ``jobs=1`` drains the queue in-process through an
executor that returns completed futures — no pickling, and item
registries inherit the parent's trace writer.  Otherwise one persistent
process pool drains it; idle workers take the next unit whatever its
sweep (``campaign.items_stolen``).  The same bounded retry rounds serve
both, replacing a broken pool when a worker died hard.

Failure semantics: a work item that raises is captured as a
:class:`RepetitionFailure` (message + traceback + coordinates) and
excluded from aggregation instead of killing the study.  Without
retries, hard worker deaths (segfault, OOM-kill) propagate as
:class:`concurrent.futures.process.BrokenProcessPool` — infrastructure
errors, not scenario errors.

Scenario builders must be picklable for ``jobs != 1`` (a module-level
function, a ``functools.partial`` of one, or an instance of a picklable
callable class) because units carry them to worker processes.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.sim.config import RunConfig
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureSchedule
from repro.sim.metrics import SimulationResult
from repro.state import (
    WORK_RESULT_KIND,
    CheckpointConfig,
    SweepManifest,
    completed_items,
    finalise_controllers,
    load_checkpoint,
    result_path,
    save_checkpoint,
)
from repro.utils.seeding import RngRegistry
from repro.utils.validation import require_positive
from repro.workload.demand import DemandModel

__all__ = [
    "ScenarioBuilder",
    "Sweep",
    "World",
    "WorkItem",
    "WorkResult",
    "RepetitionFailure",
    "resolve_n_jobs",
    "repetition_registry",
    "run_sweeps",
]

logger = logging.getLogger(__name__)

# A scenario builder returns the world for one repetition.
ScenarioBuilder = Callable[
    [RngRegistry], Tuple[MECNetwork, DemandModel, List[Controller]]
]

#: One repetition's fully built scenario: network, demand model and the
#: controller line-up (indexable by ``WorkItem.controller_index``).
World = Tuple[MECNetwork, DemandModel, List[Controller]]

#: Environment marker set (via :func:`_mark_pool_worker`) in every process
#: a repro-owned pool spawns.  :func:`resolve_n_jobs` reads it to refuse
#: nested parallelism: code running inside a worker that forwards its own
#: ``n_jobs`` would otherwise multiply processes (campaign-wide workers ×
#: per-cell workers) and oversubscribe the machine.
_POOL_WORKER_ENV = "REPRO_POOL_WORKER"


def _mark_pool_worker() -> None:
    """Pool initializer: brand this process as a repro pool worker."""
    os.environ[_POOL_WORKER_ENV] = "1"


def make_worker_pool(n_workers: int) -> ProcessPoolExecutor:
    """A fork-preferring process pool whose workers carry the nested-
    parallelism marker (see :func:`resolve_n_jobs`).

    :func:`run_sweeps` creates every repro-owned pool through this
    factory, so the oversubscription guard holds everywhere.
    """
    require_positive("n_workers", n_workers)
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=_preferred_context(),
        initializer=_mark_pool_worker,
    )


def repetition_registry(seed: int, repetition: int) -> RngRegistry:
    """The canonical per-repetition registry: ``child(f"rep{r}")``.

    Every world is derived through this single helper, which is what makes
    results bit-identical across worker counts.
    """
    return RngRegistry(seed=seed).child(f"rep{repetition}")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` or ``0`` means "all cores"; negative values count back from
    the core count joblib-style (``-1`` == all cores, ``-2`` == all but
    one); positive values are taken literally.

    Inside a repro pool worker (marked by :func:`make_worker_pool`'s
    initializer) any multi-worker request is clamped to ``1`` with a
    warning: the process is already one of N workers, and spawning its
    own pool would oversubscribe the machine by the product of the two
    worker counts.
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        resolved = cores
    else:
        n_jobs = int(n_jobs)
        resolved = max(1, cores + 1 + n_jobs) if n_jobs < 0 else n_jobs
    if resolved > 1 and os.environ.get(_POOL_WORKER_ENV):
        logger.warning(
            "n_jobs=%r requested inside a pool worker; clamping to 1 "
            "(nested parallelism would oversubscribe the machine)",
            n_jobs,
        )
        return 1
    return resolved


@dataclass(frozen=True)
class WorkItem:
    """One cell of the repetition × controller grid."""

    repetition: int
    controller_index: int


@dataclass(frozen=True)
class RepetitionFailure:
    """A crashed work item: recorded, logged, excluded from summaries."""

    repetition: int
    controller_index: int
    controller_name: Optional[str]  # None when build() itself crashed
    error: str
    traceback: str

    def __str__(self) -> str:
        who = self.controller_name or f"controller#{self.controller_index}"
        return f"rep{self.repetition}/{who}: {self.error}"


@dataclass(frozen=True)
class WorkResult:
    """Outcome of one work item, successful or not, with timing.

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict of the
    telemetry the item recorded (None when collection was off) and ``pid``
    the process that executed it — the parent groups snapshots by ``pid``
    for the per-worker breakdown.
    """

    repetition: int
    controller_index: int
    controller_name: Optional[str]
    result: Optional[SimulationResult]
    error: Optional[str]
    error_traceback: Optional[str]
    wall_seconds: float
    cpu_seconds: float
    metrics: Optional[dict] = None
    pid: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def failure(self) -> RepetitionFailure:
        if self.ok:
            raise ValueError("work item succeeded; no failure to report")
        return RepetitionFailure(
            repetition=self.repetition,
            controller_index=self.controller_index,
            controller_name=self.controller_name,
            error=self.error,
            traceback=self.error_traceback or "",
        )


def _item_checkpoint(
    sweep_dir: Optional[Path], item: WorkItem, every: Optional[int]
) -> Optional[CheckpointConfig]:
    """Per-item engine checkpoint config (slot-level snapshots).

    Each work item gets its own snapshot directory so identically-named
    controllers in different repetitions cannot collide.  ``resume`` is
    always on: a fresh item simply has no snapshot to pick up, while a
    retried or restarted item continues from its last completed slots
    instead of replaying the whole horizon.
    """
    if sweep_dir is None or every is None:
        return None
    return CheckpointConfig(
        directory=sweep_dir
        / "slots"
        / f"rep{item.repetition:05d}-ctrl{item.controller_index:03d}",
        every_n_slots=every,
        resume=True,
    )


def build_world(build: ScenarioBuilder, seed: int, repetition: int) -> World:
    """Build one repetition's world from its canonical registry.

    Thin composition of ``build`` with :func:`repetition_registry`, so a
    world is always derived the same way.
    """
    return build(repetition_registry(seed, repetition))


def run_item_on_world(
    world: World,
    item: WorkItem,
    horizon: int,
    *,
    demands_known: bool = True,
    collect_metrics: bool = False,
    checkpoint: Optional[CheckpointConfig] = None,
    failures: Optional[FailureSchedule] = None,
    trace: Optional["obs.TraceWriter"] = None,
) -> WorkResult:
    """Run one controller of an already-built world; never raises.

    The core of every dispatch unit: all exceptions are converted to a
    failed :class:`WorkResult` so one bad item cannot kill a study.
    Because world realisations are slot-keyed and controller streams
    name-keyed, running item ``j`` on a shared world build is
    observationally identical to running it on a fresh rebuild — which
    is what lets a unit run several items of one repetition on one
    build.  With ``collect_metrics`` the item records into a fresh
    :class:`repro.obs.MetricsRegistry` whose snapshot rides back on the
    :class:`WorkResult` (plain dict — picklable); ``trace`` threads a
    parent trace writer into that registry (in-process callers only:
    writers are not picklable).  ``checkpoint`` enables the engine's
    slot-level snapshots for this item (see :func:`_item_checkpoint`);
    the snapshot is deleted once the item completes — the persisted work
    result is the durable artifact.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    name: Optional[str] = None
    registry = obs.MetricsRegistry(trace=trace) if collect_metrics else None
    try:
        network, demand_model, controllers = world
        controller = controllers[item.controller_index]
        name = controller.name
        result: Optional[SimulationResult] = run_simulation(
            network,
            demand_model,
            controller,
            horizon=horizon,
            demands_known=demands_known,
            metrics=registry,
            config=RunConfig.from_checkpoint_config(checkpoint),
            failures=failures,
        )
        if checkpoint is not None:
            snapshot = checkpoint.path_for(controller.name)
            if snapshot.exists():
                snapshot.unlink()
        error = None
        error_tb = None
    except Exception as exc:  # noqa: BLE001 — graceful degradation by design
        result = None
        error = f"{type(exc).__name__}: {exc}"
        error_tb = traceback.format_exc()
    return WorkResult(
        repetition=item.repetition,
        controller_index=item.controller_index,
        controller_name=name,
        result=result,
        error=error,
        error_traceback=error_tb,
        wall_seconds=time.perf_counter() - wall_start,
        cpu_seconds=time.process_time() - cpu_start,
        metrics=registry.snapshot() if registry is not None else None,
        pid=os.getpid(),
    )


def persist_work_result(directory: Path, item: WorkResult) -> None:
    """Write one completed work item's snapshot into the sweep directory."""
    if item.result is None:
        return
    path = result_path(directory, item.repetition, item.controller_index)
    with obs.span("state.save"):
        save_checkpoint(
            path,
            {
                "controller_name": item.controller_name,
                "result": item.result.state_dict(),
                "wall_seconds": item.wall_seconds,
                "cpu_seconds": item.cpu_seconds,
            },
            kind=WORK_RESULT_KIND,
            meta={
                "repetition": item.repetition,
                "controller_index": item.controller_index,
            },
        )
    obs.inc("state.save")


def load_work_result(
    directory: Path, repetition: int, controller_index: int
) -> WorkResult:
    """Rebuild a persisted work item as a completed :class:`WorkResult`.

    Telemetry snapshots are not persisted (they describe the original
    process), so resumed items carry ``metrics=None``.
    """
    path = result_path(directory, repetition, controller_index)
    with obs.span("state.load"):
        state, _meta = load_checkpoint(path, kind=WORK_RESULT_KIND)
    obs.inc("state.load")
    name = state.get("controller_name")
    return WorkResult(
        repetition=repetition,
        controller_index=controller_index,
        controller_name=str(name) if name is not None else None,
        result=SimulationResult.from_state(state["result"]),
        error=None,
        error_traceback=None,
        wall_seconds=float(state["wall_seconds"]),
        cpu_seconds=float(state["cpu_seconds"]),
        metrics=None,
        pid=0,
    )


def controller_names_from_results(
    results: Sequence[WorkResult],
) -> Dict[int, str]:
    """Controller index -> name mapping learned from successful items.

    Input shape for :func:`repro.state.finalise_controllers`: names are
    only trusted from items that completed (a failed item may not have
    reached controller construction).
    """
    names: Dict[int, str] = {}
    for item in results:
        if item.ok and item.controller_name is not None:
            names.setdefault(item.controller_index, item.controller_name)
    return names


@dataclass(frozen=True)
class Sweep:
    """One repetition study: ``repetitions`` seeded worlds of ``build``.

    ``directory`` persists every completed item next to a sweep manifest
    (see :mod:`repro.state.manifest`); it is also where a resumed run
    reads completed items back from.  ``n_controllers``, when known,
    lets a crashed world build fail every pending controller of its
    repetition; without it the crash is reported as one item, because
    the controller count is unknowable when ``build`` raises.
    """

    build: ScenarioBuilder
    seed: int
    repetitions: int
    horizon: int
    demands_known: bool = True
    failures: Optional[FailureSchedule] = None
    directory: Optional[Path] = None
    n_controllers: Optional[int] = None

    def __post_init__(self) -> None:
        require_positive("repetitions", self.repetitions)
        require_positive("horizon", self.horizon)
        if self.n_controllers is not None:
            require_positive("n_controllers", self.n_controllers)
        if self.directory is not None:
            object.__setattr__(self, "directory", Path(self.directory))


@dataclass(frozen=True)
class _Unit:
    """One dispatch unit: the unfinished items of one ``(sweep, repetition)``.

    Self-contained and picklable: a worker needs nothing but the unit to
    rebuild the repetition's world and run it.  Every controller index of
    the built world that is not in ``done`` runs.
    """

    index: int
    sweep: Sweep
    repetition: int
    done: FrozenSet[int]
    collect_metrics: bool
    checkpoint_every: Optional[int]

    def pending(self, n_controllers: int) -> Tuple[int, ...]:
        return tuple(i for i in range(n_controllers) if i not in self.done)

    def crashed(
        self, exc: Exception, wall: float, cpu: float, pid: int
    ) -> "_UnitOutcome":
        """The outcome of a unit whose world was never built.

        Call it from the ``except`` block that caught ``exc`` (it records
        the active traceback).  Without a controller count, the crash is
        one item at the lowest index not yet done.
        """
        error = f"{type(exc).__name__}: {exc}"
        error_tb = traceback.format_exc()
        if self.sweep.n_controllers is not None:
            indices = self.pending(self.sweep.n_controllers)
        else:
            indices = (min(set(range(len(self.done) + 1)) - self.done),)
        return _UnitOutcome(
            results=tuple(
                WorkResult(
                    repetition=self.repetition,
                    controller_index=index,
                    controller_name=None,
                    result=None,
                    error=error,
                    error_traceback=error_tb,
                    wall_seconds=wall,
                    cpu_seconds=cpu,
                    pid=pid,
                )
                for index in indices
            ),
            cache_hit=False,
        )


@dataclass(frozen=True)
class _UnitOutcome:
    """What a unit sends back: one :class:`WorkResult` per item it ran."""

    results: Tuple[WorkResult, ...]
    #: True when the executing process served the world from its cache.
    cache_hit: bool


# --------------------------------------------------------------------- #
# Executing side (a pool worker, or the parent with jobs=1)
# --------------------------------------------------------------------- #

#: Worlds kept per process (LRU by sweep index).  Small on purpose: a
#: world holds the full topology + requests + controller line-up, and
#: units are dispatched sweep-major, so capacity beyond a few sweeps buys
#: nothing.
_WORLD_CACHE_CAPACITY = 4


class _CachedWorld:
    """One cached build plus the controller indices already run on it."""

    __slots__ = ("repetition", "world", "used")

    def __init__(self, repetition: int, world: World, used: Set[int]) -> None:
        self.repetition = repetition
        self.world = world
        self.used = used


_WORLD_CACHE: "OrderedDict[int, _CachedWorld]" = OrderedDict()


def _cached_world(unit: _Unit) -> Tuple[World, Tuple[int, ...], bool]:
    """The unit's world and pending indices, from the cache when reusable.

    A cached build is only reusable for controller indices that have not
    run on it yet: controllers are stateful, and re-running one on a
    world it already consumed would continue from mutated state instead
    of reproducing a fresh run (the retry path hits exactly this).
    """
    entry = _WORLD_CACHE.get(unit.index)
    if entry is not None and entry.repetition == unit.repetition:
        pending = unit.pending(len(entry.world[2]))
        if not entry.used.intersection(pending):
            entry.used.update(pending)
            # _WORLD_CACHE is *designed* as per-process state: each pool
            # worker keeps its own LRU of world builds, and outcomes are
            # pure functions of the unit, so divergence between workers'
            # caches cannot change results.
            # repro: allow[MP002] -- intentional per-worker world-build LRU
            _WORLD_CACHE.move_to_end(unit.index)
            return entry.world, pending, True
    world = build_world(unit.sweep.build, unit.sweep.seed, unit.repetition)
    pending = unit.pending(len(world[2]))
    # repro: allow[MP002] -- intentional per-worker world cache, see above
    _WORLD_CACHE[unit.index] = _CachedWorld(unit.repetition, world, set(pending))
    # repro: allow[MP002] -- intentional per-worker world cache, see above
    _WORLD_CACHE.move_to_end(unit.index)
    while len(_WORLD_CACHE) > _WORLD_CACHE_CAPACITY:
        # repro: allow[MP002] -- intentional per-worker world cache, see above
        _WORLD_CACHE.popitem(last=False)
    return world, pending, False


def _execute_unit(
    unit: _Unit, trace: Optional["obs.TraceWriter"] = None
) -> _UnitOutcome:
    """Run every pending item of one unit on a single world build.

    Never raises for scenario errors: a build crash fails the unit's
    pending items (see :meth:`_Unit.crashed`), and item-level errors are
    captured per item by :func:`run_item_on_world`, so one bad
    controller cannot take its siblings down.  ``trace`` is the parent's
    trace writer, passed only in-process (writers are not picklable).
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        world, pending, cache_hit = _cached_world(unit)
    except Exception as exc:  # noqa: BLE001 — reported per item, never fatal
        return unit.crashed(
            exc,
            time.perf_counter() - wall_start,
            time.process_time() - cpu_start,
            os.getpid(),
        )
    sweep = unit.sweep
    results = []
    for index in pending:
        item = WorkItem(repetition=unit.repetition, controller_index=index)
        results.append(
            run_item_on_world(
                world,
                item,
                sweep.horizon,
                demands_known=sweep.demands_known,
                collect_metrics=unit.collect_metrics,
                checkpoint=_item_checkpoint(
                    sweep.directory, item, unit.checkpoint_every
                ),
                failures=sweep.failures,
                trace=trace,
            )
        )
    return _UnitOutcome(results=tuple(results), cache_hit=cache_hit)


class _InlineExecutor:
    """The ``jobs=1`` executor: runs each submission at once, in-process.

    It returns already-completed futures, so the engine drains the same
    queue with the same retry code as for a pool, without pickling.  The
    in-process world cache lives exactly as long as the executor: a later
    call with the same sweep indices must rebuild its worlds.
    """

    def __init__(self) -> None:
        _WORLD_CACHE.clear()

    def submit(self, fn: Callable[..., _UnitOutcome], *args: object) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — re-raised by result()
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        _WORLD_CACHE.clear()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


@dataclass
class _SweepState:
    """Parent-side execution state of one sweep."""

    sweep: Sweep
    manifest: Optional[SweepManifest]
    #: (repetition, controller_index) -> result; starts with the items
    #: loaded back on resume and grows as units stream in.
    results: Dict[Tuple[int, int], WorkResult] = field(default_factory=dict)
    #: Units submitted and not yet returned.
    outstanding: int = 0
    finished: bool = False

    @classmethod
    def open(cls, sweep: Sweep, resume: bool) -> "_SweepState":
        """Write the sweep manifest; on resume, load completed items."""
        if sweep.directory is None:
            return cls(sweep=sweep, manifest=None)
        manifest = SweepManifest(
            seed=int(sweep.seed),
            repetitions=int(sweep.repetitions),
            horizon=int(sweep.horizon),
            demands_known=bool(sweep.demands_known),
        )
        loaded: Dict[Tuple[int, int], WorkResult] = {}
        if resume and SweepManifest.exists(sweep.directory):
            SweepManifest.read(sweep.directory).require_compatible(manifest)
            for (r, c), _path in sorted(completed_items(sweep.directory).items()):
                if r < sweep.repetitions:
                    loaded[(r, c)] = load_work_result(sweep.directory, r, c)
        manifest.write(sweep.directory)
        return cls(sweep=sweep, manifest=manifest, results=loaded)

    def ordered(self) -> List[WorkResult]:
        """Results in the serial ``(repetition, controller)`` order."""
        return sorted(
            self.results.values(),
            key=lambda r: (r.repetition, r.controller_index),
        )

    def done(self, repetition: int) -> FrozenSet[int]:
        return frozenset(
            c for (r, c), item in self.results.items()
            if r == repetition and item.ok
        )

    def unfinished(self) -> List[int]:
        """Repetitions not known to be complete (first round)."""
        n = self.sweep.n_controllers
        return [
            r for r in range(self.sweep.repetitions)
            if n is None or len(self.done(r)) < n
        ]

    def failed(self) -> List[int]:
        """Repetitions carrying a failed item (retry rounds)."""
        return sorted({r for (r, _c), item in self.results.items() if not item.ok})


def run_sweeps(
    sweeps: Sequence[Sweep],
    *,
    config: Optional[RunConfig] = None,
    on_complete: Optional[Callable[[int, List[WorkResult]], None]] = None,
) -> List[List[WorkResult]]:
    """Execute every sweep's ``(repetition, controller)`` grid; one queue.

    Returns, per sweep, one :class:`WorkResult` per item sorted by
    ``(repetition, controller_index)`` — the serial iteration order —
    whatever order the items completed in.

    ``config`` supplies the execution knobs:

    * ``jobs`` — ``1`` drains the queue in-process (no pickling; item
      registries inherit the parent's trace writer, so ``--trace`` is
      complete); anything else drains it through one persistent process
      pool of that many workers (the builders must be picklable).
    * ``collect_metrics`` — tri-state: ``True`` attaches a telemetry
      snapshot to every :class:`WorkResult` and merges it into the active
      registry; ``None`` auto-enables when a registry is active; ``False``
      keeps collection off.
    * ``retries`` — bounded retry rounds: after a round every failed item
      is re-executed on the same pool (a broken pool, surfacing as
      ``BrokenProcessPool``, is replaced first, so hard worker deaths
      are retried too).  Worlds are slot-keyed and controller streams
      name-keyed, so a retried item reproduces exactly the result an
      untroubled first attempt would have had.  With ``0``, pool
      infrastructure errors propagate and scenario failures stay
      recorded.
    * ``resume`` — load the completed items of each sweep's directory
      back (after a manifest identity check) and run only the rest.
    * ``checkpoint_every`` — slot-level snapshots inside each item under
      ``<directory>/slots/``, so a killed or retried item resumes
      mid-horizon; every sweep then needs a ``directory``.

    ``config.checkpoint_dir`` is not read: each sweep names its own
    directory.  Units are enqueued longest-sweep-first (pending units ×
    horizon), so big sweeps start first and small ones fill the tail.
    ``on_complete(index, results)`` runs once per sweep when its grid is
    done: as soon as its last unit lands with no failures, or after the
    retry rounds otherwise.
    """
    config = config if config is not None else RunConfig()
    sweeps = list(sweeps)
    if config.checkpoint_every is not None and any(
        sweep.directory is None for sweep in sweeps
    ):
        raise ValueError("checkpoint_every requires checkpoint_dir")
    workers = resolve_n_jobs(config.jobs)
    parent = obs.active_registry()
    collect = (
        parent is not None
        if config.collect_metrics is None
        else config.collect_metrics
    )
    trace = parent.trace if parent is not None and workers == 1 else None
    states = [_SweepState.open(sweep, config.resume) for sweep in sweeps]
    last_sweep_by_pid: Dict[int, int] = {}

    def finish(index: int) -> None:
        state = states[index]
        state.finished = True
        results = state.ordered()
        if state.manifest is not None and state.sweep.directory is not None:
            finalise_controllers(
                state.sweep.directory,
                state.manifest,
                controller_names_from_results(results),
            )
        obs.inc("campaign.cells_completed")
        if on_complete is not None:
            on_complete(index, results)

    def units(pick: Callable[[_SweepState], List[int]]) -> List[_Unit]:
        """Units of every open sweep, longest-sweep-first (ties by index)."""
        batches = [
            [
                _Unit(
                    index=index,
                    sweep=state.sweep,
                    repetition=repetition,
                    done=state.done(repetition),
                    collect_metrics=collect,
                    checkpoint_every=config.checkpoint_every,
                )
                for repetition in pick(state)
            ]
            for index, state in enumerate(states)
            if not state.finished
        ]
        # A stable sort: sweeps of equal length keep their order.
        batches.sort(
            key=lambda batch: -len(batch) * batch[0].sweep.horizon if batch else 0
        )
        return [unit for batch in batches for unit in batch]

    def handle(unit: _Unit, outcome: _UnitOutcome) -> None:
        state = states[unit.index]
        pid = outcome.results[0].pid if outcome.results else 0
        if pid:
            previous = last_sweep_by_pid.get(pid)
            if previous is not None and previous != unit.index:
                obs.inc("campaign.items_stolen", len(outcome.results))
            last_sweep_by_pid[pid] = unit.index
        if outcome.cache_hit:
            obs.inc("campaign.world_cache_hits")
        else:
            obs.inc("campaign.world_cache_misses")
        for item in outcome.results:
            if state.sweep.directory is not None and item.ok:
                persist_work_result(state.sweep.directory, item)
            if parent is not None and item.metrics is not None:
                parent.merge(obs.MetricsRegistry.from_snapshot(item.metrics))
            state.results[(item.repetition, item.controller_index)] = item
        state.outstanding -= 1
        obs.gauge(
            "campaign.cells_in_flight",
            sum(1 for s in states if s.outstanding > 0),
        )
        # Stream the sweep out the moment its grid is clean; one carrying
        # failures waits for the retry rounds so they can still amend it.
        if state.outstanding == 0 and all(
            item.ok for item in state.results.values()
        ):
            finish(unit.index)

    def drain(
        executor: Union[_InlineExecutor, ProcessPoolExecutor],
        batch: List[_Unit],
        capture: bool,
    ) -> bool:
        """Run ``batch``, handling outcomes as they land; True if pool ok."""
        pool_ok = True

        def outcome_of(future: Future, unit: _Unit) -> _UnitOutcome:
            nonlocal pool_ok
            try:
                return future.result()
            except Exception as exc:  # noqa: BLE001 — retried next round
                if not capture:
                    raise
                pool_ok = False
                return unit.crashed(exc, wall=0.0, cpu=0.0, pid=0)

        for unit in batch:
            states[unit.index].outstanding += 1
        in_flight: Dict[Future, _Unit] = {}
        for unit in batch:
            future = executor.submit(_execute_unit, unit, trace)
            if future.done():  # in-process: stream before the next unit
                handle(unit, outcome_of(future, unit))
            else:
                in_flight[future] = unit
        for future in as_completed(in_flight):
            unit = in_flight[future]
            handle(unit, outcome_of(future, unit))
        return pool_ok

    def executor_for(n_units: int) -> Union[_InlineExecutor, ProcessPoolExecutor]:
        if workers == 1:
            return _InlineExecutor()
        return make_worker_pool(min(workers, n_units))

    batch = units(_SweepState.unfinished)
    obs.inc("campaign.units_dispatched", len(batch))
    if batch:
        executor = executor_for(len(batch))
        try:
            pool_ok = drain(executor, batch, capture=config.retries > 0)
            for _round in range(config.retries):
                failed = [
                    item
                    for state in states
                    if not state.finished
                    for item in state.results.values()
                    if not item.ok
                ]
                if not failed:
                    break
                obs.inc("sim.retries", len(failed))
                batch = units(_SweepState.failed)
                # Retries reuse the persistent pool; only a broken one
                # (hard worker death) is torn down and replaced.
                if not pool_ok:
                    executor.shutdown(wait=False)
                    executor = executor_for(len(batch))
                pool_ok = drain(executor, batch, capture=True)
        finally:
            executor.shutdown()

    # Whatever did not stream out above: sweeps whose items were all on
    # disk already, and sweeps that kept failures past the retry budget.
    for index, state in enumerate(states):
        if not state.finished:
            finish(index)
    return [state.ordered() for state in states]


def _preferred_context() -> Optional[multiprocessing.context.BaseContext]:
    """Fork where available: cheap start-up and inherited ``sys.path``.

    On platforms without fork (Windows/macOS-spawn) the default context is
    used; scenario builders then additionally need to live in importable
    modules.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None
