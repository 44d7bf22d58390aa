"""The time-slot simulation loop.

One slot of :func:`run_simulation`:

1. the demand model realises `rho_l(t)` (Eq. 1);
2. the controller decides (timed — this is the running-time series of the
   paper's (b) sub-figures), seeing the true demands only in the
   given-demands setting;
3. the delay process realises `d_i(t)` and the assignment's cost is
   evaluated (extended Eq. 3, see :mod:`repro.core.assignment`);
4. optionally, the clairvoyant optimum of the slot is computed for regret;
5. the controller observes the realised demands and the delays of the
   stations it played.

The :class:`~repro.utils.timer.Stopwatch` laps remain the *public* timing
series (the figures' runtime panels); each phase is additionally wrapped
in a :mod:`repro.obs` span (``sim.decide``, ``sim.evaluate``,
``sim.optimal``, ``sim.observe``) so an activated registry — or the
``metrics`` argument — sees the per-slot decomposition.  With telemetry
off (the default) the spans are shared no-ops.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro import obs
from repro.core.assignment import Assignment, SlotEvaluator
from repro.core.controller import Controller
from repro.core.optimal import clairvoyant_cost, clairvoyant_cost_exact
from repro.mec.network import MECNetwork
from repro.sim.config import RunConfig
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.state import (
    SIMULATION_KIND,
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.timer import Stopwatch
from repro.utils.validation import require_positive
from repro.workload.demand import DemandModel

if TYPE_CHECKING:  # imported lazily at runtime: failures.py imports us
    from repro.sim.failures import FailureSchedule

__all__ = ["run_simulation"]

#: Floor left on a fully-failed station so utilisation ratios stay finite;
#: no request fits in it.
_OUTAGE_EPSILON_MHZ = 1e-6


def run_simulation(
    network: MECNetwork,
    demand_model: DemandModel,
    controller: Controller,
    horizon: int,
    *,
    demands_known: bool = True,
    compute_optimal: bool = False,
    exact_optimal: bool = False,
    metrics: Optional["obs.MetricsRegistry"] = None,
    config: Optional[RunConfig] = None,
    failures: Optional["FailureSchedule"] = None,
    dtype: DTypeLike = np.float64,
) -> SimulationResult:
    """Run ``controller`` for ``horizon`` slots; returns the metric series.

    ``demands_known`` selects the §IV setting (true demands passed to the
    controller) versus the §V setting (controller predicts internally).
    ``compute_optimal`` additionally solves the slot's clairvoyant LP
    (``exact_optimal`` upgrades it to the exact ILP — small instances
    only); the optimum lands in each record for regret tracking.
    ``metrics`` activates the given :class:`repro.obs.MetricsRegistry` for
    the duration of the run; when omitted, whatever registry is already
    active (e.g. installed by the CLI) keeps receiving the spans.

    ``config`` (a :class:`repro.sim.RunConfig`) carries the execution
    knobs this entry point reads: ``checkpoint_dir`` /
    ``checkpoint_every`` / ``resume`` enable crash-tolerant snapshots —
    the run writes a snapshot of the controller, demand-model identity
    and record series every ``checkpoint_every`` completed slots, and
    with ``resume=True`` restores an existing snapshot and continues
    from the next slot.  A resumed run over a same-seeded world
    reproduces the uninterrupted run's series bit-identically (timing
    columns excepted — wall-clock is re-measured).  The snapshot does
    not pin the horizon, so a run can resume into a longer horizon than
    it was interrupted at.

    ``failures`` applies a :class:`repro.sim.failures.FailureSchedule`
    around each slot: scheduled capacity factors are written to the live
    station objects before the controller decides (so its LP/packing sees
    the outage) and the original capacities are restored when the run
    ends, even on error.  A full outage leaves an epsilon capacity so
    utilisation ratios stay finite.

    ``dtype`` selects the working precision of the slot evaluator's
    cached arrays (see :class:`repro.core.assignment.SlotEvaluator`);
    ``"float32"`` halves evaluation memory traffic on 10^5-request runs,
    while the default float64 keeps the documented bit-identical
    semantics.
    """
    require_positive("horizon", horizon)
    if demand_model.n_requests != controller.n_requests:
        raise ValueError(
            f"demand model covers {demand_model.n_requests} requests, "
            f"controller expects {controller.n_requests}"
        )
    run_config = config if config is not None else RunConfig()
    with obs.activate(metrics) if metrics is not None else _KEEP_ACTIVE:
        return _run_loop(
            network,
            demand_model,
            controller,
            horizon,
            demands_known,
            compute_optimal,
            exact_optimal,
            run_config.to_checkpoint_config(),
            failures,
            dtype,
        )


class _KeepActive:
    """No-op stand-in for ``obs.activate`` when no registry is passed."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_KEEP_ACTIVE = _KeepActive()


def _write_snapshot(
    path: Path,
    controller: Controller,
    demand_model: DemandModel,
    result: SimulationResult,
    previous: Assignment,
    demands_known: bool,
) -> None:
    """Snapshot everything a resumed run needs to continue bit-identically.

    The previous slot's station assignment travels too: churn is measured
    *between* slots, so the first resumed slot needs the last executed
    assignment to keep the churn series identical.
    """
    state = {
        "controller_name": controller.name,
        "controller": controller.state_dict(),
        "demand_model": demand_model.state_dict(),
        "result": result.state_dict(),
        "previous_stations": np.asarray(previous.station_of, dtype=int),
    }
    with obs.span("state.save"):
        save_checkpoint(
            path,
            state,
            kind=SIMULATION_KIND,
            meta={
                "controller": controller.name,
                "slots": result.horizon,
                "demands_known": demands_known,
            },
        )
    obs.inc("state.save")


def _restore_snapshot(
    path: Path,
    controller: Controller,
    demand_model: DemandModel,
    horizon: int,
) -> Tuple[SimulationResult, Assignment]:
    """Load a snapshot back into ``controller`` and rebuild the series."""
    with obs.span("state.load"):
        state, _meta = load_checkpoint(path, kind=SIMULATION_KIND)
    if state["controller_name"] != controller.name:
        raise CheckpointError(
            f"{path} holds a {state['controller_name']!r} run, "
            f"this controller is {controller.name!r}"
        )
    # Verifies the resumed world realises the same demand trajectory.
    demand_model.load_state_dict(state["demand_model"])
    result = SimulationResult.from_state(state["result"])
    if result.horizon >= horizon:
        raise CheckpointError(
            f"{path} already covers {result.horizon} slots; resuming needs "
            f"a horizon beyond that, got {horizon}"
        )
    controller.load_state_dict(state["controller"])
    previous = Assignment.from_stations(
        np.asarray(state["previous_stations"], dtype=int), controller.requests
    )
    obs.inc("state.load")
    return result, previous


def _run_loop(
    network: MECNetwork,
    demand_model: DemandModel,
    controller: Controller,
    horizon: int,
    demands_known: bool,
    compute_optimal: bool,
    exact_optimal: bool,
    checkpoint: Optional[CheckpointConfig],
    failures: Optional["FailureSchedule"],
    dtype: DTypeLike,
) -> SimulationResult:
    requests = controller.requests
    result = SimulationResult(controller_name=controller.name)
    previous: Optional[Assignment] = None
    snapshot_path = (
        checkpoint.path_for(controller.name) if checkpoint is not None else None
    )
    if (
        checkpoint is not None
        and checkpoint.resume
        and snapshot_path is not None
        and snapshot_path.exists()
    ):
        result, previous = _restore_snapshot(
            snapshot_path, controller, demand_model, horizon
        )
    decide_watch = Stopwatch()
    observe_watch = Stopwatch()
    evaluator = SlotEvaluator(network, requests, dtype=dtype)
    original_capacities = (
        [bs.capacity_mhz for bs in network.stations]
        if failures is not None
        else None
    )
    applied_factors: Optional[np.ndarray] = None
    obs.set_context(controller=controller.name)

    try:
        for slot in range(result.horizon, horizon):
            obs.set_context(slot=slot)
            if failures is not None and original_capacities is not None:
                factors = failures.capacity_factors(network.n_stations, slot)
                # Most slots have no outage transition; only touch the live
                # station objects (and the evaluator's capacity cache) when
                # the factor vector actually changes.
                if applied_factors is None or not np.array_equal(
                    factors, applied_factors
                ):
                    for index, bs in enumerate(network.stations):
                        bs.capacity_mhz = max(
                            original_capacities[index] * float(factors[index]),
                            _OUTAGE_EPSILON_MHZ,
                        )
                    evaluator.refresh_capacities()
                    applied_factors = factors
            true_demands = demand_model.demand_at(slot)

            with decide_watch, obs.span("sim.decide"):
                assignment = controller.decide(
                    slot, true_demands if demands_known else None
                )

            with obs.span("sim.evaluate"):
                unit_delays = network.delays.sample(slot)
                delay_ms = evaluator.evaluate(
                    assignment, true_demands, unit_delays
                )

            optimal_ms: Optional[float] = None
            if compute_optimal:
                with obs.span("sim.optimal"):
                    if exact_optimal:
                        optimal_ms = clairvoyant_cost_exact(
                            network, requests, true_demands, unit_delays
                        )
                    else:
                        optimal_ms = clairvoyant_cost(
                            network, requests, true_demands, unit_delays
                        )

            prediction_mae: Optional[float] = None
            last_prediction = getattr(controller, "last_prediction", None)
            if not demands_known and last_prediction is not None:
                prediction_mae = float(
                    np.mean(np.abs(last_prediction - true_demands))
                )

            with observe_watch, obs.span("sim.observe"):
                controller.observe(slot, true_demands, unit_delays, assignment)

            loads = evaluator.loads_mhz(assignment, true_demands)
            # Churn is change *between* slots; slot 0's cold-start placement
            # is accounted separately so total_churn no longer absorbs it.
            churn = assignment.cache_churn(previous) if previous is not None else 0
            initial = len(assignment.cached) if previous is None else 0
            obs.inc("sim.slots")
            result.append(
                SlotRecord(
                    slot=slot,
                    average_delay_ms=delay_ms,
                    decision_seconds=decide_watch.laps[-1],
                    observe_seconds=observe_watch.laps[-1],
                    cache_churn=churn,
                    n_cached_instances=len(assignment.cached),
                    max_load_fraction=float(
                        np.max(loads / evaluator.capacities_mhz)
                    ),
                    optimal_delay_ms=optimal_ms,
                    prediction_mae_mb=prediction_mae,
                    initial_instantiations=initial,
                )
            )
            previous = assignment
            if (
                checkpoint is not None
                and snapshot_path is not None
                and checkpoint.due(result.horizon)
            ):
                _write_snapshot(
                    snapshot_path, controller, demand_model, result, previous,
                    demands_known,
                )
    finally:
        if failures is not None and original_capacities is not None:
            for index, bs in enumerate(network.stations):
                bs.capacity_mhz = original_capacities[index]
    obs.set_context(slot=None, controller=None)
    return result
