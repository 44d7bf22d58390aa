"""The in-process workloads: the paper's per-slot loop on one controller.

One slot is what :func:`repro.sim.run_simulation` does per slot, spelled
out here so each step can be timed: the demand model realises
``rho_l(t)`` (Eq. 1), the controller decides, the delay process realises
``d_i(t)``, the slot evaluator prices the decision (Eq. 3) and the
controller observes the outcome.

The world (topology, stations, requests) is built through
:class:`repro.campaigns.CampaignScenario` from a fixed world seed; the
benchmark seed drives only the demand realisation, so runs under
different seeds load the same world with different bursty demand.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from checks import CheckFailure, check_placement, same_decisions
from layers import breakdown, instrumented, layer_metrics
from spans import Tracer

__all__ = [
    "SlotLoopWorkload",
    "RunLength",
    "run_slot_workload",
    "geomean",
    "quantile",
    "WORLD_SEED",
]

#: Seed of the topology/request world shared by every workload.
WORLD_SEED = 2020

#: Slots of the synthetic user trace the world is anchored on.
TRACE_HORIZON = 1000


@dataclass(frozen=True)
class RunLength:
    """How much one run repeats and measures."""

    setup_repeats: int
    warmup_slots: int
    min_timed_slots: int
    replay_slots: int


@dataclass(frozen=True)
class SlotLoopWorkload:
    """One registered controller on one world size, run in process."""

    name: str
    controller: str
    n_requests: int
    n_stations: int
    demands_known: bool = True
    controller_options: Mapping[str, Any] = field(default_factory=dict)
    #: Slots from slot 0 whose delays make up ``delay_ms_geomean``.
    quality_slots: int = 100
    #: Compare the first slot's LP objective with the reference model.
    check_lp: bool = False


@dataclass
class World:
    """A built world: network, demand model, controller, slot evaluator."""

    network: Any
    demand: Any
    controller: Any
    evaluator: Any


@dataclass
class SlotRecord:
    """What one slot took and decided."""

    slot_s: float
    delay_ms: float
    stations: np.ndarray
    mae_mb: Optional[float]


def build_world(workload: SlotLoopWorkload, seed: int) -> World:
    from repro.api import make_workload
    from repro.campaigns import CampaignScenario, ScenarioSpec
    from repro.core.assignment import SlotEvaluator
    from repro.utils.seeding import RngRegistry

    spec = ScenarioSpec(
        controllers=(workload.controller,),
        horizon=TRACE_HORIZON,
        topology="gtitm",
        workload="bursty",
        n_stations=workload.n_stations,
        n_services=4,
        n_requests=workload.n_requests,
        n_hotspots=8,
        controller_options={workload.controller: dict(workload.controller_options)},
    )
    network, _model, (controller,) = CampaignScenario(spec)(RngRegistry(WORLD_SEED))
    demand = make_workload(
        "bursty", controller.requests, RngRegistry(seed).get("perfbench/demand")
    )
    evaluator = SlotEvaluator(network, controller.requests)
    return World(network, demand, controller, evaluator)


class SlotRunner:
    """Steps one world through its slots, checking every decision."""

    def __init__(self, world: World, workload: SlotLoopWorkload) -> None:
        self.world = world
        self.workload = workload
        self.service_of = np.array(
            [r.service_index for r in world.controller.requests], dtype=int
        )

    def step(self, slot: int, tracer: Optional[Tracer] = None) -> SlotRecord:
        """Demand, decide, evaluate, observe; only the slot itself is timed."""
        world = self.world
        network, controller, evaluator = world.network, world.controller, world.evaluator
        if tracer is not None:
            tracer.slot = slot
            root = tracer.begin("slot")
        started = perf_counter()
        demands = world.demand.demand_at(slot)
        assignment = controller.decide(
            slot, demands if self.workload.demands_known else None
        )
        unit_delays = network.delays.sample(slot)
        delay_ms = evaluator.evaluate(assignment, demands, unit_delays)
        controller.observe(slot, demands, unit_delays, assignment)
        evaluator.loads_mhz(assignment, demands)
        slot_s = perf_counter() - started
        if tracer is not None:
            tracer.end(root)
            tracer.slot = -1
        stations = np.array(assignment.station_of, dtype=int)
        check_placement(
            stations,
            assignment.cached_array(),
            delay_ms,
            self.service_of,
            network.n_stations,
            where=f"{self.workload.name} slot {slot}",
        )
        prediction = getattr(controller, "last_prediction", None)
        mae = (
            float(np.mean(np.abs(prediction - demands)))
            if prediction is not None
            else None
        )
        return SlotRecord(slot_s, float(delay_ms), stations, mae)


def run_slots(
    runner: SlotRunner, *, seconds: float, min_slots: int, max_slots: Optional[int] = None
) -> List[SlotRecord]:
    """Slots from 0 until ``seconds`` passed and ``min_slots`` ran."""
    records: List[SlotRecord] = []
    deadline = perf_counter() + seconds
    while (max_slots is None or len(records) < max_slots) and (
        len(records) < min_slots or perf_counter() < deadline
    ):
        records.append(runner.step(len(records)))
    return records


def check_first_lp(world: World) -> None:
    """The structure-cached LP and the reference model agree on slot 0."""
    from repro.core.fastlp import PerSlotLpSolver
    from repro.core.formulation import build_caching_model
    from repro.lp import solve_lp

    network, controller = world.network, world.controller
    demands = world.demand.demand_at(0)
    # The controller's feasibility scaling of the LP demands (OL_GD).
    need = float(demands.sum()) * network.c_unit_mhz
    budget = 0.95 * network.total_capacity_mhz()
    if need > budget:
        demands = demands * (budget / need)
    theta = np.asarray(controller.arms.means, dtype=float)
    _x, fast = PerSlotLpSolver(network, controller.requests).solve_with_objective(
        demands, theta
    )
    model, _variables = build_caching_model(network, controller.requests, demands, theta)
    reference = solve_lp(model)
    if not reference.is_optimal:
        raise CheckFailure(f"reference LP not optimal: {reference.status}")
    if abs(fast - reference.objective) > 1e-7 * max(1.0, abs(reference.objective)):
        raise CheckFailure(
            f"slot-0 LP objective {fast!r} differs from the reference "
            f"model's {reference.objective!r}"
        )


def quantile(values: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def geomean(values: List[float]) -> float:
    """Geometric mean: per-slot delays are heavy-tailed (overload slots)."""
    return float(np.exp(np.mean(np.log(values))))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_slot_workload(
    workload: SlotLoopWorkload,
    length: RunLength,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    log: Any,
) -> Tuple[Dict[str, float], int, int, Optional[Tracer]]:
    """One run; returns (metrics, attempted, failed, tracer-or-None)."""
    import repro.api  # noqa: F401  (import cost stays out of set-up time)

    setup_times: List[float] = []
    started = perf_counter()
    world = build_world(workload, seed)
    setup_times.append(perf_counter() - started)
    if workload.check_lp:
        check_first_lp(world)
    runner = SlotRunner(world, workload)
    min_slots = max(length.warmup_slots + length.min_timed_slots, workload.quality_slots)
    tracer: Optional[Tracer] = None
    if not trace:
        records = run_slots(runner, seconds=seconds, min_slots=min_slots)
    else:
        # Untraced and traced worlds step through the same slots in turn, so
        # the tracing overhead is not confounded with drift in host speed.
        tracer = Tracer()
        layer_types = ((type(world.controller),), (type(world.demand),))
        with instrumented(tracer, *layer_types):
            traced_runner = SlotRunner(build_world(workload, seed), workload)
        records, traced = [], []
        deadline = perf_counter() + seconds
        while len(records) < length.warmup_slots + 2 or perf_counter() < deadline:
            slot = len(records)
            records.append(runner.step(slot))
            with instrumented(tracer, *layer_types):
                traced.append(traced_runner.step(slot, tracer))
        same_decisions(records, traced, where=f"{workload.name} traced")
    # Set-up again (timed), replaying the first slots: same seed, same decisions.
    for _ in range(length.setup_repeats - 1):
        started = perf_counter()
        again = build_world(workload, seed)
        setup_times.append(perf_counter() - started)
        replay = run_slots(
            SlotRunner(again, workload),
            seconds=0.0,
            min_slots=length.replay_slots,
            max_slots=length.replay_slots,
        )
        same_decisions(records, replay, where=workload.name)
        del again
    timed = records[length.warmup_slots :]
    slot_ms = [1e3 * r.slot_s for r in timed]
    quality = records[: workload.quality_slots]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "slot_ms_p50": quantile(slot_ms, 0.5),
        "slot_ms_p90": quantile(slot_ms, 0.9),
        "slots_per_s": len(timed) / sum(r.slot_s for r in timed),
        "delay_ms_geomean": geomean([r.delay_ms for r in quality]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(
        f"{workload.name}: {len(records)} slots ({len(timed)} timed), "
        f"{len(setup_times)} set-ups",
        file=log,
    )
    if tracer is None:
        return metrics, len(records), 0, None

    maes = [r.mae_mb for r in quality if r.mae_mb is not None]
    timed_slots = set(range(length.warmup_slots, len(traced)))
    traced_p50 = quantile([1e3 * r.slot_s for r in traced[length.warmup_slots :]], 0.5)
    layer = layer_metrics(
        tracer,
        timed_slots,
        {
            "gan.prediction_mae_mb": float(np.mean(maes)) if maes else 0.0,
            "setup.server_start_ms": 0.0,
            "serve.slo_miss_share": 0.0,
            "serve.wire_decide_ms_p50": 0.0,
            "serve.wire_decide_ms_p90": 0.0,
            "harness.lag_ms_p90": 0.0,
            "harness.trace_overhead_share": 100.0
            * (traced_p50 / metrics["slot_ms_p50"] - 1.0),
        },
    )
    print(breakdown(tracer, timed_slots), file=log)
    return layer, 2 * len(records), 0, tracer
