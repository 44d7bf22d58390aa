"""Which public calls make up each layer, and the per-layer metrics.

:func:`instrumented` wraps the public entry points of every layer the
paper's slot loop and the decision server go through (see the table in
``perfbench/README.md``); :func:`layer_metrics` turns the recorded spans
and counters into the ``per_layer`` metrics of ``BENCHMARK.json``.

Times are per timed slot unless the name says per call (``*_us`` on the
serving layer, ``state.save_ms`` per save).  Ratios are percentages and
their bases are reported beside them: ``harness.slots_traced``,
``serve.offers`` and ``state.saves``.
"""

from __future__ import annotations

import json
import statistics
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator

import numpy as np

from spans import Patcher, Tracer

__all__ = ["instrumented", "layer_metrics", "breakdown"]


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


@contextmanager
def instrumented(
    tracer: Tracer, controller_types: tuple = (), demand_types: tuple = ()
) -> Iterator[None]:
    """Every layer's public calls record spans into ``tracer`` inside the block."""
    patcher = Patcher(tracer)
    try:
        _install(patcher, controller_types, demand_types)
        yield
    finally:
        patcher.restore()


def _install(patcher: Patcher, controller_types: tuple, demand_types: tuple) -> None:
    """Wrap every layer's public calls; ``patcher.restore()`` undoes it."""
    import scipy.optimize

    from repro.campaigns import CampaignScenario
    from repro.core import (
        Assignment,
        OlGdController,
        build_candidate_sets,
        repair_capacity,
        sample_assignment,
    )
    from repro.core.assignment import SlotEvaluator
    from repro.core.fastlp import PerSlotLpSolver
    from repro.gan import GanDemandPredictor
    from repro.mec import delay as delay_module
    from repro.serve import protocol
    from repro.serve.server import DecisionServer, Placement

    tracer = patcher.tracer

    # repro.core.fastlp — the per-slot LP relaxation.
    patcher.method(PerSlotLpSolver, "solve", "lp.solve")
    patcher.method(PerSlotLpSolver, "solve_with_objective", "lp.solve")

    def on_linprog(args: tuple, kwargs: dict, result: Any) -> None:
        cost = _arg(args, kwargs, 0, "c")
        tracer.count("lp.linprog_calls")
        tracer.count("lp.variables", float(np.size(cost)))

    patcher.function(scipy.optimize.linprog, "lp.linprog", on_linprog)

    # repro.core.candidates — candidate sets, sampling, repair.
    def on_candidates(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("rounding.candidate_requests", float(len(result)))
        tracer.count(
            "rounding.candidates", float(sum(len(chosen) for chosen in result))
        )

    def on_sample(args: tuple, kwargs: dict, result: Any) -> None:
        mask = _arg(args, kwargs, 3, "explore_mask")
        tracer.count("rounding.sampled", float(np.size(result)))
        if mask is not None:
            tracer.count("rounding.explored", float(np.count_nonzero(mask)))

    def on_repair(args: tuple, kwargs: dict, result: Any) -> None:
        before = np.asarray(_arg(args, kwargs, 0, "stations"))
        tracer.count("rounding.repaired", float(before.size))
        tracer.count(
            "rounding.moved", float(np.count_nonzero(before != np.asarray(result)))
        )

    patcher.function(build_candidate_sets, "rounding.candidates", on_candidates)
    patcher.function(sample_assignment, "rounding.sample", on_sample)
    patcher.function(repair_capacity, "rounding.repair", on_repair)

    # repro.core.assignment — assignment construction and evaluation.
    def on_build(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("assignment.builds")
        tracer.count("assignment.cached", float(len(result.cached)))

    patcher.method(Assignment, "from_stations", "assignment.build", on_build)
    patcher.method(SlotEvaluator, "evaluate", "sim.evaluate")
    patcher.method(SlotEvaluator, "loads_mhz", "sim.loads")
    for delay_type in (delay_module.DriftingDelay, delay_module.UniformTierDelay):
        patcher.method(delay_type, "sample", "sim.delays")

    # The controllers: their own decide/observe bodies (bandits, priority).
    wrapped = set()
    for controller_type in controller_types:
        if controller_type in wrapped:
            continue
        wrapped.add(controller_type)
        patcher.method(controller_type, "decide", "controller.decide")
        patcher.method(controller_type, "observe", "controller.observe")
    if OlGdController not in wrapped:
        # OL_GAN drives an inner OL_GD learner.
        patcher.method(OlGdController, "decide", "olgd.decide")
        patcher.method(OlGdController, "observe", "olgd.observe")

    # repro.workload — demand realisation (Eq. 1).
    for demand_type in demand_types:
        patcher.method(demand_type, "demand_at", "workload.demand")

    # repro.gan — generator forecast and per-slot refinement.
    patcher.method(GanDemandPredictor, "predict_next", "gan.predict")
    patcher.method(GanDemandPredictor, "observe", "gan.refine")

    # repro.serve — dispatch, ingest, decide, encode; repro.state — saves.
    def on_offer(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("serve.offered")
        tracer.count("serve.accepted", float(bool(result)))

    def on_save(args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            tracer.count("state.saves")
            tracer.count("state.bytes", float(Path(result).stat().st_size))

    patcher.function(protocol.handle_line, "serve.line")
    codec = types.SimpleNamespace(
        loads=patcher.wrap(json.loads, "serve.parse", None),
        dumps=patcher.wrap(json.dumps, "serve.dumps", None),
        JSONDecodeError=json.JSONDecodeError,
    )
    patcher.attribute(protocol, "json", codec)
    patcher.method(Placement, "to_json", "serve.to_json")
    patcher.method(DecisionServer, "offer", "serve.offer", on_offer)
    patcher.method(DecisionServer, "decide", "serve.decide")
    patcher.method(DecisionServer, "write_checkpoint", "state.save", on_save)

    # Set-up: building the world through the campaign scenario builder.
    patcher.method(CampaignScenario, "__call__", "setup.world")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    timed_slots: set,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer values from the spans of ``timed_slots``.

    ``extra`` carries the harness-side figures measured outside the span
    table (server start-up, tracing overhead, open-loop latency and lag,
    prediction error, SLO misses).
    """
    inclusive, own, calls = tracer.totals(timed_slots)
    counters = tracer.counter_totals(timed_slots)
    n_slots = len(timed_slots)
    slot_seconds = inclusive["slot"]

    def per_slot_ms(seconds: float) -> float:
        return _ratio(seconds, n_slots, 1e3)

    def share(seconds: float) -> float:
        return _ratio(seconds, slot_seconds, 100.0)

    rounding = sum(
        inclusive[name]
        for name in ("rounding.candidates", "rounding.sample", "rounding.repair")
    )
    gan = inclusive["gan.predict"] + inclusive["gan.refine"]
    lines = calls["serve.line"]
    serve_calls = inclusive["serve.offer"] + inclusive["serve.decide"]
    encode = inclusive["serve.to_json"] + inclusive["serve.dumps"]
    saves_in_decide = sum(
        end - start
        for name, parent, start, end, slot in zip(
            tracer.names, tracer.parents, tracer.starts, tracer.ends, tracer.slots
        )
        if name == "state.save"
        and slot in timed_slots
        and parent >= 0
        and tracer.names[parent] == "serve.decide"
    )
    # World builds happen outside the slots (span slot -1).
    world_ms = [
        1e3 * (end - start)
        for name, start, end in zip(tracer.names, tracer.starts, tracer.ends)
        if name == "setup.world"
    ]
    metrics = {
        "lp.solve_ms": per_slot_ms(inclusive["lp.solve"]),
        "lp.calls": _ratio(calls["lp.solve"], n_slots),
        "lp.n_variables": _ratio(
            counters["lp.variables"], counters["lp.linprog_calls"]
        ),
        "lp.share": share(inclusive["lp.solve"]),
        "rounding.ms": per_slot_ms(rounding),
        "rounding.candidates_mean": _ratio(
            counters["rounding.candidates"], counters["rounding.candidate_requests"]
        ),
        "rounding.explore_share": _ratio(
            counters["rounding.explored"], counters["rounding.sampled"], 100.0
        ),
        "rounding.repair_moved_share": _ratio(
            counters["rounding.moved"], counters["rounding.repaired"], 100.0
        ),
        "baseline.decide_ms": per_slot_ms(
            own["controller.decide"] + own["olgd.decide"]
        ),
        "assignment.build_ms": per_slot_ms(inclusive["assignment.build"]),
        "assignment.cached_mean": _ratio(
            counters["assignment.cached"], counters["assignment.builds"]
        ),
        "workload.demand_ms": per_slot_ms(inclusive["workload.demand"]),
        "sim.evaluate_ms": per_slot_ms(
            inclusive["sim.delays"] + inclusive["sim.evaluate"] + inclusive["sim.loads"]
        ),
        "bandits.observe_ms": per_slot_ms(
            inclusive["controller.observe"] - inclusive["gan.refine"]
        ),
        "gan.predict_ms": per_slot_ms(inclusive["gan.predict"]),
        "gan.refine_ms": per_slot_ms(inclusive["gan.refine"]),
        "gan.share": share(gan),
        "serve.dispatch_us": _ratio(
            inclusive["serve.line"] - serve_calls - encode, lines, 1e6
        ),
        "serve.offer_us": _ratio(
            inclusive["serve.offer"], calls["serve.offer"], 1e6
        ),
        "serve.encode_us": _ratio(encode, lines, 1e6),
        "serve.decide_ms": _ratio(
            inclusive["serve.decide"]
            - inclusive["controller.decide"]
            - inclusive["controller.observe"]
            - saves_in_decide,
            calls["serve.decide"],
            1e3,
        ),
        "serve.accept_share": _ratio(
            counters["serve.accepted"], counters["serve.offered"], 100.0
        ),
        "serve.offers": counters["serve.offered"],
        "state.save_ms": _ratio(inclusive["state.save"], calls["state.save"], 1e3),
        "state.snapshot_kb": _ratio(
            counters["state.bytes"], counters["state.saves"], 1.0 / 1024.0
        ),
        "state.saves": counters["state.saves"],
        "setup.world_ms": statistics.median(world_ms) if world_ms else 0.0,
        "harness.unattributed_share": share(own["slot"]),
        "harness.slot_ms_mean": per_slot_ms(slot_seconds),
        "harness.slots_traced": float(n_slots),
    }
    metrics.update(extra)
    return metrics


def breakdown(tracer: Tracer, timed_slots: set) -> str:
    """Human-readable self-time table (stderr of a traced run)."""
    _inclusive, own, calls = tracer.totals(timed_slots)
    total = sum(own.values())
    rows = sorted(own.items(), key=lambda item: -item[1])
    width = max(len(name) for name, _ in rows) if rows else 4
    lines = [f"{'span':<{width}}  self ms/slot   share   calls"]
    for name, seconds in rows:
        lines.append(
            f"{name:<{width}}  {1e3 * seconds / max(len(timed_slots), 1):12.4f}"
            f"  {100.0 * seconds / total if total else 0.0:5.1f}%  {calls[name]:6d}"
        )
    return "\n".join(lines)
