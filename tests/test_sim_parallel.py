"""Tests for the repetition execution engine (repro.sim.parallel)."""

import os

import numpy as np
import pytest

from repro.core import GreedyController, OlGdController, PriorityController
from repro.mec import DriftingDelay, MECNetwork
from repro.mec.requests import Request
from repro.sim import RunConfig, resolve_n_jobs, run_repetitions
from repro.sim.parallel import (
    Sweep,
    _execute_unit,
    _InlineExecutor,
    _Unit,
    repetition_registry,
    run_sweeps,
)
from repro.utils.seeding import RngRegistry
from repro.workload import ConstantDemandModel

# Metrics that are functions of the seed alone.  mean_decision_s is a
# wall-clock measurement and differs between *any* two runs, serial or not.
DETERMINISTIC_METRICS = ("mean_delay_ms", "total_churn")


def _world(rngs: RngRegistry, n_requests: int = 8):
    network = MECNetwork.synthetic(12, 2, rngs)
    network.delays = DriftingDelay(
        network.stations, rngs.get("drift"), drift_ms=1.0
    )
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(n_requests)
    ]
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    return network, requests


def scenario(rngs: RngRegistry):
    """Two-controller scenario; module-level so it pickles to workers."""
    network, requests = _world(rngs)
    controllers = [
        OlGdController(network, requests, rngs.get("ol")),
        GreedyController(network, requests, rngs.get("gr")),
    ]
    return network, ConstantDemandModel(requests), controllers


class CrashingController(GreedyController):
    """Deliberately explodes mid-run (failure-reporting tests)."""

    def decide(self, slot, demands):
        if slot == 1:
            raise RuntimeError("injected crash")
        return super().decide(slot, demands)


CRASH_STUDY_SEED = 71
CRASH_REPETITION = 2


def crashing_scenario(rngs: RngRegistry):
    """One repetition's Greedy controller crashes; everything else runs."""
    network, requests = _world(rngs, n_requests=5)
    greedy_cls = GreedyController
    if rngs.seed == repetition_registry(CRASH_STUDY_SEED, CRASH_REPETITION).seed:
        greedy_cls = CrashingController
    controllers = [
        greedy_cls(network, requests, rngs.get("gr")),
        PriorityController(network, requests, rngs.get("pri")),
    ]
    return network, ConstantDemandModel(requests), controllers


def always_crashing_scenario(rngs: RngRegistry):
    raise ValueError("nothing to build")


def greedy_only_scenario(rngs: RngRegistry):
    """``scenario`` without its OL_GD controller (index 0 is Greedy_GD)."""
    network, requests = _world(rngs)
    controllers = [GreedyController(network, requests, rngs.get("gr"))]
    return network, ConstantDemandModel(requests), controllers


def _run_unit(build, seed, *, done=(), n_controllers=None, horizon=3):
    """Execute one in-process dispatch unit for repetition 0 of ``build``."""
    unit = _Unit(
        index=0,
        sweep=Sweep(
            build, seed=seed, repetitions=1, horizon=horizon,
            n_controllers=n_controllers,
        ),
        repetition=0,
        done=frozenset(done),
        collect_metrics=False,
        checkpoint_every=None,
    )
    executor = _InlineExecutor()
    try:
        return executor.submit(_execute_unit, unit).result()
    finally:
        executor.shutdown()


class TestResolveNJobs:
    def test_literal_positive(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores

    def test_negative_counts_back_from_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores) == max(1, 1)
        assert resolve_n_jobs(-10 * cores) == 1  # floored at one worker


class TestBitIdentity:
    """Serial and parallel paths must agree bit-for-bit on seed-determined
    metrics — the engine's core guarantee (2 controllers × 4 repetitions)."""

    def test_parallel_matches_serial_summaries(self):
        serial = run_repetitions(scenario, seed=101, repetitions=4, horizon=6)
        parallel = run_repetitions(
            scenario, seed=101, repetitions=4, horizon=6, config=RunConfig(jobs=2)
        )
        assert set(serial.summaries) == set(parallel.summaries) == {
            "OL_GD",
            "Greedy_GD",
        }
        for controller in serial.summaries:
            for metric in DETERMINISTIC_METRICS:
                assert (
                    serial.summary(controller, metric).values
                    == parallel.summary(controller, metric).values
                ), (controller, metric)

    def test_parallel_matches_serial_raw_series(self):
        serial = run_repetitions(scenario, seed=103, repetitions=2, horizon=5)
        parallel = run_repetitions(
            scenario, seed=103, repetitions=2, horizon=5, config=RunConfig(jobs=2)
        )
        for controller in serial.raw:
            for rep_serial, rep_parallel in zip(
                serial.raw[controller], parallel.raw[controller]
            ):
                np.testing.assert_array_equal(
                    rep_serial.delays_ms, rep_parallel.delays_ms
                )
                np.testing.assert_array_equal(
                    rep_serial.cache_churn, rep_parallel.cache_churn
                )

    def test_worker_count_does_not_change_results(self):
        two, three = (
            run_repetitions(
                scenario, seed=107, repetitions=3, horizon=4,
                config=RunConfig(jobs=jobs),
            )
            for jobs in (2, 3)
        )
        for controller in two.summaries:
            for metric in DETERMINISTIC_METRICS:
                assert (
                    two.summary(controller, metric).values
                    == three.summary(controller, metric).values
                )


class TestFailureReporting:
    """A crashed repetition is recorded and excluded, never fatal."""

    def test_serial_crash_reported_not_fatal(self):
        study = run_repetitions(
            crashing_scenario, seed=CRASH_STUDY_SEED, repetitions=4, horizon=4
        )
        assert study.n_failed == 1
        failure = study.failures[0]
        assert failure.repetition == CRASH_REPETITION
        assert "injected crash" in failure.error
        assert "RuntimeError" in failure.traceback
        # The crashed run is excluded; the partner controller keeps all 4.
        assert study.summary("Greedy_GD", "mean_delay_ms").n == 3
        assert study.summary("Pri_GD", "mean_delay_ms").n == 4
        assert study.completed_runs == 7

    def test_parallel_crash_reported_not_fatal(self):
        serial, study = (
            run_repetitions(
                crashing_scenario,
                seed=CRASH_STUDY_SEED,
                repetitions=4,
                horizon=4,
                config=RunConfig(jobs=jobs),
            )
            for jobs in (1, 2)
        )
        assert [
            (f.repetition, f.controller_index) for f in study.failures
        ] == [(f.repetition, f.controller_index) for f in serial.failures]
        assert study.n_failed == 1
        assert study.failures[0].repetition == CRASH_REPETITION
        assert "injected crash" in study.failures[0].error
        assert study.summary("Greedy_GD", "mean_delay_ms").n == 3
        assert study.summary("Pri_GD", "mean_delay_ms").n == 4

    def test_all_failures_raise(self):
        with pytest.raises(RuntimeError, match="all .* runs failed"):
            run_repetitions(
                always_crashing_scenario, seed=1, repetitions=2, horizon=3
            )

    def test_str_names_the_work_item(self):
        study = run_repetitions(
            crashing_scenario, seed=CRASH_STUDY_SEED, repetitions=4, horizon=4
        )
        text = str(study.failures[0])
        assert f"rep{CRASH_REPETITION}" in text


class TestTimingAccounting:
    def test_study_records_execution_accounting(self):
        study = run_repetitions(
            scenario, seed=109, repetitions=2, horizon=4, config=RunConfig(jobs=2)
        )
        assert study.n_jobs == 2
        assert study.wall_clock_seconds > 0
        assert study.cpu_seconds > 0
        assert study.completed_runs == 4  # 2 reps x 2 controllers
        assert study.runs_per_second > 0
        assert 0 < study.parallel_efficiency
        table = study.timing_table()
        assert "workers" in table and "runs / second" in table

    def test_serial_accounting_defaults(self):
        study = run_repetitions(scenario, seed=109, repetitions=2, horizon=4)
        assert study.n_jobs == 1
        assert study.completed_runs == 4
        assert study.n_failed == 0


class TestTelemetryMerge:
    """Worker registries merge into a study aggregate that matches serial."""

    def test_metrics_off_by_default(self):
        study = run_repetitions(scenario, seed=127, repetitions=2, horizon=3)
        assert study.metrics is None
        assert study.worker_metrics == {}
        with pytest.raises(ValueError, match="collect_metrics"):
            study.metrics_table()

    def test_serial_study_collects_metrics(self):
        study = run_repetitions(
            scenario, seed=127, repetitions=2, horizon=3,
            config=RunConfig(collect_metrics=True),
        )
        assert study.metrics is not None
        # 2 reps x 2 controllers x 3 slots, every slot counted exactly once.
        assert study.metrics.counter("sim.slots") == 12
        # Only OL_GD solves LPs: 2 reps x 3 slots.
        assert study.metrics.counter("lp.solve.calls") == 6
        assert list(study.worker_metrics) == [os.getpid()]
        table = study.metrics_table()
        assert "aggregate" in table and "lp.solve" in table

    def test_parallel_aggregate_identical_to_serial(self):
        serial = run_repetitions(
            scenario, seed=131, repetitions=3, horizon=4,
            config=RunConfig(collect_metrics=True),
        )
        parallel = run_repetitions(
            scenario,
            seed=131,
            repetitions=3,
            horizon=4,
            config=RunConfig(jobs=2, collect_metrics=True),
        )
        # Deterministic telemetry (counters, histogram observation counts)
        # is identical in aggregate regardless of worker count; only the
        # timing values inside the histograms are wall-clock.
        assert serial.metrics.counters == parallel.metrics.counters
        serial_snapshot = serial.metrics.snapshot()["histograms"]
        parallel_snapshot = parallel.metrics.snapshot()["histograms"]
        assert set(serial_snapshot) == set(parallel_snapshot)
        for name in serial_snapshot:
            assert (
                serial_snapshot[name]["count"] == parallel_snapshot[name]["count"]
            ), name
        # Per-worker registries partition the aggregate.
        total = sum(
            registry.counter("sim.slots")
            for registry in parallel.worker_metrics.values()
        )
        assert total == parallel.metrics.counter("sim.slots")

    def test_work_items_carry_snapshots(self):
        [work] = run_sweeps(
            [Sweep(scenario, seed=127, repetitions=1, horizon=3)],
            config=RunConfig(collect_metrics=True),
        )
        assert all(w.metrics is not None for w in work)
        assert all(w.pid == os.getpid() for w in work)

    def test_serial_run_inherits_parent_trace_writer(self, tmp_path):
        """Regression: per-item registries must reuse the parent's trace
        writer in-process, else `--trace` with --jobs 1 writes 0 events."""
        from repro import obs

        path = tmp_path / "study.jsonl"
        writer = obs.TraceWriter(path)
        registry = obs.MetricsRegistry(trace=writer)
        with obs.activate(registry):
            run_repetitions(scenario, seed=127, repetitions=1, horizon=3)
        writer.close()
        events = obs.read_trace(path)
        assert len(events) > 0
        assert {e["name"] for e in events} >= {"sim.decide", "lp.solve"}

    def test_active_parent_registry_receives_pool_results(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            run_repetitions(
                scenario, seed=127, repetitions=2, horizon=3, config=RunConfig(jobs=2)
            )
        assert registry.counter("sim.slots") == 12


class TestEngine:
    def test_results_sorted_by_grid_position(self):
        [work] = run_sweeps(
            [Sweep(scenario, seed=113, repetitions=3, horizon=3)],
            config=RunConfig(jobs=2),
        )
        coords = [(w.repetition, w.controller_index) for w in work]
        assert coords == [(r, c) for r in range(3) for c in range(2)]

    def test_execute_work_item_in_process(self):
        # A unit runs every index of its world that is not yet done.
        outcome = _run_unit(scenario, 113, done={0})
        [result] = outcome.results
        assert result.ok
        assert (result.controller_index, result.controller_name) == (
            1,
            "Greedy_GD",
        )
        assert result.result.horizon == 3
        assert result.wall_seconds > 0

    def test_failed_item_failure_conversion(self):
        # Without a controller count, a build crash is one failed item...
        [result] = _run_unit(always_crashing_scenario, 1).results
        assert (result.repetition, result.controller_index) == (0, 0)
        assert not result.ok
        failure = result.failure()
        assert "nothing to build" in failure.error
        # ...with one, it fails every pending controller of the unit.
        crashed = _run_unit(
            always_crashing_scenario, 1, n_controllers=3, done={1}
        ).results
        assert [r.controller_index for r in crashed] == [0, 2]
        assert not any(r.ok for r in crashed)

    def test_ok_item_has_no_failure(self):
        result = _run_unit(scenario, 113).results[0]
        with pytest.raises(ValueError):
            result.failure()

    def test_world_cache_scoped_to_one_call(self, tmp_path):
        """Back-to-back in-process calls with the same seed never share a
        world build: the second call runs only index 1, which the first
        call's one-controller world does not even have."""
        sweep_dir = tmp_path / "sweep"
        full = run_repetitions(
            scenario, seed=5, repetitions=2, horizon=3,
            config=RunConfig(checkpoint_dir=sweep_dir),
        )
        for path in sweep_dir.glob("rep*-ctrl001.npz"):
            path.unlink()
        run_repetitions(greedy_only_scenario, seed=5, repetitions=2, horizon=3)
        resumed = run_repetitions(
            scenario, seed=5, repetitions=2, horizon=3,
            config=RunConfig(checkpoint_dir=sweep_dir, resume=True),
        )
        assert resumed.n_failed == 0
        for name in full.summaries:
            for metric in DETERMINISTIC_METRICS:
                assert (
                    full.summary(name, metric).values
                    == resumed.summary(name, metric).values
                )
