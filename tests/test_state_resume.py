"""Checkpoint/resume bit-identity across the whole controller registry.

The acceptance bar of the subsystem: interrupt any registered controller
mid-horizon, resume from the snapshot over a same-seeded world, and the
full metric series must equal the uninterrupted run's — delays, churn,
cache sizes, load fractions and regret inputs exactly, timing columns in
length (wall-clock is re-measured).  Plus: resumable sweeps and bounded
crash retries in the repetition engine (:mod:`repro.sim.parallel`).
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import controller_names, make_controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import CheckpointError, RunConfig, run_repetitions, run_simulation
from repro.state import SweepManifest, result_path
from repro.utils.seeding import RngRegistry
from repro.workload import BurstyDemandModel, ConstantDemandModel

HORIZON = 8
CUT = 4  # interrupt after this many slots (= snapshot cadence)

#: Tiny configurations so the full registry — including the GAN — runs in
#: test time.  Keys missing here construct with library defaults.
CONTROLLER_OPTIONS = {
    "OL_GAN": {"n_hotspots": 2, "window": 3, "hidden_size": 4},
}

#: The §V predictive algorithms forecast internally; the engine must pass
#: demands=None to them (they raise otherwise).
PREDICTIVE = {"OL_GAN", "OL_Reg"}


def build_world(seed, name):
    """Fresh same-seeded world + controller (slot-keyed, so rebuildable)."""
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(8, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
            hotspot_index=i % 2,
        )
        for i in range(6)
    ]
    model = BurstyDemandModel(requests, rngs.get("demand"))
    controller = make_controller(
        name, network, requests, rngs.get("ctrl"),
        **CONTROLLER_OPTIONS.get(name, {})
    )
    return network, model, controller


class TestResumeBitIdentity:
    @pytest.mark.parametrize("name", controller_names())
    def test_resume_equals_uninterrupted_run(self, name, tmp_path):
        known = name not in PREDICTIVE
        network, model, controller = build_world(11, name)
        full = run_simulation(
            network, model, controller, horizon=HORIZON, demands_known=known
        )

        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, name)
        partial = run_simulation(
            network, model, controller, horizon=CUT,
            demands_known=known, config=config,
        )
        assert config.to_checkpoint_config().path_for(controller.name).exists()
        np.testing.assert_array_equal(partial.delays_ms, full.delays_ms[:CUT])

        network, model, controller = build_world(11, name)
        resumed = run_simulation(
            network, model, controller, horizon=HORIZON,
            demands_known=known, config=config,
        )

        assert resumed.horizon == full.horizon == HORIZON
        np.testing.assert_array_equal(resumed.delays_ms, full.delays_ms)
        np.testing.assert_array_equal(resumed.cache_churn, full.cache_churn)
        np.testing.assert_array_equal(
            resumed.max_load_fractions, full.max_load_fractions
        )
        np.testing.assert_array_equal(
            resumed.prediction_maes, full.prediction_maes
        )
        assert [r.n_cached_instances for r in resumed.records] == [
            r.n_cached_instances for r in full.records
        ]
        assert resumed.initial_instantiations == full.initial_instantiations
        # Wall-clock columns are re-measured on resume: length only.
        assert resumed.decision_seconds.shape == full.decision_seconds.shape

    def test_wrong_controller_snapshot_rejected(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        snapshot = config.to_checkpoint_config().path_for("OL_GD")
        snapshot.rename(config.to_checkpoint_config().path_for("Greedy_GD"))
        network, model, controller = build_world(11, "Greedy_GD")
        with pytest.raises(CheckpointError, match="OL_GD"):
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )

    def test_foreign_world_rejected(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        network, model, controller = build_world(12, "OL_GD")  # different seed
        with pytest.raises(ValueError):
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )

    def test_resume_needs_longer_horizon(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "Greedy_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        network, model, controller = build_world(11, "Greedy_GD")
        with pytest.raises(CheckpointError, match="already covers"):
            run_simulation(
                network, model, controller, horizon=CUT, config=config
            )

    def test_without_resume_existing_snapshot_ignored(self, tmp_path):
        write = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT)
        network, model, controller = build_world(11, "Greedy_GD")
        run_simulation(network, model, controller, horizon=CUT, config=write)
        network, model, controller = build_world(11, "Greedy_GD")
        fresh = run_simulation(
            network, model, controller, horizon=HORIZON, config=write
        )
        assert fresh.records[0].slot == 0 and fresh.horizon == HORIZON

    def test_save_and_load_are_counted(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=2, resume=True)
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            network, model, controller = build_world(11, "Greedy_GD")
            run_simulation(
                network, model, controller, horizon=CUT, config=config
            )
            network, model, controller = build_world(11, "Greedy_GD")
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )
        assert registry.counter("state.load") == 1
        assert registry.counter("state.save") == 4  # slots 2,4 then 6,8


# --------------------------------------------------------------------- #
# Sweep resume + crash retries (module-level builders: picklable)
# --------------------------------------------------------------------- #


def sweep_build(rngs):
    network = MECNetwork.synthetic(8, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(5)
    ]
    return network, ConstantDemandModel(requests), [
        make_controller("OL_GD", network, requests, rngs.get("ol")),
        make_controller("Greedy_GD", network, requests, rngs.get("gr")),
    ]


class CrashOnce:
    """A builder that raises exactly once (sentinel file marks the shot)."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __call__(self, rngs):
        world = sweep_build(rngs)
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("tripped")
            raise RuntimeError("injected one-shot crash")
        return world


class DieOnce:
    """A builder that kills its worker process exactly once (hard crash)."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __call__(self, rngs):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("tripped")
            os._exit(1)  # no traceback: the pool sees a dead worker
        return sweep_build(rngs)


DETERMINISTIC = ("mean_delay_ms", "total_churn")


def assert_same_summaries(a, b):
    assert set(a.summaries) == set(b.summaries)
    for name in a.summaries:
        for metric in DETERMINISTIC:
            assert a.summary(name, metric).values == b.summary(name, metric).values


class TestSweepResume:
    def test_interrupted_sweep_completes_missing_items_only(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=3, horizon=6)
        sweep_dir = tmp_path / "sweep"
        run_repetitions(
            sweep_build, seed=7, repetitions=3, horizon=6,
            config=RunConfig(checkpoint_dir=sweep_dir),
        )
        # Simulate the interruption: two items never completed.
        result_path(sweep_dir, 1, 0).unlink()
        result_path(sweep_dir, 2, 1).unlink()
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            resumed = run_repetitions(
                sweep_build, seed=7, repetitions=3, horizon=6,
                config=RunConfig(
                    checkpoint_dir=sweep_dir, resume=True, collect_metrics=False
                ),
            )
        assert_same_summaries(base, resumed)
        # Only the 2 missing items were executed: 2 items x 6 slots.
        assert registry.counter("sim.slots") == 12
        assert registry.counter("state.load") == 4
        manifest = SweepManifest.read(sweep_dir)
        assert manifest.controllers == ("OL_GD", "Greedy_GD")

    def test_resume_refuses_foreign_sweep(self, tmp_path):
        run_repetitions(
            sweep_build, seed=7, repetitions=2, horizon=6,
            config=RunConfig(checkpoint_dir=tmp_path),
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_repetitions(
                sweep_build, seed=8, repetitions=2, horizon=6,
                config=RunConfig(checkpoint_dir=tmp_path, resume=True),
            )

    def test_serial_one_shot_crash_retried(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=3, horizon=6)
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            retried = run_repetitions(
                CrashOnce(tmp_path / "shot"), seed=7, repetitions=3, horizon=6,
                config=RunConfig(retries=1, collect_metrics=False),
            )
        assert retried.n_failed == 0
        assert_same_summaries(base, retried)
        assert registry.counter("sim.retries") == 1

    def test_without_retries_crash_stays_a_failure(self, tmp_path):
        study = run_repetitions(
            CrashOnce(tmp_path / "shot"), seed=7, repetitions=3, horizon=6
        )
        assert study.n_failed == 1
        assert "injected one-shot crash" in study.failures[0].error

    def test_pool_hard_worker_death_retried_matches_serial(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=2, horizon=4)
        retried = run_repetitions(
            DieOnce(tmp_path / "shot"), seed=7, repetitions=2, horizon=4,
            n_controllers=2, config=RunConfig(jobs=2, retries=2),
        )
        assert retried.n_failed == 0
        assert_same_summaries(base, retried)

    def test_slot_checkpoints_cleaned_after_completion(self, tmp_path):
        run_repetitions(
            sweep_build, seed=7, repetitions=1, horizon=6,
            config=RunConfig(checkpoint_dir=tmp_path, checkpoint_every=2),
        )
        assert list((tmp_path / "slots").rglob("*.npz")) == []

    def test_checkpoint_every_requires_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_repetitions(
                sweep_build, seed=7, repetitions=1, horizon=6,
                config=RunConfig(checkpoint_every=2),
            )
