"""The unified run configuration: one spelling per execution concept.

Pins the contract for ``config=RunConfig(...)`` across
``run_simulation`` / ``run_repetitions`` / ``run_with_failures`` /
``run_campaign``: ``RunConfig`` is the only spelling of the execution
knobs, and every removed pre-``RunConfig`` keyword (``checkpoint``,
``n_jobs``, ``max_retries``, bare ``checkpoint_dir``/``resume``/...,
``scheduler``) is a :class:`TypeError`.
"""

from dataclasses import fields

import pytest

from repro.campaigns import CampaignSpec, ScenarioSpec, run_campaign
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import (
    CheckpointConfig,
    FailureSchedule,
    RunConfig,
    run_repetitions,
    run_simulation,
    run_with_failures,
)
from repro.utils.seeding import RngRegistry
from repro.workload import BurstyDemandModel

HORIZON = 6


def build_world(seed=11):
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
    from repro.core import make_controller

    model = BurstyDemandModel(requests, rngs.get("demand"))
    controller = make_controller("OL_GD", network, requests, rngs.get("ctrl"))
    return network, model, controller


def scenario(rngs: RngRegistry):
    from repro.core import make_controller

    network = MECNetwork.synthetic(8, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(6)
    ]
    model = BurstyDemandModel(requests, rngs.get("demand"))
    return network, model, [
        make_controller("OL_GD", network, requests, rngs.get("ctrl"))
    ]


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.jobs == 1
        assert config.retries == 0
        assert config.collect_metrics is None
        assert config.checkpoint_dir is None
        assert not config.resume
        assert [f.name for f in fields(RunConfig)] == [
            "jobs",
            "retries",
            "collect_metrics",
            "checkpoint_dir",
            "checkpoint_every",
            "resume",
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RunConfig(retries=-1)
        with pytest.raises(ValueError, match="checkpoint_every"):
            RunConfig(checkpoint_every=0)
        # resume without a checkpoint_dir is deliberately legal: the
        # campaign runner roots persistence at its out_dir instead.
        RunConfig(resume=True)

    def test_checkpoint_config_round_trip(self, tmp_path):
        config = RunConfig(
            checkpoint_dir=tmp_path, checkpoint_every=4, resume=True
        )
        checkpoint = config.to_checkpoint_config()
        assert checkpoint is not None
        assert checkpoint.every_n_slots == 4
        assert checkpoint.resume
        lifted = RunConfig.from_checkpoint_config(checkpoint)
        assert lifted.checkpoint_dir == checkpoint.directory
        assert lifted.checkpoint_every == 4
        assert lifted.resume
        assert RunConfig().to_checkpoint_config() is None
        assert RunConfig.from_checkpoint_config(None) == RunConfig()

    def test_checkpoint_dir_alone_gets_default_cadence(self, tmp_path):
        checkpoint = RunConfig(checkpoint_dir=tmp_path).to_checkpoint_config()
        assert checkpoint.every_n_slots == 10  # subsystem default


class TestEntryPointEquivalence:
    def test_run_simulation_legacy_checkpoint_kwarg(self, tmp_path):
        network, model, controller = build_world()
        canonical = run_simulation(
            network, model, controller, HORIZON,
            config=RunConfig(
                checkpoint_dir=tmp_path / "new", checkpoint_every=3
            ),
        )
        assert canonical.horizon == HORIZON and (tmp_path / "new").exists()
        network, model, controller = build_world()
        with pytest.raises(TypeError, match="checkpoint"):
            run_simulation(
                network, model, controller, HORIZON,
                checkpoint=CheckpointConfig(
                    directory=tmp_path / "old", every_n_slots=3
                ),
            )
        assert not (tmp_path / "old").exists()

    def test_run_simulation_rejects_mixed_spellings(self, tmp_path):
        network, model, controller = build_world()
        with pytest.raises(TypeError, match="run_simulation"):
            run_simulation(
                network, model, controller, HORIZON,
                config=RunConfig(),
                checkpoint=CheckpointConfig(directory=tmp_path),
            )

    def test_run_repetitions_n_jobs_alias(self):
        with pytest.raises(TypeError, match="n_jobs"):
            run_repetitions(
                scenario, seed=41, repetitions=2, horizon=4, n_jobs=1
            )

    def test_run_repetitions_checkpoint_dir_alias(self, tmp_path):
        with pytest.raises(TypeError, match="checkpoint_dir"):
            run_repetitions(
                scenario, seed=41, repetitions=1, horizon=4,
                checkpoint_dir=tmp_path,
            )
        assert not any(tmp_path.iterdir())  # nothing ran


def _call_run_simulation(tmp_path, **kwargs):
    network, model, controller = build_world()
    return run_simulation(network, model, controller, HORIZON, **kwargs)


def _call_run_with_failures(tmp_path, **kwargs):
    network, model, controller = build_world()
    return run_with_failures(
        network, model, controller, HORIZON, FailureSchedule(), **kwargs
    )


def _call_run_repetitions(tmp_path, **kwargs):
    return run_repetitions(scenario, seed=41, repetitions=1, horizon=4, **kwargs)


def _call_run_campaign(tmp_path, **kwargs):
    spec = CampaignSpec(
        name="tiny", seed=3, repetitions=1,
        scenario=ScenarioSpec(
            controllers=("Greedy_GD",), horizon=2, n_stations=8,
            n_services=2, n_requests=4, n_hotspots=2,
        ),
    )
    return run_campaign(spec, tmp_path / "camp", **kwargs)


@pytest.mark.parametrize(
    "entry, keyword",
    [
        (_call_run_simulation, "checkpoint"),
        (_call_run_with_failures, "checkpoint"),
        *[
            (_call_run_repetitions, keyword)
            for keyword in (
                "n_jobs", "max_retries", "collect_metrics", "checkpoint_dir",
                "checkpoint_every", "resume",
            )
        ],
        *[
            (_call_run_campaign, keyword)
            for keyword in (
                "n_jobs", "max_retries", "resume", "collect_metrics",
                "scheduler",
            )
        ],
    ],
)
def test_removed_keywords_raise_type_error(tmp_path, entry, keyword):
    with pytest.raises(TypeError, match=keyword):
        entry(tmp_path, **{keyword: None})
