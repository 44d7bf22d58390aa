"""Tests for the declarative campaign layer: spec, TOML, run, resume, CLI.

The campaign acceptance properties from the issue live here:

- a TOML spec expands into the full-factorial cell list;
- the same spec + seed always derives the same cell seeds and produces
  bit-identical aggregate summaries;
- a campaign killed after N cells and restarted with resume executes
  exactly the missing cells (and the result equals an uninterrupted run);
- the CLI drives run/status/report end-to-end.
"""

import json

import pytest

from repro.campaigns import (
    CampaignError,
    CampaignScenario,
    CampaignSpec,
    FactorAxis,
    OutageSpec,
    ScenarioSpec,
    campaign_status,
    cell_directory,
    load_campaign_toml,
    render_campaign_report,
    run_campaign,
    write_campaign_report,
)
from repro.cli import main as cli_main
from repro.sim import RunConfig, run_repetitions

# A deliberately tiny world so each cell runs in well under a second.
TINY = dict(
    controllers=("OL_GD", "Greedy_GD"),
    horizon=3,
    n_stations=10,
    n_services=2,
    n_requests=6,
    n_hotspots=3,
)


def tiny_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="tiny",
        seed=11,
        repetitions=2,
        scenario=ScenarioSpec(**TINY),
        factors=(FactorAxis("n_stations", (10, 12)),),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


TINY_TOML = """
[campaign]
name = "tiny"
seed = 11
repetitions = 2

[scenario]
controllers = ["OL_GD", "Greedy_GD"]
horizon = 3
n_stations = 10
n_services = 2
n_requests = 6
n_hotspots = 3

[[factors]]
path = "n_stations"
values = [10, 12]
"""


class TestExpansion:
    def test_full_factorial(self):
        spec = tiny_spec(
            factors=(
                FactorAxis("n_stations", (10, 12)),
                FactorAxis("workload", ("constant", "bursty")),
            )
        )
        cells = spec.expand()
        assert spec.n_cells == len(cells) == 4
        assert [c.cell_id for c in cells] == [
            "n_stations=10-workload=constant",
            "n_stations=10-workload=bursty",
            "n_stations=12-workload=constant",
            "n_stations=12-workload=bursty",
        ]
        assert cells[1].scenario.n_stations == 10
        assert cells[1].scenario.workload == "bursty"
        assert len({c.seed for c in cells}) == 4

    def test_no_factors_single_base_cell(self):
        cells = tiny_spec(factors=()).expand()
        assert [c.cell_id for c in cells] == ["base"]

    def test_seeds_keyed_by_cell_id_not_position(self):
        small = tiny_spec(factors=(FactorAxis("n_stations", (10, 12)),))
        grown = tiny_spec(factors=(FactorAxis("n_stations", (8, 10, 12)),))
        small_seeds = {c.cell_id: c.seed for c in small.expand()}
        grown_seeds = {c.cell_id: c.seed for c in grown.expand()}
        # Positions shifted, but the shared cells keep their seeds.
        for cell_id, seed in small_seeds.items():
            assert grown_seeds[cell_id] == seed

    def test_expand_deterministic(self):
        a, b = tiny_spec().expand(), tiny_spec().expand()
        assert a == b

    def test_option_and_controller_paths(self):
        spec = tiny_spec(
            factors=(
                FactorAxis("workload_options.jitter", (0.0, 0.2)),
                FactorAxis("controller_options.OL_GD.step_scale", (1.0,)),
            )
        )
        cells = spec.expand()
        assert cells[0].scenario.workload_options == {"jitter": 0.0}
        assert cells[0].scenario.controller_options == {
            "OL_GD": {"step_scale": 1.0}
        }

    def test_unknown_names_rejected(self):
        with pytest.raises(CampaignError, match="unknown controller"):
            tiny_spec(
                scenario=ScenarioSpec(**{**TINY, "controllers": ("Nope",)})
            ).expand()
        with pytest.raises(CampaignError, match="unknown topology"):
            tiny_spec(
                scenario=ScenarioSpec(**{**TINY, "topology": "nope"})
            ).expand()
        with pytest.raises(CampaignError, match="unknown workload"):
            tiny_spec(
                factors=(FactorAxis("workload", ("nope",)),)
            ).expand()

    def test_bad_factor_paths(self):
        with pytest.raises(CampaignError, match="does not name"):
            tiny_spec(factors=(FactorAxis("nonsense", (1,)),)).expand()
        with pytest.raises(CampaignError, match="options mapping"):
            tiny_spec(factors=(FactorAxis("horizon.deep", (1,)),)).expand()

    def test_validation_errors(self):
        with pytest.raises(CampaignError, match="at least one controller"):
            ScenarioSpec(**{**TINY, "controllers": ()})
        with pytest.raises(CampaignError, match="repeats a value"):
            FactorAxis("n_stations", (10, 10))
        with pytest.raises(CampaignError, match="duplicate factor paths"):
            tiny_spec(
                factors=(
                    FactorAxis("n_stations", (10,)),
                    FactorAxis("n_stations", (12,)),
                )
            )
        with pytest.raises(CampaignError, match="slug"):
            tiny_spec(name="has space")


class TestTomlLoading:
    def test_roundtrip_matches_python_spec(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(TINY_TOML, encoding="utf-8")
        loaded = load_campaign_toml(path)
        assert loaded.to_payload() == tiny_spec().to_payload()
        assert [c.seed for c in loaded.expand()] == [
            c.seed for c in tiny_spec().expand()
        ]

    def test_outages_parsed(self, tmp_path):
        path = tmp_path / "out.toml"
        path.write_text(
            TINY_TOML
            + "\n[[scenario.outages]]\nstation = 0\nstart = 1\nduration = 2\n",
            encoding="utf-8",
        )
        spec = load_campaign_toml(path)
        assert spec.scenario.outages == (
            OutageSpec(station=0, start=1, duration=2),
        )

    def test_unknown_table_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(TINY_TOML + "\n[mystery]\nx = 1\n", encoding="utf-8")
        with pytest.raises(CampaignError, match="unknown top-level"):
            load_campaign_toml(path)

    def test_missing_table_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[campaign]\nname='x'\nseed=1\nrepetitions=1\n")
        with pytest.raises(CampaignError, match="missing table"):
            load_campaign_toml(path)

    def test_bad_field_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            TINY_TOML.replace('name = "tiny"', 'name = "tiny"\ntypo = 3'),
            encoding="utf-8",
        )
        with pytest.raises(CampaignError, match="typo"):
            load_campaign_toml(path)


class TestRunAndResume:
    def test_cell_equals_direct_run(self, tmp_path):
        spec = tiny_spec()
        result = run_campaign(spec, tmp_path / "camp")
        cell = result.cells[0]
        direct = run_repetitions(
            CampaignScenario(cell.scenario),
            seed=cell.seed,
            repetitions=spec.repetitions,
            horizon=cell.scenario.horizon,
        )
        study = result.studies[cell.cell_id]
        # mean_decision_s is wall-clock timing, so only the simulated
        # metrics can be (and are) bit-identical.
        for controller in direct.summaries:
            for metric in ("mean_delay_ms", "total_churn"):
                assert (
                    study.summary(controller, metric).values
                    == direct.summary(controller, metric).values
                )

    def test_kill_and_resume_runs_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        killed = run_campaign(spec, tmp_path / "camp", max_cells=1)
        assert len(killed.executed) == 1 and len(killed.remaining) == 1
        assert not killed.complete

        resumed = run_campaign(spec, tmp_path / "camp", config=RunConfig(resume=True))
        assert resumed.executed == killed.remaining
        assert resumed.skipped == killed.executed
        assert resumed.complete

        # The stitched-together campaign equals a fresh uninterrupted one:
        # summary.json is deterministic by contract (wall-clock timing
        # lives in the timing.json sidecar), so the files themselves are
        # byte-identical, and the rendered aggregate table matches too.
        fresh = run_campaign(spec, tmp_path / "fresh")
        assert fresh.complete
        for cell in spec.expand():
            a = (
                cell_directory(tmp_path / "camp", cell.cell_id)
                / "summary.json"
            ).read_bytes()
            b = (
                cell_directory(tmp_path / "fresh", cell.cell_id)
                / "summary.json"
            ).read_bytes()
            assert a == b
        _, _, stitched = write_campaign_report(tmp_path / "camp")
        _, _, uncut = write_campaign_report(tmp_path / "fresh")
        assert render_campaign_report(stitched).replace(
            str(tmp_path / "camp"), ""
        ) == render_campaign_report(uncut).replace(str(tmp_path / "fresh"), "")

    def test_existing_directory_needs_resume(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "camp", max_cells=0)
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(spec, tmp_path / "camp")

    def test_foreign_directory_rejected(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path / "camp", max_cells=0)
        other = tiny_spec(seed=12)
        with pytest.raises(CampaignError, match="different spec"):
            run_campaign(other, tmp_path / "camp", config=RunConfig(resume=True))

    def test_status_tracks_cells(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "camp", max_cells=1)
        status = campaign_status(tmp_path / "camp")
        assert status.n_complete == 1 and not status.complete
        assert "1/2 cells" in status.table()
        run_campaign(spec, tmp_path / "camp", config=RunConfig(resume=True))
        assert campaign_status(tmp_path / "camp", spec).complete

    def test_outages_applied(self, tmp_path):
        calm = tiny_spec(name="calm")
        stormy = tiny_spec(
            name="stormy",
            scenario=ScenarioSpec(
                **TINY,
                outages=(OutageSpec(station=0, start=0, duration=3),),
            ),
        )
        a = run_campaign(calm, tmp_path / "calm", max_cells=1)
        b = run_campaign(stormy, tmp_path / "stormy", max_cells=1)
        cell = calm.expand()[0].cell_id
        assert (
            a.studies[cell].summary("OL_GD", "mean_delay_ms").values
            != b.studies[cell].summary("OL_GD", "mean_delay_ms").values
        )


class TestReport:
    def test_report_and_csv(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "camp")
        report_path, csv_path, report = write_campaign_report(
            tmp_path / "camp"
        )
        text = render_campaign_report(report)
        assert "n_stations=10" in text and "n_stations=12" in text
        assert "OL_GD" in text and "Greedy_GD" in text
        assert report_path.exists()
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        # header + 2 cells x 2 controllers x 3 metrics
        assert len(lines) == 1 + 12
        assert lines[0].startswith("cell_id,n_stations,controller,metric")

    def test_partial_campaign_lists_pending(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "camp", max_cells=1)
        _, _, report = write_campaign_report(tmp_path / "camp")
        assert len(report.pending) == 1
        assert "pending" in render_campaign_report(report)

    def test_unknown_metric_rejected(self, tmp_path):
        run_campaign(tiny_spec(), tmp_path / "camp", max_cells=1)
        _, _, report = write_campaign_report(tmp_path / "camp")
        with pytest.raises(CampaignError, match="no metric"):
            render_campaign_report(report, "nope")


class TestCampaignCli:
    def test_run_status_report_cycle(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_TOML, encoding="utf-8")
        out = tmp_path / "camp"

        assert cli_main(
            ["campaign", "run", str(spec_path), "--out", str(out),
             "--max-cells", "1"]
        ) == 1
        assert "stopped early" in capsys.readouterr().out

        assert cli_main(["campaign", "status", str(out)]) == 1

        assert cli_main(
            ["campaign", "run", str(spec_path), "--out", str(out), "--resume"]
        ) == 0
        assert cli_main(["campaign", "status", str(out)]) == 0

        assert cli_main(["campaign", "report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean_delay_ms" in printed
        assert (out / "report.md").exists()
        assert (out / "results.csv").exists()

    def test_run_rejects_bad_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.toml"
        spec_path.write_text("[mystery]\nx = 1\n", encoding="utf-8")
        assert cli_main(
            ["campaign", "run", str(spec_path), "--out", str(tmp_path / "o")]
        ) == 2
        assert "unknown top-level" in capsys.readouterr().err

    def test_status_on_missing_directory(self, tmp_path, capsys):
        assert cli_main(
            ["campaign", "status", str(tmp_path / "nothing")]
        ) == 2
        assert "no campaign" in capsys.readouterr().err
