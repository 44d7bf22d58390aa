"""Figure regenerators: one function per evaluation figure (Figs. 3-7).

Every generator builds the §VI-A setting (GT-ITM or AS1755 topology,
tiered base stations, NYC-Wi-Fi-like user trace), runs the relevant
algorithms over the horizon and returns a :class:`FigureResult` with the
same series the paper plots.  Values are averaged over
``profile.repetitions`` independently-seeded topologies (the paper uses
80); with ``profile.n_jobs != 1`` the repetitions fan out over a process
pool (:func:`repro.sim.parallel.run_sweeps`) with bit-identical averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import make_controller
from repro.core.controller import Controller
from repro.experiments.config import ExperimentProfile
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import RunConfig, SimulationResult
from repro.sim.parallel import Sweep, run_sweeps
from repro.utils.seeding import RngRegistry
from repro.workload import (
    BurstyDemandModel,
    ConstantDemandModel,
    requests_from_trace,
    synthesize_nyc_wifi_trace,
)

__all__ = [
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
]


@dataclass
class FigureResult:
    """A reproduced figure: named series over a common x-axis."""

    figure_id: str
    title: str
    x_label: str
    x_values: List[float]
    # panel -> algorithm -> series (same length as x_values)
    panels: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def add_point(self, panel: str, algorithm: str, value: float) -> None:
        self.panels.setdefault(panel, {}).setdefault(algorithm, []).append(
            float(value)
        )

    def series(self, panel: str, algorithm: str) -> np.ndarray:
        return np.array(self.panels[panel][algorithm])

    def validate(self) -> None:
        """Every series must cover every x value.

        Panels prefixed ``as1755_`` are scalar side-panels (Fig. 7's real-
        topology bars) with their own implicit axis and are skipped.
        """
        for panel, algorithms in self.panels.items():
            if panel.startswith("as1755_"):
                continue
            for algorithm, values in algorithms.items():
                if len(values) != len(self.x_values):
                    raise ValueError(
                        f"{self.figure_id}/{panel}/{algorithm} has "
                        f"{len(values)} points for {len(self.x_values)} x values"
                    )


# --------------------------------------------------------------------- #
# Setting construction
# --------------------------------------------------------------------- #


def _build_setting(
    profile: ExperimentProfile,
    rngs: RngRegistry,
    n_stations: int,
    topology: str = "gtitm",
    bursty: bool = False,
):
    """Network + requests + demand model for one repetition.

    Mirrors §VI-A plus the scenario decisions recorded in DESIGN.md:

    * the user trace is synthesised first and its hotspots anchor the
      small-cell placement (operators deploy femtocells at traffic
      hotspots — this is what gives Pri_GD's coverage priority meaning);
    * `d_i(t)` follows a drifting random walk (the paper's "time-varying
      processing delays" uncertainty — a stationary process would let a
      memorising baseline match the learner);
    * `C_unit` is calibrated so one femtocell hosts about
      ``profile.femto_requests`` average requests: the smallest tier stays
      usable (femtocells exist to serve users) while the fast small cells
      are scarce enough that the joint caching/offloading optimisation
      has something to optimise.
    """
    from repro.mec.delay import DriftingDelay

    trace_rng = rngs.get("trace")
    trace = synthesize_nyc_wifi_trace(
        profile.n_hotspots,
        profile.n_requests,
        trace_rng,
        horizon_slots=profile.horizon,
    )
    anchors = [h.location for h in trace.hotspots]

    if topology == "gtitm":
        network = MECNetwork.synthetic(
            n_stations, profile.n_services, rngs, anchor_points=anchors
        )
    elif topology == "as1755":
        network = MECNetwork.as1755(
            profile.n_services, rngs, anchor_points=anchors
        )
    else:
        raise ValueError(f"unknown topology {topology!r}")

    if profile.drift_ms > 0:
        congestion = None
        if topology == "as1755":
            # Preserve the hub-congestion structure of the real topology
            # under the drifting process (same coupling as MECNetwork.as1755).
            degrees = np.array(
                [network.graph.degree(i) for i in range(network.n_stations)],
                dtype=float,
            )
            congestion = 1.0 + degrees / degrees.max()
        network.delays = DriftingDelay(
            network.stations,
            rngs.get("delays-drift"),
            drift_ms=profile.drift_ms,
            congestion=congestion,
        )

    requests = requests_from_trace(trace, network.services, trace_rng)
    if bursty:
        # Default (slot-mode) amplitudes: explosive per-slot volumes whose
        # conditional structure linear extrapolation cannot fit — the
        # "hard-to-grasp burstiness" the GAN predictor targets.
        demand_model = BurstyDemandModel(requests, rngs.get("demand"))
    else:
        demand_model = ConstantDemandModel(requests)
    # Calibrate C_unit from the smallest tier: a femtocell must be able to
    # host ~`femto_requests` average-size requests, otherwise the fastest
    # stations are unusable and every algorithm degenerates to the macros.
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(
        network.capacities_mhz.min() / (profile.femto_requests * mean_demand)
    )
    return network, requests, demand_model


@dataclass(frozen=True)
class _FigureScenario:
    """Picklable scenario builder for one figure setting.

    The repetition fan-out ships the builder to worker processes, so it
    must pickle — closures over ``profile`` cannot.  ``family`` selects the
    controller set: ``"given"`` (OL_GD and the §IV baselines) or
    ``"predictive"`` (OL_GAN vs OL_Reg, §V).
    """

    profile: ExperimentProfile
    n_stations: int
    topology: str = "gtitm"
    bursty: bool = False
    family: str = "given"

    def __call__(self, rngs: RngRegistry):
        network, requests, demand_model = _build_setting(
            self.profile,
            rngs,
            self.n_stations,
            topology=self.topology,
            bursty=self.bursty,
        )
        if self.family == "given":
            controllers = _given_demand_controllers(rngs, network, requests)
        elif self.family == "predictive":
            controllers = _predictive_controllers(
                self.profile, rngs, network, requests
            )
        else:
            raise ValueError(f"unknown controller family {self.family!r}")
        return network, demand_model, controllers


def _average_runs(
    profile: ExperimentProfile,
    family: str,
    n_stations: int,
    topology: str = "gtitm",
    bursty: bool = False,
    horizon: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Run a controller family over ``repetitions`` independent topologies.

    Returns one merged :class:`SimulationResult` per controller whose
    delay / runtime / prediction-MAE series are element-wise means across
    repetitions (all repetitions share the horizon, mirroring the paper's
    80-topology averaging).  Slot-level integer diagnostics (cache churn,
    instance counts) are taken from repetition 0 — they are per-run
    observables, not averaged statistics.

    Repetitions execute as one :class:`repro.sim.parallel.Sweep` honouring
    ``profile.n_jobs`` (results are bit-identical across worker counts).
    Figures need every repetition, so unlike ``run_repetitions`` a crashed
    repetition is an error here — a silently missing seed would change the
    averages the reproduction reports.
    """
    horizon = horizon if horizon is not None else profile.horizon
    scenario = _FigureScenario(
        profile=profile,
        n_stations=n_stations,
        topology=topology,
        bursty=bursty,
        family=family,
    )
    # Sweep persistence (repro.state): each scenario configuration gets its
    # own subdirectory under the profile's checkpoint root, so a report run
    # interrupted between figures resumes exactly where it stopped.
    sweep_dir = None
    if profile.checkpoint_dir is not None:
        label = f"{family}-{topology}-bs{n_stations}-h{horizon}"
        if bursty:
            label += "-bursty"
        sweep_dir = Path(profile.checkpoint_dir) / label
    [work] = run_sweeps(
        [
            Sweep(
                scenario,
                seed=profile.seed,
                repetitions=profile.repetitions,
                horizon=horizon,
                demands_known=not bursty,
                directory=sweep_dir,
            )
        ],
        config=RunConfig(
            jobs=profile.n_jobs,
            retries=profile.max_retries,
            checkpoint_every=profile.checkpoint_every,
            resume=profile.resume,
        ),
    )
    failed = [w for w in work if not w.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(work)} figure runs failed; first "
            f"failure (rep{failed[0].repetition}):\n{failed[0].error_traceback}"
        )
    merged: Dict[str, List[SimulationResult]] = {}
    for w in work:  # sorted by (repetition, controller) — repetition order
        merged.setdefault(w.controller_name, []).append(w.result)

    averaged: Dict[str, SimulationResult] = {}
    for name, results in merged.items():
        base = results[0]
        if len(results) > 1:
            delays = np.mean([r.delays_ms for r in results], axis=0)
            decide_times = np.mean([r.decide_only_seconds for r in results], axis=0)
            observe_times = np.mean(
                [r.decision_seconds - r.decide_only_seconds for r in results], axis=0
            )
            maes_stack = np.stack([r.prediction_maes for r in results])
            if np.isnan(maes_stack).all():
                maes = np.full(base.horizon, np.nan)
            else:
                maes = np.nanmean(maes_stack, axis=0)
            from repro.sim.metrics import SlotRecord

            combined = SimulationResult(controller_name=name)
            for t in range(base.horizon):
                combined.append(
                    SlotRecord(
                        slot=t,
                        average_delay_ms=float(delays[t]),
                        decision_seconds=float(decide_times[t]),
                        observe_seconds=float(observe_times[t]),
                        cache_churn=base.records[t].cache_churn,
                        n_cached_instances=base.records[t].n_cached_instances,
                        max_load_fraction=base.records[t].max_load_fraction,
                        prediction_mae_mb=None if np.isnan(maes[t]) else float(maes[t]),
                        initial_instantiations=base.records[t].initial_instantiations,
                    )
                )
            averaged[name] = combined
        else:
            averaged[name] = base
    return averaged


def _given_demand_controllers(
    rngs: RngRegistry, network: MECNetwork, requests: List[Request]
) -> List[Controller]:
    return [
        make_controller("OL_GD", network, requests, rngs.get("ol-gd")),
        make_controller("Greedy_GD", network, requests, rngs.get("greedy")),
        make_controller("Pri_GD", network, requests, rngs.get("priority")),
    ]


def _predictive_controllers(
    profile: ExperimentProfile,
    rngs: RngRegistry,
    network: MECNetwork,
    requests: List[Request],
) -> List[Controller]:
    # The GAN's small sample: demand history from *before* the horizon,
    # produced by an independently-seeded copy of the demand process.
    warmup_model = BurstyDemandModel(requests, rngs.get("warmup-demand"))
    warmup = warmup_model.matrix(profile.gan_pretrain_slots)
    # Common random numbers: both controllers' inner OL_GD draws the same
    # exploration/rounding sequence, so the delay difference isolates the
    # prediction quality (GAN vs AR) the figure is about.
    pair_seed = int(rngs.get("inner-pair").integers(2**63 - 1))
    return [
        make_controller(
            "OL_GAN",
            network,
            requests,
            rngs.get("ol-gan"),
            n_hotspots=profile.n_hotspots,
            warmup_history=warmup,
            inner_rng=np.random.default_rng(pair_seed),
            window=profile.gan_window,
            hidden_size=profile.gan_hidden,
            pretrain_epochs=profile.gan_pretrain_epochs,
            online_steps=1,
            supervised_quantile=0.7,
        ),
        make_controller(
            "OL_Reg",
            network,
            requests,
            rngs.get("ol-reg"),
            inner_rng=np.random.default_rng(pair_seed),
        ),
    ]


# --------------------------------------------------------------------- #
# The five evaluation figures
# --------------------------------------------------------------------- #


def figure3(profile: ExperimentProfile) -> FigureResult:
    """Fig. 3: OL_GD vs Greedy_GD vs Pri_GD over the horizon (GT-ITM).

    Panel ``delay_ms``: per-slot average delay (Fig. 3a); panel
    ``runtime_s``: per-slot decision time (Fig. 3b).
    """
    results = _average_runs(
        profile, "given", n_stations=profile.base_stations
    )
    figure = FigureResult(
        figure_id="fig3",
        title=f"OL_GD vs baselines, {profile.base_stations} stations (GT-ITM)",
        x_label="time slot",
        x_values=list(range(profile.horizon)),
    )
    for name, result in results.items():
        for value in result.delays_ms:
            figure.add_point("delay_ms", name, value)
        for value in result.decision_seconds:
            figure.add_point("runtime_s", name, value)
    figure.validate()
    return figure


def figure4(profile: ExperimentProfile) -> FigureResult:
    """Fig. 4: the same three algorithms across network sizes 50-200."""
    figure = FigureResult(
        figure_id="fig4",
        title="OL_GD vs baselines across network sizes (GT-ITM)",
        x_label="number of base stations",
        x_values=[float(s) for s in profile.sweep_sizes],
    )
    for size in profile.sweep_sizes:
        results = _average_runs(profile, "given", n_stations=size)
        for name, result in results.items():
            figure.add_point("delay_ms", name, result.mean_delay_ms())
            figure.add_point("runtime_s", name, result.mean_decision_seconds())
    figure.validate()
    return figure


def figure5(profile: ExperimentProfile) -> FigureResult:
    """Fig. 5: the given-demand algorithms on the real topology AS1755."""
    results = _average_runs(
        profile,
        "given",
        n_stations=0,  # AS1755 fixes its own size
        topology="as1755",
    )
    figure = FigureResult(
        figure_id="fig5",
        title="OL_GD vs baselines on AS1755",
        x_label="time slot",
        x_values=list(range(profile.horizon)),
    )
    for name, result in results.items():
        for value in result.delays_ms:
            figure.add_point("delay_ms", name, value)
        for value in result.decision_seconds:
            figure.add_point("runtime_s", name, value)
    figure.validate()
    return figure


def figure6(profile: ExperimentProfile) -> FigureResult:
    """Fig. 6: OL_GAN vs OL_Reg with unknown (bursty) demands (GT-ITM)."""
    results = _average_runs(
        profile,
        "predictive",
        n_stations=profile.base_stations,
        bursty=True,
    )
    figure = FigureResult(
        figure_id="fig6",
        title=f"OL_GAN vs OL_Reg, {profile.base_stations} stations (GT-ITM)",
        x_label="time slot",
        x_values=list(range(profile.horizon)),
    )
    for name, result in results.items():
        for value in result.delays_ms:
            figure.add_point("delay_ms", name, value)
        for value in result.decision_seconds:
            figure.add_point("runtime_s", name, value)
        for value in result.prediction_maes:
            figure.add_point("prediction_mae_mb", name, value)
    figure.validate()
    return figure


def figure7(profile: ExperimentProfile) -> FigureResult:
    """Fig. 7: OL_GAN vs OL_Reg on AS1755 and across sizes 50-300.

    Panel ``as1755_runtime_s``: per-slot decision time on the real
    topology (the paper's Fig. 7 left); panels ``delay_ms`` /
    ``runtime_s``: sweep over network sizes (Fig. 7 right).  The sweep
    panels are indexed by ``x_values``; the AS1755 panel carries one value
    per slot and is stored under its own x-axis in ``as1755_slots``.
    """
    figure = FigureResult(
        figure_id="fig7",
        title="OL_GAN vs OL_Reg: AS1755 and network-size sweep",
        x_label="number of base stations",
        x_values=[float(s) for s in profile.sweep_sizes_wide],
    )
    for size in profile.sweep_sizes_wide:
        results = _average_runs(
            profile,
            "predictive",
            n_stations=size,
            bursty=True,
        )
        for name, result in results.items():
            figure.add_point("delay_ms", name, result.mean_delay_ms())
            figure.add_point("runtime_s", name, result.mean_decision_seconds())
            figure.add_point(
                "prediction_mae_mb", name, float(np.nanmean(result.prediction_maes))
            )
    figure.validate()

    as1755_results = _average_runs(
        profile,
        "predictive",
        n_stations=0,
        topology="as1755",
        bursty=True,
    )
    # Stored outside validate()'s x-axis check: one scalar per algorithm.
    figure.panels["as1755_runtime_s"] = {
        name: [result.mean_decision_seconds()]
        for name, result in as1755_results.items()
    }
    figure.panels["as1755_delay_ms"] = {
        name: [result.mean_delay_ms()] for name, result in as1755_results.items()
    }
    return figure
