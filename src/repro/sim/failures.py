"""Scripted failure injection: station outages and capacity degradation.

Real MECs lose cloudlets (power, maintenance, backhaul cuts).  A
:class:`FailureSchedule` declares windows during which a station's
capacity is reduced (to zero for a full outage); :func:`run_with_failures`
drives a controller through the horizon applying and reverting the
failures around each slot, so controllers are exercised against the
topology *changing under them* — the robustness companion to the delay
drift and demand bursts.

:func:`run_with_failures` is a thin front over
:func:`repro.sim.run_simulation` with its ``failures`` argument — one
loop, one set of semantics — so failure runs get the same observability
spans, clairvoyant comparator, prediction-error tracking and
checkpoint/resume support as ordinary runs (the standalone loop this
module used to carry had silently drifted behind on all four).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from numpy.typing import DTypeLike

from repro import obs
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.sim.config import RunConfig
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimulationResult
from repro.utils.validation import require_non_negative, require_positive
from repro.workload.demand import DemandModel

__all__ = ["FailureSchedule", "run_with_failures"]


@dataclass(frozen=True)
class _Outage:
    station: int
    start: int
    end: int  # exclusive
    remaining_fraction: float  # 0.0 == full outage


class FailureSchedule:
    """Capacity-degradation windows per station."""

    def __init__(self) -> None:
        self._outages: List[_Outage] = []

    def add_outage(
        self,
        station: int,
        start: int,
        duration: int,
        remaining_fraction: float = 0.0,
    ) -> "FailureSchedule":
        """Degrade ``station`` to ``remaining_fraction`` of its capacity
        for ``duration`` slots from ``start``; returns self for chaining."""
        require_non_negative("station", station)
        require_non_negative("start", start)
        require_positive("duration", duration)
        if not 0.0 <= remaining_fraction < 1.0:
            raise ValueError(
                f"remaining_fraction must be in [0, 1), got {remaining_fraction}"
            )
        self._outages.append(
            _Outage(
                station=int(station),
                start=int(start),
                end=int(start + duration),
                remaining_fraction=float(remaining_fraction),
            )
        )
        return self

    @property
    def n_outages(self) -> int:
        return len(self._outages)

    def capacity_factor(self, station: int, slot: int) -> float:
        """The station's remaining capacity fraction in ``slot``.

        Overlapping windows compound by taking the *most severe* one.
        """
        factor = 1.0
        for outage in self._outages:
            if outage.station == station and outage.start <= slot < outage.end:
                factor = min(factor, outage.remaining_fraction)
        return factor

    def affected_stations(self, slot: int) -> List[int]:
        """Stations degraded in ``slot``."""
        return sorted(
            {
                o.station
                for o in self._outages
                if o.start <= slot < o.end
            }
        )

    def capacity_factors(self, n_stations: int, slot: int) -> np.ndarray:
        """Remaining capacity fraction per station in ``slot``.

        The vectorised counterpart of :meth:`capacity_factor`: one float
        vector per slot for the simulation loop, same most-severe-window
        semantics.
        """
        factors = np.ones(n_stations)
        for outage in self._outages:
            if outage.start <= slot < outage.end and outage.station < n_stations:
                factors[outage.station] = min(
                    factors[outage.station], outage.remaining_fraction
                )
        return factors


def run_with_failures(
    network: MECNetwork,
    demand_model: DemandModel,
    controller: Controller,
    horizon: int,
    failures: FailureSchedule,
    *,
    demands_known: bool = True,
    compute_optimal: bool = False,
    exact_optimal: bool = False,
    metrics: Optional["obs.MetricsRegistry"] = None,
    config: Optional[RunConfig] = None,
    dtype: DTypeLike = np.float64,
) -> SimulationResult:
    """Like :func:`repro.sim.run_simulation`, with per-slot failures applied.

    Before each slot the scheduled capacity factors are applied to the
    live station objects (so the controller's LP/packing sees the outage);
    the original capacities are always restored afterwards, even on error.
    A full outage (factor 0) leaves a tiny epsilon capacity so division-
    based utilisation metrics stay finite; no request fits in it.

    Delegates to the shared :func:`repro.sim.run_simulation` loop, so
    every engine feature — obs spans, ``compute_optimal``, prediction-MAE
    tracking, checkpoint/resume via ``config``, the ``dtype`` knob —
    works under failures too.
    """
    return run_simulation(
        network,
        demand_model,
        controller,
        horizon,
        demands_known=demands_known,
        compute_optimal=compute_optimal,
        exact_optimal=exact_optimal,
        metrics=metrics,
        config=config,
        failures=failures,
        dtype=dtype,
    )
