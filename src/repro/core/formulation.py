"""The per-slot ILP of Eq. (3)-(7) as an :class:`LpModel`.

Variables: `x_{li}` (request `l` served at station `i`) and `y_{ki}`
(instance of service `k` cached at station `i`).  Objective (Eq. 3):

    min (1/|R|) * ( sum_{l,i} x_li * rho_l(t) * theta_i
                    + sum_{k,i} y_ki * d_ins[i,k] )

subject to assignment (Eq. 4), capacity (Eq. 5) and caching-coupling
(Eq. 6) constraints.  `theta_i` is whatever delay estimate the caller
holds — the bandit means for the online algorithm, the true `d_i(t)` for
the clairvoyant optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lp.model import LpModel, Sense
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["CachingVariables", "build_caching_model"]


@dataclass(frozen=True)
class CachingVariables:
    """Index bookkeeping between the LP columns and (l, i) / (k, i) pairs."""

    n_requests: int
    n_stations: int
    service_station_pairs: Tuple[Tuple[int, int], ...]
    _y_offset: int
    _y_index: Dict[Tuple[int, int], int]

    def x_index(self, request: int, station: int) -> int:
        """Column of `x_{li}`."""
        if not 0 <= request < self.n_requests:
            raise IndexError(f"request {request} out of range")
        if not 0 <= station < self.n_stations:
            raise IndexError(f"station {station} out of range")
        return request * self.n_stations + station

    def y_index(self, service: int, station: int) -> int:
        """Column of `y_{ki}` (only pairs actually demanded exist)."""
        key = (service, station)
        if key not in self._y_index:
            raise KeyError(f"no y variable for service {service} at station {station}")
        return self._y_index[key]

    def x_matrix(self, values: np.ndarray) -> np.ndarray:
        """Reshape a solution vector into the `(|R|, |BS|)` x-matrix."""
        x_part = values[: self.n_requests * self.n_stations]
        return x_part.reshape(self.n_requests, self.n_stations)

    def y_values(self, values: np.ndarray) -> Dict[Tuple[int, int], float]:
        """The `y_{ki}` values keyed by `(service, station)`."""
        return {
            pair: float(values[self._y_offset + position])
            for position, pair in enumerate(self.service_station_pairs)
        }


def build_caching_model(
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    theta_ms: np.ndarray,
    *,
    integer: bool = False,
    slot_seconds: Optional[float] = None,
) -> Tuple[LpModel, CachingVariables]:
    """Assemble the Eq. (3)-(7) model.

    ``integer=False`` gives the LP relaxation (Eq. 8) used by Algorithm 1;
    ``integer=True`` the exact ILP for the clairvoyant solver.  Only the
    `(service, station)` pairs of services actually requested get `y`
    variables — the others are always 0 in any optimum.

    ``slot_seconds`` (extension, default off) additionally constrains each
    station's *bandwidth*: the data routed to `bs_i` per slot must fit its
    §VI-A bandwidth capacity, ``sum_l x_li * rho_l <= bw_i * slot_seconds
    / 8`` megabytes.  The paper specifies the per-tier bandwidths but its
    formulation only constrains compute; this flag activates the natural
    companion constraint.
    """
    demands_mb = np.asarray(demands_mb, dtype=float)
    theta_ms = np.asarray(theta_ms, dtype=float)
    n_requests, n_stations = len(requests), network.n_stations
    if n_requests == 0:
        raise ValueError("need at least one request")
    if demands_mb.shape != (n_requests,):
        raise ValueError(
            f"demand vector must have shape ({n_requests},), got {demands_mb.shape}"
        )
    if np.any(demands_mb < 0):
        raise ValueError("demands must be non-negative")
    if theta_ms.shape != (n_stations,):
        raise ValueError(
            f"theta vector must have shape ({n_stations},), got {theta_ms.shape}"
        )

    model = LpModel("service-caching")
    scale = 1.0 / n_requests

    # x variables, ordered (l, i) row-major to match CachingVariables.
    for l in range(n_requests):
        for i in range(n_stations):
            model.add_variable(
                low=0.0,
                high=1.0,
                objective=scale * demands_mb[l] * theta_ms[i],
                integer=integer,
                name=f"x[{l},{i}]",
            )

    needed_services = sorted({r.service_index for r in requests})
    pairs: List[Tuple[int, int]] = [
        (k, i) for k in needed_services for i in range(n_stations)
    ]
    y_offset = n_requests * n_stations
    y_index: Dict[Tuple[int, int], int] = {}
    for position, (k, i) in enumerate(pairs):
        column = model.add_variable(
            low=0.0,
            high=1.0,
            objective=scale * network.services.instantiation_delay(i, k),
            integer=integer,
            name=f"y[{k},{i}]",
        )
        y_index[(k, i)] = column
        assert column == y_offset + position

    variables = CachingVariables(
        n_requests=n_requests,
        n_stations=n_stations,
        service_station_pairs=tuple(pairs),
        _y_offset=y_offset,
        _y_index=y_index,
    )

    # Eq. 4: every request is served exactly once.
    for l in range(n_requests):
        model.add_constraint(
            {variables.x_index(l, i): 1.0 for i in range(n_stations)},
            Sense.EQ,
            1.0,
            name=f"assign[{l}]",
        )

    # Eq. 5: station capacity.
    for i in range(n_stations):
        coefficients = {
            variables.x_index(l, i): demands_mb[l] * network.c_unit_mhz
            for l in range(n_requests)
        }
        model.add_constraint(
            coefficients,
            Sense.LE,
            network.stations[i].capacity_mhz,
            name=f"capacity[{i}]",
        )

    # Extension: per-station bandwidth (data volume per slot).
    if slot_seconds is not None:
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be > 0, got {slot_seconds}")
        for i in range(n_stations):
            budget_mb = network.stations[i].bandwidth_mbps * slot_seconds / 8.0
            model.add_constraint(
                {
                    variables.x_index(l, i): demands_mb[l]
                    for l in range(n_requests)
                },
                Sense.LE,
                budget_mb,
                name=f"bandwidth[{i}]",
            )

    # Eq. 6: y_{ki} >= x_{li} for every request of service k.
    for l, request in enumerate(requests):
        k = request.service_index
        for i in range(n_stations):
            model.add_constraint(
                {
                    variables.y_index(k, i): 1.0,
                    variables.x_index(l, i): -1.0,
                },
                Sense.GE,
                0.0,
                name=f"couple[{l},{i}]",
            )

    return model, variables
