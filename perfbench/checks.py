"""Output checks: every decision valid, every run reproducible.

A failed check raises :class:`CheckFailure`; the run then reports
``"correct": false`` and the command exits non-zero.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

__all__ = ["CheckFailure", "check_placement", "same_decisions"]


class CheckFailure(AssertionError):
    """An output of the program under test is wrong."""


def check_placement(
    stations: np.ndarray,
    cached_pairs: np.ndarray,
    delay_ms: float,
    service_of: np.ndarray,
    n_stations: int,
    *,
    where: str,
) -> None:
    """Stations in range, every used (service, station) cached, delay finite."""
    stations = np.asarray(stations, dtype=np.int64)
    if stations.shape != service_of.shape:
        raise CheckFailure(f"{where}: {stations.size} stations for {service_of.size} requests")
    if stations.size and (stations.min() < 0 or stations.max() >= n_stations):
        raise CheckFailure(f"{where}: station index outside [0, {n_stations})")
    pairs = np.asarray(cached_pairs, dtype=np.int64).reshape(-1, 2)
    used = service_of * n_stations + stations
    cached = pairs[:, 0] * n_stations + pairs[:, 1]
    if not np.isin(used, cached).all():
        raise CheckFailure(f"{where}: a request is served where its service is not cached")
    if not math.isfinite(delay_ms):
        raise CheckFailure(f"{where}: non-finite delay {delay_ms!r}")


def same_decisions(first: Sequence[Any], second: Sequence[Any], *, where: str) -> None:
    """The shared prefix of two runs of one seed decided identically."""
    for slot, (a, b) in enumerate(zip(first, second)):
        if a.delay_ms != b.delay_ms or not np.array_equal(a.stations, b.stations):
            raise CheckFailure(
                f"{where}: slot {slot} differs between two runs of one seed "
                f"(delay {a.delay_ms!r} vs {b.delay_ms!r})"
            )
