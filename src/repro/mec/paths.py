"""Backhaul paths: propagation + serialization delays across the topology.

The paper's delay model (Eq. 2) folds everything into the per-station
processing delay; §III-C still describes the mechanism — "its data can be
*transferred* to its service S_k that has already been cached into one of
the base stations".  This module makes that transfer explicit: shortest
paths over the topology's ``delay_ms`` edge weights, plus per-hop
serialization at the edge ``bandwidth_mbps``.  Used by the transport-aware
cost extension (:func:`repro.core.assignment.evaluate_with_transport`) and
available to users building richer delay models.
"""

from __future__ import annotations

from typing import Dict, List

import networkx as nx

from repro.mec.geometry import Point
from repro.mec.network import MECNetwork
from repro.utils.validation import require_non_negative

__all__ = ["BackhaulPaths", "access_station"]


class BackhaulPaths:
    """All-pairs shortest backhaul paths, computed lazily per source.

    Shortest paths minimise summed link propagation delay (``delay_ms``);
    serialization cost is then accumulated along the chosen path from each
    link's ``bandwidth_mbps``.
    """

    def __init__(self, graph: nx.Graph):
        for u, v, data in graph.edges(data=True):
            if "delay_ms" not in data or "bandwidth_mbps" not in data:
                raise ValueError(
                    f"edge ({u}, {v}) lacks delay_ms/bandwidth_mbps attributes"
                )
        self._graph = graph
        self._distance_cache: Dict[int, Dict[int, float]] = {}
        self._path_cache: Dict[int, Dict[int, List[int]]] = {}

    def _ensure_source(self, source: int) -> None:
        if source not in self._distance_cache:
            if source not in self._graph:
                raise KeyError(f"node {source} not in the topology")
            distances, paths = nx.single_source_dijkstra(
                self._graph, source, weight="delay_ms"
            )
            self._distance_cache[source] = distances
            self._path_cache[source] = paths

    def propagation_delay_ms(self, source: int, target: int) -> float:
        """Summed link propagation delay of the shortest path (0 if same)."""
        if source == target:
            return 0.0
        self._ensure_source(source)
        distances = self._distance_cache[source]
        if target not in distances:
            raise nx.NetworkXNoPath(f"no path from {source} to {target}")
        return float(distances[target])

    def path(self, source: int, target: int) -> List[int]:
        """Node sequence of the shortest path (inclusive of endpoints)."""
        if source == target:
            return [source]
        self._ensure_source(source)
        paths = self._path_cache[source]
        if target not in paths:
            raise nx.NetworkXNoPath(f"no path from {source} to {target}")
        return list(paths[target])

    def transfer_delay_ms(self, source: int, target: int, data_mb: float) -> float:
        """Propagation plus per-hop serialization for ``data_mb`` megabytes.

        Serialization per hop is ``data_mb * 8 / bandwidth_mbps`` seconds,
        converted to milliseconds (store-and-forward along the path).
        """
        require_non_negative("data_mb", data_mb)
        if source == target:
            return 0.0
        nodes = self.path(source, target)
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            edge = self._graph.edges[u, v]
            total += float(edge["delay_ms"])
            total += (data_mb * 8.0 / float(edge["bandwidth_mbps"])) * 1000.0
        return total

    def hop_count(self, source: int, target: int) -> int:
        """Number of links on the shortest path."""
        return len(self.path(source, target)) - 1


def access_station(network: MECNetwork, point: Point) -> int:
    """The base station a user at ``point`` attaches to.

    The nearest *covering* station (smallest distance among stations whose
    disk contains the point); falls back to the globally nearest station
    when nothing covers the user (macro-hole), mirroring cellular
    best-server association.
    """
    covering = network.covering_stations(point)
    pool = covering if covering else range(network.n_stations)
    return min(
        pool, key=lambda i: network.stations[i].position.distance_to(point)
    )
