"""Planar geometry for base-station placement and user coverage.

Base stations and users live on a 2-D plane measured in metres.  Coverage is
the paper's disk model: a user is covered by `bs_i` when it is within the
transmission radius of `bs_i` (15 m femto, 30 m micro, 100 m macro,
§VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Point", "distance", "points_within", "random_point_in_disk"]


@dataclass(frozen=True)
class Point:
    """A point on the deployment plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points in metres."""
    return a.distance_to(b)


def points_within(center: Point, radius: float, candidates: Sequence[Point]) -> List[int]:
    """Indices of ``candidates`` lying within ``radius`` metres of ``center``.

    This is the disk coverage test used to decide which base stations cover
    a user (and, for Pri_GD, how many base stations cover each user).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if not candidates:
        return []
    xs = np.array([p.x for p in candidates])
    ys = np.array([p.y for p in candidates])
    d2 = (xs - center.x) ** 2 + (ys - center.y) ** 2
    return [int(i) for i in np.nonzero(d2 <= radius * radius)[0]]


def random_point_in_disk(center: Point, radius: float, rng: np.random.Generator) -> Point:
    """Sample a uniform random point inside the disk of ``radius`` at ``center``.

    Used to scatter micro/femto base stations inside the macro cell and to
    drop users near hotspots.  Sampling ``r = radius * sqrt(u)`` gives an
    area-uniform distribution (plain ``radius * u`` would cluster points at
    the centre).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    return Point(center.x + r * math.cos(theta), center.y + r * math.sin(theta))
