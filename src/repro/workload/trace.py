"""Synthetic stand-in for the NYC Wi-Fi hotspot dataset (paper ref. [26]).

The paper extracts "a sample of user information from the dataset of NYC
Wi-Fi hotspot locations", using its location / time / service-status
features as the GAN's small-sample hidden features.  That dataset is not
redistributable here, so :func:`synthesize_nyc_wifi_trace` generates a
trace with the same schema and the same statistical role:

* hotspots clustered by borough (five clusters on the deployment plane),
* per-hotspot provider and free/limited service status,
* user records attached to hotspots, with group tags and session windows.

The CSV round-trip (:meth:`WifiTrace.to_csv` / :meth:`WifiTrace.from_csv`)
lets users swap in the *real* NYC export, which has the same columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.mec.geometry import Point, random_point_in_disk
from repro.mec.requests import Request
from repro.mec.services import ServiceCatalog
from repro.utils.validation import require_positive

__all__ = [
    "Hotspot",
    "UserRecord",
    "WifiTrace",
    "synthesize_nyc_wifi_trace",
    "requests_from_trace",
]

BOROUGHS = ["manhattan", "brooklyn", "queens", "bronx", "staten-island"]
PROVIDERS = ["LinkNYC", "SpotOn", "Transit", "Harlem", "AlticeUSA"]
GROUP_TAGS = ["tourist", "commuter", "resident", "student"]
SERVICE_STATUSES = ["free", "limited"]

# Borough cluster centres on a 1000 m x 1000 m field, mirroring the
# relative geography (Manhattan dense-centre, Staten Island far corner).
_BOROUGH_CENTERS = {
    "manhattan": Point(450.0, 550.0),
    "brooklyn": Point(600.0, 350.0),
    "queens": Point(750.0, 550.0),
    "bronx": Point(500.0, 800.0),
    "staten-island": Point(150.0, 150.0),
}
_BOROUGH_SPREAD_M = 140.0
# Borough weights approximating the real dataset's hotspot density.
_BOROUGH_WEIGHTS = [0.45, 0.22, 0.18, 0.10, 0.05]


@dataclass(frozen=True)
class Hotspot:
    """One Wi-Fi hotspot row: where users cluster and burst together."""

    index: int
    borough: str
    x: float
    y: float
    provider: str
    service_status: str

    @property
    def location(self) -> Point:
        """Hotspot position on the deployment plane."""
        return Point(self.x, self.y)


@dataclass(frozen=True)
class UserRecord:
    """One user row of the trace."""

    user_id: int
    hotspot_index: int
    group_tag: str
    session_start_slot: int
    session_length_slots: int
    base_demand_mb: float


class WifiTrace:
    """A hotspot dataset plus the users sampled from it."""

    def __init__(self, hotspots: Sequence[Hotspot], users: Sequence[UserRecord]):
        if not hotspots:
            raise ValueError("a trace needs at least one hotspot")
        for position, hotspot in enumerate(hotspots):
            if hotspot.index != position:
                raise ValueError("hotspot indices must be 0..n-1 in order")
        hotspot_range = range(len(hotspots))
        for user in users:
            if user.hotspot_index not in hotspot_range:
                raise ValueError(
                    f"user {user.user_id} references hotspot {user.hotspot_index} "
                    f"but only {len(hotspots)} hotspots exist"
                )
        self.hotspots: List[Hotspot] = list(hotspots)
        self.users: List[UserRecord] = list(users)

    @property
    def n_hotspots(self) -> int:
        return len(self.hotspots)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def users_at(self, hotspot_index: int) -> List[UserRecord]:
        """All users attached to one hotspot."""
        return [u for u in self.users if u.hotspot_index == hotspot_index]

    def borough_histogram(self) -> Dict[str, int]:
        """Hotspot counts per borough."""
        histogram: Dict[str, int] = {}
        for hotspot in self.hotspots:
            histogram[hotspot.borough] = histogram.get(hotspot.borough, 0) + 1
        return histogram

    # ------------------------------------------------------------------ #
    # CSV round trip (same columns as the public NYC export subset)
    # ------------------------------------------------------------------ #

    _HOTSPOT_FIELDS = ["index", "borough", "x", "y", "provider", "service_status"]
    _USER_FIELDS = [
        "user_id",
        "hotspot_index",
        "group_tag",
        "session_start_slot",
        "session_length_slots",
        "base_demand_mb",
    ]

    def to_csv(self, hotspot_path: Union[str, Path], user_path: Union[str, Path]) -> None:
        """Write the trace as two CSV files (hotspots, users)."""
        with open(hotspot_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self._HOTSPOT_FIELDS)
            writer.writeheader()
            for h in self.hotspots:
                writer.writerow(
                    {
                        "index": h.index,
                        "borough": h.borough,
                        "x": h.x,
                        "y": h.y,
                        "provider": h.provider,
                        "service_status": h.service_status,
                    }
                )
        with open(user_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self._USER_FIELDS)
            writer.writeheader()
            for u in self.users:
                writer.writerow(
                    {
                        "user_id": u.user_id,
                        "hotspot_index": u.hotspot_index,
                        "group_tag": u.group_tag,
                        "session_start_slot": u.session_start_slot,
                        "session_length_slots": u.session_length_slots,
                        "base_demand_mb": u.base_demand_mb,
                    }
                )

    @classmethod
    def from_csv(
        cls, hotspot_path: Union[str, Path], user_path: Union[str, Path]
    ) -> "WifiTrace":
        """Load a trace previously written by :meth:`to_csv`."""
        hotspots: List[Hotspot] = []
        with open(hotspot_path, newline="") as handle:
            for row in csv.DictReader(handle):
                hotspots.append(
                    Hotspot(
                        index=int(row["index"]),
                        borough=row["borough"],
                        x=float(row["x"]),
                        y=float(row["y"]),
                        provider=row["provider"],
                        service_status=row["service_status"],
                    )
                )
        users: List[UserRecord] = []
        with open(user_path, newline="") as handle:
            for row in csv.DictReader(handle):
                users.append(
                    UserRecord(
                        user_id=int(row["user_id"]),
                        hotspot_index=int(row["hotspot_index"]),
                        group_tag=row["group_tag"],
                        session_start_slot=int(row["session_start_slot"]),
                        session_length_slots=int(row["session_length_slots"]),
                        base_demand_mb=float(row["base_demand_mb"]),
                    )
                )
        return cls(hotspots, users)


def synthesize_nyc_wifi_trace(
    n_hotspots: int,
    n_users: int,
    rng: np.random.Generator,
    horizon_slots: int = 100,
    base_demand_range_mb: Sequence[float] = (0.5, 2.0),
) -> WifiTrace:
    """Generate a synthetic NYC-Wi-Fi-like trace.

    Hotspots are drawn borough-by-borough with the real dataset's rough
    density weights; users attach to hotspots with probability proportional
    to a Zipf-ish popularity (a few hotspots attract most users — that is
    what makes their bursts matter).
    """
    require_positive("n_hotspots", n_hotspots)
    require_positive("n_users", n_users)
    require_positive("horizon_slots", horizon_slots)
    lo, hi = base_demand_range_mb
    require_positive("base demand lower bound", lo)
    if lo > hi:
        raise ValueError("base_demand_range_mb must be (low, high) with low <= high")

    hotspots: List[Hotspot] = []
    for index in range(n_hotspots):
        borough = str(rng.choice(BOROUGHS, p=_BOROUGH_WEIGHTS))
        center = _BOROUGH_CENTERS[borough]
        position = random_point_in_disk(center, _BOROUGH_SPREAD_M, rng)
        hotspots.append(
            Hotspot(
                index=index,
                borough=borough,
                x=position.x,
                y=position.y,
                provider=str(rng.choice(PROVIDERS)),
                service_status=str(rng.choice(SERVICE_STATUSES, p=[0.8, 0.2])),
            )
        )

    # Zipf-like hotspot popularity: weight ~ 1 / rank.
    ranks = np.arange(1, n_hotspots + 1, dtype=float)
    popularity = (1.0 / ranks) / (1.0 / ranks).sum()
    order = rng.permutation(n_hotspots)  # which hotspot gets which rank

    users: List[UserRecord] = []
    for user_id in range(n_users):
        rank = int(rng.choice(n_hotspots, p=popularity))
        hotspot_index = int(order[rank])
        start = int(rng.integers(0, max(1, horizon_slots // 2)))
        length = int(rng.integers(horizon_slots // 4, horizon_slots + 1))
        users.append(
            UserRecord(
                user_id=user_id,
                hotspot_index=hotspot_index,
                group_tag=str(rng.choice(GROUP_TAGS)),
                session_start_slot=start,
                session_length_slots=length,
                base_demand_mb=float(rng.uniform(lo, hi)),
            )
        )
    return WifiTrace(hotspots, users)


def requests_from_trace(
    trace: WifiTrace,
    services: ServiceCatalog,
    rng: np.random.Generator,
    user_spread_m: float = 20.0,
) -> List[Request]:
    """Build the request set `R` from a trace: one request per user.

    The required service is chosen per group tag (all tourists stream VR,
    commuters transcode, ...) with random spill-over, and the user is
    dropped near its hotspot so coverage counts vary between users.
    """
    if user_spread_m < 0:
        raise ValueError("user_spread_m must be >= 0")
    n_services = len(services)
    tag_to_service = {
        tag: index % n_services for index, tag in enumerate(GROUP_TAGS)
    }
    requests: List[Request] = []
    for position, user in enumerate(trace.users):
        hotspot = trace.hotspots[user.hotspot_index]
        location = random_point_in_disk(hotspot.location, user_spread_m, rng)
        if rng.uniform() < 0.8:
            service_index = tag_to_service[user.group_tag]
        else:
            service_index = int(rng.integers(n_services))
        requests.append(
            Request(
                index=position,
                service_index=service_index,
                basic_demand_mb=user.base_demand_mb,
                location=location,
                hotspot_index=user.hotspot_index,
                group_tag=user.group_tag,
            )
        )
    return requests
