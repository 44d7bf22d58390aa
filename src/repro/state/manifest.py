"""Sweep manifests: resumable ``(repetition, controller)`` grids.

A repetition sweep (``repro.sim.run_repetitions`` / one
:class:`repro.sim.parallel.Sweep`) with a directory persists every
completed work item as its own ``work-result`` snapshot next to a small
``manifest.json`` that pins the sweep's identity — seed, repetitions,
horizon, demand setting and (once known) the controller names, which
double as the subsystem's controller identifiers.  Restarting the sweep
with ``resume=True``:

1. reads the manifest and refuses to mix results from a *different*
   sweep (any identity mismatch raises :class:`CheckpointError`);
2. loads every persisted item back as a completed work result;
3. executes only the missing items.

Because every work item is deterministic given ``(seed, repetition,
controller)``, the resumed study's summary statistics are identical to
an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.state.snapshot import CheckpointError

__all__ = [
    "SweepManifest",
    "WORK_RESULT_KIND",
    "result_path",
    "completed_items",
    "finalise_controllers",
]

#: ``kind`` tag of per-item snapshots (see :func:`repro.state.save_checkpoint`).
WORK_RESULT_KIND = "work-result"

_MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-sweep"
_MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class SweepManifest:
    """Identity of one repetition sweep (what makes results reusable)."""

    seed: int
    repetitions: int
    horizon: int
    demands_known: bool
    controllers: Optional[Tuple[str, ...]] = None

    def write(self, directory: Union[str, Path]) -> Path:
        """Write ``manifest.json`` into ``directory`` (atomic)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / _MANIFEST_NAME
        payload = {
            "format": _MANIFEST_FORMAT,
            "schema": _MANIFEST_SCHEMA,
            **asdict(self),
        }
        if self.controllers is not None:
            payload["controllers"] = list(self.controllers)
        tmp = directory / f".{_MANIFEST_NAME}.tmp-{os.getpid()}"
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def read(cls, directory: Union[str, Path]) -> "SweepManifest":
        """Read the manifest of ``directory``; raises when absent/foreign."""
        path = Path(directory) / _MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(f"no sweep manifest at {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise CheckpointError(f"{path} is corrupt: {error}") from error
        if payload.get("format") != _MANIFEST_FORMAT:
            raise CheckpointError(
                f"{path} has format {payload.get('format')!r}, "
                f"expected {_MANIFEST_FORMAT!r}"
            )
        if payload.get("schema") != _MANIFEST_SCHEMA:
            raise CheckpointError(
                f"{path} was written with schema {payload.get('schema')!r}; "
                f"this build reads schema {_MANIFEST_SCHEMA}"
            )
        controllers = payload.get("controllers")
        return cls(
            seed=int(payload["seed"]),
            repetitions=int(payload["repetitions"]),
            horizon=int(payload["horizon"]),
            demands_known=bool(payload["demands_known"]),
            controllers=tuple(controllers) if controllers is not None else None,
        )

    @staticmethod
    def exists(directory: Union[str, Path]) -> bool:
        """True when ``directory`` already carries a manifest."""
        return (Path(directory) / _MANIFEST_NAME).exists()

    def require_compatible(self, other: "SweepManifest") -> None:
        """Raise :class:`CheckpointError` unless ``other`` is the same sweep.

        ``controllers`` participates only when both sides know it — a
        manifest written before any item completed may carry ``None``.
        """
        mismatches = []
        for field in ("seed", "repetitions", "horizon", "demands_known"):
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine != theirs:
                mismatches.append(f"{field}: checkpoint {mine!r} vs run {theirs!r}")
        if (
            self.controllers is not None
            and other.controllers is not None
            and self.controllers != other.controllers
        ):
            mismatches.append(
                f"controllers: checkpoint {list(self.controllers)} "
                f"vs run {list(other.controllers)}"
            )
        if mismatches:
            raise CheckpointError(
                "checkpoint directory belongs to a different sweep — "
                + "; ".join(mismatches)
            )


def result_path(
    directory: Union[str, Path], repetition: int, controller_index: int
) -> Path:
    """Snapshot file of work item ``(repetition, controller_index)``."""
    return Path(directory) / f"rep{repetition:05d}-ctrl{controller_index:03d}.npz"


def finalise_controllers(
    directory: Union[str, Path],
    manifest: SweepManifest,
    names: Mapping[int, str],
) -> None:
    """Rewrite ``directory``'s manifest with controller names once known.

    Names double as the checkpoint subsystem's controller identifiers
    (a controller built by ``repro.core.make_controller`` answers to its
    registry name), so a later resume can refuse a directory produced by
    a different controller line-up.  ``names`` maps controller index to
    name; the rewrite only happens when the mapping covers a complete
    ``0..N-1`` range — partial knowledge (e.g. every item of one
    controller failed) keeps the name-less manifest, which stays
    resumable.
    """
    if names and sorted(names) == list(range(len(names))):
        SweepManifest(
            seed=manifest.seed,
            repetitions=manifest.repetitions,
            horizon=manifest.horizon,
            demands_known=manifest.demands_known,
            controllers=tuple(names[i] for i in range(len(names))),
        ).write(directory)


def completed_items(
    directory: Union[str, Path],
) -> Dict[Tuple[int, int], Path]:
    """Map of persisted ``(repetition, controller_index)`` -> snapshot path."""
    directory = Path(directory)
    found: Dict[Tuple[int, int], Path] = {}
    if not directory.exists():
        return found
    for path in sorted(directory.glob("rep*-ctrl*.npz")):
        stem = path.stem  # rep00001-ctrl002
        try:
            rep_part, ctrl_part = stem.split("-ctrl")
            key = (int(rep_part[3:]), int(ctrl_part))
        except ValueError:
            continue
        found[key] = path
    return found
