"""Parameter presets for the evaluation (§VI-A).

Two profiles ship:

* :data:`FULL_PROFILE` — the paper's scale (100-slot horizons, network
  sweeps to 200/300 stations, 10 repetitions).  Budget hours of CPU for
  the fixed-size figures and **tens of hours** for the size sweeps
  (the 300-station LP costs ~10 s/slot); reduce ``repetitions`` via
  ``dataclasses.replace`` for a faster full-scale pass.
* :data:`QUICK_PROFILE` — the same experiments at reduced horizon/request
  counts so the whole benchmark suite finishes in minutes; this is the
  default for ``pytest benchmarks/``.

Set the environment variable ``REPRO_PROFILE=full`` to make the benchmark
harness use the full profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.validation import require_positive

__all__ = ["ExperimentProfile", "FULL_PROFILE", "QUICK_PROFILE", "active_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Everything a figure generator needs to size an experiment."""

    name: str
    horizon: int                      # time slots per run (paper: 100)
    n_requests: int                   # |R| (users sampled from the trace)
    n_services: int                   # |S|
    n_hotspots: int                   # location clusters in the trace
    base_stations: int                # |BS| for fixed-size experiments
    sweep_sizes: Tuple[int, ...]      # |BS| sweep for Fig. 4
    sweep_sizes_wide: Tuple[int, ...]  # |BS| sweep for Fig. 7
    repetitions: int                  # independent topologies averaged
    gan_pretrain_slots: int           # small-sample history for the GAN
    gan_pretrain_epochs: int
    gan_window: int
    gan_hidden: int
    femto_requests: float = 2.0       # average requests one femtocell hosts
                                      # (sets C_unit so the smallest tier is
                                      # usable; contention comes from |R|)
    drift_ms: float = 0.5             # delay-mean random-walk step (§I's
                                      # "time-varying processing delays")
    n_jobs: int = 1                   # repetition fan-out workers: 1 =
                                      # in-process, 0/None-like = all cores,
                                      # negative = joblib-style count-back
                                      # (see repro.sim.parallel)
    seed: int = 2020                  # ICDCS 2020
    # ---- crash tolerance (repro.state; threaded by the figure runner) --
    checkpoint_dir: Optional[str] = None   # sweep persistence root; each
                                           # figure scenario gets a subdir
    checkpoint_every: Optional[int] = None  # slot-level snapshot cadence
                                            # inside each run (needs dir)
    resume: bool = False              # load completed items before running
    max_retries: int = 0              # crash-retry rounds per sweep

    def __post_init__(self) -> None:
        for name in (
            "horizon",
            "n_requests",
            "n_services",
            "n_hotspots",
            "base_stations",
            "repetitions",
            "gan_pretrain_slots",
            "gan_pretrain_epochs",
            "gan_window",
            "gan_hidden",
        ):
            require_positive(name, getattr(self, name))
        if not self.sweep_sizes or not self.sweep_sizes_wide:
            raise ValueError("sweep size lists must be non-empty")
        if self.femto_requests <= 0:
            raise ValueError(
                f"femto_requests must be > 0, got {self.femto_requests}"
            )
        if self.drift_ms < 0:
            raise ValueError(f"drift_ms must be >= 0, got {self.drift_ms}")
        if not isinstance(self.n_jobs, int) or isinstance(self.n_jobs, bool):
            raise TypeError(
                f"n_jobs must be an int, got {type(self.n_jobs).__name__}"
            )
        if self.checkpoint_every is not None:
            require_positive("checkpoint_every", self.checkpoint_every)
            if self.checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


FULL_PROFILE = ExperimentProfile(
    name="full",
    horizon=100,
    n_requests=100,
    n_services=8,
    n_hotspots=10,
    base_stations=100,
    sweep_sizes=(50, 100, 150, 200),
    sweep_sizes_wide=(50, 100, 150, 200, 250, 300),
    repetitions=10,
    gan_pretrain_slots=40,
    gan_pretrain_epochs=20,
    gan_window=8,
    gan_hidden=16,
)

QUICK_PROFILE = ExperimentProfile(
    name="quick",
    horizon=30,
    n_requests=60,
    n_services=4,
    n_hotspots=5,
    base_stations=50,
    sweep_sizes=(50, 100, 150, 200),
    sweep_sizes_wide=(50, 120, 200, 300),
    repetitions=1,
    gan_pretrain_slots=24,
    gan_pretrain_epochs=8,
    gan_window=6,
    gan_hidden=10,
)


def active_profile() -> ExperimentProfile:
    """The profile selected by the ``REPRO_PROFILE`` environment variable."""
    choice = os.environ.get("REPRO_PROFILE", "quick").lower()
    if choice == "full":
        return FULL_PROFILE
    if choice == "quick":
        return QUICK_PROFILE
    raise ValueError(
        f"REPRO_PROFILE must be 'quick' or 'full', got {choice!r}"
    )
