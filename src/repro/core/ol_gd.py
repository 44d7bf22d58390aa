"""Algorithm 1 — `OL_GD`: online learning with LP-guided arm selection.

Per slot (Algorithm 1 lines 2-11):

1. build the Eq. (3)-(7) model with the *learned* delay means `theta_i`
   and relax it (Eq. 8);
2. solve the LP, read the fractional `x*`, build the candidate sets
   `BS_l^candi = {i : x*_li >= gamma}` (Eq. 9);
3. with probability `1 - eps_t` assign each request within its candidate
   set with probability `x*_li`; with probability `eps_t` explore a random
   station outside the set;
4. repair any capacity violation introduced by independent rounding;
5. after the slot, observe `d_i(t)` for every *played* station and update
   its running mean (line 11).

Exploration schedule: Algorithm 1 line 2 fixes `eps_t = 1/4`, while the
Theorem 1 analysis works with the decaying schedule `c/t` (0 < c < 1).
Both are provided via :class:`ExplorationConfig`; the default is the
decaying schedule the regret bound actually assumes.  Exploration scope
``"request"`` redraws the explore coin per request (smooth, the default);
``"slot"`` is the paper-literal single coin that sends *every* request
exploring together — compared in the `abl-eps` ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.bandits.arms import ArmStats
from repro.core.assignment import Assignment
from repro.core.candidates import (
    build_candidate_sets,
    repair_capacity,
    sample_assignment,
)
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.validation import require_probability

__all__ = ["ExplorationConfig", "OlGdController"]


@dataclass(frozen=True)
class ExplorationConfig:
    """How `eps_t` is produced and applied.

    ``schedule="decaying"`` gives `eps_t = min(1, c / t)` (Theorem 1);
    ``schedule="constant"`` gives `eps_t = c` (Algorithm 1 line 2 with
    c = 1/4).  ``scope`` selects per-``"request"`` or per-``"slot"``
    exploration coins.
    """

    schedule: str = "decaying"
    c: float = 0.5
    scope: str = "request"

    def __post_init__(self) -> None:
        if self.schedule not in ("decaying", "constant"):
            raise ValueError(
                f"schedule must be 'decaying' or 'constant', got {self.schedule!r}"
            )
        if self.scope not in ("request", "slot"):
            raise ValueError(f"scope must be 'request' or 'slot', got {self.scope!r}")
        require_probability("c", self.c)
        if self.c == 0.0 and self.schedule == "decaying":
            raise ValueError("decaying schedule needs c > 0 (Theorem 1: 0 < c < 1)")

    def epsilon(self, slot: int) -> float:
        """`eps_t` for 0-based ``slot``."""
        if self.schedule == "constant":
            return self.c
        return min(1.0, self.c / (slot + 1))

    @classmethod
    def paper_literal(cls) -> "ExplorationConfig":
        """Algorithm 1 exactly as printed: constant 1/4, one coin per slot."""
        return cls(schedule="constant", c=0.25, scope="slot")


class OlGdController(Controller):
    """`OL_GD` (Algorithm 1).

    Parameters
    ----------
    gamma:
        Candidate threshold of Eq. (9).
    exploration:
        The `eps_t` schedule (see :class:`ExplorationConfig`).
    rng:
        Source of rounding/exploration randomness.
    repair:
        Enable the deterministic capacity repair after rounding
        (DESIGN.md §5); disable to study the raw algorithm.
    estimator_window:
        ``None`` (default) keeps the paper's cumulative means `theta_i`;
        an integer switches to a sliding-window estimator
        (:class:`repro.bandits.WindowedArmStats`), the standard
        non-stationary-bandit extension for the drifting delays of §I —
        compared in ``benchmarks/bench_ablation_window.py``.
    lp_warm_start:
        Warm-start each slot's LP from the previous optimum's support
        with dual-pricing verification (see
        :class:`repro.core.fastlp.PerSlotLpSolver`).  Objective-exact but
        possibly a different optimal vertex, so sampled assignments — and
        therefore resumed trajectories — are not bit-identical to cold
        solves; off by default.

    Unplayed arms take the *optimistic* prior `d_min` (Lemma 1 assumes the
    delay bounds are known a priori): an unplayed station looks attractive
    to the LP, so every arm receives assignment mass early and its true
    mean is learned — the standard optimism-under-uncertainty device, and
    the learning behaviour the non-exploring baselines lack.
    """

    name = "OL_GD"

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        rng: np.random.Generator,
        *,
        gamma: float = 0.1,
        exploration: Optional[ExplorationConfig] = None,
        repair: bool = True,
        estimator_window: Optional[int] = None,
        lp_warm_start: bool = False,
    ):
        super().__init__(network, requests)
        require_probability("gamma", gamma)
        self.gamma = float(gamma)
        self.exploration = exploration if exploration is not None else ExplorationConfig()
        self._rng = rng
        self._repair = bool(repair)
        self._lp_warm_start = bool(lp_warm_start)
        d_min, _ = network.delays.bounds
        if estimator_window is None:
            self.arms = ArmStats(network.n_stations, prior_mean=d_min)
        else:
            from repro.bandits.windowed import WindowedArmStats

            self.arms = WindowedArmStats(
                network.n_stations, window=estimator_window, prior_mean=d_min
            )
        self.last_fractional: Optional[np.ndarray] = None
        self._lp_solver = None  # built lazily on the first decide()

    # ------------------------------------------------------------------ #

    def _solve_fractional(self, demands: np.ndarray) -> np.ndarray:
        """Lines 3-4: relax the ILP and return the `x*` matrix.

        A fractional assignment exists iff the aggregate compute demand
        fits the aggregate capacity, so when a burst (or an over-predicted
        demand vector) exceeds that, the demands are proportionally scaled
        for the *LP only* — the x* proportions still steer the rounding,
        and the realised overload is priced by the evaluator's
        processor-sharing penalty rather than by an infeasible solve.
        """
        total_need = float(demands.sum()) * self.network.c_unit_mhz
        budget = 0.95 * self.network.total_capacity_mhz()
        lp_demands = demands if total_need <= budget else demands * (budget / total_need)
        if self._lp_solver is None:
            # The LP's structure is fixed across the horizon; assemble it
            # once and patch coefficients per slot (~3x faster per solve,
            # identical solutions — see repro.core.fastlp).
            from repro.core.fastlp import PerSlotLpSolver

            self._lp_solver = PerSlotLpSolver(
                self.network, self.requests, warm_start=self._lp_warm_start
            )
        try:
            return self._lp_solver.solve(lp_demands, self.arms.means)
        except RuntimeError as error:
            raise RuntimeError(
                f"{error} — check the §III-E feasibility assumption "
                "(total capacity vs demand)"
            ) from error

    def _explore_mask(self, slot: int) -> np.ndarray:
        epsilon = self.exploration.epsilon(slot)
        if self.exploration.scope == "slot":
            explore = self._rng.uniform() < epsilon
            return np.full(self.n_requests, explore)
        return self._rng.uniform(size=self.n_requests) < epsilon

    def decide(self, slot: int, demands: Optional[np.ndarray]) -> Assignment:
        if demands is None:
            raise ValueError(
                "OL_GD is the given-demands algorithm (§IV); wrap it in "
                "OlRegController/OlGanController for unknown demands"
            )
        demands = np.asarray(demands, dtype=float)
        x_fractional = self._solve_fractional(demands)
        self.last_fractional = x_fractional
        with obs.span("olgd.candidates"):
            candidates = build_candidate_sets(x_fractional, self.gamma)
        with obs.span("olgd.sample"):
            stations = sample_assignment(
                x_fractional, candidates, self._rng, self._explore_mask(slot)
            )
        if self._repair:
            with obs.span("olgd.repair"):
                stations = repair_capacity(
                    stations,
                    x_fractional,
                    demands,
                    self.network.capacities_mhz,
                    self.network.c_unit_mhz,
                )
        return Assignment.from_stations(
            stations, self.requests, service_of=self.service_of
        )

    def observe(
        self,
        slot: int,
        demands: np.ndarray,
        unit_delays: np.ndarray,
        assignment: Assignment,
    ) -> None:
        """Line 11: update `theta_i` for every played arm."""
        with obs.span("olgd.arm_update"):
            played, observed = self.observed_delays(unit_delays, assignment)
            self.arms.observe_many(played.tolist(), observed.tolist())
        obs.inc("olgd.arms_played", len(played))

    def state_dict(self) -> Dict[str, Any]:
        """Learned arm statistics plus the rounding/exploration RNG.

        The LP solver is rebuilt lazily (it is a pure function of the
        fixed network/request topology), so it does not travel.
        """
        from repro.state.snapshot import rng_state

        return {"arms": self.arms.state_dict(), "rng": rng_state(self._rng)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from repro.state.snapshot import set_rng_state

        self.arms.load_state_dict(state["arms"])
        set_rng_state(self._rng, state["rng"])
