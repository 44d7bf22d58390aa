"""LP-free combinatorial-bandit controllers (ablation baselines).

The paper's key design choice is steering arm selection with the per-slot
LP relaxation instead of classic index policies (§IV-A asks "how to find
'good' arms ... considering that it is NP-hard to cache services given
full knowledge").  These controllers drop the LP and pick a station per
request directly with a generic bandit policy (UCB1 / Thompson from
:mod:`repro.bandits`), packing capacity greedily in request order — the
natural CMAB-style comparator (cf. the paper's refs [4], [37]).

Compared against `OL_GD` in ``benchmarks/bench_ablation_cmab.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.bandits.arms import ArmStats
from repro.bandits.policies import BanditPolicy, ThompsonSampling, Ucb1
from repro.core.assignment import Assignment
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["CmabController", "cmab_ucb", "cmab_thompson"]


class CmabController(Controller):
    """Per-request bandit selection with greedy capacity packing.

    Each request consults the shared arm statistics through ``policy``,
    restricted to stations whose remaining capacity fits it; ties in
    feasibility fall back to the least-loaded station (overload is then
    priced by the evaluator, as for every controller).
    """

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        rng: np.random.Generator,
        *,
        policy: BanditPolicy,
        name: Optional[str] = None,
    ):
        super().__init__(network, requests)
        self._rng = rng
        self._policy = policy
        if name is not None:
            self.name = name
        d_min, _ = network.delays.bounds
        self.arms = ArmStats(network.n_stations, prior_mean=d_min)

    def decide(self, slot: int, demands: Optional[np.ndarray]) -> Assignment:
        if demands is None:
            raise ValueError("CMAB controllers assume given demands (ablation)")
        demands = np.asarray(demands, dtype=float)
        capacities = self.network.capacities_mhz.copy()
        stations = np.empty(self.n_requests, dtype=int)
        for l in range(self.n_requests):
            need = demands[l] * self.network.c_unit_mhz
            feasible = np.nonzero(capacities >= need)[0]
            if feasible.size == 0:
                stations[l] = int(np.argmax(capacities))
            else:
                stations[l] = self._policy.select(
                    self.arms, slot + 1, self._rng, allowed=feasible.tolist()
                )
            capacities[stations[l]] -= need
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
        played, observed = self.observed_delays(unit_delays, assignment)
        self.arms.observe_many(played.tolist(), observed.tolist())

    def state_dict(self) -> Dict[str, Any]:
        """Arm statistics plus the policy RNG; policies themselves are
        stateless (fixed constructor parameters)."""
        from repro.state.snapshot import rng_state

        return {"arms": self.arms.state_dict(), "rng": rng_state(self._rng)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from repro.state.snapshot import set_rng_state

        self.arms.load_state_dict(state["arms"])
        set_rng_state(self._rng, state["rng"])


def cmab_ucb(
    network: MECNetwork, requests: Sequence[Request], rng: np.random.Generator
) -> CmabController:
    """CMAB with a UCB1 (LCB-for-costs) index, scaled to the delay range."""
    _, d_max = network.delays.bounds
    policy = Ucb1(scale=d_max / 4.0)
    return CmabController(network, requests, rng, policy=policy, name="CMAB_UCB")


def cmab_thompson(
    network: MECNetwork, requests: Sequence[Request], rng: np.random.Generator
) -> CmabController:
    """CMAB with Gaussian Thompson sampling."""
    _, d_max = network.delays.bounds
    policy = ThompsonSampling(exploration_std=d_max / 10.0)
    return CmabController(network, requests, rng, policy=policy, name="CMAB_TS")
