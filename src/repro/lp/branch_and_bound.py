"""Exact 0/1-ILP solving by LP-based branch and bound.

Used only for *measurement*: the per-slot clairvoyant optimum in the regret
curves (Eq. 10) and the optimality checks in tests.  The dynamic service
caching ILP is NP-hard (§IV-A), so this solver is intended for the small
instances in tests/ablations; ``node_limit`` caps the search and the result
reports whether it was proven optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.lp.model import LpModel
from repro.lp.solver import solve_lp

__all__ = ["BranchAndBoundResult", "solve_ilp"]

_INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class BranchAndBoundResult:
    """Outcome of an exact solve.

    ``proven_optimal`` is False when the node limit was hit before the gap
    closed; ``objective``/``values`` then hold the best incumbent found
    (or NaN/empty when none was found at all).
    """

    status: str  # "optimal" | "feasible" | "infeasible" | "node_limit"
    objective: float
    values: np.ndarray
    nodes_explored: int
    best_bound: float

    @property
    def proven_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def has_solution(self) -> bool:
        return self.status in ("optimal", "feasible")

    @property
    def gap(self) -> float:
        """Relative optimality gap of the incumbent (0 when proven)."""
        if not self.has_solution:
            return math.inf
        if self.proven_optimal:
            return 0.0
        denom = max(abs(self.objective), 1e-12)
        return abs(self.objective - self.best_bound) / denom


def _most_fractional(values: np.ndarray, integer_indices) -> Optional[int]:
    """The integer variable whose LP value is farthest from integral."""
    worst_index, worst_gap = None, _INTEGRALITY_TOL
    for index in integer_indices:
        value = values[index]
        gap = abs(value - round(value))
        if gap > worst_gap:
            worst_index, worst_gap = index, gap
    return worst_index


def solve_ilp(model: LpModel, node_limit: int = 10_000) -> BranchAndBoundResult:
    """Minimise ``model`` with its integrality constraints enforced.

    Best-bound search: nodes are explored in order of their LP bound, so
    the first integral node popped is optimal.  Branches fix the most
    fractional integer variable to ``floor`` / ``ceil``.
    """
    if node_limit <= 0:
        raise ValueError(f"node_limit must be > 0, got {node_limit}")
    integer_indices = model.integer_indices
    root = solve_lp(model)
    if root.status == "infeasible":
        return BranchAndBoundResult(
            status="infeasible",
            objective=math.nan,
            values=np.array([]),
            nodes_explored=1,
            best_bound=math.inf,
        )
    if not root.is_optimal:
        raise RuntimeError(f"root relaxation failed: {root.status} ({root.message})")

    counter = itertools.count()  # tie-breaker so heap never compares dicts
    # Each entry: (bound, tiebreak, bound_overrides)
    heap: list = [(root.objective, next(counter), {})]
    incumbent: Optional[np.ndarray] = None
    incumbent_objective = math.inf
    nodes = 0
    best_bound = root.objective

    while heap and nodes < node_limit:
        bound, _, overrides = heapq.heappop(heap)
        best_bound = bound
        if bound >= incumbent_objective - 1e-9:
            # Everything left is worse than the incumbent: proven optimal.
            heap.clear()
            break
        nodes += 1
        solution = solve_lp(model.with_bounds(overrides)) if overrides else root
        if not solution.is_optimal:
            continue  # infeasible branch
        if solution.objective >= incumbent_objective - 1e-9:
            continue
        branch_var = _most_fractional(solution.values, integer_indices)
        if branch_var is None:
            # Integral: new incumbent (rounded to kill epsilon noise).
            values = solution.values.copy()
            for index in integer_indices:
                values[index] = round(values[index])
            incumbent = values
            incumbent_objective = solution.objective
            continue
        value = solution.values[branch_var]
        down = dict(overrides)
        down[branch_var] = (model.variables[branch_var].low, math.floor(value))
        up = dict(overrides)
        up[branch_var] = (math.ceil(value), model.variables[branch_var].high)
        heapq.heappush(heap, (solution.objective, next(counter), down))
        heapq.heappush(heap, (solution.objective, next(counter), up))

    if incumbent is None:
        status = "node_limit" if heap else "infeasible"
        return BranchAndBoundResult(
            status=status,
            objective=math.nan,
            values=np.array([]),
            nodes_explored=nodes,
            best_bound=best_bound,
        )
    proven = not heap or best_bound >= incumbent_objective - 1e-9
    return BranchAndBoundResult(
        status="optimal" if proven else "feasible",
        objective=incumbent_objective,
        values=incumbent,
        nodes_explored=nodes,
        best_bound=min(best_bound, incumbent_objective),
    )
