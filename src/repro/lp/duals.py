"""Dual values of the per-slot LP: station congestion prices.

The capacity constraints' (Eq. 5) shadow prices answer the operator's
question "which cloudlet is the bottleneck, and what is one more MHz
there worth (in ms of average delay)?".  HiGHS reports the duals of every
constraint; :func:`solve_lp_with_duals` surfaces them next to the primal
solution, and :func:`capacity_shadow_prices` extracts the per-station
prices for a caching model built by
:func:`repro.core.formulation.build_caching_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.lp.model import LpModel, Sense
from repro.lp.solver import LpSolution

__all__ = ["DualSolution", "solve_lp_with_duals", "capacity_shadow_prices"]


@dataclass(frozen=True)
class DualSolution:
    """Primal solution plus constraint duals.

    ``ineq_duals[j]`` is the marginal of the j-th *inequality* row in the
    model's LE-normalised order (GE rows were negated, so their reported
    dual is negated back to the user's orientation); ``eq_duals[j]``
    likewise for equality rows.  Sign convention: for a minimisation, a
    binding `<=` constraint has a **non-positive** HiGHS marginal; we
    report shadow prices as ``-marginal`` so "relaxing the constraint by
    one unit reduces the objective by `price`" reads positively.
    """

    primal: LpSolution
    ineq_duals: np.ndarray
    eq_duals: np.ndarray

    @property
    def is_optimal(self) -> bool:
        return self.primal.is_optimal


def solve_lp_with_duals(model: LpModel) -> DualSolution:
    """Solve the LP and return primal values plus constraint duals."""
    if model.n_variables == 0:
        raise ValueError("cannot solve a model with no variables")
    c, a_ub, b_ub, a_eq, b_eq, bounds = model.to_arrays()
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if result.status != 0:
        primal = LpSolution(
            status="infeasible" if result.status == 2 else "error",
            objective=float("nan"),
            values=np.full(model.n_variables, np.nan),
            message=str(result.message),
        )
        return DualSolution(
            primal=primal,
            ineq_duals=np.array([]),
            eq_duals=np.array([]),
        )
    primal = LpSolution(
        status="optimal",
        objective=float(result.fun),
        values=np.asarray(result.x, dtype=float),
        message=str(result.message),
    )
    ineq = (
        -np.asarray(result.ineqlin.marginals, dtype=float)
        if a_ub is not None
        else np.array([])
    )
    eq = (
        -np.asarray(result.eqlin.marginals, dtype=float)
        if a_eq is not None
        else np.array([])
    )
    # GE rows were negated into LE form; flip their duals back so the
    # price refers to the constraint as the user wrote it.
    ge_positions = [
        position
        for position, constraint in enumerate(
            c for c in model.constraints if c.sense is not Sense.EQ
        )
        if constraint.sense is Sense.GE
    ]
    for position in ge_positions:
        ineq[position] = -ineq[position]
    return DualSolution(primal=primal, ineq_duals=ineq, eq_duals=eq)


def capacity_shadow_prices(
    model: LpModel, duals: DualSolution, n_stations: int
) -> np.ndarray:
    """Per-station congestion prices from a caching model's duals.

    Relies on :func:`build_caching_model`'s row layout: the capacity rows
    are named ``capacity[i]`` and are the only LE rows before the coupling
    rows.  Returns ms of average delay saved per extra MHz at each
    station (0 for uncongested stations).
    """
    if not duals.is_optimal:
        raise ValueError("duals are only available for optimal solves")
    inequality_constraints = [
        c for c in model.constraints if c.sense is not Sense.EQ
    ]
    prices = np.zeros(n_stations)
    found = 0
    for position, constraint in enumerate(inequality_constraints):
        if constraint.name.startswith("capacity["):
            station = int(constraint.name[len("capacity[") : -1])
            if not 0 <= station < n_stations:
                raise ValueError(
                    f"capacity row names station {station}, outside "
                    f"[0, {n_stations})"
                )
            prices[station] = duals.ineq_duals[position]
            found += 1
    if found != n_stations:
        raise ValueError(
            f"expected {n_stations} capacity rows, found {found} — was the "
            "model built by build_caching_model?"
        )
    return prices
