"""LP solving via scipy's HiGHS backend.

Solving the relaxation "can be obtained efficiently in polynomial time"
(§IV-B); HiGHS comfortably handles the per-slot models (|R|·|BS| variables)
within a time slot's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.lp.model import LpModel

__all__ = ["LpSolution", "solve_lp"]


@dataclass(frozen=True)
class LpSolution:
    """Result of an LP solve.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``
    or ``"error"``; ``values``/``objective`` are only meaningful when
    :attr:`is_optimal`.
    """

    status: str
    objective: float
    values: np.ndarray
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def value_of(self, index: int) -> float:
        """Value of one variable; raises unless the solve was optimal."""
        if not self.is_optimal:
            raise RuntimeError(f"no solution values: status is {self.status!r}")
        return float(self.values[index])


_STATUS_BY_CODE = {
    0: "optimal",
    1: "error",      # iteration limit
    2: "infeasible",
    3: "unbounded",
    4: "error",
}


def solve_lp(model: LpModel) -> LpSolution:
    """Minimise the model's objective with HiGHS.

    Integrality markers are ignored (this is the *relaxation* solver);
    use :func:`repro.lp.solve_ilp` for exact integer solutions.
    """
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
    status = _STATUS_BY_CODE.get(result.status, "error")
    if status != "optimal":
        return LpSolution(
            status=status,
            objective=float("nan"),
            values=np.full(model.n_variables, np.nan),
            message=str(result.message),
        )
    # Clip tiny numerical violations of the bounds so downstream code can
    # treat values as probabilities without re-sanitising.
    values = np.asarray(result.x, dtype=float)
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array(
        [np.inf if b[1] is None else b[1] for b in bounds], dtype=float
    )
    values = np.clip(values, lows, highs)
    return LpSolution(
        status="optimal",
        objective=float(result.fun),
        values=values,
        message=str(result.message),
    )
