"""A small LP/ILP model builder assembling sparse scipy arrays.

The per-slot formulation of Eq. (3)-(7) has O(|R|·|BS|) variables, so the
builder keeps constraints as sparse coefficient dictionaries and only
materialises CSR matrices once, at solve time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

__all__ = ["Sense", "Variable", "Constraint", "LpModel"]


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable with bounds and an objective coefficient."""

    index: int
    name: str
    low: float
    high: Optional[float]
    objective: float
    integer: bool


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coef * var) <sense> rhs``."""

    name: str
    coefficients: Dict[int, float]
    sense: Sense
    rhs: float


class LpModel:
    """A minimisation LP/MILP assembled incrementally.

    Example
    -------
    >>> model = LpModel("toy")
    >>> x = model.add_variable(objective=1.0, name="x")
    >>> y = model.add_variable(objective=2.0, name="y")
    >>> model.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 1.0)
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_variable(
        self,
        low: float = 0.0,
        high: Optional[float] = None,
        objective: float = 0.0,
        integer: bool = False,
        name: Optional[str] = None,
    ) -> int:
        """Add a variable and return its index.

        ``high=None`` means unbounded above.  For the paper's indicator
        variables use ``low=0, high=1`` (the LP relaxation of Eq. 8) with
        ``integer=True`` when the exact ILP is wanted.
        """
        if not math.isfinite(low):
            raise ValueError(f"variable lower bound must be finite, got {low}")
        if high is not None:
            if not math.isfinite(high):
                raise ValueError(f"variable upper bound must be finite or None, got {high}")
            if high < low:
                raise ValueError(f"upper bound {high} below lower bound {low}")
        if not math.isfinite(objective):
            raise ValueError(f"objective coefficient must be finite, got {objective}")
        index = len(self._variables)
        label = name if name is not None else f"v{index}"
        self._variables.append(
            Variable(
                index=index,
                name=label,
                low=float(low),
                high=None if high is None else float(high),
                objective=float(objective),
                integer=bool(integer),
            )
        )
        return index

    def add_binary(self, objective: float = 0.0, name: Optional[str] = None) -> int:
        """Shortcut for a 0/1 integer variable."""
        return self.add_variable(low=0.0, high=1.0, objective=objective, integer=True, name=name)

    def add_constraint(
        self,
        coefficients: Dict[int, float],
        sense: Sense,
        rhs: float,
        name: Optional[str] = None,
    ) -> None:
        """Add ``sum(coefficients[i] * x_i) <sense> rhs``."""
        if not coefficients:
            raise ValueError("a constraint needs at least one coefficient")
        if not math.isfinite(rhs):
            raise ValueError(f"rhs must be finite, got {rhs}")
        n = len(self._variables)
        for var_index, coef in coefficients.items():
            if not 0 <= var_index < n:
                raise ValueError(
                    f"constraint references variable {var_index} but only {n} exist"
                )
            if not math.isfinite(coef):
                raise ValueError(f"coefficient for variable {var_index} must be finite")
        label = name if name is not None else f"c{len(self._constraints)}"
        self._constraints.append(
            Constraint(
                name=label,
                coefficients={int(k): float(v) for k, v in coefficients.items()},
                sense=sense,
                rhs=float(rhs),
            )
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_variables(self) -> int:
        return len(self._variables)

    @property
    def n_constraints(self) -> int:
        return len(self._constraints)

    @property
    def variables(self) -> List[Variable]:
        return list(self._variables)

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    @property
    def integer_indices(self) -> List[int]:
        """Indices of variables declared integer."""
        return [v.index for v in self._variables if v.integer]

    def relaxed(self) -> "LpModel":
        """A copy with every integrality requirement dropped (Eq. 8)."""
        clone = LpModel(name=f"{self.name}-relaxed")
        for v in self._variables:
            clone.add_variable(
                low=v.low, high=v.high, objective=v.objective, integer=False, name=v.name
            )
        for c in self._constraints:
            clone.add_constraint(dict(c.coefficients), c.sense, c.rhs, name=c.name)
        return clone

    def with_bounds(self, overrides: Dict[int, Tuple[float, Optional[float]]]) -> "LpModel":
        """A copy with per-variable bound overrides (used when branching)."""
        clone = LpModel(name=self.name)
        for v in self._variables:
            low, high = overrides.get(v.index, (v.low, v.high))
            clone.add_variable(
                low=low, high=high, objective=v.objective, integer=v.integer, name=v.name
            )
        for c in self._constraints:
            clone.add_constraint(dict(c.coefficients), c.sense, c.rhs, name=c.name)
        return clone

    # ------------------------------------------------------------------ #
    # Array assembly
    # ------------------------------------------------------------------ #

    def to_arrays(self):
        """Assemble ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` for linprog.

        GE constraints are negated into LE form.  Matrices are CSR-sparse;
        either may be ``None`` when there are no constraints of that kind.
        """
        n = self.n_variables
        c = np.array([v.objective for v in self._variables])
        bounds = [(v.low, v.high) for v in self._variables]

        ub_rows: List[Tuple[Dict[int, float], float]] = []
        eq_rows: List[Tuple[Dict[int, float], float]] = []
        for constraint in self._constraints:
            if constraint.sense is Sense.LE:
                ub_rows.append((constraint.coefficients, constraint.rhs))
            elif constraint.sense is Sense.GE:
                negated = {k: -v for k, v in constraint.coefficients.items()}
                ub_rows.append((negated, -constraint.rhs))
            else:
                eq_rows.append((constraint.coefficients, constraint.rhs))

        def build(rows):
            if not rows:
                return None, None
            data, row_idx, col_idx, rhs = [], [], [], []
            for r, (coefs, b) in enumerate(rows):
                for col, coef in coefs.items():
                    data.append(coef)
                    row_idx.append(r)
                    col_idx.append(col)
                rhs.append(b)
            matrix = sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), n)
            )
            return matrix, np.array(rhs)

        a_ub, b_ub = build(ub_rows)
        a_eq, b_eq = build(eq_rows)
        return c, a_ub, b_ub, a_eq, b_eq, bounds
