"""A small mixed-integer programming modelling layer.

The paper encodes both deployment problems as MIPs and hands them to CPLEX.
CPLEX is not available offline, so this module provides a minimal model
container (variables, linear constraints, a linear objective) that SciPy's
HiGHS-based ``milp`` solves (see :mod:`repro.solvers.mip.scipy_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ...core.errors import SolverError


@dataclass
class Variable:
    """One decision variable of the model."""

    index: int
    name: str
    lower: float
    upper: float
    integer: bool


@dataclass
class LinearConstraintRow:
    """A linear constraint ``lower <= sum_k coeffs[k] * x_k <= upper``."""

    coefficients: Dict[int, float]
    lower: float
    upper: float


@dataclass
class MipModel:
    """Container for a minimisation MIP.

    The array views (objective vector, bound arrays, constraint matrix,
    integer indices) are built on each call; ``milp`` reads them once per
    solve.
    """

    variables: List[Variable] = field(default_factory=list)
    constraints: List[LinearConstraintRow] = field(default_factory=list)
    objective: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    def add_variable(self, name: str = "", lower: float = 0.0,
                     upper: float | None = None, integer: bool = False) -> int:
        """Add a variable and return its index."""
        upper_value = np.inf if upper is None else float(upper)
        if lower > upper_value:
            raise SolverError(f"variable {name!r} has empty bounds")
        index = len(self.variables)
        self.variables.append(
            Variable(index=index, name=name or f"x{index}",
                     lower=float(lower), upper=upper_value, integer=integer)
        )
        return index

    def add_binary(self, name: str = "") -> int:
        """Add a 0/1 variable."""
        return self.add_variable(name=name, lower=0.0, upper=1.0, integer=True)

    def set_variable_bounds(self, index: int, lower: float | None = None,
                            upper: float | None = None) -> None:
        """Tighten a variable's bounds in place.

        Used by the deployment encodings to fix assignment variables out of
        (or into) the model when placement constraints disallow (or pin) a
        node-instance pair, which removes the variable from the search.
        """
        variable = self.variables[index]
        new_lower = variable.lower if lower is None else float(lower)
        new_upper = variable.upper if upper is None else float(upper)
        if new_lower > new_upper:
            raise SolverError(
                f"variable {variable.name!r} would get empty bounds "
                f"[{new_lower}, {new_upper}]"
            )
        variable.lower = new_lower
        variable.upper = new_upper

    def add_constraint(self, coefficients: Dict[int, float],
                       lower: float = -np.inf, upper: float = np.inf) -> int:
        """Add ``lower <= coeffs . x <= upper`` and return the constraint index."""
        if not coefficients:
            raise SolverError("constraint must reference at least one variable")
        for index in coefficients:
            if not 0 <= index < len(self.variables):
                raise SolverError(f"constraint references unknown variable {index}")
        self.constraints.append(
            LinearConstraintRow(coefficients=dict(coefficients),
                                lower=float(lower), upper=float(upper))
        )
        return len(self.constraints) - 1

    def add_equality(self, coefficients: Dict[int, float], value: float) -> int:
        """Add ``coeffs . x == value``."""
        return self.add_constraint(coefficients, lower=value, upper=value)

    def set_objective(self, coefficients: Dict[int, float]) -> None:
        """Set the (minimisation) objective."""
        self.objective = dict(coefficients)

    # ------------------------------------------------------------------ #
    # Introspection and export
    # ------------------------------------------------------------------ #

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Number of linear constraints."""
        return len(self.constraints)

    def integer_indices(self) -> List[int]:
        """Indices of integer-restricted variables."""
        return [v.index for v in self.variables if v.integer]

    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficient vector."""
        vector = np.zeros(self.num_variables)
        for index, coefficient in self.objective.items():
            vector[index] = coefficient
        return vector

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower and upper variable bound vectors."""
        return (np.array([v.lower for v in self.variables]),
                np.array([v.upper for v in self.variables]))

    def constraint_matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Sparse constraint matrix with per-row lower/upper bounds."""
        if not self.constraints:
            return (sparse.csr_matrix((0, self.num_variables)),
                    np.array([]), np.array([]))
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        lower = np.empty(len(self.constraints))
        upper = np.empty(len(self.constraints))
        for row_index, row in enumerate(self.constraints):
            lower[row_index] = row.lower
            upper[row_index] = row.upper
            for col, coefficient in row.coefficients.items():
                rows.append(row_index)
                cols.append(col)
                data.append(coefficient)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), self.num_variables)
        )
        return matrix, lower, upper


@dataclass(frozen=True)
class MipSolution:
    """Outcome of solving a :class:`MipModel`."""

    status: str
    objective_value: Optional[float]
    values: Optional[np.ndarray]
    optimal: bool
    solve_time_s: float
    #: Branch-and-bound nodes the solver explored.
    node_count: int = 0

    @property
    def feasible(self) -> bool:
        """Whether a (possibly suboptimal) solution vector is available."""
        return self.values is not None
