"""Solve mixed-integer programs given as arrays with SciPy's HiGHS ``milp``.

The paper hands its MIPs to CPLEX, which is not available offline.
:class:`MipArrays` holds one minimisation MIP in the form
:func:`scipy.optimize.milp` reads, and :func:`solve_milp` solves it,
bounded by a wall-clock limit and a branch-and-bound node limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse

from ...core.errors import SolverError


class MipArrays(NamedTuple):
    """``min objective . x`` s.t. ``row_lower <= matrix x <= row_upper``.

    Variables with a nonzero ``integrality`` entry are integer, and every
    variable lies in ``[lower, upper]``.
    """

    objective: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray


@dataclass(frozen=True)
class MipSolution:
    """Outcome of one :func:`solve_milp` call."""

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


def solve_milp(arrays: MipArrays, time_limit_s: float | None = None,
               node_limit: int | None = None) -> MipSolution:
    """Solve the full mixed-integer program with ``scipy.optimize.milp``.

    Args:
        arrays: the mixed-integer program.
        time_limit_s: wall-clock limit (``None`` = unlimited).
        node_limit: maximum number of branch-and-bound nodes HiGHS explores
            (``None`` = unlimited).  A node-limited solve is deterministic.
    """
    # Imported on the first MIP solve, not at start-up: scipy.optimize is
    # a large share of a cold start and most processes never solve a MIP.
    from scipy.optimize import Bounds, LinearConstraint, milp

    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)

    start = time.perf_counter()
    try:
        result = milp(
            c=arrays.objective,
            constraints=[LinearConstraint(arrays.matrix, arrays.row_lower,
                                          arrays.row_upper)],
            integrality=arrays.integrality,
            bounds=Bounds(arrays.lower, arrays.upper),
            options=options or None,
        )
    except (TypeError, ValueError) as exc:
        raise SolverError(f"scipy milp failed: {exc}") from exc

    elapsed = time.perf_counter() - start
    node_count = int(result.mip_node_count or 0)  # None for an infeasible model
    if result.x is None:
        status = "infeasible" if result.status == 2 else f"milp-status-{result.status}"
        return MipSolution(status=status, objective_value=None, values=None,
                           optimal=False, solve_time_s=elapsed,
                           node_count=node_count)
    return MipSolution(
        status="optimal" if result.status == 0 else f"milp-status-{result.status}",
        objective_value=float(result.fun),
        values=np.asarray(result.x),
        optimal=result.status == 0,
        solve_time_s=elapsed,
        node_count=node_count,
    )
