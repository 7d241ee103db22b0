"""Solve :class:`MipModel` instances with SciPy's HiGHS ``milp``.

:func:`solve_milp` hands the full mixed-integer program to
:func:`scipy.optimize.milp`, bounded by a wall-clock limit and a
branch-and-bound node limit.
"""

from __future__ import annotations

import time

import numpy as np

from ...core.errors import SolverError
from .model import MipModel, MipSolution


def solve_milp(model: MipModel, time_limit_s: float | None = None,
               node_limit: int | None = None) -> MipSolution:
    """Solve the full mixed-integer program with ``scipy.optimize.milp``.

    Args:
        model: the mixed-integer model.
        time_limit_s: wall-clock limit (``None`` = unlimited).
        node_limit: maximum number of branch-and-bound nodes HiGHS explores
            (``None`` = unlimited).  A node-limited solve is deterministic.
    """
    # Imported on the first MIP solve, not at start-up: scipy.optimize is
    # a large share of a cold start and most processes never solve a MIP.
    from scipy.optimize import Bounds, LinearConstraint, milp

    start = time.perf_counter()
    lower, upper = model.bounds_arrays()
    matrix, c_lower, c_upper = model.constraint_matrix()
    integrality = np.zeros(model.num_variables)
    integrality[model.integer_indices()] = 1

    constraints = []
    if matrix.shape[0]:
        constraints.append(LinearConstraint(matrix, c_lower, c_upper))

    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)

    try:
        result = milp(
            c=model.objective_vector(),
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
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
