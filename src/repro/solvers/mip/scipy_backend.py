"""Solve :class:`MipModel` instances with SciPy's HiGHS interfaces.

Two entry points are provided:

* :func:`solve_lp_relaxation` — drop integrality and solve the continuous
  relaxation (used for bounding inside the branch-and-bound solver);
* :func:`solve_milp` — hand the full mixed-integer program to
  :func:`scipy.optimize.milp`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from ...core.errors import SolverError
from .model import MipModel, MipSolution


def solve_lp_relaxation(model: MipModel,
                        extra_bounds: Optional[Dict[int, tuple]] = None) -> MipSolution:
    """Solve the LP relaxation of ``model``.

    Args:
        model: the mixed-integer model.
        extra_bounds: optional per-variable ``(lower, upper)`` overrides used
            by branch and bound to impose branching decisions.
    """
    start = time.perf_counter()
    cost = model.objective_vector()
    lower, upper = model.bounds_arrays()
    if extra_bounds:
        for index, (low, high) in extra_bounds.items():
            lower[index] = max(lower[index], low)
            upper[index] = min(upper[index], high)
            if lower[index] > upper[index] + 1e-12:
                return MipSolution(status="infeasible", objective_value=None,
                                   values=None, optimal=False,
                                   solve_time_s=time.perf_counter() - start)

    matrix, c_lower, c_upper = model.constraint_matrix()
    result = _linprog(cost, matrix, c_lower, c_upper, lower, upper)

    elapsed = time.perf_counter() - start
    if result.status == 0:
        return MipSolution(status="optimal", objective_value=float(result.fun),
                           values=np.asarray(result.x), optimal=True,
                           solve_time_s=elapsed)
    if result.status == 2:
        return MipSolution(status="infeasible", objective_value=None, values=None,
                           optimal=False, solve_time_s=elapsed)
    return MipSolution(status=f"linprog-status-{result.status}", objective_value=None,
                       values=None, optimal=False, solve_time_s=elapsed)


def _linprog(cost, matrix, c_lower, c_upper, lower, upper):
    """Translate two-sided row bounds into A_ub / A_eq form for ``linprog``."""
    a_ub_rows = []
    b_ub = []
    a_eq_rows = []
    b_eq = []
    if matrix.shape[0]:
        dense = matrix.tocsr()
        for row_index in range(dense.shape[0]):
            row = dense.getrow(row_index)
            low = c_lower[row_index]
            high = c_upper[row_index]
            if np.isfinite(low) and np.isfinite(high) and abs(high - low) < 1e-12:
                a_eq_rows.append(row)
                b_eq.append(high)
                continue
            if np.isfinite(high):
                a_ub_rows.append(row)
                b_ub.append(high)
            if np.isfinite(low):
                a_ub_rows.append(-row)
                b_ub.append(-low)
    from scipy import sparse as _sparse

    a_ub = _sparse.vstack(a_ub_rows) if a_ub_rows else None
    a_eq = _sparse.vstack(a_eq_rows) if a_eq_rows else None
    return linprog(
        c=cost,
        A_ub=a_ub, b_ub=np.array(b_ub) if b_ub else None,
        A_eq=a_eq, b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )


def solve_milp(model: MipModel, time_limit_s: float | None = None,
               mip_rel_gap: float | None = None) -> MipSolution:
    """Solve the full mixed-integer program with ``scipy.optimize.milp``."""
    start = time.perf_counter()
    cost = model.objective_vector()
    lower, upper = model.bounds_arrays()
    matrix, c_lower, c_upper = model.constraint_matrix()

    integrality = np.zeros(model.num_variables)
    for index in model.integer_indices():
        integrality[index] = 1

    constraints = []
    if matrix.shape[0]:
        constraints.append(LinearConstraint(matrix, c_lower, c_upper))

    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)

    try:
        result = milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options=options or None,
        )
    except (TypeError, ValueError) as exc:
        raise SolverError(f"scipy milp failed: {exc}") from exc

    elapsed = time.perf_counter() - start
    if result.x is None:
        status = "infeasible" if result.status == 2 else f"milp-status-{result.status}"
        return MipSolution(status=status, objective_value=None, values=None,
                           optimal=False, solve_time_s=elapsed)
    return MipSolution(
        status="optimal" if result.status == 0 else f"milp-status-{result.status}",
        objective_value=float(result.fun),
        values=np.asarray(result.x),
        optimal=result.status == 0,
        solve_time_s=elapsed,
    )
