"""The deployment MIPs as HiGHS arrays, and the solver that drives them.

The longest-link (Sect. 4.1) and longest-path (Sect. 4.4) MIPs share one
structure and differ only in their objective columns:

* :func:`encode_mip` builds either model directly as the arrays SciPy's
  HiGHS ``milp`` reads (:class:`~repro.solvers.mip.scipy_backend.MipArrays`):
  binary ``x_ij`` assignment columns over the dummy-padded graph, the
  per-node and per-instance assignment equalities, one link row per edge
  and ordered pair of distinct instances with a positive cost, and, for
  longest path, the path-propagation rows.
* :func:`decode_plan` turns a solution vector back into a plan.
* :class:`MipDeploymentSolver` is the common ``_solve`` body: clustering,
  warm starts, the HiGHS ``milp`` call, fallback plans and result assembly;
  a subclass only names its objective and solver metadata.

Placement constraints are lowered into the variable bounds: a disallowed
assignment column is fixed to 0 (and a pin's column to 1), which removes
the disallowed block of the ``|E| * |S|^2`` link interactions from every LP
relaxation — the MIP searches only the feasible region.

The paper ran CPLEX; SciPy's HiGHS ``milp`` stands in for it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from ...core.communication_graph import CommunicationGraph
from ...core.deployment import DeploymentPlan
from ...core.errors import InvalidGraphError
from ...core.objectives import Objective
from ...core.problem import DeploymentProblem
from ...core.types import InstanceId, NodeId
from ..base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_random_plan,
    constrained_warm_start,
)
from .scipy_backend import MipArrays, solve_milp


def encode_mip(graph: CommunicationGraph, cost_array: np.ndarray,
               objective: Objective,
               allowed_mask: Optional[np.ndarray] = None) -> MipArrays:
    """Build the longest-link or longest-path MIP of one problem.

    The graph is padded with dummy nodes up to ``m = len(cost_array)`` rows
    (a dummy has no edges), so the assignment is a perfect matching.
    Columns: ``x`` of padded node row ``r`` on instance ``j`` at
    ``r * m + j``; then ``c`` for longest link, or one ``c_e`` per edge,
    one ``t_i`` per node and ``t`` for longest path.  Rows: one equality per
    padded node, one per instance, then the link rows
    ``c_e >= CL(j, j') (x_ij + x_i'j' - 1)`` edge by edge (``c_e`` is ``c``
    for longest link), then for longest path ``t_i' >= t_i + c_e`` per edge
    and ``t >= t_i`` per node.  The objective minimises the last column.

    Args:
        graph: the application communication graph.
        cost_array: ``(m, m)`` link costs in instance-index order.
        objective: which of the two MIPs to build.
        allowed_mask: optional boolean ``(num_nodes, num_instances)``
            placement mask in ``graph.nodes`` × instance-index order (see
            :class:`~repro.core.evaluation.CompiledConstraints`).  A
            disallowed ``x`` column gets upper bound 0; a node whose row
            leaves a single instance (a pin, or a forbidden set squeezed to
            one value) gets that column's lower bound 1, and dummy rows are
            barred from that instance, which the node occupies.

    Raises:
        InvalidGraphError: for longest path on a cyclic graph.
    """
    longest_path = objective is Objective.LONGEST_PATH
    if longest_path and not graph.is_dag():
        raise InvalidGraphError("LPNDP requires an acyclic communication graph")
    m, n = len(cost_array), graph.num_nodes
    row_of = {node: row for row, node in enumerate(graph.nodes)}
    edges = np.array([(row_of[i], row_of[k]) for i, k in graph.edges],
                     dtype=np.intp).reshape(-1, 2)
    num_edges = len(edges)
    x = np.arange(m * m).reshape(m, m)
    num_columns = m * m + (num_edges + n + 1 if longest_path else 1)

    objective_vector = np.zeros(num_columns)
    objective_vector[-1] = 1.0
    integrality = np.zeros(num_columns)
    integrality[: m * m] = 1.0
    lower = np.zeros(num_columns)
    upper = np.full(num_columns, np.inf)
    upper[: m * m] = 1.0
    if allowed_mask is not None:
        mask = np.asarray(allowed_mask, dtype=bool)
        x_lower = lower[: m * m].reshape(m, m)  # views
        x_upper = upper[: m * m].reshape(m, m)
        x_upper[:n][~mask] = 0.0
        forced = np.flatnonzero(mask.sum(axis=1) == 1)
        forced_columns = mask[forced].argmax(axis=1)
        x_lower[forced, forced_columns] = 1.0
        x_upper[n:, forced_columns] = 0.0

    # Link rows, edge-major, then instance pairs in row-major order.
    pair_j, pair_k = np.nonzero((cost_array > 0) & ~np.eye(m, dtype=bool))
    edge = np.repeat(np.arange(num_edges), len(pair_j))
    link_cost = np.tile(cost_array[pair_j, pair_k], num_edges)
    link_column = m * m + edge if longest_path else np.full(len(edge), m * m)
    blocks = [  # (columns, coefficients, row lower, row upper) per row block
        (x, np.ones((m, m)), 1.0, 1.0),
        (x.T, np.ones((m, m)), 1.0, 1.0),
        (np.column_stack([link_column,
                          x[edges[edge, 0], np.tile(pair_j, num_edges)],
                          x[edges[edge, 1], np.tile(pair_k, num_edges)]]),
         np.column_stack([np.ones_like(link_cost), -link_cost, -link_cost]),
         -link_cost, np.inf),
    ]
    if longest_path:
        t = m * m + num_edges + np.arange(n)
        blocks += [
            (np.column_stack([t[edges[:, 1]], t[edges[:, 0]],
                              m * m + np.arange(num_edges)]),
             np.tile([1.0, -1.0, -1.0], (num_edges, 1)), 0.0, np.inf),
            (np.column_stack([np.full(n, num_columns - 1), t]),
             np.tile([1.0, -1.0], (n, 1)), 0.0, np.inf),
        ]

    columns, coefficients, row_lower, row_upper = zip(*blocks)
    counts = [len(block) for block in columns]
    widths = np.repeat([block.shape[1] for block in columns], counts)
    # The COO -> CSR conversion sorts each row's columns.
    matrix = sparse.csr_matrix(
        (np.concatenate([block.ravel() for block in coefficients]),
         (np.repeat(np.arange(len(widths)), widths),
          np.concatenate([block.ravel() for block in columns]))),
        shape=(len(widths), num_columns))
    return MipArrays(
        objective_vector, integrality, lower, upper, matrix,
        np.concatenate([np.broadcast_to(bound, count)
                        for bound, count in zip(row_lower, counts)]),
        np.concatenate([np.broadcast_to(bound, count)
                        for bound, count in zip(row_upper, counts)]))


def decode_plan(arrays: MipArrays, values: np.ndarray, nodes: Sequence[NodeId],
                instance_ids: Sequence[InstanceId]) -> DeploymentPlan:
    """Extract an injective deployment plan from a solution vector.

    A Hungarian assignment on the ``x`` block guards against slightly
    fractional or degenerate solutions.  Assignment weights live in
    ``[0, 1]``, so a penalty below ``-m`` on every column fixed to 0 keeps
    the matching off them whenever a feasible perfect matching exists (it
    does: joint feasibility is validated at problem construction).
    """
    from scipy.optimize import linear_sum_assignment

    m = len(instance_ids)
    weights = np.where(arrays.upper[: m * m].reshape(m, m) > 0,
                       np.asarray(values)[: m * m].reshape(m, m),
                       -float(m + 1))
    _, columns = linear_sum_assignment(-weights)
    return DeploymentPlan({node: instance_ids[int(columns[row])]
                           for row, node in enumerate(nodes)})


class MipDeploymentSolver(DeploymentSolver):
    """Template-method base of the two deployment MIP solvers.

    A subclass names its objective through ``supported_objectives`` plus the
    usual solver metadata; the whole ``_solve`` body — clustering, warm
    starts, constraint lowering, the HiGHS ``milp`` call, fallbacks, result
    assembly — lives here once.  ``SolverResult.iterations`` is the number
    of branch-and-bound nodes HiGHS explored.

    Args:
        k_clusters: optional cost clustering applied before encoding.
        round_to: rounding grid for clustering.
        node_limit: branch-and-bound node limit, used when the budget sets
            no ``max_iterations`` (``None`` = unlimited).
        initial_random_plans: number of random plans drawn as the warm
            start when ``seed`` is given and no warm start is supplied
            (the paper seeds its solvers with the best of 10 random
            deployments, Sect. 6.3.1).
        seed: RNG seed for the random warm start.  ``None`` (the default)
            draws no warm start.
    """

    #: HiGHS takes no incumbent, so the warm start bounds the result
    #: instead: it is returned whenever it beats the decoded MIP plan.
    supports_warm_start = True

    def __init__(self, k_clusters: Optional[int] = None,
                 round_to: float | None = 0.01, node_limit: int | None = 5000,
                 initial_random_plans: int = 10,
                 seed: int | None = None):
        self.k_clusters = k_clusters
        self.round_to = round_to
        self.node_limit = node_limit
        self.initial_random_plans = max(1, initial_random_plans)
        self._seed = seed

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.seconds(30.0)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        constraints = problem.constraints
        view = problem.compiled_constraints()
        if view is not None:
            initial_plan = constrained_warm_start(problem, initial_plan)
        if initial_plan is None and self._seed is not None:
            initial_plan, _ = best_random_plan(
                problem, self.initial_random_plans, rng=self._seed)

        clustered = costs.clustered(self.k_clusters, round_to=self.round_to) \
            if self.k_clusters is not None else costs
        arrays = encode_mip(
            graph, clustered.as_array(), objective,
            allowed_mask=None if view is None else view.allowed_mask)

        engine = problem.compiled()

        def score(plan: DeploymentPlan) -> float:
            return engine.evaluate_plan(plan, objective)

        if initial_plan is not None:
            trace.record(watch.elapsed(), score(initial_plan))

        # HiGHS gets what the budget has left after the encoding build; at
        # 0 it returns at once with no solution and the fallback answers.
        remaining = watch.remaining()
        solution = solve_milp(
            arrays,
            time_limit_s=None if remaining is None else max(0.0, remaining),
            node_limit=self.node_limit if budget.max_iterations is None
            else budget.max_iterations)
        optimal = solution.optimal
        if solution.values is None:
            # No feasible solution produced within budget: fall back to the
            # warm start or the identity plan so callers always get a plan
            # (made feasible natively when constraints are in play).
            plan = initial_plan if initial_plan is not None else \
                DeploymentPlan.identity(graph.nodes,
                                        costs.instance_ids[: graph.num_nodes])
            if constraints is not None and not constraints.satisfied_by(plan):
                plan = constraints.repair(plan, costs.instance_ids)
            optimal = False
        else:
            plan = decode_plan(arrays, solution.values, graph.nodes,
                               costs.instance_ids)

        cost = score(plan)
        if initial_plan is not None:
            warm_cost = score(initial_plan)
            if warm_cost < cost:
                plan, cost = initial_plan, warm_cost
        trace.record(watch.elapsed(), cost)

        return SolverResult(
            plan=plan, cost=cost, objective=objective, solver_name=self.name,
            solve_time_s=watch.elapsed(), iterations=solution.node_count,
            optimal=optimal and self.k_clusters is None,
            trace=trace.as_tuples(),
        )
