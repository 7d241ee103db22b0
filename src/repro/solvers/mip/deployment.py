"""Shared skeleton of the deployment MIP encodings and solvers.

The longest-link (Sect. 4.1) and longest-path (Sect. 4.4) MIPs differ only
in their objective machinery; everything else — the padded assignment
block, the Hungarian decode, the warm-start comparison, the HiGHS driving
logic — is shared.  This module is the template-method factoring:

* :class:`DeploymentEncoding` builds the common model structure (binary
  assignment variables over the dummy-padded graph, the two assignment
  equality blocks, the solution decoding) and defers the objective
  variables / constraints to two hooks subclasses implement.
* :class:`MipDeploymentSolver` is the common ``_solve`` body: clustering,
  warm starts, the HiGHS ``milp`` call, fallback plans and result assembly;
  a subclass only names its encoding class and solver metadata.

Placement constraints are lowered directly into the model through the
variable-fixing hook: a disallowed assignment variable is fixed to 0 (and a
pin's variable to 1) via bounds, which eliminates the disallowed block of
the ``|E| * |S|^2`` constraint interactions from every LP relaxation — the
MIP searches only the feasible region.

The paper ran CPLEX; SciPy's HiGHS ``milp`` stands in for it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...core.communication_graph import CommunicationGraph, augment_with_dummy_nodes
from ...core.cost_matrix import CostMatrix
from ...core.deployment import DeploymentPlan
from ...core.problem import DeploymentProblem
from ..base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_random_plan,
    constrained_warm_start,
)
from .model import MipModel
from .scipy_backend import solve_milp


class DeploymentEncoding:
    """Template-method base of the two deployment MIP encodings.

    Builds the shared structure — binary ``x_ij`` assignment variables over
    the dummy-padded graph, the per-node and per-instance assignment
    equalities, the gather map used to decode solution vectors — and calls
    two hooks in a fixed order that keeps variable and constraint indices
    identical to the historical hand-written encodings:

    1. ``_add_objective_variables()`` — right after the ``x`` block;
    2. ``_add_objective_constraints()`` — after the assignment equalities
       (this hook also sets the objective).

    Args:
        graph: the application communication graph.
        costs: pairwise link costs over the allocated instances.
        allowed_mask: optional boolean ``(num_nodes, num_instances)``
            placement mask in ``graph.nodes`` × instance-index order (see
            :class:`~repro.core.evaluation.CompiledConstraints`).  When
            given, disallowed assignment variables are fixed to 0 and
            forced ones to 1 via bounds, and the Hungarian decode is
            steered away from disallowed cells.
    """

    def __init__(self, graph: CommunicationGraph, costs: CostMatrix,
                 allowed_mask: Optional[np.ndarray] = None):
        self._validate_graph(graph)
        self.graph = graph
        self.costs = costs
        self.instance_ids = list(costs.instance_ids)
        self.cost_array = costs.as_array()
        self.padded_graph = augment_with_dummy_nodes(graph, costs.num_instances)
        self.nodes = list(self.padded_graph.nodes)
        self.num_instances = costs.num_instances

        self.model = MipModel()
        self.x_index: Dict[Tuple[int, int], int] = {}
        for node in self.nodes:
            for j in range(self.num_instances):
                self.x_index[(node, j)] = self.model.add_binary(f"x[{node},{j}]")
        self._add_objective_variables()
        # Variable indices of the x block as a (nodes, instances) gather map,
        # so solution vectors can be reshaped into assignment weights without
        # a per-entry Python loop.
        self._x_block = np.array(
            [[self.x_index[(node, j)] for j in range(self.num_instances)]
             for node in self.nodes],
            dtype=np.intp,
        )

        # Assignment constraints: each node on exactly one instance and each
        # instance hosting exactly one (possibly dummy) node.
        for node in self.nodes:
            self.model.add_equality(
                {self.x_index[(node, j)]: 1.0 for j in range(self.num_instances)}, 1.0
            )
        for j in range(self.num_instances):
            self.model.add_equality(
                {self.x_index[(node, j)]: 1.0 for node in self.nodes}, 1.0
            )

        self._decode_mask: Optional[np.ndarray] = None
        if allowed_mask is not None:
            self._fix_placements(np.asarray(allowed_mask, dtype=bool))

        self._add_objective_constraints()

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def _validate_graph(self, graph: CommunicationGraph) -> None:
        """Reject graphs the encoding cannot express (hook; default: none)."""

    def _add_objective_variables(self) -> None:
        """Add the objective-side variables (hook)."""
        raise NotImplementedError

    def _add_objective_constraints(self) -> None:
        """Add the objective-side constraints and set the objective (hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Constraint lowering
    # ------------------------------------------------------------------ #

    def _fix_placements(self, mask: np.ndarray) -> None:
        """Fix assignment variables according to a placement mask.

        Disallowed ``(node, instance)`` pairs get ``x_ij`` fixed to 0 —
        eliminating their share of the ``|E| * |S|^2`` objective
        interactions from every LP relaxation — and a node whose row leaves
        a single instance (a pin, or a forbidden set squeezed to one value)
        gets that variable fixed to 1.  Dummy (padding) nodes are barred
        from forced instances: the forced node occupies them in any
        feasible solution.
        """
        forced_columns = []
        for row, node in enumerate(self.graph.nodes):
            allowed = np.flatnonzero(mask[row])
            for j in range(self.num_instances):
                if not mask[row, j]:
                    self.model.set_variable_bounds(
                        self.x_index[(node, j)], upper=0.0)
            if allowed.size == 1:
                self.model.set_variable_bounds(
                    self.x_index[(node, int(allowed[0]))], lower=1.0)
                forced_columns.append(int(allowed[0]))
        real_nodes = set(self.graph.nodes)
        for node in self.nodes:
            if node in real_nodes:
                continue
            for j in forced_columns:
                self.model.set_variable_bounds(self.x_index[(node, j)],
                                               upper=0.0)
        decode_mask = np.ones((len(self.nodes), self.num_instances), dtype=bool)
        decode_mask[: len(self.graph.nodes)] = mask
        if forced_columns:
            decode_mask[len(self.graph.nodes):, forced_columns] = False
        self._decode_mask = decode_mask

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def decode(self, values: np.ndarray) -> DeploymentPlan:
        """Extract an injective deployment plan from a solution vector.

        A Hungarian assignment on the ``x`` block guards against slightly
        fractional or degenerate solutions.
        """
        weights = np.asarray(values)[self._x_block]
        if self._decode_mask is not None:
            # Assignment weights live in [0, 1], so a penalty below
            # -(num rows) makes the matching avoid every disallowed cell
            # whenever a feasible perfect matching exists (it does: joint
            # feasibility is validated at problem construction).
            weights = np.where(self._decode_mask, weights,
                               -float(len(self.nodes) + 1))
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-weights)
        assignment = {self.nodes[int(r)]: int(c) for r, c in zip(rows, cols)}
        return DeploymentPlan({
            node: self.instance_ids[assignment[node]] for node in self.graph.nodes
        })


class MipDeploymentSolver(DeploymentSolver):
    """Template-method base of the two deployment MIP solvers.

    Subclasses set :attr:`encoding_factory` (their
    :class:`DeploymentEncoding` subclass) plus the usual solver metadata;
    the whole ``_solve`` body — clustering, warm starts, constraint
    lowering, the HiGHS ``milp`` call, fallbacks, result assembly — lives
    here once.  ``SolverResult.iterations`` is the number of
    branch-and-bound nodes HiGHS explored.

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

    #: Encoding class instantiated per problem; set by subclasses.
    encoding_factory = None
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
        encoding = type(self).encoding_factory(
            graph, clustered,
            allowed_mask=None if view is None else view.allowed_mask,
        )

        engine = problem.compiled()

        def score(plan: DeploymentPlan) -> float:
            return engine.evaluate_plan(plan, objective)

        if initial_plan is not None:
            trace.record(watch.elapsed(), score(initial_plan))

        # HiGHS gets what the budget has left after the encoding build; at
        # 0 it returns at once with no solution and the fallback answers.
        remaining = watch.remaining()
        solution = solve_milp(
            encoding.model,
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
            plan = encoding.decode(solution.values)

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
