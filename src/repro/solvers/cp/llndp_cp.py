"""Constraint-programming solver for the Longest Link problem (Sect. 4.2).

The solver exploits the connection between LLNDP and subgraph isomorphism:
a deployment of cost at most ``c`` exists iff the threshold graph ``G_c``
(instances connected by links of cost <= ``c``) contains a subgraph
isomorphic to the communication graph.  Starting from an initial incumbent,
the solver repeatedly lowers the threshold to the next smaller distinct cost
value and re-solves the satisfaction problem, stopping when no deployment is
found (the incumbent is then optimal) or the budget runs out.

Cost clustering (Sect. 6.3) reduces the number of distinct values — and thus
iterations — at the price of approximating the objective.

All plan scoring and bound computation runs through the compiled evaluation
engine (the problem's own, plus one compiled per solve over the clustered
costs): incumbents are scored with ``evaluate_plan``, threshold graphs come from
``threshold_adjacency`` over the compiled cost array, and the per-assignment
degree bounds yield a proven lower bound that terminates the threshold loop
early once the incumbent provably cannot improve.  Seeded results are pinned
in ``tests/data/cp_golden.json`` and, at paper scale (n = 100 and 300), with
every satisfaction search's backtracks and nodes, in
``tests/data/cp_scale_golden.json``.
"""

from __future__ import annotations

import time
from typing import Optional

from ...core.deployment import DeploymentPlan
from ...core.evaluation import compile_problem
from ...core.objectives import Objective
from ...core.problem import DeploymentProblem
from ...core.types import make_rng
from ..base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_random_plan,
    constrained_warm_start,
)
from .subgraph import SubgraphMonomorphismSearch


class CPLongestLinkSolver(DeploymentSolver):
    """Iterative threshold-lowering CP solver for LLNDP.

    Args:
        k_clusters: number of cost clusters to round link costs into before
            solving (``None`` disables clustering, reproducing the paper's
            "no clustering" configuration).
        round_to: rounding grid (ms) applied to costs before clustering;
            the paper rounds to the nearest 0.01 ms.
        initial_random_plans: how many random plans seed the incumbent.
        max_backtracks_per_iteration: optional cap on backtracks within one
            satisfaction search, to bound worst-case behaviour.
        seed: RNG seed for the initial random plans.
    """

    name = "CP"
    supported_objectives = (Objective.LONGEST_LINK,)
    #: The incumbent seeds the threshold loop: a warm start at cost ``c``
    #: means the first satisfaction search already runs at the next
    #: distinct cost below ``c``, so a near-optimal incumbent (the usual
    #: case after a small drift) skips almost the whole threshold descent.
    supports_warm_start = True

    def __init__(self, k_clusters: Optional[int] = 20, round_to: float | None = 0.01,
                 initial_random_plans: int = 10,
                 max_backtracks_per_iteration: int | None = 200_000,
                 matching_check_interval: int = 8,
                 seed: int | None = None):
        if k_clusters is not None and k_clusters < 2:
            raise ValueError("k_clusters must be at least 2 (or None)")
        self.k_clusters = k_clusters
        self.round_to = round_to
        self.initial_random_plans = max(1, initial_random_plans)
        self.max_backtracks_per_iteration = max_backtracks_per_iteration
        self.matching_check_interval = matching_check_interval
        self._seed = seed

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.seconds(30.0)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        rng = make_rng(self._seed)

        clustered = costs.clustered(self.k_clusters, round_to=self.round_to)
        instance_ids = list(clustered.instance_ids)

        # Placement constraints are lowered into the search itself: the
        # allowed mask restricts the CP domains and tightens both lower
        # bounds (the clustered matrix preserves instance ids and order, so
        # one mask serves both engines).
        view = problem.compiled_constraints()
        mask = None if view is None else view.allowed_mask

        engine = problem.compiled()
        clustered_engine = compile_problem(graph, clustered)

        def true_cost(plan: DeploymentPlan) -> float:
            return engine.evaluate_plan(plan, objective)

        def clustered_cost(plan: DeploymentPlan) -> float:
            return clustered_engine.evaluate_plan(plan, objective)

        # Two bounds: the clustered one gates the threshold loop (it lives
        # in the same value space as the thresholds), while the reported
        # lower bound comes from the true costs so it is a proven bound on
        # the actual optimum (clustering can round a cost upward past it).
        clustered_lower_bound = clustered_engine.longest_link_lower_bound(mask)
        lower_bound = engine.longest_link_lower_bound(mask)

        # Seed the incumbent with the best of a few random plans (and the
        # caller-provided warm start when available); on the constrained
        # path every seed candidate is feasible, so the final incumbent is
        # feasible no matter how the threshold loop ends.
        plan, _ = best_random_plan(problem, self.initial_random_plans, rng)
        initial_plan = constrained_warm_start(problem, initial_plan)
        if initial_plan is not None:
            if true_cost(initial_plan) < true_cost(plan):
                plan = initial_plan
        best_plan = plan
        best_true_cost = true_cost(best_plan)
        best_clustered_cost = clustered_cost(best_plan)
        trace.record(watch.elapsed(), best_true_cost)

        distinct = clustered.distinct_costs()
        iterations = 0
        proven_optimal = False

        while not watch.expired():
            lower_values = distinct[distinct < best_clustered_cost - 1e-12]
            if lower_values.size == 0:
                proven_optimal = True
                break
            if best_clustered_cost <= clustered_lower_bound + 1e-12:
                # The degree-based bound proves every remaining threshold
                # infeasible; the incumbent is optimal without more searches.
                proven_optimal = True
                break
            threshold = float(lower_values.max())
            allowed = clustered_engine.threshold_adjacency(threshold)

            remaining = watch.remaining()
            deadline = (time.perf_counter() + remaining) if remaining is not None else None
            search = SubgraphMonomorphismSearch(
                graph, instance_ids, allowed, deadline=deadline,
                max_backtracks=self.max_backtracks_per_iteration,
                matching_check_interval=self.matching_check_interval,
                problem=clustered_engine, node_allowed=mask,
            )
            outcome = search.find()
            iterations += 1

            if outcome.plan is not None:
                best_plan = outcome.plan
                best_clustered_cost = clustered_cost(best_plan)
                best_true_cost = true_cost(best_plan)
                trace.record(watch.elapsed(), best_true_cost)
                if budget.target_cost is not None and best_true_cost <= budget.target_cost:
                    break
                continue
            if outcome.proven_infeasible:
                # No deployment below the current threshold exists: the
                # incumbent is optimal with respect to the clustered costs.
                proven_optimal = True
                break
            # Timed out inside the satisfaction search.
            break

        return SolverResult(
            plan=best_plan,
            cost=best_true_cost,
            objective=objective,
            solver_name=self.name,
            solve_time_s=watch.elapsed(),
            iterations=iterations,
            optimal=proven_optimal and self.k_clusters is None,
            trace=trace.as_tuples(),
            lower_bound=lower_bound,
        )
