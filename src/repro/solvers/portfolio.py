"""Solver portfolio: cheap heuristics first, exact search with the rest.

ClouDiA's practical recipe (Sects. 4 and 6.5): greedy and randomized
solutions are essentially free and give a good incumbent; the exact solver
(CP for longest link, MIP for longest path) then spends the remaining budget
trying to improve on it.  The portfolio returns the best plan any member
produced, together with a merged convergence trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.deployment import DeploymentPlan
from ..core.problem import DeploymentProblem
from .base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
)
from .random_search import RandomSearch


class PortfolioSolver(DeploymentSolver):
    """Run several solvers in sequence and keep the best deployment.

    Args:
        solvers: the member solvers, run in order.  When omitted, a default
            portfolio is chosen per problem at solve time: G2 + a short
            random search followed by CP (longest link) or the MIP (longest
            path).  The exact member is left out when the problem exceeds
            its size ceiling (the MIP's 64 nodes).
        exact_fraction: fraction of the time budget reserved for the last
            (exact) member; the earlier members share the remainder.
    """

    name = "portfolio"
    #: The caller's warm start is handed to the first member and the best
    #: incumbent so far is threaded into every later member.
    supports_warm_start = True

    def __init__(self, solvers: Optional[Sequence[DeploymentSolver]] = None,
                 exact_fraction: float = 0.8, seed: int | None = None):
        if not 0.0 < exact_fraction < 1.0:
            raise ValueError("exact_fraction must be in (0, 1)")
        self._solvers = list(solvers) if solvers is not None else None
        self.exact_fraction = exact_fraction
        self._seed = seed

    def _default_members(self, problem: DeploymentProblem
                         ) -> List[DeploymentSolver]:
        # Imported lazily: the registry module registers this class, so a
        # module-level import would be circular.
        from .registry import default_registry

        members: List[DeploymentSolver] = [
            default_registry.make("greedy"),
            default_registry.make("random", num_samples=200, seed=self._seed),
        ]
        exact_key = default_registry.default_key(problem.objective)
        if exact_key in default_registry.for_problem(problem):
            members.append(default_registry.make(exact_key, seed=self._seed))
        return members

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        objective = problem.objective
        budget = budget or SearchBudget.seconds(10.0)
        # Lower the instance before starting the clock on members: the
        # problem owns its engine, so every engine-backed member (greedy,
        # random search, local search) reuses this single lowering.
        problem.compiled()
        watch = Stopwatch(budget)
        members = self._solvers if self._solvers is not None \
            else self._default_members(problem)

        total = budget.time_limit_s
        exact_budget = None if total is None else total * self.exact_fraction
        warm_budget = None if total is None else (total - exact_budget) / max(
            1, len(members) - 1
        )

        best: Optional[SolverResult] = None
        merged = ConvergenceTrace()
        iterations = 0
        warm_start = initial_plan

        for position, member in enumerate(members):
            if watch.expired():
                break
            is_last = position == len(members) - 1
            member_limit = exact_budget if is_last else warm_budget
            remaining = watch.remaining()
            if member_limit is not None and remaining is not None:
                member_limit = min(member_limit, remaining)
            member_budget = SearchBudget(
                time_limit_s=member_limit,
                max_iterations=budget.max_iterations,
                target_cost=budget.target_cost,
            )
            result = member.solve(problem, budget=member_budget,
                                  initial_plan=warm_start)
            iterations += result.iterations
            offset = watch.elapsed() - result.solve_time_s
            for when, cost in result.trace:
                merged.record(max(0.0, offset + when), cost)
            if best is None or result.cost < best.cost:
                best = result
            if best is not None:
                warm_start = best.plan
            if budget.target_cost is not None and best is not None \
                    and best.cost <= budget.target_cost:
                break

        if best is None:
            fallback = RandomSearch(num_samples=1, seed=self._seed)
            best = fallback.solve(problem)
            merged.record(watch.elapsed(), best.cost)

        return SolverResult(
            plan=best.plan, cost=best.cost, objective=objective,
            solver_name=self.name, solve_time_s=watch.elapsed(),
            iterations=iterations, optimal=best.optimal,
            trace=merged.as_tuples(),
        )
