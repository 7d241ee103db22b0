"""Randomized deployment search: the R1 and R2 baselines (Sects. 4.3.1, 4.5.1).

R1 evaluates a fixed number of uniformly random deployment plans and keeps
the best.  R2 keeps generating random plans until a wall-clock budget runs
out, which is how the paper gives the randomized approach the same amount of
time (and, conceptually, hardware) as the CP and MIP solvers.

On a constrained problem every sample is drawn feasible through the
compiled constraint view (:class:`~repro.core.evaluation.CompiledConstraints`),
so no search budget is wasted on plans the constraints rule out and the
returned plan never needs the base-class repair.  The unconstrained path is
untouched — it consumes the RNG exactly as before, keeping seeded results
bit-identical.
"""

from __future__ import annotations

from typing import Optional

from ..core.deployment import DeploymentPlan
from ..core.problem import DeploymentProblem
from ..core.types import make_rng
from .base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    constrained_warm_start,
)

#: Batch sizes for vectorized plan evaluation.  Chunks start small so a
#: tight time budget is respected, then grow to amortise the per-call
#: overhead of the evaluation engine.
_MIN_CHUNK = 32
_MAX_CHUNK = 1024


class RandomSearch(DeploymentSolver):
    """Generate random injective deployments and keep the cheapest one.

    Args:
        num_samples: number of random plans to evaluate.  When ``None`` the
            solver runs until the budget's time limit (R2 behaviour); when
            set, it stops after that many samples even if time remains
            (R1 behaviour).
        parallel_factor: emulates generating plans on several workers by
            multiplying the number of samples evaluated per unit of time
            accounting; only used to document R2 configurations, the search
            itself is sequential and deterministic.
        seed: RNG seed.
    """

    name = "random"
    supports_warm_start = True

    def __init__(self, num_samples: Optional[int] = 1000,
                 seed: int | None = None, parallel_factor: int = 1):
        if num_samples is not None and num_samples <= 0:
            raise ValueError("num_samples must be positive or None")
        if parallel_factor < 1:
            raise ValueError("parallel_factor must be >= 1")
        self.num_samples = num_samples
        self.parallel_factor = parallel_factor
        self._seed = seed

    @classmethod
    def r1(cls, num_samples: int = 1000, seed: int | None = None) -> "RandomSearch":
        """The paper's R1 configuration: a fixed number of random plans."""
        solver = cls(num_samples=num_samples, seed=seed)
        solver.name = "R1"
        return solver

    @classmethod
    def r2(cls, seed: int | None = None, parallel_factor: int = 8) -> "RandomSearch":
        """The paper's R2 configuration: random search bounded by wall-clock time."""
        solver = cls(num_samples=None, seed=seed, parallel_factor=parallel_factor)
        solver.name = "R2"
        return solver

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.unlimited()
        if self.num_samples is None and budget.time_limit_s is None \
                and budget.max_iterations is None:
            raise ValueError(
                "time-bounded random search needs a time or iteration budget"
            )

        rng = make_rng(self._seed)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        instances = list(costs.instance_ids)
        engine = problem.compiled()
        view = problem.compiled_constraints()
        initial_plan = constrained_warm_start(problem, initial_plan)

        best_plan = initial_plan
        best_cost = (
            engine.evaluate_plan(initial_plan, objective)
            if initial_plan is not None else float("inf")
        )
        if best_plan is not None:
            trace.record(watch.elapsed(), best_cost)

        # Plans are still drawn one at a time (the RNG stream is part of the
        # solver's contract) but scored in growing batches through the
        # vectorized engine; the incumbent scan below keeps the exact
        # first-strict-improvement semantics of the old per-plan loop.
        iterations = 0
        done = False
        chunk_size = _MIN_CHUNK
        while not done:
            remaining = None
            if self.num_samples is not None:
                remaining = self.num_samples - iterations
            if budget.max_iterations is not None:
                cap = budget.max_iterations - iterations
                remaining = cap if remaining is None else min(remaining, cap)
            if remaining is not None and remaining <= 0:
                break
            if watch.expired():
                break
            size = chunk_size if remaining is None else min(chunk_size, remaining)
            if view is None:
                assignments = None
                plans = [
                    DeploymentPlan.random(graph.nodes, instances, rng)
                    for _ in range(size)
                ]
                plan_costs = engine.evaluate_plans(plans, objective)
            else:
                # Constrained problems: every sample is feasible by
                # construction (drawn from the allowed-index arrays).
                assignments = view.random_assignments(size, rng)
                plans = None
                plan_costs = engine.evaluate_batch(assignments, objective)
            for index, cost in enumerate(plan_costs):
                iterations += 1
                if cost < best_cost:
                    best_plan = (
                        plans[index] if assignments is None
                        else engine.plan_from_assignment(assignments[index])
                    )
                    best_cost = float(cost)
                    trace.record(watch.elapsed(), best_cost)
                if budget.target_cost is not None and best_cost <= budget.target_cost:
                    done = True
                    break
            chunk_size = min(chunk_size * 2, _MAX_CHUNK)

        if best_plan is None:
            # The loop ran zero iterations (e.g. expired budget); fall back to
            # a single random plan so callers always get a feasible result.
            if view is None:
                best_plan = DeploymentPlan.random(graph.nodes, instances, rng)
            else:
                best_plan = engine.plan_from_assignment(
                    view.random_assignment(rng))
            best_cost = engine.evaluate_plan(best_plan, objective)
            trace.record(watch.elapsed(), best_cost)

        return SolverResult(
            plan=best_plan,
            cost=best_cost,
            objective=objective,
            solver_name=self.name,
            solve_time_s=watch.elapsed(),
            iterations=iterations,
            optimal=False,
            trace=trace.as_tuples(),
        )
