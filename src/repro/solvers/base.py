"""Common interfaces shared by all node-deployment solvers.

A solver receives a :class:`~repro.core.problem.DeploymentProblem` (graph +
costs + objective + optional placement constraints) and returns a
:class:`SolverResult` containing the best deployment plan found, the plan's
cost, a convergence trace and whether optimality was proven.  Solvers
respect a :class:`SearchBudget` (time limit and/or iteration limit) so the
benchmarks can compare them under equal conditions, as the paper does
(Sect. 6.5).

The public entry point is :meth:`DeploymentSolver.solve`, which takes the
problem object and keyword-only ``budget`` / ``initial_plan``.
"""

from __future__ import annotations

import abc
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.communication_graph import CommunicationGraph
from ..core.cost_matrix import CostMatrix
from ..core.deployment import DeploymentPlan, provider_order_plan
from ..core.errors import SolverError
from ..core.objectives import Objective
from ..core.problem import DeploymentProblem
from ..core.types import make_rng


@dataclass(frozen=True)
class SearchBudget:
    """Limits on how long a solver may search.

    Attributes:
        time_limit_s: wall-clock limit in seconds (``None`` = unlimited).
        max_iterations: iteration limit whose meaning is solver-specific
            (random plans generated, HiGHS branch-and-bound nodes for the
            MIPs).  The CP solver does not read it: under an
            iterations-only budget CP stops only when its threshold
            descent ends, each satisfaction search capped by its
            ``max_backtracks_per_iteration`` (200,000 by default; with
            ``max_iterations=5`` the seeded 10x10 golden mesh ran 12
            searches in 8.5 s).
        target_cost: stop early once a plan at or below this cost is found.
    """

    time_limit_s: Optional[float] = None
    max_iterations: Optional[int] = None
    target_cost: Optional[float] = None

    @classmethod
    def unlimited(cls) -> "SearchBudget":
        """A budget with no limits (use with care)."""
        return cls()

    @classmethod
    def seconds(cls, seconds: float) -> "SearchBudget":
        """A pure time budget."""
        return cls(time_limit_s=seconds)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "time_limit_s": self.time_limit_s,
            "max_iterations": self.max_iterations,
            "target_cost": self.target_cost,
            "peek_block": None,  # retired knob; coalesce and store keys digest this dict
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchBudget":
        """Rebuild a budget from :meth:`to_dict` output, checking each limit.

        ``time_limit_s`` must be a finite number >= 0, ``max_iterations``
        an integer >= 0 and ``target_cost`` a finite number; booleans are
        refused.  Unknown keys, such as retired execution knobs, are
        ignored.  A decoded budget must stop: it sets ``time_limit_s`` or
        ``max_iterations`` (a search with neither, such as annealing,
        would never return).  Omitting the budget altogether gives the
        solver's default instead.

        Raises:
            SolverError: naming the first field that breaks its rule, or
                both stopping fields when neither is set.
        """
        if not isinstance(payload, Mapping):
            raise SolverError(
                f"search budget payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        budget = cls(
            time_limit_s=_limit(payload, "time_limit_s", numbers.Real, 0),
            max_iterations=_limit(payload, "max_iterations",
                                  numbers.Integral, 0),
            target_cost=_limit(payload, "target_cost", numbers.Real, None),
        )
        if budget.time_limit_s is None and budget.max_iterations is None:
            raise SolverError(
                "search budget sets neither 'time_limit_s' nor "
                "'max_iterations', so the search would never stop; set one "
                "of them, or omit 'budget' to get the solver's default"
            )
        return budget


def _limit(payload: Mapping[str, Any], name: str, kind: type,
           minimum: Optional[int]) -> Any:
    """``payload[name]`` when absent, null or a valid limit of ``kind``."""
    value = payload.get(name)
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, kind)
            or (kind is numbers.Real and not math.isfinite(value))
            or (minimum is not None and value < minimum)):
        rule = "an integer" if kind is numbers.Integral else "a finite number"
        if minimum is not None:
            rule += f" >= {minimum}"
        raise SolverError(f"budget field {name!r} must be {rule}, "
                          f"got {value!r}")
    return value


class Stopwatch:
    """Tracks elapsed time against an optional deadline."""

    def __init__(self, budget: SearchBudget):
        self._budget = budget
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since the solver started."""
        return time.perf_counter() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when the budget has no time limit."""
        if self._budget.time_limit_s is None:
            return None
        return self._budget.time_limit_s - self.elapsed()

    def expired(self) -> bool:
        """Whether the time limit has been reached."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0


@dataclass
class ConvergenceTrace:
    """Incumbent cost over time, for convergence plots (Figs. 6, 7, 9)."""

    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, elapsed_s: float, cost: float) -> None:
        """Record a new incumbent if it improves on the previous one."""
        if not self.points or cost < self.points[-1][1]:
            self.points.append((elapsed_s, cost))

    def best_cost(self) -> Optional[float]:
        """Cost of the last (best) incumbent, if any."""
        return self.points[-1][1] if self.points else None

    def cost_at(self, elapsed_s: float) -> Optional[float]:
        """Best cost known at a given point in time."""
        best = None
        for when, cost in self.points:
            if when <= elapsed_s:
                best = cost
            else:
                break
        return best

    def as_tuples(self) -> Tuple[Tuple[float, float], ...]:
        """Immutable copy of the trace points."""
        return tuple(self.points)


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run."""

    plan: DeploymentPlan
    cost: float
    objective: Objective
    solver_name: str
    solve_time_s: float
    iterations: int
    optimal: bool
    trace: Tuple[Tuple[float, float], ...] = ()
    #: Proven lower bound on the optimal cost, when the solver derives one
    #: (only the CP solver does: its degree-based bound).
    lower_bound: Optional[float] = None

    def improvement_over(self, baseline_cost: float) -> float:
        """Relative improvement of this result over a baseline cost.

        Raises:
            ValueError: if ``baseline_cost`` is zero or negative.  A
                non-positive baseline makes the ratio meaningless, and the
                old convention of returning ``0.0`` silently hid
                regressions against degenerate baselines.
        """
        if baseline_cost <= 0:
            raise ValueError(
                f"baseline_cost must be positive, got {baseline_cost!r}"
            )
        return max(0.0, (baseline_cost - self.cost) / baseline_cost)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (plan included)."""
        return {
            "plan": self.plan.to_dict(),
            "cost": self.cost,
            "objective": self.objective.value,
            "solver_name": self.solver_name,
            "solve_time_s": self.solve_time_s,
            "iterations": self.iterations,
            "optimal": self.optimal,
            "trace": [[when, cost] for when, cost in self.trace],
            "lower_bound": self.lower_bound,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolverResult":
        """Rebuild a result from :meth:`to_dict` output.

        Unknown keys are ignored, so results stored by older releases stay
        readable.
        """
        try:
            return cls(
                plan=DeploymentPlan.from_dict(payload["plan"]),
                cost=payload["cost"],
                objective=Objective(payload["objective"]),
                solver_name=payload["solver_name"],
                solve_time_s=payload["solve_time_s"],
                iterations=payload["iterations"],
                optimal=payload["optimal"],
                trace=tuple((when, cost)
                            for when, cost in payload.get("trace", [])),
                lower_bound=payload.get("lower_bound"),
            )
        except (KeyError, TypeError) as exc:
            raise SolverError(
                f"malformed solver result payload: {exc}"
            ) from exc


class DeploymentSolver(abc.ABC):
    """Base class for all node-deployment solvers.

    Subclasses implement :meth:`_solve`, which receives a validated
    :class:`~repro.core.problem.DeploymentProblem`.  The public
    :meth:`solve` entry point checks that the solver supports the problem's
    objective and that the returned plan honours the problem's placement
    constraints, which every solver enforces natively inside its search.
    """

    #: Human-readable solver name used in results and benchmark output.
    name: str = "solver"

    #: Objectives the solver can optimise.
    supported_objectives: Tuple[Objective, ...] = (
        Objective.LONGEST_LINK,
        Objective.LONGEST_PATH,
    )

    #: Whether this solver class makes productive use of ``initial_plan``:
    #: search solvers start from it, CP seeds its initial upper bound with
    #: it, the MIP and constructive solvers treat its cost as an upper
    #: bound on the result they return.  This is what makes
    #: re-solving after a small cost drift cost a fraction of a cold solve.
    #: Registered through :class:`~repro.solvers.registry.SolverSpec` as a
    #: capability; a solver that ignores ``initial_plan`` should leave
    #: this ``False`` so the watch loop knows a warm start buys nothing.
    supports_warm_start: bool = False

    def check_problem(self, problem: DeploymentProblem) -> None:
        """Validate that this solver can work on ``problem``.

        Feasibility (enough instances, acyclicity for longest path) is
        already guaranteed by :class:`DeploymentProblem` itself; this check
        only adds the solver-specific objective capability.
        """
        if problem.objective not in self.supported_objectives:
            raise SolverError(
                f"{self.name} does not support objective "
                f"{problem.objective.value}"
            )

    def solve(self, problem: DeploymentProblem, *,
              budget: SearchBudget | None = None,
              initial_plan: DeploymentPlan | None = None) -> SolverResult:
        """Search for a low-cost deployment plan.

        Args:
            problem: the deployment problem to solve.
            budget: optional time / iteration limits.
            initial_plan: optional warm-start plan.

        Returns:
            The best plan found, its cost, and bookkeeping information.

        Raises:
            SolverError: when the solver does not support the problem's
                objective, or returns a plan that violates the problem's
                placement constraints.
        """
        self.check_problem(problem)
        result = self._solve(problem, budget=budget, initial_plan=initial_plan)
        constraints = problem.constraints
        if constraints is not None:
            violations = constraints.violations(result.plan)
            if violations:
                raise SolverError(
                    f"{self.name} returned a plan violating the placement "
                    f"constraints: " + "; ".join(violations[:3])
                )
        return result

    @abc.abstractmethod
    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        """Solver-specific search over a validated problem instance."""


def random_plans(graph: CommunicationGraph, costs: CostMatrix, count: int,
                 rng: np.random.Generator | int | None = None) -> List[DeploymentPlan]:
    """Generate ``count`` uniformly random deployment plans."""
    generator = make_rng(rng)
    instances = list(costs.instance_ids)
    return [
        DeploymentPlan.random(graph.nodes, instances, generator)
        for _ in range(count)
    ]


def best_random_plan(problem: DeploymentProblem, count: int,
                     rng: np.random.Generator | int | None = None
                     ) -> Tuple[DeploymentPlan, float]:
    """Best of ``count`` random plans; used to bootstrap the solvers.

    The paper seeds its solvers with the best of 10 random deployments
    (Sect. 6.3.1).  On an unconstrained problem plans are drawn one by one
    (keeping the RNG stream identical to older releases); on a constrained
    one, assignments are drawn through the problem's compiled constraint
    view, so every sample honours pins and forbidden placements.  Either
    way the samples are scored in a single batch through the problem's
    engine, and ties keep the earliest plan, matching the previous
    strict-improvement loop.
    """
    if count <= 0:
        raise SolverError("count must be positive to draw a random plan")
    generator = make_rng(rng)
    engine = problem.compiled()
    view = problem.compiled_constraints()
    if view is None:
        plans = random_plans(problem.graph, problem.costs, count, generator)
        plan_costs = engine.evaluate_plans(plans, problem.objective)
        best_index = int(np.argmin(plan_costs))
        return plans[best_index], float(plan_costs[best_index])
    assignments = view.random_assignments(count, generator)
    plan_costs = engine.evaluate_batch(assignments, problem.objective)
    best_index = int(np.argmin(plan_costs))
    return (engine.plan_from_assignment(assignments[best_index]),
            float(plan_costs[best_index]))


def constrained_warm_start(problem: DeploymentProblem,
                           initial_plan: Optional[DeploymentPlan]
                           ) -> Optional[DeploymentPlan]:
    """A caller-supplied warm start made safe for a native constrained search.

    Constraint-aware solvers search only the allowed region, so a violating
    warm start is repaired up front (instead of silently dropping it or
    poisoning the search); feasible or absent warm starts pass through
    untouched, as does everything on unconstrained problems.
    """
    constraints = problem.constraints
    if (constraints is None or initial_plan is None
            or constraints.satisfied_by(initial_plan)):
        return initial_plan
    return constraints.repair(initial_plan, problem.costs.instance_ids)


def default_plan(graph: CommunicationGraph, costs: CostMatrix) -> DeploymentPlan:
    """The default deployment: nodes mapped to instances in provider order.

    This is the baseline every experiment in Sect. 6.4 compares against.
    """
    return provider_order_plan(graph.nodes, costs.instance_ids)
