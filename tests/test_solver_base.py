"""Tests for the shared solver interfaces and helpers."""

import time

import pytest

from repro.core import (
    CommunicationGraph,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import InfeasibleProblemError, SolverError
from repro.core.objectives import deployment_cost
from repro.solvers import GreedyG2, RandomSearch, SearchBudget
from repro.solvers.base import (
    ConvergenceTrace,
    SolverResult,
    Stopwatch,
    best_random_plan,
    default_plan,
    random_plans,
)

from conftest import deterministic_cost_matrix


class TestSearchBudget:
    def test_unlimited(self):
        budget = SearchBudget.unlimited()
        assert budget.time_limit_s is None
        assert budget.max_iterations is None

    def test_seconds_constructor(self):
        assert SearchBudget.seconds(2.5).time_limit_s == 2.5


class TestStopwatch:
    def test_elapsed_increases(self):
        watch = Stopwatch(SearchBudget.unlimited())
        first = watch.elapsed()
        second = watch.elapsed()
        assert second >= first >= 0.0

    def test_unlimited_never_expires(self):
        watch = Stopwatch(SearchBudget.unlimited())
        assert watch.remaining() is None
        assert not watch.expired()

    def test_tiny_budget_expires(self):
        watch = Stopwatch(SearchBudget.seconds(0.0))
        time.sleep(0.001)
        assert watch.expired()


class TestConvergenceTrace:
    def test_only_improvements_recorded(self):
        trace = ConvergenceTrace()
        trace.record(0.0, 5.0)
        trace.record(1.0, 6.0)  # not an improvement, dropped
        trace.record(2.0, 3.0)
        assert trace.as_tuples() == ((0.0, 5.0), (2.0, 3.0))
        assert trace.best_cost() == 3.0

    def test_cost_at_time(self):
        trace = ConvergenceTrace()
        trace.record(0.0, 5.0)
        trace.record(2.0, 3.0)
        assert trace.cost_at(1.0) == 5.0
        assert trace.cost_at(2.5) == 3.0
        assert ConvergenceTrace().cost_at(1.0) is None


class TestHelpers:
    def test_default_plan_uses_first_instances(self, mesh_graph):
        costs = deterministic_cost_matrix(12)
        plan = default_plan(mesh_graph, costs)
        assert plan.used_instances() == tuple(range(9))

    def test_random_plans_count_and_validity(self, mesh_graph):
        costs = deterministic_cost_matrix(12)
        plans = random_plans(mesh_graph, costs, 5, rng=0)
        assert len(plans) == 5
        for plan in plans:
            assert plan.covers(mesh_graph)

    def test_best_random_plan_is_best_of_batch(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=3)
        problem = DeploymentProblem(mesh_graph, costs)
        plan, cost = best_random_plan(problem, 20, rng=1)
        assert cost == pytest.approx(
            deployment_cost(plan, mesh_graph, costs, Objective.LONGEST_LINK)
        )
        # It should not be worse than a single random draw with the same seed.
        single, single_cost = best_random_plan(problem, 1, rng=1)
        assert cost <= single_cost

    def test_infeasible_problem_detected(self):
        graph = CommunicationGraph.mesh_2d(3, 3)
        costs = deterministic_cost_matrix(4)
        solver = RandomSearch(num_samples=5, seed=0)
        with pytest.raises(InfeasibleProblemError):
            solver.solve(DeploymentProblem(graph, costs))

    def test_unsupported_objective_rejected(self, tree_graph):
        from repro.solvers import CPLongestLinkSolver

        costs = deterministic_cost_matrix(10)
        problem = DeploymentProblem(tree_graph, costs,
                                    objective=Objective.LONGEST_PATH)
        with pytest.raises(SolverError):
            CPLongestLinkSolver().solve(problem)


class TestImprovementOver:
    def _result(self, mesh_graph, cost):
        costs = deterministic_cost_matrix(12)
        plan = default_plan(mesh_graph, costs)
        return SolverResult(plan=plan, cost=cost,
                            objective=Objective.LONGEST_LINK,
                            solver_name="test", solve_time_s=0.0,
                            iterations=1, optimal=False)

    def test_positive_baseline_reports_improvement(self, mesh_graph):
        result = self._result(mesh_graph, cost=7.0)
        assert result.improvement_over(10.0) == pytest.approx(0.3)

    def test_regression_clamped_to_zero(self, mesh_graph):
        result = self._result(mesh_graph, cost=12.0)
        assert result.improvement_over(10.0) == 0.0

    def test_zero_baseline_raises(self, mesh_graph):
        result = self._result(mesh_graph, cost=7.0)
        with pytest.raises(ValueError, match="positive"):
            result.improvement_over(0.0)

    def test_negative_baseline_raises(self, mesh_graph):
        result = self._result(mesh_graph, cost=7.0)
        with pytest.raises(ValueError, match="positive"):
            result.improvement_over(-1.0)


class TestSolveEntryPoint:
    @pytest.mark.parametrize("extra", [(), (Objective.LONGEST_LINK,)],
                             ids=["graph-costs", "graph-costs-objective"])
    def test_graph_and_costs_form_is_a_type_error(self, mesh_graph, extra):
        costs = deterministic_cost_matrix(12)
        with pytest.raises(TypeError):
            GreedyG2().solve(mesh_graph, costs, *extra)

    @pytest.mark.parametrize("second", ["costs", "budget"])
    def test_second_positional_argument_rejected(self, mesh_graph, second):
        # Costs belong to the problem; budget and initial_plan are
        # keyword-only.
        costs = deterministic_cost_matrix(12)
        problem = DeploymentProblem(mesh_graph, costs)
        extra = costs if second == "costs" else SearchBudget(max_iterations=5)
        with pytest.raises(TypeError):
            GreedyG2().solve(problem, extra)

    def test_solve_does_not_warn(self, mesh_graph, recwarn):
        costs = deterministic_cost_matrix(12)
        GreedyG2().solve(DeploymentProblem(mesh_graph, costs))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_violating_plan_is_a_solver_error(self, mesh_graph,
                                              provider_order_solver):
        """The base class refuses a plan that breaks the constraints."""
        costs = deterministic_cost_matrix(12)
        free = DeploymentProblem(mesh_graph, costs)
        assert provider_order_solver.solve(free).plan == free.default_plan()
        # The provider-order plan puts node 0 on instance 0.
        pinned = DeploymentProblem(
            mesh_graph, costs,
            constraints=PlacementConstraints(pinned={0: 11}))
        with pytest.raises(SolverError,
                           match="provider-order.*must run on instance 11"):
            provider_order_solver.solve(pinned)
