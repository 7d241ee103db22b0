"""Tests for the swap local search and simulated annealing extensions."""

import pytest

from repro.core import CommunicationGraph, DeploymentProblem, Objective
from repro.core.objectives import deployment_cost
from repro.solvers import RandomSearch, SearchBudget, SimulatedAnnealing, SwapLocalSearch

from conftest import deterministic_cost_matrix


@pytest.fixture
def problem():
    graph = CommunicationGraph.mesh_2d(3, 3)
    costs = deterministic_cost_matrix(11, seed=4)
    return graph, costs


class TestSwapLocalSearch:
    def test_valid_result(self, problem):
        graph, costs = problem
        result = SwapLocalSearch(seed=0).solve(DeploymentProblem(graph, costs),
                                               budget=SearchBudget.seconds(0.5))
        assert result.plan.covers(graph)
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_LINK)
        )

    def test_improves_on_initial_plan(self, problem):
        graph, costs = problem
        problem = DeploymentProblem(graph, costs)
        initial = RandomSearch(num_samples=1, seed=5).solve(problem)
        refined = SwapLocalSearch(seed=0).solve(
            problem, budget=SearchBudget.seconds(0.5), initial_plan=initial.plan
        )
        assert refined.cost <= initial.cost

    def test_beats_small_random_search(self, problem):
        graph, costs = problem
        problem = DeploymentProblem(graph, costs)
        random_result = RandomSearch(num_samples=50, seed=2).solve(problem)
        local_result = SwapLocalSearch(seed=2).solve(
            problem, budget=SearchBudget.seconds(0.5)
        )
        assert local_result.cost <= random_result.cost * 1.05

    def test_iteration_budget(self, problem):
        graph, costs = problem
        result = SwapLocalSearch(seed=1).solve(
            DeploymentProblem(graph, costs),
            budget=SearchBudget(time_limit_s=5.0, max_iterations=100)
        )
        assert result.iterations <= 100

    def test_invalid_restarts(self):
        with pytest.raises(ValueError):
            SwapLocalSearch(restarts=0)

    def test_longest_path_objective(self):
        graph = CommunicationGraph.aggregation_tree(2, 2)
        costs = deterministic_cost_matrix(8, seed=6)
        result = SwapLocalSearch(seed=0).solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(0.3),
        )
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_PATH)
        )


class TestSimulatedAnnealing:
    def test_valid_result(self, problem):
        graph, costs = problem
        result = SimulatedAnnealing(seed=0).solve(DeploymentProblem(graph, costs),
                                                  budget=SearchBudget.seconds(0.5))
        assert result.plan.covers(graph)
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_LINK)
        )

    def test_trace_monotone(self, problem):
        graph, costs = problem
        result = SimulatedAnnealing(seed=3).solve(DeploymentProblem(graph, costs),
                                                  budget=SearchBudget.seconds(0.3))
        trace_costs = [cost for _, cost in result.trace]
        assert trace_costs == sorted(trace_costs, reverse=True)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimulatedAnnealing(cooling=1.5)
        with pytest.raises(ValueError):
            SimulatedAnnealing(initial_temperature=0.0)

    def test_improves_over_initial(self, problem):
        graph, costs = problem
        problem = DeploymentProblem(graph, costs)
        initial = RandomSearch(num_samples=1, seed=8).solve(problem)
        result = SimulatedAnnealing(seed=1).solve(
            problem, budget=SearchBudget.seconds(0.5), initial_plan=initial.plan
        )
        assert result.cost <= initial.cost


class TestTargetCost:
    """SearchBudget.target_cost support, the warm re-solve early exit."""

    def test_stops_once_target_reached(self, problem):
        graph, costs = problem
        unbounded = SwapLocalSearch(seed=6, restarts=1).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget(max_iterations=2000))
        target = unbounded.cost * 1.05  # a cost the descent passes through
        bounded = SwapLocalSearch(seed=6, restarts=1).solve(
            DeploymentProblem(graph, costs),
            budget=SearchBudget(max_iterations=2000, target_cost=target))
        assert bounded.cost <= target
        assert bounded.iterations < unbounded.iterations

    def test_warm_start_meeting_target_returns_immediately(self, problem):
        graph, costs = problem
        incumbent = SwapLocalSearch(seed=7, restarts=1).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget(max_iterations=2000))
        warm = SwapLocalSearch(seed=7, restarts=3).solve(
            DeploymentProblem(graph, costs),
            budget=SearchBudget(max_iterations=2000,
                                target_cost=incumbent.cost),
            initial_plan=incumbent.plan)
        assert warm.iterations == 0
        assert warm.cost == incumbent.cost

    def test_no_target_keeps_historical_iteration_counts(self, problem):
        graph, costs = problem
        budget = SearchBudget(max_iterations=500)
        problem = DeploymentProblem(graph, costs)
        first = SwapLocalSearch(seed=8).solve(problem, budget=budget)
        second = SwapLocalSearch(seed=8).solve(problem, budget=budget)
        assert first.iterations == second.iterations == 500
        assert first.cost == second.cost
        assert first.plan.as_dict() == second.plan.as_dict()

    def test_declares_warm_start_capability(self):
        assert SwapLocalSearch.supports_warm_start
        assert SimulatedAnnealing.supports_warm_start
