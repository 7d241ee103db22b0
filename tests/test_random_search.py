"""Tests for the R1 / R2 randomized deployment search."""

import pytest

from repro.core import CommunicationGraph, DeploymentProblem, Objective
from repro.core.objectives import deployment_cost
from repro.solvers import RandomSearch, SearchBudget

from conftest import deterministic_cost_matrix


@pytest.fixture
def problem():
    graph = CommunicationGraph.mesh_2d(3, 3)
    costs = deterministic_cost_matrix(11, seed=2)
    return graph, costs


class TestRandomSearch:
    def test_result_cost_matches_plan(self, problem):
        graph, costs = problem
        result = RandomSearch(num_samples=100, seed=0).solve(DeploymentProblem(graph, costs))
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_LINK)
        )
        assert result.iterations == 100
        assert not result.optimal

    def test_deterministic_given_seed(self, problem):
        graph, costs = problem
        a = RandomSearch(num_samples=50, seed=7).solve(DeploymentProblem(graph, costs))
        b = RandomSearch(num_samples=50, seed=7).solve(DeploymentProblem(graph, costs))
        assert a.plan == b.plan
        assert a.cost == b.cost

    def test_more_samples_never_worse(self, problem):
        graph, costs = problem
        small = RandomSearch(num_samples=10, seed=3).solve(DeploymentProblem(graph, costs))
        large = RandomSearch(num_samples=500, seed=3).solve(DeploymentProblem(graph, costs))
        assert large.cost <= small.cost

    def test_trace_is_monotone_decreasing(self, problem):
        graph, costs = problem
        result = RandomSearch(num_samples=200, seed=1).solve(DeploymentProblem(graph, costs))
        costs_in_trace = [cost for _, cost in result.trace]
        assert costs_in_trace == sorted(costs_in_trace, reverse=True)

    def test_initial_plan_used_as_incumbent(self, problem):
        graph, costs = problem
        warm = RandomSearch(num_samples=2000, seed=9).solve(DeploymentProblem(graph, costs)).plan
        warm_cost = deployment_cost(warm, graph, costs, Objective.LONGEST_LINK)
        result = RandomSearch(num_samples=1, seed=0).solve(DeploymentProblem(graph, costs),
                                                           initial_plan=warm)
        assert result.cost <= warm_cost

    def test_longest_path_objective(self):
        graph = CommunicationGraph.aggregation_tree(2, 2)
        costs = deterministic_cost_matrix(8, seed=5)
        result = RandomSearch(num_samples=100, seed=0).solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH)
        )
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_PATH)
        )

    def test_iteration_budget_respected(self, problem):
        graph, costs = problem
        result = RandomSearch(num_samples=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget(max_iterations=25)
        )
        assert result.iterations == 25

    def test_time_budget_respected(self, problem):
        graph, costs = problem
        result = RandomSearch.r2(seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(0.2)
        )
        assert result.solve_time_s <= 1.0
        assert result.iterations > 0

    def test_unbounded_time_search_rejected(self, problem):
        graph, costs = problem
        with pytest.raises(ValueError):
            RandomSearch(num_samples=None).solve(DeploymentProblem(graph, costs),
                                                 budget=SearchBudget.unlimited())

    def test_target_cost_stops_early(self, problem):
        graph, costs = problem
        # A target equal to the max possible cost is met by the first plan.
        result = RandomSearch(num_samples=10_000, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget(target_cost=costs.max_cost())
        )
        assert result.iterations < 10_000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomSearch(num_samples=0)
        with pytest.raises(ValueError):
            RandomSearch(parallel_factor=0)

    def test_r1_r2_names(self):
        assert RandomSearch.r1().name == "R1"
        assert RandomSearch.r2().name == "R2"
