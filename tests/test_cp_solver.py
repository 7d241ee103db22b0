"""Tests for the iterative CP longest-link solver."""

import pytest

from repro.core import CommunicationGraph, DeploymentProblem, Objective
from repro.core.objectives import longest_link_cost
from repro.solvers import CPLongestLinkSolver, GreedyG2, RandomSearch, SearchBudget

from conftest import brute_force_optimum, deterministic_cost_matrix


class TestCPLongestLinkSolver:
    def test_matches_brute_force_on_tiny_instance(self):
        graph = CommunicationGraph.ring(4)
        costs = deterministic_cost_matrix(6, seed=1)
        _, optimal_cost = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        result = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(10)
        )
        assert result.cost == pytest.approx(optimal_cost, abs=1e-9)
        assert result.optimal

    def test_matches_brute_force_on_mesh(self):
        graph = CommunicationGraph.mesh_2d(2, 3)
        costs = deterministic_cost_matrix(7, seed=2)
        _, optimal_cost = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        result = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(20)
        )
        assert result.cost == pytest.approx(optimal_cost, abs=1e-9)

    def test_cost_matches_plan(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=3)
        result = CPLongestLinkSolver(seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(5)
        )
        assert result.cost == pytest.approx(
            longest_link_cost(result.plan, mesh_graph, costs)
        )

    def test_beats_random_and_greedy(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=4)
        problem = DeploymentProblem(mesh_graph, costs)
        cp = CPLongestLinkSolver(seed=0).solve(problem,
                                               budget=SearchBudget.seconds(5))
        random_result = RandomSearch(num_samples=500, seed=0).solve(problem)
        greedy_result = GreedyG2().solve(problem)
        assert cp.cost <= random_result.cost + 1e-9
        assert cp.cost <= greedy_result.cost + 1e-9

    def test_clustering_speeds_convergence_but_bounds_quality(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=5)
        exact = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(10)
        )
        clustered = CPLongestLinkSolver(k_clusters=5, seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(10)
        )
        # Coarse clustering needs no more threshold iterations than the exact
        # run and cannot find a better deployment than the true optimum.
        assert clustered.iterations <= exact.iterations
        assert clustered.cost >= exact.cost - 1e-9

    def test_trace_is_monotone(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=6)
        result = CPLongestLinkSolver(seed=0).solve(DeploymentProblem(mesh_graph, costs),
                                                   budget=SearchBudget.seconds(5))
        trace_costs = [cost for _, cost in result.trace]
        assert trace_costs == sorted(trace_costs, reverse=True)
        assert trace_costs[-1] == pytest.approx(result.cost)

    def test_warm_start_respected(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=7)
        problem = DeploymentProblem(mesh_graph, costs)
        warm = GreedyG2().solve(problem)
        result = CPLongestLinkSolver(seed=0).solve(
            problem, budget=SearchBudget.seconds(5), initial_plan=warm.plan
        )
        assert result.cost <= warm.cost + 1e-9

    def test_tight_budget_still_returns_plan(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=8)
        result = CPLongestLinkSolver(seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(0.01)
        )
        assert result.plan.covers(mesh_graph)
        assert not result.optimal

    def test_invalid_k_clusters(self):
        with pytest.raises(ValueError):
            CPLongestLinkSolver(k_clusters=1)

    def test_equal_nodes_and_instances(self):
        """No over-allocation: the solver must still find a permutation."""
        graph = CommunicationGraph.mesh_2d(2, 3)
        costs = deterministic_cost_matrix(6, seed=9)
        result = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(10)
        )
        _, optimal_cost = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        assert result.cost == pytest.approx(optimal_cost, abs=1e-9)
