"""Tests for the solver portfolio."""

import pytest

from repro.core import DeploymentProblem, Objective
from repro.core.objectives import deployment_cost
from repro.solvers import (
    GreedyG1,
    GreedyG2,
    PortfolioSolver,
    RandomSearch,
    SearchBudget,
)

from conftest import deterministic_cost_matrix


class TestPortfolioSolver:
    def test_default_portfolio_longest_link(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=21)
        result = PortfolioSolver(seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(3)
        )
        assert result.plan.covers(mesh_graph)
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, mesh_graph, costs, Objective.LONGEST_LINK)
        )

    def test_default_portfolio_longest_path(self, tree_graph):
        costs = deterministic_cost_matrix(9, seed=22)
        result = PortfolioSolver(seed=0).solve(
            DeploymentProblem(tree_graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(3),
        )
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, tree_graph, costs, Objective.LONGEST_PATH)
        )

    def test_default_portfolio_skips_the_mip_above_its_ceiling(
            self, oversized_dag_problem, monkeypatch):
        from repro.solvers.mip.deployment import MipDeploymentSolver

        def refuse(*args, **kwargs):
            raise AssertionError("the MIP ran above its node ceiling")

        monkeypatch.setattr(MipDeploymentSolver, "_solve", refuse)
        result = PortfolioSolver(seed=0).solve(
            oversized_dag_problem, budget=SearchBudget.seconds(2))
        assert result.cost == oversized_dag_problem.evaluate(result.plan)

    def test_never_worse_than_members_alone(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=23)
        members = [GreedyG1(), GreedyG2(), RandomSearch(num_samples=100, seed=0)]
        portfolio = PortfolioSolver(solvers=members, seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(2)
        )
        individual_costs = [
            member.solve(DeploymentProblem(mesh_graph, costs)).cost
            for member in [GreedyG1(), GreedyG2(), RandomSearch(num_samples=100, seed=0)]
        ]
        assert portfolio.cost <= min(individual_costs) + 1e-9

    def test_merged_trace_monotone(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=24)
        result = PortfolioSolver(seed=1).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(2)
        )
        trace_costs = [cost for _, cost in result.trace]
        assert trace_costs == sorted(trace_costs, reverse=True)

    def test_invalid_exact_fraction(self):
        with pytest.raises(ValueError):
            PortfolioSolver(exact_fraction=1.5)

    def test_custom_members_used(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=25)
        members = [RandomSearch(num_samples=10, seed=0)]
        result = PortfolioSolver(solvers=members, seed=0).solve(
            DeploymentProblem(mesh_graph, costs), budget=SearchBudget.seconds(1)
        )
        assert result.plan.covers(mesh_graph)
        assert result.iterations >= 10
