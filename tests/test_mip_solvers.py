"""Tests for the LLNDP and LPNDP MIP encodings and solvers."""

import pytest

from repro.core import CommunicationGraph, DeploymentPlan, DeploymentProblem, Objective
from repro.core.objectives import deployment_cost, longest_link_cost, longest_path_cost
from repro.core.errors import InvalidGraphError
from repro.solvers import (
    MIPLongestLinkSolver,
    MIPLongestPathSolver,
    RandomSearch,
    SearchBudget,
)
from repro.solvers.mip.llndp_mip import LLNDPEncoding
from repro.solvers.mip.lpndp_mip import LPNDPEncoding
from repro.solvers.mip.scipy_backend import solve_milp

from conftest import brute_force_optimum, deterministic_cost_matrix


@pytest.fixture
def tiny_ll_problem():
    graph = CommunicationGraph.ring(4)
    costs = deterministic_cost_matrix(5, seed=11)
    return graph, costs


@pytest.fixture
def tiny_lp_problem():
    graph = CommunicationGraph.aggregation_tree(2, 2)  # 7 nodes
    costs = deterministic_cost_matrix(8, seed=12)
    return graph, costs


class TestLLNDPEncoding:
    def test_model_dimensions(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        encoding = LLNDPEncoding(graph, costs)
        # |S| padded nodes * |S| instances binaries + the objective variable.
        assert encoding.model.num_variables == 5 * 5 + 1
        # Assignment constraints: 2 * |S|.
        assignment_constraints = 2 * 5
        link_constraints = graph.num_edges * 5 * 4
        assert encoding.model.num_constraints == assignment_constraints + link_constraints

    def test_solution_vector_is_feasible(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        encoding = LLNDPEncoding(graph, costs)
        assignment = {node: index for index, node in enumerate(encoding.nodes)}
        vector = encoding.solution_vector(assignment)
        assert encoding.model.is_feasible(vector)

    def test_solution_vector_objective_matches_longest_link(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        encoding = LLNDPEncoding(graph, costs)
        assignment = {node: index for index, node in enumerate(encoding.nodes)}
        vector = encoding.solution_vector(assignment)
        plan = DeploymentPlan({
            node: costs.instance_ids[assignment[node]] for node in graph.nodes
        })
        assert encoding.model.evaluate_objective(vector) == pytest.approx(
            longest_link_cost(plan, graph, costs)
        )

    def test_decode_roundtrip(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        encoding = LLNDPEncoding(graph, costs)
        assignment = {node: index for index, node in enumerate(encoding.nodes)}
        plan = encoding.decode(encoding.solution_vector(assignment))
        assert plan.covers(graph)
        for node in graph.nodes:
            assert plan.instance_for(node) == costs.instance_ids[assignment[node]]

    def test_milp_backend_reaches_optimum(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        encoding = LLNDPEncoding(graph, costs)
        solution = solve_milp(encoding.model, time_limit_s=30.0)
        assert solution.feasible
        assert solution.objective_value == pytest.approx(optimum, abs=1e-6)


class TestMIPLongestLinkSolver:
    def test_bnb_produces_valid_plan(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        result = MIPLongestLinkSolver(backend="bnb").solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(10)
        )
        assert result.plan.covers(graph)
        assert result.cost == pytest.approx(
            longest_link_cost(result.plan, graph, costs)
        )

    def test_milp_backend_matches_brute_force(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        result = MIPLongestLinkSolver(backend="milp").solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(30)
        )
        assert result.cost == pytest.approx(optimum, abs=1e-6)

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            MIPLongestLinkSolver(backend="cplex")

    def test_rejects_longest_path_objective(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        from repro.core.errors import SolverError

        with pytest.raises(SolverError):
            MIPLongestLinkSolver().solve(
                DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH))


class TestLPNDPEncoding:
    def test_rejects_cyclic_graph(self):
        graph = CommunicationGraph([0, 1], [(0, 1), (1, 0)])
        costs = deterministic_cost_matrix(3, seed=13)
        with pytest.raises(InvalidGraphError):
            LPNDPEncoding(graph, costs)

    def test_solution_vector_is_feasible(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        encoding = LPNDPEncoding(graph, costs)
        assignment = {node: index for index, node in enumerate(encoding.nodes)}
        vector = encoding.solution_vector(assignment)
        assert encoding.model.is_feasible(vector)

    def test_solution_vector_objective_matches_longest_path(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        encoding = LPNDPEncoding(graph, costs)
        assignment = {node: index for index, node in enumerate(encoding.nodes)}
        vector = encoding.solution_vector(assignment)
        plan = DeploymentPlan({
            node: costs.instance_ids[assignment[node]] for node in graph.nodes
        })
        assert encoding.model.evaluate_objective(vector) == pytest.approx(
            longest_path_cost(plan, graph, costs)
        )

    def test_milp_backend_reaches_optimum_on_tiny_tree(self):
        graph = CommunicationGraph.aggregation_tree(2, 1)  # 3 nodes
        costs = deterministic_cost_matrix(4, seed=14)
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_PATH)
        encoding = LPNDPEncoding(graph, costs)
        solution = solve_milp(encoding.model, time_limit_s=30.0)
        assert solution.feasible
        assert solution.objective_value == pytest.approx(optimum, abs=1e-6)


class TestMIPLongestPathSolver:
    def test_bnb_produces_valid_plan(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        result = MIPLongestPathSolver(backend="bnb").solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(10)
        )
        assert result.plan.covers(graph)
        assert result.cost == pytest.approx(
            longest_path_cost(result.plan, graph, costs)
        )

    def test_milp_backend_matches_brute_force(self):
        graph = CommunicationGraph.aggregation_tree(2, 1)
        costs = deterministic_cost_matrix(4, seed=15)
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_PATH)
        result = MIPLongestPathSolver(backend="milp").solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(30)
        )
        assert result.cost == pytest.approx(optimum, abs=1e-6)

    def test_warm_start_never_hurts(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH)
        warm = RandomSearch(num_samples=500, seed=0).solve(problem)
        result = MIPLongestPathSolver(backend="bnb").solve(
            problem, budget=SearchBudget.seconds(5), initial_plan=warm.plan
        )
        assert result.cost <= warm.cost + 1e-9 or result.cost == pytest.approx(
            deployment_cost(result.plan, graph, costs, Objective.LONGEST_PATH)
        )

    def test_rejects_longest_link_objective(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        from repro.core.errors import SolverError

        with pytest.raises(SolverError):
            MIPLongestPathSolver().solve(
                DeploymentProblem(graph, costs, objective=Objective.LONGEST_LINK))
