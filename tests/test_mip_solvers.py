"""Tests for the LLNDP and LPNDP MIP encodings and solvers.

Every MIP is solved by SciPy's HiGHS ``milp``; tiny instances are checked
against exhaustive enumeration (``repro.testing.brute_force_optimum``) and
every returned cost is re-scored by the pure-Python objective.
"""

from itertools import permutations

import numpy as np
import pytest
from scipy import sparse

from repro.core import (
    CommunicationGraph,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.objectives import deployment_cost
from repro.core.errors import InvalidGraphError
from repro.solvers import (
    MIPLongestLinkSolver,
    MIPLongestPathSolver,
    RandomSearch,
    SearchBudget,
)
from repro.solvers.mip import (
    MipArrays,
    MipSolution,
    decode_plan,
    encode_mip,
    solve_milp,
)

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


class TestScipyBackend:
    @staticmethod
    def knapsack(capacity_row_lower=-np.inf):
        """max 3a + 4b + 2c s.t. 2a + 3b + c <= 4, as a minimisation."""
        return MipArrays(
            objective=np.array([-3.0, -4.0, -2.0]), integrality=np.ones(3),
            lower=np.zeros(3), upper=np.ones(3),
            matrix=sparse.csr_matrix(np.array([[2.0, 3.0, 1.0]])),
            row_lower=np.array([capacity_row_lower]), row_upper=np.array([4.0]))

    def test_milp_solves_knapsack(self):
        solution = solve_milp(self.knapsack())
        assert solution.optimal
        # b + c fills the capacity exactly and is worth 6.
        assert solution.objective_value == pytest.approx(-6.0)
        assert np.allclose(solution.values, [0.0, 1.0, 1.0])

    def test_milp_infeasible_model(self):
        solution = solve_milp(self.knapsack(capacity_row_lower=7.0))
        assert not solution.feasible
        assert not solution.optimal
        assert solution.status == "infeasible"


class TestLLNDPEncoding:
    def test_model_dimensions(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_LINK)
        # |S| padded nodes * |S| instances binaries + the objective variable.
        assert arrays.objective.shape == (5 * 5 + 1,)
        assert arrays.integrality.sum() == 5 * 5
        # Assignment constraints: 2 * |S|.
        assignment_constraints = 2 * 5
        link_constraints = graph.num_edges * 5 * 4
        assert arrays.matrix.shape == (
            assignment_constraints + link_constraints, 5 * 5 + 1)
        assert arrays.row_lower.shape == arrays.row_upper.shape == (
            assignment_constraints + link_constraints,)

    def test_decode_roundtrip(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_LINK)
        assignment = [(row + 2) % 5 for row in range(5)]
        values = np.zeros(arrays.objective.shape)
        for row, j in enumerate(assignment):
            values[row * 5 + j] = 1.0
        plan = decode_plan(arrays, values, graph.nodes, costs.instance_ids)
        assert plan.covers(graph)
        for row, node in enumerate(graph.nodes):
            assert plan.instance_for(node) == costs.instance_ids[assignment[row]]

    def test_placements_become_bounds(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        mask = np.ones((4, 5), dtype=bool)
        mask[0] = [False, False, True, False, False]  # node 0 pinned to 2
        mask[1, [0, 4]] = False
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_LINK,
                            allowed_mask=mask)
        lower = arrays.lower[:25].reshape(5, 5)
        upper = arrays.upper[:25].reshape(5, 5)
        assert np.array_equal(upper[:4], mask.astype(float))
        # The dummy row may not take the pinned instance.
        assert np.array_equal(upper[4], [1.0, 1.0, 0.0, 1.0, 1.0])
        assert np.argwhere(lower).tolist() == [[0, 2]]
        # A solution vector that prefers the forbidden cells still decodes
        # to an allowed plan.
        values = np.zeros(arrays.objective.shape)
        values[1 * 5 + 0] = values[4 * 5 + 2] = 1.0
        plan = decode_plan(arrays, values, graph.nodes, costs.instance_ids)
        assert plan.instance_for(0) == 2
        assert plan.instance_for(1) not in (0, 4)

    def test_milp_backend_reaches_optimum(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_LINK)
        solution = solve_milp(arrays, time_limit_s=30.0)
        assert solution.feasible
        assert solution.objective_value == pytest.approx(optimum, abs=1e-6)


class TestMIPLongestLinkSolver:
    def test_matches_brute_force(self, tiny_ll_problem):
        graph, costs = tiny_ll_problem
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        result = MIPLongestLinkSolver().solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(30)
        )
        assert result.cost == pytest.approx(optimum, abs=1e-6)

    @pytest.mark.parametrize("solver_cls", [MIPLongestLinkSolver,
                                            MIPLongestPathSolver])
    def test_backend_is_refused(self, solver_cls):
        with pytest.raises(TypeError):
            solver_cls(backend="bnb")

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
            encode_mip(graph, costs.as_array(), Objective.LONGEST_PATH)

    def test_model_dimensions(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_PATH)
        n, m, e = graph.num_nodes, 8, graph.num_edges
        # x block, one c_e per edge, one t_i per node, and t.
        assert arrays.objective.shape == (m * m + e + n + 1,)
        assert arrays.objective[-1] == 1.0 and arrays.objective.sum() == 1.0
        # Assignment rows, link rows, path rows and t rows.
        assert arrays.matrix.shape[0] == 2 * m + e * m * (m - 1) + e + n

    def test_milp_backend_reaches_optimum_on_tiny_tree(self):
        graph = CommunicationGraph.aggregation_tree(2, 1)  # 3 nodes
        costs = deterministic_cost_matrix(4, seed=14)
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_PATH)
        arrays = encode_mip(graph, costs.as_array(), Objective.LONGEST_PATH)
        solution = solve_milp(arrays, time_limit_s=30.0)
        assert solution.feasible
        assert solution.objective_value == pytest.approx(optimum, abs=1e-6)


class TestMIPLongestPathSolver:
    def test_matches_brute_force(self):
        graph = CommunicationGraph.aggregation_tree(2, 1)
        costs = deterministic_cost_matrix(4, seed=15)
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_PATH)
        result = MIPLongestPathSolver().solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(30)
        )
        assert result.cost == pytest.approx(optimum, abs=1e-6)

    def test_warm_start_never_hurts(self, tiny_lp_problem):
        graph, costs = tiny_lp_problem
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH)
        warm = RandomSearch(num_samples=500, seed=0).solve(problem)
        result = MIPLongestPathSolver().solve(
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


def _constrained_optimum(problem):
    """Exhaustive optimum over the plans that satisfy the constraints."""
    graph, costs = problem.graph, problem.costs
    best = float("inf")
    for assignment in permutations(costs.instance_ids, graph.num_nodes):
        plan = DeploymentPlan(dict(zip(graph.nodes, assignment)))
        if problem.constraints.satisfied_by(plan):
            best = min(best, deployment_cost(plan, graph, costs,
                                             problem.objective))
    return best


#: Tiny instances per registry key: graph, instance count, and the pin plus
#: forbidden sets of the constrained variant (chosen so that they raise the
#: optimum on every seed below).
TINY = {
    "mip-ll": (Objective.LONGEST_LINK, CommunicationGraph.ring(4), 6,
               PlacementConstraints(pinned={0: 2}, forbidden={1: {4, 5},
                                                              2: {3}})),
    "mip": (Objective.LONGEST_PATH,
            CommunicationGraph([0, 1, 2, 3], [(0, 2), (1, 2), (2, 3)]), 6,
            PlacementConstraints(pinned={2: 3}, forbidden={0: {0, 1},
                                                           3: {4}})),
}


class TestBruteForceOptimality:
    """Default-config MIP solves reach the exhaustive optimum."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["unconstrained", "constrained"])
    @pytest.mark.parametrize("key", sorted(TINY))
    def test_reaches_brute_force_optimum(self, key, constrained, seed):
        from repro.solvers.registry import default_registry

        objective, graph, m, constraints = TINY[key]
        costs = deterministic_cost_matrix(m, seed=100 + seed,
                                          symmetric=False)
        problem = DeploymentProblem(
            graph, costs, objective=objective,
            constraints=constraints if constrained else None)
        _, optimum = brute_force_optimum(graph, costs, objective)
        if constrained:
            unconstrained_optimum = optimum
            optimum = _constrained_optimum(problem)
            assert optimum > unconstrained_optimum

        result = default_registry.make(key).solve(
            problem, budget=SearchBudget.seconds(30))

        assert result.optimal
        assert result.cost == deployment_cost(result.plan, graph, costs,
                                              objective)
        # HiGHS stops at its default relative gap of 1e-4.
        assert result.cost == pytest.approx(optimum, rel=1e-4, abs=1e-12)
        assert result.cost >= optimum - 1e-12
        if constrained:
            assert constraints.satisfied_by(result.plan)


class TestNodeLimit:
    @pytest.mark.parametrize("key", ["mip", "mip-ll"])
    def test_node_limited_solves_are_deterministic_and_bounded(self, key):
        from repro.solvers.registry import default_registry

        objective = Objective.LONGEST_PATH if key == "mip" \
            else Objective.LONGEST_LINK
        graph = CommunicationGraph.aggregation_tree(2, 2) if key == "mip" \
            else CommunicationGraph.mesh_2d(2, 3)
        problem = DeploymentProblem(graph, deterministic_cost_matrix(9, seed=21),
                                    objective=objective)
        budget = SearchBudget(max_iterations=20)
        first = default_registry.make(key, seed=4).solve(problem,
                                                         budget=budget)
        second = default_registry.make(key, seed=4).solve(problem,
                                                          budget=budget)
        assert first.plan == second.plan
        assert first.cost == second.cost
        assert first.iterations == second.iterations
        assert first.iterations <= 20

    def test_budget_iterations_override_the_node_limit(self):
        graph = CommunicationGraph.aggregation_tree(2, 2)
        problem = DeploymentProblem(graph, deterministic_cost_matrix(9, seed=21),
                                    objective=Objective.LONGEST_PATH)
        limited = MIPLongestPathSolver(node_limit=1000).solve(
            problem, budget=SearchBudget(max_iterations=3))
        assert limited.iterations <= 3
        assert not limited.optimal
        config_limited = MIPLongestPathSolver(node_limit=3).solve(
            problem, budget=SearchBudget.seconds(30))
        assert config_limited.iterations <= 3
        assert config_limited.plan == limited.plan


class TestTimeLimit:
    """HiGHS gets what the budget has left once the model is built."""

    @staticmethod
    def _limits_passed(monkeypatch, budget):
        from repro.solvers.mip import deployment

        seen = []

        def recording(arrays, time_limit_s=None, node_limit=None):
            seen.append(time_limit_s)
            return solve_milp(arrays, time_limit_s=time_limit_s,
                              node_limit=node_limit)

        monkeypatch.setattr(deployment, "solve_milp", recording)
        problem = DeploymentProblem(
            CommunicationGraph.aggregation_tree(2, 2),
            deterministic_cost_matrix(8, seed=12),
            objective=Objective.LONGEST_PATH)
        result = MIPLongestPathSolver(seed=3).solve(problem, budget=budget)
        assert result.cost == problem.evaluate(result.plan)
        return seen, result

    def test_timed_budget_passes_the_time_left(self, monkeypatch):
        seen, _ = self._limits_passed(
            monkeypatch, SearchBudget(time_limit_s=30.0, max_iterations=20))
        assert len(seen) == 1
        assert 0.0 <= seen[0] < 30.0

    def test_iterations_only_budget_passes_no_time_limit(self, monkeypatch):
        seen, _ = self._limits_passed(monkeypatch,
                                      SearchBudget(max_iterations=20))
        assert seen == [None]

    def test_spent_budget_falls_back_to_the_warm_start(self, monkeypatch):
        seen, result = self._limits_passed(monkeypatch,
                                           SearchBudget.seconds(0.0))
        assert seen == [0.0]
        assert not result.optimal

    def test_paper_scale_build_leaves_highs_most_of_the_budget(self,
                                                               monkeypatch):
        """A 63-node tree over 70 instances (~300k link rows) builds fast.

        The solve is recorded, not run: HiGHS would take the whole second.
        """
        from repro.solvers.mip import deployment

        seen = []

        def recording(arrays, time_limit_s=None, node_limit=None):
            seen.append(time_limit_s)
            return MipSolution(status="milp-status-1", objective_value=None,
                               values=None, optimal=False, solve_time_s=0.0)

        monkeypatch.setattr(deployment, "solve_milp", recording)
        problem = DeploymentProblem(
            CommunicationGraph.aggregation_tree(2, 5),
            deterministic_cost_matrix(70, seed=1),
            objective=Objective.LONGEST_PATH)
        result = MIPLongestPathSolver(seed=1).solve(
            problem, budget=SearchBudget.seconds(1.0))
        assert len(seen) == 1
        assert seen[0] > 0.5
        assert not result.optimal
        assert result.cost == problem.evaluate(result.plan)
