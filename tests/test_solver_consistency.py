"""Cross-solver consistency: every solver agrees on tiny, brute-forceable instances."""

import numpy as np
import pytest

from repro.core import (
    CommunicationGraph,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    compile_problem,
)
from repro.core.objectives import deployment_cost
from repro.solvers import (
    CPLongestLinkSolver,
    GreedyG1,
    GreedyG2,
    MIPLongestLinkSolver,
    MIPLongestPathSolver,
    PortfolioSolver,
    RandomSearch,
    SearchBudget,
    SimulatedAnnealing,
    SwapLocalSearch,
)

from repro.testing import brute_force_optimum, deterministic_cost_matrix


@pytest.fixture(scope="module")
def tiny_ll():
    graph = CommunicationGraph.ring(4)
    costs = deterministic_cost_matrix(6, seed=31)
    _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
    return graph, costs, optimum


@pytest.fixture(scope="module")
def tiny_lp():
    graph = CommunicationGraph.aggregation_tree(2, 1)  # 3 nodes
    costs = deterministic_cost_matrix(5, seed=32)
    _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_PATH)
    return graph, costs, optimum


class TestLongestLinkConsistency:
    def test_exact_solvers_reach_optimum(self, tiny_ll):
        graph, costs, optimum = tiny_ll
        cp = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(10)
        )
        mip = MIPLongestLinkSolver().solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(30)
        )
        assert cp.cost == pytest.approx(optimum, abs=1e-9)
        assert mip.cost == pytest.approx(optimum, abs=1e-6)

    def test_heuristics_never_beat_optimum(self, tiny_ll):
        graph, costs, optimum = tiny_ll
        solvers = [
            GreedyG1(),
            GreedyG2(),
            RandomSearch(num_samples=300, seed=0),
            SwapLocalSearch(seed=0),
            SimulatedAnnealing(seed=0),
            PortfolioSolver(seed=0),
        ]
        for solver in solvers:
            result = solver.solve(DeploymentProblem(graph, costs), budget=SearchBudget.seconds(1))
            assert result.cost >= optimum - 1e-9
            # All returned costs are consistent with their own plan.
            assert result.cost == pytest.approx(
                deployment_cost(result.plan, graph, costs, Objective.LONGEST_LINK)
            )

    def test_exhaustive_random_search_reaches_optimum(self, tiny_ll):
        """With 6 instances and 4 nodes there are only 360 plans."""
        graph, costs, optimum = tiny_ll
        result = RandomSearch(num_samples=5000, seed=1).solve(DeploymentProblem(graph, costs))
        assert result.cost == pytest.approx(optimum, abs=1e-9)


class TestLongestPathConsistency:
    def test_mip_reaches_optimum(self, tiny_lp):
        graph, costs, optimum = tiny_lp
        result = MIPLongestPathSolver().solve(
            DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(30)
        )
        assert result.cost == pytest.approx(optimum, abs=1e-6)

    def test_heuristics_never_beat_optimum(self, tiny_lp):
        graph, costs, optimum = tiny_lp
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH)
        for solver in (GreedyG2(), RandomSearch(num_samples=200, seed=2),
                       SwapLocalSearch(seed=1)):
            result = solver.solve(problem, budget=SearchBudget.seconds(1))
            assert result.cost >= optimum - 1e-9


class TestDeltaEvaluatorConsistency:
    """Every incremental move delta equals a full re-evaluation of the move."""

    CASES = [
        # (graph, num_instances): from single-edge up to meshes with slack.
        (CommunicationGraph.from_edges([(0, 1)]), 2),
        (CommunicationGraph.from_edges([(0, 1)]), 5),
        (CommunicationGraph.ring(5), 5),
        (CommunicationGraph.mesh_2d(2, 3), 9),
        (CommunicationGraph.aggregation_tree(2, 2), 10),
        (CommunicationGraph.star(4), 8),
    ]

    def _walk(self, graph, costs, objective, seed, moves=60):
        """Random move walk asserting peek == apply == oracle at every step."""
        problem = compile_problem(graph, costs)
        rng = np.random.default_rng(seed)
        plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
        evaluator = problem.delta_evaluator(plan, objective)
        assert evaluator.current_cost == deployment_cost(plan, graph, costs, objective)

        nodes = list(graph.nodes)
        for _ in range(moves):
            free = evaluator.free_instance_indices()
            if free.size and rng.random() < 0.5:
                node_idx = int(rng.integers(len(nodes)))
                inst_idx = int(free[int(rng.integers(free.size))])
                peeked = evaluator.relocate_cost(node_idx, inst_idx)
                plan = plan.with_relocation(nodes[node_idx],
                                            costs.instance_ids[inst_idx])
                applied = evaluator.apply_relocate(node_idx, inst_idx)
            else:
                a, b = rng.choice(len(nodes), size=2, replace=False)
                peeked = evaluator.swap_cost(int(a), int(b))
                plan = plan.with_swap(nodes[int(a)], nodes[int(b)])
                applied = evaluator.apply_swap(int(a), int(b))
            expected = deployment_cost(plan, graph, costs, objective)
            assert peeked == expected
            assert applied == expected
            assert evaluator.current_cost == expected
            assert evaluator.plan() == plan

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_longest_link_deltas_match_full_reeval(self, case, seed):
        graph, m = self.CASES[case]
        costs = deterministic_cost_matrix(m, seed=40 + seed, symmetric=False)
        self._walk(graph, costs, Objective.LONGEST_LINK, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_longest_path_deltas_match_full_reeval(self, seed):
        for graph, m in [
            (CommunicationGraph.from_edges([(0, 1)]), 4),
            (CommunicationGraph.aggregation_tree(2, 2), 10),
            (CommunicationGraph.random_dag(6, 0.5, seed=seed), 8),
        ]:
            costs = deterministic_cost_matrix(m, seed=50 + seed, symmetric=False)
            self._walk(graph, costs, Objective.LONGEST_PATH, seed, moves=40)

    def test_relocate_to_used_instance_rejected(self):
        graph = CommunicationGraph.ring(3)
        costs = deterministic_cost_matrix(5, seed=60)
        problem = compile_problem(graph, costs)
        plan = DeploymentPlan.identity(graph.nodes, costs.instance_ids)
        evaluator = problem.delta_evaluator(plan, Objective.LONGEST_LINK)
        from repro.core import InvalidDeploymentError
        with pytest.raises(InvalidDeploymentError):
            evaluator.relocate_cost(0, problem.instance_idx(plan.instance_for(1)))

    def test_relocate_to_unused_instance_single_edge(self):
        """Relocate on a single-edge graph: the whole cost is one link."""
        graph = CommunicationGraph.from_edges([(0, 1)])
        costs = deterministic_cost_matrix(4, seed=61, symmetric=False)
        problem = compile_problem(graph, costs)
        plan = DeploymentPlan({0: 0, 1: 1})
        evaluator = problem.delta_evaluator(plan, Objective.LONGEST_LINK)
        assert evaluator.current_cost == costs.cost(0, 1)
        # Move node 1 onto each free instance in turn and check the delta.
        for target in (2, 3):
            assert evaluator.relocate_cost(1, target) == costs.cost(0, target)
        evaluator.apply_relocate(1, 3)
        assert evaluator.current_cost == costs.cost(0, 3)
        assert evaluator.plan() == DeploymentPlan({0: 0, 1: 3})
