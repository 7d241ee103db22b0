"""Tests for the greedy deployment algorithms G1 and G2."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import InfeasibleProblemError
from repro.core.objectives import deployment_cost, longest_link_cost
from repro.solvers import GreedyG1, GreedyG2, RandomSearch
from repro.solvers import greedy

from conftest import deterministic_cost_matrix


@pytest.fixture
def clustered_costs():
    """Cost matrix with a clearly cheap subset of instances.

    Instances 0..8 form a 'good rack' with cheap pairwise links; instances
    9..13 are far away.  A sensible greedy algorithm should confine a 9-node
    graph to the cheap subset.
    """
    n = 14
    matrix = np.full((n, n), 5.0)
    cheap = range(9)
    for a in cheap:
        for b in cheap:
            matrix[a, b] = 0.5
    rng = np.random.default_rng(0)
    matrix += rng.uniform(0.0, 0.05, size=(n, n))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    return CostMatrix(list(range(n)), matrix)


class TestGreedyG1:
    def test_produces_valid_plan(self, mesh_graph):
        costs = deterministic_cost_matrix(11, seed=1)
        result = GreedyG1().solve(DeploymentProblem(mesh_graph, costs))
        assert result.plan.covers(mesh_graph)
        assert result.cost == pytest.approx(
            longest_link_cost(result.plan, mesh_graph, costs)
        )

    def test_avoids_expensive_cluster(self, mesh_graph, clustered_costs):
        result = GreedyG1().solve(DeploymentProblem(mesh_graph, clustered_costs))
        # G1 should keep the whole mesh inside the cheap subset.
        assert set(result.plan.used_instances()) <= set(range(9))
        assert result.cost < 1.0

    def test_handles_disconnected_graph(self):
        graph = CommunicationGraph([0, 1, 2, 3], [(0, 1), (1, 0), (2, 3), (3, 2)])
        costs = deterministic_cost_matrix(6, seed=2)
        result = GreedyG1().solve(DeploymentProblem(graph, costs))
        assert result.plan.covers(graph)

    def test_handles_isolated_nodes(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 0)])
        costs = deterministic_cost_matrix(5, seed=3)
        result = GreedyG1().solve(DeploymentProblem(graph, costs))
        assert result.plan.covers(graph)

    def test_single_edge_graph_picks_cheapest_link(self):
        graph = CommunicationGraph([0, 1], [(0, 1), (1, 0)])
        costs = deterministic_cost_matrix(6, seed=4)
        result = GreedyG1().solve(DeploymentProblem(graph, costs))
        cheapest = min(
            max(costs.cost(a, b), costs.cost(b, a))
            for a in costs.instance_ids for b in costs.instance_ids if a != b
        )
        assert result.cost == pytest.approx(cheapest, rel=0.5)


class TestGreedyG2:
    def test_produces_valid_plan(self, mesh_graph):
        costs = deterministic_cost_matrix(11, seed=1)
        result = GreedyG2().solve(DeploymentProblem(mesh_graph, costs))
        assert result.plan.covers(mesh_graph)
        assert result.cost == pytest.approx(
            longest_link_cost(result.plan, mesh_graph, costs)
        )

    def test_not_worse_than_g1_on_average(self, mesh_graph):
        """G2 accounts for implicit links, so on average it beats G1 (Fig. 14)."""
        g1_costs, g2_costs = [], []
        for seed in range(8):
            costs = deterministic_cost_matrix(12, seed=seed)
            g1_costs.append(GreedyG1().solve(DeploymentProblem(mesh_graph, costs)).cost)
            g2_costs.append(GreedyG2().solve(DeploymentProblem(mesh_graph, costs)).cost)
        assert np.mean(g2_costs) <= np.mean(g1_costs)

    def test_avoids_expensive_cluster(self, mesh_graph, clustered_costs):
        result = GreedyG2().solve(DeploymentProblem(mesh_graph, clustered_costs))
        assert set(result.plan.used_instances()) <= set(range(9))

    def test_longest_path_heuristic_use(self):
        """Sect. 4.5.2: the greedy LL construction is reused for LPNDP."""
        tree = CommunicationGraph.aggregation_tree(2, 2)
        costs = deterministic_cost_matrix(9, seed=6)
        result = GreedyG2().solve(
            DeploymentProblem(tree, costs, objective=Objective.LONGEST_PATH))
        assert result.plan.covers(tree)
        assert result.cost == pytest.approx(
            deployment_cost(result.plan, tree, costs, Objective.LONGEST_PATH)
        )

    def test_comparable_to_random_baseline(self, mesh_graph):
        """G2 should be in the same ballpark as a 1000-plan random search."""
        wins = 0
        for seed in range(5):
            costs = deterministic_cost_matrix(12, seed=10 + seed)
            problem = DeploymentProblem(mesh_graph, costs)
            g2 = GreedyG2().solve(problem).cost
            r1 = RandomSearch(num_samples=1000, seed=seed).solve(problem).cost
            if g2 <= r1 * 1.5:
                wins += 1
        assert wins >= 3


class TestGreedyWarmStart:
    """Warm-start semantics: the incumbent cost is an upper bound on the
    result — a drift re-solve through greedy never regresses past the plan
    already deployed."""

    def test_better_incumbent_is_returned(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=40)
        problem = DeploymentProblem(mesh_graph, costs)
        for solver_class in (GreedyG1, GreedyG2):
            cold = solver_class().solve(problem)
            # A long random search usually beats greedy; if not, nudge the
            # assertion by using whichever plan is strictly better.
            other = RandomSearch(num_samples=2000, seed=41).solve(problem)
            better, worse = sorted((cold, other), key=lambda r: r.cost)
            if better.cost == worse.cost:
                continue
            warm = solver_class().solve(problem, initial_plan=better.plan)
            assert warm.cost == better.cost
            assert warm.plan.as_dict() == better.plan.as_dict()

    def test_worse_incumbent_does_not_change_the_construction(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=42)
        problem = DeploymentProblem(mesh_graph, costs)
        for solver_class in (GreedyG1, GreedyG2):
            cold = solver_class().solve(problem)
            worse = CostMatrix(list(costs.instance_ids), costs.as_array())
            bad_plan = DeploymentPlan({
                node: instance for node, instance in zip(
                    mesh_graph.nodes, worse.instance_ids[::-1])
            })
            bad_cost = problem.evaluate(bad_plan)
            if bad_cost <= cold.cost:
                continue
            warm = solver_class().solve(problem, initial_plan=bad_plan)
            assert warm.cost == cold.cost
            assert warm.plan.as_dict() == cold.plan.as_dict()

    def test_violating_incumbent_is_repaired_before_bounding(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=43)
        constraints = PlacementConstraints(pinned={mesh_graph.nodes[0]: 5})
        problem = DeploymentProblem(mesh_graph, costs,
                                    constraints=constraints)
        violating = DeploymentPlan({
            node: instance for node, instance in zip(
                mesh_graph.nodes, costs.instance_ids)
        })
        assert not constraints.satisfied_by(violating)
        for solver_class in (GreedyG1, GreedyG2):
            result = solver_class().solve(problem, initial_plan=violating)
            problem.check_plan(result.plan)

    def test_declares_warm_start_capability(self):
        assert GreedyG1.supports_warm_start
        assert GreedyG2.supports_warm_start


@st.composite
def greedy_problems(draw):
    """Small problems with tied integer costs, non-contiguous instance ids,
    arbitrary directed edges (possibly disconnected) and, sometimes, a pin
    and a forbidden instance."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = n + draw(st.integers(min_value=0, max_value=3))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pair.filter(lambda e: e[0] != e[1]),
                         max_size=3 * n))
    ids = draw(st.lists(st.integers(0, 10 * m), min_size=m, max_size=m,
                        unique=True))
    values = draw(st.lists(st.integers(1, 3), min_size=m * m,
                           max_size=m * m))
    costs = CostMatrix(ids, np.array(values, dtype=float).reshape(m, m))
    constraints = None
    if draw(st.booleans()):
        pinned, banned = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                       max_size=2, unique=True))
        constraints = PlacementConstraints(
            pinned={pinned: draw(st.sampled_from(ids))},
            forbidden={banned: {draw(st.sampled_from(ids))}})
    try:
        return DeploymentProblem(CommunicationGraph(range(n), edges), costs,
                                 constraints=constraints)
    except InfeasibleProblemError:
        assume(False)


def assert_state_invariants(state):
    """The incrementally kept state equals a from-scratch recomputation."""
    graph, problem = state.graph, state.problem
    rescan = [instance for instance, node in state.instance_to_node.items()
              if any(y in state.unmapped_nodes for y in graph.neighbors(node))]
    assert state.frontier_instances() == rescan
    assert state.unused_indices().tolist() == [
        problem.instance_idx(v) for v in state.unused_instances]
    if state.floor is None:
        return
    cost = problem.cost_array
    for w in state.unmapped_nodes:
        expected = np.full(problem.num_instances, -np.inf)
        if state.implicit:
            for x in graph.successors(w):  # edge w -> x costs CL(v, x's)
                if x in state.node_to_instance:
                    expected = np.maximum(expected, cost[:, problem.instance_idx(
                        state.node_to_instance[x])])
            for x in graph.predecessors(w):  # edge x -> w costs CL(x's, v)
                if x in state.node_to_instance:
                    expected = np.maximum(expected, cost[problem.instance_idx(
                        state.node_to_instance[x])])
        if state.view is not None:
            expected[~state.view.allowed_mask[problem.node_idx(w)]] = np.inf
        assert np.array_equal(state.floor[problem.node_idx(w)], expected)


class _CheckedState(greedy._GreedyState):
    def assign(self, node, instance):
        super().assign(node, instance)
        assert_state_invariants(self)


class TestGreedyStateInvariants:
    """The frontier, free-instance order and floor table kept at ``assign``
    time match a full rescan after every assignment of a real construction."""

    @settings(max_examples=80, deadline=None)
    @given(problem=greedy_problems())
    def test_incremental_state_matches_rescan(self, problem):
        with mock.patch.object(greedy, "_GreedyState", _CheckedState):
            for solver_class in (GreedyG1, GreedyG2):
                result = solver_class().solve(problem)
                problem.check_plan(result.plan)
