"""The vectorized evaluation engine agrees with the pure-Python oracle.

``repro.core.objectives`` stays the reference implementation; every path
through ``repro.core.evaluation`` (single plan, batch, incremental deltas)
must produce exactly the same costs.  Randomized cases are generated with
both plain seeds and hypothesis strategies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CompiledProblem,
    DeploymentPlan,
    InvalidDeploymentError,
    InvalidGraphError,
    Objective,
    compile_problem,
    deployment_cost,
)
from repro.testing import deterministic_cost_matrix


def random_problem(seed: int, objective: Objective, min_nodes: int = 2,
                   max_nodes: int = 12, extra_instances: int = 4):
    """A random (graph, costs) pair suitable for the given objective."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes + 1))
    m = n + int(rng.integers(0, extra_instances + 1))
    costs = deterministic_cost_matrix(m, seed=seed + 1, symmetric=False)
    if objective is Objective.LONGEST_PATH:
        graph = CommunicationGraph.random_dag(n, 0.5, seed=seed + 2)
    else:
        graph = CommunicationGraph.random_graph(n, 0.4, seed=seed + 2)
    return graph, costs


class TestCompiledProblem:
    def test_index_roundtrip(self):
        graph = CommunicationGraph.mesh_2d(2, 3)
        costs = deterministic_cost_matrix(8, seed=3)
        problem = compile_problem(graph, costs)
        plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=0)
        assignment = problem.index_plan(plan)
        assert problem.plan_from_assignment(assignment) == plan

    def test_compile_problem_builds_a_new_engine_per_call(self):
        graph = CommunicationGraph.ring(4)
        costs = deterministic_cost_matrix(6, seed=4)
        first, second = compile_problem(graph, costs), \
            compile_problem(graph, costs)
        assert first is not second
        assert np.array_equal(first.cost_array, second.cost_array)

    def test_incomplete_plan_rejected(self):
        graph = CommunicationGraph.ring(4)
        costs = deterministic_cost_matrix(6, seed=5)
        problem = compile_problem(graph, costs)
        partial = DeploymentPlan({0: 0, 1: 1})
        with pytest.raises(InvalidDeploymentError):
            problem.index_plan(partial)

    def test_longest_path_rejects_cycles(self):
        graph = CommunicationGraph.ring(3)
        costs = deterministic_cost_matrix(4, seed=6)
        problem = compile_problem(graph, costs)
        plan = DeploymentPlan.identity(graph.nodes, costs.instance_ids)
        with pytest.raises(InvalidGraphError):
            problem.longest_path(problem.index_plan(plan))

    def test_edgeless_graph_costs_zero(self):
        graph = CommunicationGraph([0, 1, 2], [])
        costs = deterministic_cost_matrix(5, seed=7)
        problem = compile_problem(graph, costs)
        plan = DeploymentPlan.identity(graph.nodes, costs.instance_ids)
        assignment = problem.index_plan(plan)
        assert problem.longest_link(assignment) == 0.0
        assert problem.longest_path(assignment) == 0.0

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_on_random_problems(self, objective, seed):
        graph, costs = random_problem(seed, objective)
        problem = compile_problem(graph, costs)
        rng = np.random.default_rng(seed + 10)
        for _ in range(5):
            plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
            expected = deployment_cost(plan, graph, costs, objective)
            assert problem.evaluate_plan(plan, objective) == expected


class TestBatchEvaluation:
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_equals_per_plan_oracle(self, objective, seed):
        graph, costs = random_problem(seed + 100, objective)
        problem = compile_problem(graph, costs)
        rng = np.random.default_rng(seed)
        plans = [
            DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
            for _ in range(17)
        ]
        batch = problem.evaluate_plans(plans, objective)
        oracle = [deployment_cost(p, graph, costs, objective) for p in plans]
        assert batch.shape == (17,)
        assert list(batch) == oracle

    def test_batch_chunking_matches_unchunked(self, monkeypatch):
        """Chunked gathers (tiny memory budget) agree with one-shot gathers."""
        import repro.core.evaluation as evaluation
        graph, costs = random_problem(42, Objective.LONGEST_LINK)
        problem = CompiledProblem(graph, costs)
        assignments = problem.random_assignments(50, rng=0)
        full = problem.evaluate_batch(assignments, Objective.LONGEST_LINK)
        monkeypatch.setattr(evaluation, "_BATCH_GATHER_BUDGET", 1)
        chunked = problem.evaluate_batch(assignments, Objective.LONGEST_LINK)
        assert np.array_equal(full, chunked)

    def test_empty_plan_list(self):
        graph = CommunicationGraph.ring(3)
        costs = deterministic_cost_matrix(4, seed=11)
        problem = compile_problem(graph, costs)
        assert problem.evaluate_plans([], Objective.LONGEST_LINK).size == 0

    def test_batch_shape_validation(self):
        graph = CommunicationGraph.ring(3)
        costs = deterministic_cost_matrix(4, seed=12)
        problem = compile_problem(graph, costs)
        with pytest.raises(ValueError):
            problem.evaluate_batch(np.zeros((2, 5), dtype=np.intp),
                                   Objective.LONGEST_LINK)

    def test_random_assignments_are_injective_and_in_range(self):
        graph = CommunicationGraph.mesh_2d(2, 3)
        costs = deterministic_cost_matrix(9, seed=13)
        problem = compile_problem(graph, costs)
        assignments = problem.random_assignments(200, rng=5)
        assert assignments.shape == (200, graph.num_nodes)
        assert assignments.min() >= 0
        assert assignments.max() < costs.num_instances
        for row in assignments:
            assert len(set(row.tolist())) == graph.num_nodes

    def test_random_assignments_cover_instance_space(self):
        """Every instance index shows up somewhere across many draws."""
        graph = CommunicationGraph.ring(3)
        costs = deterministic_cost_matrix(6, seed=14)
        problem = compile_problem(graph, costs)
        assignments = problem.random_assignments(500, rng=6)
        assert set(np.unique(assignments).tolist()) == set(range(6))


# --------------------------------------------------------------------------- #
# Hypothesis: engine == oracle on arbitrary graphs / matrices / plans
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 10_000), plan_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_engine_matches_oracle_longest_link(seed, plan_seed):
    graph, costs = random_problem(seed, Objective.LONGEST_LINK)
    problem = compile_problem(graph, costs)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=plan_seed)
    assert problem.evaluate_plan(plan, Objective.LONGEST_LINK) == deployment_cost(
        plan, graph, costs, Objective.LONGEST_LINK
    )


@given(seed=st.integers(0, 10_000), plan_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_engine_matches_oracle_longest_path(seed, plan_seed):
    graph, costs = random_problem(seed, Objective.LONGEST_PATH)
    problem = compile_problem(graph, costs)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=plan_seed)
    assert problem.evaluate_plan(plan, Objective.LONGEST_PATH) == deployment_cost(
        plan, graph, costs, Objective.LONGEST_PATH
    )
