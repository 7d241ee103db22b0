"""Tests for the three application workloads and deployment comparisons."""

import pytest

from repro.core import DeploymentPlan, DeploymentProblem, Objective
from repro.solvers import CPLongestLinkSolver, SearchBudget, default_plan
from repro.workloads import (
    AggregationQueryWorkload,
    BehavioralSimulationWorkload,
    KeyValueStoreWorkload,
    compare_deployments,
    evaluate_deployment,
)
from repro.core.errors import InvalidDeploymentError


@pytest.fixture
def sim_workload():
    return BehavioralSimulationWorkload(rows=3, cols=3, ticks=30)


@pytest.fixture
def agg_workload():
    return AggregationQueryWorkload(branching=2, depth=2, num_queries=40)


@pytest.fixture
def kv_workload():
    return KeyValueStoreWorkload(num_frontends=3, num_storage=6, num_queries=60,
                                 keys_per_query=3)


def plan_for(workload, cloud, count):
    ids = [inst.instance_id for inst in cloud.allocate(count)]
    graph = workload.communication_graph()
    return DeploymentPlan.identity(graph.nodes, ids), ids


class TestBehavioralSimulation:
    def test_graph_is_mesh(self, sim_workload):
        graph = sim_workload.communication_graph()
        assert graph.num_nodes == 9
        assert sim_workload.objective is Objective.LONGEST_LINK

    def test_evaluate_returns_positive_time(self, sim_workload, small_cloud):
        plan, _ = plan_for(sim_workload, small_cloud, 9)
        result = sim_workload.evaluate(plan, small_cloud, seed=0)
        assert result.value > 0
        assert result.metric == "time_to_solution_ms"
        assert result.details["ticks"] == 30

    def test_time_scales_with_ticks(self, small_cloud):
        short = BehavioralSimulationWorkload(rows=3, cols=3, ticks=20)
        long = BehavioralSimulationWorkload(rows=3, cols=3, ticks=80)
        plan, _ = plan_for(short, small_cloud, 9)
        short_time = short.evaluate(plan, small_cloud, seed=1).value
        long_time = long.evaluate(plan, small_cloud, seed=1).value
        assert long_time == pytest.approx(4 * short_time, rel=0.35)

    def test_compute_time_adds_up(self, small_cloud):
        no_compute = BehavioralSimulationWorkload(rows=3, cols=3, ticks=20)
        with_compute = BehavioralSimulationWorkload(rows=3, cols=3, ticks=20,
                                                    compute_ms_per_tick=2.0)
        plan, _ = plan_for(no_compute, small_cloud, 9)
        base = no_compute.evaluate(plan, small_cloud, seed=2).value
        loaded = with_compute.evaluate(plan, small_cloud, seed=2).value
        assert loaded == pytest.approx(base + 40.0, rel=0.3)

    def test_plan_must_cover_graph(self, sim_workload, small_cloud):
        ids = [inst.instance_id for inst in small_cloud.allocate(4)]
        partial = DeploymentPlan.identity([0, 1, 2, 3], ids)
        with pytest.raises(InvalidDeploymentError):
            sim_workload.evaluate(partial, small_cloud)

    def test_invalid_ticks(self):
        with pytest.raises(ValueError):
            BehavioralSimulationWorkload(ticks=0)


class TestAggregationQuery:
    def test_graph_is_tree_toward_root(self, agg_workload):
        graph = agg_workload.communication_graph()
        assert graph.is_dag()
        assert agg_workload.objective is Objective.LONGEST_PATH
        assert agg_workload.num_nodes == 7
        assert len(agg_workload.leaves()) == 4

    def test_evaluate_reports_mean_and_percentiles(self, agg_workload, small_cloud):
        plan, _ = plan_for(agg_workload, small_cloud, 7)
        result = agg_workload.evaluate(plan, small_cloud, seed=0)
        assert result.value > 0
        assert result.details["p99_ms"] >= result.details["p50_ms"]

    def test_response_time_at_least_single_hop(self, agg_workload, small_cloud):
        """A two-level tree response includes at least two network hops."""
        plan, ids = plan_for(agg_workload, small_cloud, 7)
        result = agg_workload.evaluate(plan, small_cloud, seed=0)
        cheapest_link = small_cloud.true_cost_matrix(ids).min_cost()
        assert result.value >= 2 * cheapest_link * 0.5

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            AggregationQueryWorkload(num_queries=0)


class TestKeyValueStore:
    def test_graph_is_bipartite(self, kv_workload):
        graph = kv_workload.communication_graph()
        assert graph.num_nodes == 9
        frontends = kv_workload.frontends()
        storage = kv_workload.storage_nodes()
        # No edges within a side.
        for a in frontends:
            for b in frontends:
                assert not graph.has_edge(a, b)
        for a in storage:
            for b in storage:
                assert not graph.has_edge(a, b)

    def test_evaluate(self, kv_workload, small_cloud):
        plan, _ = plan_for(kv_workload, small_cloud, 9)
        result = kv_workload.evaluate(plan, small_cloud, seed=0)
        assert result.value > 0
        assert result.details["keys_per_query"] == 3

    def test_more_keys_per_query_is_slower(self, small_cloud):
        few = KeyValueStoreWorkload(num_frontends=3, num_storage=6, num_queries=80,
                                    keys_per_query=1)
        many = KeyValueStoreWorkload(num_frontends=3, num_storage=6, num_queries=80,
                                     keys_per_query=6)
        plan, _ = plan_for(few, small_cloud, 9)
        assert many.evaluate(plan, small_cloud, seed=3).value > \
            few.evaluate(plan, small_cloud, seed=3).value

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KeyValueStoreWorkload(keys_per_query=0)
        with pytest.raises(ValueError):
            KeyValueStoreWorkload(num_storage=4, keys_per_query=5)


class TestComparisons:
    def test_optimized_deployment_improves_simulation(self, small_cloud):
        workload = BehavioralSimulationWorkload(rows=3, cols=3, ticks=40)
        graph = workload.communication_graph()
        ids = [inst.instance_id for inst in small_cloud.allocate(11)]
        costs = small_cloud.true_cost_matrix(ids)
        baseline = default_plan(graph, costs)
        optimized = CPLongestLinkSolver(seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(5)
        ).plan
        comparison = compare_deployments(workload, baseline, optimized, small_cloud,
                                         seed=0, repetitions=2)
        assert comparison.reduction > 0.0
        assert comparison.reduction_percent == pytest.approx(
            comparison.reduction * 100.0
        )

    def test_identical_plans_have_near_zero_reduction(self, small_cloud):
        workload = BehavioralSimulationWorkload(rows=3, cols=3, ticks=30)
        plan, _ = plan_for(workload, small_cloud, 9)
        comparison = compare_deployments(workload, plan, plan, small_cloud, seed=1)
        assert abs(comparison.reduction) < 0.05

    def test_evaluate_deployment_helper(self, small_cloud, sim_workload):
        plan, _ = plan_for(sim_workload, small_cloud, 9)
        result = evaluate_deployment(sim_workload, plan, small_cloud, seed=0)
        assert result.workload == sim_workload.name

    def test_invalid_repetitions(self, small_cloud, sim_workload):
        plan, _ = plan_for(sim_workload, small_cloud, 9)
        with pytest.raises(ValueError):
            compare_deployments(sim_workload, plan, plan, small_cloud, repetitions=0)
