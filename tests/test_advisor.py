"""Tests for the end-to-end ClouDiA advisor pipeline."""

import pytest

from repro import (
    AdvisorConfig,
    ClouDiA,
    CommunicationGraph,
    MeasurementConfig,
    Objective,
    RandomSearch,
    SimulatedCloud,
)
from repro.core import DeploymentProblem, LatencyMetric
from repro.core.errors import AllocationError, ClouDiAError, SolverError
from repro.core.objectives import deployment_cost
from repro.testing import deterministic_cost_matrix


@pytest.fixture
def advisor_cloud():
    return SimulatedCloud(seed=17)


@pytest.fixture
def small_mesh():
    return CommunicationGraph.mesh_2d(3, 3)


def fast_config(**overrides):
    defaults = dict(
        objective=Objective.LONGEST_LINK,
        over_allocation_ratio=0.2,
        solver_time_limit_s=2.0,
        measurement=MeasurementConfig(target_samples_per_link=4),
        seed=0,
    )
    defaults.update(overrides)
    return AdvisorConfig(**defaults)


class TestMeasurementConfig:
    def test_builds_each_scheme(self):
        for name in ("staged", "uncoordinated", "token-passing"):
            scheme = MeasurementConfig(scheme=name).build_scheme()
            assert scheme.name == name

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ClouDiAError):
            MeasurementConfig(scheme="carrier-pigeon").build_scheme()


def tree_problem(branching=2, depth=2):
    graph = CommunicationGraph.aggregation_tree(branching, depth)
    return DeploymentProblem(graph,
                             deterministic_cost_matrix(graph.num_nodes + 1),
                             objective=Objective.LONGEST_PATH)


class TestAdvisorConfig:
    def test_default_solver_per_objective(self, small_mesh):
        link = DeploymentProblem(small_mesh, deterministic_cost_matrix(10))
        assert AdvisorConfig(objective=Objective.LONGEST_LINK).build_solver(
            link).name == "CP"
        assert AdvisorConfig(objective=Objective.LONGEST_PATH).build_solver(
            tree_problem()).name == "MIP-LP"

    def test_custom_solver_passthrough(self):
        solver = RandomSearch(num_samples=10)
        assert AdvisorConfig(solver=solver).build_solver(tree_problem()) \
            is solver

    @pytest.mark.parametrize("solver", [None, "auto", "mip"])
    def test_solver_above_its_node_ceiling_is_refused(self, solver):
        problem = tree_problem(branching=2, depth=6)  # 127 nodes
        with pytest.raises(SolverError, match="at most 64 nodes"):
            AdvisorConfig(objective=Objective.LONGEST_PATH,
                          solver=solver).build_solver(problem)


class TestRecommend:
    def test_full_pipeline_improves_over_default(self, advisor_cloud, small_mesh):
        advisor = ClouDiA(advisor_cloud, fast_config())
        report = advisor.recommend(small_mesh)
        assert report.plan.covers(small_mesh)
        assert report.predicted_cost <= report.default_predicted_cost + 1e-9
        assert 0.0 <= report.predicted_improvement <= 1.0
        assert report.measurement_time_ms > 0
        assert report.search_time_s >= 0

    def test_over_allocation_and_termination(self, advisor_cloud, small_mesh):
        advisor = ClouDiA(advisor_cloud, fast_config(over_allocation_ratio=0.5))
        report = advisor.recommend(small_mesh)
        # ceil(1.5 * 9) = 14 allocated, 9 used, 5 terminated.
        assert len(report.allocated_instances) == 14
        assert len(report.terminated_instances) == 5
        active = {inst.instance_id for inst in advisor_cloud.active_instances()}
        assert set(report.plan.used_instances()) <= active
        assert not (set(report.terminated_instances) & active)

    def test_terminate_disabled_keeps_instances(self, advisor_cloud, small_mesh):
        advisor = ClouDiA(advisor_cloud, fast_config(terminate_unused=False,
                                                     over_allocation_ratio=0.3))
        report = advisor.recommend(small_mesh)
        active = {inst.instance_id for inst in advisor_cloud.active_instances()}
        assert set(report.terminated_instances) <= active

    def test_max_instances_cap(self, advisor_cloud, small_mesh):
        advisor = ClouDiA(advisor_cloud, fast_config(over_allocation_ratio=1.0))
        report = advisor.recommend(small_mesh, max_instances=10)
        assert len(report.allocated_instances) == 10

    def test_max_instances_below_nodes_rejected(self, advisor_cloud, small_mesh):
        advisor = ClouDiA(advisor_cloud, fast_config())
        with pytest.raises(AllocationError):
            advisor.recommend(small_mesh, max_instances=5)

    def test_recommend_on_existing_instances(self, advisor_cloud, small_mesh):
        ids = [inst.instance_id for inst in advisor_cloud.allocate(11)]
        advisor = ClouDiA(advisor_cloud, fast_config(terminate_unused=False))
        report = advisor.recommend_on_instances(small_mesh, ids)
        assert set(report.plan.used_instances()) <= set(ids)
        assert report.predicted_cost == pytest.approx(
            deployment_cost(report.plan, small_mesh, report.cost_matrix,
                            Objective.LONGEST_LINK)
        )

    def test_too_few_instances_rejected(self, advisor_cloud, small_mesh):
        ids = [inst.instance_id for inst in advisor_cloud.allocate(5)]
        advisor = ClouDiA(advisor_cloud, fast_config())
        with pytest.raises(AllocationError):
            advisor.recommend_on_instances(small_mesh, ids)

    def test_longest_path_pipeline(self, advisor_cloud):
        tree = CommunicationGraph.aggregation_tree(2, 2)
        config = fast_config(objective=Objective.LONGEST_PATH,
                             solver=RandomSearch.r2(seed=0),
                             solver_time_limit_s=1.0)
        advisor = ClouDiA(advisor_cloud, config)
        report = advisor.recommend(tree)
        assert report.objective is Objective.LONGEST_PATH
        assert report.predicted_cost <= report.default_predicted_cost + 1e-9

    def test_alternative_metric(self, advisor_cloud, small_mesh):
        config = fast_config(metric=LatencyMetric.MEAN_PLUS_STD)
        advisor = ClouDiA(advisor_cloud, config)
        report = advisor.recommend(small_mesh)
        assert report.plan.covers(small_mesh)

    def test_stage_helpers_reusable(self, advisor_cloud, small_mesh):
        ids = [inst.instance_id for inst in advisor_cloud.allocate(10)]
        advisor = ClouDiA(advisor_cloud, fast_config())
        measurement = advisor.measure(ids)
        costs = measurement.to_cost_matrix()
        result = advisor.search(small_mesh, costs)
        assert result.plan.covers(small_mesh)
