"""End-to-end integration tests reproducing the paper's qualitative claims at small scale."""

import numpy as np

from repro import (
    AdvisorConfig,
    BehavioralSimulationWorkload,
    ClouDiA,
    CommunicationGraph,
    DeploymentProblem,
    MeasurementConfig,
    Objective,
    ProviderProfile,
    RandomSearch,
    SimulatedCloud,
    compare_deployments,
)
from repro.analysis import empirical_cdf
from repro.cloud import DatacenterTopology
from repro.netmeasure import StagedMeasurement, relative_error_cdf_input
from repro.solvers import (
    CPLongestLinkSolver,
    GreedyG1,
    GreedyG2,
    SearchBudget,
    default_plan,
)
from repro.workloads import AggregationQueryWorkload, KeyValueStoreWorkload


def make_cloud(seed=0, profile=None):
    topology = DatacenterTopology(num_pods=4, racks_per_pod=6, hosts_per_rack=8,
                                  seed=seed)
    return SimulatedCloud(profile=profile or ProviderProfile.ec2(),
                          topology=topology, seed=seed)


class TestLatencyHeterogeneityClaim:
    def test_ec2_profile_shows_spread_and_stability(self):
        """Fig. 1 + Fig. 2 in miniature: heterogeneous but stable mean latencies."""
        cloud = make_cloud(seed=1)
        ids = [inst.instance_id for inst in cloud.allocate(24)]
        costs = cloud.true_cost_matrix(ids)
        cdf = empirical_cdf(costs.link_costs())
        assert cdf.spread(0.1, 0.9) > 1.4
        # Stability: the mean of one link barely moves over 100 hours.
        a, b = ids[0], ids[1]
        values = [cloud.mean_latency(a, b, at_hours=t) for t in range(0, 100, 10)]
        assert (max(values) - min(values)) / np.mean(values) < 0.2


class TestMeasurementClaim:
    def test_staged_close_to_ground_truth(self):
        """Fig. 4 in miniature: staged measurements track true means closely."""
        cloud = make_cloud(seed=2)
        ids = [inst.instance_id for inst in cloud.allocate(12)]
        truth = cloud.true_cost_matrix(ids)
        staged = StagedMeasurement(seed=0).measure(cloud, ids,
                                                   target_samples_per_link=30)
        errors = relative_error_cdf_input(staged.to_cost_matrix(), truth)
        assert np.percentile(errors, 90) < 0.35


class TestDeploymentImprovementClaim:
    def test_behavioral_simulation_improves(self):
        """Fig. 12 in miniature: ClouDiA reduces time-to-solution."""
        cloud = make_cloud(seed=3)
        workload = BehavioralSimulationWorkload(rows=4, cols=4, ticks=60)
        advisor = ClouDiA(cloud, AdvisorConfig(
            objective=Objective.LONGEST_LINK,
            over_allocation_ratio=0.25,
            solver_time_limit_s=4.0,
            measurement=MeasurementConfig(target_samples_per_link=6),
            terminate_unused=False,
            seed=0,
        ))
        report = advisor.recommend(workload.communication_graph())
        comparison = compare_deployments(workload, report.default_plan, report.plan,
                                         cloud, seed=1)
        assert comparison.reduction > 0.05

    def test_aggregation_query_improves(self):
        cloud = make_cloud(seed=4)
        workload = AggregationQueryWorkload(branching=3, depth=2, num_queries=80)
        advisor = ClouDiA(cloud, AdvisorConfig(
            objective=Objective.LONGEST_PATH,
            over_allocation_ratio=0.3,
            solver=RandomSearch.r2(seed=0),
            solver_time_limit_s=3.0,
            measurement=MeasurementConfig(target_samples_per_link=6),
            terminate_unused=False,
            seed=0,
        ))
        report = advisor.recommend(workload.communication_graph())
        comparison = compare_deployments(workload, report.default_plan, report.plan,
                                         cloud, seed=2)
        assert comparison.reduction > 0.0

    def test_key_value_store_improves_with_longest_link_objective(self):
        """Sect. 6.1.3: longest link is not exact for a KV store but still helps."""
        cloud = make_cloud(seed=5)
        workload = KeyValueStoreWorkload(num_frontends=4, num_storage=12,
                                         num_queries=250, keys_per_query=6)
        advisor = ClouDiA(cloud, AdvisorConfig(
            objective=Objective.LONGEST_LINK,
            over_allocation_ratio=0.25,
            solver_time_limit_s=4.0,
            measurement=MeasurementConfig(target_samples_per_link=6),
            terminate_unused=False,
            seed=0,
        ))
        report = advisor.recommend(workload.communication_graph())
        comparison = compare_deployments(workload, report.default_plan, report.plan,
                                         cloud, seed=3, repetitions=2)
        assert comparison.reduction > -0.05  # never meaningfully worse
        assert report.predicted_improvement > 0.0


class TestOverAllocationClaim:
    def test_more_spare_instances_never_hurt_predicted_cost(self):
        """Fig. 13 in miniature: larger over-allocation gives more freedom."""
        cloud = make_cloud(seed=6)
        graph = CommunicationGraph.mesh_2d(3, 3)
        ids = [inst.instance_id for inst in cloud.allocate(15)]
        costs = cloud.true_cost_matrix(ids)
        solver = CPLongestLinkSolver(seed=0)
        costs_no_extra = costs.submatrix(ids[:9])
        costs_extra = costs
        no_extra = solver.solve(DeploymentProblem(graph, costs_no_extra),
                                budget=SearchBudget.seconds(4)).cost
        with_extra = solver.solve(DeploymentProblem(graph, costs_extra),
                                  budget=SearchBudget.seconds(4)).cost
        baseline = default_plan(graph, costs)
        from repro.core.objectives import longest_link_cost

        assert with_extra <= no_extra + 1e-9
        assert with_extra <= longest_link_cost(baseline, graph, costs) + 1e-9


class TestSolverOrderingClaim:
    def test_cp_beats_lightweight_approaches(self):
        """Fig. 14 in miniature: CP <= R2 <= ... and G2 <= G1 on average."""
        g1_costs, g2_costs, cp_costs, random_costs = [], [], [], []
        for seed in range(3):
            cloud = make_cloud(seed=10 + seed)
            ids = [inst.instance_id for inst in cloud.allocate(13)]
            costs = cloud.true_cost_matrix(ids)
            graph = CommunicationGraph.mesh_2d(3, 4)
            problem = DeploymentProblem(graph, costs)
            g1_costs.append(GreedyG1().solve(problem).cost)
            g2_costs.append(GreedyG2().solve(problem).cost)
            random_costs.append(
                RandomSearch(num_samples=800, seed=seed).solve(problem).cost
            )
            cp_costs.append(
                CPLongestLinkSolver(seed=seed).solve(
                    problem, budget=SearchBudget.seconds(4)
                ).cost
            )
        assert np.mean(cp_costs) <= np.mean(random_costs) + 1e-9
        assert np.mean(cp_costs) <= np.mean(g2_costs) + 1e-9
        assert np.mean(g2_costs) <= np.mean(g1_costs) + 1e-9
