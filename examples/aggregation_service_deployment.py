#!/usr/bin/env python3
"""Deploying a top-k aggregation service (service-oriented workload).

A two-level aggregation tree answers search-style queries; response time is
governed by the slowest leaf-to-root path.  This example optimises the
deployment under the longest-path objective and compares the MIP (solved by
HiGHS) against time-bounded random search (the paper's R2), illustrating the
Fig. 15 finding that R2 is surprisingly competitive for this objective.

Run it with ``python examples/aggregation_service_deployment.py``.
"""

import os

from repro import (
    AggregationQueryWorkload,
    DeploymentProblem,
    MIPLongestPathSolver,
    Objective,
    RandomSearch,
    SearchBudget,
    SimulatedCloud,
    StagedMeasurement,
    compare_deployments,
    default_plan,
)
from repro.core.objectives import critical_path



def _time_limit(default: float) -> float:
    """Solver time budget, overridable for CI smoke runs.

    The ``EXAMPLE_TIME_LIMIT`` environment variable caps every solver
    budget in the examples so the CI ``examples-smoke`` job can run them
    in seconds; unset, each example keeps its illustrative default.
    """
    override = os.environ.get("EXAMPLE_TIME_LIMIT")
    return min(default, float(override)) if override else default


def main() -> None:
    cloud = SimulatedCloud(seed=23)

    # A ternary aggregation tree of depth 2: 1 root, 3 aggregators, 9 leaves.
    workload = AggregationQueryWorkload(branching=3, depth=2, num_queries=300)
    graph = workload.communication_graph()

    # Allocate with 15 % head-room and measure pairwise latencies explicitly,
    # to show the pipeline stages can also be driven by hand.
    instances = cloud.allocate(int(graph.num_nodes * 1.15))
    ids = [instance.instance_id for instance in instances]
    measurement = StagedMeasurement(seed=0).measure(cloud, ids,
                                                    target_samples_per_link=10)
    costs = measurement.to_cost_matrix()
    print(f"measured {measurement.num_probes} probes in "
          f"{measurement.elapsed_ms:.0f} simulated ms")

    budget = SearchBudget.seconds(_time_limit(6.0))
    problem = DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH)
    mip = MIPLongestPathSolver().solve(problem, budget=budget)
    r2 = RandomSearch.r2(seed=0).solve(problem, budget=budget)
    best = min((mip, r2), key=lambda result: result.cost)
    baseline = default_plan(graph, costs)

    print(f"MIP longest path: {mip.cost:.3f} ms   "
          f"R2 longest path: {r2.cost:.3f} ms   (lower is better)")
    path = critical_path(best.plan, graph, costs)
    print(f"critical path of the chosen plan: {path.edges} ({path.cost:.3f} ms)")

    comparison = compare_deployments(workload, baseline, best.plan, cloud, seed=9)
    print(f"\nmean query response (default): {comparison.baseline.value:.3f} ms")
    print(f"mean query response (ClouDiA): {comparison.optimized.value:.3f} ms")
    print(f"reduction: {comparison.reduction_percent:.1f} %")

    cloud.terminate(best.plan.unused_instances(ids))


if __name__ == "__main__":
    main()
