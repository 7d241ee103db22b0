"""Figure 9: MIP convergence for LPNDP under cost clustering.

The paper solves a 50-instance aggregation-tree instance with the LPNDP MIP
and k ∈ {5, 20, no clustering}: k = 5 performs poorly, and — unlike the
longest-link case — clustering does *not* speed up the search, because path
costs are sums and the solver cannot exploit having fewer distinct values.
The benchmark uses a depth-2 ternary tree (13 nodes) on 15 instances.
"""

from repro.core import CommunicationGraph, DeploymentProblem, Objective
from repro.analysis import format_table
from repro.solvers import MIPLongestPathSolver, SearchBudget, default_plan
from repro.core.objectives import longest_path_cost

from conftest import allocate_ids, make_cloud

TIME_LIMIT_S = 10.0
CONFIGURATIONS = [("k=5", 5), ("k=20", 20), ("no clustering", None)]


def build_figure():
    cloud = make_cloud("ec2", seed=9)
    ids = allocate_ids(cloud, 15)
    costs = cloud.true_cost_matrix(ids)
    graph = CommunicationGraph.aggregation_tree(branching=3, depth=2)
    baseline = longest_path_cost(default_plan(graph, costs), graph, costs)

    results = {}
    problem = DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH)
    for label, k in CONFIGURATIONS:
        solver = MIPLongestPathSolver(k_clusters=k)
        results[label] = solver.solve(problem,
                                      budget=SearchBudget.seconds(TIME_LIMIT_S))
    return baseline, results


def test_fig09_lpndp_clustering(benchmark, emit):
    baseline, results = benchmark.pedantic(build_figure, rounds=1, iterations=1)

    rows = []
    for label, result in results.items():
        for elapsed, cost in result.trace:
            rows.append((label, elapsed, cost))
    trace_table = format_table(
        ["configuration", "time [s]", "longest-path latency [ms]"], rows,
        title="Figure 9 — MIP convergence for LPNDP under cost clustering "
              "(15 instances, depth-2 ternary aggregation tree)",
    )
    summary = format_table(
        ["configuration", "final cost [ms]", "B&B nodes", "vs. default"],
        [
            (label, result.cost, result.iterations,
             f"{result.cost / baseline:.2f}x")
            for label, result in results.items()
        ] + [("default deployment", baseline, 0, "1.00x")],
        title="Figure 9 summary (paper: clustering does not improve LPNDP)",
    )
    emit("fig09_lpndp_clustering", trace_table + "\n\n" + summary)

    # Clustering does not help: the unclustered run is at least as good as k=5.
    assert results["no clustering"].cost <= results["k=5"].cost + 1e-9
