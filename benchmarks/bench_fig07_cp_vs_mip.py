"""Figure 7: CP versus MIP convergence for LLNDP (k = 20 cost clusters).

The paper finds that the MIP formulation "performs poorly at the scale of
100 instances" while CP finds a significantly better deployment in the same
time: the MIP encoding needs |E| * |S|^2 constraints and its LP relaxation is
weak.  The benchmark reproduces the comparison at 20 instances / 16 nodes —
already enough for the gap to be visible — giving both solvers the same
wall-clock budget.

HiGHS reports no incumbent trace, so the MIP curve is a ladder of solves
with growing branch-and-bound node limits, each capped at the same wall
clock; the last rung is the MIP result the claim is checked against.
"""

from repro.core import CommunicationGraph, DeploymentProblem
from repro.analysis import format_table
from repro.solvers import (
    CPLongestLinkSolver,
    MIPLongestLinkSolver,
    SearchBudget,
    default_plan,
)
from repro.core.objectives import longest_link_cost

from conftest import allocate_ids, make_cloud

TIME_LIMIT_S = 10.0
MIP_NODE_LADDER = (1, 10, 100, 1000)


def build_figure():
    cloud = make_cloud("ec2", seed=7)
    ids = allocate_ids(cloud, 20)
    costs = cloud.true_cost_matrix(ids)
    graph = CommunicationGraph.mesh_2d(4, 4)
    baseline = longest_link_cost(default_plan(graph, costs), graph, costs)

    problem = DeploymentProblem(graph, costs)
    cp = CPLongestLinkSolver(k_clusters=20, seed=0).solve(
        problem, budget=SearchBudget.seconds(TIME_LIMIT_S))
    ladder = [
        MIPLongestLinkSolver(k_clusters=20).solve(
            problem, budget=SearchBudget(time_limit_s=TIME_LIMIT_S,
                                         max_iterations=nodes))
        for nodes in MIP_NODE_LADDER
    ]
    return baseline, cp, ladder


def test_fig07_cp_vs_mip(benchmark, emit):
    baseline, cp, ladder = benchmark.pedantic(build_figure, rounds=1,
                                              iterations=1)
    mip = ladder[-1]

    rows = [("CP", elapsed, cost) for elapsed, cost in cp.trace]
    rows += [(f"MIP (<= {nodes} nodes)", result.solve_time_s, result.cost)
             for nodes, result in zip(MIP_NODE_LADDER, ladder)]
    trace_table = format_table(
        ["solver", "time [s]", "longest-link latency [ms]"], rows,
        title="Figure 7 — CP vs. MIP convergence for LLNDP with k=20 "
              "(20 instances, 4x4 mesh)",
    )
    summary = format_table(
        ["solver", "final cost [ms]", "vs. default deployment"],
        [
            ("default deployment", baseline, "1.00x"),
            ("CP", cp.cost, f"{cp.cost / baseline:.2f}x"),
            ("MIP", mip.cost, f"{mip.cost / baseline:.2f}x"),
        ],
        title="Figure 7 summary (paper: CP finds a significantly better solution)",
    )
    emit("fig07_cp_vs_mip", trace_table + "\n\n" + summary)

    # The qualitative claim: within the same budget CP is at least as good as
    # MIP, and strictly better than the default deployment.
    assert cp.cost <= mip.cost + 1e-9
    assert cp.cost < baseline
