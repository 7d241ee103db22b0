"""Figure 15: lightweight approaches versus MIP for the Longest Path problem.

The paper's surprising finding: random search given the same wall-clock time
as the MIP solver (R2) finds deployments about 5 % *better* than MIP,
because the LPNDP objective guides the exact search poorly; G1/G2 (designed
for longest link) are still comparable to R1.  The benchmark reproduces the
comparison over 3 allocations of 15 instances with a depth-2 ternary
aggregation tree.
"""

import numpy as np

from repro.core import CommunicationGraph, DeploymentProblem, Objective
from repro.analysis import format_table
from repro.solvers import (
    GreedyG1,
    GreedyG2,
    MIPLongestPathSolver,
    RandomSearch,
    SearchBudget,
)

from conftest import allocate_ids, make_cloud

ALLOCATION_SEEDS = [41, 42, 43]
MIP_TIME_S = 8.0


def build_figure():
    graph = CommunicationGraph.aggregation_tree(branching=3, depth=2)
    per_solver = {"G1": [], "G2": [], "R1": [], "R2": [], "MIP": []}
    for seed in ALLOCATION_SEEDS:
        cloud = make_cloud("ec2", seed=seed)
        ids = allocate_ids(cloud, 15)
        costs = cloud.true_cost_matrix(ids)
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH)
        per_solver["G1"].append(GreedyG1().solve(problem).cost)
        per_solver["G2"].append(GreedyG2().solve(problem).cost)
        per_solver["R1"].append(
            RandomSearch.r1(num_samples=1000, seed=seed).solve(problem).cost)
        per_solver["R2"].append(
            RandomSearch.r2(seed=seed).solve(
                problem, budget=SearchBudget.seconds(MIP_TIME_S)).cost)
        per_solver["MIP"].append(
            MIPLongestPathSolver().solve(
                problem, budget=SearchBudget.seconds(MIP_TIME_S)).cost)
    return per_solver


def test_fig15_lightweight_lpndp(benchmark, emit):
    per_solver = benchmark.pedantic(build_figure, rounds=1, iterations=1)

    means = {name: float(np.mean(values)) for name, values in per_solver.items()}
    table = format_table(
        ["approach", "mean longest-path latency [ms]", "vs. MIP"],
        [(name, means[name], f"{means[name] / means['MIP']:.2f}x")
         for name in ("G1", "G2", "R1", "R2", "MIP")],
        title="Figure 15 — lightweight approaches vs. MIP for LPNDP "
              "(paper: R2 finds solutions ~5 % better than MIP)",
    )
    emit("fig15_lightweight_lpndp", table)

    # The qualitative claim: time-bounded random search is at least
    # competitive with the MIP solver on LPNDP.
    assert means["R2"] <= means["MIP"] * 1.10
    # And greedy approaches remain usable despite being designed for LLNDP.
    assert means["G2"] <= means["G1"] * 1.25
