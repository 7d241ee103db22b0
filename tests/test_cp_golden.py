"""The CP solver reproduces its recorded results, case for case.

``tests/data/cp_golden.json`` records, for seeds 0/7/19 with and without
cost clustering (``k_clusters`` None/4), each on an unconstrained and a
constrained instance: the plan, ``repr(cost)``, the iteration count,
``optimal``, ``repr(lower_bound)`` and the cost of every convergence-trace
point.  The threshold loop, the labeling bounds and the subgraph search run
no LP, so the record holds on any host.  The cases finish far inside their
wall-clock budget, so the budget never decides a result.

To record new results after a change that is meant to move them::

    PYTHONPATH=src python tests/test_cp_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.solvers import CPLongestLinkSolver, SearchBudget

RECORD_PATH = pathlib.Path(__file__).parent / "data" / "cp_golden.json"
CASES = [(seed, k_clusters, constrained)
         for seed in (0, 7, 19)
         for k_clusters in (None, 4)
         for constrained in (False, True)]


def instance(seed, constrained):
    """A seeded random graph on 4-7 nodes with up to 3 spare instances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    m = n + int(rng.integers(0, 4))
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    graph = CommunicationGraph.random_graph(n, 0.4, seed=seed)
    constraints = None
    if constrained:
        nodes = list(graph.nodes)
        constraints = PlacementConstraints(pinned={nodes[0]: 2},
                                           forbidden={nodes[1]: {0, 1}})
    return DeploymentProblem(graph, costs, objective=Objective.LONGEST_LINK,
                             constraints=constraints)


def case_id(seed, k_clusters, constrained):
    return (f"s{seed}-k{k_clusters}"
            f"{'-constrained' if constrained else ''}")


def run(seed, k_clusters, constrained):
    """Solve one case; returns the JSON-shaped record entry."""
    problem = instance(seed, constrained)
    result = CPLongestLinkSolver(k_clusters=k_clusters, seed=0).solve(
        problem, budget=SearchBudget.seconds(15))
    return {
        "case": case_id(seed, k_clusters, constrained),
        "cost": repr(result.cost),
        "iterations": result.iterations,
        "optimal": result.optimal,
        "lower_bound": repr(result.lower_bound),
        "trace_costs": [repr(cost) for _, cost in result.trace],
        # Instance of each node, in node-id order.
        "plan": [inst for _, inst in sorted(result.plan.as_dict().items())],
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {e["case"]: e for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()


def test_record_covers_every_case():
    assert set(RECORD) == {case_id(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
def test_cp_matches_recorded_result(case):
    assert run(*case) == RECORD[case_id(*case)]


if __name__ == "__main__":
    entries = [run(*case) for case in CASES]
    RECORD_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
