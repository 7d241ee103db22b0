"""G1 and G2 reproduce their recorded plans, case for case.

The greedy constructions draw no random numbers: each step takes the
cheapest candidate, and ties go to the first candidate in the scan order
(frontier instances in mapping order, then their unmapped neighbours in
neighbour order, then free instances in set iteration order).  A rewrite of
the candidate scan must keep that order exactly, or plans drift on every
tie.  ``tests/data/greedy_golden.json`` records plan, ``repr(cost)`` and
iteration count at paper scale (n = 50 … 364) on meshes, key-value
bipartite graphs, aggregation trees, random graphs and layered DAGs, each
unconstrained and constrained, plus integer costs in {1, 2, 3} (ties
everywhere) with contiguous and with shuffled, non-contiguous instance ids.

To record new results after a change that is meant to move them::

    PYTHONPATH=src python tests/test_greedy_golden.py
"""

import json
import math
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
from repro.solvers import GreedyG1, GreedyG2

RECORD_PATH = pathlib.Path(__file__).parent / "data" / "greedy_golden.json"
SOLVERS = {"G1": GreedyG1, "G2": GreedyG2}
#: (graph kind, n, cost kind): uniform costs on every graph, then integer
#: costs in {1, 2, 3} with contiguous ("ties") and non-contiguous,
#: shuffled ("ids") instance ids.
SHAPES = (
    ("mesh", 100, "uniform"), ("mesh", 300, "uniform"),
    ("kv", 50, "uniform"), ("tree", 121, "uniform"),
    ("tree", 364, "uniform"), ("rand", 100, "uniform"),
    ("dag", 100, "uniform"),
    ("mesh", 100, "ties"), ("kv", 50, "ties"), ("rand", 100, "ties"),
    ("tree", 121, "ties"),
    ("mesh", 100, "ids"), ("kv", 50, "ids"),
)
CASES = [(kind, n, cost_kind, constrained, solver)
         for kind, n, cost_kind in SHAPES
         for constrained in (False, True)
         for solver in SOLVERS]


def _layered_dag(rng, n, layers=10):
    """Random DAG over equal layers; each node feeds 1-2 nodes one layer on."""
    split = np.array_split(np.arange(n), layers)
    edges = []
    for upper, lower in zip(split, split[1:]):
        for node in upper.tolist():
            fanout = 1 + int(rng.random() < 0.5)
            for target in rng.choice(lower, size=fanout,
                                     replace=False).tolist():
                edges.append((node, target))
    return CommunicationGraph(range(n), edges)


def _graph(kind, n, rng):
    if kind == "mesh":
        return CommunicationGraph.mesh_2d(*{100: (10, 10), 300: (15, 20)}[n])
    if kind == "kv":
        return CommunicationGraph.bipartite(n // 5, n - n // 5)
    if kind == "tree":
        return CommunicationGraph.aggregation_tree(3, {121: 4, 364: 5}[n])
    if kind == "rand":
        return CommunicationGraph.random_graph(n, 4.0 / n,
                                               seed=int(rng.integers(1 << 31)))
    return _layered_dag(rng, n)


def instance(kind, n, cost_kind, constrained):
    """One seeded problem, 10 % over-allocated; longest path on trees/DAGs."""
    rng = np.random.default_rng(SHAPES.index((kind, n, cost_kind)))
    graph = _graph(kind, n, rng)
    m = int(math.ceil(graph.num_nodes * 1.1))
    if cost_kind == "uniform":
        matrix = rng.uniform(0.2, 1.4, size=(m, m))
    else:
        matrix = rng.integers(1, 4, size=(m, m)).astype(float)
    ids = list(range(m))
    if cost_kind == "ids":
        ids = rng.choice(10 * m, size=m, replace=False).tolist()
    costs = CostMatrix(ids, matrix)
    constraints = None
    if constrained:
        nodes = rng.choice(graph.num_nodes, size=7, replace=False).tolist()
        banned = [ids[k] for k in rng.choice(m, size=5, replace=False)]
        constraints = PlacementConstraints(
            pinned={nodes[0]: banned[0], nodes[1]: banned[1]},
            forbidden={node: banned[2:] for node in nodes[2:]})
    objective = (Objective.LONGEST_PATH if kind in ("tree", "dag")
                 else Objective.LONGEST_LINK)
    return DeploymentProblem(graph, costs, objective=objective,
                             constraints=constraints)


def case_id(kind, n, cost_kind, constrained, solver):
    return (f"{solver}-{kind}-{n}-{cost_kind}"
            f"{'-constrained' if constrained else ''}")


def run(kind, n, cost_kind, constrained, solver):
    """Solve one case; returns the JSON-shaped record entry."""
    problem = instance(kind, n, cost_kind, constrained)
    result = SOLVERS[solver]().solve(problem)
    return {
        "case": case_id(kind, n, cost_kind, constrained, solver),
        "cost": repr(result.cost),
        "iterations": result.iterations,
        # Instance of each node, in node-id order.
        "plan": [inst for _, inst in
                 sorted(result.plan.as_dict().items())],
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {e["case"]: e for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()


def test_record_covers_every_case():
    assert set(RECORD) == {case_id(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
def test_greedy_matches_recorded_plan(case):
    assert run(*case) == RECORD[case_id(*case)]


if __name__ == "__main__":
    entries = [run(*case) for case in CASES]
    RECORD_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
