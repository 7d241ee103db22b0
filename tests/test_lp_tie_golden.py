"""Seeded longest-path searches on tie-heavy costs reproduce their records.

With integer link costs in {1, 2, 3, 4} almost every node has several
in-edges that reach its longest path, so any rule that picks among tied
edges — the evaluator's ``argmax`` and the critical witness local search
screens its proposals against — is exercised on every move.  The screen
is exact, so the tie rule must never show in a result.  In two of the
local-search runs (``dag-40``, seeds 1 and 3) the witness does depend on
which tied in-edge ``argmax`` keeps: an evaluator that keeps the tied
edge it met first along its move history, rather than the first in the
node's in-edge list, screens different proposals there.
``tests/data/lp_tie_golden.json`` records, per run, the cost bits, the
iteration count, the plan and the costs of the convergence trace for
seeded local search (two restarts) and annealing on random DAGs of 20, 40
and 80 nodes and on a 121-node aggregation tree.

To record new results after a change that is meant to move them::

    PYTHONPATH=src python tests/test_lp_tie_golden.py
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.core import CommunicationGraph, CostMatrix, DeploymentProblem, Objective
from repro.solvers import SearchBudget, SimulatedAnnealing, SwapLocalSearch

RECORD_PATH = pathlib.Path(__file__).parent / "data" / "lp_tie_golden.json"
#: (graph kind, n, instance seed): four random DAGs per size, and three
#: cost draws on the aggregation tree of branching 3 and depth 4.
SHAPES = tuple((kind, n, seed)
               for kind, n, seeds in (("dag", 20, 4), ("dag", 40, 4),
                                      ("dag", 80, 4), ("tree", 121, 3))
               for seed in range(seeds))
SOLVERS = ("local-search", "annealing")
CASES = [(kind, n, seed, solver)
         for kind, n, seed in SHAPES for solver in SOLVERS]
BUDGET = SearchBudget(max_iterations=1500)


def instance(kind, n, seed):
    """One seeded longest-path problem, 10 % over-allocated, costs 1-4.

    The DAGs have about four in-edges per node to tie on.
    """
    rng = np.random.default_rng([n, seed])
    if kind == "tree":
        graph = CommunicationGraph.aggregation_tree(3, 4)
    else:
        graph = CommunicationGraph.random_dag(
            n, 8.0 / n, seed=int(rng.integers(1 << 31)))
    m = int(math.ceil(graph.num_nodes * 1.1))
    matrix = rng.integers(1, 5, size=(m, m)).astype(float)
    return DeploymentProblem(graph, CostMatrix(list(range(m)), matrix),
                             objective=Objective.LONGEST_PATH)


def case_id(kind, n, seed, solver):
    return f"{solver}-{kind}-{n}-s{seed}"


def run(kind, n, seed, solver):
    """Solve one case; returns the JSON-shaped record entry."""
    if solver == "local-search":
        search = SwapLocalSearch(restarts=2, seed=seed)
    else:
        search = SimulatedAnnealing(seed=seed)
    result = search.solve(instance(kind, n, seed), budget=BUDGET)
    return {
        "case": case_id(kind, n, seed, solver),
        "cost": result.cost.hex(),
        "iterations": result.iterations,
        # Instance of each node, in node-id order.
        "plan": [inst for _, inst in sorted(result.plan.as_dict().items())],
        "trace": [cost.hex() for _, cost in result.trace],
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {e["case"]: e for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()


def test_record_covers_every_case():
    assert set(RECORD) == {case_id(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
def test_search_matches_recorded_run(case):
    assert run(*case) == RECORD[case_id(*case)]


if __name__ == "__main__":
    entries = [run(*case) for case in CASES]
    RECORD_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
