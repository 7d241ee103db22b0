"""The CP solver reproduces its recorded results at paper scale, search for search.

``tests/data/cp_golden.json`` pins 4-7-node cases, where the periodic
``alldifferent`` matching check hardly fires and the default ``k = 20``
cost clustering never runs.  This file pins the solver at the scale of the
paper's experiments (Sect. 6.2, Fig. 8): seeded instances with 10 %
over-allocated instances, default clustering (``k_clusters=20``,
``round_to=0.01``) and a cap of 300 backtracks per satisfaction search:

* a 10 x 10 mesh (n = 100, m = 110);
* a 100-node random graph with mean out-degree 4;
* the 10 x 10 mesh under placement constraints;
* a 15 x 20 mesh (n = 300, m = 330).

``tests/data/cp_scale_golden.json`` records, for each instance, the plan,
``repr(cost)``, the iteration count, ``optimal``, ``repr(lower_bound)``,
the cost of every convergence-trace point and, for every satisfaction
search, its outcome flags (plan found, proven infeasible, timed out), its
backtracks and its explored nodes.  The budget sets no time limit, so the
backtrack cap alone ends a search and the record holds on any host.

To record new results after a change that is meant to move them::

    PYTHONPATH=src python tests/test_cp_scale_golden.py
"""

import contextlib
import json
import math
import pathlib
from unittest import mock

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
from repro.solvers.cp import SubgraphMonomorphismSearch

RECORD_PATH = pathlib.Path(__file__).parent / "data" / "cp_scale_golden.json"
#: (case id, graph kind, node count, constrained, instance seed).
CASES = [
    ("mesh-100", "mesh", 100, False, 1),
    ("rand-100", "rand", 100, False, 2),
    ("mesh-100-constrained", "mesh", 100, True, 3),
    ("mesh-300", "mesh", 300, False, 4),
]
MESH_SHAPES = {100: (10, 10), 300: (15, 20)}


def cost_matrix(rng, num_instances):
    """Round-trip costs (ms) over a rack/pod hierarchy with log-normal spread.

    Same-rack links are cheapest and cross-pod links dearest; one instance
    in ten sits behind a congested uplink (the heterogeneity of Fig. 1).
    """
    m = num_instances
    rack = rng.integers(0, max(2, m // 8), size=m)
    pod = rack // 4
    base = np.where(rack[:, None] == rack[None, :], 0.25,
                    np.where(pod[:, None] == pod[None, :], 0.45, 0.70))
    slow = np.where(rng.random(m) < 0.1, 1.6, 1.0)
    matrix = (base * rng.lognormal(0.0, 0.25, size=(m, m))
              * np.sqrt(slow[:, None] * slow[None, :]))
    np.fill_diagonal(matrix, 0.0)
    return CostMatrix(list(range(m)), matrix)


def instance(kind, n, constrained, seed):
    """One seeded longest-link problem with 10 % over-allocation."""
    rng = np.random.default_rng(seed)
    if kind == "mesh":
        graph = CommunicationGraph.mesh_2d(*MESH_SHAPES[n])
    else:
        adjacency = rng.random((n, n)) < 4.0 / n
        np.fill_diagonal(adjacency, False)
        src, dst = np.nonzero(adjacency)
        graph = CommunicationGraph(range(n), list(zip(src.tolist(), dst.tolist())))
    m = int(math.ceil(n * 1.1))
    costs = cost_matrix(rng, m)
    constraints = None
    if constrained:
        nodes = rng.choice(n, size=7, replace=False).tolist()
        instances = rng.choice(m, size=5, replace=False).tolist()
        constraints = PlacementConstraints(
            pinned={nodes[0]: instances[0], nodes[1]: instances[1]},
            forbidden={node: instances[2:] for node in nodes[2:]})
    return DeploymentProblem(graph, costs, objective=Objective.LONGEST_LINK,
                             constraints=constraints)


@contextlib.contextmanager
def recorded_searches():
    """Collect the outcome of every satisfaction search run in the block."""
    outcomes = []
    find = SubgraphMonomorphismSearch.find

    def recording_find(search):
        outcome = find(search)
        outcomes.append(outcome)
        return outcome

    with mock.patch.object(SubgraphMonomorphismSearch, "find", recording_find):
        yield outcomes


def run(case_id, kind, n, constrained, seed):
    """Solve one case; returns the JSON-shaped record entry."""
    problem = instance(kind, n, constrained, seed)
    solver = CPLongestLinkSolver(seed=seed, max_backtracks_per_iteration=300)
    with recorded_searches() as outcomes:
        result = solver.solve(problem, budget=SearchBudget.unlimited())
    return {
        "case": case_id,
        "cost": repr(result.cost),
        "iterations": result.iterations,
        "optimal": result.optimal,
        "lower_bound": repr(result.lower_bound),
        "trace_costs": [repr(cost) for _, cost in result.trace],
        # Per search: [plan found, proven infeasible, timed out,
        # backtracks, nodes explored].
        "searches": [[outcome.plan is not None, outcome.proven_infeasible,
                      outcome.timed_out, outcome.backtracks,
                      outcome.nodes_explored] for outcome in outcomes],
        # Instance of each node, in node-id order.
        "plan": [inst for _, inst in sorted(result.plan.as_dict().items())],
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {e["case"]: e for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()


def test_record_covers_every_case():
    assert set(RECORD) == {case[0] for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_cp_matches_recorded_result(case):
    assert run(*case) == RECORD[case[0]]


if __name__ == "__main__":
    entries = [run(*case) for case in CASES]
    RECORD_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
