"""The MIP solvers hand HiGHS the recorded model and reproduce its result.

``tests/data/mip_golden.json`` pins both deployment MIPs (``mip-ll``,
Sect. 4.1, and ``mip``, Sect. 4.4) on seeded instances: unconstrained and
under pinned plus forbidden placements, with ``k_clusters`` cost
clustering, with zero-cost links, without dummy padding, and with
non-contiguous node and instance ids.  For each instance it records the
sha256 (over dtype, shape and bytes) of every array
``scipy.optimize.milp`` receives — objective, integrality, variable lower
and upper bounds, the constraint matrix's CSR ``indptr``, ``indices`` and
``data``, and the row lower and upper bounds — plus the solver options and
the node-limited result: the plan, ``repr(cost)``, the branch-and-bound
node count and ``optimal``.  The budget sets no time limit, so the node
limit alone ends each solve and the record holds on any host.

The arrays are captured at the ``milp`` call itself, so the record does not
depend on how the solvers build them.  To record new results after a
change that is meant to move them::

    PYTHONPATH=src python tests/test_mip_golden.py
"""

import contextlib
import hashlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.solvers import SearchBudget
from repro.solvers.registry import default_registry
from repro.testing import deterministic_cost_matrix

RECORD_PATH = pathlib.Path(__file__).parent / "data" / "mip_golden.json"
#: Branch-and-bound nodes each recorded solve may explore.
NODE_LIMIT = 40


def _dag(n, seed):
    """A seeded random DAG over ``range(n)`` (edges only point forward)."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    return CommunicationGraph(range(n), edges)


def _zeroed(costs, seed, count):
    """``costs`` with ``count`` off-diagonal entries set to zero."""
    matrix = costs.as_array()
    rng = np.random.default_rng(seed)
    m = matrix.shape[0]
    for _ in range(count):
        i, j = rng.choice(m, size=2, replace=False)
        matrix[i, j] = 0.0
    return CostMatrix(costs.instance_ids, matrix)


def instance(case_id):
    """The seeded problem and solver configuration of one recorded case."""
    ll, lp = Objective.LONGEST_LINK, Objective.LONGEST_PATH
    config = {}
    if case_id == "ll-ring6-zero-links":
        objective, graph = ll, CommunicationGraph.ring(6)
        costs = _zeroed(deterministic_cost_matrix(8, seed=1), seed=1, count=5)
        constraints = None
    elif case_id == "ll-mesh-constrained":
        objective, graph = ll, CommunicationGraph.mesh_2d(2, 3)
        costs = deterministic_cost_matrix(9, seed=2, symmetric=False)
        constraints = PlacementConstraints(pinned={0: 4, 5: 1},
                                           forbidden={2: {0, 3, 8}, 3: {2}})
    elif case_id == "ll-ring5-k4":
        objective, graph = ll, CommunicationGraph.ring(5)
        costs = deterministic_cost_matrix(7, seed=3)
        constraints = None
        config = {"k_clusters": 4}
    elif case_id == "ll-unpadded-relabeled-k5":
        objective = ll
        graph = CommunicationGraph.mesh_2d(2, 3).relabeled(
            {node: 40 - 7 * node for node in range(6)})
        costs = deterministic_cost_matrix(6, seed=4, symmetric=False) \
            .relabeled({i: 100 + 13 * i for i in range(6)})
        constraints = PlacementConstraints(pinned={40: 139},
                                           forbidden={33: {100, 165}})
        config = {"k_clusters": 5}
    elif case_id == "lp-tree7":
        objective, graph = lp, CommunicationGraph.aggregation_tree(2, 2)
        costs = deterministic_cost_matrix(9, seed=5)
        constraints = None
    elif case_id == "lp-dag-constrained":
        objective, graph = lp, _dag(6, seed=6)
        costs = _zeroed(deterministic_cost_matrix(8, seed=6, symmetric=False),
                        seed=6, count=4)
        constraints = PlacementConstraints(pinned={1: 7},
                                           forbidden={0: {0, 1, 2}, 4: {5}})
    elif case_id == "lp-relabeled-constrained":
        objective = lp
        graph = CommunicationGraph([9, 4, 17, 2, 30],
                                   [(9, 17), (4, 17), (17, 30), (2, 30)])
        costs = deterministic_cost_matrix(7, seed=7) \
            .relabeled({i: 50 - 6 * i for i in range(7)})
        constraints = PlacementConstraints(pinned={17: 32},
                                           forbidden={9: {50, 44}, 2: {14}})
    elif case_id == "lp-tree7-k4":
        objective, graph = lp, CommunicationGraph.aggregation_tree(2, 2)
        costs = deterministic_cost_matrix(8, seed=8, symmetric=False)
        constraints = None
        config = {"k_clusters": 4}
    else:
        raise KeyError(case_id)
    problem = DeploymentProblem(graph, costs, objective=objective,
                                constraints=constraints)
    return problem, config


CASES = ["ll-ring6-zero-links", "ll-mesh-constrained", "ll-ring5-k4",
         "ll-unpadded-relabeled-k5", "lp-tree7", "lp-dag-constrained",
         "lp-relabeled-constrained", "lp-tree7-k4"]


def _digest(array):
    """sha256 over an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


@contextlib.contextmanager
def recorded_milp_inputs():
    """Collect digests of the arrays every ``milp`` call in the block gets."""
    import scipy.optimize

    calls = []
    real_milp = scipy.optimize.milp

    def recording(c, *, integrality=None, bounds=None, constraints=None,
                  options=None):
        (constraint,) = constraints
        matrix = constraint.A
        calls.append({
            "objective": _digest(c),
            "integrality": _digest(integrality),
            "lower": _digest(bounds.lb),
            "upper": _digest(bounds.ub),
            "matrix_format": matrix.format,
            "matrix_shape": list(matrix.shape),
            "indptr": _digest(matrix.indptr),
            "indices": _digest(matrix.indices),
            "data": _digest(matrix.data),
            "row_lower": _digest(constraint.lb),
            "row_upper": _digest(constraint.ub),
            "options": None if options is None else dict(options),
        })
        return real_milp(c, integrality=integrality, bounds=bounds,
                         constraints=constraints, options=options)

    with mock.patch.object(scipy.optimize, "milp", recording):
        yield calls


def run(case_id):
    """Solve one case; returns the JSON-shaped record entry."""
    problem, config = instance(case_id)
    key = "mip-ll" if problem.objective is Objective.LONGEST_LINK else "mip"
    solver = default_registry.make(key, seed=11, **config)
    with recorded_milp_inputs() as calls:
        result = solver.solve(problem,
                              budget=SearchBudget(max_iterations=NODE_LIMIT))
    (model,) = calls
    return {
        "case": case_id,
        "milp": model,
        # Instance of each node, in graph node order.
        "plan": [result.plan.instance_for(node) for node in problem.graph.nodes],
        "cost": repr(result.cost),
        "iterations": result.iterations,
        "optimal": result.optimal,
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {e["case"]: e for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()


def test_record_covers_every_case():
    assert set(RECORD) == set(CASES)


@pytest.mark.parametrize("case_id", CASES)
def test_mip_matches_recorded_model_and_result(case_id):
    entry = run(case_id)
    problem, _ = instance(case_id)
    assert entry["cost"] == repr(problem.evaluate(
        DeploymentPlan(dict(zip(problem.graph.nodes, entry["plan"])))))
    assert entry == RECORD[case_id]


if __name__ == "__main__":
    entries = [run(case_id) for case_id in CASES]
    RECORD_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
