"""Every registry solver reproduces its recorded results, seed for seed.

Default-mode results are the repo's standing contract: a refactor of the
evaluation engine, the solver loops or the request plumbing must leave
every seeded plan, cost and iteration count exactly where it was.
``tests/data/registry_seed_results.json`` records them for each solver in
the default registry, each objective it supports and three seeds, on an
unconstrained and a constrained instance, under an iteration budget (no
wall-clock limit, so the runs are deterministic on any host).

Solvers whose search runs on HiGHS LP relaxations (``mip``, ``mip-ll``, and
``portfolio`` on longest path, whose exact member is the MIP) are left out:
another SciPy release may break ties between degenerate LP optima
differently.  ``test_exact_engine_agreement.py`` pins the MIP solvers
instead, against an oracle it rebuilds in the same process (the same
encoding, scalar branch-and-bound roundings and the pure-Python
objective), so both sides see the same LP solutions.

To record new results after a change that is meant to move them::

    PYTHONPATH=src python tests/test_registry_seed_results.py
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
from repro.solvers import SearchBudget
from repro.solvers.registry import default_registry

RECORD_PATH = (pathlib.Path(__file__).parent / "data"
               / "registry_seed_results.json")
SEEDS = (3, 7, 11)
#: (solver key, objective) pairs whose search depends on HiGHS LP solutions.
LP_BACKED = {("mip", "longest_path"), ("mip-ll", "longest_link"),
             ("portfolio", "longest_path")}


def recorded_pairs():
    """Every (solver key, objective value) the record must cover."""
    return [(key, objective.value)
            for key in default_registry.available()
            for objective in default_registry.spec(key).objectives
            if (key, objective.value) not in LP_BACKED]


def instance(seed, objective, constrained):
    """A small seeded instance; a DAG for longest path."""
    rng = np.random.default_rng(seed)
    n, m = 7, 10
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    if objective is Objective.LONGEST_PATH:
        graph = CommunicationGraph.random_dag(n, 0.4, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(n, 0.4, seed=seed)
    constraints = None
    if constrained:
        nodes = list(graph.nodes)
        constraints = PlacementConstraints(pinned={nodes[0]: 2},
                                           forbidden={nodes[1]: {0, 1}})
    return DeploymentProblem(graph, costs, objective=objective,
                             constraints=constraints)


def run(key, objective_value, seed, constrained):
    """Solve one case; returns the JSON-shaped record entry."""
    problem = instance(seed, Objective(objective_value), constrained)
    solver = default_registry.make(
        key, **default_registry.seeded_config(key, seed))
    result = solver.solve(problem, budget=SearchBudget(max_iterations=80))
    return {
        "solver": key,
        "objective": objective_value,
        "seed": seed,
        "constrained": constrained,
        "cost": result.cost,
        "iterations": result.iterations,
        "plan": [list(kv) for kv in sorted(result.plan.as_dict().items())],
    }


def _load_record():
    if not RECORD_PATH.exists():
        return {}
    return {(e["solver"], e["objective"], e["seed"], e["constrained"]): e
            for e in json.loads(RECORD_PATH.read_text())}


RECORD = _load_record()
CASES = [(key, objective, seed)
         for key, objective in recorded_pairs() for seed in SEEDS]


def test_record_covers_every_registry_solver():
    expected = {(key, objective, seed, constrained)
                for key, objective, seed in CASES
                for constrained in (False, True)}
    assert set(RECORD) == expected


@pytest.mark.parametrize("key, objective, seed", CASES,
                         ids=[f"{k}-{o}-s{s}" for k, o, s in CASES])
def test_registry_solver_matches_recorded_result(key, objective, seed):
    for constrained in (False, True):
        expected = RECORD[(key, objective, seed, constrained)]
        assert run(key, objective, seed, constrained) == expected


if __name__ == "__main__":
    entries = [run(key, objective, seed, constrained)
               for key, objective, seed in CASES
               for constrained in (False, True)]
    RECORD_PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} results to {RECORD_PATH}")
