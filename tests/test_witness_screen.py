"""The critical-witness screen of local search.

:meth:`~repro.core.evaluation.DeltaEvaluator.witness_nodes` names the
nodes of one critical witness: a maximum-cost edge (longest link) or one
longest path (longest path).  A move that moves none of them cannot
lower the cost, so :class:`~repro.solvers.SwapLocalSearch` rejects it
without a peek.  Pinned here:

* the witness is what it claims to be, on random graphs and layered
  DAGs, with tie-heavy integer costs, under constraints and along random
  commit sequences, and every move it screens out scores at least the
  current cost;
* the screen removes almost every peek from seeded paper-scale solves,
  and leaves their results bit-identical to peeking every proposal;
* every block starts with the loop's cost bitwise equal to the
  evaluator's current cost, the invariant the screen's exactness rests
  on.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.evaluation import DeltaEvaluator, delta_counters
from repro.solvers import SearchBudget, SwapLocalSearch
from repro.solvers import local_search

LL = Objective.LONGEST_LINK
LP = Objective.LONGEST_PATH


def layered_dag(n, num_layers, rng):
    """``n`` nodes in equal layers; each feeds 1-2 nodes one layer on."""
    layers = np.array_split(np.arange(n), num_layers)
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for node in upper.tolist():
            fanout = min(1 + int(rng.random() < 0.5), len(lower))
            for target in rng.choice(lower, size=fanout,
                                     replace=False).tolist():
                edges.append((node, target))
    return CommunicationGraph(range(n), edges)


def cost_matrix(rng, m, integer):
    """Uniform costs, or integers 0-3 so that ties are everywhere."""
    if integer:
        matrix = rng.integers(0, 4, size=(m, m)).astype(float)
    else:
        matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    return CostMatrix(list(range(m)), matrix)


def forbidden_constraints(rng, n, m):
    """Random forbidden instances that keep ``i -> i`` feasible."""
    allowed = rng.random((n, m)) < 0.8
    allowed[np.arange(n), np.arange(n)] = True
    return PlacementConstraints(forbidden={
        i: {j for j in range(m) if not allowed[i, j]} for i in range(n)})


def make_evaluator(seed, objective, layered, integer, constrained):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    m = n + int(rng.integers(1, 4))
    if layered:
        graph = layered_dag(n, int(rng.integers(2, n + 1)), rng)
    elif objective is LP:
        graph = CommunicationGraph.random_dag(n, 0.35, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(n, 0.35, seed=seed)
    problem = DeploymentProblem(
        graph, cost_matrix(rng, m, integer), objective=objective,
        constraints=(forbidden_constraints(rng, n, m)
                     if constrained else None))
    engine = problem.compiled()
    view = problem.compiled_constraints()
    if view is None:
        start = engine.random_assignments(1, rng)[0]
        mask = None
    else:
        start = view.random_assignments(1, rng)[0]
        mask = view.allowed_mask
    return engine.delta_evaluator(start, objective, allowed_mask=mask), rng


def all_moves(evaluator):
    """Every swap and relocate the evaluator's mask admits."""
    n = evaluator.problem.num_nodes
    moves = [("swap", a, b) for a in range(n) for b in range(a + 1, n)
             if evaluator.swap_allowed(a, b)]
    for node in range(n):
        for instance in evaluator.free_instance_indices(node=node).tolist():
            moves.append(("relocate", node, instance))
    return moves


def peek(evaluator, move):
    kind, first, second = move
    if kind == "swap":
        return evaluator.swap_cost(first, second)
    return evaluator.relocate_cost(first, second)


def moved_nodes(move):
    kind, first, second = move
    return {first, second} if kind == "swap" else {first}


def check_longest_link_witness(evaluator, witness):
    problem = evaluator.problem
    edge_costs = problem.edge_costs(evaluator.assignment)
    if problem.num_edges == 0:
        assert witness == frozenset() and evaluator.current_cost == 0.0
        return
    assert evaluator.current_cost == edge_costs.max()
    critical = [e for e in range(problem.num_edges)
                if {int(problem.edge_src[e]), int(problem.edge_dst[e])}
                == witness]
    assert any(edge_costs[e] == evaluator.current_cost for e in critical)


def check_longest_path_witness(evaluator, witness):
    problem = evaluator.problem
    finish = evaluator._lp_finish
    argmax = evaluator._lp_argmax
    edge_costs = problem.edge_costs(evaluator.assignment).tolist()
    assert evaluator.current_cost == problem.evaluate(evaluator.assignment,
                                                      LP)
    parent = {}
    for v in witness:
        e = argmax[v]
        if e < 0:
            continue
        u = int(problem.edge_src[e])
        assert int(problem.edge_dst[e]) == v
        assert u in witness
        assert finish[v] == finish[u] + edge_costs[e]
        parent[v] = u
    # The parent links form one chain through the whole witness.
    last = set(witness) - set(parent.values())
    assert len(last) == 1
    chain = [last.pop()]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    assert len(chain) == len(witness) and set(chain) == witness
    assert finish[chain[-1]] == 0.0
    assert finish[chain[0]] == evaluator.current_cost


@given(seed=st.integers(0, 10_000), objective=st.sampled_from([LL, LP]),
       layered=st.booleans(), integer=st.booleans(),
       constrained=st.booleans(), commits=st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_witness_is_critical_and_screens_only_non_improving_moves(
        seed, objective, layered, integer, constrained, commits):
    evaluator, rng = make_evaluator(seed, objective, layered, integer,
                                    constrained)
    check = (check_longest_link_witness if objective is LL
             else check_longest_path_witness)
    for step in range(commits + 1):
        witness = evaluator.witness_nodes()
        assert evaluator.witness_nodes() is witness  # kept until a commit
        check(evaluator, witness)
        moves = all_moves(evaluator)
        current = evaluator.current_cost
        for move in moves:
            if not moved_nodes(move) & witness:
                assert peek(evaluator, move) >= current, move
        if step == commits or not moves:
            break
        # A random commit, improving or not: the next round must see a
        # witness of the new assignment, never the cached one.
        kind, first, second = moves[int(rng.integers(len(moves)))]
        if kind == "swap":
            evaluator.apply_swap(first, second)
        else:
            evaluator.apply_relocate(first, second)


def test_no_edges_means_an_empty_witness():
    graph = CommunicationGraph(range(4), [])
    costs = cost_matrix(np.random.default_rng(0), 5, False)
    for objective in (LL, LP):
        engine = DeploymentProblem(graph, costs, objective).compiled()
        evaluator = engine.delta_evaluator(np.arange(4), objective)
        assert evaluator.current_cost == 0.0
        if objective is LL:
            assert evaluator.witness_nodes() == frozenset()
        else:
            # Every node ends a zero-length longest path; one is named.
            assert len(evaluator.witness_nodes()) == 1


# --------------------------------------------------------------------------- #
# The screen inside local search: counts, exactness, the loop invariant
# --------------------------------------------------------------------------- #

def dag_1000(constrained=False):
    """A 1,000-node, 25-layer DAG on 1,100 instances (``ls-dag-1000``)."""
    rng = np.random.default_rng(1000)
    graph = layered_dag(1000, 25, rng)
    return DeploymentProblem(
        graph, cost_matrix(rng, 1100, False), LP,
        constraints=(forbidden_constraints(rng, 1000, 1100)
                     if constrained else None))


def mesh_300(constrained=False):
    """A 15x20 mesh on 330 instances (``ls-mesh-300``)."""
    rng = np.random.default_rng(300)
    return DeploymentProblem(
        CommunicationGraph.mesh_2d(15, 20), cost_matrix(rng, 330, False), LL,
        constraints=(forbidden_constraints(rng, 300, 330)
                     if constrained else None))


#: (problem builder, iterations, bound on peeked moves per iteration).
#: Without the screen every iteration is peeked (1.0).  With it, seeds
#: 0-5 peeked 0.030-0.052 per iteration on the DAG (a witness of up to 25
#: nodes) and 0.010-0.022 on the mesh (a 2-node witness), constrained or
#: not.
SCREENED_CASES = {
    "dag-1000": (dag_1000, 1000, 0.10),
    "mesh-300": (mesh_300, 1500, 0.05),
}


def run(problem, iterations, seed, restarts=1):
    return SwapLocalSearch(restarts=restarts, seed=seed).solve(
        problem, budget=SearchBudget(max_iterations=iterations))


@pytest.mark.parametrize("case", sorted(SCREENED_CASES))
def test_the_screen_skips_almost_every_peek(case):
    build, iterations, bound = SCREENED_CASES[case]
    problem = build()
    problem.compiled()
    for seed in range(3):
        before = delta_counters()
        result = run(problem, iterations, seed)
        peeks, commits, _, batch_moves = (
            after - was for after, was in zip(delta_counters(), before))
        assert result.iterations == iterations
        assert commits > 0
        assert peeks + batch_moves < bound * iterations, (
            case, seed, peeks, batch_moves)


@pytest.mark.parametrize("constrained", [False, True],
                         ids=["free", "constrained"])
@pytest.mark.parametrize("case", sorted(SCREENED_CASES))
def test_screened_search_equals_peeking_every_proposal(case, constrained,
                                                       monkeypatch):
    build, iterations, _ = SCREENED_CASES[case]
    problem = build(constrained)
    screened = [run(problem, iterations, seed, restarts=2)
                for seed in range(2)]
    # A witness of every node screens nothing out.
    everything = frozenset(range(problem.num_nodes))
    monkeypatch.setattr(DeltaEvaluator, "witness_nodes",
                        lambda self: everything)
    for seed, result in enumerate(screened):
        peeked = run(problem, iterations, seed, restarts=2)
        assert result.cost.hex() == peeked.cost.hex()
        assert result.iterations == peeked.iterations
        assert result.plan.as_dict() == peeked.plan.as_dict()
        assert ([cost for _, cost in result.trace]
                == [cost for _, cost in peeked.trace])


@pytest.mark.parametrize("constrained", [False, True],
                         ids=["free", "constrained"])
@pytest.mark.parametrize("case", sorted(SCREENED_CASES))
def test_every_block_starts_at_the_evaluators_cost(case, constrained,
                                                   monkeypatch):
    build, iterations, _ = SCREENED_CASES[case]
    problem = build(constrained)
    block_costs = local_search._block_costs
    starts = []

    def recording(evaluator, proposals):
        # The caller is the descent loop of SwapLocalSearch._solve; its
        # ``cost`` is what a proposal must beat to be accepted.
        loop_cost = sys._getframe(1).f_locals["cost"]
        starts.append((loop_cost.hex(), evaluator.current_cost.hex()))
        return block_costs(evaluator, proposals)

    monkeypatch.setattr(local_search, "_block_costs", recording)
    for seed in range(2):
        run(problem, iterations, seed, restarts=2)
    assert len(starts) > 50
    assert all(loop == current for loop, current in starts)
