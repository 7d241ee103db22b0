"""Vectorized neighborhood kernels: batch-peek scoring and blocked solvers.

Three contracts are pinned here:

* :meth:`~repro.core.evaluation.DeltaEvaluator.peek_many` returns
  bit-identical costs to the sequential per-move ``swap_cost`` /
  ``relocate_cost`` peeks for longest link — constrained and
  unconstrained instances, and mid-walk after commits — and refuses a
  longest-path evaluator;
* the search loops are bit-identical seed for seed to the historical
  per-move loops: the committed golden trajectories in
  ``tests/data/golden_trajectories.json`` (captured from the pre-batching
  implementation) must keep reproducing exactly, and local search's
  blocked loop at any ``DEFAULT_PEEK_BLOCK`` (longest path always scores
  one proposal at a time);
* :class:`~repro.core.evaluation.MoveBatch` validates like the serial
  move API (occupied relocate targets, constraint masks, stale cost
  epochs) and the batch counters surface through ``parallel_stats()`` /
  ``SessionStats``.
"""

import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdvisorSession
from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    InvalidDeploymentError,
    MoveBatch,
    Objective,
    PlacementConstraints,
    compile_problem,
)
from repro.core.evaluation import (
    CompiledProblem,
    ParallelStats,
    delta_counters,
    parallel_stats,
    reset_parallel_stats,
)
from repro.solvers import SearchBudget, SimulatedAnnealing, SwapLocalSearch
from repro.solvers import local_search
from repro.solvers.local_search import _draws, _propose_constrained_move
from repro.testing import deterministic_cost_matrix

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_trajectories.json"
GOLDEN_CASES = json.loads(GOLDEN_PATH.read_text())

GOLDEN_GRAPHS = {
    "mesh": CommunicationGraph.mesh_2d(3, 3),
    "tree": CommunicationGraph.aggregation_tree(2, 3),
}
GOLDEN_INSTANCES = {"mesh": 12, "tree": 18}


def _random_instance(seed, n_lo=4, n_hi=10, extra=3, dag=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    m = n + int(rng.integers(1, extra + 1))
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    if dag:
        graph = CommunicationGraph.random_dag(n, 0.4, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(n, 0.4, seed=seed)
    return graph, costs


def _random_moves(problem, evaluator, rng, count, constrained=False):
    """Mixed valid swap/relocate moves against the current assignment."""
    n, moves = problem.num_nodes, []
    while len(moves) < count:
        if n >= 2 and rng.random() < 0.7:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            if constrained and not evaluator.swap_allowed(a, b):
                continue
            moves.append(("swap", a, b))
        else:
            node = int(rng.integers(n))
            free = evaluator.free_instance_indices(node=node)
            if constrained:
                free = free[evaluator.allowed_mask[node, free]]
            if not free.size:
                continue
            moves.append(("relocate", node,
                          int(free[int(rng.integers(free.size))])))
    return moves


def _serial_costs(evaluator, moves):
    out = []
    for kind, first, second in moves:
        if kind == "swap":
            out.append(evaluator.swap_cost(first, second))
        else:
            out.append(evaluator.relocate_cost(first, second))
    return np.asarray(out)


# --------------------------------------------------------------------------- #
# peek_many == sequential per-move peeks, bit for bit
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 5000), count=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_peek_many_matches_serial_peeks(seed, count):
    graph, costs = _random_instance(seed)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed + 1)
    start = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    moves = _random_moves(problem, evaluator, rng, count)
    got = evaluator.peek_many(MoveBatch.from_moves(moves))
    assert np.array_equal(got, _serial_costs(evaluator, moves))


def _constrained_problem(graph, costs, rng, objective):
    """A random satisfiable forbidden-set constrained problem."""
    n, m = graph.num_nodes, costs.num_instances
    ids = costs.instance_ids
    allowed = rng.random((n, m)) < 0.8
    # The injective assignment i -> i keeps the instance feasible.
    allowed[np.arange(n), np.arange(n)] = True
    forbidden = {
        graph.nodes[i]: {ids[j] for j in range(m) if not allowed[i, j]}
        for i in range(n)
    }
    return DeploymentProblem(graph, costs, objective=objective,
                             constraints=PlacementConstraints(
                                 forbidden=forbidden))


@given(seed=st.integers(0, 3000), count=st.integers(2, 24))
@settings(max_examples=40, deadline=None)
def test_peek_many_matches_serial_peeks_constrained(seed, count):
    graph, costs = _random_instance(seed, n_lo=5)
    rng = np.random.default_rng(seed + 2)
    problem = _constrained_problem(graph, costs, rng,
                                   Objective.LONGEST_LINK)
    engine = problem.compiled()
    view = problem.compiled_constraints()
    start = view.random_assignments(1, rng)[0]
    evaluator = engine.delta_evaluator(start, Objective.LONGEST_LINK,
                                       allowed_mask=view.allowed_mask)
    moves = _random_moves(problem, evaluator, rng, count, constrained=True)
    got = evaluator.peek_many(MoveBatch.from_moves(moves))
    assert np.array_equal(got, _serial_costs(evaluator, moves))


@given(seed=st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_peek_many_consistent_after_commits(seed):
    graph, costs = _random_instance(seed)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed + 3)
    start = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    for _ in range(3):
        moves = _random_moves(problem, evaluator, rng, 12)
        got = evaluator.peek_many(MoveBatch.from_moves(moves))
        assert np.array_equal(got, _serial_costs(evaluator, moves))
        kind, first, second = moves[int(rng.integers(len(moves)))]
        if kind == "swap":
            evaluator.apply_swap(first, second)
        else:
            evaluator.apply_relocate(first, second)


def _large_instance(seed):
    """40-node DAG on 48 instances: 600-move blocks on it are the size
    that once routed ``peek_many`` to a worker pool."""
    graph = CommunicationGraph.random_dag(40, 0.15, seed=seed)
    rng = np.random.default_rng(seed + 4)
    m = 48
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    return graph, CostMatrix(list(range(m)), matrix), rng


@given(seed=st.integers(0, 1500))
@settings(max_examples=15, deadline=None)
def test_peek_many_large_block_matches_serial_peeks(seed):
    graph, costs, rng = _large_instance(seed)
    problem = compile_problem(graph, costs)
    start = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    moves = _random_moves(problem, evaluator, rng, 600)
    got = evaluator.peek_many(MoveBatch.from_moves(moves))
    assert np.array_equal(got, _serial_costs(evaluator, moves))


def test_peek_many_large_block_matches_serial_peeks_constrained():
    graph, costs, rng = _large_instance(11)
    problem = _constrained_problem(graph, costs, rng, Objective.LONGEST_LINK)
    view = problem.compiled_constraints()
    evaluator = problem.compiled().delta_evaluator(
        view.random_assignments(1, rng)[0], Objective.LONGEST_LINK,
        allowed_mask=view.allowed_mask)
    moves = _random_moves(problem, evaluator, rng, 600, constrained=True)
    got = evaluator.peek_many(MoveBatch.from_moves(moves))
    assert np.array_equal(got, _serial_costs(evaluator, moves))


def test_peek_many_refuses_longest_path():
    # Longest path has no batched kernel; its solvers peek serially.
    graph, costs = _random_instance(4, dag=True)
    problem = compile_problem(graph, costs)
    evaluator = problem.delta_evaluator(
        problem.random_assignments(1, 4)[0], Objective.LONGEST_PATH)
    before = delta_counters()
    for moves in ([("swap", 0, 1)], []):
        with pytest.raises(ValueError, match="longest_path"):
            evaluator.peek_many(MoveBatch.from_moves(moves))
    assert delta_counters() == before


def test_peek_many_empty_batch():
    graph, costs = _random_instance(0)
    problem = compile_problem(graph, costs)
    evaluator = problem.delta_evaluator(
        problem.random_assignments(1, 0)[0], Objective.LONGEST_LINK)
    out = evaluator.peek_many(MoveBatch.from_moves([]))
    assert out.shape == (0,)


# --------------------------------------------------------------------------- #
# MoveBatch validation mirrors the serial move API
# --------------------------------------------------------------------------- #

def test_move_batch_rejects_unknown_kind_and_shape():
    with pytest.raises(InvalidDeploymentError):
        MoveBatch.from_moves([("teleport", 0, 1)])
    with pytest.raises(InvalidDeploymentError):
        MoveBatch(np.zeros((2, 2), dtype=np.uint8),
                  np.zeros(4, dtype=np.intp), np.zeros(4, dtype=np.intp))
    with pytest.raises(InvalidDeploymentError):
        MoveBatch(np.zeros(2, dtype=np.uint8),
                  np.zeros(3, dtype=np.intp), np.zeros(2, dtype=np.intp))


def test_peek_many_rejects_occupied_relocate_target():
    graph, costs = _random_instance(5)
    problem = compile_problem(graph, costs)
    start = problem.random_assignments(1, 5)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    occupied = int(start[1])
    with pytest.raises(InvalidDeploymentError):
        evaluator.peek_many(MoveBatch.from_moves(
            [("relocate", 0, occupied)]))
    # Relocating a node onto its own instance is a no-op, not a conflict —
    # same contract as the serial relocate_cost.
    own = int(start[0])
    got = evaluator.peek_many(MoveBatch.from_moves([("relocate", 0, own)]))
    assert np.array_equal(got, [evaluator.relocate_cost(0, own)])


def test_peek_many_rejects_mask_violations():
    graph, costs = _random_instance(7, n_lo=5)
    n, m = graph.num_nodes, costs.num_instances
    allowed = np.ones((n, m), dtype=bool)
    engine = compile_problem(graph, costs)
    rng = np.random.default_rng(7)
    start = engine.random_assignments(1, rng)[0]
    allowed[0, :] = False
    allowed[0, start[0]] = True  # node 0 pinned to its current instance
    evaluator = engine.delta_evaluator(start, Objective.LONGEST_LINK,
                                       allowed_mask=allowed)
    with pytest.raises(InvalidDeploymentError):
        evaluator.peek_many(MoveBatch.from_moves([("swap", 0, 1)]))


def test_peek_many_keeps_its_costs_after_a_refresh():
    graph, costs = _random_instance(9)
    problem = compile_problem(graph, costs)
    start = problem.random_assignments(1, 9)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    batch = MoveBatch.from_moves([("swap", 0, 1)])
    before = evaluator.peek_many(batch)
    matrix = costs.as_array() * 1.5
    revised = problem.refresh_costs(CostMatrix(costs.instance_ids, matrix))
    assert np.array_equal(evaluator.peek_many(batch), before)
    twin = revised.delta_evaluator(start, Objective.LONGEST_LINK)
    assert np.array_equal(twin.peek_many(batch), [twin.swap_cost(0, 1)])
    assert np.array_equal(twin.peek_many(batch), before * 1.5)


# --------------------------------------------------------------------------- #
# Golden trajectories: the blocked loops reproduce the pre-batching runs
# --------------------------------------------------------------------------- #

def _golden_solver(case, **overrides):
    if case["solver"] == "local-search":
        return SwapLocalSearch(seed=case["seed"], **overrides)
    return SimulatedAnnealing(seed=case["seed"], **overrides)


def _golden_problem(case):
    graph = GOLDEN_GRAPHS[case["graph"]]
    costs = deterministic_cost_matrix(
        GOLDEN_INSTANCES[case["graph"]], seed=case["seed"] + 3)
    return DeploymentProblem(graph, costs,
                             objective=Objective[case["objective"]])


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=lambda c: (f"{c['solver']}-{c['objective']}-"
                                        f"{c['graph']}-s{c['seed']}"))
def test_golden_trajectories_bit_identical(case):
    result = _golden_solver(case).solve(
        _golden_problem(case),
        budget=SearchBudget(time_limit_s=30.0, max_iterations=400))
    assert result.cost == case["cost"]
    assert result.iterations == case["iterations"]
    assert [list(kv) for kv in sorted(result.plan.as_dict().items())] \
        == case["plan"]


@pytest.mark.parametrize("peek_block", [1, 5, 64])
def test_golden_trajectories_stable_across_block_sizes(peek_block):
    # Every local-search golden case, re-run at another block size: the
    # blocked loop sets the stream to the position recorded after the last
    # consumed proposal, which keeps the trajectory bit-identical no
    # matter how much lookahead it buys.
    cases = [case for case in GOLDEN_CASES
             if case["solver"] == "local-search"]
    batch_calls = delta_counters()[2]
    with mock.patch.object(local_search, "DEFAULT_PEEK_BLOCK", peek_block):
        results = [_golden_solver(case).solve(
                       _golden_problem(case),
                       budget=SearchBudget(time_limit_s=30.0,
                                           max_iterations=400))
                   for case in cases]
    # The patched size reached the loop: a block of one takes the serial
    # peek and never calls peek_many.
    assert (delta_counters()[2] == batch_calls) == (peek_block == 1)
    for case, result in zip(cases, results):
        assert result.cost == case["cost"], case
        assert result.iterations == case["iterations"], case
        assert [list(kv) for kv in sorted(result.plan.as_dict().items())] \
            == case["plan"], case


@given(seed=st.integers(0, 400), peek_block=st.integers(1, 48))
@settings(max_examples=20, deadline=None)
def test_constrained_trajectory_stable_across_block_sizes(seed, peek_block):
    graph = CommunicationGraph.mesh_2d(3, 3)
    costs = deterministic_cost_matrix(12, seed=seed)
    rng = np.random.default_rng(seed)
    problem = _constrained_problem(graph, costs, rng,
                                   Objective.LONGEST_LINK)
    budget = SearchBudget(time_limit_s=30.0, max_iterations=150)
    baseline = SwapLocalSearch(seed=seed).solve(problem, budget=budget)
    with mock.patch.object(local_search, "DEFAULT_PEEK_BLOCK", peek_block):
        blocked = SwapLocalSearch(seed=seed).solve(problem, budget=budget)
    assert blocked.cost == baseline.cost
    assert blocked.iterations == baseline.iterations
    assert blocked.plan.as_dict() == baseline.plan.as_dict()


# --------------------------------------------------------------------------- #
# Constrained proposal sampling: direct draw, no rejection spin
# --------------------------------------------------------------------------- #

def test_constrained_proposal_terminates_when_everything_pinned():
    graph, costs = _random_instance(3, n_lo=5)
    n, m = graph.num_nodes, costs.num_instances
    engine = compile_problem(graph, costs)
    start = engine.random_assignments(1, 3)[0]
    allowed = np.zeros((n, m), dtype=bool)
    allowed[np.arange(n), start[:n]] = True  # every node pinned in place
    evaluator = engine.delta_evaluator(start, Objective.LONGEST_LINK,
                                       allowed_mask=allowed)
    draws = _draws(np.random.default_rng(0))
    free = evaluator.free_instance_indices()
    assert all(_propose_constrained_move(evaluator, draws, free) is None
               for _ in range(50))


def test_constrained_proposal_finds_the_only_admissible_swap():
    # Nodes 0 and 1 may sit on each other's instances; everything else is
    # pinned.  The direct draw must surface the unique admissible swap for
    # any draw that touches it — the old rejection sampler only found it
    # when both endpoints came up together.
    graph, costs = _random_instance(13, n_lo=6)
    n, m = graph.num_nodes, costs.num_instances
    engine = compile_problem(graph, costs)
    start = engine.random_assignments(1, 13)[0]
    allowed = np.zeros((n, m), dtype=bool)
    allowed[np.arange(n), start[:n]] = True
    allowed[0, start[1]] = True
    allowed[1, start[0]] = True
    evaluator = engine.delta_evaluator(start, Objective.LONGEST_LINK,
                                       allowed_mask=allowed)
    draws = _draws(np.random.default_rng(1))
    free = evaluator.free_instance_indices()
    seen = set()
    for _ in range(40):
        move = _propose_constrained_move(evaluator, draws, free)
        if move is not None:
            assert move[0] == "swap" and {move[1], move[2]} == {0, 1}
            seen.add(move[0])
    assert "swap" in seen


# --------------------------------------------------------------------------- #
# Telemetry: batch-peek counters flow to parallel stats and sessions
# --------------------------------------------------------------------------- #

def test_batch_peek_counters_surface_in_parallel_stats():
    reset_parallel_stats()
    graph, costs = _random_instance(17)
    problem = compile_problem(graph, costs)
    start = problem.random_assignments(1, 17)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    rng = np.random.default_rng(18)
    moves = _random_moves(problem, evaluator, rng, 12)
    evaluator.peek_many(MoveBatch.from_moves(moves))
    stats = parallel_stats()
    assert stats.batch_peek_calls >= 1
    assert stats.batch_peeked_moves >= 12
    payload = stats.to_dict()
    for key in ("delta_peeks", "delta_commits", "batch_peek_calls",
                "batch_peeked_moves"):
        assert key in payload
    reset_parallel_stats()
    assert parallel_stats().batch_peek_calls == 0


@pytest.mark.parametrize("objective", [Objective.LONGEST_LINK,
                                       Objective.LONGEST_PATH])
def test_peek_and_commit_counters_count_each_evaluation_once(objective):
    # The solvers' peek-then-apply sequence scores a move once: a repeated
    # peek and the commit that follows it hit the last-peek memo.  A
    # longest-link peek_many call is one batch call of its moves and no
    # serial peeks.
    graph, costs = _random_instance(
        21, dag=objective is Objective.LONGEST_PATH)
    problem = compile_problem(graph, costs)
    evaluator = problem.delta_evaluator(
        problem.random_assignments(1, 21)[0], objective)
    before = delta_counters()
    evaluator.swap_cost(0, 1)
    evaluator.swap_cost(0, 1)
    evaluator.apply_swap(0, 1)
    evaluator.swap_cost(0, 1)  # the state moved: a fresh evaluation
    batched = objective is Objective.LONGEST_LINK
    if batched:
        evaluator.peek_many(MoveBatch.from_moves([("swap", 0, 1),
                                                  ("swap", 1, 2)]))
    after = delta_counters()
    assert tuple(a - b for a, b in zip(after, before)) == \
        ((2, 1, 1, 2) if batched else (2, 1, 0, 0))


@pytest.mark.parametrize("objective", [Objective.LONGEST_LINK,
                                       Objective.LONGEST_PATH])
def test_local_search_batches_longest_link_only(objective):
    # Longest link scores blocks through peek_many; longest path peeks one
    # proposal at a time and never calls it.
    graph = CommunicationGraph.aggregation_tree(3, 3)
    problem = DeploymentProblem(graph, deterministic_cost_matrix(44, seed=2),
                                objective=objective)
    before = delta_counters()
    SwapLocalSearch(seed=2).solve(
        problem, budget=SearchBudget(time_limit_s=30.0, max_iterations=500))
    after = delta_counters()
    assert after[0] > before[0]
    assert (after[2] > before[2]) == (objective is Objective.LONGEST_LINK)


@pytest.mark.parametrize("solver_cls", [SwapLocalSearch, SimulatedAnnealing])
@pytest.mark.parametrize("objective", [Objective.LONGEST_LINK,
                                       Objective.LONGEST_PATH])
def test_search_builds_the_incumbent_plan_once(solver_cls, objective):
    graph = CommunicationGraph.aggregation_tree(3, 3)
    problem = DeploymentProblem(graph, deterministic_cost_matrix(44, seed=3),
                                objective=objective)
    built = []
    original = CompiledProblem.plan_from_assignment

    def counting(self, assignment):
        built.append(1)
        return original(self, assignment)

    with mock.patch.object(CompiledProblem, "plan_from_assignment",
                           counting):
        result = solver_cls(seed=3).solve(
            problem, budget=SearchBudget(time_limit_s=30.0,
                                         max_iterations=600))
    # Several improvements, one plan.
    assert len(result.trace) > 2
    assert len(built) <= 1
    assert result.cost == problem.evaluate(result.plan)


def test_reset_parallel_stats_zeroes_every_counter():
    graph, costs = _random_instance(23)
    problem = compile_problem(graph, costs)
    evaluator = problem.delta_evaluator(
        problem.random_assignments(1, 23)[0], Objective.LONGEST_LINK)
    evaluator.apply_swap(0, 1)
    evaluator.peek_many(MoveBatch.from_moves([("swap", 0, 1)]))
    assert all(delta_counters())
    reset_parallel_stats()
    assert delta_counters() == (0, 0, 0, 0)
    assert parallel_stats() == ParallelStats()
    assert set(AdvisorSession().stats.to_dict()["parallel"].values()) == {0}


def test_batch_peek_counters_reach_session_stats():
    reset_parallel_stats()
    graph = CommunicationGraph.mesh_2d(3, 3)
    costs = deterministic_cost_matrix(12, seed=8)
    problem = DeploymentProblem(graph, costs,
                                objective=Objective.LONGEST_LINK)
    session = AdvisorSession()
    from repro.api import SolveRequest
    session.solve(SolveRequest(
        problem=problem, solver="local-search",
        config={"seed": 8},
        budget=SearchBudget(time_limit_s=30.0, max_iterations=300)))
    payload = session.stats.to_dict()["parallel"]
    assert payload["batch_peek_calls"] > 0
    assert payload["batch_peeked_moves"] >= payload["batch_peek_calls"]
    assert payload["delta_peeks"] > 0
    # Evaluation is serial; the pool-call keys stay, pinned at 0, for
    # readers of the pre-serial snapshot.
    assert set(payload) == {"delta_peeks", "delta_commits",
                            "batch_peek_calls", "batch_peeked_moves",
                            "thread_parallel_calls", "process_parallel_calls"}
    assert payload["thread_parallel_calls"] == 0
    assert payload["process_parallel_calls"] == 0
