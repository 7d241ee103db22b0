"""Property-style coverage for the incremental evaluation paths.

The incremental longest-path delta inside
:class:`~repro.core.evaluation.DeltaEvaluator` stays exactly consistent
with a from-scratch priming across long mixed swap/relocate walks, and a
cost revision leaves it untouched: the revision derives a new engine, and
the evaluator keeps scoring the costs it was primed against.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
    compile_problem,
)


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


# --------------------------------------------------------------------------- #
# Incremental longest-path delta: state consistency across cost revisions
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 3000))
@settings(max_examples=30, deadline=None)
def test_incremental_lp_state_equals_fresh_prime_after_walk(seed):
    """After a long applied walk, internal LP state matches a fresh prime."""
    graph, costs = _random_instance(seed, n_lo=5, n_hi=10, dag=True)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, Objective.LONGEST_PATH)
    n = problem.num_nodes
    for _ in range(60):
        free = evaluator.free_instance_indices()
        if rng.random() < 0.4 and free.size:
            evaluator.apply_relocate(int(rng.integers(n)),
                                     int(free[rng.integers(free.size)]))
        elif n >= 2:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            evaluator.apply_swap(a, b)
    fresh = problem.delta_evaluator(evaluator.assignment.copy(),
                                    Objective.LONGEST_PATH)
    assert evaluator.current_cost == fresh.current_cost
    assert evaluator._lp_finish == fresh._lp_finish
    assert evaluator._lp_argmax == fresh._lp_argmax
    assert evaluator._lp_ec == fresh._lp_ec
    # Peeks from the walked evaluator keep agreeing with the fresh one.
    if n >= 2:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        assert evaluator.swap_cost(a, b) == fresh.swap_cost(a, b)


def _drifted(costs, rng, sigma):
    matrix = costs.as_array()
    off = ~np.eye(costs.num_instances, dtype=bool)
    matrix[off] *= rng.lognormal(0.0, sigma, size=matrix.shape)[off]
    return CostMatrix(list(costs.instance_ids), matrix)


def test_incremental_lp_keeps_its_costs_across_a_refresh():
    graph, costs = _random_instance(21, dag=True)
    problem = DeploymentProblem(graph, costs,
                                objective=Objective.LONGEST_PATH)
    engine = problem.compiled()
    assignment = engine.random_assignments(1, 21)[0]
    evaluator = engine.delta_evaluator(assignment, Objective.LONGEST_PATH)
    before = evaluator.current_cost

    revised = engine.refresh_costs(_drifted(costs, np.random.default_rng(22),
                                            0.05))

    # The evaluator's engine never changed its costs.
    assert evaluator.current_cost == before
    n = engine.num_nodes
    a, b = 0, n - 1
    candidate = assignment.copy()
    candidate[[a, b]] = candidate[[b, a]]
    assert evaluator.apply_swap(a, b) == \
        engine.evaluate(candidate, Objective.LONGEST_PATH)
    # An evaluator on the derived engine scores the revised costs, and its
    # incremental walk agrees with full evaluation.
    twin = revised.delta_evaluator(assignment, Objective.LONGEST_PATH)
    assert twin.current_cost == \
        revised.evaluate(assignment, Objective.LONGEST_PATH)
    assert twin.apply_swap(a, b) == \
        revised.evaluate(candidate, Objective.LONGEST_PATH)


# --------------------------------------------------------------------------- #
# Window-local peeked longest-path deltas
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 4000),
       objective=st.sampled_from([Objective.LONGEST_LINK,
                                  Objective.LONGEST_PATH]))
@settings(max_examples=40, deadline=None)
def test_peeked_deltas_agree_with_full_eval_and_commits(seed, objective):
    """Peeked move costs == full evaluation == post-commit state, any walk.

    Drives a mostly-rejected proposal loop (the local-search/annealing
    shape the window-local peek optimises): every peek is checked against
    a from-scratch ``evaluate`` of the candidate, and occasional commits
    must leave the evaluator agreeing with a fresh prime.
    """
    graph, costs = _random_instance(
        seed, n_lo=5, n_hi=10, dag=objective is Objective.LONGEST_PATH)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, objective)
    n = problem.num_nodes
    for _ in range(30):
        free = evaluator.free_instance_indices()
        if rng.random() < 0.35 and free.size:
            move = ("relocate", int(rng.integers(n)),
                    int(free[rng.integers(free.size)]))
            peek = evaluator.relocate_cost(move[1], move[2])
            candidate = evaluator.assignment.copy()
            candidate[move[1]] = move[2]
        elif n >= 2:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            move = ("swap", a, b)
            peek = evaluator.swap_cost(a, b)
            candidate = evaluator.assignment.copy()
            candidate[[a, b]] = candidate[[b, a]]
        else:
            continue
        assert peek == problem.evaluate(candidate, objective)
        if rng.random() < 0.3:  # commit the peeked move
            if move[0] == "swap":
                committed = evaluator.apply_swap(move[1], move[2])
            else:
                committed = evaluator.apply_relocate(move[1], move[2])
            assert committed == peek
    fresh = problem.delta_evaluator(evaluator.assignment.copy(),
                                    objective)
    assert evaluator.current_cost == fresh.current_cost
    if objective is Objective.LONGEST_PATH:
        assert evaluator._lp_finish == fresh._lp_finish
        assert evaluator._lp_level_max == fresh._lp_level_max


@given(seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_peeked_lp_deltas_agree_on_constrained_instances(seed):
    graph, costs = _random_instance(seed, n_lo=5, n_hi=9, extra=4, dag=True)
    rng = np.random.default_rng(seed)
    nodes = list(graph.nodes)
    pinned = {nodes[0]: int(rng.integers(costs.num_instances))}
    problem = DeploymentProblem(
        graph, costs, objective=Objective.LONGEST_PATH,
        constraints=PlacementConstraints(pinned=pinned))
    view = problem.compiled_constraints()
    engine = problem.compiled()
    assignment = view.random_assignments(1, rng)[0]
    evaluator = engine.delta_evaluator(assignment, Objective.LONGEST_PATH,
                                       allowed_mask=view.allowed_mask)
    n = engine.num_nodes
    checked = 0
    for _ in range(40):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        if not evaluator.swap_allowed(a, b):
            continue
        peek = evaluator.swap_cost(a, b)
        candidate = evaluator.assignment.copy()
        candidate[[a, b]] = candidate[[b, a]]
        assert peek == engine.evaluate(candidate, Objective.LONGEST_PATH)
        checked += 1
        if rng.random() < 0.25:
            evaluator.apply_swap(a, b)
    if checked:
        fresh = engine.delta_evaluator(evaluator.assignment.copy(),
                                       Objective.LONGEST_PATH)
        assert evaluator.current_cost == fresh.current_cost


def test_peek_window_state_is_per_evaluator_across_a_refresh():
    """The per-level prefix/suffix maxima belong to the primed evaluator."""
    graph, costs = _random_instance(41, n_lo=8, n_hi=10, dag=True)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(41)
    assignment = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(assignment, Objective.LONGEST_PATH)
    n = problem.num_nodes
    # Peeks extend the lazy prefix/suffix maxima over the level range.
    for _ in range(10):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        evaluator.swap_cost(a, b)
    struct = evaluator._lp_struct
    assert (evaluator._lp_prefix_len > 0
            or evaluator._lp_suffix_start < struct.num_levels)
    level_max = list(evaluator._lp_level_max)

    revised_costs = _drifted(costs, rng, 0.2)
    revised = problem.refresh_costs(revised_costs)

    # The walked evaluator's window state is untouched, and a new evaluator
    # on the derived engine builds its own against the revised costs: lazy
    # bounds start empty, the level maxima match a fresh compile, and
    # peeks agree with full evaluation.
    assert evaluator._lp_level_max == level_max
    twin = revised.delta_evaluator(assignment, Objective.LONGEST_PATH)
    assert twin._lp_struct is struct
    assert twin._lp_prefix_len == 0
    assert twin._lp_suffix_start == struct.num_levels
    fresh = compile_problem(graph, revised_costs).delta_evaluator(
        assignment, Objective.LONGEST_PATH)
    assert twin._lp_level_max == fresh._lp_level_max
    for _ in range(10):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        peek = twin.swap_cost(a, b)
        candidate = twin.assignment.copy()
        candidate[[a, b]] = candidate[[b, a]]
        assert peek == revised.evaluate(candidate, Objective.LONGEST_PATH)
