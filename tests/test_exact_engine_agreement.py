"""Engine-vs-oracle agreement for the CP labeling search.

The CP labeling search routes its bound computation through the compiled
evaluation engine (:mod:`repro.core.evaluation`); the dict-walking
implementations are kept as the reference oracle.  These tests pin the
contract the rewire relies on: labeling bounds (compatibility domains,
feasibility pre-checks, per-assignment cost lower bounds) computed from
``CompiledProblem`` index arrays equal the oracle-derived bounds on random
instances.  The incremental longest-path walk is checked against a full
re-relaxation per move.

The CP solver's seeded results are pinned in ``tests/data/cp_golden.json``
(see ``test_cp_golden.py``); the MIP solvers are checked against
exhaustive enumeration in ``test_mip_solvers.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    compile_problem,
)
from repro.solvers import CPLongestLinkSolver, SearchBudget
from repro.solvers.cp.labeling import (
    assignment_cost_lower_bounds_reference,
    compatibility_domains,
    compatibility_domains_reference,
    longest_link_lower_bound_reference,
    quick_infeasibility_check,
    quick_infeasibility_check_reference,
)


def random_problem(seed, min_nodes=3, max_nodes=8, extra=3, dag=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes + 1))
    m = n + int(rng.integers(0, extra + 1))
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    if dag:
        graph = CommunicationGraph.random_dag(n, 0.4, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(n, 0.4, seed=seed)
    return graph, costs


# --------------------------------------------------------------------------- #
# Labeling bounds: engine index arrays vs the dict-walking oracle
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 2000), quantile=st.floats(0.2, 0.9))
@settings(max_examples=60, deadline=None)
def test_labeling_bounds_match_oracle_on_random_instances(seed, quantile):
    graph, costs = random_problem(seed)
    problem = compile_problem(graph, costs)
    matrix = costs.as_array()
    off_diagonal = matrix[~np.eye(costs.num_instances, dtype=bool)]
    threshold = float(np.quantile(off_diagonal, quantile))
    allowed = problem.threshold_adjacency(threshold)

    assert quick_infeasibility_check(graph, allowed) == \
        quick_infeasibility_check_reference(graph, allowed)
    # With and without the compiled problem supplying degree arrays.
    reference = compatibility_domains_reference(graph, allowed)
    assert compatibility_domains(graph, allowed, problem=problem) == reference
    assert compatibility_domains(graph, allowed) == reference
    assert compatibility_domains(graph, allowed, refine_neighborhood=False) == \
        compatibility_domains_reference(graph, allowed, refine_neighborhood=False)


@given(seed=st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_assignment_cost_lower_bounds_match_oracle(seed):
    graph, costs = random_problem(seed)
    problem = compile_problem(graph, costs)
    engine_bounds = problem.assignment_cost_lower_bounds()
    reference = assignment_cost_lower_bounds_reference(graph, costs.as_array())
    for node in graph.nodes:
        assert tuple(engine_bounds[problem.node_idx(node)]) == reference[node]
    assert problem.longest_link_lower_bound() == \
        longest_link_lower_bound_reference(graph, costs.as_array())


def test_lower_bound_is_sound_on_tiny_instances():
    """The degree-based bound never exceeds the brute-force optimum."""
    from repro.testing import brute_force_optimum

    for seed in range(8):
        graph, costs = random_problem(seed, min_nodes=3, max_nodes=4, extra=2)
        problem = compile_problem(graph, costs)
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        assert problem.longest_link_lower_bound() <= optimum + 1e-12


# --------------------------------------------------------------------------- #
# CP solver (its seeded results are pinned in tests/data/cp_golden.json)
# --------------------------------------------------------------------------- #

def test_cp_solver_reports_valid_lower_bound():
    """The reported bound is proven against the *true* costs.

    The solver's default 0.01 rounding grid can round a cost upward, so a
    bound computed on the clustered matrix could exceed the true optimum;
    the reported bound must not (it gates only the clustered threshold loop
    internally).
    """
    from repro.testing import brute_force_optimum

    for seed in range(5):
        graph, costs = random_problem(seed, min_nodes=4, max_nodes=5, extra=2)
        result = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            DeploymentProblem(graph, costs), budget=SearchBudget.seconds(15)
        )
        _, optimum = brute_force_optimum(graph, costs, Objective.LONGEST_LINK)
        assert result.lower_bound is not None
        assert result.lower_bound <= optimum + 1e-12
        assert result.lower_bound <= result.cost + 1e-9


# --------------------------------------------------------------------------- #
# Incremental longest-path vs the full re-relaxation oracle
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_incremental_longest_path_walk_matches_full_rerelaxation(seed):
    """Peeked and applied LP deltas equal a full re-relaxation per move."""
    graph, costs = random_problem(seed, min_nodes=4, max_nodes=9, dag=True)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    reference = problem.random_assignments(1, rng)[0].copy()
    evaluator = problem.delta_evaluator(reference,
                                        Objective.LONGEST_PATH)
    n = problem.num_nodes
    for _ in range(40):
        if rng.random() < 0.5 or n < 2:
            free = evaluator.free_instance_indices()
            if free.size == 0:
                continue
            node = int(rng.integers(n))
            instance = int(free[rng.integers(free.size)])
            peeked = evaluator.relocate_cost(node, instance)
            candidate = reference.copy()
            candidate[node] = instance
            expected = problem.evaluate(candidate, Objective.LONGEST_PATH)
            assert peeked == expected
            assert evaluator.apply_relocate(node, instance) == expected
            reference = candidate
        else:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            peeked = evaluator.swap_cost(a, b)
            candidate = reference.copy()
            candidate[[a, b]] = candidate[[b, a]]
            expected = problem.evaluate(candidate, Objective.LONGEST_PATH)
            assert peeked == expected
            assert evaluator.apply_swap(a, b) == expected
            reference = candidate
        assert evaluator.current_cost == \
            problem.evaluate(reference, Objective.LONGEST_PATH)
