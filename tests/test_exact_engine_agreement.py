"""Engine-vs-oracle agreement for the exact solvers (CP labeling, MIP B&B).

The CP labeling search and the MIP branch and bound route their bound
computation and incumbent scoring through the compiled evaluation engine
(:mod:`repro.core.evaluation`); the dict-walking implementations are kept as
the reference oracle.  These tests pin the contract the rewire relies on:

* labeling bounds (compatibility domains, feasibility pre-checks,
  per-assignment cost lower bounds) computed from ``CompiledProblem`` index
  arrays equal the oracle-derived bounds on random instances;
* branch and bound visits the same node sequence and produces the same
  incumbent trace whether roundings are scored one by one through the model
  or in engine batches;
* the MIP solvers return the plan, cost, node count and trace of an oracle
  rebuilt in the test from the same encoding, scalar roundings and the
  pure-Python objective (a recorded MIP result would move with the SciPy
  release, whose HiGHS may break LP ties differently).

The CP solver's seeded results are pinned in ``tests/data/cp_golden.json``
(see ``test_cp_golden.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    compile_problem,
)
from repro.core.objectives import deployment_cost
from repro.solvers import (
    ConvergenceTrace,
    CPLongestLinkSolver,
    MIPLongestLinkSolver,
    MIPLongestPathSolver,
    SearchBudget,
)
from repro.solvers.cp.labeling import (
    assignment_cost_lower_bounds_reference,
    compatibility_domains,
    compatibility_domains_reference,
    longest_link_lower_bound_reference,
    quick_infeasibility_check,
    quick_infeasibility_check_reference,
)
from repro.solvers.mip import BranchAndBound, DeploymentRounder
from repro.solvers.mip.llndp_mip import LLNDPEncoding
from repro.solvers.mip.lpndp_mip import LPNDPEncoding


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
# MIP branch and bound: batch rounding vs scalar rounding
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [1, 5, 11])
def test_branch_and_bound_same_node_sequence_llndp(seed):
    graph, costs = random_problem(seed, min_nodes=3, max_nodes=4, extra=2)
    scalar_encoding = LLNDPEncoding(graph, costs)
    scalar = BranchAndBound(
        scalar_encoding.model,
        rounding_callback=scalar_encoding.rounding_callback,
        record_nodes=True,
    ).solve(node_limit=150)

    batch_encoding = LLNDPEncoding(graph, costs)
    rounder = DeploymentRounder(batch_encoding, compile_problem(graph, costs),
                                Objective.LONGEST_LINK)
    batch = BranchAndBound(
        batch_encoding.model, batch_rounder=rounder, record_nodes=True,
    ).solve(node_limit=150)

    assert batch.node_sequence == scalar.node_sequence
    assert batch.nodes_explored == scalar.nodes_explored
    assert batch.proven_optimal == scalar.proven_optimal
    assert [c for _, c in batch.incumbent_trace] == \
        [c for _, c in scalar.incumbent_trace]
    assert batch.solution.objective_value == scalar.solution.objective_value
    assert np.array_equal(batch.solution.values, scalar.solution.values)


def test_branch_and_bound_same_node_sequence_lpndp():
    graph = CommunicationGraph.aggregation_tree(2, 1)
    rng = np.random.default_rng(23)
    m = graph.num_nodes + 2
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)

    scalar_encoding = LPNDPEncoding(graph, costs)
    scalar = BranchAndBound(
        scalar_encoding.model,
        rounding_callback=scalar_encoding.rounding_callback,
        record_nodes=True,
    ).solve(node_limit=80)
    batch_encoding = LPNDPEncoding(graph, costs)
    rounder = DeploymentRounder(batch_encoding, compile_problem(graph, costs),
                                Objective.LONGEST_PATH)
    batch = BranchAndBound(
        batch_encoding.model, batch_rounder=rounder, record_nodes=True,
    ).solve(node_limit=80)

    assert batch.node_sequence == scalar.node_sequence
    assert [c for _, c in batch.incumbent_trace] == \
        [c for _, c in scalar.incumbent_trace]
    assert batch.solution.objective_value == scalar.solution.objective_value


def _mip_oracle(encoding_cls, graph, costs, objective, budget):
    """The bnb MIP solve rebuilt from its parts, scored by the oracle.

    The same encoding driven by branch and bound with scalar model-scored
    roundings, decoded, then scored by the pure-Python
    :func:`~repro.core.objectives.deployment_cost`; the trace is assembled
    as the solver assembles it (incumbents, then the final plan).
    """
    encoding = encoding_cls(graph, costs)
    search = BranchAndBound(
        encoding.model, rounding_callback=encoding.rounding_callback,
    ).solve(time_limit_s=budget.time_limit_s, node_limit=5000)
    assert search.solution.values is not None
    plan = encoding.decode(search.solution.values)
    cost = deployment_cost(plan, graph, costs, objective)
    trace = ConvergenceTrace()
    for when, value in search.incumbent_trace:
        trace.record(when, value)
    trace.record(0.0, cost)  # only the trace costs are compared
    return plan, cost, search.nodes_explored, [c for _, c in trace.points]


@pytest.mark.parametrize("seed", [42, 3, 17])
@pytest.mark.parametrize("solver_cls,encoding_cls,objective,graph", [
    (MIPLongestLinkSolver, LLNDPEncoding, Objective.LONGEST_LINK,
     CommunicationGraph.ring(4)),
    (MIPLongestPathSolver, LPNDPEncoding, Objective.LONGEST_PATH,
     CommunicationGraph.aggregation_tree(2, 1)),
], ids=["ll-ring4", "lp-tree"])
def test_mip_solver_matches_scalar_oracle(solver_cls, encoding_cls, objective,
                                          graph, seed):
    rng = np.random.default_rng(seed)
    m = graph.num_nodes + 1
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    budget = SearchBudget.seconds(20)
    result = solver_cls(backend="bnb").solve(
        DeploymentProblem(graph, costs, objective=objective), budget=budget)
    plan, cost, iterations, trace_costs = _mip_oracle(
        encoding_cls, graph, costs, objective, budget)
    assert result.plan.as_dict() == plan.as_dict()
    assert result.cost == cost
    assert result.iterations == iterations
    assert [c for _, c in result.trace] == trace_costs


def test_deployment_rounder_costs_match_model_objective():
    """Batch costs equal what the model would report for the same roundings."""
    graph = CommunicationGraph.ring(5)
    rng = np.random.default_rng(9)
    m = 7
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(m)), matrix)
    encoding = LLNDPEncoding(graph, costs)
    rounder = DeploymentRounder(encoding, compile_problem(graph, costs),
                                Objective.LONGEST_LINK)
    candidates = [rng.random(encoding.model.num_variables) for _ in range(6)]
    batch_costs, assignments = rounder.round_batch(candidates)
    for cost, assignment, values in zip(batch_costs, assignments, candidates):
        vector = encoding.rounding_callback(values)
        assert encoding.model.is_feasible(vector)
        assert float(cost) == encoding.model.evaluate_objective(vector)
        assert np.array_equal(rounder.realize(assignment), vector)


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
