"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    Objective,
    compile_problem,
    deployment_cost,
    kmeans_1d,
    longest_link_cost,
    longest_path_cost,
)
from repro.core.clustering import cluster_costs
from repro.solvers.cp.alldifferent import (
    ValueMatching,
    matching_feasible,
    propagate_assignment,
)
from repro.solvers.cp.domains import DomainStore
from repro.analysis import normalized


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

def cost_matrices(min_size=3, max_size=7):
    """Random symmetric-free cost matrices with positive off-diagonal costs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_size, max_value=max_size))
        values = draw(
            st.lists(st.floats(min_value=0.01, max_value=10.0,
                               allow_nan=False, allow_infinity=False),
                     min_size=n * n, max_size=n * n)
        )
        matrix = np.array(values).reshape(n, n)
        np.fill_diagonal(matrix, 0.0)
        return CostMatrix(list(range(n)), matrix)

    return build()


def dags(min_nodes=2, max_nodes=6):
    """Random DAG communication graphs (edges from lower to higher ids)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    edges.append((i, j))
        return CommunicationGraph(range(n), edges)

    return build()


# --------------------------------------------------------------------------- #
# Deployment plans
# --------------------------------------------------------------------------- #

@given(n_nodes=st.integers(2, 8), extra=st.integers(0, 4), seed=st.integers(0, 1000))
def test_random_plan_always_injective(n_nodes, extra, seed):
    nodes = list(range(n_nodes))
    instances = list(range(100, 100 + n_nodes + extra))
    plan = DeploymentPlan.random(nodes, instances, rng=seed)
    used = plan.used_instances()
    assert len(used) == len(set(used)) == n_nodes
    assert set(used) <= set(instances)


@given(n_nodes=st.integers(2, 8), seed=st.integers(0, 100),
       swaps=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=6))
def test_swaps_preserve_injectivity_and_instances(n_nodes, seed, swaps):
    nodes = list(range(n_nodes))
    instances = list(range(50, 50 + n_nodes))
    plan = DeploymentPlan.random(nodes, instances, rng=seed)
    original_used = set(plan.used_instances())
    for a, b in swaps:
        plan = plan.with_swap(a % n_nodes, b % n_nodes)
    assert set(plan.used_instances()) == original_used


# --------------------------------------------------------------------------- #
# Objectives
# --------------------------------------------------------------------------- #

@given(costs=cost_matrices(), seed=st.integers(0, 500))
def test_longest_path_at_least_longest_link_on_chains(costs, seed):
    n = min(costs.num_instances, 4)
    graph = CommunicationGraph(range(n), [(i, i + 1) for i in range(n - 1)])
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    link = longest_link_cost(plan, graph, costs)
    path = longest_path_cost(plan, graph, costs)
    assert path >= link - 1e-12


@given(graph=dags(), costs=cost_matrices(min_size=6, max_size=8),
       seed=st.integers(0, 500))
def test_longest_path_cost_nonnegative_and_bounded(graph, costs, seed):
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    value = longest_path_cost(plan, graph, costs)
    assert value >= 0.0
    # A path can visit each node at most once, so its cost is bounded by
    # (|V| - 1) times the worst link cost.
    assert value <= (graph.num_nodes - 1) * costs.max_cost() + 1e-9


@given(costs=cost_matrices(min_size=4, max_size=6), seed=st.integers(0, 300))
def test_deployment_cost_invariant_under_node_relabeling(costs, seed):
    """Deployment cost depends on where nodes land, not on node names."""
    graph = CommunicationGraph.ring(4)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    mapping = {0: 10, 1: 11, 2: 12, 3: 13}
    relabeled_graph = graph.relabeled(mapping)
    relabeled_plan = DeploymentPlan({mapping[n]: plan.instance_for(n)
                                     for n in graph.nodes})
    original = deployment_cost(plan, graph, costs, Objective.LONGEST_LINK)
    relabeled = deployment_cost(relabeled_plan, relabeled_graph, costs,
                                Objective.LONGEST_LINK)
    assert original == relabeled


@given(costs=cost_matrices(min_size=4, max_size=7), seed=st.integers(0, 300))
def test_longest_link_is_max_over_used_edges(costs, seed):
    graph = CommunicationGraph.mesh_2d(2, 2)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    expected = max(
        costs.cost(plan.instance_for(i), plan.instance_for(j)) for i, j in graph.edges
    )
    assert longest_link_cost(plan, graph, costs) == expected


# --------------------------------------------------------------------------- #
# Clustering
# --------------------------------------------------------------------------- #

@given(values=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                       max_size=40),
       k=st.integers(1, 8))
@settings(max_examples=60)
def test_kmeans_labels_and_centers_consistent(values, k):
    result = kmeans_1d(values, k)
    assert len(result.labels) == len(values)
    assert result.num_clusters <= k
    assert result.cost >= -1e-9
    # Every value's cluster center lies within the overall value range.
    assert result.centers.min() >= min(values) - 1e-9
    assert result.centers.max() <= max(values) + 1e-9
    # Labels index valid centers.
    assert result.labels.max() < result.num_clusters


@given(values=st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=2,
                       max_size=30),
       k=st.integers(2, 6))
@settings(max_examples=60)
def test_clustering_never_increases_distinct_values(values, k):
    clustered = cluster_costs(values, k, round_to=None)
    assert len(np.unique(clustered)) <= min(k, len(np.unique(values)))
    # The overall mean is preserved exactly (cluster means are weighted means).
    assert float(np.mean(clustered)) == np.mean(values) or abs(
        float(np.mean(clustered)) - float(np.mean(values))
    ) < 1e-6


@given(costs=cost_matrices(min_size=4, max_size=7), k=st.integers(2, 5),
       seed=st.integers(0, 200))
@settings(max_examples=40)
def test_clustered_cost_error_bounded_by_cluster_width(costs, k, seed):
    """Clustering changes any deployment's cost by at most the largest cluster width."""
    graph = CommunicationGraph.ring(4)
    clustered = costs.clustered(k, round_to=None)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    original = longest_link_cost(plan, graph, costs)
    approximated = longest_link_cost(plan, graph, clustered)
    # Bound: the largest absolute difference between a cost and its cluster mean.
    max_shift = float(np.abs(clustered.as_array() - costs.as_array()).max())
    assert abs(original - approximated) <= max_shift + 1e-9


# --------------------------------------------------------------------------- #
# Vectorized evaluation engine vs. the pure-Python oracle
# --------------------------------------------------------------------------- #

@given(graph=dags(), costs=cost_matrices(min_size=6, max_size=8),
       seed=st.integers(0, 500))
@settings(max_examples=60)
def test_vectorized_engine_agrees_with_oracle_on_dags(graph, costs, seed):
    """Single and batch evaluation equal the oracle for both objectives."""
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(seed)
    plans = [DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
             for _ in range(4)]
    for objective in (Objective.LONGEST_LINK, Objective.LONGEST_PATH):
        oracle = [deployment_cost(p, graph, costs, objective) for p in plans]
        assert [problem.evaluate_plan(p, objective) for p in plans] == oracle
        assert list(problem.evaluate_plans(plans, objective)) == oracle


@given(costs=cost_matrices(min_size=5, max_size=8), seed=st.integers(0, 500),
       moves=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                      min_size=1, max_size=8))
@settings(max_examples=60)
def test_delta_evaluator_tracks_oracle_through_swaps(costs, seed, moves):
    """A chain of swap deltas never drifts from full re-evaluation."""
    n = min(costs.num_instances - 1, 4)
    graph = CommunicationGraph(range(n), [(i, i + 1) for i in range(n - 1)])
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng=seed)
    evaluator = compile_problem(graph, costs).delta_evaluator(
        plan, Objective.LONGEST_LINK
    )
    for a, b in moves:
        a, b = a % n, b % n
        plan = plan.with_swap(a, b)
        assert evaluator.apply_swap(a, b) == longest_link_cost(plan, graph, costs)


# --------------------------------------------------------------------------- #
# Matching feasibility (alldifferent)
# --------------------------------------------------------------------------- #

def _injective_completion_exists(domains, variables, used=frozenset()):
    """Brute force: can ``variables`` take pairwise different domain values?"""
    if not variables:
        return True
    var, rest = variables[0], variables[1:]
    return any(value not in used
               and _injective_completion_exists(domains, rest, used | {value})
               for value in domains[var])


@given(seed=st.integers(0, 500), n_vars=st.integers(1, 6), n_vals=st.integers(1, 6))
def test_matching_feasible_iff_permutation_exists(seed, n_vars, n_vals):
    rng = np.random.default_rng(seed)
    domains = {
        v: [int(x) for x in np.nonzero(rng.random(n_vals) < 0.5)[0]]
        for v in range(n_vars)
    }
    feasible = matching_feasible(domains)
    assert feasible == _injective_completion_exists(domains, list(domains))


@given(seed=st.integers(0, 10_000), n_vars=st.integers(1, 7),
       n_vals=st.integers(1, 8),
       ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                              st.integers(0, 7)), max_size=40))
@settings(max_examples=200)
def test_warm_matching_follows_assign_and_restore(seed, n_vars, n_vals, ops):
    """One warm matching answers like a cold check and brute force throughout.

    The domains move the way a search moves them: an assignment (with
    value elimination) or a forward-checking removal pushes a trail mark,
    and an undo restores the latest mark.  A variable may also be left out
    with its value still in other domains (an elimination that stopped at
    a wipeout leaves such values behind).
    """
    rng = np.random.default_rng(seed)
    domains = {}
    for var in range(n_vars):
        values = {int(w) for w in np.nonzero(rng.random(n_vals) < 0.5)[0]}
        domains[var] = values or {int(rng.integers(n_vals))}
    store = DomainStore(domains)
    assignment = {}
    matching = ValueMatching(store.domains, assignment)
    marks = []
    for kind, a, b in [(None, 0, 0)] + ops:
        var = a % n_vars
        if kind in (0, 3) and var not in assignment and store.size(var):
            value = sorted(store.domain(var))[b % store.size(var)]
            marks.append((var, store.checkpoint()))
            store.assign(var, value)
            assignment[var] = value
            if kind == 0:
                propagate_assignment(store, var, value)
        elif kind == 1 and marks:
            undone, mark = marks.pop()
            assignment.pop(undone, None)
            store.restore(mark)
        elif kind == 2 and var not in assignment:
            marks.append((None, store.checkpoint()))
            store.remove(var, b % n_vals)
        unassigned = [v for v in range(n_vars) if v not in assignment]
        cold = matching_feasible({v: set(store.domain(v)) for v in unassigned})
        brute = _injective_completion_exists(store.domains, unassigned)
        assert matching_feasible(matching) == cold == brute


# --------------------------------------------------------------------------- #
# Normalization
# --------------------------------------------------------------------------- #

@given(values=st.lists(st.floats(0.001, 100.0, allow_nan=False), min_size=1,
                       max_size=50),
       scale=st.floats(0.1, 10.0, allow_nan=False))
def test_normalization_removes_uniform_scaling(values, scale):
    """A uniform measurement bias disappears after unit-norm normalisation."""
    base = normalized(values)
    scaled = normalized([v * scale for v in values])
    assert np.allclose(base, scaled, rtol=1e-9, atol=1e-12)

