"""Speed of the vectorized evaluation engine on paper-scale instances.

Not a figure from the paper: this benchmark quantifies the engine that makes
the solvers viable at the paper's scale (100+ application nodes,
over-allocated instance pools).  It compares, on an n = 100 problem:

* scoring random plans through the batch evaluator versus looping
  ``deployment_cost`` over the same plans (both objectives);
* scoring swap moves through the incremental ``DeltaEvaluator`` versus full
  re-evaluation of each candidate plan (longest link);
* an applied longest-path swap walk on a deep layered DAG through the
  incremental delta (only the affected nodes recomputed, in level order)
  versus a full vectorized re-relaxation per move;
* a mostly-rejected longest-path peek walk through ``swap_cost`` versus
  the full-suffix re-relaxation peek it replaced;
* block-scored neighborhood peeks: scoring candidate-move blocks through
  ``DeltaEvaluator.peek_many`` versus the per-move NumPy peek it replaced
  in the search loops (longest link, the one objective ``peek_many``
  scores);
* local-search move proposals on the n = 300 mesh: the samplers decoding
  raw PCG64 words against the cached free-instance array versus the
  per-draw sampler they replaced (an occupancy scan and NumPy
  ``Generator`` calls per proposal);
* a first-improvement longest-path descent on a 1,000-node layered DAG
  that peeks only the swaps moving a node of the critical witness
  (``DeltaEvaluator.witness_nodes``) versus the same descent peeking
  every swap;
* one G2 greedy construction on the n = 100 mesh through the vectorized
  step kernel (one score matrix and ``argmin`` per step) versus the
  per-(frontier instance, unmapped neighbor) loop it replaced;
* the CP labeling bounds (compatibility domains and per-assignment cost
  lower bounds) computed from ``CompiledProblem`` index arrays versus the
  dict-walking reference implementations;
* the ``alldifferent`` matching checks of a seeded CP solve on the n = 100
  mesh: the matching kept across the checks of each search versus the
  from-scratch recursive Kuhn check it replaced;
* ``kmeans_1d`` cost clustering at k = 20 of a 110-instance matrix on the
  0.01 ms grid: NumPy-scored DP rows versus the scalar DP loop;
* the live re-deployment hot path: adopting a drifted cost matrix through
  an engine derived by ``CompiledProblem.refresh_costs`` versus a full
  recompile, and a warm re-solve (local search started from the incumbent
  plan, stopping at the cold solve's cost) versus a cold re-solve of the
  drifted instance;
* the durable result store: serving an already-solved revision from the
  SQLite WAL store (one indexed lookup + JSON decode) versus re-running
  the solver on the same fingerprint;
* the serving layer's dedup submit path: a repeated request through
  ``AdvisorApp.submit_solve`` (store short-circuit + plan validation)
  versus the cold queue -> worker -> solve -> write-back round trip.

Every comparison also asserts the results agree exactly, so the speedup is
never bought with a drifting objective.

The report is written to ``benchmarks/results/evaluation_engine.txt`` in a
stable format: the human-readable table is followed by ``speedup <key>
<value>`` lines that ``benchmarks/check_thresholds.py`` parses and checks
against the floors committed in ``benchmarks/thresholds.json`` (the CI
``bench`` job fails when any tracked ratio regresses).

Run via pytest (``python -m pytest benchmarks/bench_evaluation_engine.py -s``)
or directly (``PYTHONPATH=src python benchmarks/bench_evaluation_engine.py``).
The candidate counts can be reduced for quick runs through the
``EVAL_BENCH_PLANS`` / ``EVAL_BENCH_MOVES`` / ``EVAL_BENCH_CONSTRAINED``
environment variables (the problem sizes stay fixed so the tracked ratios
remain comparable).
"""

import json
import os
import pathlib
import tempfile
import time
from typing import Dict, List, Set
from unittest import mock

import numpy as np

from repro.core import (
    ClusteringResult,
    CommunicationGraph,
    CompiledProblem,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    MoveBatch,
    Objective,
    PlacementConstraints,
    compile_problem,
    deployment_cost,
    kmeans_1d,
)
from repro.solvers import CPLongestLinkSolver, GreedyG2, SearchBudget, SwapLocalSearch
from repro.solvers.cp import matching_feasible, subgraph
from repro.solvers.local_search import _draws, _propose_move
from repro.solvers.cp.labeling import (
    assignment_cost_lower_bounds_reference,
    compatibility_domains,
    compatibility_domains_reference,
)
from repro.api.schema import SolveRequest
from repro.serve import PRIORITY_INTERACTIVE, ServeConfig, create_app
from repro.store import SQLiteResultCache

NUM_NODES = 100
NUM_INSTANCES = 110  # 10 % over-allocation, as in the paper's experiments
NUM_PLANS = int(os.environ.get("EVAL_BENCH_PLANS", 10_000))
NUM_MOVES = int(os.environ.get("EVAL_BENCH_MOVES", 10_000))
NUM_CONSTRAINED = int(os.environ.get("EVAL_BENCH_CONSTRAINED", 500))
SEED = 2012

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "evaluation_engine.txt"
THRESHOLDS_PATH = pathlib.Path(__file__).parent / "thresholds.json"


def build_problem(objective, num_nodes=NUM_NODES, num_instances=NUM_INSTANCES):
    rng = np.random.default_rng(SEED)
    matrix = rng.uniform(0.2, 1.4, size=(num_instances, num_instances))
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(num_instances)), matrix)
    if objective is Objective.LONGEST_PATH:
        graph = CommunicationGraph.random_dag(num_nodes, 0.05, seed=SEED)
    else:
        graph = CommunicationGraph.random_graph(num_nodes, 0.05, seed=SEED)
    return graph, costs


def _best_of(repeats, fn):
    """Fastest of ``repeats`` timed runs (standard noise suppression)."""
    best_s, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, result


def bench_batch(objective, repeats=3):
    """(loop_s, batch_s, speedup) for scoring NUM_PLANS random plans."""
    graph, costs = build_problem(objective)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(SEED + 1)
    plans = [DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
             for _ in range(NUM_PLANS)]

    loop_s, looped = _best_of(1, lambda: [
        deployment_cost(plan, graph, costs, objective) for plan in plans
    ])
    batch_s, batched = _best_of(repeats,
                                lambda: problem.evaluate_plans(plans, objective))

    assert looped == list(batched), "batch evaluator disagrees with oracle"
    return graph, loop_s, batch_s, loop_s / batch_s


def bench_deltas():
    """(full_s, delta_s, speedup) for scoring NUM_MOVES swap candidates."""
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = compile_problem(graph, costs)
    rng = np.random.default_rng(SEED + 2)
    plan = DeploymentPlan.random(graph.nodes, costs.instance_ids, rng)
    swaps = [tuple(rng.choice(NUM_NODES, size=2, replace=False))
             for _ in range(NUM_MOVES)]

    start = time.perf_counter()
    full_costs = []
    reference = plan
    for a, b in swaps:
        reference = reference.with_swap(int(a), int(b))
        full_costs.append(
            deployment_cost(reference, graph, costs, Objective.LONGEST_LINK))
    full_s = time.perf_counter() - start

    def run_deltas():
        evaluator = problem.delta_evaluator(plan, Objective.LONGEST_LINK)
        return [evaluator.apply_swap(int(a), int(b)) for a, b in swaps]

    delta_s, delta_costs = _best_of(3, run_deltas)

    assert full_costs == delta_costs, "delta evaluator disagrees with oracle"
    return full_s, delta_s, full_s / delta_s


def _layered_dag(num_layers=60, width=3, edge_prob=0.6, seed=SEED):
    """A pipeline-shaped DAG: ``num_layers`` layers of ``width`` nodes.

    Each node links to the next layer's nodes with probability
    ``edge_prob`` — the deep-and-narrow topology of streaming / dataflow
    deployments, and the regime where the incremental longest-path delta
    pays off most (a full re-relaxation walks all ~``num_layers`` levels
    per move while a swap only perturbs the few nodes it reaches).
    """
    rng = np.random.default_rng(seed)
    edges = []
    for layer in range(num_layers - 1):
        for a in range(width):
            for b in range(width):
                if rng.random() < edge_prob:
                    edges.append((layer * width + a, (layer + 1) * width + b))
    return CommunicationGraph(list(range(num_layers * width)), edges)


def bench_incremental_lp():
    """(full_s, delta_s, speedup) for an applied longest-path swap walk.

    The tracked scenario is local search on a deep layered DAG (180 nodes,
    59 levels): every move is peeked and committed.  The baseline is what
    ``DeltaEvaluator`` did for ``LONGEST_PATH`` before the incremental
    delta landed — a full vectorized re-relaxation of the whole DAG per
    candidate (``CompiledProblem.evaluate`` on the swapped assignment).
    The incremental path recomputes, in level order, only the nodes
    whose longest path a swap can change: the moved nodes and the
    successors of every node that moved or changed.  Both walks must
    produce the exact same cost sequence.
    """
    graph = _layered_dag()
    n = graph.num_nodes
    rng = np.random.default_rng(SEED)
    matrix = rng.uniform(0.2, 1.4, size=(n + 10, n + 10))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(n + 10)), matrix)
    problem = compile_problem(graph, costs)

    move_rng = np.random.default_rng(0)
    start = problem.random_assignments(1, move_rng)[0]
    swaps = [tuple(int(x) for x in move_rng.choice(n, size=2, replace=False))
             for _ in range(NUM_MOVES)]

    def full_walk():
        ref = start.copy()
        walk_costs = []
        for a, b in swaps:
            ref[[a, b]] = ref[[b, a]]
            walk_costs.append(problem.evaluate(ref, Objective.LONGEST_PATH))
        return walk_costs

    def delta_walk():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_PATH)
        return [evaluator.apply_swap(a, b) for a, b in swaps]

    full_s, full_costs = _best_of(3, full_walk)
    delta_s, delta_costs = _best_of(3, delta_walk)

    assert full_costs == delta_costs, \
        "incremental longest-path walk disagrees with full re-relaxation"
    return graph, full_s, delta_s, full_s / delta_s


def bench_peeked_lp():
    """(full_s, delta_s, speedup) for a mostly-rejected longest-path walk.

    The local-search reality: most peeked moves are rejected, so the peek
    itself is the hot operation.  The baseline is the peek the
    ``DeltaEvaluator`` performed before its sparse rewrite — copy the
    committed ``finish`` list (O(n)), recost the touched edges, re-relax
    *every* node at levels >= the lowest moved node's through
    ``struct.in_edges``, and take ``max(finish)`` over all nodes (O(n)).
    The measured path is ``swap_cost``: a version-stamped overlay
    instead of a copy, only the affected nodes recomputed, and the cost
    taken as ``max(current cost, changed values)`` (one C-level
    ``max(finish)`` only when a node at the current cost dropped).  Both
    walks commit the same occasional move (1 in 25, the accepted ones)
    and must produce the exact same cost sequence.

    The tracked topology is wide-and-layered (12 layers x 40 nodes): with
    many nodes per level, a swap's perturbation washes out within a level
    or two (successors keep their maxima from unmoved predecessors), so
    the true frontier is tiny while the baseline still re-relaxes every
    node from the touched level to the sink.  (On deep-and-narrow DAGs
    the frontier *is* the suffix and the two peeks converge — that regime
    is tracked by ``incremental_longest_path`` above.)
    """
    graph = _layered_dag(num_layers=12, width=40, edge_prob=0.08)
    n = graph.num_nodes
    rng = np.random.default_rng(SEED)
    matrix = rng.uniform(0.2, 1.4, size=(n + 10, n + 10))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    costs = CostMatrix(list(range(n + 10)), matrix)
    problem = compile_problem(graph, costs)

    move_rng = np.random.default_rng(0)
    start = problem.random_assignments(1, move_rng)[0]
    swaps = [tuple(int(x) for x in move_rng.choice(n, size=2, replace=False))
             for _ in range(NUM_MOVES)]
    committed = [k % 25 == 24 for k in range(NUM_MOVES)]

    struct = problem._lp_delta_structure()
    levels, order = struct.levels, struct.order
    in_edges, out_edges = struct.in_edges, struct.out_edges
    item = problem.cost_array.item

    def full_suffix_walk():
        asg = start.tolist()
        ec = problem.edge_costs(start).tolist()
        finish = [0.0] * n
        for v in order:
            best = 0.0
            for u, e in in_edges[v]:
                cand = finish[u] + ec[e]
                if cand > best:
                    best = cand
            finish[v] = best
        walk_costs = []
        for (a, b), commit in zip(swaps, committed):
            ia, ib = asg[a], asg[b]
            moves = {a: ib, b: ia}
            overrides = {}
            for v, inst in moves.items():
                for w, e in out_edges[v]:
                    wi = moves.get(w)
                    overrides[e] = item(inst, asg[w] if wi is None else wi)
                for u, e in in_edges[v]:
                    if u not in moves:
                        overrides[e] = item(asg[u], inst)
            lo = min(levels[a], levels[b])
            finish2 = finish.copy()  # the O(n) copy the old peek paid
            for v in order:
                if levels[v] < lo:
                    continue
                best = 0.0
                for u, e in in_edges[v]:
                    c = overrides.get(e)
                    cand = finish2[u] + (ec[e] if c is None else c)
                    if cand > best:
                        best = cand
                finish2[v] = best
            walk_costs.append(max(finish2))  # ... and the O(n) max
            if commit:
                asg[a], asg[b] = ib, ia
                for e, c in overrides.items():
                    ec[e] = c
                finish = finish2
        return walk_costs

    def peek_walk():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_PATH)
        walk_costs = []
        for (a, b), commit in zip(swaps, committed):
            walk_costs.append(evaluator.swap_cost(a, b))
            if commit:
                evaluator.apply_swap(a, b)
        return walk_costs

    full_s, full_costs = _best_of(3, full_suffix_walk)
    delta_s, delta_costs = _best_of(3, peek_walk)

    assert full_costs == delta_costs, \
        "swap_cost peek disagrees with the full-suffix re-relaxation"
    return graph, full_s, delta_s, full_s / delta_s


def per_move_swap_cost(evaluator, incident, node_a, node_b):
    """The longest-link swap peek the batch kernel replaced in the search loops.

    One NumPy pass per move, as ``DeltaEvaluator.swap_cost`` scored
    longest link before its edge-list scan: the sorted union of the moved
    nodes' incident edge ids (``incident``, one array per node), their
    endpoint instances with the moved nodes overridden, one fancy-indexed
    cost gather, and the untouched maximum recomputed by a masked max when
    a touched edge carries the committed maximum.  Frozen here, like
    ``per_draw_propose_move`` and ``PerPairG2``, so the
    ``neighborhood_batch`` ratio does not move when the live serial peek
    gets faster.
    """
    problem = evaluator.problem
    assignment = evaluator.assignment
    moves = {node_a: int(assignment[node_b]), node_b: int(assignment[node_a])}
    touched = np.unique(np.concatenate([incident[node] for node in moves]))
    if touched.size == 0:
        return evaluator.current_cost
    src = assignment[problem.edge_src[touched]]
    dst = assignment[problem.edge_dst[touched]]
    for node, instance in moves.items():
        src[problem.edge_src[touched] == node] = instance
        dst[problem.edge_dst[touched] == node] = instance
    new_costs = problem.cost_array[src, dst]
    edge_costs = evaluator._edge_costs  # the committed edge costs
    untouched = evaluator.current_cost
    if float(edge_costs[touched].max()) >= untouched:
        mask = np.ones(problem.num_edges, dtype=bool)
        mask[touched] = False
        remaining = edge_costs[mask]
        untouched = float(remaining.max()) if remaining.size else 0.0
    return max(untouched, float(new_costs.max()))


def bench_neighborhood_batch(block=64):
    """Block-scored move peeks versus the per-move NumPy peek.

    The tracked comparison (``neighborhood_batch``) is the search solvers'
    hot loop before and after the vectorized neighborhood kernel: scoring
    candidate swap moves one at a time through the frozen
    :func:`per_move_swap_cost` versus scoring the same moves in
    solver-sized blocks through ``DeltaEvaluator.peek_many``, longest link
    at paper scale.  Longest path has no row here: ``peek_many`` refuses
    it, and its solvers peek one move at a time.  Both paths, and the
    live serial ``swap_cost``, must produce bit-identical cost arrays.

    Returns ``(graph, loop_s, batch_s, speedup)``.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = compile_problem(graph, costs)
    move_rng = np.random.default_rng(SEED + 22)
    start = problem.random_assignments(1, move_rng)[0]
    num_moves = min(NUM_MOVES, 4096)
    swaps = [tuple(int(x) for x in move_rng.choice(NUM_NODES, size=2,
                                                   replace=False))
             for _ in range(num_moves)]
    batches = [
        MoveBatch.from_moves([("swap", a, b) for a, b in swaps[i:i + block]])
        for i in range(0, num_moves, block)
    ]
    incident = [row[row >= 0] for row in problem._incident_padded()]

    def per_move_loop():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
        return np.asarray([per_move_swap_cost(evaluator, incident, a, b)
                           for a, b in swaps])

    def batched():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
        return np.concatenate(
            [evaluator.peek_many(batch) for batch in batches])

    loop_s, loop_costs = _best_of(3, per_move_loop)
    batch_s, batch_costs = _best_of(3, batched)
    assert np.array_equal(loop_costs, batch_costs), \
        "batched move peeks disagree with the per-move loop"
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)
    assert np.array_equal(
        [evaluator.swap_cost(a, b) for a, b in swaps], batch_costs), \
        "batched move peeks disagree with the serial swap_cost"
    return graph, loop_s, batch_s, loop_s / batch_s


def per_draw_propose_move(evaluator, rng):
    """The unconstrained local-search sampler before raw-word draws.

    Rescans the occupancy for free instances on every draw (as
    ``free_instance_indices()`` did before the evaluator kept the array)
    and draws through the NumPy ``Generator`` calls, ``rng.choice`` for
    swaps, in the documented order.
    """
    n_nodes = evaluator.problem.num_nodes
    free = np.flatnonzero(evaluator._node_of_instance < 0)
    if n_nodes < 2:
        if not free.size:
            return None
        return ("relocate", 0, int(free[int(rng.integers(free.size))]))
    if free.size and rng.random() < 0.3:
        node = int(rng.integers(n_nodes))
        target = int(free[int(rng.integers(free.size))])
        return ("relocate", node, target)
    a, b = rng.choice(n_nodes, size=2, replace=False)
    return ("swap", int(a), int(b))


def bench_move_proposals(repeats=3):
    """(reference_s, draws_s, speedup) for NUM_MOVES local-search proposals.

    A 15x20 mesh (n = 300, m = 330), the size of the ``ls-*-300`` classes
    of the end-to-end search-ll workload, at a fixed assignment.  Both
    samplers start from the same seed and must propose the same moves and
    leave the generator in the same state.
    """
    rng = np.random.default_rng(SEED + 31)
    m = 330
    matrix = rng.uniform(0.2, 1.4, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    problem = compile_problem(CommunicationGraph.mesh_2d(15, 20),
                              CostMatrix(list(range(m)), matrix))
    start = problem.random_assignments(1, rng)[0]
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK)

    def per_draw():
        gen = np.random.default_rng(SEED + 32)
        moves = [per_draw_propose_move(evaluator, gen)
                 for _ in range(NUM_MOVES)]
        return moves, gen.bit_generator.state

    def raw_words():
        gen = np.random.default_rng(SEED + 32)
        draws = _draws(gen)
        free = evaluator.free_instance_indices()
        moves = [_propose_move(evaluator, draws, free)
                 for _ in range(NUM_MOVES)]
        draws.sync()
        return moves, gen.bit_generator.state

    reference_s, reference = _best_of(repeats, per_draw)
    draws_s, drawn = _best_of(repeats, raw_words)
    assert drawn == reference, \
        "raw-word proposals disagree with the per-draw sampler"
    return reference_s, draws_s, reference_s / draws_s


def first_improvement_descent(evaluator, swaps):
    """A first-improvement descent that peeks every proposal.

    Walks ``swaps`` in order, peeks each through ``swap_cost`` and commits
    it when it lowers the current cost, as local search did before its
    critical-witness screen.  Frozen here, like ``per_move_swap_cost``, so
    the ``screened_local_search`` ratio measures the screen alone.
    Returns the accepted ``(proposal index, cost)`` sequence.
    """
    accepted = []
    for k, (a, b) in enumerate(swaps):
        cost = evaluator.swap_cost(a, b)
        if cost < evaluator.current_cost:
            evaluator.apply_swap(a, b)
            accepted.append((k, cost))
    return accepted


def bench_screened_local_search(repeats=3):
    """(peek_all_s, screened_s, speedup) for a longest-path descent.

    A 1,000-node layered DAG (25 layers of 40 nodes, the ``ls-dag-1000``
    size of the end-to-end search-lp workload) on 1,100 instances, from
    a random plan, over NUM_MOVES pre-drawn swaps.  The reference,
    :func:`first_improvement_descent`, peeks every swap; the screened
    descent peeks only the swaps that move a node of
    ``DeltaEvaluator.witness_nodes()``, since no other swap can lower the
    cost.  Both must accept the same swaps at the same costs.
    """
    graph = _layered_dag(num_layers=25, width=40, edge_prob=0.04)
    n = graph.num_nodes
    rng = np.random.default_rng(SEED + 41)
    m = n + n // 10
    matrix = rng.uniform(0.2, 1.4, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    problem = compile_problem(graph, CostMatrix(list(range(m)), matrix))
    start = problem.random_assignments(1, rng)[0]
    swaps = [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
             for _ in range(NUM_MOVES)]

    def peek_all():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_PATH)
        return first_improvement_descent(evaluator, swaps)

    def screened():
        evaluator = problem.delta_evaluator(start, Objective.LONGEST_PATH)
        accepted = []
        for k, (a, b) in enumerate(swaps):
            witness = evaluator.witness_nodes()
            if a not in witness and b not in witness:
                continue
            cost = evaluator.swap_cost(a, b)
            if cost < evaluator.current_cost:
                evaluator.apply_swap(a, b)
                accepted.append((k, cost))
        return accepted

    peek_all_s, reference = _best_of(repeats, peek_all)
    screened_s, accepted = _best_of(repeats, screened)
    assert accepted == reference, \
        "the screened descent accepted other moves than peeking every swap"
    return peek_all_s, screened_s, peek_all_s / screened_s


class PerPairG2(GreedyG2):
    """G2 with the candidate scan it ran before the vectorized step kernel.

    Every step rescans the partial deployment for frontier instances and
    runs one NumPy pass per (frontier instance, unmapped neighbor) pair:
    a gather of the explicit link costs, one ``np.maximum`` per mapped
    neighbor of the candidate node, and an ``argmin`` kept on strict
    improvement.  The state keeps no implicit-cost table for it
    (``implicit_links = False``): this loop charges the implicit links
    itself.
    """

    implicit_links = False

    def _best_candidate(self, state):
        graph, problem = state.graph, state.problem
        cost_array = problem.cost_array
        free_list = list(state.unused_instances)
        if not free_list:
            return None
        free_idx = np.fromiter((problem.instance_idx(v) for v in free_list),
                               dtype=np.intp, count=len(free_list))
        best_cost, best = float("inf"), None
        for u, anchor in state.instance_to_node.items():
            u_idx = problem.instance_idx(u)
            for w in graph.neighbors(anchor):
                if w not in state.unmapped_nodes:
                    continue
                w_free_idx = state.allowed_unused_idx(w, free_idx)
                if not w_free_idx.size:
                    continue
                candidate = cost_array[u_idx, w_free_idx].copy()
                for x in graph.successors(w):
                    mapped = state.node_to_instance.get(x)
                    if mapped is not None:
                        np.maximum(candidate, cost_array[
                            w_free_idx, problem.instance_idx(mapped)],
                            out=candidate)
                for x in graph.predecessors(w):
                    mapped = state.node_to_instance.get(x)
                    if mapped is not None:
                        np.maximum(candidate, cost_array[
                            problem.instance_idx(mapped), w_free_idx],
                            out=candidate)
                k = int(np.argmin(candidate))
                if candidate[k] < best_cost:
                    best_cost = float(candidate[k])
                    best = (w, problem.instance_ids[int(w_free_idx[k])])
        return best


def bench_greedy_g2(repeats=3):
    """(loop_s, kernel_s, speedup) for one G2 construction on a 10x10 mesh.

    The paper's behavioural-simulation graph at n = 100 (m = 110), the
    G2 class of the end-to-end search-ll workload.  Both paths must build
    the same plan with the same cost and step count.
    """
    rng = np.random.default_rng(SEED + 6)
    matrix = rng.uniform(0.2, 1.4, size=(NUM_INSTANCES, NUM_INSTANCES))
    np.fill_diagonal(matrix, 0.0)
    problem = DeploymentProblem(
        CommunicationGraph.mesh_2d(10, 10),
        CostMatrix(list(range(NUM_INSTANCES)), matrix))
    loop_s, loop = _best_of(repeats, lambda: PerPairG2().solve(problem))
    kernel_s, kernel = _best_of(repeats, lambda: GreedyG2().solve(problem))
    assert kernel.plan.as_dict() == loop.plan.as_dict(), \
        "vectorized G2 step disagrees with the per-pair loop"
    assert (kernel.cost, kernel.iterations) == (loop.cost, loop.iterations)
    return loop_s, kernel_s, loop_s / kernel_s


def bench_cp_bounds(repeats=5):
    """CP labeling bounds: engine index arrays versus the dict-walking oracle.

    Returns ``(domains_ref_s, domains_vec_s, lb_ref_s, lb_vec_s)`` measured
    at the paper scale (n=100 nodes, m=110 instances, a mid-range cost
    threshold) — the computation every threshold iteration of the CP solver
    repeats.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = compile_problem(graph, costs)
    matrix = costs.as_array()
    off_diagonal = matrix[~np.eye(NUM_INSTANCES, dtype=bool)]
    threshold = float(np.quantile(off_diagonal, 0.6))
    allowed = problem.threshold_adjacency(threshold)

    ref_s, reference = _best_of(
        repeats, lambda: compatibility_domains_reference(graph, allowed))
    vec_s, vectorized = _best_of(
        repeats, lambda: compatibility_domains(graph, allowed, problem=problem))
    assert vectorized == reference, "vectorized domains disagree with oracle"

    lb_ref_s, reference_lb = _best_of(
        repeats, lambda: assignment_cost_lower_bounds_reference(graph, matrix))

    # Fresh (uncached) compilations built outside the timed region, one per
    # repeat, so each timed call computes the bounds from cold caches
    # without poking private CompiledProblem attributes.
    fresh_problems = [CompiledProblem(graph, costs) for _ in range(repeats)]

    def engine_lb():
        return fresh_problems.pop().assignment_cost_lower_bounds()

    lb_vec_s, vectorized_lb = _best_of(repeats, engine_lb)
    for node in graph.nodes:
        assert tuple(vectorized_lb[problem.node_idx(node)]) == reference_lb[node], \
            "vectorized assignment bounds disagree with oracle"
    return ref_s, vec_s, lb_ref_s, lb_vec_s


def kuhn_matching_feasible(domains):
    """The ``alldifferent`` check before the kept matching (reference).

    Kuhn's augmenting-path algorithm from an empty matching on every call,
    one recursion level per variable of an alternating chain.
    """
    variables = list(domains)
    variables.sort(key=lambda v: len(list(domains[v])))

    match_of_value: Dict[int, object] = {}
    match_of_var: Dict[object, int] = {}

    def try_augment(var, visited: Set[int]) -> bool:
        for value in domains[var]:
            if value in visited:
                continue
            visited.add(value)
            owner = match_of_value.get(value)
            if owner is None or try_augment(owner, visited):
                match_of_value[value] = var
                match_of_var[var] = value
                return True
        return False

    for var in variables:
        if not try_augment(var, set()):
            return False
    return True


def _rack_cost_matrix(rng, m):
    """Round-trip costs over a rack/pod hierarchy with log-normal spread."""
    rack = rng.integers(0, max(2, m // 8), size=m)
    pod = rack // 4
    base = np.where(rack[:, None] == rack[None, :], 0.25,
                    np.where(pod[:, None] == pod[None, :], 0.45, 0.70))
    slow = np.where(rng.random(m) < 0.1, 1.6, 1.0)
    matrix = (base * rng.lognormal(0.0, 0.25, size=(m, m))
              * np.sqrt(slow[:, None] * slow[None, :]))
    np.fill_diagonal(matrix, 0.0)
    return CostMatrix(list(range(m)), matrix)


def bench_cp_matching(repeats=3):
    """(kuhn_s, kept_s, speedup, checks) for the matching checks of a CP solve.

    One seeded CP solve of a 10x10 mesh on 110 rack/pod instances (the
    ``cp-mesh-100`` class of the end-to-end search-ll workload, 300
    backtracks per search), run once answering every ``alldifferent``
    check through the from-scratch recursive Kuhn and once through the
    matching each search keeps.  Only the time inside the checks counts;
    the Kuhn side gets the fresh dict of unassigned domains its search
    used to build, made outside its timer.  The answers must agree check
    for check, so both solves take the same path.
    """
    rng = np.random.default_rng(SEED + 40)
    problem = DeploymentProblem(CommunicationGraph.mesh_2d(10, 10),
                                _rack_cost_matrix(rng, NUM_INSTANCES))

    def checks(prepare, check):
        spent, answers = 0.0, []

        def timed_check(matching):
            nonlocal spent
            argument = prepare(matching)
            start = time.perf_counter()
            answer = check(argument)
            spent += time.perf_counter() - start
            answers.append(answer)
            return answer

        with mock.patch.object(subgraph, "matching_feasible", timed_check):
            CPLongestLinkSolver(seed=1, max_backtracks_per_iteration=300).solve(
                problem, budget=SearchBudget.unlimited())
        return spent, answers

    kuhn_s, kept_s = float("inf"), float("inf")
    for _ in range(repeats):
        spent, reference = checks(dict, kuhn_matching_feasible)
        kuhn_s = min(kuhn_s, spent)
        spent, kept = checks(lambda matching: matching, matching_feasible)
        kept_s = min(kept_s, spent)
        assert kept == reference, "kept matching disagrees with Kuhn's check"
    return kuhn_s, kept_s, kuhn_s / kept_s, len(reference)


def kmeans_1d_loop(values, k):
    """``kmeans_1d`` with the scalar DP loop it ran before NumPy rows (reference).

    One ``segment_cost`` call per (clusters, end, split) triple, keeping a
    split only when its candidate is strictly smaller.
    """
    data = np.asarray(list(values), dtype=float)
    distinct = np.unique(data)
    n = distinct.size
    k_eff = min(k, n)
    if k_eff == n:
        return ClusteringResult(centers=distinct,
                                labels=np.searchsorted(distinct, data), cost=0.0)

    counts = np.array([np.count_nonzero(data == v) for v in distinct], dtype=float)
    prefix_count = np.concatenate(([0.0], np.cumsum(counts)))
    prefix_sum = np.concatenate(([0.0], np.cumsum(counts * distinct)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(counts * distinct ** 2)))

    def segment_cost(lo, hi):
        cnt = prefix_count[hi] - prefix_count[lo]
        total = prefix_sum[hi] - prefix_sum[lo]
        total_sq = prefix_sq[hi] - prefix_sq[lo]
        return float(total_sq - (total * total) / cnt)

    inf = float("inf")
    dp = np.full((k_eff + 1, n + 1), inf)
    split = np.zeros((k_eff + 1, n + 1), dtype=int)
    dp[0][0] = 0.0
    for c in range(1, k_eff + 1):
        for i in range(c, n + 1):
            best, best_j = inf, c - 1
            for j in range(c - 1, i):
                candidate = dp[c - 1][j] + segment_cost(j, i)
                if candidate < best:
                    best, best_j = candidate, j
            dp[c][i] = best
            split[c][i] = best_j

    boundaries: List[int] = [n]
    i = n
    for c in range(k_eff, 0, -1):
        i = split[c][i]
        boundaries.append(i)
    boundaries.reverse()
    centers = np.empty(k_eff)
    distinct_labels = np.empty(n, dtype=int)
    for c in range(k_eff):
        lo, hi = boundaries[c], boundaries[c + 1]
        cnt = prefix_count[hi] - prefix_count[lo]
        centers[c] = (prefix_sum[hi] - prefix_sum[lo]) / cnt
        distinct_labels[lo:hi] = c
    labels = distinct_labels[np.searchsorted(distinct, data)]
    return ClusteringResult(centers=centers, labels=labels, cost=float(dp[k_eff][n]))


def bench_cp_clustering(repeats=3):
    """(loop_s, rows_s, speedup, distinct) for the CP solver's cost clustering.

    ``kmeans_1d`` at the solver's default k = 20 over the off-diagonal
    costs of a 110-instance matrix rounded to the paper's 0.01 ms grid,
    the clustering every CP solve starts with.  Centers, labels and
    ``repr(cost)`` must be identical.
    """
    rng = np.random.default_rng(SEED + 41)
    matrix = rng.uniform(0.2, 1.4, size=(NUM_INSTANCES, NUM_INSTANCES))
    values = matrix[~np.eye(NUM_INSTANCES, dtype=bool)]
    values = np.round(values / 0.01) * 0.01
    loop_s, reference = _best_of(repeats, lambda: kmeans_1d_loop(values, 20))
    rows_s, result = _best_of(repeats, lambda: kmeans_1d(values, 20))
    assert result.centers.tobytes() == reference.centers.tobytes(), \
        "NumPy DP rows disagree with the scalar loop"
    assert np.array_equal(result.labels, reference.labels)
    assert repr(result.cost) == repr(reference.cost)
    return loop_s, rows_s, loop_s / rows_s, int(np.unique(values).size)


def bench_constrained_solve(repeats=3):
    """Feasible candidate generation: native mask sampling vs repair.

    Constraint-aware solvers draw feasible candidates directly from the
    compiled allowed mask; before the lowering, every candidate was drawn
    constraint-blind and pushed through the matching-based
    ``PlacementConstraints.repair``.  This times both ways of producing
    ``NUM_CONSTRAINED`` feasible plans on the tracked n=100 instance under
    a mixed pin + forbidden constraint set, asserting every plan on both
    paths is actually feasible.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    rng = np.random.default_rng(SEED + 4)
    pinned = {0: 104, 7: 9}
    forbidden = {
        int(node): set(int(x) for x in rng.choice(NUM_INSTANCES, size=30,
                                                  replace=False)) - {104, 9}
        for node in rng.choice(NUM_NODES, size=12, replace=False)
        if int(node) not in pinned
    }
    constraints = PlacementConstraints(pinned=pinned, forbidden=forbidden)
    problem = DeploymentProblem(graph, costs, constraints=constraints)
    engine = problem.compiled()
    view = problem.compiled_constraints()
    instance_ids = list(costs.instance_ids)

    def native_path():
        assignments = view.random_assignments(
            NUM_CONSTRAINED, np.random.default_rng(SEED + 5))
        return engine.evaluate_batch(assignments, Objective.LONGEST_LINK), \
            assignments

    def repair_path():
        sample_rng = np.random.default_rng(SEED + 5)
        plans = []
        for _ in range(NUM_CONSTRAINED):
            plan = DeploymentPlan.random(graph.nodes, instance_ids, sample_rng)
            if not constraints.satisfied_by(plan):
                plan = constraints.repair(plan, instance_ids)
            plans.append(plan)
        return engine.evaluate_plans(plans, Objective.LONGEST_LINK), plans

    native_s, (native_costs, assignments) = _best_of(repeats, native_path)
    repair_s, (repair_costs, plans) = _best_of(repeats, repair_path)

    for assignment in assignments[:32]:
        assert view.satisfied(assignment), "native sample violates constraints"
    for plan in plans[:32]:
        assert constraints.satisfied_by(plan), "repaired plan violates constraints"
    return repair_s, native_s, repair_s / native_s


def _drifted_costs(costs, rng, sigma=0.02):
    """A copy of ``costs`` with per-link lognormal drift of scale ``sigma``."""
    matrix = costs.as_array()
    m = matrix.shape[0]
    off_diagonal = ~np.eye(m, dtype=bool)
    matrix[off_diagonal] *= rng.lognormal(0.0, sigma, size=(m, m))[off_diagonal]
    return CostMatrix(list(costs.instance_ids), matrix)


def bench_cost_refresh(repeats=5):
    """(recompile_s, refresh_s, speedup) for adopting a cost revision.

    The live pipeline's hot path: a drifted cost matrix arrives and the
    engine must serve it.  The baseline lowers a fresh ``CompiledProblem``
    per revision; ``refresh_costs`` derives an engine that holds the new
    dense cost array and shares every graph-side index array and level
    group with the live one.  Both paths are asserted bit-identical on a
    batch of random plans after every revision.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    rng = np.random.default_rng(SEED + 6)
    revisions = [_drifted_costs(costs, rng) for _ in range(repeats)]
    probe = CompiledProblem(graph, costs).random_assignments(64, SEED + 6)

    def recompile_path(revision):
        return CompiledProblem(graph, revision)

    def refresh_path(problem, revision):
        return problem.refresh_costs(revision)

    recompile_s = refresh_s = float("inf")
    live = CompiledProblem(graph, costs)
    for revision in revisions:
        start = time.perf_counter()
        fresh = recompile_path(revision)
        recompile_s = min(recompile_s, time.perf_counter() - start)
        start = time.perf_counter()
        refreshed = refresh_path(live, revision)
        refresh_s = min(refresh_s, time.perf_counter() - start)
        expected = fresh.evaluate_batch(probe, Objective.LONGEST_LINK)
        refreshed_costs = refreshed.evaluate_batch(probe, Objective.LONGEST_LINK)
        assert np.array_equal(expected, refreshed_costs), \
            "refreshed engine disagrees with a from-scratch compile"
    return recompile_s, refresh_s, recompile_s / refresh_s


def bench_warm_resolve(repeats=2):
    """(cold_s, warm_s, speedup) for re-solving after a small cost drift.

    The tracked drift scenario: the n=100 instance is solved once, every
    link drifts by ~1 % (lognormal, the measurement-noise scale the watch
    loop sees between windows), and the revised problem is re-solved cold
    (fresh search) versus warm (started from the incumbent plan, stopping
    as soon as it matches the cold solve's cost).  The warm re-solve must
    reach an equal-or-better cost — asserted below — in a fraction of the
    time.  Both searches are seeded and therefore deterministic, so the
    best-of-``repeats`` timing only suppresses scheduler noise.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = DeploymentProblem(graph, costs)
    budget = SearchBudget(max_iterations=6000)
    incumbent = SwapLocalSearch(restarts=1, seed=SEED).solve(
        problem, budget=budget)

    rng = np.random.default_rng(SEED + 7)
    revised = problem.revise(costs=_drifted_costs(costs, rng, sigma=0.01))
    revised.compiled()  # both paths measure search time, not compilation

    cold_s, cold = _best_of(repeats, lambda: SwapLocalSearch(
        restarts=1, seed=SEED + 1).solve(revised, budget=budget))

    warm_budget = SearchBudget(max_iterations=budget.max_iterations,
                               target_cost=cold.cost)
    warm_s, warm = _best_of(repeats, lambda: SwapLocalSearch(
        restarts=1, seed=SEED + 1).solve(revised, budget=warm_budget,
                                         initial_plan=incumbent.plan))

    assert warm.cost <= cold.cost, \
        "warm re-solve ended worse than the cold solve"
    return cold_s, warm_s, cold_s / warm_s


def bench_result_store(repeats=5):
    """(solve_s, lookup_s, speedup) for serving an already-solved revision.

    The watch loop's restart / sibling-process scenario: a revision whose
    fingerprint is already in the durable store should be served by one
    indexed SQLite lookup plus a JSON decode instead of a solver run.  The
    baseline is the seeded local-search solve of the tracked n=100
    instance; the store path is ``SQLiteResultCache.get`` against a
    WAL-mode database holding that result.  The served plan is asserted
    identical to the solver's, so the speedup never hides a wrong answer.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = DeploymentProblem(graph, costs)
    budget = SearchBudget(max_iterations=6000)
    solve_s, result = _best_of(1, lambda: SwapLocalSearch(
        restarts=1, seed=SEED + 8).solve(problem, budget=budget))

    with tempfile.TemporaryDirectory() as scratch:
        store = SQLiteResultCache(pathlib.Path(scratch) / "bench-store.db")
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "local-search", result)
        lookup_s, served = _best_of(
            repeats, lambda: store.get(fingerprint, "local-search"))
        store.close()

    assert served is not None and served.cost == result.cost, \
        "store-served result disagrees with the solver run"
    assert served.plan.as_dict() == result.plan.as_dict()
    return solve_s, lookup_s, solve_s / lookup_s


def bench_serve_dedup(repeats=5):
    """(cold_s, served_s, speedup) for the service's dedup submit path.

    The serving layer's promise: a repeated request costs one store
    lookup plus plan validation, not a solver run.  Both sides go
    through the full :meth:`AdvisorApp.submit_solve` path — the cold
    request is queued, dequeued by a worker, solved and written back;
    the repeat short-circuits at submit time.  The served plan is
    asserted identical to the solver's, so the speedup never hides a
    wrong answer.
    """
    graph, costs = build_problem(Objective.LONGEST_LINK)
    problem = DeploymentProblem(graph, costs)
    request = SolveRequest(problem=problem, solver="local-search",
                           config={"seed": SEED + 8, "restarts": 1},
                           budget=SearchBudget(max_iterations=6000))

    with tempfile.TemporaryDirectory() as scratch:
        app = create_app(store=pathlib.Path(scratch) / "serve-bench.db",
                         config=ServeConfig(workers=1))
        try:
            def submit():
                job, source = app.submit_solve(request, "bench",
                                               PRIORITY_INTERACTIVE)
                assert job.wait(600.0) and job.error is None, job.error
                return source, job.response

            cold_s, (source, cold_response) = _best_of(1, submit)
            assert source == "solver"
            served_s, (source, served_response) = _best_of(repeats, submit)
            assert source == "store"
            assert app.metrics.solver_invocations == 1
        finally:
            app.close(timeout=30.0)

    cold_result = cold_response.result
    served_result = served_response.result
    assert served_result.cost == cold_result.cost, \
        "store-served response disagrees with the solver run"
    assert served_result.plan.as_dict() == cold_result.plan.as_dict()
    return cold_s, served_s, cold_s / served_s


def build_report():
    """Return ``(report_text, metrics)`` for the benchmark suite."""
    metrics = {}
    lines = [
        f"Evaluation engine benchmark — n={NUM_NODES} nodes, "
        f"m={NUM_INSTANCES} instances, {NUM_PLANS} plans / {NUM_MOVES} moves",
        "-" * 72,
    ]
    for objective in (Objective.LONGEST_LINK, Objective.LONGEST_PATH):
        graph, loop_s, batch_s, speedup = bench_batch(objective)
        metrics[f"batch_{objective.value}"] = speedup
        lines.append(
            f"batch {objective.value:<13} ({graph.num_edges:>4} edges): "
            f"looped {loop_s:7.3f} s   batch {batch_s:7.3f} s   "
            f"speedup {speedup:7.1f}x"
        )
    full_s, delta_s, speedup = bench_deltas()
    metrics["delta_longest_link"] = speedup
    lines.append(
        "delta longest_link  (swap moves):  "
        f"full   {full_s:7.3f} s   delta {delta_s:7.3f} s   "
        f"speedup {speedup:7.1f}x"
    )

    lp_graph, full_s, delta_s, speedup = bench_incremental_lp()
    metrics["incremental_longest_path"] = speedup
    lines.append(
        f"incremental longest_path (n={lp_graph.num_nodes}, "
        f"{lp_graph.num_edges} edges, applied swaps): "
        f"full   {full_s:7.3f} s   delta {delta_s:7.3f} s   "
        f"speedup {speedup:7.1f}x"
    )

    peek_graph, full_s, delta_s, speedup = bench_peeked_lp()
    metrics["peeked_longest_path"] = speedup
    lines.append(
        f"peeked longest_path (n={peek_graph.num_nodes}, "
        f"{peek_graph.num_edges} edges, mostly-rejected swaps): "
        f"full-suffix {full_s:7.3f} s   peek   {delta_s:7.3f} s   "
        f"speedup {speedup:7.1f}x"
    )

    nb_graph, loop_s, batch_s, speedup = bench_neighborhood_batch()
    metrics["neighborhood_batch"] = speedup
    lines.append(
        f"neighborhood batch peeks longest_link (n={nb_graph.num_nodes}, "
        f"{nb_graph.num_edges} edges, blocks of 64): "
        f"per-move {loop_s:7.3f} s   batch {batch_s:7.3f} s   "
        f"speedup {speedup:7.1f}x"
    )

    reference_s, draws_s, speedup = bench_move_proposals()
    metrics["move_proposals"] = speedup
    lines.append(
        f"local-search move proposals (15x20 mesh, m=330, {NUM_MOVES} "
        f"draws): per-draw {reference_s:7.3f} s   raw-word {draws_s:7.3f} s   "
        f"speedup {speedup:7.1f}x"
    )

    peek_all_s, screened_s, speedup = bench_screened_local_search()
    metrics["screened_local_search"] = speedup
    lines.append(
        f"screened longest-path descent (25x40 layered DAG, m=1100, "
        f"{NUM_MOVES} swaps): peek-all {peek_all_s:7.3f} s   "
        f"screened {screened_s:7.3f} s   speedup {speedup:7.1f}x"
    )

    loop_s, kernel_s, speedup = bench_greedy_g2()
    metrics["greedy_g2"] = speedup
    lines.append(
        f"greedy G2 construction (10x10 mesh, m={NUM_INSTANCES}): "
        f"per-pair {loop_s * 1e3:7.1f} ms  kernel {kernel_s * 1e3:7.1f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    domains_ref, domains_vec, lb_ref, lb_vec = bench_cp_bounds()
    metrics["cp_compatibility_domains"] = domains_ref / domains_vec
    metrics["cp_assignment_bounds"] = lb_ref / lb_vec
    lines.append(
        f"CP compatibility domains (n={NUM_NODES}):  "
        f"oracle {domains_ref * 1e3:7.2f} ms  engine {domains_vec * 1e3:7.2f} ms  "
        f"speedup {metrics['cp_compatibility_domains']:7.1f}x"
    )
    lines.append(
        f"CP assignment cost bounds (n={NUM_NODES}): "
        f"oracle {lb_ref * 1e3:7.2f} ms  engine {lb_vec * 1e3:7.2f} ms  "
        f"speedup {metrics['cp_assignment_bounds']:7.1f}x"
    )

    kuhn_s, kept_s, speedup, num_checks = bench_cp_matching()
    metrics["cp_matching"] = speedup
    lines.append(
        f"CP matching checks (10x10 mesh, m={NUM_INSTANCES}, {num_checks} "
        f"checks): Kuhn {kuhn_s * 1e3:7.2f} ms  kept {kept_s * 1e3:7.2f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    loop_s, rows_s, speedup, num_distinct = bench_cp_clustering()
    metrics["cp_clustering"] = speedup
    lines.append(
        f"CP cost clustering (k=20, {num_distinct} distinct costs): "
        f"loop {loop_s * 1e3:7.1f} ms  rows {rows_s * 1e3:7.2f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    repair_s, native_s, speedup = bench_constrained_solve()
    metrics["constrained_sampling"] = speedup
    lines.append(
        f"constrained feasible sampling (n={NUM_NODES}, "
        f"{NUM_CONSTRAINED} plans): "
        f"repair {repair_s * 1e3:7.1f} ms  native {native_s * 1e3:7.1f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    recompile_s, refresh_s, speedup = bench_cost_refresh()
    metrics["cost_refresh"] = speedup
    lines.append(
        f"cost refresh (n={NUM_NODES}, m={NUM_INSTANCES}): "
        f"recompile {recompile_s * 1e3:7.2f} ms  refresh {refresh_s * 1e3:7.2f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    cold_s, warm_s, speedup = bench_warm_resolve()
    metrics["warm_resolve"] = speedup
    lines.append(
        f"warm re-solve after 1% drift (n={NUM_NODES}): "
        f"cold   {cold_s * 1e3:7.1f} ms  warm  {warm_s * 1e3:7.1f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    solve_s, lookup_s, speedup = bench_result_store()
    metrics["result_store"] = speedup
    lines.append(
        f"result store lookup (n={NUM_NODES}): "
        f"solve  {solve_s * 1e3:7.1f} ms  store {lookup_s * 1e3:7.2f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    cold_s, served_s, speedup = bench_serve_dedup()
    metrics["serve_dedup"] = speedup
    lines.append(
        f"service dedup submit path (n={NUM_NODES}): "
        f"cold   {cold_s * 1e3:7.1f} ms  served {served_s * 1e3:6.2f} ms  "
        f"speedup {speedup:7.1f}x"
    )

    lines.append("")
    lines.append("machine-readable speedups "
                 "(parsed by benchmarks/check_thresholds.py):")
    for key in sorted(metrics):
        lines.append(f"speedup {key} {metrics[key]:.1f}")
    return "\n".join(lines), metrics


def load_thresholds():
    """The committed speedup floors the CI bench job enforces."""
    return json.loads(THRESHOLDS_PATH.read_text())


def test_evaluation_engine_speedup(emit):
    report, metrics = build_report()
    emit("evaluation_engine", report)
    # Acceptance bar: every tracked speedup must clear its committed floor
    # (the same check CI applies through benchmarks/check_thresholds.py).
    failures = {
        key: (metrics.get(key), floor)
        for key, floor in load_thresholds().items()
        if metrics.get(key, 0.0) < floor
    }
    assert not failures, f"speedup regressions: {failures}"


if __name__ == "__main__":
    report_text, _ = build_report()
    print(report_text)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(report_text + "\n")
    print(f"\nwritten to {RESULTS_PATH}")
