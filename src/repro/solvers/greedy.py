"""Greedy deployment construction: Algorithms 1 (G1) and 2 (G2) of the paper.

Both algorithms grow a partial deployment one application node at a time,
always picking the cheapest instance link available:

* **G1** only looks at the *explicit* cost of the link it is about to add.
  Its weakness, noted in Sect. 4.3.2, is that mapping a node to an instance
  also fixes the cost of every other communication edge between that node
  and already-mapped neighbors ("implicit links"), which can be expensive.
* **G2** repairs this by charging each candidate the maximum over the
  explicit link cost and all implicit link costs it would introduce.

For the longest-path problem (LPNDP) the paper uses the same greedy
construction as a heuristic (Sect. 4.5.2): the plan is built with the
longest-link logic and then evaluated under the longest-path objective.

Each greedy step is one vectorized scan over the dense cost array of the
compiled problem (:mod:`repro.core.evaluation`): a (frontier pairs × free
instances) score matrix ``max(CL(u, free), floor[w, free])`` and one flat
``argmin`` (see :meth:`_Greedy._best_candidate`).  The state the scan reads
is kept current at ``assign`` time instead of being rebuilt every step: the
frontier of mapped nodes with unmapped neighbors, in mapping order, and the
``floor`` table holding, per (node, instance), the constraint mask and, for
G2, the running maximum of the implicit link costs.  ``np.argmin`` returns
the row-major first minimum, which is exactly the first-strict-improvement
pick of the historical per-pair loops (first pair in frontier-then-neighbor
order, first instance in ``unused_instances`` iteration order), so every
plan is bit-identical to theirs.

On constrained problems both algorithms are natively constraint-aware:
forced placements (pins, or forbidden sets leaving one instance) are
installed before the first greedy step, and every candidate scan draws only
from each node's allowed instances (per the compiled
:class:`~repro.core.evaluation.CompiledConstraints` view; forbidden cells
score ``+inf``).  Should the greedy order paint itself into a corner —
possible, since cheapest-first is not a matching algorithm — the
construction completes on arbitrary free instances and the solver
re-establishes feasibility itself through the constraint matching, so the
returned plan never needs the base-class repair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.communication_graph import CommunicationGraph
from ..core.cost_matrix import CostMatrix
from ..core.deployment import DeploymentPlan
from ..core.errors import SolverError
from ..core.evaluation import CompiledConstraints, CompiledProblem
from ..core.problem import DeploymentProblem
from ..core.types import InstanceId, NodeId
from .base import (
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    constrained_warm_start,
)


def _incumbent_bounded(plan: DeploymentPlan, cost: float,
                       problem: DeploymentProblem,
                       initial_plan: Optional[DeploymentPlan],
                       engine: CompiledProblem) -> Tuple[DeploymentPlan, float]:
    """Apply warm-start upper-bound semantics to a constructed plan.

    A greedy construction cannot be steered by an incumbent, but its
    *result* can be bounded by one: when the caller supplies an
    ``initial_plan`` (e.g. the plan currently deployed, during a drift
    re-solve), the solver never returns anything worse than it.  Violating
    incumbents are repaired up front on constrained problems, mirroring
    the search solvers' warm-start handling.
    """
    if initial_plan is None:
        return plan, cost
    incumbent = constrained_warm_start(problem, initial_plan)
    incumbent_cost = engine.evaluate_plan(incumbent, problem.objective)
    if incumbent_cost < cost:
        return incumbent, incumbent_cost
    return plan, cost


class _GreedyState:
    """Bookkeeping for a growing partial deployment.

    Besides the node <-> instance maps, :meth:`assign` keeps current
    everything the step kernel (:meth:`_Greedy._best_candidate`) reads, so
    no step rescans the partial deployment:

    * ``frontier`` maps each mapped node that still has unmapped neighbors
      to its dense instance index, in mapping order (the order the
      historical scan of ``instance_to_node`` visited them); per-node
      counters of unmapped neighbors drop a node once it is enclosed;
    * ``floor`` is a dense ``(num_nodes, num_instances)`` float table
      under every candidate's score: cell ``[w, s]`` is ``+inf`` where the
      constraints forbid ``s`` for ``w`` and otherwise, with
      ``implicit=True`` (G2), the largest cost the edges between unmapped
      node ``w`` and its mapped neighbors would take with ``w`` on ``s``
      (``-inf`` while none is mapped).  It costs 8 bytes per cell (1.2 MB
      at n = 364) and is not built for unconstrained G1, which needs none;
    * a free-instance mask over the iteration order of
      ``unused_instances``, which :meth:`unused_indices` reads.

    With a constraint ``view``, forced placements are installed eagerly and
    :meth:`allowed_unused_idx` exposes the per-node candidate instances the
    constrained seeding draws from.
    """

    def __init__(self, graph: CommunicationGraph, costs: CostMatrix,
                 problem: CompiledProblem,
                 view: CompiledConstraints | None = None,
                 implicit: bool = False):
        self.graph = graph
        self.costs = costs
        self.problem = problem
        self.view = view
        self.node_to_instance: Dict[NodeId, InstanceId] = {}
        self.instance_to_node: Dict[InstanceId, NodeId] = {}
        self.unmapped_nodes: Set[NodeId] = set(graph.nodes)
        self.unused_instances: Set[InstanceId] = set(costs.instance_ids)
        # Discarding from a set never reorders it (CPython resizes a set
        # only on insertion), so masking the initial iteration order gives
        # the iteration order of ``unused_instances`` at every step.
        self._set_order = np.fromiter(
            (problem.instance_idx(v) for v in self.unused_instances),
            dtype=np.intp, count=len(self.unused_instances))
        self._free = np.ones(problem.num_instances, dtype=bool)
        self._open = {node: len(graph.neighbors(node)) for node in graph.nodes}
        self.frontier: Dict[NodeId, int] = {}
        self.implicit = implicit
        self.floor: Optional[np.ndarray] = None
        if view is not None:
            self.floor = np.where(view.allowed_mask, -np.inf, np.inf)
        elif implicit:
            self.floor = np.full((problem.num_nodes, problem.num_instances),
                                 -np.inf)
        if view is not None:
            for row in np.flatnonzero(view.forced_assignment >= 0):
                node = problem.node_ids[row]
                instance = problem.instance_ids[view.forced_assignment[row]]
                self.assign(node, instance)

    def assign(self, node: NodeId, instance: InstanceId) -> None:
        graph, problem = self.graph, self.problem
        self.node_to_instance[node] = instance
        self.instance_to_node[instance] = node
        self.unmapped_nodes.discard(node)
        self.unused_instances.discard(instance)
        s = problem.instance_idx(instance)
        self._free[s] = False
        if self._open[node]:
            self.frontier[node] = s
        for y in graph.neighbors(node):
            self._open[y] -= 1
            if not self._open[y]:
                self.frontier.pop(y, None)
        if self.implicit:
            # Edge node -> y costs CL(s, v) once y sits on v; y -> node
            # costs CL(v, s).
            cost = problem.cost_array
            for y in graph.successors(node):
                if y in self.unmapped_nodes:
                    row = self.floor[problem.node_idx(y)]
                    np.maximum(row, cost[s], out=row)
            for y in graph.predecessors(node):
                if y in self.unmapped_nodes:
                    row = self.floor[problem.node_idx(y)]
                    np.maximum(row, cost[:, s], out=row)

    def frontier_instances(self) -> List[InstanceId]:
        """Instances hosting a node that still has unmatched neighbors."""
        ids = self.problem.instance_ids
        return [ids[s] for s in self.frontier.values()]

    def finished(self) -> bool:
        return not self.unmapped_nodes

    def unused_indices(self, ordered: bool = False) -> np.ndarray:
        """Dense indices of the unused instances.

        Set-iteration order by default (the step kernel's column order,
        which its tie-breaking follows); ``ordered=True`` sorts by instance
        id, which the seeding steps use for deterministic first-allowed
        picks.
        """
        if not ordered:
            return self._set_order[self._free[self._set_order]]
        problem = self.problem
        return np.fromiter(
            (problem.instance_idx(v) for v in sorted(self.unused_instances)),
            dtype=np.intp, count=len(self.unused_instances),
        )

    def allowed_unused_idx(self, node: NodeId,
                           unused_idx: np.ndarray) -> np.ndarray:
        """Subset of ``unused_idx`` the constraints allow for ``node``."""
        if self.view is None:
            return unused_idx
        return self.view.filter_instances(self.problem.node_idx(node),
                                          unused_idx)

    def plan(self) -> DeploymentPlan:
        return DeploymentPlan(self.node_to_instance)


def _cheapest_link(problem: CompiledProblem,
                   sources: List[InstanceId],
                   destinations: Set[InstanceId]) -> Optional[Tuple[InstanceId, InstanceId, float]]:
    """Cheapest directed link from ``sources`` into ``destinations``.

    Scans the dense cost array in one vectorized pass.  The flattened
    ``argmin`` walks sources in their given order and destinations in their
    iteration order, so ties resolve identically to the original nested
    loop with a strict-improvement comparison.
    """
    if not sources or not destinations:
        return None
    dest_list = list(destinations)
    src_idx = np.fromiter((problem.instance_idx(u) for u in sources),
                          dtype=np.intp, count=len(sources))
    dst_idx = np.fromiter((problem.instance_idx(v) for v in dest_list),
                          dtype=np.intp, count=len(dest_list))
    sub = problem.cost_array[np.ix_(src_idx, dst_idx)].copy()
    sub[src_idx[:, None] == dst_idx[None, :]] = np.inf
    flat = int(np.argmin(sub))
    best_cost = float(sub.ravel()[flat])
    if not np.isfinite(best_cost):
        return None
    u = sources[flat // len(dest_list)]
    v = dest_list[flat % len(dest_list)]
    return (u, v, best_cost)


def _seed_state(state: _GreedyState) -> bool:
    """Place the first edge of a (new) connected component.

    Following lines 1–3 of Algorithms 1 and 2: find the globally cheapest
    available instance link and map an arbitrary unmapped communication edge
    onto it.  When only isolated nodes remain, they are placed one by one on
    arbitrary free instances (their placement cannot affect the objective).
    Always returns ``True`` (an unconstrained construction never dead-ends).
    """
    graph = state.graph
    unmapped_edges = [
        (x, y) for x, y in graph.edges
        if x in state.unmapped_nodes and y in state.unmapped_nodes
    ]
    free = sorted(state.unused_instances)
    if not unmapped_edges:
        # Only isolated (or already partially covered) nodes remain.
        node = min(state.unmapped_nodes)
        state.assign(node, free[0])
        return True
    best = _cheapest_link(state.problem, free, set(free))
    if best is None:
        raise SolverError("not enough free instances to seed the deployment")
    u0, v0, _ = best
    x, y = unmapped_edges[0]
    state.assign(x, u0)
    state.assign(y, v0)
    return True


def _seed_state_constrained(state: _GreedyState) -> bool:
    """Constraint-aware twin of :func:`_seed_state`.

    Maps the first unmapped communication edge onto the cheapest free
    instance link both endpoints are allowed to use (isolated nodes go to
    their first allowed free instance).  Returns ``False`` on a dead end —
    the constrained greedy then completes through the matching fallback.
    """
    graph, problem = state.graph, state.problem
    unmapped_edges = [
        (x, y) for x, y in graph.edges
        if x in state.unmapped_nodes and y in state.unmapped_nodes
    ]
    free_idx = state.unused_indices(ordered=True)
    if not unmapped_edges:
        node = min(state.unmapped_nodes)
        allowed = state.allowed_unused_idx(node, free_idx)
        if not allowed.size:
            return False
        state.assign(node, problem.instance_ids[int(allowed[0])])
        return True
    x, y = unmapped_edges[0]
    src_idx = state.allowed_unused_idx(x, free_idx)
    dst_idx = state.allowed_unused_idx(y, free_idx)
    if not src_idx.size or not dst_idx.size:
        return False
    sub = problem.cost_array[np.ix_(src_idx, dst_idx)].copy()
    sub[src_idx[:, None] == dst_idx[None, :]] = np.inf
    flat = int(np.argmin(sub))
    if not np.isfinite(sub.ravel()[flat]):
        return False
    u0 = int(src_idx[flat // dst_idx.size])
    v0 = int(dst_idx[flat % dst_idx.size])
    state.assign(x, problem.instance_ids[u0])
    state.assign(y, problem.instance_ids[v0])
    return True


def _finalize_constrained(state: _GreedyState,
                          problem: DeploymentProblem) -> DeploymentPlan:
    """Complete a (possibly dead-ended) constrained construction feasibly.

    Remaining unmapped nodes are parked on arbitrary free instances; if the
    resulting plan violates a constraint (only possible after a dead end),
    the solver re-establishes feasibility itself through the
    minimum-change constraint matching.
    """
    free = sorted(state.unused_instances)
    for node in sorted(state.unmapped_nodes):
        state.assign(node, free.pop(0))
    plan = state.plan()
    constraints = problem.constraints
    if constraints is not None and not constraints.satisfied_by(plan):
        plan = constraints.repair(plan, problem.costs.instance_ids)
    return plan


class _Greedy(DeploymentSolver):
    """The construction loop G1 and G2 share; they differ only in the score."""

    supports_warm_start = True
    #: Whether a candidate is also charged the implicit links it fixes (G2).
    implicit_links = False

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.unlimited()
        watch = Stopwatch(budget)
        engine = problem.compiled()
        view = problem.compiled_constraints()
        state = _GreedyState(graph, costs, engine, view,
                             implicit=self.implicit_links)
        seed = _seed_state if view is None else _seed_state_constrained
        iterations = 0
        dead_end = False

        if not state.finished() and not state.frontier:
            dead_end = not seed(state)
        while not dead_end and not state.finished():
            iterations += 1
            choice = self._best_candidate(state)
            if choice is None:
                # New component — or, constrained, a node whose allowed
                # instances are all taken (resolved by the matching below).
                dead_end = not seed(state)
                continue
            state.assign(*choice)

        if view is None:
            plan = state.plan()
        else:
            plan = _finalize_constrained(state, problem)
        cost = engine.evaluate_plan(plan, objective)
        plan, cost = _incumbent_bounded(plan, cost, problem, initial_plan,
                                        engine)
        return SolverResult(
            plan=plan, cost=cost, objective=objective, solver_name=self.name,
            solve_time_s=watch.elapsed(), iterations=iterations, optimal=False,
            trace=((watch.elapsed(), cost),),
        )

    def _best_candidate(self, state: _GreedyState
                        ) -> Optional[Tuple[NodeId, InstanceId]]:
        """The greedy step: the cheapest (unmapped node, free instance) addition.

        One vectorized scan scores every candidate.  Rows are the frontier
        pairs ``(u, w)`` — ``u`` hosts a mapped node, ``w`` is an unmapped
        neighbor of it — in frontier-then-neighbor order; columns are the
        free instances ``v`` in ``unused_instances`` iteration order.  A
        cell scores ``max(CL(u, v), floor[w, v])``: the explicit link, and
        for G2 every implicit link the placement fixes (each edge between
        ``w`` and an already-mapped node, in the direction the edge
        specifies), or ``+inf`` where the constraints forbid ``v`` for
        ``w``.  The row-major first minimum of one flat ``argmin`` is
        exactly the pick of the historical per-pair loop with its strict
        ``<``, so plans stay bit-identical.  Returns ``None`` when no
        allowed candidate exists.
        """
        problem = state.problem
        free = state.unused_indices()
        unmapped = state.unmapped_nodes
        # Without a floor a pair scores by its anchor alone: an anchor's
        # later rows repeat its first and can never hold the first minimum.
        first_only = state.floor is None
        pairs = []
        for x, u in state.frontier.items():
            for w in state.graph.neighbors(x):
                if w in unmapped:
                    pairs.append((u, w))
                    if first_only:
                        break
        if not pairs or not free.size:
            return None
        anchors = np.fromiter((u for u, _ in pairs), dtype=np.intp,
                              count=len(pairs))
        # Whole rows first, then the free columns: two plain takes beat
        # one broadcast fancy index by about 2x at these shapes.
        scores = problem.cost_array.take(anchors, axis=0)
        if state.floor is not None:
            rows = np.fromiter((problem.node_index[w] for _, w in pairs),
                               dtype=np.intp, count=len(pairs))
            np.maximum(scores, state.floor.take(rows, axis=0), out=scores)
        scores = scores.take(free, axis=1)
        flat = int(np.argmin(scores))
        if not np.isfinite(scores.flat[flat]):
            return None
        pair, column = divmod(flat, free.size)
        return pairs[pair][1], problem.instance_ids[int(free[column])]


class GreedyG1(_Greedy):
    """Algorithm 1: greedy expansion by cheapest explicit link."""

    name = "G1"


class GreedyG2(_Greedy):
    """Algorithm 2: greedy expansion accounting for implicit link costs."""

    name = "G2"
    implicit_links = True
