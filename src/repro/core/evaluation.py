"""Vectorized deployment-plan evaluation engine.

The search-based solvers (greedy, random search, swap local search,
simulated annealing) spend essentially all of their time scoring candidate
deployment plans.  The reference implementation in
:mod:`repro.core.objectives` walks the communication graph edge by edge
through Python dictionaries, which is an O(|E|) interpreter-bound loop per
candidate — far too slow for the paper's 100+-instance experiments.

This module lowers a problem instance once into contiguous NumPy arrays and
then evaluates plans with a handful of vectorized operations:

* :class:`CompiledProblem` — the lowered instance: a dense ``(m, m)`` cost
  array, edge-endpoint index arrays, node/instance index maps, and (for the
  longest-path objective) the edges grouped by the topological *level* of
  their source node so the DAG relaxation runs as a short sequence of
  gather + segmented-max operations instead of a per-edge Python loop.
* Batch evaluation (:meth:`CompiledProblem.evaluate_batch`) — scores many
  candidate plans at once with a single 2-D fancy-indexed gather, which is
  what makes ``R1``-style random search cheap at paper scale.
* :class:`CompiledConstraints` — placement constraints lowered to a boolean
  node×instance *allowed mask* plus per-node allowed-index arrays, so the
  constraint-aware solvers draw candidates and moves from precomputed
  arrays instead of re-querying the id-keyed constraint dictionaries.
* :class:`DeltaEvaluator` — incremental scoring of swap / relocate moves.
  For the longest-link objective a move only changes the edges incident to
  the moved nodes, so a candidate is scored in O(degree) (with an O(|E|)
  vectorized fallback only when the current critical edge is itself
  touched).  The longest-path objective is scored through a sparse
  level-ordered recompute: the per-node longest-path-ending-here maxima
  (and the in-edge realising each maximum) are cached, a move recomputes
  only the nodes its perturbation actually reaches, and everything
  downstream of a node whose value did not change is reused untouched.

Evaluation is serial: thread- and process-pooled batch scoring measured
slower end to end on the search workloads (see ``docs/ARCHITECTURE.md``).

All evaluators return bit-identical costs to the pure-Python oracle in
:mod:`repro.core.objectives`: they gather the same float64 cost entries and
combine them with the same max / add operations, so solvers rewired onto
the engine reproduce their previous results seed for seed.  The oracle
stays in place as the reference implementation the tests compare against.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .communication_graph import CommunicationGraph
from .cost_matrix import CostMatrix
from .deployment import DeploymentPlan
from .errors import (
    InfeasibleProblemError,
    InvalidDeploymentError,
    InvalidGraphError,
    SolverError,
)
from .objectives import Objective
from .types import InstanceId, NodeId, make_rng

#: Cap on the number of gathered edge costs held in memory at once while
#: batch-evaluating (rows are processed in chunks beyond this).  Kept small
#: enough that chunk temporaries stay cache/allocator-friendly: large fresh
#: allocations are dominated by page faults, not the gather itself.
_BATCH_GATHER_BUDGET = 262_144

class _LevelGroup:
    """Edges of a DAG whose source nodes share the same topological level.

    Edges are sorted by destination node so a segmented
    ``np.maximum.reduceat`` can combine all relaxations into each
    destination in one call.
    """

    __slots__ = ("src", "dst", "starts", "unique_dst")

    def __init__(self, src: np.ndarray, dst: np.ndarray):
        order = np.argsort(dst, kind="stable")
        self.src = np.ascontiguousarray(src[order])
        self.dst = np.ascontiguousarray(dst[order])
        unique_dst, starts = np.unique(self.dst, return_index=True)
        self.unique_dst = unique_dst
        self.starts = starts


class _LpDeltaStructure:
    """Graph-side adjacency for the incremental longest-path delta.

    Everything here is plain Python (lists of ints and ``(neighbor, edge)``
    tuples): the delta's sparse re-relaxation touches a handful of nodes per
    move, where list indexing beats NumPy gathers by an order of magnitude.
    Depends only on the graph, so :meth:`CompiledProblem.refresh_costs` shares it.
    """

    __slots__ = ("levels", "order", "in_edges", "out_edges", "num_levels")

    def __init__(self, levels: List[int], order: List[int],
                 in_edges: List[List[Tuple[int, int]]],
                 out_edges: List[List[Tuple[int, int]]]):
        self.levels = levels
        self.order = order
        self.in_edges = in_edges
        self.out_edges = out_edges
        # Levels are contiguous 0..num_levels-1 by construction: a node at
        # level L has a predecessor at L-1.
        self.num_levels = (max(levels) + 1) if levels else 0


class CompiledProblem:
    """A ``CommunicationGraph`` + ``CostMatrix`` lowered to index arrays.

    Instances are cheap to query but not free to build (O(|V| + |E| + m^2)),
    and never change their costs once built: a cost revision derives a new
    engine through :meth:`refresh_costs`.  Solvers take the engine a
    :class:`~repro.core.problem.DeploymentProblem` owns
    (:meth:`~repro.core.problem.DeploymentProblem.compiled`), so every
    consumer of one problem object shares one lowering.
    """

    def __init__(self, graph: CommunicationGraph, costs: CostMatrix):
        self.graph = graph
        self.node_ids: Tuple[NodeId, ...] = graph.nodes
        self.instance_ids: Tuple[InstanceId, ...] = costs.instance_ids
        self.node_index: Dict[NodeId, int] = {n: k for k, n in enumerate(self.node_ids)}
        self.instance_index: Dict[InstanceId, int] = {
            inst: k for k, inst in enumerate(self.instance_ids)
        }
        self.num_nodes = len(self.node_ids)
        self.num_instances = len(self.instance_ids)
        self.cost_array = np.ascontiguousarray(costs.as_array())

        # Sorted view of the instance ids for vectorized id -> index lookups;
        # the common identity layout (ids 0..m-1) short-circuits the lookup.
        ids_array = np.asarray(self.instance_ids, dtype=np.int64)
        self._instance_sort = np.argsort(ids_array, kind="stable")
        self._sorted_instance_ids = ids_array[self._instance_sort]
        self._ids_are_arange = bool(
            np.array_equal(ids_array, np.arange(self.num_instances))
        )
        # C-level bulk extractor of a plan mapping's instances in node order.
        self._plan_getter = (
            operator.itemgetter(*self.node_ids) if self.num_nodes > 1 else None
        )

        self.edge_src = np.fromiter(
            (self.node_index[i] for i, _ in graph.edges), dtype=np.intp,
            count=graph.num_edges,
        )
        self.edge_dst = np.fromiter(
            (self.node_index[j] for _, j in graph.edges), dtype=np.intp,
            count=graph.num_edges,
        )
        self.num_edges = graph.num_edges

        self._levels: Optional[Tuple[_LevelGroup, ...]] = None
        self._node_level: Optional[np.ndarray] = None
        self._lp_struct: Optional[_LpDeltaStructure] = None
        self._edge_lists_cache: Optional[Tuple[
            List[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]] = None
        self._incident_pad: Optional[np.ndarray] = None
        self._degrees: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._profiles: Optional[np.ndarray] = None
        self._sorted_link_costs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._assignment_lb: Optional[np.ndarray] = None

    def refresh_costs(self, costs: CostMatrix) -> "CompiledProblem":
        """A new engine for a revised cost matrix, sharing this lowering.

        The expensive graph-side lowering — node/instance index maps, edge
        endpoint arrays, level groups, edge lists, the longest-path delta
        structure, the padded incident matrix, degree profiles — depends
        only on the graph and the instance id layout, neither of which a
        cost revision changes.  The derived engine shares every such
        structure built so far with this one, holds its own dense cost
        array, and starts without the caches built from costs (sorted
        link costs, per-assignment lower bounds).  This engine is
        left untouched and keeps scoring its own costs, so evaluators
        primed against it stay valid.

        Args:
            costs: revised matrix covering the same instances in the same
                order as the one this engine was compiled from.

        Returns:
            The derived engine.

        Raises:
            InvalidDeploymentError: if ``costs`` covers different
                instances (that requires a full recompile).
        """
        if costs.instance_ids != self.instance_ids:
            raise InvalidDeploymentError(
                "refresh_costs requires a matrix over the same instances "
                "in the same order; compile a new problem instead"
            )
        derived = object.__new__(CompiledProblem)
        derived.__dict__ = dict(
            self.__dict__, cost_array=np.ascontiguousarray(costs.as_array()),
            _sorted_link_costs=None, _assignment_lb=None)
        return derived

    # ------------------------------------------------------------------ #
    # Index translation
    # ------------------------------------------------------------------ #

    def node_idx(self, node: NodeId) -> int:
        """Dense index of an application node."""
        return self.node_index[node]

    def instance_idx(self, instance: InstanceId) -> int:
        """Dense index of an instance identifier."""
        return self.instance_index[instance]

    def _instance_indices(self, instance_ids: np.ndarray) -> np.ndarray:
        """Vectorized instance id -> dense index translation (any shape)."""
        if self._ids_are_arange:
            if instance_ids.size and (
                instance_ids.min() < 0 or instance_ids.max() >= self.num_instances
            ):
                raise InvalidDeploymentError(
                    "plan maps a node to an instance outside the cost matrix"
                )
            return instance_ids.astype(np.intp)
        positions = np.searchsorted(self._sorted_instance_ids, instance_ids)
        positions = np.clip(positions, 0, self.num_instances - 1)
        if not np.array_equal(self._sorted_instance_ids[positions], instance_ids):
            raise InvalidDeploymentError(
                "plan maps a node to an instance outside the cost matrix"
            )
        return self._instance_sort[positions]

    def index_plan(self, plan: DeploymentPlan) -> np.ndarray:
        """Lower a plan to an ``(n,)`` array of instance indices per node index.

        Raises:
            InvalidDeploymentError: if the plan misses a node of the graph
                or maps one to an instance outside the cost matrix.
        """
        instances = np.asarray(plan.instances_for(self.node_ids), dtype=np.int64)
        return self._instance_indices(instances)

    def plan_from_assignment(self, assignment: np.ndarray) -> DeploymentPlan:
        """Rehydrate an index assignment into a :class:`DeploymentPlan`."""
        return DeploymentPlan({
            node: self.instance_ids[assignment[k]]
            for k, node in enumerate(self.node_ids)
        })

    # ------------------------------------------------------------------ #
    # Longest-path machinery (built lazily: only DAG problems need it)
    # ------------------------------------------------------------------ #

    def _node_levels(self) -> np.ndarray:
        """Topological level per node index (longest edge-count from a source).

        Raises:
            InvalidGraphError: if the graph is cyclic (the longest-path
                objective is undefined on cyclic graphs).
        """
        if self._node_level is None:
            if not self.graph.is_dag():
                raise InvalidGraphError(
                    "longest-path objective requires an acyclic graph"
                )
            level = np.zeros(self.num_nodes, dtype=np.intp)
            for node in self.graph.topological_order():
                i = self.node_index[node]
                for succ in self.graph.successors(node):
                    j = self.node_index[succ]
                    if level[i] + 1 > level[j]:
                        level[j] = level[i] + 1
            self._node_level = level
        return self._node_level

    def _level_groups(self) -> Tuple[_LevelGroup, ...]:
        if self._levels is None:
            level = self._node_levels()
            src_levels = level[self.edge_src]
            groups = []
            for lvl in np.unique(src_levels):
                sel = src_levels == lvl
                groups.append(_LevelGroup(self.edge_src[sel], self.edge_dst[sel]))
            self._levels = tuple(groups)
        return self._levels

    def _edge_lists(self) -> Tuple[List[List[Tuple[int, int]]],
                                   List[List[Tuple[int, int]]]]:
        """Per-node ``(out_edges, in_edges)`` as ``(neighbor, edge)`` pairs.

        Plain Python lists for the serial peeks, whose loops touch a
        handful of edges per move.  Built once per compilation, graph-side
        (shared by :meth:`refresh_costs`), and used by the longest-link
        peek and :meth:`_lp_delta_structure`.
        """
        if self._edge_lists_cache is None:
            out_edges: List[List[Tuple[int, int]]] = [
                [] for _ in range(self.num_nodes)
            ]
            in_edges: List[List[Tuple[int, int]]] = [
                [] for _ in range(self.num_nodes)
            ]
            for e, (u, w) in enumerate(zip(self.edge_src.tolist(),
                                           self.edge_dst.tolist())):
                out_edges[u].append((w, e))
                in_edges[w].append((u, e))
            self._edge_lists_cache = (out_edges, in_edges)
        return self._edge_lists_cache

    def _lp_delta_structure(self) -> _LpDeltaStructure:
        """Pure-Python adjacency used by the incremental longest-path delta.

        Built once per compilation (graph-only, shared by
        :meth:`refresh_costs`): node levels, a level-sorted topological node
        order, and the :meth:`_edge_lists` in/out edge lists.
        """
        if self._lp_struct is None:
            levels = self._node_levels().tolist()
            order = sorted(range(self.num_nodes), key=levels.__getitem__)
            out_edges, in_edges = self._edge_lists()
            self._lp_struct = _LpDeltaStructure(levels, order, in_edges,
                                                out_edges)
        return self._lp_struct

    def _incident_padded(self) -> np.ndarray:
        """The per-node incident edge ids as one ``(n, W)`` array, -1 padded.

        Row ``i`` lists, ascending, the edges with ``i`` at either end (a
        self-loop once), read off :meth:`_edge_lists`.  ``W`` is the
        maximum incident degree (at least 1 so the array is never
        zero-width).  The batch move-scoring kernel gathers every
        candidate's touched edges through this matrix in one fancy index;
        -1 entries are masked out by the kernel.  Graph-side only, so
        :meth:`refresh_costs` shares it.
        """
        if self._incident_pad is None:
            out_edges, in_edges = self._edge_lists()
            incident = [
                sorted([e for _, e in out_edges[i]]
                       + [e for u, e in in_edges[i] if u != i])
                for i in range(self.num_nodes)
            ]
            width = max((len(ids) for ids in incident), default=0)
            pad = np.full((self.num_nodes, max(width, 1)), -1, dtype=np.intp)
            for i, ids in enumerate(incident):
                pad[i, : len(ids)] = ids
            self._incident_pad = pad
        return self._incident_pad

    # ------------------------------------------------------------------ #
    # Bound helpers for the exact solvers (CP labeling, MIP bounding)
    # ------------------------------------------------------------------ #

    def node_degrees(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node ``(out, in, undirected)`` degree arrays in node-index order.

        The undirected degree counts distinct neighbours (an edge present in
        both directions contributes one neighbour), matching
        :meth:`CommunicationGraph.degree`.
        """
        if self._degrees is None:
            out_deg = np.bincount(self.edge_src, minlength=self.num_nodes)
            in_deg = np.bincount(self.edge_dst, minlength=self.num_nodes)
            undirected = np.fromiter(
                (self.graph.degree(node) for node in self.node_ids),
                dtype=np.int64, count=self.num_nodes,
            )
            self._degrees = (
                out_deg.astype(np.int64), in_deg.astype(np.int64), undirected
            )
        return self._degrees

    def neighbor_degree_profiles(self) -> np.ndarray:
        """Descending sorted neighbour degrees per node, padded with ``-inf``.

        Row ``i`` lists the undirected degrees of node ``i``'s neighbours in
        descending order; entries beyond the node's degree are ``-inf`` so a
        padded element never constrains a domination check.
        """
        if self._profiles is None:
            _, _, undirected = self.node_degrees()
            width = int(undirected.max()) if self.num_nodes else 0
            profiles = np.full((self.num_nodes, max(width, 1)), -np.inf)
            for i, node in enumerate(self.node_ids):
                neighbor_degrees = sorted(
                    (self.graph.degree(m) for m in self.graph.neighbors(node)),
                    reverse=True,
                )
                profiles[i, : len(neighbor_degrees)] = neighbor_degrees
            self._profiles = profiles
        return self._profiles

    def sorted_link_costs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ascending off-diagonal link costs per instance: ``(outgoing, incoming)``.

        Row ``s`` of the first array holds the ``m - 1`` outgoing link costs
        of instance ``s`` sorted ascending (the diagonal self-link excluded);
        the second array does the same for incoming links.  These are the
        order statistics behind the per-assignment cost lower bounds: an
        instance hosting a node with ``k`` out-edges must use ``k`` distinct
        outgoing links, so it pays at least the ``k``-th cheapest one.
        """
        if self._sorted_link_costs is None:
            m = self.num_instances
            off_diagonal = ~np.eye(m, dtype=bool)
            outgoing = np.sort(
                self.cost_array[off_diagonal].reshape(m, m - 1), axis=1
            )
            incoming = np.sort(
                self.cost_array.T[off_diagonal].reshape(m, m - 1), axis=1
            )
            self._sorted_link_costs = (outgoing, incoming)
        return self._sorted_link_costs

    def assignment_cost_lower_bounds(self) -> np.ndarray:
        """``(n, m)`` lower bounds on the longest-link cost per assignment.

        Entry ``[i, s]`` bounds from below the longest-link cost of *any*
        deployment that places node ``i`` on instance ``s``: the node's
        ``out_degree(i)`` out-edges must map to distinct outgoing links of
        ``s``, so the most expensive one costs at least the
        ``out_degree(i)``-th cheapest outgoing link of ``s`` (and dually for
        in-edges).  Nodes without edges get a bound of 0.0.
        """
        if self._assignment_lb is None:
            out_deg, in_deg, _ = self.node_degrees()
            outgoing, incoming = self.sorted_link_costs()
            lb = np.zeros((self.num_nodes, self.num_instances))
            has_out = out_deg > 0
            has_in = in_deg > 0
            if has_out.any():
                # kth cheapest outgoing cost, gathered per (node, instance).
                lb[has_out] = outgoing[:, out_deg[has_out] - 1].T
            if has_in.any():
                lb[has_in] = np.maximum(
                    lb[has_in], incoming[:, in_deg[has_in] - 1].T
                )
            self._assignment_lb = lb
        return self._assignment_lb

    def longest_link_lower_bound(self,
                                 allowed_mask: Optional[np.ndarray] = None
                                 ) -> float:
        """A proven lower bound on the optimal longest-link deployment cost.

        Every node must be placed somewhere, so the optimum is at least
        ``max_i min_s lb[i, s]`` over the per-assignment bounds.  The CP
        solver stops lowering its threshold once the incumbent reaches this
        value (no cheaper deployment can exist).

        Args:
            allowed_mask: optional ``(n, m)`` boolean placement mask (see
                :class:`CompiledConstraints`).  When given, each node's
                minimum runs over its *allowed* instances only, which can
                only tighten the bound: a constrained node cannot escape to
                a cheap instance the constraints forbid.
        """
        if self.num_nodes == 0:
            return 0.0
        bounds = self.assignment_cost_lower_bounds()
        if allowed_mask is not None:
            bounds = np.where(allowed_mask, bounds, np.inf)
        return float(bounds.min(axis=1).max())

    def threshold_adjacency(self, threshold: float,
                            tolerance: float = 1e-12) -> np.ndarray:
        """Boolean matrix of instance links usable at a cost threshold.

        ``[a, b]`` is ``True`` when the directed link ``a -> b`` costs at
        most ``threshold + tolerance``; the diagonal is always ``False``
        (two application nodes never share an instance).
        """
        allowed = self.cost_array <= threshold + tolerance
        np.fill_diagonal(allowed, False)
        return allowed

    # ------------------------------------------------------------------ #
    # Single-plan evaluation
    # ------------------------------------------------------------------ #

    def edge_costs(self, assignment: np.ndarray) -> np.ndarray:
        """Cost of every communication edge under an index assignment."""
        return self.cost_array[assignment[self.edge_src], assignment[self.edge_dst]]

    def longest_link(self, assignment: np.ndarray) -> float:
        """Longest-link cost of an index assignment (0.0 for edgeless graphs)."""
        if self.num_edges == 0:
            return 0.0
        return float(self.edge_costs(assignment).max())

    def longest_path(self, assignment: np.ndarray) -> float:
        """Longest-path cost via a level-grouped vectorized DAG relaxation."""
        if self.num_edges == 0:
            self._level_groups()  # still reject cyclic graphs consistently
            return 0.0
        best = np.zeros(self.num_nodes)
        cost = self.cost_array
        for group in self._level_groups():
            vals = best[group.src] + cost[assignment[group.src], assignment[group.dst]]
            reduced = np.maximum.reduceat(vals, group.starts)
            best[group.unique_dst] = np.maximum(best[group.unique_dst], reduced)
        return float(best.max())

    def evaluate(self, assignment: np.ndarray, objective: Objective) -> float:
        """Evaluate an index assignment under the requested objective."""
        if objective is Objective.LONGEST_LINK:
            return self.longest_link(assignment)
        if objective is Objective.LONGEST_PATH:
            return self.longest_path(assignment)
        raise ValueError(f"unknown objective {objective!r}")

    def evaluate_plan(self, plan: DeploymentPlan, objective: Objective) -> float:
        """Evaluate a :class:`DeploymentPlan` (lowers it, then evaluates)."""
        return self.evaluate(self.index_plan(plan), objective)

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #

    def _batch_longest_link(self, assignments: np.ndarray) -> np.ndarray:
        count = assignments.shape[0]
        if self.num_edges == 0:
            return np.zeros(count)
        out = np.empty(count)
        chunk = max(1, _BATCH_GATHER_BUDGET // max(1, self.num_edges))
        flat_cost = self.cost_array.ravel()
        for start in range(0, count, chunk):
            block = assignments[start:start + chunk]
            # One flat gather over linearized (src, dst) pairs beats a
            # two-array fancy index on large batches.  All gathers go
            # through np.take, which (unlike plain fancy indexing) releases
            # the GIL, so solves on the service's worker threads overlap.
            linear = np.take(block, self.edge_src, axis=1)
            linear *= self.num_instances
            linear += np.take(block, self.edge_dst, axis=1)
            out[start:start + chunk] = np.take(flat_cost, linear).max(axis=1)
        return out

    def _batch_longest_path(self, assignments: np.ndarray) -> np.ndarray:
        count = assignments.shape[0]
        if self.num_edges == 0:
            self._level_groups()
            return np.zeros(count)
        groups = self._level_groups()
        out = np.empty(count)
        chunk = max(1, _BATCH_GATHER_BUDGET // max(1, self.num_edges + self.num_nodes))
        flat_cost = self.cost_array.ravel()
        for start in range(0, count, chunk):
            block = assignments[start:start + chunk]
            best = np.zeros((block.shape[0], self.num_nodes))
            for group in groups:
                # Same relaxation as before, but every gather routed
                # through GIL-releasing np.take (see _batch_longest_link);
                # only the small unique_dst scatter still holds the GIL.
                linear = np.take(block, group.src, axis=1)
                linear *= self.num_instances
                linear += np.take(block, group.dst, axis=1)
                vals = np.take(best, group.src, axis=1)
                vals += np.take(flat_cost, linear)
                reduced = np.maximum.reduceat(vals, group.starts, axis=1)
                best[:, group.unique_dst] = np.maximum(
                    np.take(best, group.unique_dst, axis=1), reduced
                )
            out[start:start + chunk] = best.max(axis=1)
        return out

    def evaluate_batch(self, assignments: np.ndarray,
                       objective: Objective) -> np.ndarray:
        """Evaluate a ``(k, n)`` array of index assignments in one shot.

        Returns a ``(k,)`` array of deployment costs, equal element-wise to
        evaluating each row with :meth:`evaluate`.
        """
        assignments = np.asarray(assignments)
        if assignments.ndim != 2 or assignments.shape[1] != self.num_nodes:
            raise ValueError(
                f"assignments must have shape (k, {self.num_nodes})"
            )
        if objective is Objective.LONGEST_LINK:
            return self._batch_longest_link(assignments)
        if objective is Objective.LONGEST_PATH:
            return self._batch_longest_path(assignments)
        raise ValueError(f"unknown objective {objective!r}")

    def index_plans(self, plans: Sequence[DeploymentPlan]) -> np.ndarray:
        """Lower a sequence of plans to a ``(k, n)`` index-assignment array.

        The batch counterpart of :meth:`index_plan`: one C-level extraction
        per plan instead of a per-node Python loop.

        Raises:
            InvalidDeploymentError: if any plan misses a node of the graph
                or maps one to an instance outside the cost matrix.
        """
        if not plans:
            return np.empty((0, self.num_nodes), dtype=np.intp)
        if self._plan_getter is None:
            node = self.node_ids[0]
            flat_ids = np.fromiter(
                (plan.instance_for(node) for plan in plans), dtype=np.int64,
                count=len(plans),
            )
        else:
            try:
                flat_ids = np.fromiter(
                    chain.from_iterable(
                        map(self._plan_getter, (plan.as_dict() for plan in plans))
                    ),
                    dtype=np.int64, count=len(plans) * self.num_nodes,
                )
            except KeyError as exc:
                raise InvalidDeploymentError(
                    f"node {exc.args[0]} is not mapped"
                ) from exc
        instance_ids = flat_ids.reshape(len(plans), self.num_nodes)
        return self._instance_indices(instance_ids)

    def evaluate_plans(self, plans: Sequence[DeploymentPlan],
                       objective: Objective) -> np.ndarray:
        """Lower and batch-evaluate a sequence of deployment plans."""
        if not plans:
            return np.empty(0)
        return self.evaluate_batch(self.index_plans(plans), objective)

    def random_assignments(self, count: int,
                           rng: np.random.Generator | int | None = None
                           ) -> np.ndarray:
        """Draw ``count`` uniformly random injective assignments at once.

        Each row is a uniform sample of ``n`` distinct instance indices out
        of ``m`` (the first ``n`` entries of a uniform random permutation).
        """
        if count <= 0:
            raise SolverError("count must be positive to draw random assignments")
        generator = make_rng(rng)
        base = np.broadcast_to(
            np.arange(self.num_instances, dtype=np.intp),
            (count, self.num_instances),
        ).copy()
        permuted = generator.permuted(base, axis=1)
        return np.ascontiguousarray(permuted[:, : self.num_nodes])

    def delta_evaluator(self, plan: DeploymentPlan | np.ndarray,
                        objective: Objective,
                        allowed_mask: Optional[np.ndarray] = None
                        ) -> "DeltaEvaluator":
        """An incremental evaluator positioned at ``plan``.

        ``allowed_mask`` (see :class:`CompiledConstraints`) restricts the
        evaluator's move generation helpers to constraint-respecting moves.
        """
        if isinstance(plan, DeploymentPlan):
            assignment = self.index_plan(plan)
        else:
            assignment = np.array(plan, dtype=np.intp)
        return DeltaEvaluator(self, assignment, objective,
                              allowed_mask=allowed_mask)

    def __repr__(self) -> str:
        return (
            f"CompiledProblem(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"instances={self.num_instances})"
        )


class CompiledConstraints:
    """Placement constraints lowered onto a compiled problem's index space.

    The solving-side view of
    :class:`~repro.core.problem.PlacementConstraints`: a boolean
    ``(num_nodes, num_instances)`` *allowed mask* plus per-node arrays of
    allowed instance indices, built once per problem (through
    :meth:`~repro.core.problem.DeploymentProblem.compiled_constraints`) so
    every solver draws candidates, swap / relocate moves and CP domains from
    the same precomputed arrays instead of re-querying the id-keyed
    constraint dictionaries in its hot loop.

    The mask encodes the full propagated restriction: a forbidden
    ``(node, instance)`` pair is ``False``, a pinned node's row is the
    one-hot of its pin, and a pinned instance's column is ``False`` for
    every other node (the pin occupies it in any feasible plan).

    The view keeps no reference to an engine: it depends only on the node
    and instance index space, which every engine derived by
    :meth:`CompiledProblem.refresh_costs` shares, so a revised problem
    carries it over.

    Args:
        problem: the compiled problem the mask is indexed against.
        allowed_mask: boolean ``(num_nodes, num_instances)`` array;
            ``[i, s]`` is ``True`` when node index ``i`` may be placed on
            instance index ``s``.

    Raises:
        InfeasibleProblemError: if some node has no allowed instance.
    """

    __slots__ = ("allowed_mask", "allowed_indices", "forced_assignment",
                 "_order")

    def __init__(self, problem: CompiledProblem, allowed_mask: np.ndarray):
        # Always copy: the mask is frozen below, and freezing a view of the
        # caller's array would make *their* array read-only.
        mask = np.array(allowed_mask, dtype=bool, order="C")
        if mask.shape != (problem.num_nodes, problem.num_instances):
            raise InvalidDeploymentError(
                f"allowed mask must have shape "
                f"({problem.num_nodes}, {problem.num_instances})"
            )
        counts = mask.sum(axis=1)
        if problem.num_nodes and not counts.all():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise InfeasibleProblemError(
                f"node {problem.node_ids[empty]} has no allowed instance"
            )
        mask.setflags(write=False)
        self.allowed_mask = mask
        self.allowed_indices: Tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(mask[i]) for i in range(problem.num_nodes)
        )
        #: Instance index each node is forced onto (single allowed value),
        #: or -1 where a choice remains.  Covers explicit pins and
        #: forbidden sets that leave exactly one instance.
        self.forced_assignment = np.where(
            counts == 1, mask.argmax(axis=1), -1
        ).astype(np.intp)
        # Most-constrained-first node order for the feasibility-aware
        # sampler below: placing tight nodes early avoids most dead ends.
        self._order = np.argsort(counts, kind="stable")

    def allows(self, node_idx: int, instance_idx: int) -> bool:
        """Whether node index ``node_idx`` may sit on ``instance_idx``."""
        return bool(self.allowed_mask[node_idx, instance_idx])

    def satisfied(self, assignment: np.ndarray) -> bool:
        """Whether an index assignment respects every constraint."""
        assignment = np.asarray(assignment)
        return bool(
            self.allowed_mask[np.arange(assignment.size), assignment].all()
        )

    def filter_instances(self, node_idx: int,
                         instance_indices: np.ndarray) -> np.ndarray:
        """Subset of ``instance_indices`` allowed for ``node_idx``."""
        return instance_indices[self.allowed_mask[node_idx, instance_indices]]

    def random_assignment(self, rng: np.random.Generator | int | None = None,
                          attempts: int = 8) -> np.ndarray:
        """Draw one random feasible injective assignment.

        Nodes are placed most-constrained-first, each on a uniformly random
        allowed instance still free; a dead end (possible because the
        greedy placement is not a matching algorithm) is retried, then
        resolved exactly through :meth:`matching_assignment`.  The
        distribution is not uniform over feasible assignments — feasible
        sampling is what the randomized solvers need, not uniformity.
        """
        generator = make_rng(rng)
        num_nodes, num_instances = self.allowed_mask.shape
        for _ in range(max(1, attempts)):
            taken = np.zeros(num_instances, dtype=bool)
            out = np.empty(num_nodes, dtype=np.intp)
            dead_end = False
            for i in self._order:
                candidates = self.allowed_indices[i]
                candidates = candidates[~taken[candidates]]
                if not candidates.size:
                    dead_end = True
                    break
                pick = int(candidates[int(generator.integers(candidates.size))])
                out[i] = pick
                taken[pick] = True
            if not dead_end:
                return out
        return self.matching_assignment(generator)

    def random_assignments(self, count: int,
                           rng: np.random.Generator | int | None = None
                           ) -> np.ndarray:
        """Draw ``count`` random feasible assignments as a ``(count, n)`` array."""
        if count <= 0:
            raise SolverError(
                "count must be positive to draw constrained assignments"
            )
        generator = make_rng(rng)
        return np.stack([
            self.random_assignment(generator) for _ in range(count)
        ])

    def matching_assignment(self,
                            rng: np.random.Generator | int | None = None
                            ) -> np.ndarray:
        """A feasible assignment found exactly via bipartite matching.

        Allowed cells get random costs in ``[0, 1)`` (so repeated calls
        vary), disallowed cells a penalty no feasible full assignment can
        reach; the problem-level joint feasibility validation guarantees a
        penalty-free matching exists.
        """
        from scipy.optimize import linear_sum_assignment

        generator = make_rng(rng)
        n, m = self.allowed_mask.shape
        penalty = float(n + 1)
        cost = np.where(self.allowed_mask, generator.random((n, m)), penalty)
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].max() >= penalty:
            raise InfeasibleProblemError(
                "no assignment places every node on an allowed instance"
            )
        out = np.empty(n, dtype=np.intp)
        out[rows] = cols
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledConstraints(nodes={self.allowed_mask.shape[0]}, "
            f"instances={self.allowed_mask.shape[1]}, "
            f"forced={int((self.forced_assignment >= 0).sum())})"
        )


# Telemetry counters for the incremental evaluator: single-move peeks and
# commits, plus batched peek_many calls and the moves they scored.  Plain
# unlocked increments — the peek path is the solvers' innermost loop, and a
# lock acquisition per peek would cost more than the counter is worth; under
# CPython the occasional lost increment is telemetry noise, nothing more.
# Snapshot via delta_counters() / parallel_stats(), surfaced through
# SessionStats -> /metrics.
_DELTA_PEEKS = 0
_DELTA_COMMITS = 0
_BATCH_PEEK_CALLS = 0
_BATCH_PEEKED_MOVES = 0


def delta_counters() -> Tuple[int, int, int, int]:
    """Process-wide ``(peeks, commits, batch_calls, batch_moves)`` snapshot."""
    return (_DELTA_PEEKS, _DELTA_COMMITS, _BATCH_PEEK_CALLS,
            _BATCH_PEEKED_MOVES)


@dataclass(frozen=True)
class ParallelStats:
    """Process-wide incremental-evaluator counters.

    Single-move candidate scorings and commits, plus ``peek_many`` batch
    calls and the total moves they scored (``batch_peeked_moves /
    batch_peek_calls`` is the realized mean block size).  Aggregated
    across every evaluator since process start (evaluators are created
    per solve), snapshot by :func:`parallel_stats` and surfaced through
    ``SessionStats.to_dict()`` / the serve ``/metrics`` endpoint.
    """

    delta_peeks: int = 0
    delta_commits: int = 0
    batch_peek_calls: int = 0
    batch_peeked_moves: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (consumed by telemetry exporters)."""
        return {
            "delta_peeks": self.delta_peeks,
            "delta_commits": self.delta_commits,
            "batch_peek_calls": self.batch_peek_calls,
            "batch_peeked_moves": self.batch_peeked_moves,
        }


def parallel_stats() -> ParallelStats:
    """Snapshot the process-wide incremental-evaluator counters."""
    return ParallelStats(*delta_counters())


def reset_parallel_stats() -> None:
    """Zero the incremental-evaluator counters (test hygiene)."""
    global _DELTA_PEEKS, _DELTA_COMMITS, _BATCH_PEEK_CALLS, _BATCH_PEEKED_MOVES
    _DELTA_PEEKS = _DELTA_COMMITS = 0
    _BATCH_PEEK_CALLS = _BATCH_PEEKED_MOVES = 0


class MoveBatch:
    """A block of candidate moves as structured arrays.

    The vectorized longest-link kernel behind
    :meth:`DeltaEvaluator.peek_many` scores a whole batch in a handful of
    NumPy passes, so the batch itself is stored columnar: parallel
    ``kinds`` / ``first`` / ``second`` arrays rather than a list of tuples.

    * a **swap** row (``kinds == MoveBatch.SWAP``) exchanges the instances
      of node indices ``first`` and ``second``;
    * a **relocate** row (``kinds == MoveBatch.RELOCATE``) moves node index
      ``first`` onto the free instance index ``second``.
    """

    SWAP = 0
    RELOCATE = 1

    __slots__ = ("kinds", "first", "second")

    def __init__(self, kinds: np.ndarray, first: np.ndarray,
                 second: np.ndarray):
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.first = np.ascontiguousarray(first, dtype=np.intp)
        self.second = np.ascontiguousarray(second, dtype=np.intp)
        if not (self.kinds.ndim == self.first.ndim == self.second.ndim == 1):
            raise InvalidDeploymentError("move batch columns must be 1-D")
        if not (self.kinds.size == self.first.size == self.second.size):
            raise InvalidDeploymentError(
                "move batch columns must have equal lengths"
            )

    @classmethod
    def from_moves(cls, moves: Sequence[Tuple[str, int, int]]) -> "MoveBatch":
        """Build a batch from ``("swap", a, b)`` / ``("relocate", n, i)`` tuples."""
        count = len(moves)
        kinds = np.empty(count, dtype=np.uint8)
        first = np.empty(count, dtype=np.intp)
        second = np.empty(count, dtype=np.intp)
        for row, (kind, a, b) in enumerate(moves):
            if kind == "swap":
                kinds[row] = cls.SWAP
            elif kind == "relocate":
                kinds[row] = cls.RELOCATE
            else:
                raise InvalidDeploymentError(f"unknown move kind {kind!r}")
            first[row] = a
            second[row] = b
        return cls(kinds, first, second)

    def __len__(self) -> int:
        return self.kinds.size

    def __repr__(self) -> str:
        swaps = int((self.kinds == self.SWAP).sum())
        return (f"MoveBatch(moves={len(self)}, swaps={swaps}, "
                f"relocates={len(self) - swaps})")


class DeltaEvaluator:
    """Incremental move scoring on top of a :class:`CompiledProblem`.

    Tracks a current assignment and its cost.  ``swap_cost`` /
    ``relocate_cost`` score a candidate move without mutating state;
    ``apply_swap`` / ``apply_relocate`` commit it.  For the longest-link
    objective a candidate is scored from the edges incident to the moved
    nodes alone: unchanged edges keep their cached cost, so the candidate
    cost is ``max(untouched maximum, new incident costs)``.  The serial
    peek is a Python scan of each moved node's ``(neighbor, edge)`` out-
    and in-edge lists (see :meth:`CompiledProblem._edge_lists`), reading
    new costs with ``cost_array.item`` and old ones from the cached edge
    costs; it allocates no arrays.  The untouched maximum is the cached
    global maximum unless the move touches the current critical edge, in
    which case one vectorized masked max over the cached edge costs
    recomputes it.  The cached edge costs are one ``array('d')`` buffer
    that the NumPy ``_edge_costs`` array views, so a commit's Python-level
    writes are what :meth:`peek_many` and the masked max read.

    The longest-path objective is scored incrementally as well: the
    evaluator caches, per node, the longest path *ending* at that node
    (``finish``) and the in-edge realising it (``argmax``: the first
    in-edge that reaches the maximum, as a from-scratch relaxation picks
    it).  A move recosts only the edges incident to the moved nodes, then
    recomputes the affected nodes in topological-level order, each from
    all of its in-edges; a node's successors are affected only if it moved
    or its ``finish`` changed.  The candidate cost is the current cost
    raised by any new ``finish`` value, unless a node that sat at the
    current cost dropped: then one C-level ``max(finish)`` over the
    candidate values recomputes it, as the longest-link peek falls back to
    its masked max.  Commits are O(touched): the peeked ``finish`` /
    ``argmax`` entries and edge-cost updates are installed without
    re-relaxing anything, so the state equals a fresh prime of the new
    assignment.  Both objectives return costs bit-identical to
    re-evaluating from scratch (the same float64 adds and max reductions
    over the same entries), which the tests pin against the oracle
    move-by-move.

    One critical witness fixes the current cost, and
    :meth:`witness_nodes` names its nodes: both endpoints of a
    maximum-cost edge (longest link), or the nodes of one longest path,
    walked back through ``argmax`` (longest path).  A move that moves
    none of them leaves the witness's edges at their old costs, so its
    candidate cost is at least :attr:`current_cost` (IEEE ``+`` and
    ``max`` are monotone).  A descent that accepts only improvements can
    therefore skip such a move without peeking it.  The witness is built
    on first use and dropped by every commit.

    The ascending array of free instances is kept, not rescanned: it is
    recomputed only after a committed relocate (the one move that changes
    which instances are occupied), and :meth:`free_instance_indices` hands
    out the cached array read-only.

    When constructed with an ``allowed_mask`` (see
    :class:`CompiledConstraints`), the evaluator also filters move
    generation: :meth:`free_instance_indices` can restrict free instances to
    those allowed for a node, :meth:`swap_allowed` answers in O(1) from the
    mask, and scoring or committing a disallowed move raises
    :class:`InvalidDeploymentError` — constraint-aware solvers cannot
    silently wander out of the feasible region.

    The cached edge costs embed the problem's cost array, which never
    changes: a cost revision derives a new engine
    (:meth:`CompiledProblem.refresh_costs`), and an evaluator for the
    revised costs is built against that engine.
    """

    def __init__(self, problem: CompiledProblem, assignment: np.ndarray,
                 objective: Objective,
                 allowed_mask: Optional[np.ndarray] = None):
        self.problem = problem
        self.objective = objective
        self.allowed_mask = allowed_mask
        self.assignment = np.array(assignment, dtype=np.intp)
        self._node_of_instance = np.full(problem.num_instances, -1, dtype=np.intp)
        self._node_of_instance[self.assignment] = np.arange(problem.num_nodes)
        # Last scored candidate, so the common peek-then-apply sequence in
        # the solvers does not evaluate the same move twice.  Holds
        # (move key, cost, objective-specific commit payload).
        self._last_peek: Optional[Tuple[Tuple[Tuple[int, int], ...],
                                        float, tuple]] = None
        self._free: Optional[np.ndarray] = None
        self._witness: Optional[FrozenSet[int]] = None
        self._prime()

    def _prime(self) -> None:
        """Derive all cost-dependent state from the problem's cost array."""
        # Python-int mirror of the assignment for the serial peeks' loops.
        self._asg: List[int] = self.assignment.tolist()
        if self.objective is Objective.LONGEST_LINK:
            problem = self.problem
            self._ll_out, self._ll_in = problem._edge_lists()
            self._ll_ec = array("d")
            self._ll_ec.frombytes(problem.edge_costs(self.assignment).tobytes())
            self._edge_costs = np.frombuffer(self._ll_ec, dtype=np.float64)
            self._cost = (float(self._edge_costs.max())
                          if problem.num_edges else 0.0)
        elif self.objective is Objective.LONGEST_PATH:
            self._edge_costs = None
            self._prime_longest_path()
        else:
            raise ValueError(f"unknown objective {self.objective!r}")

    def _prime_longest_path(self) -> None:
        """Build the incremental longest-path state from scratch.

        One full relaxation in topological-level order, tracking per node
        the longest path ending there (``finish``) and the in-edge
        realising it (``argmax``, the first in-edge that reaches the
        maximum, -1 for sources).  Edge costs live in a plain Python list:
        the sparse deltas touch a handful of entries per move, where list
        indexing beats array access hands down.
        """
        problem = self.problem
        struct = problem._lp_delta_structure()
        self._lp_struct = struct
        self._lp_item = problem.cost_array.item
        ec: List[float] = (problem.edge_costs(self.assignment).tolist()
                           if problem.num_edges else [])
        self._lp_ec = ec
        finish = [0.0] * problem.num_nodes
        argmax = [-1] * problem.num_nodes
        in_edges = struct.in_edges
        for v in struct.order:
            best = 0.0
            arg = -1
            for u, e in in_edges[v]:
                cand = finish[u] + ec[e]
                if cand > best:
                    best = cand
                    arg = e
            finish[v] = best
            argmax[v] = arg
        self._lp_finish = finish
        self._lp_argmax = argmax
        # Version-stamped candidate overlay: ``_cand_finish[v]`` /
        # ``_cand_argmax[v]`` hold a peeked value iff ``_cand_stamp[v]``
        # equals the current ``_cand_version`` (bumped per peek, an O(1)
        # reset).  Plain lists instead of per-peek dicts: the sparse
        # recompute is all point reads/writes, where list indexing beats
        # dict hashing — and nothing is allocated per node.
        n = problem.num_nodes
        self._cand_finish = [0.0] * n
        self._cand_argmax = [-1] * n
        self._cand_stamp = [0] * n
        self._cand_buckets = [[] for _ in range(struct.num_levels)]
        self._cand_version = 0
        self._cost = max(finish) if finish else 0.0

    @property
    def current_cost(self) -> float:
        """Cost of the current assignment."""
        return self._cost

    def witness_nodes(self) -> FrozenSet[int]:
        """Node indices of one critical witness of :attr:`current_cost`.

        Longest link: both endpoints of the first maximum-cost edge.
        Longest path: the nodes of one longest path, walked back through
        ``argmax`` from the first node whose ``finish`` equals the cost.
        Every swap or relocate that moves none of these nodes scores at
        least :attr:`current_cost` (see the class docstring).  Empty for
        a longest-link problem with no edges, where no move changes the
        cost.  Built on first use after each commit.
        """
        witness = self._witness
        if witness is None:
            problem = self.problem
            nodes: List[int] = []
            if self.objective is Objective.LONGEST_LINK:
                if problem.num_edges:
                    edge = int(np.argmax(self._edge_costs))
                    nodes = [int(problem.edge_src[edge]),
                             int(problem.edge_dst[edge])]
            else:
                argmax = self._lp_argmax
                node = self._lp_finish.index(self._cost)
                nodes.append(node)
                edge = argmax[node]
                while edge >= 0:
                    node = int(problem.edge_src[edge])
                    nodes.append(node)
                    edge = argmax[node]
            witness = self._witness = frozenset(nodes)
        return witness

    def free_instance_indices(self, node: Optional[int] = None) -> np.ndarray:
        """Indices of instances not hosting any node, ascending.

        Without ``node`` this is the evaluator's cached array, read-only;
        it is recomputed only after a committed relocate.  With ``node``
        given (and an
        allowed mask installed), only the free instances that node may
        legally move to are returned, as a fresh array.
        """
        free = self._free
        if free is None:
            free = np.flatnonzero(self._node_of_instance < 0)
            free.flags.writeable = False
            self._free = free
        if node is not None and self.allowed_mask is not None:
            free = free[self.allowed_mask[node, free]]
        return free

    def swap_allowed(self, node_a: int, node_b: int) -> bool:
        """Whether exchanging two nodes' instances respects the mask."""
        if self.allowed_mask is None:
            return True
        return bool(self.allowed_mask[node_a, self.assignment[node_b]]
                    and self.allowed_mask[node_b, self.assignment[node_a]])

    def plan(self) -> DeploymentPlan:
        """The current assignment as a :class:`DeploymentPlan`."""
        return self.problem.plan_from_assignment(self.assignment)

    # ------------------------------------------------------------------ #
    # Move scoring
    # ------------------------------------------------------------------ #

    def _candidate_cost_ll(self, moves: Dict[int, int]) -> Tuple[float, tuple]:
        """Longest-link cost of ``moves`` plus its commit payload.

        ``moves`` maps node index to new instance index.  Each moved node's
        out- and in-edge lists are scanned once, so every touched edge is
        visited once: an edge between two moved nodes is handled by its
        source's out-edge pass and skipped by the in-edge pass.  Returns
        ``(cost, (touched edge ids, their new costs))``.
        """
        asg = self._asg
        ec = self._ll_ec
        item = self.problem.cost_array.item
        out_edges = self._ll_out
        in_edges = self._ll_in
        edges: List[int] = []
        new_costs: List[float] = []
        old_max = new_max = float("-inf")
        for v, inst in moves.items():
            for w, e in out_edges[v]:
                wi = moves.get(w)
                c = item(inst, asg[w] if wi is None else wi)
                edges.append(e)
                new_costs.append(c)
                if c > new_max:
                    new_max = c
                old = ec[e]
                if old > old_max:
                    old_max = old
            for u, e in in_edges[v]:
                if u in moves:
                    continue
                c = item(asg[u], inst)
                edges.append(e)
                new_costs.append(c)
                if c > new_max:
                    new_max = c
                old = ec[e]
                if old > old_max:
                    old_max = old
        cost = self._cost
        if not edges:
            return cost, (edges, new_costs)
        # The untouched edges keep their costs, so their maximum is the
        # cached global maximum unless a touched edge realises it.
        if old_max >= cost:
            mask = np.ones(self.problem.num_edges, dtype=bool)
            mask[edges] = False
            remaining = self._edge_costs[mask]
            cost = float(remaining.max()) if remaining.size else 0.0
        if new_max > cost:
            cost = new_max
        return cost, (edges, new_costs)

    def _candidate_cost_lp(self, moves: Dict[int, int]) -> Tuple[float, tuple]:
        """Incremental longest-path cost of ``moves`` plus its commit payload.

        Recosts the moved nodes' edges in place (restored before
        returning), recomputes the affected nodes in level order, and
        takes the cost as the class docstring says.  Candidate values go
        to the version-stamped overlay on the committed ``finish`` /
        ``argmax`` lists instead of copies of them (a node reads as peeked
        iff its stamp matches the current peek version, so resetting the
        overlay is a counter bump).  Returns ``(cost, (recomputed nodes,
        edge updates))``; :meth:`_commit` installs the payload by reading
        the overlay directly, which is valid because a commit always
        consumes its own immediately preceding peek via the ``_last_peek``
        memo.
        """
        struct = self._lp_struct
        asg = self._asg
        ec = self._lp_ec
        finish = self._lp_finish
        item = self._lp_item
        in_edges = struct.in_edges
        out_edges = struct.out_edges
        levels = struct.levels
        buckets = self._cand_buckets
        self._cand_version += 1
        version = self._cand_version
        cand_finish = self._cand_finish
        cand_argmax = self._cand_argmax
        stamp = self._cand_stamp

        # Step 1 — recost every edge incident to a moved node, in place.
        # An edge between two moved nodes is handled by its source's
        # out-edge pass and skipped by the in-edge pass.
        touched: List[Tuple[int, float, float]] = []  # (edge, old, new)
        for v, inst in moves.items():
            for w, e in out_edges[v]:
                wi = moves.get(w)
                c = item(inst, asg[w] if wi is None else wi)
                touched.append((e, ec[e], c))
                ec[e] = c
            for u, e in in_edges[v]:
                if u in moves:
                    continue
                c = item(asg[u], inst)
                touched.append((e, ec[e], c))
                ec[e] = c

        # Step 2 — recompute the affected nodes level by level, each from
        # all of its in-edges.  A node is stamped when it is scheduled:
        # edges climb strictly in level, so it is recomputed before any
        # node that reads it.
        nodes = list(moves)
        for v in nodes:
            stamp[v] = version
            buckets[levels[v]].append(v)
        lv = min(map(levels.__getitem__, nodes))
        hi = max(map(levels.__getitem__, nodes))
        cost = self._cost
        new_max = cost
        dropped = False
        while lv <= hi:
            bucket = buckets[lv]
            lv += 1
            for v in bucket:
                best = 0.0
                arg = -1
                for u, e in in_edges[v]:
                    c = (cand_finish[u] if stamp[u] == version
                         else finish[u]) + ec[e]
                    if c > best:
                        best = c
                        arg = e
                cand_finish[v] = best
                cand_argmax[v] = arg
                old = finish[v]
                if best != old:
                    if best > new_max:
                        new_max = best
                    elif best < old and old == cost:
                        dropped = True
                elif v not in moves:
                    continue
                for w, _ in out_edges[v]:
                    if stamp[w] != version:
                        stamp[w] = version
                        nodes.append(w)
                        wl = levels[w]
                        buckets[wl].append(w)
                        if wl > hi:
                            hi = wl
            bucket.clear()
        for e, old, _ in touched:
            ec[e] = old

        # Step 3 — every untouched node keeps its value, so the cost only
        # rises unless a node at the current cost dropped.  Then one
        # C-level max over finish, with the overlay written in and
        # restored.
        if dropped:
            saved = [finish[v] for v in nodes]
            for v in nodes:
                finish[v] = cand_finish[v]
            cost = max(finish)
            for v, f in zip(nodes, saved):
                finish[v] = f
        else:
            cost = new_max
        return cost, (nodes, touched)

    def _candidate_cost(self, moves: Dict[int, int]) -> Tuple[float, tuple]:
        """Cost of applying ``moves`` plus the payload a commit would install.

        Validates the move against the allowed mask and memoises the last
        scored candidate so the solvers' ubiquitous peek-then-apply
        sequence evaluates each move once.
        """
        if self.allowed_mask is not None:
            for node, instance in moves.items():
                if not self.allowed_mask[node, instance]:
                    raise InvalidDeploymentError(
                        f"move places node index {node} on disallowed "
                        f"instance index {instance}"
                    )
        key = tuple(sorted(moves.items()))
        peek = self._last_peek
        if peek is not None and peek[0] == key:
            return peek[1], peek[2]
        global _DELTA_PEEKS
        _DELTA_PEEKS += 1
        if self.objective is Objective.LONGEST_LINK:
            cost, payload = self._candidate_cost_ll(moves)
        else:
            cost, payload = self._candidate_cost_lp(moves)
        self._last_peek = (key, cost, payload)
        return cost, payload

    def _swap_moves(self, node_a: int, node_b: int) -> Dict[int, int]:
        a = int(node_a)
        b = int(node_b)
        asg = self._asg
        return {a: asg[b], b: asg[a]}

    def swap_cost(self, node_a: int, node_b: int) -> float:
        """Cost after exchanging the instances of two nodes (not applied)."""
        cost, _ = self._candidate_cost(self._swap_moves(node_a, node_b))
        return cost

    def relocate_cost(self, node: int, instance: int) -> float:
        """Cost after moving ``node`` to a free ``instance`` (not applied)."""
        self._check_free(node, instance)
        cost, _ = self._candidate_cost({int(node): int(instance)})
        return cost

    def _check_free(self, node: int, instance: int) -> None:
        occupant = self._node_of_instance[instance]
        if occupant >= 0 and occupant != node:
            raise InvalidDeploymentError(
                f"instance index {instance} already hosts node index {occupant}"
            )

    # ------------------------------------------------------------------ #
    # Batched move scoring (vectorized neighborhood kernels)
    # ------------------------------------------------------------------ #

    def _validate_batch(self, batch: MoveBatch) -> None:
        """Vectorized batch-wide counterpart of the per-move validation."""
        n = self.problem.num_nodes
        m = self.problem.num_instances
        kinds = batch.kinds
        first = batch.first
        second = batch.second
        is_swap = kinds == MoveBatch.SWAP
        if not np.all(is_swap | (kinds == MoveBatch.RELOCATE)):
            raise InvalidDeploymentError("unknown move kind in batch")
        if first.size and (first.min() < 0 or first.max() >= n):
            raise InvalidDeploymentError("node index out of range in batch")
        swap_second = second[is_swap]
        if swap_second.size and (swap_second.min() < 0
                                 or swap_second.max() >= n):
            raise InvalidDeploymentError("node index out of range in batch")
        reloc = ~is_swap
        reloc_second = second[reloc]
        if reloc_second.size:
            if reloc_second.min() < 0 or reloc_second.max() >= m:
                raise InvalidDeploymentError(
                    "instance index out of range in batch"
                )
            occupant = self._node_of_instance[reloc_second]
            bad = (occupant >= 0) & (occupant != first[reloc])
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                raise InvalidDeploymentError(
                    f"instance index {int(reloc_second[row])} already hosts "
                    f"node index {int(occupant[row])}"
                )
        if self.allowed_mask is not None:
            asg = self.assignment
            target1 = np.where(is_swap, asg[np.where(is_swap, second, 0)],
                               second)
            ok = self.allowed_mask[first, target1]
            if is_swap.any():
                ok = ok & np.where(
                    is_swap, self.allowed_mask[np.where(is_swap, second, 0),
                                               asg[first]], True)
            if not ok.all():
                row = int(np.flatnonzero(~ok)[0])
                raise InvalidDeploymentError(
                    f"move places node index {int(first[row])} on disallowed "
                    f"instance index {int(target1[row])}"
                )

    def _batch_move_targets(self, batch: MoveBatch
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row ``(is_swap, target of first, second-node sentinel)``.

        ``target of first`` is the instance the row's ``first`` node ends up
        on (the swap partner's current instance, or the relocate target).
        The sentinel column holds the swap partner's node index for swap
        rows and -1 for relocations, so endpoint-override compares never
        match a relocate row twice.
        """
        asg = self.assignment
        is_swap = batch.kinds == MoveBatch.SWAP
        safe_second = np.where(is_swap, batch.second, 0)
        target1 = np.where(is_swap, asg[safe_second], batch.second)
        node2 = np.where(is_swap, batch.second, -1)
        return is_swap, target1, node2

    def _peek_many_ll(self, batch: MoveBatch) -> np.ndarray:
        """Batched longest-link peek: one padded touched-edge gather.

        Every row's touched edges are gathered through the problem's
        padded incident matrix (duplicates and -1 padding are masked to
        ``-inf``, harmless under max), endpoint instances are overridden
        where an endpoint is the row's moved node, and the new per-row
        maximum combines with the untouched maximum exactly as the serial
        :meth:`_candidate_cost_ll` does — including its rare masked-max
        fallback for rows that touch the current critical edge.
        """
        problem = self.problem
        count = len(batch)
        if problem.num_edges == 0:
            return np.full(count, self._cost)
        asg = self.assignment
        is_swap, target1, node2 = self._batch_move_targets(batch)
        pad = problem._incident_padded()
        eids = np.concatenate(
            [pad[batch.first], pad[np.where(is_swap, batch.second,
                                            batch.first)]], axis=1)
        valid = eids >= 0
        safe = np.where(valid, eids, 0)
        old_vals = np.where(valid, self._edge_costs[safe], -np.inf)
        old_touched_max = old_vals.max(axis=1)

        src_nodes = problem.edge_src[safe]
        dst_nodes = problem.edge_dst[safe]
        src_inst = asg[src_nodes]
        dst_inst = asg[dst_nodes]
        n1 = batch.first[:, None]
        i1 = target1[:, None]
        n2 = node2[:, None]
        i2 = asg[batch.first][:, None]
        src_inst = np.where(src_nodes == n1, i1, src_inst)
        src_inst = np.where(src_nodes == n2, i2, src_inst)
        dst_inst = np.where(dst_nodes == n1, i1, dst_inst)
        dst_inst = np.where(dst_nodes == n2, i2, dst_inst)
        linear = src_inst * problem.num_instances + dst_inst
        new_vals = np.where(valid, problem.cost_array.ravel()[linear], -np.inf)
        new_max = new_vals.max(axis=1)

        untouched = np.full(count, self._cost)
        slow_rows = np.flatnonzero(old_touched_max >= self._cost)
        for row in slow_rows:
            mask = np.ones(problem.num_edges, dtype=bool)
            mask[eids[row][valid[row]]] = False
            remaining = self._edge_costs[mask]
            untouched[row] = float(remaining.max()) if remaining.size else 0.0
        return np.maximum(untouched, new_max)

    def peek_many(self, moves: "MoveBatch | Sequence[Tuple[str, int, int]]"
                  ) -> np.ndarray:
        """Score a whole block of candidate longest-link moves.

        Returns a ``(k,)`` float array whose entry ``k`` equals what
        :meth:`swap_cost` / :meth:`relocate_cost` would return for move
        ``k`` — bit-identical, so solvers can batch their peeks without
        perturbing seeded trajectories.  The block is scored in one
        vectorized pass (:meth:`_peek_many_ll`) and no commit payload is
        kept: committing a chosen move re-peeks it through the serial
        path.  One call counts as one batch call of ``k`` moves and no
        serial peeks.

        Longest path has no batched kernel: its solvers peek one move at
        a time through :meth:`swap_cost` / :meth:`relocate_cost`.

        Raises:
            ValueError: on a longest-path evaluator.
            InvalidDeploymentError: like the serial peeks, for
                out-of-range indices, occupied relocate targets, or moves
                the allowed mask forbids.
        """
        if self.objective is not Objective.LONGEST_LINK:
            raise ValueError(
                f"peek_many scores longest_link moves only; this evaluator "
                f"scores {self.objective.value}: peek each move through "
                f"swap_cost / relocate_cost")
        batch = (moves if isinstance(moves, MoveBatch)
                 else MoveBatch.from_moves(moves))
        count = len(batch)
        if count == 0:
            return np.empty(0)
        self._validate_batch(batch)
        global _BATCH_PEEK_CALLS, _BATCH_PEEKED_MOVES
        _BATCH_PEEK_CALLS += 1
        _BATCH_PEEKED_MOVES += count
        return self._peek_many_ll(batch)

    # ------------------------------------------------------------------ #
    # Committing moves
    # ------------------------------------------------------------------ #

    def _commit(self, moves: Dict[int, int]) -> float:
        global _DELTA_COMMITS
        _DELTA_COMMITS += 1
        cost, payload = self._candidate_cost(moves)
        node_of = self._node_of_instance
        assignment = self.assignment
        asg = self._asg
        for instance in moves.values():
            node_of[instance] = -1
        for node in moves:
            old = asg[node]
            if node_of[old] == node:
                node_of[old] = -1
        for node, instance in moves.items():
            assignment[node] = instance
            node_of[instance] = node
            asg[node] = instance
        if self.objective is Objective.LONGEST_LINK:
            # The buffer is what _edge_costs views: one write per edge.
            ec = self._ll_ec
            for e, c in zip(*payload):
                ec[e] = c
        else:
            # O(touched) commit: write the peeked overlay entries into
            # the committed relaxation state and replay the touched edge
            # costs; nothing is re-relaxed.  The overlay still holds this
            # peek's values: the `_last_peek` memo guarantees the payload
            # came from the most recent peek, and only a peek writes it.
            nodes, touched_edges = payload
            finish = self._lp_finish
            argmax = self._lp_argmax
            cand_finish = self._cand_finish
            cand_argmax = self._cand_argmax
            for v in nodes:
                finish[v] = cand_finish[v]
                argmax[v] = cand_argmax[v]
            ec = self._lp_ec
            for e, _, c in touched_edges:
                ec[e] = c
        self._cost = cost
        self._last_peek = None  # state advanced; cached peek no longer valid
        self._witness = None
        return cost

    def apply_swap(self, node_a: int, node_b: int) -> float:
        """Commit a swap; returns the new current cost."""
        return self._commit(self._swap_moves(node_a, node_b))

    def apply_relocate(self, node: int, instance: int) -> float:
        """Commit a relocation to a free instance; returns the new cost."""
        self._check_free(node, instance)
        cost = self._commit({int(node): int(instance)})
        self._free = None  # occupancy changed: rescan on the next read
        return cost

    def __repr__(self) -> str:
        return (
            f"DeltaEvaluator(objective={self.objective.value}, "
            f"cost={self._cost:.6f})"
        )


def compile_problem(graph: CommunicationGraph, costs: CostMatrix) -> CompiledProblem:
    """Lower a problem instance into a new :class:`CompiledProblem`.

    Every call compiles: nothing is cached here.  A
    :class:`~repro.core.problem.DeploymentProblem` builds its engine once
    through this function and keeps it
    (:meth:`~repro.core.problem.DeploymentProblem.compiled`), and the
    advisor session shares engines between problems of equal content.
    """
    return CompiledProblem(graph, costs)
