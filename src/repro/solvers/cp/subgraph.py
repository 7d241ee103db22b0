"""Subgraph-monomorphism search on the instance threshold graph.

Given a threshold cost ``c``, the CP formulation of Sect. 4.2 asks whether
the instance graph ``G_c`` (keeping only links of cost at most ``c``)
contains a subgraph isomorphic to the communication graph — equivalently,
whether an injective mapping of application nodes to instances exists that
only uses cheap links.  This module implements that satisfaction search with
standard CP machinery: compatibility-filtered initial domains, forward
checking along communication edges, ``alldifferent`` value elimination, an
optional bipartite-matching feasibility cut (one matching kept across the
checks of a search), smallest-domain variable selection and degree-based
value ordering.  Choice points live on an explicit stack, so a search may
go as deep as the node count without recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...core.communication_graph import CommunicationGraph
from ...core.deployment import DeploymentPlan
from ...core.evaluation import CompiledProblem
from ...core.types import InstanceId, NodeId
from .alldifferent import ValueMatching, matching_feasible, propagate_assignment
from .domains import DomainStore
from .labeling import compatibility_domains, quick_infeasibility_check


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one satisfaction search.

    Exactly one of the following holds: a plan was found (``plan`` is not
    ``None``), the instance was proven infeasible (``proven_infeasible``), or
    the search ran out of budget (``timed_out`` and/or hit the backtrack
    limit) without an answer.
    """

    plan: Optional[DeploymentPlan]
    proven_infeasible: bool
    timed_out: bool
    backtracks: int
    nodes_explored: int


class SubgraphMonomorphismSearch:
    """Backtracking search for an injective, edge-preserving node mapping.

    Args:
        graph: communication graph to embed.
        instance_ids: identifiers of the allocated instances; index ``k`` of
            ``allowed`` corresponds to ``instance_ids[k]``.
        allowed: boolean matrix; ``allowed[a, b]`` is ``True`` when the
            directed instance link ``a -> b`` may carry a communication edge.
        deadline: absolute ``time.perf_counter()`` value after which the
            search gives up (``None`` = no deadline).
        max_backtracks: backtrack limit (``None`` = unlimited).
        matching_check_interval: run the bipartite matching feasibility check
            every this many assignments (0 disables the check).
        problem: optional compiled evaluation engine for the instance; its
            cached degree arrays and profiles feed the vectorized labeling
            and the quick feasibility pre-check.
        node_allowed: optional boolean ``(num_nodes, num_instances)``
            placement mask in ``graph.nodes`` × ``instance_ids`` order (see
            :class:`~repro.core.evaluation.CompiledConstraints`).  Root
            domains are intersected with each node's allowed row — the
            natural CP lowering of placement constraints: the whole search
            tree is pruned to the feasible region up front.

    Note on cost bounds: the search deliberately carries no per-assignment
    cost bounds.  Every value that survives the root compatibility filter
    already costs at most the threshold (the degree filter is equivalent to
    the k-th order-statistic bound of
    :meth:`CompiledProblem.assignment_cost_lower_bounds`), so a live
    completion bound can never prune a branch of this satisfaction search —
    the CP solver applies the degree bound once, globally, to cut its
    threshold loop instead.
    """

    def __init__(self, graph: CommunicationGraph, instance_ids: Sequence[InstanceId],
                 allowed: np.ndarray, deadline: float | None = None,
                 max_backtracks: int | None = None,
                 matching_check_interval: int = 8,
                 problem: Optional[CompiledProblem] = None,
                 node_allowed: Optional[np.ndarray] = None):
        self.graph = graph
        self.instance_ids = list(instance_ids)
        self.allowed = allowed.astype(bool)
        np.fill_diagonal(self.allowed, False)
        self.deadline = deadline
        self.max_backtracks = max_backtracks
        self.matching_check_interval = matching_check_interval
        self.problem = problem
        self.node_allowed = node_allowed

        # Static sort keys, computed once per search: nodes ranked by
        # (-degree, id) break variable-selection ties, and instances are
        # tried by (-degree in the undirected threshold graph, index), one
        # integer per instance.
        self._ranked_nodes = sorted(graph.nodes, key=lambda n: (-graph.degree(n), n))
        self._node_rank = {node: rank for rank, node in enumerate(self._ranked_nodes)}
        instance_degree = (self.allowed | self.allowed.T).sum(axis=1)
        num_instances = len(instance_degree)
        self._value_key = (np.arange(num_instances)
                           - instance_degree * num_instances).tolist()
        # Row ``a`` of each holds one byte per instance ``b``: whether the
        # link ``a -> b`` (out) or ``b -> a`` (in) is allowed.
        self._out_rows = [row.tobytes() for row in self.allowed]
        self._in_rows = [row.tobytes() for row in self.allowed.T]
        self._backtracks = 0
        self._nodes_explored = 0
        self._timed_out = False

    # ------------------------------------------------------------------ #

    def find(self) -> SearchOutcome:
        """Run the search and report the outcome."""
        self._backtracks = 0
        self._nodes_explored = 0
        self._timed_out = False

        if not quick_infeasibility_check(self.graph, self.allowed,
                                         problem=self.problem):
            return SearchOutcome(plan=None, proven_infeasible=True, timed_out=False,
                                 backtracks=0, nodes_explored=0)

        domains = compatibility_domains(self.graph, self.allowed,
                                        problem=self.problem)
        if self.node_allowed is not None:
            # Placement constraints restrict the root domains directly: a
            # node may only map to instances its allowed row admits.
            for node, row in zip(self.graph.nodes, self.node_allowed.astype(bool)):
                row = row.tobytes()
                domains[node] = {value for value in domains[node] if row[value]}
        if any(not values for values in domains.values()):
            return SearchOutcome(plan=None, proven_infeasible=True, timed_out=False,
                                 backtracks=0, nodes_explored=0)
        store = DomainStore(domains)
        assignment: Dict[NodeId, int] = {}
        # One matching serves every check of this search: each check
        # re-augments only what changed since the previous one.
        matching = ValueMatching(store.domains, assignment)
        if not matching_feasible(matching):
            return SearchOutcome(plan=None, proven_infeasible=True, timed_out=False,
                                 backtracks=0, nodes_explored=0)
        found = self._search(store, assignment, matching)

        if found:
            plan = DeploymentPlan({
                node: self.instance_ids[index] for node, index in assignment.items()
            })
            return SearchOutcome(plan=plan, proven_infeasible=False,
                                 timed_out=False, backtracks=self._backtracks,
                                 nodes_explored=self._nodes_explored)
        return SearchOutcome(plan=None,
                             proven_infeasible=not self._timed_out,
                             timed_out=self._timed_out,
                             backtracks=self._backtracks,
                             nodes_explored=self._nodes_explored)

    # ------------------------------------------------------------------ #

    def _out_of_budget(self) -> bool:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self._timed_out = True
            return True
        if self.max_backtracks is not None and self._backtracks > self.max_backtracks:
            self._timed_out = True
            return True
        return False

    def _select_variable(self, store: DomainStore,
                         assignment: Dict[NodeId, int]) -> NodeId:
        """Smallest domain first; break ties by graph degree then by id."""
        domains, rank = store.domains, self._node_rank
        count = len(rank)
        best = min(len(domains[n]) * count + rank[n]
                   for n in self.graph.nodes if n not in assignment)
        return self._ranked_nodes[best % count]

    def _order_values(self, node: NodeId, store: DomainStore) -> List[int]:
        """Order candidate instances: most flexible (highest degree) first."""
        return sorted(store.domain(node), key=self._value_key.__getitem__)

    def _propagate(self, store: DomainStore, node: NodeId, value: int,
                   assignment: Dict[NodeId, int]) -> bool:
        """Forward checking after assigning ``node`` to instance ``value``."""
        if not propagate_assignment(store, node, value):
            return False
        # Each successor of `node` must sit on an instance that `value` may
        # send to, each predecessor on one that may send to `value`.
        for neighbors, row in ((self.graph.successors(node), self._out_rows[value]),
                               (self.graph.predecessors(node), self._in_rows[value])):
            for neighbor in neighbors:
                if neighbor in assignment:
                    if not row[assignment[neighbor]]:
                        return False
                elif not store.remove_all(neighbor, [
                        idx for idx in store.domain(neighbor) if not row[idx]]):
                    return False
        return True

    def _search(self, store: DomainStore, assignment: Dict[NodeId, int],
                matching: ValueMatching) -> bool:
        """Depth-first labeling with an explicit stack of choice points.

        Each frame is ``[node, ordered values, next value index, trail mark
        of the value being tried]``.  Every retracted value counts one
        backtrack, and so does every level unwound once the budget runs out.
        """
        num_nodes = self.graph.num_nodes
        interval = self.matching_check_interval
        if len(assignment) == num_nodes:
            return True
        if self._out_of_budget():
            return False
        frames = [self._open_frame(store, assignment)]
        while True:
            frame = frames[-1]
            node, values, index = frame[0], frame[1], frame[2]
            if index < len(values):
                value = values[index]
                frame[2] = index + 1
                self._nodes_explored += 1
                frame[3] = store.checkpoint()
                if store.assign(node, value):
                    assignment[node] = value
                    if self._propagate(store, node, value, assignment) and (
                        not interval or len(assignment) % interval
                        or len(assignment) == num_nodes
                        or matching_feasible(matching)
                    ):
                        if len(assignment) == num_nodes:
                            return True
                        if not self._out_of_budget():
                            frames.append(self._open_frame(store, assignment))
                            continue
                    del assignment[node]
            else:
                # Every value failed: retract the parent's choice.
                frames.pop()
                if not frames:
                    return False
                frame = frames[-1]
                del assignment[frame[0]]
            store.restore(frame[3])
            self._backtracks += 1
            if self._out_of_budget():
                # Each enclosing level returns in turn and counts its own
                # backtrack; the search state is dropped with them.
                self._backtracks += len(frames) - 1
                return False

    def _open_frame(self, store: DomainStore, assignment: Dict[NodeId, int]) -> list:
        node = self._select_variable(store, assignment)
        return [node, self._order_values(node, store), 0, 0]
