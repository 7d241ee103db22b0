"""Subgraph-monomorphism search on the instance threshold graph.

Given a threshold cost ``c``, the CP formulation of Sect. 4.2 asks whether
the instance graph ``G_c`` (keeping only links of cost at most ``c``)
contains a subgraph isomorphic to the communication graph — equivalently,
whether an injective mapping of application nodes to instances exists that
only uses cheap links.  This module implements that satisfaction search with
standard CP machinery: compatibility-filtered initial domains, forward
checking along communication edges, ``alldifferent`` value elimination, an
optional bipartite-matching feasibility cut, smallest-domain variable
selection and degree-based value ordering.
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
from .alldifferent import matching_feasible, propagate_assignment
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

        self._undirected_allowed = self.allowed | self.allowed.T
        self._instance_degree = self._undirected_allowed.sum(axis=1)
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
            for i, node in enumerate(self.graph.nodes):
                domains[node] = {
                    value for value in domains[node] if self.node_allowed[i, value]
                }
        if any(not values for values in domains.values()):
            return SearchOutcome(plan=None, proven_infeasible=True, timed_out=False,
                                 backtracks=0, nodes_explored=0)
        if not matching_feasible(domains):
            return SearchOutcome(plan=None, proven_infeasible=True, timed_out=False,
                                 backtracks=0, nodes_explored=0)

        store = DomainStore(domains)
        assignment: Dict[NodeId, int] = {}
        found = self._search(store, assignment)

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
        unassigned = [n for n in self.graph.nodes if n not in assignment]
        return min(
            unassigned,
            key=lambda n: (store.size(n), -self.graph.degree(n), n),
        )

    def _order_values(self, node: NodeId, store: DomainStore,
                      assignment: Dict[NodeId, int]) -> List[int]:
        """Order candidate instances: most flexible (highest degree) first."""
        values = list(store.domain(node))
        values.sort(key=lambda idx: (-int(self._instance_degree[idx]), idx))
        return values

    def _propagate(self, store: DomainStore, node: NodeId, value: int,
                   assignment: Dict[NodeId, int]) -> bool:
        """Forward checking after assigning ``node`` to instance ``value``."""
        if not propagate_assignment(store, node, value):
            return False
        # Communication edges out of `node`: its successors must sit on
        # instances reachable from `value` through an allowed link.
        for successor in self.graph.successors(node):
            if successor in assignment:
                if not self.allowed[value, assignment[successor]]:
                    return False
            else:
                allowed_targets = {
                    idx for idx in store.domain(successor) if self.allowed[value, idx]
                }
                if not store.restrict(successor, allowed_targets):
                    return False
        for predecessor in self.graph.predecessors(node):
            if predecessor in assignment:
                if not self.allowed[assignment[predecessor], value]:
                    return False
            else:
                allowed_sources = {
                    idx for idx in store.domain(predecessor) if self.allowed[idx, value]
                }
                if not store.restrict(predecessor, allowed_sources):
                    return False
        return True

    def _search(self, store: DomainStore, assignment: Dict[NodeId, int]) -> bool:
        if len(assignment) == self.graph.num_nodes:
            return True
        if self._out_of_budget():
            return False

        node = self._select_variable(store, assignment)
        for value in self._order_values(node, store, assignment):
            self._nodes_explored += 1
            mark = store.checkpoint()
            ok = store.assign(node, value)
            if ok:
                assignment[node] = value
                ok = self._propagate(store, node, value, assignment)
                if ok and self.matching_check_interval and (
                    len(assignment) % self.matching_check_interval == 0
                ):
                    remaining = {
                        n: store.domain(n)
                        for n in self.graph.nodes if n not in assignment
                    }
                    ok = matching_feasible(remaining) if remaining else True
                if ok and self._search(store, assignment):
                    return True
                del assignment[node]
            store.restore(mark)
            self._backtracks += 1
            if self._out_of_budget():
                return False
        return False
