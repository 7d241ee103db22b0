"""Tests for the subgraph-monomorphism satisfaction search."""

import time

import numpy as np

from repro.core import CommunicationGraph
from repro.solvers.cp.subgraph import SubgraphMonomorphismSearch


def allowed_from_edges(n, edges, bidirectional=True):
    allowed = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        allowed[a, b] = True
        if bidirectional:
            allowed[b, a] = True
    return allowed


class TestSubgraphSearch:
    def test_finds_embedding_in_complete_graph(self):
        graph = CommunicationGraph.mesh_2d(2, 3)
        n = 8
        allowed = np.ones((n, n), dtype=bool)
        outcome = SubgraphMonomorphismSearch(graph, list(range(n)), allowed).find()
        assert outcome.plan is not None
        assert outcome.plan.covers(graph)

    def test_respects_allowed_edges(self):
        # Communication graph: path of 3 nodes (bidirectional).
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 0), (1, 2), (2, 1)])
        # Instance graph: only the path 0-1-2-3 is allowed.
        allowed = allowed_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        outcome = SubgraphMonomorphismSearch(graph, [10, 11, 12, 13], allowed).find()
        assert outcome.plan is not None
        plan = outcome.plan
        # Every communication edge must land on an allowed instance link.
        index = {10: 0, 11: 1, 12: 2, 13: 3}
        for i, j in graph.edges:
            a, b = index[plan.instance_for(i)], index[plan.instance_for(j)]
            assert allowed[a, b]

    def test_detects_infeasibility(self):
        # A triangle cannot embed into a path.
        graph = CommunicationGraph([0, 1, 2],
                                   [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        allowed = allowed_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        outcome = SubgraphMonomorphismSearch(graph, list(range(4)), allowed).find()
        assert outcome.plan is None
        assert outcome.proven_infeasible
        assert not outcome.timed_out

    def test_detects_infeasibility_by_count(self):
        graph = CommunicationGraph.mesh_2d(3, 3)
        allowed = allowed_from_edges(5, [(0, 1), (1, 2)])
        outcome = SubgraphMonomorphismSearch(graph, list(range(5)), allowed).find()
        assert outcome.proven_infeasible

    def test_directed_edges_respected(self):
        # One directed edge 0 -> 1; instance graph only allows 1 -> 0.
        graph = CommunicationGraph([0, 1], [(0, 1)])
        allowed = np.zeros((2, 2), dtype=bool)
        allowed[1, 0] = True
        outcome = SubgraphMonomorphismSearch(graph, [0, 1], allowed).find()
        assert outcome.plan is not None
        assert outcome.plan.instance_for(0) == 1
        assert outcome.plan.instance_for(1) == 0

    def test_deadline_reports_timeout(self):
        graph = CommunicationGraph.mesh_2d(4, 4)
        n = 20
        rng = np.random.default_rng(0)
        allowed = rng.random((n, n)) < 0.25
        allowed = allowed | allowed.T
        np.fill_diagonal(allowed, False)
        outcome = SubgraphMonomorphismSearch(
            graph, list(range(n)), allowed,
            deadline=time.perf_counter() - 1.0,  # already past
        ).find()
        # With an expired deadline the search cannot prove anything unless the
        # quick checks already settle it.
        assert outcome.plan is None or outcome.plan.covers(graph)

    def test_backtrack_limit(self):
        graph = CommunicationGraph.mesh_2d(3, 3)
        n = 12
        rng = np.random.default_rng(1)
        allowed = rng.random((n, n)) < 0.3
        allowed = allowed | allowed.T
        np.fill_diagonal(allowed, False)
        outcome = SubgraphMonomorphismSearch(
            graph, list(range(n)), allowed, max_backtracks=1
        ).find()
        # Either it got lucky immediately or it gave up without proving.
        if outcome.plan is None:
            assert outcome.timed_out or outcome.proven_infeasible

    def test_mesh_into_mesh_identity_exists(self):
        # A 2x2 mesh embeds into a 3x3 mesh-shaped instance graph.
        graph = CommunicationGraph.mesh_2d(2, 2)
        big = CommunicationGraph.mesh_2d(3, 3)
        allowed = allowed_from_edges(9, big.edges, bidirectional=False)
        outcome = SubgraphMonomorphismSearch(graph, list(range(9)), allowed).find()
        assert outcome.plan is not None

    def test_deep_path_needs_no_recursion(self):
        # Every one of the 1,050 assignments is a choice point one level
        # deeper than the last; the search keeps them on an explicit stack.
        n = 1050
        graph = CommunicationGraph(range(n), [(i, i + 1) for i in range(n - 1)])
        allowed = np.ones((n, n), dtype=bool)
        outcome = SubgraphMonomorphismSearch(graph, list(range(n)), allowed).find()
        assert outcome.plan is not None
        assert outcome.plan.covers(graph)
        assert outcome.backtracks == 0
        assert outcome.nodes_explored == n
