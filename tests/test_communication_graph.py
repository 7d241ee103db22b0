"""Tests for communication graphs and their templates."""

import pytest

from repro.core import CommunicationGraph, InvalidGraphError
from repro.core.communication_graph import augment_with_dummy_nodes


class TestConstruction:
    def test_basic_graph(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 2)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph([0, 0, 1], [])

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph([], [])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph([0, 1], [(0, 0)])

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph([0, 1], [(0, 2)])

    def test_duplicate_edges_deduplicated(self):
        graph = CommunicationGraph([0, 1], [(0, 1), (0, 1)])
        assert graph.num_edges == 1

    def test_from_edges_infers_nodes(self):
        graph = CommunicationGraph.from_edges([(3, 5), (5, 7)])
        assert set(graph.nodes) == {3, 5, 7}

    def test_equality_and_hash(self):
        a = CommunicationGraph([0, 1], [(0, 1)])
        b = CommunicationGraph([1, 0], [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestAccessors:
    def test_successors_predecessors_neighbors(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (2, 1)])
        assert graph.successors(0) == (1,)
        assert graph.predecessors(1) == (0, 2)
        assert set(graph.neighbors(1)) == {0, 2}

    def test_degrees(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 0), (1, 2)])
        assert graph.out_degree(1) == 2
        assert graph.in_degree(1) == 1
        assert graph.degree(1) == 2  # undirected neighbors {0, 2}

    def test_undirected_edges_collapse_directions(self):
        graph = CommunicationGraph([0, 1], [(0, 1), (1, 0)])
        assert graph.undirected_edges() == ((0, 1),)

    def test_sources_and_sinks(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1), (1, 2)])
        assert graph.sources() == [0]
        assert graph.sinks() == [2]

    def test_relabeled(self):
        graph = CommunicationGraph([0, 1], [(0, 1)])
        relabeled = graph.relabeled({0: 10, 1: 20})
        assert relabeled.has_edge(10, 20)

    def test_relabel_missing_node_rejected(self):
        graph = CommunicationGraph([0, 1], [(0, 1)])
        with pytest.raises(InvalidGraphError):
            graph.relabeled({0: 10})


class TestStructure:
    def test_dag_detection(self):
        dag = CommunicationGraph([0, 1, 2], [(0, 1), (1, 2)])
        cyclic = CommunicationGraph([0, 1], [(0, 1), (1, 0)])
        assert dag.is_dag()
        assert not cyclic.is_dag()

    def test_topological_order_respects_edges(self):
        graph = CommunicationGraph([0, 1, 2, 3], [(0, 2), (1, 2), (2, 3)])
        order = graph.topological_order()
        assert order.index(0) < order.index(2) < order.index(3)

    def test_topological_order_on_cycle_raises(self):
        graph = CommunicationGraph([0, 1], [(0, 1), (1, 0)])
        with pytest.raises(InvalidGraphError):
            graph.topological_order()

    @pytest.mark.parametrize("graph, expected", [
        (CommunicationGraph.aggregation_tree(2, 3),
         [7, 8, 9, 10, 11, 12, 13, 14, 3, 4, 5, 6, 1, 2, 0]),
        (CommunicationGraph(
            [6, 5, 4, 3, 2, 1, 0],
            [(4, 1), (6, 3), (5, 3), (6, 2), (4, 2), (3, 0), (2, 0),
             (3, 1)]),
         [6, 5, 4, 3, 2, 1, 0]),
        (CommunicationGraph(
            [40, 7, 19, 3, 88],
            [(19, 40), (7, 40), (40, 88), (3, 19), (7, 88)]),
         [7, 3, 19, 40, 88]),
        (CommunicationGraph(
            [5, 4, 3, 2, 1, 0],
            [(3, 5), (0, 2), (2, 3), (0, 1), (1, 3), (4, 5), (1, 2)]),
         [4, 0, 1, 2, 3, 5]),
        (CommunicationGraph.random_dag(9, 0.4, seed=3).relabeled(
            {n: (5 * n + 3) % 9 for n in range(9)}),
         [3, 8, 4, 0, 5, 1, 6, 2, 7]),
    ], ids=["aggregation-tree", "layered", "non-contiguous-ids",
            "edges-out-of-order", "relabeled-random-dag"])
    def test_topological_order_is_pinned(self, graph, expected):
        """Kahn's order by generations (sources in node order, successors
        in edge order); aggregation workloads draw samples in this order.
        The lists were recorded from the networkx implementation."""
        assert graph.topological_order() == expected

    def test_connectivity(self):
        connected = CommunicationGraph.ring(5)
        disconnected = CommunicationGraph([0, 1, 2], [(0, 1)])
        assert connected.is_connected()
        assert not disconnected.is_connected()


class TestTemplates:
    def test_mesh_2d_size_and_degree(self):
        mesh = CommunicationGraph.mesh_2d(3, 4)
        assert mesh.num_nodes == 12
        # Interior node of a 3x4 mesh has 4 neighbors; corner has 2.
        corner_degree = mesh.degree(0)
        interior_degree = mesh.degree(5)
        assert corner_degree == 2
        assert interior_degree == 4
        # All edges bidirectional.
        for i, j in mesh.edges:
            assert mesh.has_edge(j, i)

    def test_mesh_2d_torus_is_regular(self):
        torus = CommunicationGraph.mesh_2d(3, 3, wrap=True)
        assert all(torus.degree(n) == 4 for n in torus.nodes)

    def test_mesh_3d(self):
        mesh = CommunicationGraph.mesh_3d(2, 2, 2)
        assert mesh.num_nodes == 8
        assert all(mesh.degree(n) == 3 for n in mesh.nodes)

    def test_invalid_mesh_dimensions(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph.mesh_2d(0, 3)

    def test_ring(self):
        ring = CommunicationGraph.ring(6)
        assert ring.num_nodes == 6
        assert all(ring.degree(n) == 2 for n in ring.nodes)

    def test_star(self):
        star = CommunicationGraph.star(5)
        assert star.degree(0) == 5
        assert all(star.degree(n) == 1 for n in range(1, 6))

    def test_complete(self):
        complete = CommunicationGraph.complete(4)
        assert complete.num_edges == 12

    def test_hypercube(self):
        cube = CommunicationGraph.hypercube(3)
        assert cube.num_nodes == 8
        assert all(cube.degree(n) == 3 for n in cube.nodes)

    def test_aggregation_tree_structure(self):
        tree = CommunicationGraph.aggregation_tree(branching=3, depth=2)
        assert tree.num_nodes == 1 + 3 + 9
        assert tree.is_dag()
        # Edges point towards the root (node 0), which is the only sink.
        assert tree.sinks() == [0]
        assert len(tree.sources()) == 9

    def test_aggregation_tree_root_to_leaves(self):
        tree = CommunicationGraph.aggregation_tree(2, 2, leaves_to_root=False)
        assert tree.sources() == [0]

    def test_bipartite(self):
        graph = CommunicationGraph.bipartite(2, 3)
        assert graph.num_nodes == 5
        assert graph.num_edges == 2 * 2 * 3
        assert graph.has_edge(0, 2) and graph.has_edge(2, 0)

    def test_random_graph_determinism(self):
        a = CommunicationGraph.random_graph(10, 0.3, seed=7)
        b = CommunicationGraph.random_graph(10, 0.3, seed=7)
        assert a == b

    def test_random_dag_is_acyclic(self):
        dag = CommunicationGraph.random_dag(12, 0.4, seed=3)
        assert dag.is_dag()

    def test_random_graph_probability_bounds(self):
        with pytest.raises(InvalidGraphError):
            CommunicationGraph.random_graph(5, 1.5)


class TestDummyAugmentation:
    def test_padding_adds_isolated_nodes(self):
        graph = CommunicationGraph([0, 1], [(0, 1)])
        padded = augment_with_dummy_nodes(graph, 5)
        assert padded.num_nodes == 5
        assert padded.num_edges == 1
        for node in padded.nodes:
            if node not in (0, 1):
                assert padded.degree(node) == 0

    def test_padding_noop_when_equal(self):
        graph = CommunicationGraph([0, 1], [(0, 1)])
        assert augment_with_dummy_nodes(graph, 2) is graph

    def test_padding_rejects_too_few_instances(self):
        graph = CommunicationGraph([0, 1, 2], [(0, 1)])
        with pytest.raises(InvalidGraphError):
            augment_with_dummy_nodes(graph, 2)
