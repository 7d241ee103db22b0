"""Communication graphs and the templates ClouDiA ships for common patterns.

A :class:`CommunicationGraph` captures the ``talks(i, j)`` relation of
Definition 3 in the paper: a directed graph over application nodes whose
edges are the communication links that matter for performance.  The paper
notes that writing out ``O(|N|^2)`` links by hand is tedious, so ClouDiA
provides templates for common structures (meshes, trees, bipartite graphs);
this module implements those templates plus a few extras used by the
examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .errors import InvalidGraphError
from .types import Edge, NodeId, make_rng


class CommunicationGraph:
    """Directed graph of application nodes with ``talks`` edges.

    Nodes are integers.  Edges are directed; applications with symmetric
    communication (e.g. neighbor exchanges in a BSP simulation) should
    include both directions, which the mesh templates below do.

    The graph is immutable after construction, which lets solvers cache
    degree information and adjacency structures safely.
    """

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[Edge]):
        node_list = list(nodes)
        if len(node_list) != len(set(node_list)):
            raise InvalidGraphError("duplicate application nodes in graph")
        if not node_list:
            raise InvalidGraphError("communication graph must have at least one node")

        node_set = set(node_list)
        edge_list: List[Edge] = []
        seen: Set[Edge] = set()
        for i, j in edges:
            if i == j:
                raise InvalidGraphError(f"self-loop on node {i} is not allowed")
            if i not in node_set or j not in node_set:
                raise InvalidGraphError(f"edge ({i}, {j}) refers to unknown node")
            if (i, j) in seen:
                continue
            seen.add((i, j))
            edge_list.append((i, j))

        self._nodes: Tuple[NodeId, ...] = tuple(node_list)
        self._edges: Tuple[Edge, ...] = tuple(edge_list)
        self._succ: Dict[NodeId, List[NodeId]] = {n: [] for n in node_list}
        self._pred: Dict[NodeId, List[NodeId]] = {n: [] for n in node_list}
        for i, j in edge_list:
            self._succ[i].append(j)
            self._pred[j].append(i)
        self._neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {
            n: tuple(sorted(set(self._succ[n]) | set(self._pred[n]))) for n in node_list
        }

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All application nodes, in insertion order."""
        return self._nodes

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All directed ``talks`` edges."""
        return self._edges

    @property
    def num_nodes(self) -> int:
        """Number of application nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` if ``node`` is part of the graph."""
        return node in self._succ

    def has_edge(self, i: NodeId, j: NodeId) -> bool:
        """Return ``True`` if ``talks(i, j)`` holds."""
        return i in self._succ and j in self._succ[i]

    def successors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Nodes that ``node`` sends messages to."""
        return tuple(self._succ[node])

    def predecessors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Nodes that send messages to ``node``."""
        return tuple(self._pred[node])

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Union of successors and predecessors (undirected neighborhood)."""
        return self._neighbors[node]

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._pred[node])

    def degree(self, node: NodeId) -> int:
        """Number of distinct neighbors of ``node`` (undirected degree)."""
        return len(self._neighbors[node])

    def undirected_edges(self) -> Tuple[Edge, ...]:
        """Edges with direction collapsed, each pair reported once as (min, max)."""
        undirected = {(min(i, j), max(i, j)) for i, j in self._edges}
        return tuple(sorted(undirected))

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def is_dag(self) -> bool:
        """Return ``True`` if the directed graph has no cycles.

        The longest-path objective (LPNDP) is only defined on acyclic
        communication graphs; callers should check this before using it.
        """
        return len(self._kahn_order()) == len(self._nodes)

    def is_connected(self) -> bool:
        """Return ``True`` if the underlying undirected graph is connected."""
        seen = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            for neighbor in self._neighbors[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self._nodes)

    def topological_order(self) -> List[NodeId]:
        """Return a topological ordering of the nodes.

        Kahn's algorithm by generations: the sources in node order, then
        each node's successors in edge order as their last incoming edge is
        consumed.  Workloads draw per-node samples in this order, so it is
        part of their seeded results.

        Raises:
            InvalidGraphError: if the graph contains a cycle.
        """
        order = self._kahn_order()
        if len(order) != len(self._nodes):
            raise InvalidGraphError("graph has a cycle; no topological order")
        return order

    def _kahn_order(self) -> List[NodeId]:
        """Kahn's order of every node not on or behind a cycle."""
        indegree = {n: len(self._pred[n]) for n in self._nodes}
        order = [n for n in self._nodes if not indegree[n]]
        for node in order:  # a FIFO queue: ``order`` grows while it is read
            for successor in self._succ[node]:
                indegree[successor] -= 1
                if not indegree[successor]:
                    order.append(successor)
        return order

    def sources(self) -> List[NodeId]:
        """Nodes with no incoming edges."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> List[NodeId]:
        """Nodes with no outgoing edges."""
        return [n for n in self._nodes if not self._succ[n]]

    def relabeled(self, mapping: Dict[NodeId, NodeId]) -> "CommunicationGraph":
        """Return a copy with node identifiers replaced through ``mapping``."""
        missing = [n for n in self._nodes if n not in mapping]
        if missing:
            raise InvalidGraphError(f"relabel mapping misses nodes {missing}")
        nodes = [mapping[n] for n in self._nodes]
        edges = [(mapping[i], mapping[j]) for i, j in self._edges]
        return CommunicationGraph(nodes, edges)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, List]:
        """JSON-serializable representation (nodes and directed edges)."""
        return {
            "nodes": list(self._nodes),
            "edges": [[i, j] for i, j in self._edges],
        }

    @classmethod
    def from_dict(cls, payload) -> "CommunicationGraph":
        """Rebuild a graph from :meth:`to_dict` output.

        Node and edge order are preserved exactly, so a round-tripped graph
        compiles to the same index arrays as the original.
        """
        try:
            nodes = payload["nodes"]
            edges = payload["edges"]
        except (KeyError, TypeError) as exc:
            raise InvalidGraphError(
                "graph payload must contain 'nodes' and 'edges'"
            ) from exc
        return cls(nodes, [(i, j) for i, j in edges])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return set(self._nodes) == set(other._nodes) and set(self._edges) == set(other._edges)

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes), frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"CommunicationGraph(nodes={self.num_nodes}, edges={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Templates (Sect. 3.3: "communication graph templates for certain
    # common graph structures such as meshes or bipartite graphs")
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "CommunicationGraph":
        """Build a graph whose node set is exactly the endpoints of ``edges``."""
        edge_list = list(edges)
        nodes = sorted({n for edge in edge_list for n in edge})
        return cls(nodes, edge_list)

    @classmethod
    def mesh_2d(cls, rows: int, cols: int, wrap: bool = False) -> "CommunicationGraph":
        """2-D mesh used by the behavioral simulation workload.

        Every cell talks to its four axis-aligned neighbors in both
        directions.  With ``wrap=True`` the mesh becomes a torus.
        """
        if rows <= 0 or cols <= 0:
            raise InvalidGraphError("mesh dimensions must be positive")
        nodes = list(range(rows * cols))
        edges: List[Edge] = []

        def nid(r: int, c: int) -> int:
            """Node id of grid cell ``(r, c)`` in row-major order."""
            return r * cols + c

        for r in range(rows):
            for c in range(cols):
                right = (r, c + 1)
                down = (r + 1, c)
                if wrap:
                    right = (r, (c + 1) % cols)
                    down = ((r + 1) % rows, c)
                for rr, cc in (right, down):
                    if 0 <= rr < rows and 0 <= cc < cols and (rr, cc) != (r, c):
                        a, b = nid(r, c), nid(rr, cc)
                        edges.append((a, b))
                        edges.append((b, a))
        return cls(nodes, edges)

    @classmethod
    def mesh_3d(cls, nx_: int, ny: int, nz: int) -> "CommunicationGraph":
        """3-D mesh with bidirectional axis-aligned neighbor edges."""
        if nx_ <= 0 or ny <= 0 or nz <= 0:
            raise InvalidGraphError("mesh dimensions must be positive")
        nodes = list(range(nx_ * ny * nz))
        edges: List[Edge] = []

        def nid(x: int, y: int, z: int) -> int:
            """Node id of grid cell ``(x, y, z)`` in row-major order."""
            return (x * ny + y) * nz + z

        for x in range(nx_):
            for y in range(ny):
                for z in range(nz):
                    for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                        xx, yy, zz = x + dx, y + dy, z + dz
                        if xx < nx_ and yy < ny and zz < nz:
                            a, b = nid(x, y, z), nid(xx, yy, zz)
                            edges.append((a, b))
                            edges.append((b, a))
        return cls(nodes, edges)

    @classmethod
    def ring(cls, n: int, bidirectional: bool = True) -> "CommunicationGraph":
        """Ring of ``n`` nodes; each node talks to its successor (and predecessor)."""
        if n < 2:
            raise InvalidGraphError("ring needs at least two nodes")
        edges: List[Edge] = []
        for i in range(n):
            j = (i + 1) % n
            edges.append((i, j))
            if bidirectional:
                edges.append((j, i))
        return cls(range(n), edges)

    @classmethod
    def star(cls, n_leaves: int) -> "CommunicationGraph":
        """Star with node 0 at the center talking to every leaf bidirectionally."""
        if n_leaves < 1:
            raise InvalidGraphError("star needs at least one leaf")
        edges: List[Edge] = []
        for leaf in range(1, n_leaves + 1):
            edges.append((0, leaf))
            edges.append((leaf, 0))
        return cls(range(n_leaves + 1), edges)

    @classmethod
    def complete(cls, n: int) -> "CommunicationGraph":
        """Complete directed graph on ``n`` nodes (all-to-all communication)."""
        if n < 2:
            raise InvalidGraphError("complete graph needs at least two nodes")
        edges = [(i, j) for i in range(n) for j in range(n) if i != j]
        return cls(range(n), edges)

    @classmethod
    def hypercube(cls, dimension: int) -> "CommunicationGraph":
        """Boolean hypercube of the given dimension with bidirectional edges."""
        if dimension < 1:
            raise InvalidGraphError("hypercube dimension must be >= 1")
        n = 1 << dimension
        edges: List[Edge] = []
        for i in range(n):
            for bit in range(dimension):
                j = i ^ (1 << bit)
                edges.append((i, j))
        return cls(range(n), edges)

    @classmethod
    def aggregation_tree(cls, branching: int, depth: int,
                         leaves_to_root: bool = True) -> "CommunicationGraph":
        """Complete ``branching``-ary aggregation tree of the given ``depth``.

        Used by the synthetic aggregation query workload (Sect. 6.1.2).  By
        default edges point from leaves towards the root, matching the flow
        of partial aggregates; the longest path then models query response
        time.  Node 0 is the root.
        """
        if branching < 1 or depth < 1:
            raise InvalidGraphError("branching and depth must be >= 1")
        nodes = [0]
        edges: List[Edge] = []
        previous_level = [0]
        next_id = 1
        for _ in range(depth):
            current_level = []
            for parent in previous_level:
                for _ in range(branching):
                    child = next_id
                    next_id += 1
                    nodes.append(child)
                    current_level.append(child)
                    if leaves_to_root:
                        edges.append((child, parent))
                    else:
                        edges.append((parent, child))
            previous_level = current_level
        return cls(nodes, edges)

    @classmethod
    def bipartite(cls, num_frontends: int, num_storage: int,
                  bidirectional: bool = True) -> "CommunicationGraph":
        """Complete bipartite graph between front-end and storage nodes.

        Used by the key-value store workload (Sect. 6.1.3).  Front-end nodes
        are ``0 .. num_frontends - 1``; storage nodes follow.
        """
        if num_frontends < 1 or num_storage < 1:
            raise InvalidGraphError("both sides of the bipartite graph need nodes")
        frontends = list(range(num_frontends))
        storage = list(range(num_frontends, num_frontends + num_storage))
        edges: List[Edge] = []
        for f in frontends:
            for s in storage:
                edges.append((f, s))
                if bidirectional:
                    edges.append((s, f))
        return cls(frontends + storage, edges)

    @classmethod
    def random_graph(cls, n: int, edge_probability: float,
                     seed: int | None = None) -> "CommunicationGraph":
        """Erdos-Renyi style random directed graph (no self loops)."""
        if n < 2:
            raise InvalidGraphError("random graph needs at least two nodes")
        if not 0.0 <= edge_probability <= 1.0:
            raise InvalidGraphError("edge probability must be in [0, 1]")
        rng = make_rng(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < edge_probability
        ]
        return cls(range(n), edges)

    @classmethod
    def random_dag(cls, n: int, edge_probability: float,
                   seed: int | None = None) -> "CommunicationGraph":
        """Random DAG: edges only go from lower to higher node id."""
        if n < 2:
            raise InvalidGraphError("random DAG needs at least two nodes")
        if not 0.0 <= edge_probability <= 1.0:
            raise InvalidGraphError("edge probability must be in [0, 1]")
        rng = make_rng(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_probability
        ]
        return cls(range(n), edges)


def augment_with_dummy_nodes(graph: CommunicationGraph,
                             num_instances: int) -> CommunicationGraph:
    """Pad a graph with isolated dummy nodes until it has ``num_instances`` nodes.

    The MIP encodings in Sect. 4.1 require ``|V| = |S|``; dummy nodes have no
    edges and therefore never constrain the objective.  Dummy node ids are
    allocated above the current maximum node id.
    """
    if num_instances < graph.num_nodes:
        raise InvalidGraphError(
            "cannot pad graph: fewer instances than application nodes"
        )
    if num_instances == graph.num_nodes:
        return graph
    next_id = max(graph.nodes) + 1
    dummies = list(range(next_id, next_id + (num_instances - graph.num_nodes)))
    return CommunicationGraph(list(graph.nodes) + dummies, graph.edges)
