"""Degree- and neighborhood-based compatibility filtering (Sect. 4.2).

At the root of the CP search tree the paper filters the domain of every
application node using a labeling that expresses compatibility between
application nodes and instances in the threshold graph ``G_c``: an
application node can only be mapped to an instance whose in/out degree is at
least as large, and whose neighborhood degree profile dominates the node's.
This module computes those initial domains for a given threshold graph.

The CP solver uses the vectorized entry points
(:func:`compatibility_domains`, :func:`quick_infeasibility_check`): node
degrees and neighbour-degree profiles come from
:class:`~repro.core.evaluation.CompiledProblem` index arrays when one is
supplied, because at paper scale (100+ nodes, 110+ instances) a
per-(node, instance) Python loop would dominate each threshold iteration.
The dict-walking ``*_reference`` builders are not on any solver path; they
are the oracles ``tests/test_exact_engine_agreement.py`` checks the
vectorized builders against on random instances, and the baselines
``benchmarks/bench_evaluation_engine.py`` times them against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...core.communication_graph import CommunicationGraph
from ...core.evaluation import CompiledProblem
from ...core.types import NodeId


def threshold_degrees(allowed: np.ndarray) -> Dict[str, np.ndarray]:
    """Out-, in- and undirected degrees of every instance in a threshold graph.

    Args:
        allowed: boolean adjacency matrix of the instance threshold graph
            ``G_c`` (entry ``[a, b]`` is ``True`` when the link ``a -> b`` is
            cheap enough to use).
    """
    out_degree = allowed.sum(axis=1)
    in_degree = allowed.sum(axis=0)
    undirected = (allowed | allowed.T).sum(axis=1)
    return {"out": out_degree, "in": in_degree, "undirected": undirected}


def _dominates(sorted_larger: List[int], sorted_smaller: List[int]) -> bool:
    """True when the k-th largest of one sequence is >= the k-th of the other."""
    if len(sorted_larger) < len(sorted_smaller):
        return False
    return all(
        sorted_larger[k] >= sorted_smaller[k] for k in range(len(sorted_smaller))
    )


def _node_degree_arrays(graph: CommunicationGraph,
                        problem: Optional[CompiledProblem]
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(out, in, undirected)`` node degrees in ``graph.nodes`` order."""
    if problem is not None:
        return problem.node_degrees()
    out_deg = np.fromiter((graph.out_degree(n) for n in graph.nodes),
                          dtype=np.int64, count=graph.num_nodes)
    in_deg = np.fromiter((graph.in_degree(n) for n in graph.nodes),
                         dtype=np.int64, count=graph.num_nodes)
    undirected = np.fromiter((graph.degree(n) for n in graph.nodes),
                             dtype=np.int64, count=graph.num_nodes)
    return out_deg, in_deg, undirected


def _node_profile_matrix(graph: CommunicationGraph,
                         problem: Optional[CompiledProblem]) -> np.ndarray:
    """Descending neighbour-degree profiles per node, padded with ``-inf``."""
    if problem is not None:
        return problem.neighbor_degree_profiles()
    width = max((graph.degree(n) for n in graph.nodes), default=0)
    profiles = np.full((graph.num_nodes, max(width, 1)), -np.inf)
    for i, node in enumerate(graph.nodes):
        neighbor_degrees = sorted(
            (graph.degree(m) for m in graph.neighbors(node)), reverse=True
        )
        profiles[i, : len(neighbor_degrees)] = neighbor_degrees
    return profiles


def compatibility_domains(graph: CommunicationGraph, allowed: np.ndarray,
                          refine_neighborhood: bool = True,
                          problem: Optional[CompiledProblem] = None
                          ) -> Dict[NodeId, Set[int]]:
    """Initial CP domains: which instance indices each node may map to.

    An instance index ``s`` stays in the domain of node ``i`` when:

    1. the out-degree and in-degree of ``s`` in the threshold graph are at
       least the out-/in-degree of ``i`` in the communication graph, and
    2. (optionally) the sorted undirected degrees of the threshold-graph
       neighbors of ``s`` dominate the sorted undirected degrees of the
       communication-graph neighbors of ``i``.

    Both checks are necessary conditions for a monomorphism to exist, so the
    filtering never removes feasible values.  The whole computation runs as
    a few broadcasted comparisons; ``problem`` (the compiled evaluation
    engine for the instance) supplies cached node degrees and profiles.
    """
    degrees = threshold_degrees(allowed)
    node_out, node_in, _ = _node_degree_arrays(graph, problem)

    # (n, m): degree compatibility of every (node, instance) pair at once.
    ok = (degrees["out"][None, :] >= node_out[:, None]) \
        & (degrees["in"][None, :] >= node_in[:, None])

    if refine_neighborhood:
        node_profiles = _node_profile_matrix(graph, problem)
        width = node_profiles.shape[1]
        undirected_allowed = allowed | allowed.T
        # Neighbour degrees of every instance, non-neighbours masked to -inf,
        # sorted descending and truncated to the widest node profile.
        instance_profiles = np.where(
            undirected_allowed, degrees["undirected"][None, :].astype(float),
            -np.inf,
        )
        instance_profiles = -np.sort(-instance_profiles, axis=1)[:, :width]
        if instance_profiles.shape[1] < width:
            instance_profiles = np.pad(
                instance_profiles,
                ((0, 0), (0, width - instance_profiles.shape[1])),
                constant_values=-np.inf,
            )
        # dominate[i, s]: instance s's profile covers node i's entry-wise;
        # -inf padding makes missing node entries vacuous and missing
        # instance neighbours (profile exhausted) fail, encoding the length
        # check of the reference implementation.
        dominate = np.all(
            instance_profiles[None, :, :] >= node_profiles[:, None, :], axis=2
        )
        ok &= dominate

    return {
        node: set(np.flatnonzero(ok[i]).tolist())
        for i, node in enumerate(graph.nodes)
    }


def compatibility_domains_reference(graph: CommunicationGraph,
                                    allowed: np.ndarray,
                                    refine_neighborhood: bool = True
                                    ) -> Dict[NodeId, Set[int]]:
    """Dict-walking oracle for :func:`compatibility_domains` (kept for tests)."""
    num_instances = allowed.shape[0]
    degrees = threshold_degrees(allowed)
    undirected_allowed = allowed | allowed.T

    node_out = {n: graph.out_degree(n) for n in graph.nodes}
    node_in = {n: graph.in_degree(n) for n in graph.nodes}
    node_neighbor_degrees = {
        n: sorted((graph.degree(m) for m in graph.neighbors(n)), reverse=True)
        for n in graph.nodes
    }
    instance_neighbor_degrees: List[List[int]] = []
    for s in range(num_instances):
        neighbor_indices = np.nonzero(undirected_allowed[s])[0]
        instance_neighbor_degrees.append(
            sorted(
                (int(degrees["undirected"][t]) for t in neighbor_indices),
                reverse=True,
            )
        )

    domains: Dict[NodeId, Set[int]] = {}
    for node in graph.nodes:
        candidates: Set[int] = set()
        for s in range(num_instances):
            if degrees["out"][s] < node_out[node]:
                continue
            if degrees["in"][s] < node_in[node]:
                continue
            if refine_neighborhood and not _dominates(
                instance_neighbor_degrees[s], node_neighbor_degrees[node]
            ):
                continue
            candidates.add(s)
        domains[node] = candidates
    return domains


def quick_infeasibility_check(graph: CommunicationGraph,
                              allowed: np.ndarray,
                              problem: Optional[CompiledProblem] = None
                              ) -> bool:
    """Cheap necessary conditions for a monomorphism to exist.

    Returns ``True`` when the threshold graph *might* contain the
    communication graph (the CP search still has to confirm), ``False`` when
    it provably cannot — e.g. not enough instances, not enough edges, or the
    degree profiles cannot be matched.  Vectorized; agrees exactly with
    :func:`quick_infeasibility_check_reference`.

    ``problem`` (the caller's compiled engine for the instance) supplies the
    cached node degree arrays; without it they are recomputed from the
    graph on every call — the CP solver repeats this check once per
    threshold iteration, so pass the engine when one exists.
    """
    num_instances = allowed.shape[0]
    if num_instances < graph.num_nodes:
        return False
    if int(allowed.sum()) < graph.num_edges:
        return False
    degrees = threshold_degrees(allowed)
    node_out, node_in, _ = _node_degree_arrays(graph, problem)
    instance_out = -np.sort(-degrees["out"].astype(np.int64))[: graph.num_nodes]
    instance_in = -np.sort(-degrees["in"].astype(np.int64))[: graph.num_nodes]
    if (instance_out < -np.sort(-node_out)).any():
        return False
    if (instance_in < -np.sort(-node_in)).any():
        return False
    return True


def quick_infeasibility_check_reference(graph: CommunicationGraph,
                                        allowed: np.ndarray) -> bool:
    """Dict-walking oracle for :func:`quick_infeasibility_check`."""
    num_instances = allowed.shape[0]
    if num_instances < graph.num_nodes:
        return False
    if int(allowed.sum()) < graph.num_edges:
        return False
    degrees = threshold_degrees(allowed)
    instance_out = sorted((int(d) for d in degrees["out"]), reverse=True)
    instance_in = sorted((int(d) for d in degrees["in"]), reverse=True)
    node_out = sorted((graph.out_degree(n) for n in graph.nodes), reverse=True)
    node_in = sorted((graph.in_degree(n) for n in graph.nodes), reverse=True)
    if not _dominates(instance_out, node_out):
        return False
    if not _dominates(instance_in, node_in):
        return False
    return True


def assignment_cost_lower_bounds_reference(
        graph: CommunicationGraph, cost_array: np.ndarray
) -> Dict[NodeId, Tuple[float, ...]]:
    """Dict-walking oracle for per-assignment longest-link lower bounds.

    Mirrors :meth:`CompiledProblem.assignment_cost_lower_bounds`: placing a
    node with ``k`` out-edges on instance ``s`` costs at least the ``k``-th
    cheapest outgoing link of ``s`` (dually for in-edges).  Returns, for
    each node, the per-instance bounds as a tuple.
    """
    num_instances = cost_array.shape[0]
    sorted_out = [
        sorted(float(cost_array[s, t]) for t in range(num_instances) if t != s)
        for s in range(num_instances)
    ]
    sorted_in = [
        sorted(float(cost_array[t, s]) for t in range(num_instances) if t != s)
        for s in range(num_instances)
    ]
    bounds: Dict[NodeId, Tuple[float, ...]] = {}
    for node in graph.nodes:
        out_deg = graph.out_degree(node)
        in_deg = graph.in_degree(node)
        per_instance = []
        for s in range(num_instances):
            bound = 0.0
            if out_deg > 0:
                bound = sorted_out[s][out_deg - 1]
            if in_deg > 0:
                bound = max(bound, sorted_in[s][in_deg - 1])
            per_instance.append(bound)
        bounds[node] = tuple(per_instance)
    return bounds


def longest_link_lower_bound_reference(graph: CommunicationGraph,
                                       cost_array: np.ndarray) -> float:
    """Dict-walking oracle for :meth:`CompiledProblem.longest_link_lower_bound`."""
    if graph.num_nodes == 0:
        return 0.0
    bounds = assignment_cost_lower_bounds_reference(graph, cost_array)
    return max(min(per_instance) for per_instance in bounds.values())
