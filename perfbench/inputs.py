"""Seeded input generation for every workload.

Everything a run feeds the program is built here, before any timed window,
from ``(workload, seed, seconds)`` alone: the same arguments give the same
graphs, cost matrices, constraints, solver configs, request bodies and drift
traces.  The *shape* of a run (classes, sizes, shares, op counts) is fixed;
the seed only changes the content, so percentiles land in the same request
class on every seed (see the workload table in README.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.schema import SolveRequest
from repro.core.communication_graph import CommunicationGraph
from repro.core.cost_matrix import CostMatrix
from repro.core.objectives import Objective
from repro.core.problem import DeploymentProblem, PlacementConstraints
from repro.solvers.base import SearchBudget

LL = Objective.LONGEST_LINK
LP = Objective.LONGEST_PATH

#: Instances allocated per application node (the paper over-allocates 10 %).
OVERALLOCATION = 1.1


# ---------------------------------------------------------------------- #
# Instances
# ---------------------------------------------------------------------- #

def cost_matrix(rng: np.random.Generator, num_instances: int) -> CostMatrix:
    """EC2-like mean round-trip costs (ms) over a rack/pod hierarchy.

    Same-rack links are cheapest, cross-pod links dearest, every link has
    log-normal spread, and one instance in ten sits behind a congested
    uplink -- the heterogeneity the paper measures in its Fig. 1.
    """
    m = num_instances
    rack = rng.integers(0, max(2, m // 8), size=m)
    pod = rack // 4
    base = np.where(rack[:, None] == rack[None, :], 0.25,
                    np.where(pod[:, None] == pod[None, :], 0.45, 0.70))
    slow = np.where(rng.random(m) < 0.1, 1.6, 1.0)
    matrix = (base * rng.lognormal(0.0, 0.25, size=(m, m))
              * np.sqrt(slow[:, None] * slow[None, :]))
    np.fill_diagonal(matrix, 0.0)
    return CostMatrix(list(range(m)), matrix)


def random_graph(rng: np.random.Generator, n: int,
                 degree: float) -> CommunicationGraph:
    """Erdos-Renyi directed graph with mean out-degree ``degree``."""
    adjacency = rng.random((n, n)) < degree / n
    np.fill_diagonal(adjacency, False)
    src, dst = np.nonzero(adjacency)
    return CommunicationGraph(range(n), list(zip(src.tolist(), dst.tolist())))


#: Layers of the random layered DAGs per node count (depth is fixed, so
#: longest-path work per instance varies little between seeds).
_DAG_LAYERS = {8: 4, 100: 10, 300: 15, 1000: 25}


def layered_dag(rng: np.random.Generator, n: int) -> CommunicationGraph:
    """Random DAG over equal layers; each node feeds 1-2 nodes one layer on."""
    layers = np.array_split(np.arange(n), _DAG_LAYERS[n])
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for node in upper.tolist():
            fanout = 1 + int(rng.random() < 0.5)
            for target in rng.choice(lower, size=min(fanout, len(lower)),
                                     replace=False).tolist():
                edges.append((node, target))
    return CommunicationGraph(range(n), edges)


#: Mesh shapes of the behavioural-simulation workload per node count.
_MESH = {100: (10, 10), 300: (15, 20), 1000: (25, 40)}


def graph_for(kind: str, n: int, rng: np.random.Generator) -> CommunicationGraph:
    """The communication graph of one application kind at size ``n``."""
    if kind == "mesh":  # behavioural simulation (LL)
        return CommunicationGraph.mesh_2d(*_MESH[n])
    if kind == "rand":  # random LL graph, mean degree 4
        return random_graph(rng, n, 4.0)
    if kind == "kv":  # key-value store: 1 front-end per 4 storage nodes
        return CommunicationGraph.bipartite(n // 5, n - n // 5)
    if kind == "tree":  # aggregation query, branching 3 (n = nodes)
        depth = {121: 4, 364: 5}[n]
        return CommunicationGraph.aggregation_tree(3, depth)
    if kind == "dag":  # random layered LP DAG, mean out-degree 1.5
        return layered_dag(rng, n)
    raise ValueError(f"unknown graph kind {kind!r}")


def constraints_for(rng: np.random.Generator, n: int,
                    num_instances: int) -> PlacementConstraints:
    """Two pinned nodes plus three forbidden instances for five more."""
    nodes = rng.choice(n, size=7, replace=False).tolist()
    instances = rng.choice(num_instances, size=5, replace=False).tolist()
    pinned = {nodes[0]: instances[0], nodes[1]: instances[1]}
    forbidden = {node: instances[2:] for node in nodes[2:]}
    return PlacementConstraints(pinned=pinned, forbidden=forbidden)


def make_problem(rng: np.random.Generator, kind: str, n: int,
                 objective: Objective, constrained: bool) -> DeploymentProblem:
    """One seeded, 10 %-over-allocated problem instance."""
    graph = graph_for(kind, n, rng)
    m = int(math.ceil(graph.num_nodes * OVERALLOCATION))
    costs = cost_matrix(rng, m)
    constraints = (constraints_for(rng, graph.num_nodes, m)
                   if constrained else None)
    return DeploymentProblem(graph, costs, objective, constraints,
                             metadata={"kind": kind, "n": graph.num_nodes})


# ---------------------------------------------------------------------- #
# Solve mixes (search-ll, search-lp)
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class OpClass:
    """One request class of a solve mix: solver x application x size."""

    label: str
    solver: str
    kind: str
    n: int
    share: float  # expected ops per op of the mix (shares sum to 1)
    config: Dict[str, Any] = field(default_factory=dict)
    iterations: Optional[int] = None  # SearchBudget.max_iterations
    #: Every ``constrained_every``-th instance of the class carries
    #: PlacementConstraints (0 = never).
    constrained_every: int = 0
    #: Ops sharing one instance: the searches reuse compilations, while
    #: the cheap one-shot solvers get an instance per op, so their plan
    #: quality averages over more instances.
    ops_per_instance: int = 2


def _ls(n_iter: int, every: int = 0) -> Dict[str, Any]:
    return {"config": {"restarts": 1}, "iterations": n_iter,
            "constrained_every": every}


def _sa(n_iter: int, every: int = 0) -> Dict[str, Any]:
    return {"iterations": n_iter, "constrained_every": every}


#: CP ignores ``max_iterations``; the backtrack cap bounds its search and
#: the budget (iterations only) keeps the default time limit out.
_CP = {"config": {"max_backtracks_per_iteration": 300}, "iterations": 1}

#: search-ll classes in ascending latency.  Ranks: fast classes 0-0.26,
#: ``ls-*-300`` 0.26-0.68 (p50), annealing 0.68-0.80, ``greedy-mesh-100``
#: 0.80-0.97 (p90), then the n = 1000 searches, G2 on the key-value graph
#: and CP in the tail.  Constrained problems (16 of 117 ops) sit in the
#: annealing and n = 1000 classes: never in a percentile class, which
#: stays one latency mode, and never under R1, G1 or CP, whose constrained
#: runs are several times slower and would blur the class bands.
SEARCH_LL: Tuple[OpClass, ...] = (
    OpClass("g1-mesh-100", "g1", "mesh", 100, 0.07, ops_per_instance=1),
    OpClass("r1-mesh-100", "r1", "mesh", 100, 0.07, {"num_samples": 200},
            ops_per_instance=1),
    OpClass("g1-kv-50", "g1", "kv", 50, 0.07, ops_per_instance=1),
    OpClass("r1-rand-300", "r1", "rand", 300, 0.06, {"num_samples": 100},
            ops_per_instance=1),
    OpClass("ls-mesh-300", "local-search", "mesh", 300, 0.20, **_ls(1500)),
    OpClass("ls-rand-300", "local-search", "rand", 300, 0.20, **_ls(1500)),
    OpClass("sa-mesh-100", "annealing", "mesh", 100, 0.06, **_sa(1500, 1)),
    OpClass("sa-kv-50", "annealing", "kv", 50, 0.06, **_sa(1500, 1)),
    OpClass("greedy-mesh-100", "greedy", "mesh", 100, 0.17, ops_per_instance=1),
    OpClass("ls-mesh-1000", "local-search", "mesh", 1000, 0.01,
            **_ls(4000, 1)),
    OpClass("ls-rand-1000", "local-search", "rand", 1000, 0.01,
            **_ls(4000, 1)),
    OpClass("greedy-kv-50", "greedy", "kv", 50, 0.01),
    OpClass("cp-mesh-100", "cp", "mesh", 100, 0.01, **_CP),
)

#: search-lp classes in ascending latency.  Ranks: fast classes 0-0.28,
#: ``sa-dag-300`` 0.28-0.68 (p50), the n <= 364 local searches and G1
#: 0.68-0.82, ``ls-dag-1000`` 0.82-0.96 (p90), then G2 at n = 364 and MIP.
SEARCH_LP: Tuple[OpClass, ...] = (
    OpClass("g1-tree-121", "g1", "tree", 121, 0.07, ops_per_instance=1),
    OpClass("r1-tree-121", "r1", "tree", 121, 0.07, {"num_samples": 200},
            ops_per_instance=1),
    OpClass("greedy-tree-121", "greedy", "tree", 121, 0.07, ops_per_instance=1),
    OpClass("r1-tree-364", "r1", "tree", 364, 0.07, {"num_samples": 100},
            ops_per_instance=1),
    OpClass("sa-dag-300", "annealing", "dag", 300, 0.40, **_sa(1000)),
    OpClass("ls-tree-121", "local-search", "tree", 121, 0.05, **_ls(2000, 1)),
    OpClass("ls-dag-100", "local-search", "dag", 100, 0.05, **_ls(2000, 1)),
    OpClass("g1-tree-364", "g1", "tree", 364, 0.04, ops_per_instance=1),
    OpClass("ls-dag-1000", "local-search", "dag", 1000, 0.14, **_ls(1000)),
    OpClass("greedy-tree-364", "greedy", "tree", 364, 0.02,
            constrained_every=1),
    OpClass("mip-dag-8", "mip", "dag", 8, 0.02,
            {"node_limit": 5}, iterations=5),
)

#: Ops per second of --seconds the timed phase is sized to; a run's op
#: count depends on --seconds only, never on measured speed.
OPS_PER_SECOND = {"search-ll": 12.0, "search-lp": 10.0}

@dataclass
class SolveOp:
    """One timed solve: its class and its request."""

    label: str
    request: SolveRequest


def class_counts(shares: List[float], total: int) -> List[int]:
    """Ops per class for ``total`` ops; every class runs at least once."""
    return [max(1, round(share * total)) for share in shares]


def _interleave(groups: List[List[Any]]) -> List[Any]:
    """Spread each group's items evenly over the whole sequence."""
    keyed = []
    for group in groups:
        for index, item in enumerate(group):
            keyed.append(((index + 0.5) / len(group), len(keyed), item))
    keyed.sort(key=lambda entry: (entry[0], entry[1]))
    return [item for _, _, item in keyed]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def solve_mix(workload: str, seed: int, seconds: float,
              warmup: bool = False) -> List[SolveOp]:
    """The ordered solve ops of one search run (or of its warm-up)."""
    mix = SEARCH_LL if workload == "search-ll" else SEARCH_LP
    objective = LL if workload == "search-ll" else LP
    # Warm-up ops draw from their own stream, so no timed instance is
    # compiled or cached before the timed phase.
    rng = _rng(seed, 0 if workload == "search-ll" else 1, int(warmup))
    if warmup:
        counts = [1] * len(mix)
    else:
        total = max(1, round(OPS_PER_SECOND[workload] * seconds))
        counts = class_counts([cls.share for cls in mix], total)
    groups = []
    for cls, count in zip(mix, counts):
        instances = [
            make_problem(rng, cls.kind, cls.n, objective,
                         constrained=bool(cls.constrained_every)
                         and (index + 1) % cls.constrained_every == 0)
            for index in range(max(1, count // cls.ops_per_instance))
        ]
        ops = []
        for index in range(count):
            config = dict(cls.config)
            if cls.solver not in ("g1", "greedy"):
                config["seed"] = int(rng.integers(1 << 31))
            budget = (SearchBudget(max_iterations=cls.iterations)
                      if cls.iterations is not None else None)
            ops.append(SolveOp(cls.label, SolveRequest(
                problem=instances[index % len(instances)], solver=cls.solver,
                config=config, budget=budget)))
        groups.append(ops)
    ordered = _interleave(groups)
    prefix = "warm" if warmup else workload
    for index, op in enumerate(ordered):
        op.request = op.request.with_id(f"{prefix}-{index:04d}")
    return ordered


# ---------------------------------------------------------------------- #
# serve-mixed: a lock-step schedule over two connections
# ---------------------------------------------------------------------- #

#: Lock-step steps per 50 of each request class.  Both connections send
#: the same class on a step, so the two requests contend symmetrically.
#: Store-served repeats are 2/3 of requests.  In ascending latency:
#: repeats at n = 100, duplicate pairs (one identical cold n = 100 body on
#: both connections; the second submission coalesces) and cold n = 100
#: solves (ranks 0-0.26), repeats at n = 300 (0.26-0.76, so p50 is a
#: ``repeat-300``), cold n = 300 solves (0.76-1.0, so p90 is a
#: ``cold-300``).
SERVE_STEPS = (("repeat-100", 8), ("repeat-300", 25), ("cold-100", 3),
               ("dup-100", 2), ("cold-300", 12))
SERVE_STEPS_PER_SECOND = 5.0  # about 8.5 requests/s on two cores
#: Iteration budgets of the cold local-search solves per objective and
#: size, chosen so the longest-link and longest-path solves of one size
#: cost about the same (one latency mode per class): about 50 ms at
#: n = 100 and 130 ms at n = 300 on one core.
SERVE_ITERATIONS = {(LL, 100): 1000, (LP, 100): 500,
                    (LL, 300): 4000, (LP, 300): 1000}
#: Priority each connection's requests carry (connection 0, connection 1).
SERVE_PRIORITIES = ("interactive", "batch")


@dataclass
class ServeRequest:
    """One HTTP solve: its class, body id, and the problem it carries."""

    label: str
    body_id: int
    problem: DeploymentProblem
    body: bytes = b""


def _serve_body(rng: np.random.Generator, body_id: int, n: int
                ) -> Tuple[DeploymentProblem, Dict[str, Any]]:
    """A cold solve body: LL mesh / LP DAG alternating, local search."""
    if body_id % 2:
        problem = make_problem(rng, "mesh" if n == 100 else "rand", n, LL,
                               constrained=False)
    else:
        problem = make_problem(rng, "dag", n, LP, constrained=False)
    request = SolveRequest(
        problem=problem, solver="local-search",
        config={"restarts": 1, "seed": int(rng.integers(1 << 31))},
        budget=SearchBudget(max_iterations=SERVE_ITERATIONS[
            problem.objective, n]))
    return problem, request.to_dict()


def serve_schedule(seed: int, seconds: float, warmup: bool = False
                   ) -> List[Tuple[ServeRequest, ServeRequest]]:
    """Lock-step steps of ``(connection 0, connection 1)`` requests."""
    rng = _rng(seed, 2, int(warmup))
    if warmup:
        kinds = ["repeat-100", "repeat-300", "cold-100", "cold-300"]
    else:
        steps = max(len(SERVE_STEPS),
                    round(SERVE_STEPS_PER_SECOND * seconds))
        counts = class_counts([count / 50 for _, count in SERVE_STEPS],
                              steps)
        kinds = _interleave([[label] * count for (label, _), count
                             in zip(SERVE_STEPS, counts)])
    # A repeat needs an earlier step's cold body of its size: open with
    # one cold step of each size.
    for size in ("300", "100"):
        kinds.insert(0, kinds.pop(kinds.index("cold-" + size)))
    problems: Dict[int, DeploymentProblem] = {}
    encoded: Dict[int, bytes] = {}
    cold_ids: Dict[str, List[int]] = {"100": [], "300": []}
    repeats = {"100": 0, "300": 0}
    steps_out: List[Tuple[ServeRequest, ServeRequest]] = []

    def body(body_id: int, conn: int) -> bytes:
        # One encoding per body; the connection's priority is spliced in.
        prefix = json.dumps({"priority": SERVE_PRIORITIES[conn]})[:-1]
        return (prefix + ", ").encode() + encoded[body_id][1:]

    def request_for(label: str, conn: int, colds: List) -> ServeRequest:
        kind, size = label.split("-")
        if kind == "repeat":
            # Round-robin over the earlier cold bodies, so every body is
            # repeated about equally often on every seed.
            body_id = cold_ids[size][repeats[size] % len(cold_ids[size])]
            repeats[size] += 1
        else:
            body_id = len(problems)
            problem, payload = _serve_body(rng, body_id, int(size))
            problems[body_id] = problem
            encoded[body_id] = json.dumps(payload).encode()
            colds.append((size, body_id))
        return ServeRequest(label, body_id, problems[body_id],
                            body(body_id, conn))

    for kind in kinds:
        colds: List = []
        if kind == "dup-100":
            first = request_for("cold-100", 0, colds)
            first.label = kind
            step = (first, ServeRequest(kind, first.body_id, first.problem,
                                        body(first.body_id, 1)))
        else:
            step = (request_for(kind, 0, colds), request_for(kind, 1, colds))
        steps_out.append(step)
        for size, body_id in colds:
            cold_ids[size].append(body_id)
    return steps_out


# ---------------------------------------------------------------------- #
# redeploy-watch: seeded drift traces
# ---------------------------------------------------------------------- #

#: One watch session's fold pattern (the same on every seed):
#: ``a`` absorbed by the stream (max drift < 1 %), ``h`` held by the
#: policy (drift < 4 %), ``s`` link spike (drift 2.0, warm re-solve),
#: ``r`` return to an earlier spiked matrix (a store hit).  With the
#: initial cold solve, one session is 41 ops: absorbed 0-0.12, held
#: 0.12-0.73 (p50), returns 0.73-0.83, re-solves 0.83-1.0 (p90).
WATCH_PATTERN = "hahhhshahhahhsshrhhhahshrhhhhhsahrhhhsrh"
WATCH_OPS_PER_SECOND = 150.0
WATCH_N = 100
STREAM_THRESHOLD = 0.01


@dataclass
class WatchSession:
    """One watch call: its problem and the raw cost matrices to fold."""

    problem: DeploymentProblem
    folds: List[Tuple[str, CostMatrix]]


def _perturbed(rng: np.random.Generator, base: np.ndarray, share: float,
               amplitude: float) -> np.ndarray:
    matrix = base.copy()
    mask = rng.random(base.shape) < share
    np.fill_diagonal(mask, False)
    matrix[mask] *= 1.0 + rng.uniform(-amplitude, amplitude,
                                      size=int(mask.sum()))
    return matrix


def watch_sessions(seed: int, seconds: float, warmup: bool = False
                   ) -> List[WatchSession]:
    """The watch sessions of one redeploy-watch run (or its warm-up)."""
    rng = _rng(seed, 3, int(warmup))
    count = 1 if warmup else max(1, round(
        WATCH_OPS_PER_SECOND * seconds / (len(WATCH_PATTERN) + 1)))
    sessions = []
    for index in range(count):
        problem = make_problem(rng, "mesh" if index % 2 else "rand",
                               WATCH_N, LL, constrained=False)
        ids = problem.costs.instance_ids
        # ``base`` is the latest spike level, ``current`` the stream's
        # current matrix (the last fold it emitted).
        base = current = problem.costs.as_array()
        spikes: List[np.ndarray] = []
        folds = []
        for code in WATCH_PATTERN:
            if code == "a":
                matrix = _perturbed(rng, current, 0.05, 0.005)
            elif code == "h":
                matrix = current = _perturbed(rng, base, 0.05, 0.03)
            elif code == "s":
                base = base.copy()
                links = rng.integers(0, len(ids), size=(3, 2))
                for src, dst in links:
                    base[src, (dst if dst != src else src + 1) % len(ids)] *= 3
                spikes.append(base)
                matrix = current = base
            else:  # return to the oldest spiked matrix other than the base
                base = next(old for old in spikes if old is not base)
                matrix = current = base
            folds.append((code, CostMatrix(ids, matrix)))
        sessions.append(WatchSession(problem, folds))
    return sessions
