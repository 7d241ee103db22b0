"""Pure-Python best-first branch and bound over LP relaxations.

This solver plays the role of the commercial MIP solver in the paper.  It
keeps a best-first frontier of subproblems ordered by their LP-relaxation
bound, branches on the most fractional integer variable, and — crucially for
the deployment MIPs, whose LP relaxations are notoriously weak (Sect. 6.3.2)
— lets the caller provide a *rounding callback* that turns a fractional LP
solution into a feasible incumbent, so useful deployments appear early even
when proving optimality is hopeless.  Incumbent improvements are recorded
with timestamps, which is what the convergence figures (Figs. 7 and 9) plot.

Two rounding interfaces are supported.  The scalar ``rounding_callback``
builds one full solution vector per LP solution and scores it through the
model (kept as the reference oracle).  A :class:`DeploymentRounder` instead
batches the LP candidates of each branch-and-bound node, scores the rounded
deployments in one ``evaluate_batch`` call on the compiled evaluation
engine, and only materialises the full solution vector for candidates that
actually improve the incumbent.  The decision sequence (filters, incumbent
updates, pushes) replays the scalar path exactly, so both produce
bit-identical incumbents, traces and node sequences.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import MipModel, MipSolution
from .scipy_backend import solve_lp_relaxation

#: Turns a (possibly fractional) solution vector into a feasible integer
#: solution vector, or returns ``None`` when it cannot.
RoundingCallback = Callable[[np.ndarray], Optional[np.ndarray]]


def warm_start_assignment(encoding, plan) -> Dict[int, int]:
    """Node -> instance-index map realising ``plan`` on a MIP encoding.

    Shared by both deployment encodings (their padded-graph layout is
    identical): real nodes follow the plan, dummy (padding) nodes take the
    instance indices the plan leaves unused, so the result satisfies both
    assignment equality blocks and can be fed to the encoding's
    ``solution_vector`` as a warm-start incumbent.
    """
    index = {instance: j for j, instance in enumerate(encoding.instance_ids)}
    assignment = {node: index[plan.instance_for(node)]
                  for node in encoding.graph.nodes}
    used = set(assignment.values())
    spare = (j for j in range(encoding.num_instances) if j not in used)
    for node in encoding.nodes:
        if node not in assignment:
            assignment[node] = next(spare)
    return assignment


class DeploymentRounder:
    """Batch primal heuristic over a deployment encoding.

    Rounds LP solution vectors to injective deployments (through the
    encoding's Hungarian extraction), scores the whole batch with the
    compiled evaluation engine, and rebuilds the full MIP solution vector
    only for a candidate that is about to become the incumbent.  For the
    deployment encodings every rounded candidate is feasible by
    construction (perfect matching plus exactly-propagated auxiliaries), so
    the per-candidate model feasibility check of the scalar path is skipped
    without changing any outcome.

    Args:
        encoding: an ``LLNDPEncoding`` / ``LPNDPEncoding`` style object
            exposing ``_extract_assignment`` and ``solution_vector``.
        problem: compiled evaluation engine for (graph, costs) of the
            encoding.
        objective: which deployment objective the encoding minimises.
    """

    def __init__(self, encoding, problem, objective):
        self.encoding = encoding
        self.problem = problem
        self.objective = objective

    def round_batch(self, batch: Sequence[np.ndarray]
                    ) -> Tuple[np.ndarray, List[Dict[int, int]]]:
        """Objective values and assignments of the rounded candidates.

        Returns a ``(k,)`` cost array (bit-identical to what the scalar
        path's ``model.evaluate_objective`` would report for the same
        candidates) and the node -> instance-index assignments realising
        them.
        """
        assignments = [self.encoding._extract_assignment(v) for v in batch]
        rows = np.array(
            [[assignment[node] for node in self.problem.node_ids]
             for assignment in assignments],
            dtype=np.intp,
        ).reshape(len(assignments), self.problem.num_nodes)
        costs = self.problem.evaluate_batch(rows, self.objective)
        return costs, assignments

    def realize(self, assignment: Dict[int, int]) -> np.ndarray:
        """Full MIP solution vector for one rounded assignment."""
        return self.encoding.solution_vector(assignment)


@dataclass(order=True)
class _Node:
    """A branch-and-bound node, ordered by its LP bound."""

    bound: float
    sequence: int
    extra_bounds: Dict[int, Tuple[float, float]] = field(compare=False)
    lp_values: Optional[np.ndarray] = field(compare=False, default=None)


@dataclass
class BranchAndBoundResult:
    """Outcome of a branch-and-bound run."""

    solution: MipSolution
    incumbent_trace: Tuple[Tuple[float, float], ...]
    nodes_explored: int
    proven_optimal: bool
    #: ``(bound, sequence)`` of every node popped from the frontier, in
    #: order, when the search ran with ``record_nodes=True`` (used by the
    #: engine-vs-oracle agreement tests); empty otherwise.
    node_sequence: Tuple[Tuple[float, int], ...] = ()


class BranchAndBound:
    """Best-first branch and bound with LP bounding.

    Args:
        model: the mixed-integer model to minimise.
        rounding_callback: optional scalar primal heuristic applied to every
            LP solution encountered (the reference oracle path).
        batch_rounder: optional :class:`DeploymentRounder`; when given it
            replaces ``rounding_callback`` and scores each node's LP
            candidates in one engine batch.
        integrality_tolerance: threshold below which a value counts as integral.
        record_nodes: record the popped node sequence in the result.
    """

    def __init__(self, model: MipModel,
                 rounding_callback: RoundingCallback | None = None,
                 batch_rounder: DeploymentRounder | None = None,
                 integrality_tolerance: float = 1e-6,
                 record_nodes: bool = False):
        self.model = model
        self.rounding_callback = rounding_callback
        self.batch_rounder = batch_rounder
        self.integrality_tolerance = integrality_tolerance
        self.record_nodes = record_nodes

    # ------------------------------------------------------------------ #

    def solve(self, time_limit_s: float | None = None,
              node_limit: int | None = None,
              initial_incumbent: np.ndarray | None = None
              ) -> BranchAndBoundResult:
        """Run the search until optimality, the time limit or the node limit.

        Args:
            time_limit_s: wall-clock limit.
            node_limit: cap on explored nodes.
            initial_incumbent: optional feasible solution vector installed
                as the starting incumbent, so bound-based pruning is active
                from the first node (the paper's warm start, Sect. 6.3.1).
        """
        start = time.perf_counter()
        deadline = None if time_limit_s is None else start + time_limit_s
        counter = itertools.count()
        trace: List[Tuple[float, float]] = []
        node_log: List[Tuple[float, int]] = []

        best_values: Optional[np.ndarray] = None
        best_objective = np.inf

        def consider_incumbent(values: np.ndarray) -> None:
            nonlocal best_values, best_objective
            if not self.model.is_feasible(values):
                return
            objective = self.model.evaluate_objective(values)
            if objective < best_objective - 1e-12:
                best_values = values.copy()
                best_objective = objective
                trace.append((time.perf_counter() - start, objective))

        def consider_rounded(cost: float, assignment: Dict[int, int]) -> None:
            # Engine-path twin of rounding + consider_incumbent: same
            # improvement threshold on the same float, but the full vector
            # is only built for an actual improvement (rounded deployments
            # are feasible by construction).
            nonlocal best_values, best_objective
            if cost < best_objective - 1e-12:
                best_values = self.batch_rounder.realize(assignment)
                best_objective = cost
                trace.append((time.perf_counter() - start, cost))

        def round_lp(values: np.ndarray) -> None:
            """Primal heuristic on a single LP solution (either path)."""
            if self.batch_rounder is not None:
                costs, assignments = self.batch_rounder.round_batch([values])
                consider_rounded(float(costs[0]), assignments[0])
            else:
                self._try_round(values, consider_incumbent)

        if initial_incumbent is not None:
            consider_incumbent(initial_incumbent)

        root_lp = solve_lp_relaxation(self.model)
        nodes_explored = 0
        proven_optimal = False

        if root_lp.status == "infeasible":
            solution = MipSolution(status="infeasible", objective_value=None,
                                   values=None, optimal=False,
                                   solve_time_s=time.perf_counter() - start)
            return BranchAndBoundResult(solution=solution, incumbent_trace=(),
                                        nodes_explored=0, proven_optimal=True)

        heap: List[_Node] = []
        if root_lp.values is not None:
            round_lp(root_lp.values)
            heapq.heappush(heap, _Node(bound=root_lp.objective_value or -np.inf,
                                       sequence=next(counter), extra_bounds={},
                                       lp_values=root_lp.values))

        while heap:
            if deadline is not None and time.perf_counter() > deadline:
                break
            if node_limit is not None and nodes_explored >= node_limit:
                break
            node = heapq.heappop(heap)
            nodes_explored += 1
            if self.record_nodes:
                node_log.append((node.bound, node.sequence))
            if node.bound >= best_objective - 1e-9:
                # Bound can no longer improve on the incumbent; since the heap
                # is ordered by bound, nothing later can either.
                proven_optimal = True
                break

            lp_values = node.lp_values
            if lp_values is None:
                lp = solve_lp_relaxation(self.model, extra_bounds=node.extra_bounds)
                if lp.status != "optimal" or lp.values is None:
                    continue
                if lp.objective_value is not None and lp.objective_value >= best_objective - 1e-9:
                    continue
                lp_values = lp.values
                round_lp(lp_values)

            branch_variable = self._most_fractional(lp_values)
            if branch_variable is None:
                consider_incumbent(np.round(lp_values))
                continue

            value = lp_values[branch_variable]
            children = []
            for low, high in ((np.floor(value) + 1, np.inf), (-np.inf, np.floor(value))):
                child_bounds = dict(node.extra_bounds)
                previous = child_bounds.get(branch_variable, (-np.inf, np.inf))
                child_bounds[branch_variable] = (
                    max(previous[0], low), min(previous[1], high)
                )
                lp = solve_lp_relaxation(self.model, extra_bounds=child_bounds)
                if lp.status != "optimal" or lp.values is None:
                    continue
                children.append((child_bounds, lp))

            rounded: Dict[int, Tuple[float, Dict[int, int]]] = {}
            if self.batch_rounder is not None and children:
                # One engine batch scores the children's roundings; rounding
                # a child does not depend on the incumbent, so precomputing
                # the costs and replaying the scalar path's filter/update
                # order below keeps every decision identical.  Children the
                # current incumbent already bound-prunes are excluded up
                # front — the incumbent only improves during the replay, so
                # a pre-pruned child can never pass the replay filter and
                # its Hungarian rounding would be wasted work.
                survivors = [
                    index for index, (_, lp) in enumerate(children)
                    if lp.objective_value is None
                    or lp.objective_value < best_objective - 1e-9
                ]
                if survivors:
                    child_costs, child_assignments = self.batch_rounder.round_batch(
                        [children[index][1].values for index in survivors]
                    )
                    rounded = {
                        index: (float(child_costs[k]), child_assignments[k])
                        for k, index in enumerate(survivors)
                    }
            for index, (child_bounds, lp) in enumerate(children):
                if lp.objective_value is not None and lp.objective_value >= best_objective - 1e-9:
                    continue
                if self.batch_rounder is not None:
                    consider_rounded(*rounded[index])
                else:
                    self._try_round(lp.values, consider_incumbent)
                heapq.heappush(heap, _Node(
                    bound=lp.objective_value if lp.objective_value is not None else -np.inf,
                    sequence=next(counter),
                    extra_bounds=child_bounds,
                    lp_values=lp.values,
                ))

        if not heap and not proven_optimal and best_values is not None:
            # Search tree exhausted without pruning by bound: optimal.
            proven_optimal = (deadline is None or time.perf_counter() <= deadline) and \
                (node_limit is None or nodes_explored < node_limit)

        elapsed = time.perf_counter() - start
        if best_values is None:
            solution = MipSolution(status="no-solution", objective_value=None,
                                   values=None, optimal=False, solve_time_s=elapsed)
        else:
            solution = MipSolution(
                status="optimal" if proven_optimal else "feasible",
                objective_value=best_objective, values=best_values,
                optimal=proven_optimal, solve_time_s=elapsed,
            )
        return BranchAndBoundResult(solution=solution,
                                    incumbent_trace=tuple(trace),
                                    nodes_explored=nodes_explored,
                                    proven_optimal=proven_optimal,
                                    node_sequence=tuple(node_log))

    # ------------------------------------------------------------------ #

    def _most_fractional(self, values: np.ndarray) -> Optional[int]:
        """Integer variable whose LP value is farthest from integral."""
        integers = self.model.integer_indices()
        if not integers:
            return None
        integer_values = values[integers]
        distances = np.abs(integer_values - np.round(integer_values))
        best = int(np.argmax(distances))
        if distances[best] > self.integrality_tolerance:
            return integers[best]
        return None

    def _try_round(self, values: np.ndarray,
                   consider_incumbent: Callable[[np.ndarray], None]) -> None:
        """Run the scalar primal rounding heuristic, if any, on an LP solution."""
        if self.rounding_callback is None:
            return
        rounded = self.rounding_callback(values)
        if rounded is not None:
            consider_incumbent(rounded)
