"""Swap-based local search and simulated annealing.

These solvers are not part of the paper's evaluated algorithm set; they are
the natural "next lightweight step" after R2 and are included as an ablation
extension (DESIGN.md, experiment A3).  Moves preserve injectivity:

* *swap* — exchange the instances of two mapped nodes;
* *relocate* — move a node to a currently unused (over-allocated) instance.

Candidate moves are scored through the incremental
:class:`~repro.core.evaluation.DeltaEvaluator`.  The local-search hot loop
is *blocked*: each pass draws up to :data:`DEFAULT_PEEK_BLOCK` proposals,
scores them in one vectorized
:meth:`~repro.core.evaluation.DeltaEvaluator.peek_many` batch, and then
replays the serial bookkeeping over the cached costs — selecting the
serial-order-first admissible improvement, so trajectories are
bit-identical seed for seed to the historical per-move loop at any block
size.  Bit-identity rests on two invariants:

* **Peeks are state-free.**  Every proposal in a block is scored against
  the same committed assignment, exactly as the serial loop scores each
  proposal before any of them is applied; the first accepted move ends the
  block (later peeks would be stale).
* **The RNG stream is re-synchronised.**  Proposals are drawn through the
  same sampling functions (preserving the documented draw order), and when
  a block is cut short — an accepted move, a stall limit, an iteration
  cap — the generator is rewound to the block's start state and the
  consumed prefix of proposals is re-drawn, leaving the stream exactly
  where the serial loop would have left it.

Simulated annealing keeps the per-move loop: Metropolis draws
``rng.random()`` after every scored uphill candidate, so a pre-drawn block
could never look ahead more than one move.

On constrained problems the search is natively constraint-aware: it starts
from a feasible plan (constrained sampling, or the warm start repaired up
front) and proposes only moves the compiled allowed mask admits.  Swap
partners are drawn directly from the precomputed admissible-partner set
(no rejection-sampling spin on tightly constrained instances), so the
constrained walk makes progress whenever any admissible swap exists for
the drawn node.  The unconstrained path consumes the RNG exactly as
before.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..core.deployment import DeploymentPlan
from ..core.evaluation import DeltaEvaluator, MoveBatch
from ..core.problem import DeploymentProblem
from ..core.types import make_rng
from .base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_constrained_random_plan,
    best_random_plan,
    constrained_warm_start,
)

#: A proposed move in engine coordinates: ``("swap", node_idx, node_idx)``
#: or ``("relocate", node_idx, instance_idx)``.
Move = Tuple[str, int, int]

#: Number of candidate moves :class:`SwapLocalSearch` draws and
#: batch-scores per block.  It only moves wall-clock time: trajectories are
#: bit-identical at any block size.  Plateau scanning (long runs of
#: rejected proposals) batches perfectly; accepted moves cut a block short
#: with only a cheap RNG replay, so a moderate block wins on both phases.
DEFAULT_PEEK_BLOCK = 32


def _propose_move(evaluator: DeltaEvaluator, rng) -> Optional[Move]:
    """Sample a random swap or relocation move.

    The RNG consumption pattern is part of the solvers' reproducibility
    contract (it must keep producing the pre-engine move sequences): the
    relocate branch draws ``rng.random()`` only when a free instance
    exists, node and target picks use ``rng.integers``, and swaps use
    ``rng.choice(n, size=2, replace=False)`` — in exactly this order.
    Single-node problems (no swap population) return a relocation when a
    free instance exists and ``None`` otherwise; the solvers count a
    ``None`` proposal as a stall.
    """
    n_nodes = evaluator.problem.num_nodes
    if n_nodes < 2:
        free = evaluator.free_instance_indices()
        if not free.size:
            return None
        return ("relocate", 0, int(free[int(rng.integers(free.size))]))
    free = evaluator.free_instance_indices()
    if free.size and rng.random() < 0.3:
        node = int(rng.integers(n_nodes))
        target = int(free[int(rng.integers(free.size))])
        return ("relocate", node, target)
    a, b = rng.choice(n_nodes, size=2, replace=False)
    return ("swap", int(a), int(b))


def _admissible_swap_partners(evaluator: DeltaEvaluator,
                              node: int) -> np.ndarray:
    """Node indices whose instance swap with ``node`` satisfies the mask.

    One vectorized mask gather instead of per-candidate ``swap_allowed``
    probes: partner ``c`` qualifies iff ``node`` may sit on ``c``'s
    instance and ``c`` may sit on ``node``'s.
    """
    mask = evaluator.allowed_mask
    asg = evaluator.assignment
    ok = mask[node, asg] & mask[:, asg[node]]
    ok[node] = False
    return np.flatnonzero(ok)


def _propose_constrained_move(evaluator: DeltaEvaluator, rng) -> Optional[Move]:
    """Sample a move the evaluator's allowed mask admits.

    Mirrors :func:`_propose_move` but draws relocate targets from the
    node's *allowed* free instances, and swap partners directly from the
    precomputed admissible-partner set: the first pair draw is kept (so
    lightly constrained walks stay cheap), and when it is inadmissible the
    partner is re-drawn uniformly from the nodes that actually admit a
    swap with either endpoint — no rejection-sampling spin on tightly
    constrained instances.  Returns ``None`` only when neither drawn
    endpoint has any admissible partner at all (e.g. every node pinned) —
    callers treat that as a non-improving proposal.
    """
    n_nodes = evaluator.problem.num_nodes
    free = evaluator.free_instance_indices()
    if free.size and rng.random() < 0.3:
        node = int(rng.integers(n_nodes))
        # Reuse the free array already in hand instead of re-scanning the
        # instance table through free_instance_indices(node).
        targets = free[evaluator.allowed_mask[node, free]]
        if targets.size:
            target = int(targets[int(rng.integers(targets.size))])
            return ("relocate", node, target)
    if n_nodes < 2:
        return None  # no swap population; relocate (above) was the only hope
    a, b = rng.choice(n_nodes, size=2, replace=False)
    if evaluator.swap_allowed(int(a), int(b)):
        return ("swap", int(a), int(b))
    for anchor in (int(a), int(b)):
        partners = _admissible_swap_partners(evaluator, anchor)
        if partners.size:
            partner = int(partners[int(rng.integers(partners.size))])
            return ("swap", anchor, partner)
    return None


def _peek_move(evaluator: DeltaEvaluator, move: Move) -> float:
    kind, first, second = move
    if kind == "swap":
        return evaluator.swap_cost(first, second)
    return evaluator.relocate_cost(first, second)


def _apply_move(evaluator: DeltaEvaluator, move: Move) -> float:
    kind, first, second = move
    if kind == "swap":
        return evaluator.apply_swap(first, second)
    return evaluator.apply_relocate(first, second)


def _draw_proposals(evaluator: DeltaEvaluator, rng, constrained: bool,
                    count: int) -> List[Optional[Move]]:
    """Draw ``count`` proposals through the contract-preserving samplers.

    All proposals are drawn against the current committed state (nothing
    is applied in between), so a rewound generator re-drawing the same
    prefix reproduces the exact same moves.
    """
    propose = _propose_constrained_move if constrained else _propose_move
    return [propose(evaluator, rng) for _ in range(count)]


def _block_costs(evaluator: DeltaEvaluator,
                 proposals: List[Optional[Move]]) -> List[Optional[float]]:
    """Scores aligned with ``proposals`` (``None`` rows stay ``None``).

    A single real proposal takes the serial sparse peek (cheaper than a
    batch-of-one kernel dispatch); larger blocks go through one
    :meth:`~repro.core.evaluation.DeltaEvaluator.peek_many` call.  Either
    path returns bit-identical costs.
    """
    rows = [k for k, move in enumerate(proposals) if move is not None]
    costs: List[Optional[float]] = [None] * len(proposals)
    if not rows:
        return costs
    if len(rows) == 1:
        costs[rows[0]] = _peek_move(evaluator, proposals[rows[0]])
        return costs
    batch = MoveBatch.from_moves([proposals[k] for k in rows])
    for k, cost in zip(rows, evaluator.peek_many(batch)):
        costs[k] = float(cost)
    return costs


def _resync_rng(rng, snapshot, evaluator: DeltaEvaluator, constrained: bool,
                consumed: int, drawn: int) -> None:
    """Rewind ``rng`` to ``snapshot`` and replay ``consumed`` proposals.

    After a block of ``drawn`` proposals is cut short at ``consumed``, the
    serial loop would have drawn only the consumed prefix; replaying it
    from the snapshot leaves the stream bit-identical to the serial
    trajectory.  No-op when the whole block was consumed.
    """
    if consumed >= drawn:
        return
    rng.bit_generator.state = snapshot
    _draw_proposals(evaluator, rng, constrained, consumed)


class SwapLocalSearch(DeploymentSolver):
    """Hill climbing over swap and relocate moves, block-scored.

    Args:
        restarts: how many random restarts to perform when time allows.
        seed: RNG seed.
        max_moves_without_improvement: stop a descent after this many
            consecutive non-improving proposals.
    """

    name = "local-search"
    supports_warm_start = True

    def __init__(self, restarts: int = 3, seed: int | None = None,
                 max_moves_without_improvement: int = 2000):
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.restarts = restarts
        self.max_moves_without_improvement = max_moves_without_improvement
        self._seed = seed

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.seconds(2.0)
        rng = make_rng(self._seed)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        engine = self.compiled(graph, costs)
        view = problem.compiled_constraints()
        mask = None if view is None else view.allowed_mask
        constrained = view is not None
        initial_plan = constrained_warm_start(problem, initial_plan)

        best_plan: Optional[DeploymentPlan] = initial_plan
        best_cost = (
            engine.evaluate_plan(initial_plan, objective)
            if initial_plan is not None else float("inf")
        )
        iterations = 0

        def target_reached() -> bool:
            # Early-exit contract shared with the other search solvers: a
            # warm re-solve under SearchBudget.target_cost stops the moment
            # the incumbent is good enough instead of burning the rest of
            # the budget polishing it.
            return (budget.target_cost is not None
                    and best_plan is not None
                    and best_cost <= budget.target_cost)

        for restart in range(self.restarts):
            if watch.expired() or target_reached():
                break
            if restart == 0 and initial_plan is not None:
                plan, cost = initial_plan, best_cost
            elif view is None:
                plan, cost = best_random_plan(graph, costs, objective, 10, rng)
            else:
                plan, cost = best_constrained_random_plan(problem, 10, rng)
            trace.record(watch.elapsed(), min(cost, best_cost if best_plan else cost))
            evaluator = engine.delta_evaluator(plan, objective,
                                               allowed_mask=mask)

            stall = 0
            exit_inner = False
            while (not exit_inner
                   and stall < self.max_moves_without_improvement
                   and not watch.expired()):
                block = DEFAULT_PEEK_BLOCK
                if budget.max_iterations is not None:
                    block = min(block, budget.max_iterations - iterations)
                block = max(1, block)
                snapshot = (rng.bit_generator.state if block > 1 else None)
                proposals = _draw_proposals(evaluator, rng, constrained, block)
                costs_block = _block_costs(evaluator, proposals)

                # Replay the serial loop's bookkeeping over the batch
                # costs, stopping at the first accepted move (later peeks
                # would be stale) or wherever the serial loop would have
                # stopped; then re-synchronise the RNG stream.
                accept_idx: Optional[int] = None
                consumed = 0
                for j, move in enumerate(proposals):
                    if j > 0 and (
                            stall >= self.max_moves_without_improvement
                            or watch.expired()):
                        break
                    consumed = j + 1
                    iterations += 1
                    if move is None:
                        stall += 1
                        if budget.max_iterations is not None \
                                and iterations >= budget.max_iterations:
                            exit_inner = True
                            break
                        continue
                    if costs_block[j] < cost:
                        accept_idx = j
                        break
                    stall += 1
                    if budget.max_iterations is not None \
                            and iterations >= budget.max_iterations:
                        exit_inner = True
                        break
                if snapshot is not None:
                    _resync_rng(rng, snapshot, evaluator, constrained,
                                consumed, len(proposals))
                if accept_idx is not None:
                    move = proposals[accept_idx]
                    candidate_cost = costs_block[accept_idx]
                    _peek_move(evaluator, move)  # prime the commit memo
                    _apply_move(evaluator, move)
                    cost = candidate_cost
                    stall = 0
                    if cost < best_cost:
                        best_plan, best_cost = evaluator.plan(), cost
                        trace.record(watch.elapsed(), cost)
                        if target_reached():
                            exit_inner = True
                    if budget.max_iterations is not None \
                            and iterations >= budget.max_iterations:
                        exit_inner = True
            if cost < best_cost:
                best_plan, best_cost = evaluator.plan(), cost
                trace.record(watch.elapsed(), cost)
            if target_reached():
                break
            if budget.max_iterations is not None and iterations >= budget.max_iterations:
                break

        if best_plan is None:
            if view is None:
                best_plan, best_cost = best_random_plan(
                    graph, costs, objective, 1, rng)
            else:
                best_plan, best_cost = best_constrained_random_plan(
                    problem, 1, rng)
            trace.record(watch.elapsed(), best_cost)

        return SolverResult(
            plan=best_plan, cost=best_cost, objective=objective,
            solver_name=self.name, solve_time_s=watch.elapsed(),
            iterations=iterations, optimal=False, trace=trace.as_tuples(),
        )


class SimulatedAnnealing(DeploymentSolver):
    """Simulated annealing over the same move set as :class:`SwapLocalSearch`.

    Args:
        initial_temperature: starting temperature relative to the initial
            cost (a fraction; the absolute temperature is ``fraction * cost``).
        cooling: multiplicative cooling factor applied per accepted move.
        seed: RNG seed.
    """

    name = "annealing"
    supports_warm_start = True

    def __init__(self, initial_temperature: float = 0.3, cooling: float = 0.995,
                 seed: int | None = None):
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self._seed = seed

    def _solve(self, problem: DeploymentProblem,
               budget: SearchBudget | None = None,
               initial_plan: DeploymentPlan | None = None) -> SolverResult:
        graph, costs, objective = problem.graph, problem.costs, problem.objective
        budget = budget or SearchBudget.seconds(2.0)
        rng = make_rng(self._seed)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        engine = self.compiled(graph, costs)
        view = problem.compiled_constraints()
        mask = None if view is None else view.allowed_mask
        constrained = view is not None
        initial_plan = constrained_warm_start(problem, initial_plan)

        if initial_plan is not None:
            plan = initial_plan
            cost = engine.evaluate_plan(plan, objective)
        elif view is None:
            plan, cost = best_random_plan(graph, costs, objective, 10, rng)
        else:
            plan, cost = best_constrained_random_plan(problem, 10, rng)
        evaluator = engine.delta_evaluator(plan, objective, allowed_mask=mask)
        best_plan, best_cost = plan, cost
        trace.record(watch.elapsed(), best_cost)

        temperature = self.initial_temperature * max(cost, 1e-9)
        iterations = 0
        no_move_streak = 0
        while not watch.expired():
            if budget.max_iterations is not None and iterations >= budget.max_iterations:
                break
            move = (_propose_constrained_move(evaluator, rng)
                    if constrained else _propose_move(evaluator, rng))
            iterations += 1
            if move is None:
                # Heavily constrained walks can run out of admissible moves
                # entirely (e.g. every node pinned); stop instead of
                # spinning through the remaining wall-clock budget.
                no_move_streak += 1
                if no_move_streak >= 100:
                    break
                continue
            no_move_streak = 0
            # The serial peek also fills the commit memo _apply_move reuses.
            candidate_cost = _peek_move(evaluator, move)
            delta = candidate_cost - cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
                _apply_move(evaluator, move)
                cost = candidate_cost
                temperature *= self.cooling
                if cost < best_cost:
                    best_plan, best_cost = evaluator.plan(), cost
                    trace.record(watch.elapsed(), best_cost)
            if budget.target_cost is not None and best_cost <= budget.target_cost:
                break

        return SolverResult(
            plan=best_plan, cost=best_cost, objective=objective,
            solver_name=self.name, solve_time_s=watch.elapsed(),
            iterations=iterations, optimal=False, trace=trace.as_tuples(),
        )
