"""Swap-based local search and simulated annealing.

These solvers are not part of the paper's evaluated algorithm set; they are
the natural "next lightweight step" after R2 and are included as an ablation
extension.  Moves preserve injectivity:

* *swap* — exchange the instances of two mapped nodes;
* *relocate* — move a node to a currently unused (over-allocated) instance.

Candidate moves are scored through the incremental
:class:`~repro.core.evaluation.DeltaEvaluator`.  The local-search hot loop
is *blocked*: each pass draws a block of proposals, scores them, and then
replays the serial bookkeeping over the cached costs — selecting the
serial-order-first admissible improvement, so trajectories are
bit-identical seed for seed to the historical per-move loop at any block
size.  The block size depends on the objective.  Longest link draws
:data:`DEFAULT_PEEK_BLOCK` proposals and scores them in one vectorized
:meth:`~repro.core.evaluation.DeltaEvaluator.peek_many` call; longest path
draws one, scored by the serial window-local peek, so no peek is spent
past an accepted move (``docs/ARCHITECTURE.md`` has the measurements).

Most proposals are not peeked at all.  One critical witness fixes a
plan's cost: a maximum-cost edge under longest link, one longest path
under longest path, with its nodes returned by
:meth:`~repro.core.evaluation.DeltaEvaluator.witness_nodes`.  A move
that moves none of them leaves the witness's edges at their old costs,
and IEEE ``+`` and ``max`` are monotone, so its cost is at least the
current one and the search, which accepts only ``cost < current``,
would reject it.  Such a proposal counts as a rejection without a peek
(the critical-path argument behind restricted job-shop neighbourhoods,
Nowicki & Smutnicki, 1996).  The screen is exact, not a heuristic: no
draw depends on a peek, and each block starts with the loop's cost equal
to the evaluator's current cost, so trajectories do not move.

Bit-identity rests on two invariants:

* **Peeks are state-free.**  Every proposal in a block is scored against
  the same committed assignment, exactly as the serial loop scores each
  proposal before any of them is applied; the first accepted move ends the
  block (later peeks would be stale).
* **The RNG stream ends where the serial loop leaves it.**  Proposals are
  drawn through the same sampling functions (preserving the documented
  draw order), and the generator position after each proposal is
  recorded; when a block is cut short — an accepted move, a stall limit,
  an iteration cap — the stream is set to the position recorded after the
  last consumed proposal.  Nothing is rewound or re-drawn.

Proposals are decoded from raw PCG64 words (:class:`_PcgDraws`), which
return exactly what the ``Generator`` calls would and make a recorded
position a tuple; a generator over any other bit generator goes through
its own calls and records positions as its state (:class:`_GeneratorDraws`).

Simulated annealing keeps the per-move loop: Metropolis draws
``random()`` after every scored uphill candidate, so a pre-drawn block
could never look ahead more than one move.  It peeks every proposal:
Metropolis needs the exact uphill cost, and annealing commits every
non-worsening move.

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
from ..core.evaluation import CompiledProblem, DeltaEvaluator, MoveBatch
from ..core.objectives import Objective
from ..core.problem import DeploymentProblem
from ..core.types import make_rng
from .base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_random_plan,
    constrained_warm_start,
)

#: A proposed move in engine coordinates: ``("swap", node_idx, node_idx)``
#: or ``("relocate", node_idx, instance_idx)``.
Move = Tuple[str, int, int]

#: Number of candidate moves :class:`SwapLocalSearch` draws and
#: batch-scores per block on longest-link problems (longest path scores
#: one move at a time).  It only moves wall-clock time: trajectories are
#: bit-identical at any block size.  Plateau scanning (long runs of
#: rejected proposals) batches perfectly; accepted moves cut a block short
#: and only cost the unconsumed tail's draws and peeks, so a moderate block
#: wins on both phases.
DEFAULT_PEEK_BLOCK = 32

#: Raw words :class:`_PcgDraws` pulls from the bit generator per refill.
_RAW_CHUNK = 256

_MASK32 = 0xFFFFFFFF


class _PcgDraws:
    """``Generator`` draws decoded from raw PCG64 words.

    ``random()``, ``integers(k)`` (``1 <= k < 2**32``) and ``pair(n)``
    return exactly what ``rng.random()``, ``rng.integers(k)`` and
    ``rng.choice(n, size=2, replace=False)`` would, word for word:

    * ``random()`` is ``(w >> 11) * 2**-53`` of one 64-bit word;
    * ``integers(k)`` is NumPy's 32-bit Lemire draw: ``m = next32 * k``,
      re-drawn while ``m & 0xFFFFFFFF < (2**32 - k) % k``, result
      ``m >> 32``; ``k == 1`` draws nothing;
    * ``next32`` returns the buffered high half of the last word when one
      is buffered, else the low half of a fresh word, buffering its high
      half — the bit generator's ``has_uint32``/``uinteger`` state;
    * ``pair(n)`` is Floyd's two-element sample plus its shuffle:
      ``a = integers(n - 1)``, ``b = integers(n)`` (``n - 1`` if it equals
      ``a``), swapped when ``integers(2) == 0``.

    Words are pulled ahead in chunks, so the bit generator runs ahead of
    the draws; :meth:`sync` writes the draws' position back into it.  A
    position (:meth:`tell`) is a plain tuple, and :meth:`seek` returns to
    any position recorded since the last :meth:`hold`.  Nothing else may
    draw from the generator between construction and :meth:`sync`.
    """

    __slots__ = ("_bg", "_anchor", "_anchor_at", "_words", "_base", "_pos",
                 "_end", "_has32", "_u32", "_hold")

    def __init__(self, rng: np.random.Generator):
        self._bg = rng.bit_generator
        state = self._bg.state
        # The generator's state before the word at absolute index
        # ``_anchor_at``; sync() replays forward from it.
        self._anchor = state
        self._anchor_at = 0
        # _words[i] is the word at absolute index _base + i; the bit
        # generator has drawn every word up to _base + len(_words).
        self._words: List[int] = []
        self._base = 0
        self._pos = 0
        self._end = 0
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        self._hold: Optional[int] = None

    def _refill(self) -> int:
        """Drop the words no seek can reach, then pull a fresh chunk."""
        words = self._words
        keep = self._pos if self._hold is None else self._hold - self._base
        if keep:
            del words[:keep]
            self._base += keep
            self._pos -= keep
        if not words:
            # Every drawn word is consumed: re-anchor at the generator's
            # own position, so sync() replays at most one chunk.
            self._anchor = self._bg.state
            self._anchor_at = self._base
        words.extend(self._bg.random_raw(_RAW_CHUNK).tolist())
        self._end = len(words)
        return self._pos

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        pos = self._pos
        if pos == self._end:
            pos = self._refill()
        self._pos = pos + 1
        word = self._words[pos]
        self._has32 = 1
        self._u32 = word >> 32
        return word & _MASK32

    def random(self) -> float:
        pos = self._pos
        if pos == self._end:
            pos = self._refill()
        self._pos = pos + 1
        return (self._words[pos] >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._next32() * k
        if (m & _MASK32) < k:
            threshold = (0x100000000 - k) % k
            while (m & _MASK32) < threshold:
                m = self._next32() * k
        return m >> 32

    def pair(self, n: int) -> Tuple[int, int]:
        a = self.integers(n - 1)
        b = self.integers(n)
        if b == a:
            b = n - 1
        if self.integers(2) == 0:
            return b, a
        return a, b

    def hold(self) -> None:
        """Keep every position from here on seekable (until the next hold)."""
        self._hold = self._base + self._pos

    def tell(self) -> Tuple[int, int, int]:
        return (self._base + self._pos, self._has32, self._u32)

    def seek(self, position: Tuple[int, int, int]) -> None:
        self._pos = position[0] - self._base
        self._has32 = position[1]
        self._u32 = position[2]

    def sync(self) -> None:
        """Set the generator to the draws' position, exactly."""
        state = dict(self._anchor)
        state["has_uint32"] = self._has32
        state["uinteger"] = self._u32
        self._bg.state = state
        ahead = self._base + self._pos - self._anchor_at
        if ahead:
            self._bg.random_raw(ahead, output=False)
        # The generator now stands at the current position: drop the
        # words pulled beyond it so later draws stay consistent.
        del self._words[self._pos:]
        self._end = self._pos


class _GeneratorDraws:
    """The same draws through the ``Generator``'s own calls.

    Used for any bit generator other than ``np.random.PCG64`` (for
    example a caller's ``MT19937``); positions are bit-generator states.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def random(self) -> float:
        return self._rng.random()

    def integers(self, k: int) -> int:
        return int(self._rng.integers(k))

    def pair(self, n: int) -> Tuple[int, int]:
        a, b = self._rng.choice(n, size=2, replace=False)
        return int(a), int(b)

    def hold(self) -> None:
        pass

    def tell(self) -> dict:
        return self._rng.bit_generator.state

    def seek(self, position: dict) -> None:
        self._rng.bit_generator.state = position

    def sync(self) -> None:
        pass


def _draws(rng: np.random.Generator) -> "_PcgDraws | _GeneratorDraws":
    """The fastest exact draw source for ``rng``."""
    if type(rng.bit_generator) is np.random.PCG64:
        return _PcgDraws(rng)
    return _GeneratorDraws(rng)


def _propose_move(evaluator: DeltaEvaluator, draws,
                  free: np.ndarray) -> Optional[Move]:
    """Sample a random swap or relocation move.

    ``free`` is the evaluator's current :meth:`free_instance_indices`.
    The RNG consumption pattern is part of the solvers' reproducibility
    contract (it must keep producing the pre-engine move sequences): the
    relocate branch draws ``rng.random()`` only when a free instance
    exists, node and target picks use ``rng.integers``, and swaps use
    ``rng.choice(n, size=2, replace=False)`` — in exactly this order.
    ``draws`` returns exactly those calls' values; for a PCG64 generator
    it decodes them from raw words (see :class:`_PcgDraws`), for any
    other bit generator it makes the calls.  Single-node problems (no
    swap population) return a relocation when a free instance exists and
    ``None`` otherwise; the solvers count a ``None`` proposal as a stall.
    """
    n_nodes = evaluator.problem.num_nodes
    if n_nodes < 2:
        if not free.size:
            return None
        return ("relocate", 0, int(free[draws.integers(free.size)]))
    if free.size and draws.random() < 0.3:
        node = draws.integers(n_nodes)
        target = int(free[draws.integers(free.size)])
        return ("relocate", node, target)
    a, b = draws.pair(n_nodes)
    return ("swap", a, b)


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


def _propose_constrained_move(evaluator: DeltaEvaluator, draws,
                              free: np.ndarray) -> Optional[Move]:
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
    if free.size and draws.random() < 0.3:
        node = draws.integers(n_nodes)
        targets = free[evaluator.allowed_mask[node, free]]
        if targets.size:
            target = int(targets[draws.integers(targets.size)])
            return ("relocate", node, target)
    if n_nodes < 2:
        return None  # no swap population; relocate (above) was the only hope
    a, b = draws.pair(n_nodes)
    if evaluator.swap_allowed(a, b):
        return ("swap", a, b)
    for anchor in (a, b):
        partners = _admissible_swap_partners(evaluator, anchor)
        if partners.size:
            partner = int(partners[draws.integers(partners.size)])
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


def _draw_proposals(evaluator: DeltaEvaluator, draws, constrained: bool,
                    count: int) -> Tuple[List[Optional[Move]], list]:
    """Draw ``count`` proposals and the draw position after each.

    All proposals are drawn against the current committed state (nothing
    is applied in between), so they equal the serial loop's next
    ``count`` proposals, and ``draws.seek(positions[k])`` leaves the
    stream where the serial loop stands after proposal ``k``.
    """
    propose = _propose_constrained_move if constrained else _propose_move
    free = evaluator.free_instance_indices()
    draws.hold()
    proposals: List[Optional[Move]] = []
    positions = []
    for _ in range(count):
        proposals.append(propose(evaluator, draws, free))
        positions.append(draws.tell())
    return proposals, positions


def _block_costs(evaluator: DeltaEvaluator,
                 proposals: List[Optional[Move]]) -> List[Optional[float]]:
    """Peeked costs aligned with ``proposals``; ``None`` where not peeked.

    Only a proposal that moves a node of the evaluator's critical witness
    (:meth:`~repro.core.evaluation.DeltaEvaluator.witness_nodes`) is
    peeked.  Any other proposal scores at least ``current_cost``, so it
    cannot be accepted and stays ``None``, like an empty proposal.  A
    single peeked row takes the serial peek, which also primes the commit
    memo; more go through one
    :meth:`~repro.core.evaluation.DeltaEvaluator.peek_many` call.  Either
    path returns bit-identical costs.
    """
    witness = evaluator.witness_nodes()
    rows = [k for k, move in enumerate(proposals)
            if move is not None and (move[1] in witness or (
                move[0] == "swap" and move[2] in witness))]
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


def _incumbent_plan(engine: CompiledProblem,
                    best: "DeploymentPlan | np.ndarray") -> DeploymentPlan:
    """The incumbent as a plan: an assignment copy is rehydrated once."""
    if isinstance(best, np.ndarray):
        return engine.plan_from_assignment(best)
    return best


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
        objective = problem.objective
        budget = budget or SearchBudget.seconds(2.0)
        rng = make_rng(self._seed)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        engine = problem.compiled()
        view = problem.compiled_constraints()
        mask = None if view is None else view.allowed_mask
        constrained = view is not None
        initial_plan = constrained_warm_start(problem, initial_plan)
        peek_block = (DEFAULT_PEEK_BLOCK
                      if objective is Objective.LONGEST_LINK else 1)

        # The incumbent is the warm start or a copy of an assignment; the
        # plan is built once, on return.
        best: "DeploymentPlan | np.ndarray | None" = initial_plan
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
                    and best is not None
                    and best_cost <= budget.target_cost)

        for restart in range(self.restarts):
            if watch.expired() or target_reached():
                break
            if restart == 0 and initial_plan is not None:
                plan, cost = initial_plan, best_cost
            else:
                plan, cost = best_random_plan(problem, 10, rng)
            trace.record(watch.elapsed(), min(cost, best_cost))
            evaluator = engine.delta_evaluator(plan, objective,
                                               allowed_mask=mask)

            # One draw source per descent; its position is written back
            # before the next restart draws its start plan from ``rng``.
            draws = _draws(rng)
            stall = 0
            exit_inner = False
            try:
                while (not exit_inner
                       and stall < self.max_moves_without_improvement
                       and not watch.expired()):
                    block = peek_block
                    if budget.max_iterations is not None:
                        block = min(block, budget.max_iterations - iterations)
                    block = max(1, block)
                    proposals, positions = _draw_proposals(
                        evaluator, draws, constrained, block)
                    costs_block = _block_costs(evaluator, proposals)

                    # Replay the serial loop's bookkeeping over the batch
                    # costs, stopping at the first accepted move (later
                    # peeks would be stale) or wherever the serial loop
                    # would have stopped; then set the stream to where the
                    # serial loop would stand.  An unpeeked row (no
                    # proposal, or one the witness screen skipped) is a
                    # rejection: ``cost`` is the evaluator's current cost.
                    accept_idx: Optional[int] = None
                    consumed = 0
                    for j, candidate in enumerate(costs_block):
                        if j > 0 and (
                                stall >= self.max_moves_without_improvement
                                or watch.expired()):
                            break
                        consumed = j + 1
                        iterations += 1
                        if candidate is not None and candidate < cost:
                            accept_idx = j
                            break
                        stall += 1
                        if budget.max_iterations is not None \
                                and iterations >= budget.max_iterations:
                            exit_inner = True
                            break
                    if consumed < len(proposals):
                        draws.seek(positions[consumed - 1])
                    if accept_idx is not None:
                        move = proposals[accept_idx]
                        candidate_cost = costs_block[accept_idx]
                        _peek_move(evaluator, move)  # prime the commit memo
                        _apply_move(evaluator, move)
                        cost = candidate_cost
                        stall = 0
                        if cost < best_cost:
                            best, best_cost = evaluator.assignment.copy(), cost
                            trace.record(watch.elapsed(), cost)
                            if target_reached():
                                exit_inner = True
                        if budget.max_iterations is not None \
                                and iterations >= budget.max_iterations:
                            exit_inner = True
            finally:
                draws.sync()
            if cost < best_cost:
                best, best_cost = evaluator.assignment.copy(), cost
                trace.record(watch.elapsed(), cost)
            if target_reached():
                break
            if budget.max_iterations is not None and iterations >= budget.max_iterations:
                break

        if best is None:
            best, best_cost = best_random_plan(problem, 1, rng)
            trace.record(watch.elapsed(), best_cost)

        return SolverResult(
            plan=_incumbent_plan(engine, best), cost=best_cost,
            objective=objective,
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
        objective = problem.objective
        budget = budget or SearchBudget.seconds(2.0)
        rng = make_rng(self._seed)
        watch = Stopwatch(budget)
        trace = ConvergenceTrace()
        engine = problem.compiled()
        view = problem.compiled_constraints()
        mask = None if view is None else view.allowed_mask
        constrained = view is not None
        initial_plan = constrained_warm_start(problem, initial_plan)

        if initial_plan is not None:
            plan = initial_plan
            cost = engine.evaluate_plan(plan, objective)
        else:
            plan, cost = best_random_plan(problem, 10, rng)
        evaluator = engine.delta_evaluator(plan, objective, allowed_mask=mask)
        # A plan or an assignment copy, as in local search.
        best: "DeploymentPlan | np.ndarray" = plan
        best_cost = cost
        trace.record(watch.elapsed(), best_cost)

        temperature = self.initial_temperature * max(cost, 1e-9)
        iterations = 0
        no_move_streak = 0
        propose = _propose_constrained_move if constrained else _propose_move
        # One draw source for proposals and Metropolis draws alike; its
        # position is written back into ``rng`` on every exit.
        draws = _draws(rng)
        free = evaluator.free_instance_indices()
        try:
            while not watch.expired():
                if budget.max_iterations is not None and iterations >= budget.max_iterations:
                    break
                move = propose(evaluator, draws, free)
                iterations += 1
                if move is None:
                    # Heavily constrained walks can run out of admissible
                    # moves entirely (e.g. every node pinned); stop instead
                    # of spinning through the remaining wall-clock budget.
                    no_move_streak += 1
                    if no_move_streak >= 100:
                        break
                    continue
                no_move_streak = 0
                # The serial peek also fills the commit memo _apply_move
                # reuses.
                candidate_cost = _peek_move(evaluator, move)
                delta = candidate_cost - cost
                if delta <= 0 or draws.random() < math.exp(
                        -delta / max(temperature, 1e-12)):
                    _apply_move(evaluator, move)
                    if move[0] == "relocate":
                        free = evaluator.free_instance_indices()
                    cost = candidate_cost
                    temperature *= self.cooling
                    if cost < best_cost:
                        best, best_cost = evaluator.assignment.copy(), cost
                        trace.record(watch.elapsed(), best_cost)
                if budget.target_cost is not None and best_cost <= budget.target_cost:
                    break
        finally:
            draws.sync()

        return SolverResult(
            plan=_incumbent_plan(engine, best), cost=best_cost,
            objective=objective,
            solver_name=self.name, solve_time_s=watch.elapsed(),
            iterations=iterations, optimal=False, trace=trace.as_tuples(),
        )
