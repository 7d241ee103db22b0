"""The search move draw path: raw PCG64 words, samplers and free instances.

Four contracts are pinned here:

* :class:`~repro.solvers.local_search._PcgDraws` returns exactly what the
  ``Generator`` calls return — ``random()``, ``integers(k)`` and
  ``choice(n, size=2, replace=False)`` — and its write-back leaves the bit
  generator in the state of a generator that made those calls;
* the samplers propose the same moves as the historical samplers, kept
  below as oracles (they rescan ``free_instance_indices()`` per draw and
  call ``rng.choice`` for swaps), and leave the generator in the same
  state;
* local search and annealing keep their plan, cost, iteration count and
  final generator state for caller-owned ``MT19937`` and PCG64
  generators (literals recorded before raw-word decoding existed);
* ``free_instance_indices()`` equals the free set of the occupancy after
  any walk of swaps, relocates and re-primes, and is read-only.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
    compile_problem,
)
from repro.solvers import SearchBudget, SimulatedAnnealing, SwapLocalSearch
from repro.solvers.local_search import (
    _admissible_swap_partners,
    _draws,
    _GeneratorDraws,
    _PcgDraws,
    _propose_constrained_move,
    _propose_move,
)
from repro.testing import deterministic_cost_matrix

INTEGER_BOUNDS = (1, 2, 3, 50, 331, 1100, 2**31 + 11, 2**32 - 5)
PAIR_SIZES = (2, 3, 300, 1000)


# --------------------------------------------------------------------------- #
# Raw-word draws == Generator draws
# --------------------------------------------------------------------------- #

def _script(seed, length=300):
    """A seeded interleaving of ``(kind, argument)`` draws."""
    pick = np.random.default_rng([seed, 1])
    script = []
    for _ in range(length):
        kind = int(pick.integers(3))
        if kind == 0:
            script.append(("random", None))
        elif kind == 1:
            script.append(("integers", INTEGER_BOUNDS[
                int(pick.integers(len(INTEGER_BOUNDS)))]))
        else:
            script.append(("pair", PAIR_SIZES[
                int(pick.integers(len(PAIR_SIZES)))]))
    return script


def _generator_draw(rng, kind, arg):
    if kind == "random":
        return rng.random()
    if kind == "integers":
        return int(rng.integers(arg))
    a, b = rng.choice(arg, size=2, replace=False)
    return int(a), int(b)


def _helper_draw(draws, kind, arg):
    if kind == "random":
        return draws.random()
    if kind == "integers":
        return draws.integers(arg)
    return draws.pair(arg)


def _fill_buffer(*generators):
    # One 32-bit bounded draw takes the low half of a word and buffers
    # the high half.
    for rng in generators:
        rng.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["empty-buffer", "full-buffer"])
def test_raw_word_draws_equal_generator_draws(buffered):
    for seed in range(160):
        reference = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        if buffered:
            _fill_buffer(reference, rng)
        draws = _draws(rng)
        assert isinstance(draws, _PcgDraws)
        for step, (kind, arg) in enumerate(_script(seed)):
            assert _helper_draw(draws, kind, arg) \
                == _generator_draw(reference, kind, arg), (seed, step)
        draws.sync()
        assert rng.bit_generator.state == reference.bit_generator.state, seed


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["empty-buffer", "full-buffer"])
def test_seek_resumes_the_stream_after_a_recorded_draw(buffered):
    # Positions recorded after each draw since a hold: seeking back to
    # the one after draw ``cut`` continues exactly like a generator that
    # stopped there, across chunk refills.
    for seed in range(60):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        if buffered:
            _fill_buffer(reference, rng)
        draws = _draws(rng)
        script = _script(seed)
        draws.hold()
        positions = []
        for kind, arg in script:
            _helper_draw(draws, kind, arg)
            positions.append(draws.tell())
        cut = int(np.random.default_rng([seed, 2]).integers(len(script)))
        draws.seek(positions[cut])
        for kind, arg in script[:cut + 1]:
            _generator_draw(reference, kind, arg)
        for kind, arg in _script(seed + 1000, length=100):
            assert _helper_draw(draws, kind, arg) \
                == _generator_draw(reference, kind, arg), (seed, cut)
        draws.sync()
        assert rng.bit_generator.state == reference.bit_generator.state, seed


def test_other_bit_generators_draw_through_the_generator():
    rng = np.random.Generator(np.random.MT19937(5))
    reference = np.random.Generator(np.random.MT19937(5))
    draws = _draws(rng)
    assert isinstance(draws, _GeneratorDraws)
    for kind, arg in _script(5, length=100):
        assert _helper_draw(draws, kind, arg) \
            == _generator_draw(reference, kind, arg)
    draws.sync()
    assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state)


# --------------------------------------------------------------------------- #
# Samplers == the historical per-draw samplers
# --------------------------------------------------------------------------- #

def _oracle_propose_move(evaluator, rng):
    """The unconstrained sampler before raw-word draws."""
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


def _oracle_propose_constrained_move(evaluator, rng):
    """The constrained sampler before raw-word draws."""
    n_nodes = evaluator.problem.num_nodes
    free = evaluator.free_instance_indices()
    if free.size and rng.random() < 0.3:
        node = int(rng.integers(n_nodes))
        targets = free[evaluator.allowed_mask[node, free]]
        if targets.size:
            target = int(targets[int(rng.integers(targets.size))])
            return ("relocate", node, target)
    if n_nodes < 2:
        return None
    a, b = rng.choice(n_nodes, size=2, replace=False)
    if evaluator.swap_allowed(int(a), int(b)):
        return ("swap", int(a), int(b))
    for anchor in (int(a), int(b)):
        partners = _admissible_swap_partners(evaluator, anchor)
        if partners.size:
            partner = int(partners[int(rng.integers(partners.size))])
            return ("swap", anchor, partner)
    return None


def _sampler_evaluator(case):
    """``(evaluator, constrained)`` for one sampler case."""
    n, spare, mask_kind = {
        "unconstrained": (30, 6, None),
        "constrained": (30, 6, "random"),
        "one-node": (1, 3, None),
        "one-node-constrained": (1, 3, "random"),
        "two-nodes": (2, 1, None),
        "no-free-instance": (12, 0, None),
        "no-free-instance-constrained": (12, 0, "random"),
        "one-free-instance": (12, 1, None),
        "one-free-instance-constrained": (12, 1, "random"),
        "everything-pinned": (12, 3, "pinned"),
    }[case]
    rng = np.random.default_rng(n * 31 + spare)
    m = n + spare
    matrix = rng.uniform(0.1, 2.0, size=(m, m))
    np.fill_diagonal(matrix, 0.0)
    graph = (CommunicationGraph.random_graph(n, 0.3, seed=n) if n > 1
             else CommunicationGraph([0], []))
    problem = compile_problem(graph, CostMatrix(list(range(m)), matrix))
    start = problem.random_assignments(1, rng)[0]
    mask = None
    if mask_kind is not None:
        mask = np.zeros((n, m), dtype=bool)
        mask[np.arange(n), start] = True  # the start stays feasible
        if mask_kind == "random":
            mask |= rng.random((n, m)) < 0.7
    evaluator = problem.delta_evaluator(start, Objective.LONGEST_LINK,
                                        allowed_mask=mask)
    return evaluator, mask is not None


@pytest.mark.parametrize("case", [
    "unconstrained", "constrained", "one-node", "one-node-constrained",
    "two-nodes", "no-free-instance", "no-free-instance-constrained",
    "one-free-instance", "one-free-instance-constrained",
    "everything-pinned",
])
def test_samplers_propose_the_historical_moves(case):
    evaluator, constrained = _sampler_evaluator(case)
    propose, oracle = ((_propose_constrained_move,
                        _oracle_propose_constrained_move) if constrained
                       else (_propose_move, _oracle_propose_move))
    rng = np.random.default_rng(99)
    reference = np.random.default_rng(99)
    draws = _draws(rng)
    free = evaluator.free_instance_indices()
    kinds = set()
    for step in range(10_000):
        move = propose(evaluator, draws, free)
        assert move == oracle(evaluator, reference), (case, step)
        kinds.add(None if move is None else move[0])
        # Commit now and then, as annealing does, so the free instances
        # and swap partners change under the samplers.
        if move is not None and step % 7 == 0:
            if move[0] == "swap":
                evaluator.apply_swap(move[1], move[2])
            else:
                evaluator.apply_relocate(move[1], move[2])
                free = evaluator.free_instance_indices()
    draws.sync()
    assert rng.bit_generator.state == reference.bit_generator.state
    if case == "everything-pinned":
        assert kinds == {None}
    elif case.startswith("no-free-instance"):
        assert "relocate" not in kinds


# --------------------------------------------------------------------------- #
# Solvers on caller-owned generators: pinned literals
# --------------------------------------------------------------------------- #

def _mesh_problem():
    graph = CommunicationGraph.mesh_2d(10, 10)
    return DeploymentProblem(graph, deterministic_cost_matrix(110, seed=7),
                             objective=Objective.LONGEST_LINK)


def _dag_problem():
    graph = CommunicationGraph.random_dag(100, 0.05, seed=7)
    costs = deterministic_cost_matrix(110, seed=8)
    ids = costs.instance_ids
    constraints = PlacementConstraints(
        pinned={0: ids[5], 50: ids[60]},
        forbidden={node: set(ids[100:110]) for node in range(1, 11)})
    return DeploymentProblem(graph, costs, objective=Objective.LONGEST_PATH,
                             constraints=constraints)


PROBLEMS = {"mesh": _mesh_problem, "dag": _dag_problem}

SOLVERS = {
    "local-search": lambda rng: SwapLocalSearch(restarts=2, seed=rng),
    # A low stall limit ends descents early, so both restarts draw their
    # start plans from the generator between descents.
    "local-search-restarts": lambda rng: SwapLocalSearch(
        restarts=2, seed=rng, max_moves_without_improvement=100),
    "annealing": lambda rng: SimulatedAnnealing(seed=rng),
}

GENERATORS = {
    "mt19937": lambda: np.random.Generator(np.random.MT19937(11)),
    "pcg64": lambda: np.random.default_rng(11),
}

#: (problem, solver, generator, plan digest, repr(cost), iterations,
#: final generator state digest), recorded before raw-word decoding.
PINNED = [
    ("mesh", "local-search", "mt19937", "f2f81e4a9218e800",
     "1.17608793494361", 700, "b3630522ac52ef71"),
    ("mesh", "local-search", "pcg64", "3d58a42bb444a755",
     "1.1364436219554754", 700, "4d26ed0a463e3604"),
    ("mesh", "local-search-restarts", "mt19937", "14c5c37ebd0d14bf",
     "1.1678430846628014", 700, "671b04c26365b860"),
    ("mesh", "local-search-restarts", "pcg64", "e215aa8cbf93a98a",
     "1.1542228389447824", 587, "cbd539d62e8c1560"),
    ("mesh", "annealing", "mt19937", "3b2082d4aba5e494",
     "1.1885615108471397", 700, "ca2d885f87881eae"),
    ("mesh", "annealing", "pcg64", "534ba672c514e79d",
     "1.225463208310834", 700, "8f15600f8be1d6e8"),
    ("dag", "local-search", "mt19937", "689d79dd2d05aa6a",
     "6.54017177972515", 700, "b992c26229530264"),
    ("dag", "local-search", "pcg64", "405e5c5dfbc73bc5",
     "6.729406589354522", 700, "07f78a0fbd566791"),
    ("dag", "local-search-restarts", "mt19937", "496be67590982eaf",
     "6.930924509405699", 700, "c4ee027591f76085"),
    ("dag", "local-search-restarts", "pcg64", "405e5c5dfbc73bc5",
     "6.729406589354522", 700, "07f78a0fbd566791"),
    ("dag", "annealing", "mt19937", "cdfb6f126f53f7a9",
     "8.837470357772544", 700, "9450605da44a18d3"),
    ("dag", "annealing", "pcg64", "69de2dbc9f8fdbfd",
     "7.227571242573883", 700, "bb49e69a9f131b85"),
]


def _plan_digest(plan):
    items = sorted((int(k), int(v)) for k, v in plan.as_dict().items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def _state_digest(bit_generator):
    state = bit_generator.state
    inner = state["state"]
    if state["bit_generator"] == "MT19937":
        payload = (np.asarray(inner["key"], dtype="<u4").tobytes()
                   + str(inner["pos"]).encode())
    else:
        payload = (f"{inner['state']}:{inner['inc']}:"
                   f"{state['has_uint32']}:{state['uinteger']}").encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize("problem, solver, generator, plan, cost, "
                         "iterations, state", PINNED,
                         ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in PINNED])
def test_caller_generators_keep_their_trajectories(problem, solver, generator,
                                                   plan, cost, iterations,
                                                   state):
    rng = GENERATORS[generator]()
    result = SOLVERS[solver](rng).solve(
        PROBLEMS[problem](),
        budget=SearchBudget(time_limit_s=60.0, max_iterations=700))
    assert _plan_digest(result.plan) == plan
    assert repr(result.cost) == cost
    assert result.iterations == iterations
    assert _state_digest(rng.bit_generator) == state


# --------------------------------------------------------------------------- #
# Free instances are kept, not rescanned
# --------------------------------------------------------------------------- #

@given(seed=st.integers(0, 10_000), steps=st.integers(1, 60),
       objective=st.sampled_from([Objective.LONGEST_LINK,
                                  Objective.LONGEST_PATH]))
@settings(max_examples=80, deadline=None)
def test_free_instances_track_the_occupancy_through_any_walk(seed, steps,
                                                             objective):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = n + int(rng.integers(0, 5))
    graph = (CommunicationGraph.random_dag(n, 0.4, seed=seed)
             if objective is Objective.LONGEST_PATH
             else CommunicationGraph.random_graph(n, 0.4, seed=seed))
    problem = compile_problem(graph, deterministic_cost_matrix(m, seed=seed))
    evaluator = problem.delta_evaluator(
        problem.random_assignments(1, rng)[0], objective)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            evaluator.swap_cost(a, b)
            evaluator.apply_swap(a, b)
        elif roll < 0.8:
            node = int(rng.integers(n))
            # Either a free instance or the node's own (a no-op relocate).
            choices = np.append(evaluator.free_instance_indices(),
                                evaluator.assignment[node])
            target = int(choices[int(rng.integers(choices.size))])
            evaluator.relocate_cost(node, target)
            evaluator.apply_relocate(node, target)
        elif roll < 0.9:
            evaluator = problem.delta_evaluator(
                problem.random_assignments(1, rng)[0], objective)
        else:
            evaluator = problem.delta_evaluator(evaluator.assignment,
                                                objective)
        free = evaluator.free_instance_indices()
        occupancy = np.full(m, -1)
        occupancy[evaluator.assignment] = np.arange(n)
        assert np.array_equal(free, np.flatnonzero(occupancy < 0))
        assert not free.flags.writeable
        with pytest.raises(ValueError):
            free[:] = 0
