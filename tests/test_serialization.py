"""Property-style JSON round-trip tests for the serializable core types.

Every ``from_dict(to_dict(x))`` must reconstruct an equal object *through
an actual JSON wire format* (``json.dumps`` / ``json.loads``), and plan
costs evaluated on a round-tripped problem must be bit-identical to the
original.  Cost matrices cross the wire as base64 strings of their
little-endian float64 bytes, so every value (subnormals and signed zeros
included) survives bit for bit, and the content keys a persistent store
is indexed by are pinned to fixed hex values.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    AdvisorSession,
    SolveRequest,
    SolverResponse,
    SolveTelemetry,
    WatchPolicy,
)
from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import ClouDiAError, SolverError
from repro.serve.scheduler import coalesce_key
from repro.solvers import RandomSearch, SearchBudget, default_registry

from conftest import deterministic_cost_matrix


def wire(payload):
    """Push a payload through an actual JSON encode/decode cycle."""
    return json.loads(json.dumps(payload))


#: Graph templates the round-trip properties are checked over; exercises
#: every constructor family (meshes, trees, bipartite, rings, hypercubes,
#: stars, complete and random graphs).
TEMPLATES = [
    ("mesh", lambda: CommunicationGraph.mesh_2d(3, 4)),
    ("mesh3d", lambda: CommunicationGraph.mesh_3d(2, 2, 2)),
    ("torus", lambda: CommunicationGraph.mesh_2d(3, 3, wrap=True)),
    ("tree", lambda: CommunicationGraph.aggregation_tree(2, 2)),
    ("bipartite", lambda: CommunicationGraph.bipartite(2, 4)),
    ("ring", lambda: CommunicationGraph.ring(7)),
    ("hypercube", lambda: CommunicationGraph.hypercube(3)),
    ("star", lambda: CommunicationGraph.star(5)),
    ("complete", lambda: CommunicationGraph.complete(5)),
    ("random", lambda: CommunicationGraph.random_graph(8, 0.4, seed=1)),
    ("random-dag", lambda: CommunicationGraph.random_dag(8, 0.5, seed=2)),
]


@pytest.mark.parametrize("name,factory", TEMPLATES, ids=[t[0] for t in TEMPLATES])
class TestGraphRoundTrip:
    def test_graph_round_trips(self, name, factory):
        graph = factory()
        restored = CommunicationGraph.from_dict(wire(graph.to_dict()))
        assert restored == graph
        # Order matters for the evaluation engine: preserve it exactly.
        assert restored.nodes == graph.nodes
        assert restored.edges == graph.edges

    def test_plan_round_trips(self, name, factory):
        graph = factory()
        costs = deterministic_cost_matrix(graph.num_nodes + 3, seed=7)
        plan = DeploymentPlan.random(graph.nodes, costs.instance_ids,
                                     rng=np.random.default_rng(5))
        restored = DeploymentPlan.from_dict(wire(plan.to_dict()))
        assert restored == plan
        assert restored.nodes == plan.nodes

    def test_plan_costs_bit_identical_after_round_trip(self, name, factory):
        graph = factory()
        costs = deterministic_cost_matrix(graph.num_nodes + 2, seed=11)
        objective = (Objective.LONGEST_PATH if graph.is_dag()
                     else Objective.LONGEST_LINK)
        problem = DeploymentProblem(graph, costs, objective=objective)
        restored = DeploymentProblem.from_dict(wire(problem.to_dict()))
        plans = [
            problem.default_plan(),
            DeploymentPlan.random(graph.nodes, costs.instance_ids,
                                  rng=np.random.default_rng(3)),
        ]
        for plan in plans:
            assert restored.evaluate(plan) == problem.evaluate(plan)


#: Float64 values at the edges of what a valid cost may be: both zeros,
#: the smallest subnormal, a mid-range subnormal, the smallest normal and
#: a value near the largest finite double.
EDGE_COSTS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308]


@st.composite
def wire_cost_matrices(draw):
    """A valid cost matrix with 1-12 unique, non-contiguous instance ids."""
    m = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 10 ** 9), min_size=m, max_size=m,
                        unique=True))
    value = st.one_of(
        st.sampled_from(EDGE_COSTS),
        st.floats(min_value=0.0, max_value=1.7e308, allow_nan=False,
                  allow_infinity=False),
    )
    flat = draw(st.lists(value, min_size=m * m, max_size=m * m))
    return CostMatrix(ids, np.array(flat, dtype=float).reshape(m, m))


class TestCostMatrixRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(costs=wire_cost_matrices())
    @example(costs=CostMatrix([7, 3, 40], np.array(
        [[0.0, -0.0, 5e-324], [1.7e308, 0.0, 1e-310],
         [2.2250738585072014e-308, 0.0, 0.0]])))
    def test_any_valid_matrix_survives_the_wire(self, costs):
        payload = wire(costs.to_dict())
        assert isinstance(payload["matrix"], str)
        restored = CostMatrix.from_dict(payload)
        assert restored.instance_ids == costs.instance_ids
        assert restored.as_array().tobytes() == costs.as_array().tobytes()
        graph = CommunicationGraph([0], [])
        assert (DeploymentProblem(graph, restored).fingerprint()
                == DeploymentProblem(graph, costs).fingerprint())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matrix_bits_survive(self, seed):
        costs = deterministic_cost_matrix(9, seed=seed)
        restored = CostMatrix.from_dict(wire(costs.to_dict()))
        assert restored.instance_ids == costs.instance_ids
        assert np.array_equal(restored.as_array(), costs.as_array())

    def test_non_contiguous_instance_ids(self):
        base = deterministic_cost_matrix(8, seed=1)
        relabeled = base.relabeled({i: 100 + 3 * i for i in range(8)})
        restored = CostMatrix.from_dict(wire(relabeled.to_dict()))
        assert restored.instance_ids == relabeled.instance_ids
        assert np.array_equal(restored.as_array(), relabeled.as_array())

    def test_malformed_payload_rejected(self):
        with pytest.raises(ClouDiAError):
            CostMatrix.from_dict({"matrix": [[0.0]]})

    def test_wire_form_is_base64_of_row_major_little_endian_float64(self):
        costs = CostMatrix([4, 9], np.array([[0.0, 1.5], [2.25, 0.0]]))
        payload = costs.to_dict()
        assert set(payload) == {"instance_ids", "matrix"}
        assert payload["instance_ids"] == [4, 9]
        assert base64.b64decode(payload["matrix"]) == np.array(
            [0.0, 1.5, 2.25, 0.0], dtype="<f8").tobytes()


def _key_pin_problems():
    mesh = CommunicationGraph.mesh_2d(3, 3)
    relabel = {i: 100 + 3 * i for i in range(8)}
    return {
        "longest-link-mesh": DeploymentProblem(
            mesh, deterministic_cost_matrix(10, seed=1)),
        "longest-path-tree": DeploymentProblem(
            CommunicationGraph.aggregation_tree(2, 2),
            deterministic_cost_matrix(9, seed=2),
            objective=Objective.LONGEST_PATH),
        "constrained": DeploymentProblem(
            mesh, deterministic_cost_matrix(12, seed=3),
            constraints=PlacementConstraints(pinned={0: 3},
                                             forbidden={1: {4, 5}})),
        "non-contiguous-ids": DeploymentProblem(
            CommunicationGraph.ring(6),
            deterministic_cost_matrix(8, seed=4).relabeled(relabel)),
    }


#: ``(instance_key, fingerprint)`` per problem, recorded when cost
#: matrices still crossed the wire as nested float lists.  Results in a
#: persistent store are keyed by these values, so a store written by an
#: older release keeps serving only while they hold.
KEY_PINS = {
    "longest-link-mesh": (
        "4ea8167eaa4ac08795acd25779a376a5b1ef42ad6c4f7d1f67ca294628b32568",
        "bbe6d94bbb074ea3839b4c4b7400a6a219dbd8b08f1ed53372351f5008bc643e"),
    "longest-path-tree": (
        "b5d06bc5ec2b1575d22ca64d97a64ca039e9f6092aafad07a656ac854598b784",
        "08110d9534ad7dfaf495be2e77f5200cc8df019295a04a1837ef63abe3000384"),
    "constrained": (
        "7351fcfe6510658a3af2cc82c803ff16c8ce1f2f00a070de28d9342a7bc33167",
        "fd38b4746df7e72a1579923fbe53b8ceb4bd6997ce78d900a86ef21c7eaa6aeb"),
    "non-contiguous-ids": (
        "64ff597136a6ee01e74aa7cee3972b2f768f5bcdafcac34251612ec4f88a42fb",
        "7afe3facf2f4ec25b5ccf6d9108ea90c67273bc1d945ba85e2796519a7119e45"),
}


class TestStoreKeysUnchanged:
    @pytest.mark.parametrize("name", sorted(KEY_PINS))
    def test_problem_keys_are_pinned(self, name):
        problem = _key_pin_problems()[name]
        restored = DeploymentProblem.from_dict(wire(problem.to_dict()))
        for candidate in (problem, restored):
            assert (candidate.instance_key(),
                    candidate.fingerprint()) == KEY_PINS[name]

    def test_coalesce_key_is_pinned(self):
        request = SolveRequest(
            problem=_key_pin_problems()["longest-link-mesh"],
            solver="local-search", config={"seed": 3},
            budget=SearchBudget(max_iterations=200))
        restored = SolveRequest.from_dict(wire(request.to_dict()))
        for candidate in (request, restored):
            assert coalesce_key(default_registry, candidate) == (
                KEY_PINS["longest-link-mesh"][1],
                "local-search.ad4b61f07cf22c66")

    def test_watch_tag_is_pinned(self):
        policy = WatchPolicy(solver="local-search", config={"seed": 7},
                             budget=SearchBudget(max_iterations=100))
        assert AdvisorSession._solver_cache_tag("local-search", policy) \
            == "local-search.1355ae07daf99122"


class TestProblemRoundTrip:
    def test_full_problem_with_constraints_and_metadata(self, mesh_graph):
        problem = DeploymentProblem(
            mesh_graph, deterministic_cost_matrix(12, seed=2),
            constraints=PlacementConstraints(pinned={0: 3},
                                             forbidden={1: {4, 5}}),
            metadata={"tenant": "acme", "template": "mesh"},
        )
        restored = DeploymentProblem.from_dict(wire(problem.to_dict()))
        assert restored == problem
        assert restored.constraints == problem.constraints
        assert dict(restored.metadata) == dict(problem.metadata)
        assert restored.fingerprint() == problem.fingerprint()

    def test_unsupported_version_rejected(self, mesh_graph):
        payload = DeploymentProblem(
            mesh_graph, deterministic_cost_matrix(10)).to_dict()
        payload["version"] = 999
        with pytest.raises(ClouDiAError, match="version"):
            DeploymentProblem.from_dict(payload)

    def test_missing_keys_rejected(self):
        with pytest.raises(ClouDiAError, match="misses"):
            DeploymentProblem.from_dict({"objective": "longest_link"})


class TestRequestResponseRoundTrip:
    def test_request_round_trips(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=9)
        problem = DeploymentProblem(mesh_graph, costs)
        request = SolveRequest(
            problem=problem, solver="cp", config={"seed": 5},
            budget=SearchBudget(time_limit_s=2.5, max_iterations=100),
            initial_plan=problem.default_plan(),
            request_id="req-x",
        )
        restored = SolveRequest.from_dict(wire(request.to_dict()))
        assert restored.problem == problem
        assert restored.solver == "cp"
        assert dict(restored.config) == {"seed": 5}
        assert restored.budget == request.budget
        assert restored.initial_plan == request.initial_plan
        assert restored.request_id == "req-x"

    def test_solver_response_round_trips_bit_identical(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=4)
        problem = DeploymentProblem(mesh_graph, costs)
        result = RandomSearch(num_samples=100, seed=0).solve(problem)
        response_payload = wire({
            "version": 1,
            "request_id": "r", "solver": "random", "status": "ok",
            "result": result.to_dict(),
            "telemetry": SolveTelemetry(compile_cache_hit=True,
                                        total_time_s=0.5).to_dict(),
        })
        restored = SolverResponse.from_dict(response_payload)
        assert restored.result.plan == result.plan
        assert restored.result.cost == result.cost  # bit-identical float
        assert restored.result.trace == result.trace
        assert restored.telemetry.compile_cache_hit is True
        # The restored plan re-evaluates to the same bits on the problem.
        assert problem.evaluate(restored.result.plan) == result.cost

    def test_budget_round_trips(self):
        budget = SearchBudget(time_limit_s=1.25, max_iterations=7,
                              target_cost=3.5)
        assert SearchBudget.from_dict(wire(budget.to_dict())) == budget

    @pytest.mark.parametrize("field, value", [
        ("time_limit_s", "5"), ("time_limit_s", True),
        ("time_limit_s", -1.0), ("time_limit_s", float("nan")),
        ("time_limit_s", float("inf")), ("max_iterations", "300"),
        ("max_iterations", 2.5), ("max_iterations", 300.0),
        ("max_iterations", -1), ("max_iterations", True),
        ("target_cost", "low"), ("target_cost", float("-inf")),
        ("target_cost", False),
    ])
    def test_budget_from_dict_checks_each_limit(self, field, value):
        with pytest.raises(SolverError, match=field):
            SearchBudget.from_dict({field: value})

    def test_budget_from_dict_keeps_valid_limits_and_drops_retired_keys(
            self):
        budget = SearchBudget(time_limit_s=0, max_iterations=0,
                              target_cost=-2.5)
        assert SearchBudget.from_dict(wire(budget.to_dict())) == budget
        assert SearchBudget.from_dict(
            {"max_iterations": 300, "peek_block": 8, "workers": 2}
        ) == SearchBudget(max_iterations=300)
        # The key form every coalesce and store key digests.
        assert budget.to_dict() == {"time_limit_s": 0, "max_iterations": 0,
                                    "target_cost": -2.5, "peek_block": None}
