"""Tests for DeploymentProblem and PlacementConstraints."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import (
    InfeasibleProblemError,
    InvalidDeploymentError,
    InvalidGraphError,
)
from repro.core.evaluation import CompiledProblem
from repro.solvers import GreedyG2, RandomSearch, SearchBudget
from repro.solvers.registry import default_registry

from conftest import deterministic_cost_matrix


class TestValidation:
    def test_rejects_too_few_instances(self, mesh_graph):
        with pytest.raises(InfeasibleProblemError):
            DeploymentProblem(mesh_graph, deterministic_cost_matrix(4))

    def test_rejects_longest_path_on_cyclic_graph(self, mesh_graph):
        with pytest.raises(InvalidGraphError):
            DeploymentProblem(mesh_graph, deterministic_cost_matrix(12),
                              objective=Objective.LONGEST_PATH)

    def test_longest_path_on_dag_accepted(self, tree_graph):
        problem = DeploymentProblem(tree_graph, deterministic_cost_matrix(8),
                                    objective=Objective.LONGEST_PATH)
        assert problem.objective is Objective.LONGEST_PATH

    def test_objective_accepted_by_value(self, mesh_graph):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10),
                                    objective="longest_link")
        assert problem.objective is Objective.LONGEST_LINK

    def test_rejects_pin_to_unknown_instance(self, mesh_graph):
        with pytest.raises(InvalidDeploymentError):
            DeploymentProblem(
                mesh_graph, deterministic_cost_matrix(10),
                constraints=PlacementConstraints(pinned={0: 999}),
            )

    def test_rejects_pin_of_unknown_node(self, mesh_graph):
        with pytest.raises(InvalidDeploymentError):
            DeploymentProblem(
                mesh_graph, deterministic_cost_matrix(10),
                constraints=PlacementConstraints(pinned={999: 0}),
            )

    def test_rejects_forbidding_unknown_instance(self, mesh_graph):
        with pytest.raises(InvalidDeploymentError, match="unknown instance"):
            DeploymentProblem(
                mesh_graph, deterministic_cost_matrix(10),
                constraints=PlacementConstraints(forbidden={0: {999}}),
            )

    def test_rejects_non_injective_pins(self):
        with pytest.raises(InvalidDeploymentError):
            PlacementConstraints(pinned={0: 3, 1: 3})

    def test_rejects_pin_conflicting_with_forbidden(self):
        with pytest.raises(InvalidDeploymentError):
            PlacementConstraints(pinned={0: 3}, forbidden={0: {3}})

    def test_rejects_node_with_no_allowed_instance(self, mesh_graph):
        costs = deterministic_cost_matrix(10)
        with pytest.raises(InfeasibleProblemError):
            DeploymentProblem(
                mesh_graph, costs,
                constraints=PlacementConstraints(
                    forbidden={0: set(costs.instance_ids)},
                ),
            )

    def test_rejects_jointly_infeasible_forbidden_sets(self, mesh_graph):
        # Each node individually keeps one allowed instance (4), but three
        # nodes cannot all share it; must fail at construction, not after
        # a solver burnt its budget.
        costs = deterministic_cost_matrix(10)
        everything_but_4 = set(costs.instance_ids) - {4}
        with pytest.raises(InfeasibleProblemError, match="jointly"):
            DeploymentProblem(
                mesh_graph, costs,
                constraints=PlacementConstraints(
                    forbidden={n: everything_but_4 for n in (1, 2, 3)},
                ),
            )

    def test_jointly_tight_but_feasible_accepted(self, mesh_graph):
        # Three nodes squeezed onto exactly three instances is still fine.
        costs = deterministic_cost_matrix(12)
        tight = set(costs.instance_ids) - {4, 5, 6}
        problem = DeploymentProblem(
            mesh_graph, costs,
            constraints=PlacementConstraints(
                forbidden={n: tight for n in (1, 2, 3)},
            ),
        )
        from repro.solvers import GreedyG2

        result = GreedyG2().solve(problem)
        assert {result.plan.instance_for(n) for n in (1, 2, 3)} == {4, 5, 6}


class TestEngineAccess:
    def test_compiled_is_shared(self, mesh_graph):
        costs = deterministic_cost_matrix(10)
        problem = DeploymentProblem(mesh_graph, costs)
        assert problem.compiled() is problem.compiled()

    def test_evaluate_matches_engine(self, mesh_graph):
        costs = deterministic_cost_matrix(10)
        problem = DeploymentProblem(mesh_graph, costs)
        plan = problem.default_plan()
        assert problem.evaluate(plan) == problem.compiled().evaluate_plan(
            plan, Objective.LONGEST_LINK)

    def test_default_plan_uses_provider_order(self, mesh_graph):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(12))
        assert problem.default_plan().used_instances() == tuple(range(9))

    def test_engine_is_built_on_first_use(self, mesh_graph):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10))
        assert problem.engine is None
        engine = problem.compiled()
        assert problem.engine is engine

    def test_adopted_engine_is_the_one_compiled_returns(self, mesh_graph):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10))
        twin = DeploymentProblem.from_dict(
            json.loads(json.dumps(problem.to_dict())))
        twin.adopt_engine(problem.compiled())
        assert twin.compiled() is problem.compiled()
        plan = problem.default_plan()
        assert twin.evaluate(plan) == problem.evaluate(plan)

    @pytest.mark.parametrize("key", default_registry.available())
    def test_solvers_score_with_the_problem_engine(self, key, mesh_graph,
                                                   tree_graph, monkeypatch):
        """No solver lowers the problem's own (graph, costs) again: each
        takes the engine the problem owns (CP compiles only its clustered
        costs)."""
        spec = default_registry.spec(key)
        if Objective.LONGEST_LINK in spec.objectives:
            problem = DeploymentProblem(mesh_graph,
                                        deterministic_cost_matrix(10, seed=3))
        else:
            problem = DeploymentProblem(tree_graph,
                                        deterministic_cost_matrix(8, seed=3),
                                        objective=Objective.LONGEST_PATH)
        problem.compiled()
        lowered = []
        original = CompiledProblem.__init__

        def recording(self, graph, costs):
            lowered.append(costs)
            original(self, graph, costs)

        monkeypatch.setattr(CompiledProblem, "__init__", recording)
        solver = default_registry.make(key, **default_registry.seeded_config(
            key, 1))
        result = solver.solve(problem, budget=SearchBudget(
            time_limit_s=5.0, max_iterations=20))
        assert all(costs is not problem.costs for costs in lowered)
        assert result.cost == problem.evaluate(result.plan)


class TestIdentity:
    def test_instance_key_ignores_objective(self, tree_graph):
        costs = deterministic_cost_matrix(8)
        link = DeploymentProblem(tree_graph, costs)
        path = DeploymentProblem(tree_graph, costs,
                                 objective=Objective.LONGEST_PATH)
        assert link.instance_key() == path.instance_key()
        assert link.fingerprint() != path.fingerprint()

    def test_fingerprint_ignores_metadata(self, mesh_graph):
        costs = deterministic_cost_matrix(10)
        bare = DeploymentProblem(mesh_graph, costs)
        tagged = DeploymentProblem(mesh_graph, costs, metadata={"tenant": "a"})
        assert bare.fingerprint() == tagged.fingerprint()
        assert bare != tagged  # metadata still distinguishes equality

    def test_content_equal_problems_compare_equal(self, mesh_graph):
        costs = deterministic_cost_matrix(10)
        a = DeploymentProblem(mesh_graph, costs)
        b = DeploymentProblem(CommunicationGraph.mesh_2d(3, 3),
                              deterministic_cost_matrix(10))
        assert a == b
        assert hash(a) == hash(b)

    def test_instance_key_hashes_the_matrix_in_any_memory_order(
            self, mesh_graph):
        """The key hashes the stored C-ordered matrix: a Fortran-ordered
        input and a transposed view give the digest of the C-ordered
        copy's bytes."""
        matrix = np.random.default_rng(4).uniform(0.1, 2.0, size=(10, 10))
        ids = list(range(10))
        keys = {
            DeploymentProblem(mesh_graph, CostMatrix(ids, array)).instance_key()
            for array in (np.ascontiguousarray(matrix),
                          np.asfortranarray(matrix),
                          np.ascontiguousarray(matrix.T).T)
        }
        assert len(keys) == 1
        costs = CostMatrix(ids, matrix)
        digest = hashlib.sha256()
        for part in (mesh_graph.nodes, mesh_graph.edges, costs.instance_ids):
            digest.update(repr(part).encode())
        digest.update(costs.as_array().tobytes())
        assert keys == {digest.hexdigest()}


class TestConstraintEnforcement:
    def test_solver_result_honours_pins(self, mesh_graph):
        costs = deterministic_cost_matrix(12)
        constraints = PlacementConstraints(pinned={0: 7, 4: 2})
        problem = DeploymentProblem(mesh_graph, costs, constraints=constraints)
        result = GreedyG2().solve(problem)
        assert result.plan.instance_for(0) == 7
        assert result.plan.instance_for(4) == 2
        assert result.cost == pytest.approx(problem.evaluate(result.plan))
        assert not result.optimal

    def test_solver_result_honours_forbidden(self, mesh_graph):
        costs = deterministic_cost_matrix(12)
        constraints = PlacementConstraints(forbidden={0: {0, 1, 2, 3, 4, 5}})
        problem = DeploymentProblem(mesh_graph, costs, constraints=constraints)
        result = RandomSearch(num_samples=20, seed=0).solve(problem)
        assert result.plan.instance_for(0) not in {0, 1, 2, 3, 4, 5}
        assert result.cost == pytest.approx(problem.evaluate(result.plan))

    def test_unconstrained_result_untouched(self, mesh_graph):
        """The public entry point returns the search's own plan and cost."""
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(12))
        plain = RandomSearch(num_samples=20, seed=0).solve(problem)
        reference = RandomSearch(num_samples=20, seed=0)._solve(problem)
        assert plain.plan == reference.plan
        assert plain.cost == reference.cost

    def test_repair_swaps_into_pins(self):
        constraints = PlacementConstraints(pinned={0: 5})
        plan = DeploymentPlan({0: 1, 1: 5, 2: 3})
        repaired = constraints.repair(plan, range(8))
        assert repaired.instance_for(0) == 5
        assert repaired.instance_for(1) == 1  # swapped with node 0
        assert repaired.instance_for(2) == 3

    def test_repair_relocates_off_forbidden(self):
        constraints = PlacementConstraints(forbidden={2: {3}})
        plan = DeploymentPlan({0: 1, 1: 5, 2: 3})
        repaired = constraints.repair(plan, range(8))
        assert repaired.instance_for(2) != 3
        violations = constraints.violations(repaired)
        assert violations == []

    def test_repair_handles_reassignment_chains(self):
        # Feasible only through a multi-node chain: node 1 may only use
        # instance 0, which node 2 occupies; node 2 must move to 2 and
        # node 3 absorbs the remaining instance.  Single swaps/relocations
        # cannot express this, the matching repair can.
        constraints = PlacementConstraints(forbidden={1: {1, 2}, 2: {1}})
        plan = DeploymentPlan({1: 1, 2: 0, 3: 2})
        repaired = constraints.repair(plan, [0, 1, 2])
        assert constraints.violations(repaired) == []
        assert repaired.instance_for(1) == 0

    def test_repair_minimises_changes(self):
        constraints = PlacementConstraints(forbidden={5: {9}})
        plan = DeploymentPlan({n: n for n in range(8)} | {5: 9})
        repaired = constraints.repair(plan, range(12))
        # Every unconstrained node keeps its placement.
        for node in range(8):
            if node != 5:
                assert repaired.instance_for(node) == plan.instance_for(node)
        assert repaired.instance_for(5) != 9

    def test_repair_infeasible_raises(self):
        # Only instances 0..2 exist; node 2 may use none of the ones not
        # taken by the pinned nodes.
        constraints = PlacementConstraints(
            pinned={0: 0, 1: 1}, forbidden={2: {2}},
        )
        plan = DeploymentPlan({0: 0, 1: 1, 2: 2})
        with pytest.raises(InfeasibleProblemError):
            constraints.repair(plan, range(3))

    def test_check_plan_reports_violations(self, mesh_graph):
        costs = deterministic_cost_matrix(12)
        constraints = PlacementConstraints(pinned={0: 7})
        problem = DeploymentProblem(mesh_graph, costs, constraints=constraints)
        bad = problem.default_plan()
        with pytest.raises(InvalidDeploymentError):
            problem.check_plan(bad)
        good = constraints.repair(bad, costs.instance_ids)
        problem.check_plan(good)
