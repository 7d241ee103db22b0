"""Native constraint-aware solving, end to end.

PR 3 enforced :class:`~repro.core.problem.PlacementConstraints` by a
post-hoc swap/relocate repair in the solver base class; the constraints are
now lowered into the compiled engine and every solver searches only the
allowed region.  This suite pins that contract:

* the compiled constraint view (allowed mask, allowed-index arrays, forced
  assignments, feasible samplers) agrees with the id-keyed constraints;
* every registry solver returns a feasible plan on a constrained problem
  natively; the base class only checks the plan, and a solver returning a
  violating plan fails with :class:`~repro.core.errors.SolverError`;
* native constrained results are never worse than the PR 3 repair-based
  pipeline (solve unconstrained, then repair) for the deterministic and
  exact solvers;
* the advisor session's telemetry round-trips, and a constrained CLI
  ``solve`` / ``solve-batch`` round-trip stays bit-identical to the
  in-process API.
"""

import json

import numpy as np
import pytest

from repro.api import AdvisorSession, SolveRequest, SolverResponse
from repro.cli import main
from repro.core import (
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import InvalidDeploymentError, SolverError
from repro.solvers import (
    CPLongestLinkSolver,
    PortfolioSolver,
    SearchBudget,
    SimulatedAnnealing,
    best_random_plan,
)
from repro.solvers.registry import default_registry

from conftest import deterministic_cost_matrix

CONSTRAINTS = dict(pinned={0: 7, 4: 2}, forbidden={1: {0, 1, 3}, 8: {5, 6}})


@pytest.fixture
def link_problem(mesh_graph):
    costs = deterministic_cost_matrix(12, seed=5)
    return DeploymentProblem(
        mesh_graph, costs,
        constraints=PlacementConstraints(**CONSTRAINTS),
    )


@pytest.fixture
def path_problem(tree_graph):
    costs = deterministic_cost_matrix(9, seed=5)
    return DeploymentProblem(
        tree_graph, costs, objective=Objective.LONGEST_PATH,
        constraints=PlacementConstraints(pinned={0: 5}, forbidden={1: {0, 1}}),
    )


class TestCompiledConstraints:
    def test_mask_semantics(self, link_problem):
        view = link_problem.compiled_constraints()
        engine = link_problem.compiled()
        mask = view.allowed_mask
        # Pinned rows are one-hot on the pin.
        assert mask[engine.node_idx(0)].sum() == 1
        assert mask[engine.node_idx(0), engine.instance_idx(7)]
        # Pinned columns are closed to every other node.
        column = mask[:, engine.instance_idx(7)]
        assert column.sum() == 1
        # Forbidden pairs are cleared, everything else open.
        assert not mask[engine.node_idx(1), engine.instance_idx(0)]
        assert mask[engine.node_idx(1), engine.instance_idx(4)]
        # Forced assignments name exactly the two pins here.
        forced = np.flatnonzero(view.forced_assignment >= 0)
        assert {engine.node_ids[i] for i in forced} == {0, 4}

    def test_mask_agrees_with_allows(self, link_problem):
        view = link_problem.compiled_constraints()
        engine = link_problem.compiled()
        constraints = link_problem.constraints
        for node in engine.node_ids:
            for instance in engine.instance_ids:
                expected = constraints.allows(node, instance)
                # The mask additionally closes pinned columns for other
                # nodes — a strictly tighter (still correct) restriction.
                got = view.allows(engine.node_idx(node),
                                  engine.instance_idx(instance))
                if got:
                    assert expected
                elif expected:
                    assert instance in constraints.pinned.values()

    def test_view_is_cached_per_problem(self, link_problem):
        assert link_problem.compiled_constraints() is \
            link_problem.compiled_constraints()

    def test_unconstrained_problem_has_no_view(self, mesh_graph):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(12))
        assert problem.compiled_constraints() is None

    def test_random_assignments_feasible_and_injective(self, link_problem):
        view = link_problem.compiled_constraints()
        assignments = view.random_assignments(64, rng=3)
        for assignment in assignments:
            assert view.satisfied(assignment)
            assert len(set(assignment.tolist())) == assignment.size

    def test_matching_assignment_feasible(self, link_problem):
        view = link_problem.compiled_constraints()
        assignment = view.matching_assignment(rng=1)
        assert view.satisfied(assignment)
        assert len(set(assignment.tolist())) == assignment.size

    def test_sampler_survives_tight_constraints(self, mesh_graph):
        # Three nodes squeezed onto exactly three instances: greedy
        # placement can dead-end, the matching fallback may not.
        costs = deterministic_cost_matrix(12)
        tight = set(costs.instance_ids) - {4, 5, 6}
        problem = DeploymentProblem(
            mesh_graph, costs,
            constraints=PlacementConstraints(
                forbidden={n: tight for n in (1, 2, 3)}),
        )
        view = problem.compiled_constraints()
        for assignment in view.random_assignments(32, rng=0):
            assert view.satisfied(assignment)

    def test_masked_lower_bound_at_least_unmasked(self, link_problem):
        engine = link_problem.compiled()
        mask = link_problem.compiled_constraints().allowed_mask
        assert engine.longest_link_lower_bound(mask) >= \
            engine.longest_link_lower_bound()

    def test_best_constrained_random_plan_is_feasible(self, link_problem):
        plan, cost = best_random_plan(link_problem, 10, rng=2)
        assert link_problem.constraints.satisfied_by(plan)
        assert cost == pytest.approx(link_problem.evaluate(plan))

    def test_delta_evaluator_rejects_disallowed_moves(self, link_problem):
        engine = link_problem.compiled()
        view = link_problem.compiled_constraints()
        assignment = view.random_assignment(rng=0)
        evaluator = engine.delta_evaluator(assignment, Objective.LONGEST_LINK,
                                           allowed_mask=view.allowed_mask)
        pinned_node = engine.node_idx(0)
        other = next(i for i in range(engine.num_nodes) if i != pinned_node)
        assert not evaluator.swap_allowed(pinned_node, other)
        with pytest.raises(InvalidDeploymentError):
            evaluator.swap_cost(pinned_node, other)
        # Free-instance filtering: node 1 may not move onto instances 0/1/3.
        free = evaluator.free_instance_indices(engine.node_idx(1))
        banned = {engine.instance_idx(i) for i in (0, 1, 3)}
        assert not banned & set(free.tolist())


class TestEverySolverIsNative:
    """Acceptance criterion: all registry solvers solve constrained
    problems feasibly by themselves (the base class has no repair)."""

    @pytest.mark.parametrize("key", default_registry.available())
    def test_feasible_without_repair(self, key, link_problem, path_problem):
        spec = default_registry.spec(key)
        problem = (link_problem
                   if spec.supports(Objective.LONGEST_LINK) else path_problem)
        solver = default_registry.make(
            key, **default_registry.seeded_config(key, 3))
        budget = SearchBudget(time_limit_s=10.0, max_iterations=2000)
        result = solver.solve(problem, budget=budget)
        assert problem.constraints.violations(result.plan) == []
        assert result.cost == pytest.approx(problem.evaluate(result.plan))

    def test_portfolio_fails_on_a_violating_member(
            self, link_problem, provider_order_solver):
        # A custom member that ignores the constraints is not repaired
        # behind its back: its own solve() fails, and so does the portfolio.
        assert not link_problem.constraints.satisfied_by(
            link_problem.default_plan())
        with pytest.raises(SolverError, match="provider-order"):
            PortfolioSolver(solvers=[provider_order_solver]).solve(
                link_problem, budget=SearchBudget.seconds(10))

    def test_annealing_terminates_when_every_node_pinned(self, mesh_graph):
        # With no admissible move at all the walk must stop on its
        # no-move streak, not spin through the whole wall-clock budget.
        costs = deterministic_cost_matrix(12)
        problem = DeploymentProblem(
            mesh_graph, costs,
            constraints=PlacementConstraints(
                pinned={node: node for node in mesh_graph.nodes}),
        )
        result = SimulatedAnnealing(seed=0).solve(
            problem, budget=SearchBudget.seconds(30))
        assert result.solve_time_s < 5.0
        assert problem.constraints.violations(result.plan) == []

    def test_compiled_constraints_does_not_freeze_caller_mask(
            self, link_problem):
        from repro.core import CompiledConstraints

        engine = link_problem.compiled()
        mask = np.ones((engine.num_nodes, engine.num_instances), dtype=bool)
        CompiledConstraints(engine, mask)
        mask[0, 0] = False  # caller's array must stay writable

    def test_single_node_problems_do_not_crash(self):
        # Regression: the swap sampler needs a population of two; 1-node
        # problems must stall out gracefully on both move-proposal paths.
        from repro.core import CommunicationGraph
        from repro.solvers import SwapLocalSearch

        graph = CommunicationGraph([0], [])
        costs = deterministic_cost_matrix(3)
        budget = SearchBudget(max_iterations=50)
        for problem in (
            DeploymentProblem(graph, costs),
            DeploymentProblem(graph, costs,
                              constraints=PlacementConstraints(
                                  forbidden={0: {1}})),
        ):
            for solver in (SwapLocalSearch(seed=0),
                           SimulatedAnnealing(seed=0)):
                result = solver.solve(problem, budget=budget)
                assert result.plan.covers(graph)
                if problem.constraints is not None:
                    assert problem.constraints.violations(result.plan) == []


class TestNativeNeverWorseThanRepair:
    """Searching the feasible region beats searching blind + repairing."""

    def _repair_baseline(self, problem, solver):
        unconstrained = DeploymentProblem(problem.graph, problem.costs,
                                          objective=problem.objective)
        result = solver.solve(unconstrained, budget=SearchBudget.seconds(10))
        plan = problem.constraints.repair(result.plan,
                                          problem.costs.instance_ids)
        return problem.evaluate(plan)

    @pytest.mark.parametrize("key,config", [
        ("greedy", {}),
        ("g1", {}),
        ("cp", {"seed": 0, "k_clusters": None}),
        ("mip-ll", {"seed": 0}),
        ("local-search", {"seed": 0}),
    ])
    def test_not_worse(self, key, config, link_problem):
        native = default_registry.make(key, **config).solve(
            link_problem, budget=SearchBudget.seconds(10))
        baseline = self._repair_baseline(
            link_problem, default_registry.make(key, **config))
        assert native.cost <= baseline + 1e-9

    def test_cp_proves_constrained_optimum(self, link_problem):
        result = CPLongestLinkSolver(k_clusters=None, seed=0).solve(
            link_problem, budget=SearchBudget.seconds(20))
        assert result.optimal
        # Exhaustive check on the feasible region: no feasible plan beats it.
        view = link_problem.compiled_constraints()
        best = min(
            link_problem.compiled().evaluate_batch(
                view.random_assignments(200, rng=1), Objective.LONGEST_LINK)
        )
        assert result.cost <= best + 1e-9


class TestTelemetry:
    def test_session_reports_native_solve(self, link_problem):
        response = AdvisorSession().solve(SolveRequest(
            link_problem, solver="greedy"))
        assert response.ok
        assert link_problem.constraints.violations(response.plan) == []
        assert set(response.telemetry.to_dict()) == {
            "compile_cache_hit", "compile_time_s", "solve_time_s",
            "total_time_s"}

    def test_telemetry_round_trips(self, link_problem):
        response = AdvisorSession().solve(SolveRequest(
            link_problem, solver="greedy"))
        restored = SolverResponse.from_dict(
            json.loads(json.dumps(response.to_dict())))
        assert restored.telemetry == response.telemetry
        assert restored.result == response.result


class TestConstrainedCliRoundTrip:
    @pytest.fixture
    def problem_path(self, tmp_path, link_problem):
        path = tmp_path / "constrained.json"
        path.write_text(json.dumps(link_problem.to_dict()))
        return path

    def test_solve_bit_identical_to_api(self, problem_path, tmp_path, capsys):
        out = tmp_path / "response.json"
        assert main([
            "solve", "--problem", str(problem_path), "--solver", "cp",
            "--seed", "7", "--time-limit", "5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        cli_response = SolverResponse.from_dict(json.loads(out.read_text()))

        problem = DeploymentProblem.from_dict(
            json.loads(problem_path.read_text()))
        in_process = AdvisorSession().solve(SolveRequest(
            problem, solver="cp", config={"seed": 7},
            budget=SearchBudget.seconds(5),
        ))
        assert cli_response.plan == in_process.plan
        assert cli_response.cost == in_process.cost
        assert problem.constraints.violations(cli_response.plan) == []

    def test_solve_batch_bit_identical_to_api(self, problem_path, tmp_path,
                                              capsys):
        out = tmp_path / "responses.json"
        assert main([
            "solve-batch", "--problem", str(problem_path),
            "--solver", "greedy", "--time-limit", "5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        cli_response = SolverResponse.from_dict(payload["responses"][0])

        problem = DeploymentProblem.from_dict(
            json.loads(problem_path.read_text()))
        in_process = AdvisorSession().solve(SolveRequest(
            problem, solver="greedy", budget=SearchBudget.seconds(5)))
        assert cli_response.plan == in_process.plan
        assert cli_response.cost == in_process.cost
