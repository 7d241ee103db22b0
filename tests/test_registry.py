"""Tests for the solver registry and its typed configuration."""

import pytest

from repro.core import DeploymentProblem, Objective, PlacementConstraints
from repro.core.errors import SolverError
from repro.solvers import (
    CPLongestLinkSolver,
    DeploymentSolver,
    MIPLongestPathSolver,
    SearchBudget,
)
from repro.solvers.registry import (
    SolverConfigError,
    SolverRegistry,
    UnknownSolverError,
    default_registry,
)

from conftest import deterministic_cost_matrix


class TestResolution:
    def test_all_keys_resolve_to_solvers(self):
        for key in default_registry.available():
            solver = default_registry.make(key)
            assert isinstance(solver, DeploymentSolver), key

    def test_expected_keys_present(self):
        available = set(default_registry.available())
        assert {"cp", "mip", "mip-ll", "greedy", "g1", "random", "r1", "r2",
                "local-search", "annealing", "portfolio"} <= available

    def test_make_with_typed_config(self):
        solver = default_registry.make("cp", seed=7, k_clusters=None)
        assert isinstance(solver, CPLongestLinkSolver)
        assert solver._seed == 7
        assert solver.k_clusters is None

    def test_unknown_key_raises_with_available_list(self):
        with pytest.raises(UnknownSolverError, match="cp"):
            default_registry.make("cplex")

    def test_unknown_config_field_lists_accepted(self):
        with pytest.raises(SolverConfigError, match="seed"):
            default_registry.make("cp", sead=3)

    def test_config_rejected_for_factory_without_field(self):
        with pytest.raises(SolverConfigError):
            default_registry.make("greedy", seed=3)

    def test_accepts_probes_config_fields(self):
        assert default_registry.accepts("cp", "seed")
        assert default_registry.accepts("mip", "seed")
        assert not default_registry.accepts("greedy", "seed")


class TestSeedRouting:
    def test_mip_solvers_accept_seed(self):
        lp = default_registry.make("mip", seed=11)
        ll = default_registry.make("mip-ll", seed=11)
        assert lp._seed == 11
        assert ll._seed == 11

    def test_cli_build_solver_routes_seed_to_mip(self, tree_graph):
        from repro.cli import build_solver
        from repro.core.advisor import AdvisorConfig

        problem = DeploymentProblem(tree_graph,
                                    deterministic_cost_matrix(8, seed=5),
                                    objective=Objective.LONGEST_PATH)
        solver = AdvisorConfig(solver=build_solver("mip"),
                               seed=42).build_solver(problem)
        assert isinstance(solver, MIPLongestPathSolver)
        assert solver._seed == 42

    def test_mip_seed_draws_deterministic_warm_start(self, tree_graph):
        costs = deterministic_cost_matrix(8, seed=5)
        problem = DeploymentProblem(tree_graph, costs,
                                    objective=Objective.LONGEST_PATH)
        budget = SearchBudget(max_iterations=1)
        a = default_registry.make("mip", seed=3).solve(problem, budget=budget)
        b = default_registry.make("mip", seed=3).solve(problem, budget=budget)
        assert a.plan == b.plan
        assert a.cost == b.cost

    def test_mip_warm_start_seeds_the_incumbent(self, tree_graph):
        """The warm start bounds the result: a warm-started run never
        returns a plan worse than the warm start, and equals the cold
        optimum when both runs prove optimality."""
        from repro.core import CommunicationGraph
        from repro.solvers import RandomSearch

        graph = CommunicationGraph.aggregation_tree(2, 1)  # 3 nodes
        costs = deterministic_cost_matrix(4, seed=5)
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH)
        warm = RandomSearch(num_samples=200, seed=0).solve(problem)
        budget = SearchBudget.seconds(30)
        cold = MIPLongestPathSolver().solve(problem, budget=budget)
        hot = MIPLongestPathSolver().solve(
            problem, budget=budget, initial_plan=warm.plan)
        assert cold.optimal and hot.optimal
        assert hot.cost == pytest.approx(cold.cost)
        assert hot.cost <= warm.cost + 1e-12
        # The warm plan is the trace's first point.
        assert hot.trace[0][1] == warm.cost

    def test_mip_without_seed_keeps_historical_behaviour(self, tree_graph):
        costs = deterministic_cost_matrix(8, seed=5)
        problem = DeploymentProblem(tree_graph, costs,
                                    objective=Objective.LONGEST_PATH)
        # A node budget (not wall-clock) keeps both runs deterministic.
        budget = SearchBudget(max_iterations=40)
        via_registry = default_registry.make("mip").solve(problem,
                                                          budget=budget)
        direct = MIPLongestPathSolver().solve(problem, budget=budget)
        assert via_registry.plan == direct.plan
        assert via_registry.cost == direct.cost
        assert via_registry.iterations == direct.iterations


class TestCapabilities:
    def test_supporting_filters_by_objective(self):
        link = default_registry.supporting(Objective.LONGEST_LINK)
        path = default_registry.supporting(Objective.LONGEST_PATH)
        assert "cp" in link and "cp" not in path
        assert "mip" in path and "mip" not in link
        assert "greedy" in link and "greedy" in path

    def test_supporting_filters_by_size(self):
        small = default_registry.supporting(Objective.LONGEST_LINK,
                                            num_nodes=10)
        large = default_registry.supporting(Objective.LONGEST_LINK,
                                            num_nodes=500)
        assert "mip-ll" in small
        assert "mip-ll" not in large
        assert "cp" in large

    @pytest.mark.parametrize("constraints", [
        None, PlacementConstraints(pinned={0: 7}, forbidden={1: {0, 1}}),
    ], ids=["unconstrained", "constrained"])
    def test_for_problem(self, mesh_graph, constraints):
        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10),
                                    constraints=constraints)
        keys = default_registry.for_problem(problem)
        assert "cp" in keys and "mip" not in keys
        # Every solver is constraint-aware, so constraints never narrow it.
        assert keys == default_registry.supporting(Objective.LONGEST_LINK,
                                                   problem.num_nodes)

    def test_default_keys_match_paper(self):
        assert default_registry.default_key(Objective.LONGEST_LINK) == "cp"
        assert default_registry.default_key(Objective.LONGEST_PATH) == "mip"

    def test_resolve_handles_auto_and_none(self, mesh_graph, tree_graph):
        link = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10))
        path = DeploymentProblem(tree_graph, deterministic_cost_matrix(8),
                                 objective=Objective.LONGEST_PATH)
        assert default_registry.resolve("auto", link) == "cp"
        assert default_registry.resolve(None, path) == "mip"
        assert default_registry.resolve("greedy", link) == "greedy"
        with pytest.raises(UnknownSolverError):
            default_registry.resolve("nope", link)

    @pytest.mark.parametrize("key", [None, "auto", "mip"])
    def test_resolve_refuses_a_problem_above_the_ceiling(
            self, oversized_dag_problem, key):
        with pytest.raises(SolverError, match="at most 64 nodes") as caught:
            default_registry.resolve(key, oversized_dag_problem)
        message = str(caught.value)
        assert "this problem has 65" in message
        fitting = default_registry.for_problem(oversized_dag_problem)
        assert "mip" not in fitting
        assert f"solvers that fit: {', '.join(fitting)}" in message

    def test_advisor_config_accepts_auto_and_key(self, mesh_graph):
        from repro.core.advisor import AdvisorConfig

        problem = DeploymentProblem(mesh_graph, deterministic_cost_matrix(10))
        auto = AdvisorConfig(solver="auto", seed=5).build_solver(problem)
        default = AdvisorConfig(seed=5).build_solver(problem)
        assert type(auto) is type(default)
        assert isinstance(
            AdvisorConfig(solver="greedy").build_solver(problem),
            DeploymentSolver)

    def test_advisor_config_rejects_config_with_instance(self):
        """The conflict must surface at construction, before an advisor run
        has paid for allocation and measurement."""
        from repro.core.advisor import AdvisorConfig

        with pytest.raises(ValueError, match="solver_config"):
            AdvisorConfig(solver=CPLongestLinkSolver(),
                          solver_config={"seed": 7})


class TestRegistration:
    def test_duplicate_key_refused(self):
        registry = SolverRegistry()
        registry.register("cp", CPLongestLinkSolver, summary="x")
        with pytest.raises(Exception, match="already registered"):
            registry.register("cp", CPLongestLinkSolver, summary="y")
        registry.register("cp", CPLongestLinkSolver, summary="y", replace=True)
        assert registry.spec("cp").summary == "y"

    def test_objectives_inferred_from_class(self):
        registry = SolverRegistry()
        spec = registry.register("cp", CPLongestLinkSolver, summary="x")
        assert spec.objectives == (Objective.LONGEST_LINK,)


class TestWarmStartCapability:
    def test_every_builtin_declares_warm_start(self):
        for spec in default_registry.specs():
            assert spec.supports_warm_start, \
                f"{spec.key} should declare warm-start support"

    def test_supporting_filters_on_warm_start(self):
        registry = SolverRegistry()
        registry.register("cp", CPLongestLinkSolver, summary="warm")

        def legacy_factory():
            return CPLongestLinkSolver()

        registry.register("legacy", legacy_factory, summary="cold",
                          objectives=(Objective.LONGEST_LINK,))
        assert registry.spec("legacy").supports_warm_start is False
        assert registry.supporting(Objective.LONGEST_LINK) == ("cp", "legacy")
        assert registry.supporting(Objective.LONGEST_LINK,
                                   warm_start=True) == ("cp",)
        # warm_start=None / False do not filter.
        assert registry.supporting(Objective.LONGEST_LINK,
                                   warm_start=False) == ("cp", "legacy")

    def test_for_problem_warm_start_filter(self, mesh_graph):
        costs = deterministic_cost_matrix(12, seed=31)
        problem = DeploymentProblem(mesh_graph, costs)
        registry = SolverRegistry()
        registry.register("cp", CPLongestLinkSolver, summary="warm")

        def legacy_factory():
            return CPLongestLinkSolver()

        registry.register("legacy", legacy_factory, summary="cold",
                          objectives=(Objective.LONGEST_LINK,))
        assert "legacy" in registry.for_problem(problem)
        assert registry.for_problem(problem, warm_start=True) == ("cp",)

    def test_explicit_registration_overrides_factory_attribute(self):
        registry = SolverRegistry()
        spec = registry.register("cp", CPLongestLinkSolver, summary="x",
                                 supports_warm_start=False)
        assert spec.supports_warm_start is False
