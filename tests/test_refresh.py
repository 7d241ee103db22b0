"""Derived engines: the engine side of the live re-deployment loop.

Pins the acceptance contract of ``CompiledProblem.refresh_costs`` /
``DeploymentProblem.revise``: for randomized drifts, a derived engine —
including a ``DeltaEvaluator`` built on it, its bound caches and any
``CompiledConstraints`` carried over to it — scores bit-identical to a
from-scratch ``compile_problem`` of the revised matrix, shares the
original's graph-side lowering, and leaves the original engine (and every
evaluator primed on it) scoring the old costs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import InvalidDeploymentError
from repro.core.evaluation import CompiledProblem
from repro.testing import deterministic_cost_matrix


def drifted(costs: CostMatrix, seed: int, sigma: float = 0.05) -> CostMatrix:
    rng = np.random.default_rng(seed)
    matrix = costs.as_array()
    m = matrix.shape[0]
    off_diagonal = ~np.eye(m, dtype=bool)
    matrix[off_diagonal] *= rng.lognormal(0.0, sigma, size=(m, m))[off_diagonal]
    return CostMatrix(list(costs.instance_ids), matrix)


def make_problem(seed: int, objective: Objective, num_nodes: int = 7,
                 num_instances: int = 10):
    costs = deterministic_cost_matrix(num_instances, seed=seed,
                                      symmetric=False)
    if objective is Objective.LONGEST_PATH:
        graph = CommunicationGraph.random_dag(num_nodes, 0.5, seed=seed)
    else:
        graph = CommunicationGraph.random_graph(num_nodes, 0.5, seed=seed)
    return graph, costs


class TestRefreshAgreement:
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("seed", range(4))
    def test_refresh_matches_from_scratch_compile(self, objective, seed):
        graph, costs = make_problem(seed, objective)
        live = CompiledProblem(graph, costs)
        for round_number in range(3):
            revised = drifted(costs, seed=100 * seed + round_number)
            derived = live.refresh_costs(revised)
            assert derived is not live
            fresh = CompiledProblem(graph, revised)
            stale = CompiledProblem(graph, costs)
            batch = fresh.random_assignments(32, rng=seed)
            assert np.array_equal(derived.evaluate_batch(batch, objective),
                                  fresh.evaluate_batch(batch, objective))
            assert np.array_equal(live.evaluate_batch(batch, objective),
                                  stale.evaluate_batch(batch, objective))
            single = batch[0]
            assert derived.evaluate(single, objective) == \
                fresh.evaluate(single, objective)
            live, costs = derived, revised

    @pytest.mark.parametrize("seed", range(3))
    def test_refreshed_bounds_match_fresh_compile(self, seed):
        graph, costs = make_problem(seed, Objective.LONGEST_LINK)
        live = CompiledProblem(graph, costs)
        bounds = live.assignment_cost_lower_bounds()  # populate pre-drift
        live.sorted_link_costs()
        revised = drifted(costs, seed=seed + 50)
        derived = live.refresh_costs(revised)
        fresh = CompiledProblem(graph, revised)
        assert np.array_equal(derived.assignment_cost_lower_bounds(),
                              fresh.assignment_cost_lower_bounds())
        for side in (0, 1):
            assert np.array_equal(derived.sorted_link_costs()[side],
                                  fresh.sorted_link_costs()[side])
        assert derived.longest_link_lower_bound() == \
            fresh.longest_link_lower_bound()
        threshold = float(np.median(revised.link_costs()))
        assert np.array_equal(derived.threshold_adjacency(threshold),
                              fresh.threshold_adjacency(threshold))
        # The original keeps the bounds of its own costs.
        assert live.assignment_cost_lower_bounds() is bounds

    def test_refresh_shares_graph_side_lowering(self):
        graph, costs = make_problem(1, Objective.LONGEST_PATH)
        live = CompiledProblem(graph, costs)
        levels = live._level_groups()
        degrees = live.node_degrees()
        edge_lists = live._edge_lists()
        derived = live.refresh_costs(drifted(costs, seed=9))
        assert derived._level_groups() is levels
        assert derived.node_degrees() is degrees
        assert derived._edge_lists() is edge_lists
        assert derived.cost_array is not live.cost_array

    def test_refresh_rejects_different_instances(self):
        graph, costs = make_problem(2, Objective.LONGEST_LINK)
        other = deterministic_cost_matrix(costs.num_instances + 1, seed=3)
        live = CompiledProblem(graph, costs)
        with pytest.raises(InvalidDeploymentError):
            live.refresh_costs(other)
        relabeled = costs.relabeled({i: i + 100 for i in costs.instance_ids})
        with pytest.raises(InvalidDeploymentError):
            live.refresh_costs(relabeled)

    def test_refresh_leaves_the_original_engine_untouched(self):
        graph, costs = make_problem(3, Objective.LONGEST_LINK)
        live = CompiledProblem(graph, costs)
        live.refresh_costs(drifted(costs, seed=10))
        assert np.array_equal(live.cost_array, costs.as_array())


class TestEvaluatorsAcrossRefresh:
    def test_evaluator_keeps_scoring_its_engine_costs(self):
        graph, costs = make_problem(4, Objective.LONGEST_LINK)
        live = CompiledProblem(graph, costs)
        evaluator = live.delta_evaluator(
            live.random_assignments(1, rng=0)[0], Objective.LONGEST_LINK)
        free = evaluator.free_instance_indices()
        before = (evaluator.current_cost, evaluator.swap_cost(0, 1),
                  evaluator.relocate_cost(0, int(free[0])))
        live.refresh_costs(drifted(costs, seed=11))
        assert (evaluator.current_cost, evaluator.swap_cost(0, 1),
                evaluator.relocate_cost(0, int(free[0]))) == before
        assert evaluator.apply_swap(0, 1) == before[1]

    @pytest.mark.parametrize("objective", list(Objective))
    def test_derived_engine_evaluator_matches_fresh_evaluator(self,
                                                              objective):
        graph, costs = make_problem(5, objective)
        live = CompiledProblem(graph, costs)
        assignment = live.random_assignments(1, rng=1)[0]
        live.delta_evaluator(assignment, objective).swap_cost(0, 1)
        revised = drifted(costs, seed=12)
        evaluator = live.refresh_costs(revised).delta_evaluator(
            assignment, objective)
        fresh = CompiledProblem(graph, revised)
        twin = fresh.delta_evaluator(assignment, objective)
        assert evaluator.current_cost == twin.current_cost
        for a, b in ((0, 1), (1, 2), (0, 2)):
            assert evaluator.swap_cost(a, b) == twin.swap_cost(a, b)
        assert evaluator.apply_swap(0, 1) == twin.apply_swap(0, 1)
        free = evaluator.free_instance_indices()
        if free.size:
            target = int(free[0])
            assert evaluator.relocate_cost(0, target) == \
                twin.relocate_cost(0, target)


class TestRefreshWithConstraints:
    def test_compiled_constraints_survive_a_refresh(self):
        graph, costs = make_problem(7, Objective.LONGEST_LINK)
        constraints = PlacementConstraints(pinned={0: 3},
                                           forbidden={1: {0, 4}})
        problem = DeploymentProblem(graph, costs, constraints=constraints)
        view = problem.compiled_constraints()
        engine = problem.compiled()
        revised_problem = problem.revise(costs=drifted(costs, seed=14))
        derived = revised_problem.compiled()
        assert derived is not engine
        assert revised_problem.compiled_constraints() is view
        # The mask indexes the derived engine's (shared) index space, and
        # constrained scoring agrees bit-for-bit with a from-scratch
        # compile of the revision.
        fresh = CompiledProblem(graph, revised_problem.costs)
        assignments = view.random_assignments(16, rng=3)
        assert np.array_equal(
            derived.evaluate_batch(assignments, Objective.LONGEST_LINK),
            fresh.evaluate_batch(assignments, Objective.LONGEST_LINK))
        assert derived.longest_link_lower_bound(view.allowed_mask) == \
            fresh.longest_link_lower_bound(view.allowed_mask)


class TestRevise:
    def test_revise_changes_fingerprint_iff_costs_change(self):
        graph, costs = make_problem(10, Objective.LONGEST_LINK)
        problem = DeploymentProblem(graph, costs)
        same_content = CostMatrix(list(costs.instance_ids), costs.as_array())
        assert problem.revise(costs=same_content).fingerprint() == \
            problem.fingerprint()
        changed = problem.revise(costs=drifted(costs, seed=17))
        assert changed.fingerprint() != problem.fingerprint()
        assert changed.instance_key() != problem.instance_key()

    def test_revise_with_identical_object_returns_self(self):
        graph, costs = make_problem(11, Objective.LONGEST_LINK)
        problem = DeploymentProblem(graph, costs)
        assert problem.revise(costs=costs) is problem

    def test_revise_carries_objective_constraints_and_metadata(self):
        graph, costs = make_problem(12, Objective.LONGEST_PATH)
        constraints = PlacementConstraints(pinned={0: 2})
        problem = DeploymentProblem(graph, costs,
                                    objective=Objective.LONGEST_PATH,
                                    constraints=constraints,
                                    metadata={"tenant": "t1"})
        revised = problem.revise(costs=drifted(costs, seed=18))
        assert revised.objective is Objective.LONGEST_PATH
        assert revised.constraints == constraints
        assert dict(revised.metadata) == {"tenant": "t1"}
        overridden = problem.revise(costs=drifted(costs, seed=19),
                                    metadata={"tenant": "t2"})
        assert dict(overridden.metadata) == {"tenant": "t2"}

    def test_revise_without_a_live_engine_compiles_lazily(self):
        graph, costs = make_problem(13, Objective.LONGEST_LINK)
        problem = DeploymentProblem(graph, costs)
        revised_costs = drifted(costs, seed=20)
        revised = problem.revise(costs=revised_costs)  # nothing compiled yet
        assert revised.engine is None
        plan = revised.default_plan()
        assert revised.evaluate(plan) == \
            CompiledProblem(graph, revised_costs).evaluate_plan(
                plan, Objective.LONGEST_LINK)

    def test_unrevised_problems_keep_their_engine_behaviour(self):
        # A revision never reaches back into the problem it came from:
        # same engine object, same scores.
        graph, costs = make_problem(14, Objective.LONGEST_LINK)
        problem = DeploymentProblem(graph, costs)
        engine = problem.compiled()
        plan = problem.default_plan()
        before = problem.evaluate(plan)
        problem.revise(costs=drifted(costs, seed=21)).evaluate(plan)
        assert problem.compiled() is engine
        assert problem.evaluate(plan) == before

    @pytest.mark.parametrize("objective", list(Objective))
    def test_revise_derives_an_engine_sharing_the_lowering(self, objective):
        graph, costs = make_problem(15, objective)
        problem = DeploymentProblem(graph, costs, objective=objective)
        engine = problem.compiled()
        batch = engine.random_assignments(24, rng=5)
        old_scores = engine.evaluate_batch(batch, objective)
        # Build the graph-side structures the solvers use before revising.
        engine.delta_evaluator(batch[0], objective)
        engine._incident_padded()
        engine.neighbor_degree_profiles()
        revised_costs = drifted(costs, seed=22)
        revised = problem.revise(costs=revised_costs)
        derived = revised.compiled()

        # The original problem still scores its old costs...
        assert problem.compiled() is engine
        assert np.array_equal(engine.evaluate_batch(batch, objective),
                              old_scores)
        # ...the derived engine shares every graph-side structure...
        for name in ("node_ids", "instance_ids", "node_index",
                     "instance_index", "edge_src", "edge_dst",
                     "_instance_sort", "_sorted_instance_ids",
                     "_edge_lists_cache", "_incident_pad", "_degrees",
                     "_profiles", "_levels", "_node_level", "_lp_struct"):
            assert getattr(derived, name) is getattr(engine, name), name
        # ...and agrees bit for bit with a fresh compile.
        fresh = CompiledProblem(graph, revised_costs)
        assert np.array_equal(derived.cost_array, fresh.cost_array)
        assert np.array_equal(derived.evaluate_batch(batch, objective),
                              fresh.evaluate_batch(batch, objective))
        walked = derived.delta_evaluator(batch[0], objective)
        twin = fresh.delta_evaluator(batch[0], objective)
        assert walked.current_cost == twin.current_cost
        assert walked.apply_swap(0, 1) == twin.apply_swap(0, 1)
