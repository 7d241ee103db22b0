"""Tests for the batch advisor session (compile dedup, batches, telemetry)."""

import json
import sys
import threading
import time

import pytest

import repro.api.session as session_module
import repro.core.evaluation as evaluation
import repro.core.problem as problem_module
from repro.api import AdvisorSession, SolveRequest, SolverResponse, WatchPolicy
from repro.core import (
    ClouDiAError,
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    Objective,
    deployment_cost,
)
from repro.solvers import SearchBudget

from conftest import deterministic_cost_matrix


def _problem(num_instances=10, seed=0, graph=None, **kwargs):
    graph = graph if graph is not None else CommunicationGraph.ring(6)
    return DeploymentProblem(graph, deterministic_cost_matrix(num_instances,
                                                              seed=seed),
                             **kwargs)


def _roundtrip(problem):
    """A content-equal problem rebuilt from JSON (fresh objects)."""
    return DeploymentProblem.from_dict(json.loads(json.dumps(problem.to_dict())))


class TestSingleSolve:
    def test_solve_returns_ok_response(self):
        session = AdvisorSession()
        response = session.solve(SolveRequest(_problem(), solver="greedy"))
        assert response.ok
        assert response.solver == "greedy"
        assert response.request_id == "req-0000"
        assert response.plan.covers(CommunicationGraph.ring(6))
        assert response.telemetry is not None
        assert not response.telemetry.compile_cache_hit

    def test_auto_resolves_paper_default(self, tree_graph):
        session = AdvisorSession()
        link = session.solve(SolveRequest(
            _problem(), budget=SearchBudget.seconds(1)))
        path = session.solve(SolveRequest(
            _problem(graph=tree_graph, num_instances=8,
                     objective=Objective.LONGEST_PATH),
            budget=SearchBudget.seconds(1)))
        assert link.solver == "cp"
        assert path.solver == "mip"

    def test_solve_raises_on_bad_config(self):
        session = AdvisorSession()
        with pytest.raises(Exception, match="does not accept"):
            session.solve(SolveRequest(_problem(), solver="cp",
                                       config={"bogus": 1}))

    def test_custom_request_id_preserved(self):
        session = AdvisorSession()
        response = session.solve(SolveRequest(_problem(), solver="greedy",
                                              request_id="tenant-7/job-3"))
        assert response.request_id == "tenant-7/job-3"


class TestCompilationDedup:
    def test_distinct_pairs_compiled_exactly_once(self, monkeypatch):
        """Three requests over two distinct (graph, costs) pairs => exactly
        two CompiledProblem constructions, asserted both via telemetry and
        by counting actual constructor calls."""
        constructions = []
        original = evaluation.CompiledProblem.__init__

        def counting(self, graph, costs):
            constructions.append((graph, costs))
            return original(self, graph, costs)

        monkeypatch.setattr(evaluation.CompiledProblem, "__init__", counting)

        shared = _problem(seed=1)
        other = _problem(seed=2)
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(shared, solver="greedy"),
            SolveRequest(_roundtrip(shared), solver="g1"),
            SolveRequest(other, solver="greedy"),
        ])
        assert [response.ok for response in responses] == [True, True, True]
        assert len(constructions) == 2
        hits = [response.telemetry.compile_cache_hit for response in responses]
        assert hits == [False, True, False]
        stats = session.stats
        assert stats.compilations == 2
        assert stats.compile_cache_hits == 1
        assert stats.requests == 3

    def test_canonical_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(session_module, "ENGINE_CACHE_ENTRIES", 1)
        p1, p2 = _problem(seed=1), _problem(seed=2)
        session = AdvisorSession()
        session.solve(SolveRequest(p1, solver="greedy"))
        session.solve(SolveRequest(p1, solver="greedy"))  # hit
        session.solve(SolveRequest(p2, solver="greedy"))  # evicts p1
        # A fresh copy of p1 (p1 itself owns its engine) is recompiled.
        session.solve(SolveRequest(_roundtrip(p1), solver="greedy"))
        stats = session.stats
        assert stats.compilations == 3
        assert stats.compile_cache_hits == 1
        assert stats.engine_cache.evictions == 2
        assert stats.engine_cache.size == 1

    def test_batch_exactly_once_despite_tiny_cache(self, monkeypatch):
        """A batch with more distinct instances than the LRU bound must
        still compile each distinct instance exactly once: the per-batch
        memo outlives the session cache's evictions."""
        monkeypatch.setattr(session_module, "ENGINE_CACHE_ENTRIES", 1)
        p1, p2, p3 = (_problem(seed=s) for s in (1, 2, 3))
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(p, solver="greedy")
            for p in (p1, p2, p3, p1, p2)
        ])
        assert all(r.ok for r in responses)
        assert session.stats.compilations == 3
        assert session.stats.compile_cache_hits == 2
        hits = [r.telemetry.compile_cache_hit for r in responses]
        assert hits == [False, False, False, True, True]

    def test_batch_memo_serves_fresh_copies_after_eviction(self,
                                                          monkeypatch):
        """Content-equal copies decoded separately still compile once per
        batch after the session cache evicted their instance."""
        monkeypatch.setattr(session_module, "ENGINE_CACHE_ENTRIES", 1)
        p1, p2 = _problem(seed=1), _problem(seed=2)
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(p, solver="greedy")
            for p in (p1, p2, _roundtrip(p1), _roundtrip(p2))
        ])
        assert all(r.ok for r in responses)
        assert session.stats.compilations == 2
        assert [r.telemetry.compile_cache_hit for r in responses] == [
            False, False, True, True]
        assert responses[2].cost == responses[0].cost

    def test_clear_cache_forces_recompilation(self):
        problem = _problem(seed=1)
        session = AdvisorSession()
        session.solve(SolveRequest(problem, solver="greedy"))
        session.clear_cache()
        # The cleared cache recompiles a fresh copy; the problem object
        # itself keeps the engine it owns.
        session.solve(SolveRequest(_roundtrip(problem), solver="greedy"))
        assert session.stats.compilations == 2

    def test_dedup_spans_objectives(self, tree_graph):
        """Same (graph, costs) under different objectives shares one
        compilation: the instance key ignores the objective."""
        costs = deterministic_cost_matrix(8, seed=3)
        link = DeploymentProblem(tree_graph, costs)
        path = DeploymentProblem(tree_graph, costs,
                                 objective=Objective.LONGEST_PATH)
        session = AdvisorSession()
        session.solve_many([
            SolveRequest(link, solver="greedy"),
            SolveRequest(path, solver="greedy"),
        ])
        assert session.stats.compilations == 1
        assert session.stats.compile_cache_hits == 1

    def test_deduped_solve_is_bit_identical(self):
        """A request deserialized from JSON produces the same plan as the
        original in-memory problem."""
        problem = _problem(seed=4)
        session = AdvisorSession()
        direct, replayed = session.solve_many([
            SolveRequest(problem, solver="r1",
                         config={"num_samples": 100, "seed": 0}),
            SolveRequest(_roundtrip(problem), solver="r1",
                         config={"num_samples": 100, "seed": 0}),
        ])
        assert direct.plan == replayed.plan
        assert direct.cost == replayed.cost


class TestEngineOwnership:
    def test_watch_leaves_the_cached_engine_on_original_costs(self):
        """A watched revision derives a new engine: a later copy of the
        original instance is handed the cached engine and is scored with
        the original costs."""
        problem = _problem(seed=5)
        original = _roundtrip(problem)
        session = AdvisorSession()
        session.solve(SolveRequest(original, solver="greedy"))
        revised_costs = CostMatrix(list(problem.costs.instance_ids),
                                   problem.costs.as_array() * 1.5)
        report = session.watch(
            original, [revised_costs],
            WatchPolicy(solver="greedy", drift_threshold=0.0))
        assert [event.engine_refreshed for event in report.events] == [
            False, True]
        response = session.solve(SolveRequest(_roundtrip(problem),
                                              solver="greedy"))
        assert response.telemetry.compile_cache_hit
        assert response.cost == deployment_cost(
            response.plan, problem.graph, problem.costs, problem.objective)
        assert response.cost != deployment_cost(
            response.plan, problem.graph, revised_costs, problem.objective)

    def test_concurrent_prepares_of_equal_content_compile_once(
            self, monkeypatch):
        """Threads preparing fresh copies of two instances at once build
        exactly one engine per instance, and every copy gets its own
        instance's engine."""
        constructions = []
        original = problem_module.compile_problem

        def slow_compile(graph, costs):
            constructions.append(graph)
            time.sleep(0.01)  # widen the window for the racing threads
            return original(graph, costs)

        monkeypatch.setattr(problem_module, "compile_problem", slow_compile)
        sources = [_problem(seed=6), _problem(seed=7)]
        copies = [_roundtrip(sources[i % 2]) for i in range(8)]
        session = AdvisorSession()
        barrier = threading.Barrier(len(copies))
        results = [None] * len(copies)

        def prepare(index):
            barrier.wait()
            results[index] = session.prepare(copies[index])

        threads = [threading.Thread(target=prepare, args=(i,))
                   for i in range(len(copies))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(constructions) == 2
        for index, copy in enumerate(copies):
            assert copy.engine is copies[index % 2].engine is not None
        assert sorted(hit for hit, _ in results) == [False] * 2 + [True] * 6
        stats = session.stats
        assert stats.compilations == 2
        assert stats.compile_cache_hits == stats.engine_cache.hits == 6

    def test_batch_captures_an_engine_that_cannot_be_built(
            self, monkeypatch):
        original = problem_module.compile_problem

        def failing_compile(graph, costs):
            if graph.num_nodes == 5:
                raise ClouDiAError("cannot lower this instance")
            return original(graph, costs)

        monkeypatch.setattr(problem_module, "compile_problem",
                            failing_compile)
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(_problem(seed=1), solver="greedy"),
            SolveRequest(_problem(seed=2, graph=CommunicationGraph.ring(5)),
                         solver="greedy"),
            SolveRequest(_problem(seed=3), solver="greedy"),
        ])
        assert [r.ok for r in responses] == [True, False, True]
        assert "cannot lower this instance" in responses[1].error
        assert responses[1].result is None
        assert session.stats.compilations == 2


class TestBatches:
    def test_order_preserved_with_worker_pool(self):
        problems = [_problem(seed=s) for s in range(6)]
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(p, solver="greedy", request_id=f"job-{i}")
            for i, p in enumerate(problems)
        ])
        assert [r.request_id for r in responses] == [
            f"job-{i}" for i in range(6)
        ]
        assert all(r.ok for r in responses)

    def test_removed_execution_options_are_type_errors(self):
        # Batches run in order and the block size is a solver constant: a
        # caller still passing the old options fails loudly instead of
        # having them silently ignored.
        with pytest.raises(TypeError):
            AdvisorSession(peek_block=8)
        with pytest.raises(TypeError):
            AdvisorSession(max_workers=2)
        requests = [SolveRequest(_problem(), solver="greedy")]
        with pytest.raises(TypeError):
            AdvisorSession().solve_many(requests, max_workers=2)

    def test_errors_captured_per_request(self):
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(_problem(), solver="greedy"),
            SolveRequest(_problem(), solver="cp", config={"bogus": 1}),
        ])
        assert responses[0].ok
        assert not responses[1].ok
        assert "bogus" in responses[1].error
        assert responses[1].result is None

    def test_empty_batch(self):
        assert AdvisorSession().solve_many([]) == []

    def test_batch_responses_serialize(self, tmp_path):
        session = AdvisorSession()
        responses = session.solve_many([
            SolveRequest(_problem(), solver="greedy"),
        ])
        path = tmp_path / "responses.json"
        path.write_text(json.dumps([r.to_dict() for r in responses]))
        restored = [SolverResponse.from_dict(entry)
                    for entry in json.loads(path.read_text())]
        assert restored[0].plan == responses[0].plan
        assert restored[0].cost == responses[0].cost
        assert restored[0].telemetry.compile_cache_hit is False


class TestStatsSerialization:
    def test_stats_to_dict_covers_every_layer(self):
        session = AdvisorSession()
        request = SolveRequest(_problem(), solver="greedy")
        session.solve(request)
        session.solve(SolveRequest(_problem(), solver="local-search",
                                   config={"seed": 3},
                                   budget=SearchBudget(max_iterations=50)))
        payload = session.stats.to_dict()
        assert payload["requests"] == 2
        assert payload["compilations"] == 1
        assert payload["compile_cache_hits"] == 1
        assert payload["compile_hit_rate"] == 0.5
        engine = payload["engine_cache"]
        assert {"hits", "misses", "evictions", "size", "max_entries",
                "hit_rate"} <= set(engine)
        # The snapshot must be JSON-clean as-is (the /metrics endpoint
        # serialises it verbatim).
        json.dumps(payload, allow_nan=False)

    def test_stats_to_dict_on_fresh_session(self):
        payload = AdvisorSession().stats.to_dict()
        assert payload["requests"] == 0
        assert payload["compile_hit_rate"] == 0.0
        json.dumps(payload, allow_nan=False)
