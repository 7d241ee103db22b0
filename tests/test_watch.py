"""The live re-deployment loop: AdvisorSession.watch, its policy, the
durable result store, and the CLI ``make-trace`` / ``watch`` commands."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import AdvisorSession, SolveRequest, WatchPolicy
from repro.api.watch import (
    REASON_DEGRADATION,
    REASON_DRIFT,
    REASON_HELD,
    REASON_INITIAL,
    WatchEvent,
    json_to_float,
)
from repro.cli import main as cli_main
from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    PlacementConstraints,
)
from repro.core.errors import StoreError
from repro.netmeasure import MeasurementStream
from repro.solvers import SearchBudget
from repro.store import SQLiteResultCache
from repro.testing import deterministic_cost_matrix


@pytest.fixture
def watch_problem():
    costs = deterministic_cost_matrix(10, seed=21, symmetric=False)
    graph = CommunicationGraph.random_graph(7, 0.5, seed=21)
    return DeploymentProblem(graph, costs)


def drifted(costs: CostMatrix, seed: int, sigma: float) -> CostMatrix:
    rng = np.random.default_rng(seed)
    matrix = costs.as_array()
    m = matrix.shape[0]
    off_diagonal = ~np.eye(m, dtype=bool)
    matrix[off_diagonal] *= rng.lognormal(0.0, sigma, size=(m, m))[off_diagonal]
    return CostMatrix(list(costs.instance_ids), matrix)


def fast_policy(**overrides) -> WatchPolicy:
    base = dict(solver="local-search", config={"seed": 3},
                budget=SearchBudget(max_iterations=300),
                drift_threshold=0.05, degradation_threshold=0.02)
    base.update(overrides)
    return WatchPolicy(**base)


class TestWatchLoop:
    def test_initial_solve_then_hold_and_resolve(self, watch_problem):
        costs = watch_problem.costs
        revisions = [
            drifted(costs, seed=1, sigma=0.001),   # noise: held
            drifted(costs, seed=2, sigma=0.4),     # shift: re-solve
        ]
        session = AdvisorSession()
        report = session.watch(watch_problem, revisions, fast_policy())
        assert [event.reason for event in report.events] == [
            REASON_INITIAL, REASON_HELD, REASON_DRIFT]
        initial, held, resolved = report.events
        assert initial.revision == 0 and initial.resolved
        assert not initial.engine_refreshed  # first compile, not a refresh
        assert held.engine_refreshed and not held.resolved
        assert held.solve_time_s == 0.0
        assert resolved.engine_refreshed and resolved.resolved
        assert resolved.warm_start  # local-search supports warm starts
        assert report.cost == pytest.approx(
            report.problem.evaluate(report.plan))
        assert report.holds == 1 and report.resolves == 2

    def test_degradation_triggers_without_large_drift(self, watch_problem):
        costs = watch_problem.costs
        session = AdvisorSession()
        policy = fast_policy(drift_threshold=10.0,  # drift can never trigger
                             degradation_threshold=0.1)
        # A uniform 50% slowdown: every link drifts by exactly 0.5 (below
        # the drift gate) and the incumbent's cost degrades by exactly 50%.
        slower = CostMatrix(list(costs.instance_ids), costs.as_array() * 1.5)
        report = session.watch(watch_problem, [slower], policy)
        assert report.events[1].reason == REASON_DEGRADATION
        assert report.events[1].drift == pytest.approx(0.5)

    def test_policy_thresholds_gate_resolves(self, watch_problem):
        costs = watch_problem.costs
        session = AdvisorSession()
        policy = fast_policy(drift_threshold=10.0, degradation_threshold=10.0)
        revisions = [drifted(costs, seed=4, sigma=0.3)]
        report = session.watch(watch_problem, revisions, policy)
        assert report.events[1].reason == REASON_HELD
        # The held incumbent is still re-scored under the adopted costs.
        assert report.cost == pytest.approx(
            report.problem.evaluate(report.plan))
        assert report.problem.costs is revisions[0]

    def test_cold_policy_never_warm_starts(self, watch_problem):
        costs = watch_problem.costs
        session = AdvisorSession()
        report = session.watch(
            watch_problem, [drifted(costs, seed=5, sigma=0.4)],
            fast_policy(warm_start=False))
        assert all(not event.warm_start for event in report.events)

    def test_incumbent_kept_when_resolve_does_not_improve(self, watch_problem):
        costs = watch_problem.costs
        session = AdvisorSession()
        # A tiny budget makes the re-solve unlikely to beat a good warm
        # incumbent; either way the reported cost is the better of the two.
        policy = fast_policy(degradation_threshold=0.0, drift_threshold=0.0,
                             budget=SearchBudget(max_iterations=5))
        revisions = [drifted(costs, seed=6, sigma=0.01)]
        report = session.watch(watch_problem, revisions, policy)
        last = report.events[-1]
        assert last.cost <= last.incumbent_cost

    def test_watch_accepts_stream_revisions(self, watch_problem):
        costs = watch_problem.costs
        stream = MeasurementStream(costs, drift_threshold=0.05)
        revisions = stream.fold_all([
            drifted(costs, seed=7, sigma=0.001),  # absorbed by the stream
            drifted(costs, seed=8, sigma=0.3),
        ])
        assert len(revisions) == 1
        session = AdvisorSession()
        report = session.watch(watch_problem, revisions, fast_policy())
        assert len(report.events) == 2
        assert report.events[1].drift == pytest.approx(
            revisions[0].max_drift)

    def test_constrained_watch_stays_feasible(self):
        costs = deterministic_cost_matrix(9, seed=22, symmetric=False)
        graph = CommunicationGraph.ring(6)
        constraints = PlacementConstraints(pinned={0: 4},
                                           forbidden={1: {0, 2}})
        problem = DeploymentProblem(graph, costs, constraints=constraints)
        session = AdvisorSession()
        revisions = [drifted(costs, seed=9, sigma=0.3)]
        report = session.watch(problem, revisions, fast_policy())
        report.problem.check_plan(report.plan)  # pins + bans survived

    def test_session_counters(self, watch_problem):
        costs = watch_problem.costs
        session = AdvisorSession()
        revisions = [
            drifted(costs, seed=10, sigma=0.001),
            drifted(costs, seed=11, sigma=0.4),
        ]
        session.watch(watch_problem, revisions, fast_policy())
        stats = session.stats
        assert stats.cost_refreshes == 2
        assert stats.cost_recompiles == 0
        assert stats.watch_resolves == 2  # initial + drift re-solve
        assert stats.result_cache_hits == 0  # no cache configured
        assert stats.engine_cache.max_entries >= 1

    def test_watched_engine_enters_the_session_cache(self):
        costs = deterministic_cost_matrix(8, seed=24)
        problem = DeploymentProblem(CommunicationGraph.ring(6), costs)
        session = AdvisorSession()
        session.watch(problem, [drifted(costs, seed=13, sigma=0.4)],
                      fast_policy(solver="greedy", config={}))
        assert session.stats.compilations == 1
        copy = DeploymentProblem.from_dict(
            json.loads(json.dumps(problem.to_dict())))
        response = session.solve(SolveRequest(problem=copy, solver="greedy"))
        assert response.ok and response.telemetry.compile_cache_hit
        assert copy.engine is problem.engine
        assert session.stats.compilations == 1

    def test_report_serializes_to_json(self, watch_problem):
        session = AdvisorSession()
        report = session.watch(
            watch_problem,
            [drifted(watch_problem.costs, seed=12, sigma=0.4)],
            fast_policy())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["resolves"] == report.resolves
        assert payload["refreshes"] == report.refreshes
        assert len(payload["events"]) == len(report.events)
        assert payload["events"][0]["reason"] == REASON_INITIAL

    def test_rejects_revisions_over_a_different_allocation(self,
                                                           watch_problem):
        from repro.core.errors import ClouDiAError
        costs = watch_problem.costs
        reallocated = CostMatrix([i + 100 for i in costs.instance_ids],
                                 costs.as_array())
        session = AdvisorSession()
        with pytest.raises(ClouDiAError, match="different instance set"):
            session.watch(watch_problem, [reallocated], fast_policy())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            WatchPolicy(drift_threshold=-0.1)
        with pytest.raises(ValueError):
            WatchPolicy(degradation_threshold=-0.1)

    def test_warm_start_seeds_the_initial_solve(self, watch_problem):
        session = AdvisorSession()
        # Solve once, then hand the plan back as the deployed incumbent.
        first = session.watch(watch_problem, [], fast_policy())
        second = session.watch(watch_problem, [], fast_policy(),
                               initial_plan=first.plan)
        initial_event = second.events[0]
        assert initial_event.warm_start
        assert second.cost <= first.cost


class TestPersistentWatchCache:
    def test_sibling_sessions_skip_solved_revisions(self, tmp_path,
                                                    watch_problem):
        revisions = [drifted(watch_problem.costs, seed=13, sigma=0.4)]
        path = tmp_path / "store.db"
        first = AdvisorSession(result_cache=SQLiteResultCache(path))
        report = first.watch(watch_problem, revisions, fast_policy())
        assert report.resolves == 2 and report.cache_hits == 0

        second = AdvisorSession(result_cache=SQLiteResultCache(path))
        replay = second.watch(watch_problem, revisions, fast_policy())
        assert replay.resolves == 0
        assert replay.cache_hits == 2
        assert replay.cost == report.cost
        assert replay.plan.as_dict() == report.plan.as_dict()
        assert second.stats.result_cache_hits == 2
        assert all(event.solve_time_s == 0.0 for event in replay.events
                   if event.cache_hit)

    def test_cache_entries_are_per_fingerprint(self, tmp_path, watch_problem):
        session = AdvisorSession(
            result_cache=SQLiteResultCache(tmp_path / "store.db"))
        session.watch(watch_problem,
                      [drifted(watch_problem.costs, seed=14, sigma=0.4)],
                      fast_policy())
        # Two distinct fingerprints solved => two cache entries.
        assert len(session.result_cache) == 2

    def test_different_policies_do_not_share_entries(self, tmp_path,
                                                     watch_problem):
        path = tmp_path / "store.db"
        first = AdvisorSession(result_cache=SQLiteResultCache(path))
        first.watch(watch_problem, [], fast_policy())
        # Same solver, different seed: must re-solve, not reuse seed-3's plan.
        second = AdvisorSession(result_cache=SQLiteResultCache(path))
        report = second.watch(watch_problem, [],
                              fast_policy(config={"seed": 99}))
        assert report.cache_hits == 0 and report.resolves == 1
        # Different budget, same seed: also a distinct cache entry.
        third = AdvisorSession(result_cache=SQLiteResultCache(path))
        report = third.watch(
            watch_problem, [],
            fast_policy(budget=SearchBudget(max_iterations=301)))
        assert report.cache_hits == 0 and report.resolves == 1
        # The original policy still hits its own entry.
        fourth = AdvisorSession(result_cache=SQLiteResultCache(path))
        assert fourth.watch(watch_problem, [], fast_policy()).cache_hits == 1

    def test_infeasible_cache_entries_are_ignored(self, tmp_path):
        costs = deterministic_cost_matrix(8, seed=23)
        graph = CommunicationGraph.ring(5)
        unconstrained = DeploymentProblem(graph, costs)
        constrained = DeploymentProblem(
            graph, costs,
            constraints=PlacementConstraints(pinned={0: 7}))
        cache = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=cache)
        free_report = session.watch(unconstrained, [], fast_policy())
        if free_report.plan.instance_for(0) != 7:
            # Forge an entry under the constrained fingerprint pointing at
            # the pin-violating plan; watch must treat it as a miss.
            tag = AdvisorSession._solver_cache_tag("local-search",
                                                   fast_policy())
            cache.put(constrained.fingerprint(), tag,
                      dataclasses.replace(free_report.result))
            report = session.watch(constrained, [], fast_policy())
            assert report.plan.instance_for(0) == 7


class _FailingPut(SQLiteResultCache):
    """A store whose result writes fail as a locked database would."""

    def put(self, fingerprint, solver, result):
        raise StoreError("database is locked")


class _FailingHistory:
    def record_report(self, *args, **kwargs):
        raise StoreError("database is locked")


class _FailingReport(SQLiteResultCache):
    """A store whose watch-history writes fail."""

    @property
    def history(self):
        return _FailingHistory()


class TestStoreWriteBackFaults:
    """A failing store write degrades the watch; it never aborts it."""

    @pytest.mark.parametrize("store_cls", [_FailingPut, _FailingReport],
                             ids=["put", "record_report"])
    def test_watch_returns_every_event(self, tmp_path, watch_problem,
                                       store_cls):
        revisions = [drifted(watch_problem.costs, seed=13, sigma=0.4),
                     drifted(watch_problem.costs, seed=14, sigma=0.4)]
        plain = AdvisorSession().watch(watch_problem, revisions,
                                       fast_policy())
        store = store_cls(tmp_path / "store.db")
        report = AdvisorSession(result_cache=store).watch(
            watch_problem, revisions, fast_policy())
        assert len(report.events) == 3
        assert [e.reason for e in report.events] == \
            [e.reason for e in plain.events]
        assert report.cost == plain.cost
        assert report.plan.as_dict() == plain.plan.as_dict()


class TestWatchCli:
    def _make_problem(self, tmp_path):
        path = tmp_path / "problem.json"
        code = cli_main([
            "make-problem", "--template", "ring", "--nodes", "6",
            "--out", str(path),
        ])
        assert code == 0
        return path

    def test_make_trace_then_watch(self, tmp_path, capsys):
        problem_path = self._make_problem(tmp_path)
        trace_path = tmp_path / "trace.json"
        code = cli_main([
            "make-trace", "--problem", str(problem_path),
            "--out", str(trace_path), "--windows", "4",
            "--spike-window", "2", "--spike-links", "3",
        ])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["version"] == 2
        assert len(payload["windows"]) == 4
        assert all(isinstance(window["matrix"], str)
                   for window in payload["windows"])

        log_path = tmp_path / "log.json"
        code = cli_main([
            "watch", "--problem", str(problem_path),
            "--trace", str(trace_path), "--solver", "local-search",
            "--seed", "7", "--time-limit", "0.5",
            "--store", str(tmp_path / "store.db"),
            "--out", str(log_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "re-deployment log" in captured.out
        log = json.loads(log_path.read_text())
        assert len(log["events"]) == 5  # initial + 4 windows
        assert log["events"][0]["reason"] == "initial"

        # Replaying against the same store skips every solve.
        code = cli_main([
            "watch", "--problem", str(problem_path),
            "--trace", str(trace_path), "--solver", "local-search",
            "--seed", "7", "--time-limit", "0.5",
            "--store", str(tmp_path / "store.db"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "re-solves: 0" in captured.out

    def test_watch_rejects_malformed_trace(self, tmp_path, capsys):
        problem_path = self._make_problem(tmp_path)
        bad_trace = tmp_path / "bad.json"
        bad_trace.write_text(json.dumps({"nope": []}))
        code = cli_main([
            "watch", "--problem", str(problem_path),
            "--trace", str(bad_trace),
        ])
        assert code == 2
        assert "windows" in capsys.readouterr().err

    def test_watch_refuses_other_trace_versions(self, tmp_path, capsys):
        problem_path = self._make_problem(tmp_path)
        trace_path = tmp_path / "trace.json"
        assert cli_main([
            "make-trace", "--problem", str(problem_path),
            "--out", str(trace_path), "--windows", "2",
        ]) == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        for version in (1, 3):
            payload["version"] = version
            trace_path.write_text(json.dumps(payload))
            code = cli_main([
                "watch", "--problem", str(problem_path),
                "--trace", str(trace_path),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unsupported trace version {version}" in err
            assert "make-trace" in err

    def test_make_trace_without_spikes(self, tmp_path, capsys):
        problem_path = self._make_problem(tmp_path)
        trace_path = tmp_path / "quiet.json"
        code = cli_main([
            "make-trace", "--problem", str(problem_path),
            "--out", str(trace_path), "--windows", "2",
            "--spike-window", "-1",
        ])
        assert code == 0
        assert "re-deployment trace" in capsys.readouterr().out


class TestStrictJsonLogs:
    """Regression: non-finite floats must never reach a JSON artifact."""

    def test_initial_incumbent_cost_serializes_as_null(self, watch_problem):
        session = AdvisorSession()
        report = session.watch(watch_problem, [], fast_policy())
        initial = report.events[0]
        assert initial.incumbent_cost == float("inf")  # no plan stood yet
        payload = initial.to_dict()
        assert payload["incumbent_cost"] is None
        # The whole report passes the strict serializer the CLI now uses.
        encoded = json.dumps(report.to_dict(), allow_nan=False)
        assert "Infinity" not in encoded and "NaN" not in encoded

    def test_infinite_drift_serializes_as_null(self):
        event = WatchEvent(
            revision=1, reason=REASON_DRIFT, drift=float("inf"),
            refresh_time_s=0.0, engine_refreshed=True,
            incumbent_cost=2.0, resolved=True, cache_hit=False,
            warm_start=True, solve_time_s=0.1, cost=float("nan"),
            redeployed=True, solver="local-search", fingerprint="f",
        )
        payload = event.to_dict()
        assert payload["drift"] is None
        assert payload["cost"] is None
        json.dumps(payload, allow_nan=False)

    def test_from_dict_restores_non_finite_floats(self, watch_problem):
        session = AdvisorSession()
        report = session.watch(
            watch_problem, [drifted(watch_problem.costs, 5, 0.4)],
            fast_policy())
        for event in report.events:
            clone = WatchEvent.from_dict(
                json.loads(json.dumps(event.to_dict(), allow_nan=False)))
            assert clone == event

    def test_json_to_float_inverts_null(self):
        assert json_to_float(None) == float("inf")
        assert json_to_float(1.5) == 1.5
