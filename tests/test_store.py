"""The durable SQLite result + history store: pragmas, schema migrations,
the get / put / stats surface, eviction sweeps, crash recovery,
cross-process concurrency, and the persisted watch history."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import AdvisorSession, SolverResponse, SolveTelemetry, WatchPolicy
from repro.core import (
    CommunicationGraph,
    DeploymentProblem,
    Objective,
)
from repro.core.errors import StoreError
from repro.solvers import SearchBudget, SolverResult
from repro.store import (
    SCHEMA_VERSION,
    SQLiteResultCache,
    connect,
    schema_version,
    sweep,
    transaction,
)
from repro.store.schema import MIGRATIONS
from repro.store.connection import pragma_value
from repro.testing import deterministic_cost_matrix

SRC_PATH = str(Path(repro.__file__).parents[1])


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_PATH] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def problem():
    costs = deterministic_cost_matrix(9, seed=31, symmetric=False)
    graph = CommunicationGraph.ring(6)
    return DeploymentProblem(graph, costs)


def make_result(problem, cost=1.25):
    return SolverResult(
        plan=problem.default_plan(), cost=cost,
        objective=Objective.LONGEST_LINK, solver_name="G2",
        solve_time_s=0.1, iterations=3, optimal=False,
    )


def fast_policy(**overrides) -> WatchPolicy:
    base = dict(solver="local-search", config={"seed": 3},
                budget=SearchBudget(max_iterations=300),
                drift_threshold=0.05, degradation_threshold=0.02)
    base.update(overrides)
    return WatchPolicy(**base)


def drifted(costs, seed, sigma):
    import numpy as np
    rng = np.random.default_rng(seed)
    matrix = costs.as_array()
    m = matrix.shape[0]
    off_diagonal = ~np.eye(m, dtype=bool)
    matrix[off_diagonal] *= rng.lognormal(0.0, sigma,
                                          size=(m, m))[off_diagonal]
    from repro.core import CostMatrix
    return CostMatrix(list(costs.instance_ids), matrix)


class TestConnectionDiscipline:
    def test_pragmas_applied(self, tmp_path):
        store = SQLiteResultCache(tmp_path / "store.db")
        conn = store._conn
        assert pragma_value(conn, "journal_mode") == "wal"
        assert pragma_value(conn, "foreign_keys") == 1
        assert pragma_value(conn, "synchronous") == 1  # NORMAL
        assert pragma_value(conn, "busy_timeout") == 30_000
        store.close()

    def test_parent_directories_created(self, tmp_path):
        store = SQLiteResultCache(tmp_path / "deep" / "nested" / "s.db")
        assert store.path.exists()
        store.close()

    def test_schema_version_stamped(self, tmp_path):
        store = SQLiteResultCache(tmp_path / "store.db")
        assert schema_version(store._conn) == SCHEMA_VERSION
        store.close()

    def test_reopen_does_not_remigrate(self, tmp_path, problem):
        path = tmp_path / "store.db"
        with SQLiteResultCache(path) as store:
            store.put(problem.fingerprint(), "greedy", make_result(problem))
        with SQLiteResultCache(path) as store:
            assert len(store) == 1

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "store.db"
        SQLiteResultCache(path).close()
        conn = connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            SQLiteResultCache(path)

    def test_version_1_store_migrates_and_keeps_its_rows(self, tmp_path,
                                                        problem):
        """A store written before the repair flag went still opens.

        Opening migrates schema v1 to v2 (dropping the telemetry table's
        ``repair_applied`` column), keeps the telemetry and result rows,
        and serves the old result, whose payload still carries the flag.
        """
        path = tmp_path / "store.db"
        fingerprint = problem.fingerprint()
        payload = dict(make_result(problem).to_dict(), repair_applied=False)
        conn = connect(path)
        with transaction(conn):
            MIGRATIONS[0](conn)
            conn.execute("PRAGMA user_version = 1")
        with transaction(conn):
            conn.execute(
                "INSERT INTO problems (fingerprint, objective, created_at) "
                "VALUES (?, 'longest_link', 0)", (fingerprint,))
            conn.execute(
                "INSERT INTO results (fingerprint, solver, version, cost, "
                "payload, created_at, last_used_at) "
                "VALUES (?, 'greedy', 1, 1.25, ?, 0, 0)",
                (fingerprint, json.dumps(payload)))
            conn.execute(
                "INSERT INTO telemetry (request_id, fingerprint, solver, "
                "status, repair_applied, created_at) "
                "VALUES ('req-0000', ?, 'greedy', 'ok', 0, 0)",
                (fingerprint,))
        conn.close()

        with SQLiteResultCache(path) as store:
            assert schema_version(store._conn) == SCHEMA_VERSION == 2
            columns = [row[1] for row in store._conn.execute(
                "PRAGMA table_info(telemetry)")]
            assert "repair_applied" not in columns
            assert store._conn.execute(
                "SELECT request_id, solver, status FROM telemetry"
            ).fetchall() == [("req-0000", "greedy", "ok")]
            restored = store.get(fingerprint, "greedy")
            assert restored == make_result(problem)
            # New telemetry rows land in the migrated table.
            store.record_telemetry(fingerprint, SolverResponse(
                request_id="req-0001", solver="greedy", status="ok",
                result=restored, telemetry=SolveTelemetry()))
            assert store._conn.execute(
                "SELECT COUNT(*) FROM telemetry").fetchone()[0] == 2


class TestResultCacheProtocol:
    """get / put / stats / len / clear, and how failures degrade."""

    def test_put_get_round_trip(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        result = make_result(problem)
        fingerprint = problem.fingerprint()
        assert store.get(fingerprint, "greedy") is None
        store.put(fingerprint, "greedy", result)
        restored = store.get(fingerprint, "greedy")
        assert restored.cost == result.cost
        assert restored.plan.as_dict() == result.plan.as_dict()
        assert len(store) == 1
        stats = store.stats
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)

    def test_solver_keys_are_isolated(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        store.put(problem.fingerprint(), "greedy", make_result(problem))
        assert store.get(problem.fingerprint(), "cp") is None

    def test_put_upserts(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "greedy", make_result(problem, cost=2.0))
        store.put(fingerprint, "greedy", make_result(problem, cost=1.0))
        assert len(store) == 1
        assert store.get(fingerprint, "greedy").cost == 1.0

    def test_corrupt_rows_degrade_to_misses(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "greedy", make_result(problem))
        store._conn.execute("UPDATE results SET payload = '{not json'")
        assert store.get(fingerprint, "greedy") is None

    def test_malformed_payload_degrades_to_miss(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "greedy", make_result(problem))
        store._conn.execute(
            "UPDATE results SET payload = '{\"cost\": 1.0}'")
        assert store.get(fingerprint, "greedy") is None

    def test_version_mismatch_degrades_to_miss(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "greedy", make_result(problem))
        store._conn.execute("UPDATE results SET version = 999")
        assert store.get(fingerprint, "greedy") is None

    def test_clear_removes_entries_but_keeps_history(self, tmp_path,
                                                     problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        store.put(problem.fingerprint(), "greedy", make_result(problem))
        session = AdvisorSession(result_cache=store)
        session.watch(problem, [], fast_policy())
        assert store.clear() >= 1
        assert len(store) == 0
        assert len(store.history.runs()) == 1

    def test_non_finite_result_fields_fail_loudly(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        bad = make_result(problem, cost=float("inf"))
        with pytest.raises(ValueError):
            store.put(problem.fingerprint(), "greedy", bad)
        assert len(store) == 0  # the transaction rolled back


class TestEviction:
    def _populate(self, store, problem, count):
        base = problem
        fingerprints = []
        for index in range(count):
            revised = base.revise(costs=drifted(problem.costs,
                                                seed=100 + index, sigma=0.2))
            store.put(revised.fingerprint(), "greedy", make_result(revised))
            fingerprints.append(revised.fingerprint())
        return fingerprints

    def test_size_sweep_evicts_exactly_the_lru_rows(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprints = self._populate(store, problem, 5)
        # Deterministic recency order: row i last used at t=i.
        for index, fingerprint in enumerate(fingerprints):
            store._conn.execute(
                "UPDATE results SET last_used_at = ? WHERE fingerprint = ?",
                (float(index), fingerprint))
        store.max_results = 3
        stats = store.sweep()
        assert stats.results_by_size == 2
        survivors = {row[0] for row in store._conn.execute(
            "SELECT fingerprint FROM results")}
        assert survivors == set(fingerprints[2:])  # the two oldest evicted

    def test_age_sweep_evicts_exactly_the_over_age_rows(self, tmp_path,
                                                        problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprints = self._populate(store, problem, 4)
        now = time.time()
        for fingerprint in fingerprints[:2]:
            store._conn.execute(
                "UPDATE results SET last_used_at = ? WHERE fingerprint = ?",
                (now - 1000.0, fingerprint))
        store.max_age_s = 500.0
        stats = store.sweep(now=now)
        assert stats.results_by_age == 2
        survivors = {row[0] for row in store._conn.execute(
            "SELECT fingerprint FROM results")}
        assert survivors == set(fingerprints[2:])

    def test_orphan_problems_pruned(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        self._populate(store, problem, 2)
        store.max_results = 1
        store.sweep()
        anchored = {row[0] for row in store._conn.execute(
            "SELECT fingerprint FROM problems")}
        remaining = {row[0] for row in store._conn.execute(
            "SELECT fingerprint FROM results")}
        assert anchored == remaining  # evicted results took their anchor

    def test_hits_refresh_lru_position(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        fingerprints = self._populate(store, problem, 3)
        for index, fingerprint in enumerate(fingerprints):
            store._conn.execute(
                "UPDATE results SET last_used_at = ? WHERE fingerprint = ?",
                (float(index), fingerprint))
        assert store.get(fingerprints[0], "greedy") is not None  # touch
        store.max_results = 2
        store.sweep()
        survivors = {row[0] for row in store._conn.execute(
            "SELECT fingerprint FROM results")}
        assert fingerprints[0] in survivors  # the touched row survived

    def test_auto_sweep_after_sweep_every_puts(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db", max_results=2,
                                  sweep_every=3)
        self._populate(store, problem, 3)  # third put triggers the sweep
        assert len(store) == 2

    def test_history_run_retention(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        for _ in range(3):
            session.watch(problem, [], fast_policy())
        stats = sweep(store._conn, max_runs=1)
        assert stats.runs_by_size == 2
        assert len(store.history.runs()) == 1
        # Events of the evicted runs cascaded away with their run rows.
        events = store._conn.execute(
            "SELECT COUNT(*) FROM watch_events").fetchone()[0]
        assert events == 1


class TestCrashRecovery:
    def test_killed_uncommitted_writer_leaves_store_consistent(
            self, tmp_path, problem):
        path = tmp_path / "store.db"
        with SQLiteResultCache(path) as store:
            store.put(problem.fingerprint(), "greedy", make_result(problem))
        script = f"""
import os
from repro.store import connect
conn = connect({str(path)!r})
conn.execute("BEGIN IMMEDIATE")
conn.execute(
    "INSERT INTO problems (fingerprint, objective, created_at) "
    "VALUES ('uncommitted', 'longest_link', 0)")
print("mid-write", flush=True)
os._exit(1)  # die with the transaction open
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              env=subprocess_env(), capture_output=True,
                              text=True, timeout=60)
        assert "mid-write" in proc.stdout
        with SQLiteResultCache(path) as store:
            assert store._conn.execute(
                "PRAGMA integrity_check").fetchone()[0] == "ok"
            # The committed entry survived; the torn write did not.
            assert store.get(problem.fingerprint(), "greedy") is not None
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM problems "
                "WHERE fingerprint = 'uncommitted'").fetchone()[0]
            assert rows == 0

    def test_killed_after_commit_leaves_recoverable_wal(self, tmp_path,
                                                        problem):
        path = tmp_path / "store.db"
        SQLiteResultCache(path).close()
        # Commit through the WAL, then die without closing or
        # checkpointing: the row lives only in the -wal file.
        script = f"""
import os
from repro.store import connect, transaction
conn = connect({str(path)!r})
with transaction(conn):
    conn.execute(
        "INSERT INTO problems (fingerprint, objective, created_at) "
        "VALUES ('committed', 'longest_link', 0)")
print("committed", flush=True)
os._exit(1)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              env=subprocess_env(), capture_output=True,
                              text=True, timeout=60)
        assert "committed" in proc.stdout
        with SQLiteResultCache(path) as store:
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM problems "
                "WHERE fingerprint = 'committed'").fetchone()[0]
            assert rows == 1

    def test_failed_put_rolls_back_cleanly(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        with pytest.raises(ValueError):
            store.put(problem.fingerprint(), "greedy",
                      make_result(problem, cost=float("nan")))
        # The store stays fully usable after the aborted transaction.
        store.put(problem.fingerprint(), "greedy", make_result(problem))
        assert len(store) == 1


class TestConcurrency:
    def test_concurrent_readers_while_writing(self, tmp_path, problem):
        """Sibling processes read throughout a write burst, all hits."""
        path = tmp_path / "store.db"
        store = SQLiteResultCache(path)
        fingerprint = problem.fingerprint()
        store.put(fingerprint, "greedy", make_result(problem))
        reader_script = f"""
from repro.store import SQLiteResultCache
store = SQLiteResultCache({str(path)!r})
hits = sum(1 for _ in range(60)
           if store.get({fingerprint!r}, "greedy") is not None)
print("hits", hits, flush=True)
"""
        readers = [subprocess.Popen([sys.executable, "-c", reader_script],
                                    env=subprocess_env(),
                                    stdout=subprocess.PIPE, text=True)
                   for _ in range(3)]
        # Write new entries while the readers hammer the shared database.
        for index in range(40):
            revised = problem.revise(costs=drifted(problem.costs,
                                                   seed=index, sigma=0.2))
            store.put(revised.fingerprint(), f"w{index}",
                      make_result(revised))
        for reader in readers:
            stdout, _ = reader.communicate(timeout=120)
            assert reader.returncode == 0
            # Every single lookup was served — no "database is locked"
            # miss within the busy timeout.
            assert stdout.strip() == "hits 60"

    def test_writer_waits_out_a_short_lock(self, tmp_path, problem):
        path = tmp_path / "store.db"
        store = SQLiteResultCache(path)
        blocker = connect(path)
        blocker.execute("BEGIN IMMEDIATE")

        def release():
            time.sleep(0.3)
            blocker.execute("COMMIT")

        thread = threading.Thread(target=release)
        thread.start()
        # With a 30 s busy timeout the put queues behind the lock instead
        # of raising "database is locked".
        store.put(problem.fingerprint(), "greedy", make_result(problem))
        thread.join()
        assert len(store) == 1

    def test_writer_times_out_loudly(self, tmp_path, problem):
        path = tmp_path / "store.db"
        store = SQLiteResultCache(path, busy_timeout_ms=100)
        blocker = connect(path)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreError):
                store.put(problem.fingerprint(), "greedy",
                          make_result(problem))
            # Reads degrade to a miss instead of raising.
            assert store.get(problem.fingerprint(), "greedy") is None
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()


class TestWatchHistory:
    def test_record_and_query_round_trip(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        revisions = [drifted(problem.costs, seed=1, sigma=0.001),
                     drifted(problem.costs, seed=2, sigma=0.4)]
        report = session.watch(problem, revisions, fast_policy())

        runs = store.history.runs()
        assert len(runs) == 1
        run = runs[0]
        assert run.root_fingerprint == problem.fingerprint()
        assert run.solver == "local-search"
        assert run.resolves == report.resolves
        assert run.num_events == len(report.events)

        events = store.history.events(run.run_id)
        assert [e.to_dict() for e in events] == [
            e.to_dict() for e in report.events]
        # Non-finite floats survive the NULL round trip as inf.
        assert events[0].incumbent_cost == float("inf")

    def test_redeployments_since_revision(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        revisions = [drifted(problem.costs, seed=3, sigma=0.4),
                     drifted(problem.costs, seed=4, sigma=0.4)]
        report = session.watch(problem, revisions, fast_policy())
        fingerprint = problem.fingerprint()
        everything = store.history.redeployments(fingerprint)
        assert len(everything) == report.redeployments
        later = store.history.redeployments(fingerprint, since_revision=1)
        assert all(event.revision > 1 for event in later)
        assert len(later) == sum(1 for event in report.events
                                 if event.redeployed and event.revision > 1)
        assert store.history.redeployments("no-such-fingerprint") == []

    def test_revision_lineage(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        revisions = [drifted(problem.costs, seed=5, sigma=0.4)]
        report = session.watch(problem, revisions, fast_policy())
        lineage = store.history.revision_lineage(problem.fingerprint())
        assert len(lineage) == 1
        child, revision, max_drift = lineage[0]
        assert child == report.events[1].fingerprint
        assert revision == 1
        assert max_drift == pytest.approx(report.events[1].drift)

    def test_sibling_process_reads_history(self, tmp_path, problem):
        path = tmp_path / "store.db"
        session = AdvisorSession(result_cache=SQLiteResultCache(path))
        session.watch(problem, [drifted(problem.costs, seed=6, sigma=0.4)],
                      fast_policy())
        script = f"""
from repro.store import SQLiteResultCache
store = SQLiteResultCache({str(path)!r})
runs = store.history.runs()
print("runs", len(runs), "events", runs[0].num_events, flush=True)
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              env=subprocess_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "runs 1 events 2"

    def test_telemetry_rows_recorded(self, tmp_path, problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        report = session.watch(
            problem, [drifted(problem.costs, seed=7, sigma=0.4)],
            fast_policy())
        rows = store._conn.execute(
            "SELECT status, solver FROM telemetry").fetchall()
        assert len(rows) == report.resolves
        assert all(status == "ok" and solver == "local-search"
                   for status, solver in rows)

    def test_problems_enriched_with_instance_metadata(self, tmp_path,
                                                      problem):
        store = SQLiteResultCache(tmp_path / "store.db")
        session = AdvisorSession(result_cache=store)
        session.watch(problem, [], fast_policy())
        row = store._conn.execute(
            "SELECT instance_key, num_nodes, num_instances FROM problems "
            "WHERE fingerprint = ?", (problem.fingerprint(),)).fetchone()
        assert row == (problem.instance_key(), problem.graph.num_nodes,
                       len(problem.costs.instance_ids))


class TestSessionIntegration:
    def test_replay_is_fully_store_served(self, tmp_path, problem):
        path = tmp_path / "store.db"
        revisions = [drifted(problem.costs, seed=8, sigma=0.4)]
        first = AdvisorSession(result_cache=SQLiteResultCache(path))
        report = first.watch(problem, revisions, fast_policy())
        assert report.resolves == 2 and report.cache_hits == 0

        second = AdvisorSession(result_cache=SQLiteResultCache(path))
        replay = second.watch(problem, revisions, fast_policy())
        assert replay.resolves == 0
        assert replay.cache_hits == 2
        assert replay.cost == report.cost
        assert replay.plan.as_dict() == report.plan.as_dict()
        assert second.stats.result_cache_hits == 2

    def test_different_policies_do_not_share_entries(self, tmp_path,
                                                     problem):
        path = tmp_path / "store.db"
        AdvisorSession(result_cache=SQLiteResultCache(path)).watch(
            problem, [], fast_policy())
        report = AdvisorSession(result_cache=SQLiteResultCache(path)).watch(
            problem, [], fast_policy(config={"seed": 99}))
        assert report.cache_hits == 0 and report.resolves == 1


class TestStoreCli:
    def _artifacts(self, tmp_path):
        from repro.cli import main as cli_main
        problem_path = tmp_path / "problem.json"
        trace_path = tmp_path / "trace.json"
        assert cli_main(["make-problem", "--template", "ring", "--nodes",
                         "6", "--out", str(problem_path)]) == 0
        assert cli_main(["make-trace", "--problem", str(problem_path),
                         "--out", str(trace_path), "--windows", "3",
                         "--spike-window", "1", "--spike-links", "3"]) == 0
        return problem_path, trace_path

    def test_watch_store_replay_is_store_served(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        problem_path, trace_path = self._artifacts(tmp_path)
        store_path = tmp_path / "store.db"
        log_path = tmp_path / "log.json"
        args = ["watch", "--problem", str(problem_path),
                "--trace", str(trace_path), "--solver", "local-search",
                "--seed", "7", "--time-limit", "0.5",
                "--store", str(store_path)]
        assert cli_main(args + ["--out", str(log_path)]) == 0
        first = capsys.readouterr().out
        assert "durable store" in first

        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "re-solves: 0" in second

        def reject(token):
            raise ValueError(f"non-finite JSON token {token!r}")

        log = json.loads(log_path.read_text(), parse_constant=reject)
        assert log["events"][0]["reason"] == "initial"
        assert log["events"][0]["incumbent_cost"] is None

        with SQLiteResultCache(store_path) as store:
            assert len(store.history.runs()) == 2
