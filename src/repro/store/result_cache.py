"""Durable SQLite-backed solver-result cache.

:class:`SQLiteResultCache` is where solved deployments live: one WAL-mode
database shared by sibling processes, keyed on ``(problem fingerprint,
solver tag)``, with concurrent readers for a serving layer, indexed queries
over the re-deployment history (:attr:`SQLiteResultCache.history`), durable
solve telemetry, and size/age eviction sweeps.
:class:`~repro.api.AdvisorSession` uses it to skip solves already done.

Its failure discipline:

* reads that fail for *any* reason — locked database, corrupt payload,
  mismatched key, malformed result — degrade to a cache miss, never into
  aborting a solve;
* writes are transactional (a killed writer leaves a recoverable WAL, not
  a half-written row) and raise :class:`~repro.core.errors.StoreError` so
  failures are loud; callers that treat the store as an accelerator catch
  it.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..api.schema import SolverResponse
from ..core.errors import ClouDiAError, StoreError
from ..core.problem import DeploymentProblem
from ..solvers.base import SolverResult
from .connection import DEFAULT_BUSY_TIMEOUT_MS, connect, transaction
from .eviction import SweepStats, sweep
from .history import WatchHistory
from .schema import apply_schema

#: Version tag stored with every result row; bumping it invalidates all
#: previously written results at once.
RESULT_CACHE_VERSION = 1


@dataclass(frozen=True)
class ResultCacheStats:
    """Counters of one :class:`SQLiteResultCache` handle (not the database)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SQLiteResultCache:
    """WAL-mode SQLite store of solver results and re-deployment history.

    Args:
        path: database file; created (with parent directories and schema)
            when missing.  Pointing several processes at the same file is
            the intended sharing mode — WAL gives them concurrent readers
            and queued writers.
        max_results: size eviction knob — keep at most this many result
            rows (least-recently-used evicted first).  ``None`` disables.
        max_age_s: age eviction knob — drop result rows not used, and
            history not recorded, within this many seconds.  ``None``
            disables.
        sweep_every: run an automatic eviction sweep after this many
            ``put`` calls (only when a knob is set); :meth:`sweep` can
            always be called explicitly.
        busy_timeout_ms: how long writers wait on a locked database.

    The key is ``fingerprint + solver tag``: the fingerprint covers
    everything that influences solving (graph, costs, objective,
    constraints — see
    :meth:`~repro.core.problem.DeploymentProblem.fingerprint`), and the
    solver tag keeps results of different runs apart — the watch loop and
    the service pass the solver key qualified with a digest of its config
    and budget, so a cached greedy plan is never served to a CP request.
    """

    def __init__(self, path: Union[str, Path],
                 max_results: Optional[int] = None,
                 max_age_s: Optional[float] = None,
                 sweep_every: int = 64,
                 busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS):
        if max_results is not None and max_results < 1:
            raise ValueError("max_results must be >= 1")
        if max_age_s is not None and max_age_s <= 0:
            raise ValueError("max_age_s must be > 0")
        if sweep_every < 1:
            raise ValueError("sweep_every must be >= 1")
        self.path = Path(path)
        self.max_results = max_results
        self.max_age_s = max_age_s
        self.sweep_every = sweep_every
        self._lock = threading.RLock()
        self._conn = connect(self.path, busy_timeout_ms=busy_timeout_ms)
        apply_schema(self._conn)
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._puts_since_sweep = 0
        self._history = WatchHistory(self._conn, self._lock)

    # ------------------------------------------------------------------ #
    # Results: get / put / stats / len / clear
    # ------------------------------------------------------------------ #

    def get(self, fingerprint: str, solver: str) -> Optional[SolverResult]:
        """The cached result for the pair, or ``None``.

        Any failure — database locked past its timeout, corrupt payload,
        version or key mismatch — counts as a miss; the store accelerates
        solving, it never aborts it.  Hits touch the row's
        ``last_used_at`` so LRU eviction keeps hot entries.
        """
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT version, payload FROM results "
                    "WHERE fingerprint = ? AND solver = ?",
                    (fingerprint, solver),
                ).fetchone()
                if row is None or row[0] != RESULT_CACHE_VERSION:
                    raise ClouDiAError("no matching cache row")
                payload = json.loads(row[1])
                result = SolverResult.from_dict(payload)
                self._conn.execute(
                    "UPDATE results SET last_used_at = ? "
                    "WHERE fingerprint = ? AND solver = ?",
                    (time.time(), fingerprint, solver),
                )
        except (sqlite3.Error, ValueError, KeyError, TypeError,
                ClouDiAError):
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            self._hits += 1
        return result

    def put(self, fingerprint: str, solver: str,
            result: SolverResult) -> None:
        """Persist a result transactionally (upsert on the pair key).

        A minimal ``problems`` anchor row is inserted when the fingerprint
        is new; :meth:`record_problem` enriches it with instance metadata
        when the full problem object is at hand.

        Raises:
            StoreError: when the write fails; a failed write leaves no
                partial row behind (the transaction rolls back).
        """
        payload = json.dumps(result.to_dict(), allow_nan=False)
        now = time.time()
        try:
            with self._lock, transaction(self._conn):
                self._conn.execute(
                    "INSERT OR IGNORE INTO problems "
                    "(fingerprint, objective, num_nodes, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    (fingerprint, result.objective.value,
                     len(result.plan.as_dict()), now),
                )
                self._conn.execute(
                    """
                    INSERT INTO results (fingerprint, solver, version, cost,
                                         payload, created_at, last_used_at)
                    VALUES (?, ?, ?, ?, ?, ?, ?)
                    ON CONFLICT (fingerprint, solver) DO UPDATE SET
                        version = excluded.version,
                        cost = excluded.cost,
                        payload = excluded.payload,
                        last_used_at = excluded.last_used_at
                    """,
                    (fingerprint, solver, RESULT_CACHE_VERSION, result.cost,
                     payload, now, now),
                )
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot store result for {fingerprint[:12]}…/{solver}: "
                f"{exc}"
            ) from exc
        with self._lock:
            self._writes += 1
            self._puts_since_sweep += 1
            due = (self._puts_since_sweep >= self.sweep_every
                   and (self.max_results is not None
                        or self.max_age_s is not None))
        if due:
            self.sweep()

    @property
    def stats(self) -> ResultCacheStats:
        """Hit / miss / write counters of this handle (not the database)."""
        with self._lock:
            return ResultCacheStats(hits=self._hits, misses=self._misses,
                                    writes=self._writes)

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0])

    def clear(self) -> int:
        """Delete every result entry; returns how many were removed.

        History and telemetry rows survive — clearing the accelerator must
        not erase the audit log.
        """
        try:
            with self._lock, transaction(self._conn):
                removed = self._conn.execute("DELETE FROM results").rowcount
        except sqlite3.Error as exc:
            raise StoreError(f"cannot clear result store: {exc}") from exc
        return removed

    # ------------------------------------------------------------------ #
    # History, telemetry, eviction, lifecycle
    # ------------------------------------------------------------------ #

    @property
    def history(self) -> WatchHistory:
        """The durable re-deployment log sharing this store's database."""
        return self._history

    def record_problem(self, problem: DeploymentProblem) -> None:
        """Upsert the full metadata row for a problem's fingerprint."""
        try:
            with self._lock, transaction(self._conn):
                self._conn.execute(
                    """
                    INSERT INTO problems (fingerprint, instance_key,
                        objective, num_nodes, num_instances, created_at)
                    VALUES (?, ?, ?, ?, ?, ?)
                    ON CONFLICT (fingerprint) DO UPDATE SET
                        instance_key = excluded.instance_key,
                        num_nodes = excluded.num_nodes,
                        num_instances = excluded.num_instances
                    """,
                    (problem.fingerprint(), problem.instance_key(),
                     problem.objective.value, problem.graph.num_nodes,
                     len(problem.costs.instance_ids), time.time()),
                )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot record problem: {exc}") from exc

    def record_telemetry(self, fingerprint: str,
                         response: SolverResponse) -> None:
        """Append one solve-telemetry row (the monitoring stream)."""
        telemetry = response.telemetry
        try:
            with self._lock, transaction(self._conn):
                self._conn.execute(
                    """
                    INSERT INTO telemetry (request_id, fingerprint, solver,
                        status, compile_cache_hit, compile_time_s,
                        solve_time_s, total_time_s, created_at)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (response.request_id, fingerprint, response.solver,
                     response.status,
                     None if telemetry is None
                     else int(telemetry.compile_cache_hit),
                     None if telemetry is None else telemetry.compile_time_s,
                     None if telemetry is None else telemetry.solve_time_s,
                     None if telemetry is None else telemetry.total_time_s,
                     time.time()),
                )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot record telemetry: {exc}") from exc

    def sweep(self, now: Optional[float] = None) -> SweepStats:
        """Run one size/age eviction sweep with the configured knobs."""
        with self._lock:
            self._puts_since_sweep = 0
            try:
                return sweep(self._conn, max_results=self.max_results,
                             max_age_s=self.max_age_s, now=now)
            except sqlite3.Error as exc:
                raise StoreError(f"eviction sweep failed: {exc}") from exc

    def checkpoint(self) -> None:
        """Fold the WAL back into the main database file (best effort)."""
        with self._lock:
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "SQLiteResultCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SQLiteResultCache(path={str(self.path)!r}, "
                f"entries={len(self)})")
