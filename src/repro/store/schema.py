"""Schema and migrations of the durable result + history database.

The store holds five tables:

* ``problems`` — one row per distinct problem content
  (:meth:`~repro.core.problem.DeploymentProblem.fingerprint`-keyed); the
  anchor every result and revision hangs off.
* ``results`` — one solver result per ``(fingerprint, solver tag)`` pair,
  with LRU (``last_used_at``) and age (``created_at``) columns the eviction
  sweeps order by.
* ``cost_revisions`` — the re-deployment lineage: which fingerprint a
  revision was drifted from, and by how much.
* ``telemetry`` — one row per executed solve request (status, cache hits,
  timings), the append-heavy monitoring stream.
* ``watch_runs`` / ``watch_events`` — the persisted
  :class:`~repro.api.watch.WatchReport` history: one run row per watch,
  one event row per revision, indexed for "all redeployments for
  fingerprint X since revision N" queries.

Versioning uses ``PRAGMA user_version``: :func:`apply_schema` replays the
``MIGRATIONS`` list from the database's current version inside one write
transaction, so a crash mid-migration leaves the previous version intact.
"""

from __future__ import annotations

import sqlite3

from ..core.errors import StoreError
from .connection import transaction

#: Current schema version; ``len(MIGRATIONS)`` must equal it.
SCHEMA_VERSION = 2

# Individual statements (not one script): sqlite3's executescript() issues
# an implicit COMMIT, which would escape the migration transaction.
_SCHEMA_V1 = """
CREATE TABLE problems (
    fingerprint   TEXT PRIMARY KEY,
    instance_key  TEXT,
    objective     TEXT NOT NULL,
    num_nodes     INTEGER,
    num_instances INTEGER,
    created_at    REAL NOT NULL
);

CREATE TABLE results (
    fingerprint  TEXT NOT NULL REFERENCES problems(fingerprint)
                 ON DELETE CASCADE,
    solver       TEXT NOT NULL,
    version      INTEGER NOT NULL,
    cost         REAL,
    payload      TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL,
    PRIMARY KEY (fingerprint, solver)
);
CREATE INDEX idx_results_last_used ON results(last_used_at);
CREATE INDEX idx_results_created ON results(created_at);

CREATE TABLE cost_revisions (
    id                 INTEGER PRIMARY KEY,
    fingerprint        TEXT NOT NULL,
    parent_fingerprint TEXT,
    revision           INTEGER NOT NULL,
    max_drift          REAL,
    created_at         REAL NOT NULL
);
CREATE INDEX idx_cost_revisions_parent
    ON cost_revisions(parent_fingerprint);

CREATE TABLE telemetry (
    id               INTEGER PRIMARY KEY,
    request_id       TEXT,
    fingerprint      TEXT,
    solver           TEXT,
    status           TEXT NOT NULL,
    compile_cache_hit INTEGER,
    compile_time_s   REAL,
    solve_time_s     REAL,
    total_time_s     REAL,
    repair_applied   INTEGER,
    created_at       REAL NOT NULL
);
CREATE INDEX idx_telemetry_fingerprint ON telemetry(fingerprint);

CREATE TABLE watch_runs (
    run_id           INTEGER PRIMARY KEY,
    root_fingerprint TEXT NOT NULL,
    solver           TEXT NOT NULL,
    objective        TEXT NOT NULL,
    final_cost       REAL,
    resolves         INTEGER NOT NULL,
    cache_hits       INTEGER NOT NULL,
    redeployments    INTEGER NOT NULL,
    holds            INTEGER NOT NULL,
    created_at       REAL NOT NULL
);
CREATE INDEX idx_watch_runs_root ON watch_runs(root_fingerprint);

CREATE TABLE watch_events (
    run_id          INTEGER NOT NULL REFERENCES watch_runs(run_id)
                    ON DELETE CASCADE,
    revision        INTEGER NOT NULL,
    fingerprint     TEXT NOT NULL,
    reason          TEXT NOT NULL,
    drift           REAL,
    refresh_time_s  REAL NOT NULL,
    engine_refreshed INTEGER NOT NULL,
    incumbent_cost  REAL,
    resolved        INTEGER NOT NULL,
    cache_hit       INTEGER NOT NULL,
    warm_start      INTEGER NOT NULL,
    solve_time_s    REAL NOT NULL,
    cost            REAL,
    redeployed      INTEGER NOT NULL,
    solver          TEXT NOT NULL,
    PRIMARY KEY (run_id, revision)
);
CREATE INDEX idx_watch_events_fingerprint
    ON watch_events(fingerprint, revision);
"""


def _migrate_v1(conn: sqlite3.Connection) -> None:
    for statement in _SCHEMA_V1.split(";"):
        if statement.strip():
            conn.execute(statement)


def _migrate_v2(conn: sqlite3.Connection) -> None:
    # The constraint-repair flag went with the repair fallback it recorded
    # (DROP COLUMN needs SQLite >= 3.35).
    conn.execute("ALTER TABLE telemetry DROP COLUMN repair_applied")


#: Ordered migrations; index ``i`` upgrades ``user_version`` i -> i + 1.
MIGRATIONS = (_migrate_v1, _migrate_v2)

assert len(MIGRATIONS) == SCHEMA_VERSION


def schema_version(conn: sqlite3.Connection) -> int:
    """The database's current ``user_version``."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def apply_schema(conn: sqlite3.Connection) -> int:
    """Bring the database up to :data:`SCHEMA_VERSION`; returns the version.

    Each pending migration runs in its own write transaction (including the
    version bump), so a killed process leaves the database at a consistent
    intermediate version the next open resumes from.

    Raises:
        StoreError: when the database is *newer* than this code (opening it
            with an old library must fail loudly, not misread the schema),
            or a migration fails.
    """
    version = schema_version(conn)
    if version > SCHEMA_VERSION:
        raise StoreError(
            f"result store schema version {version} is newer than the "
            f"supported version {SCHEMA_VERSION}; upgrade the library"
        )
    while version < SCHEMA_VERSION:
        migration = MIGRATIONS[version]
        try:
            with transaction(conn):
                migration(conn)
                # PRAGMA cannot be parameterised; version is a trusted int.
                conn.execute(f"PRAGMA user_version = {version + 1}")
        except sqlite3.Error as exc:
            raise StoreError(
                f"result store migration to version {version + 1} failed: "
                f"{exc}"
            ) from exc
        version += 1
    return version
