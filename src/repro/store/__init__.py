"""Durable WAL-mode SQLite store of solver results and watch history.

The persistence layer the serving-scale deployment advisor sits on: one
SQLite database (``journal_mode=WAL``, ``synchronous=NORMAL``, a generous
``busy_timeout``, foreign keys enforced) holding problems, solver results,
cost-revision lineage, solve telemetry and the persisted re-deployment
log.  :class:`~repro.api.AdvisorSession` (and the CLI ``watch --store``)
use :class:`SQLiteResultCache` as an accelerator that skips solves already
done, sibling processes share the database with concurrent readers, and
:class:`WatchHistory` answers indexed queries like "all redeployments for
fingerprint X since revision N" across restarts.
"""

from .connection import DEFAULT_BUSY_TIMEOUT_MS, connect, transaction
from .eviction import SweepStats, sweep
from .history import WatchHistory, WatchRunSummary
from .result_cache import (
    RESULT_CACHE_VERSION,
    ResultCacheStats,
    SQLiteResultCache,
)
from .schema import SCHEMA_VERSION, apply_schema, schema_version

__all__ = [
    "DEFAULT_BUSY_TIMEOUT_MS",
    "RESULT_CACHE_VERSION",
    "ResultCacheStats",
    "SCHEMA_VERSION",
    "SQLiteResultCache",
    "SweepStats",
    "WatchHistory",
    "WatchRunSummary",
    "apply_schema",
    "connect",
    "schema_version",
    "sweep",
    "transaction",
]
