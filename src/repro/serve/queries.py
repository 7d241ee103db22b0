"""Read-side queries of the serving layer.

The query layer between the routes and the data they render: solver
discovery delegates to the registry's own :meth:`SolverSpec.describe`
(the single machine-readable catalog the CLI's ``solvers --json`` shares),
and the history endpoints render the durable store's
:class:`~repro.store.WatchHistory` rows into JSON.  Routes never touch
the registry or the store directly, so what the service exposes is
greppable in one module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..solvers.registry import SolverRegistry
from ..store import SQLiteResultCache
from ..store.history import WatchHistory, WatchRunSummary
from .dependencies import HttpError


def solver_catalog(registry: SolverRegistry) -> List[Dict]:
    """Machine-readable descriptions of every registered solver."""
    return [spec.describe() for spec in registry.specs()]


def run_summary_payload(summary: WatchRunSummary) -> Dict:
    """One ``watch_runs`` row as the ``/v1/history`` item JSON."""
    return {
        "run_id": summary.run_id,
        "root_fingerprint": summary.root_fingerprint,
        "solver": summary.solver,
        "objective": summary.objective,
        "final_cost": summary.final_cost,
        "resolves": summary.resolves,
        "cache_hits": summary.cache_hits,
        "redeployments": summary.redeployments,
        "holds": summary.holds,
        "created_at": summary.created_at,
        "num_events": summary.num_events,
    }


def _history(store: Optional[SQLiteResultCache]) -> WatchHistory:
    """The store's watch history; 503 when serving without a store."""
    if store is None:
        raise HttpError(
            503, "history requires a durable store; start the service "
                 "with --store")
    return store.history


def history_runs(store: Optional[SQLiteResultCache],
                 root_fingerprint: Optional[str] = None
                 ) -> List[WatchRunSummary]:
    """Recorded watch runs, newest first, optionally for one root problem.

    Raises:
        HttpError: 503 when the service runs without a durable store
            (history needs one — there is nothing to read otherwise).
    """
    runs = _history(store).runs(root_fingerprint)
    runs.reverse()  # newest first: page 0 is the most recent activity
    return runs


def run_events(store: Optional[SQLiteResultCache], run_id: int) -> List[Dict]:
    """The full event log of one recorded run, as JSON dicts.

    Raises:
        HttpError: 503 without a store, 404 for an unknown run id.
    """
    events = _history(store).events(run_id)
    if not events:
        raise HttpError(404, f"unknown watch run {run_id}")
    return [event.to_dict() for event in events]
