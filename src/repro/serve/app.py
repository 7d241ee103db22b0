"""The advisor service application: wiring, submit path, lifecycle.

:class:`AdvisorApp` is the HTTP-agnostic heart of ``repro.serve``: it owns
the shared :class:`~repro.api.AdvisorSession`, the durable store, the
:class:`~repro.serve.scheduler.FairScheduler`, the worker pool, the job
table and the metrics — and exposes exactly two things to the transport:
:meth:`handle` (dispatch one parsed request through the route table) and
the lifecycle methods (:meth:`start`, :meth:`drain`, :meth:`close`).

The submit path is layered so that every dedup opportunity is taken
before a solver runs::

    request -> decode memo                       (repeated problem text)
            -> fingerprint + solver tag          (content addressing)
            -> persistent store short-circuit    (repeats across restarts)
            -> in-flight coalescing              (concurrent duplicates)
            -> bounded fair queue                (priorities + tenants)
            -> worker pool -> shared session     (compile dedup)
            -> store write-back                  (the next repeat is free)

Keeping it transport-free means tests (and embedders) can drive the full
service semantics without opening a socket.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qsl

from ..api.schema import SolveRequest, SolverResponse, SolveTelemetry
from ..core.errors import ClouDiAError
from ..solvers.registry import SolverRegistry
from ..store import SQLiteResultCache
from ..api.session import AdvisorSession
from .decode_memo import DecodeMemo
from .dependencies import HttpError, Request, ServeConfig, resolve_tenant
from .metrics import ServiceMetrics
from .routes import build_router
from .scheduler import (
    STATUS_DONE,
    FairScheduler,
    Job,
    JobTable,
    coalesce_key,
)
from .workers import WorkerPool


def _reject_constant(token: str):
    """``json.loads`` hook for ``NaN`` / ``Infinity`` / ``-Infinity``.

    RFC 8259 has no such tokens; accepting them would let a NaN time limit
    never expire and pin a worker.
    """
    raise ValueError(f"{token} is not a JSON number")


class AdvisorApp:
    """One advisor service process (transport-agnostic).

    Args:
        store: the shared durable result/history store — a
            :class:`~repro.store.SQLiteResultCache`, a path a store is
            opened at, or ``None`` to serve without persistence (history
            endpoints then answer 503).
        config: service tunables; defaults to :class:`ServeConfig`.
        registry: solver registry; defaults to the process-wide one.
        start_workers: spawn the worker pool immediately.  Tests pass
            ``False`` to stage jobs deterministically before draining.
    """

    def __init__(self,
                 store: Optional[Union[SQLiteResultCache, str, Path]] = None,
                 config: Optional[ServeConfig] = None,
                 registry: Optional[SolverRegistry] = None,
                 start_workers: bool = True):
        self.config = config if config is not None else ServeConfig()
        if isinstance(store, (str, Path)):
            store = SQLiteResultCache(store)
        self.store = store
        self.session = AdvisorSession(registry=registry, result_cache=store)
        self.scheduler = FairScheduler(
            max_queue=self.config.max_queue,
            tenant_weights=self.config.tenant_weights,
        )
        self.metrics = ServiceMetrics()
        self.decode_memo = DecodeMemo()
        self.jobs = JobTable(max_finished=self.config.max_finished_jobs)
        self.pool = WorkerPool(self.scheduler, self.session, self.metrics,
                               workers=self.config.workers, jobs=self.jobs)
        self.router = build_router()
        self._started_at = time.time()
        if start_workers:
            self.start()

    # ------------------------------------------------------------------ #
    # Submit path
    # ------------------------------------------------------------------ #

    def submit_solve(self, request: SolveRequest, tenant: str,
                     priority: int) -> Tuple[Job, str]:
        """Route one solve to the store, an in-flight twin, or the queue.

        Returns:
            ``(job, source)`` where ``source`` is this *caller's* path:
            ``"store"`` (already finished, served from the persistent
            store), ``"coalesced"`` (attached to an identical in-flight
            job) or ``"solver"`` (newly queued).

        Raises:
            QueueFullError: queue bound reached (HTTP 429).
            SchedulerClosedError: graceful drain in progress (HTTP 503).
            ClouDiAError: unknown solver key or malformed problem (400).
        """
        fingerprint, cache_tag = coalesce_key(self.session.registry, request)
        job_id = self.scheduler.new_job_id()
        request = request.with_id(job_id) if request.request_id is None \
            else request
        job = Job(job_id=job_id, tenant=tenant, priority=priority,
                  request=request, fingerprint=fingerprint,
                  cache_tag=cache_tag)

        served = self._store_lookup(request, fingerprint, cache_tag)
        if served is not None:
            job.source = "store"
            job.status = STATUS_DONE
            job.finish(response=served)
            self.jobs.add(job)
            self.metrics.record_store_hit()
            return job, "store"

        effective, coalesced = self.scheduler.submit(job)
        if not coalesced:
            self.jobs.add(job)
        return effective, ("coalesced" if coalesced else "solver")

    def _store_lookup(self, request: SolveRequest, fingerprint: str,
                      cache_tag: str) -> Optional[SolverResponse]:
        """A validated persistent-store response for the request, or None."""
        started = time.perf_counter()
        result = self.session.cached_result(request.problem, fingerprint,
                                            cache_tag)
        if result is None:
            return None
        elapsed = time.perf_counter() - started
        return SolverResponse(
            request_id=request.request_id,
            solver=request.resolved_solver_key(self.session.registry),
            status="ok", result=result,
            telemetry=SolveTelemetry(
                compile_cache_hit=False, compile_time_s=0.0,
                solve_time_s=0.0, total_time_s=elapsed,
            ),
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def handle(self, method: str, path: str,
               headers: Optional[Mapping[str, str]] = None,
               body: Optional[bytes] = None,
               query_string: str = "") -> Tuple[int, Dict]:
        """Dispatch one request; always returns ``(status, payload)``.

        The transport (HTTP handler, tests, an embedding process) passes
        the raw pieces; every parse/validation failure is mapped to a
        JSON error payload here, so no route can leak a traceback.
        """
        headers = headers or {}
        route_name = "unmatched"
        try:
            route, params = self.router.match(method, path)
            route_name = route.name
            tenant = resolve_tenant(headers, self.config)
            parsed_body = self._parse_body(body)
            request = Request(
                method=method, path=path, tenant=tenant,
                query=dict(parse_qsl(query_string)), params=params,
                body=parsed_body,
            )
            status, payload = route.handler(self, request)
        except HttpError as exc:
            status, payload = exc.status, {"error": exc.message,
                                           "status": exc.status}
        except ClouDiAError as exc:
            status, payload = 400, {"error": str(exc), "status": 400}
        except Exception as exc:  # noqa: BLE001 - service boundary
            traceback.print_exc(file=sys.stderr)
            status, payload = 500, {
                "error": f"internal error: {type(exc).__name__}",
                "status": 500,
            }
        self.metrics.record_request(route_name, status)
        return status, payload

    @staticmethod
    def _parse_body(body: Optional[bytes]):
        if not body:
            return None
        try:
            return json.loads(body.decode("utf-8"),
                              parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            # ValueError: bad UTF-8, malformed JSON or a NaN / Infinity
            # token; RecursionError: nested too deep.
            raise HttpError(400, f"request body is not valid JSON: {exc}"
                            ) from None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def draining(self) -> bool:
        """Whether a graceful drain has begun."""
        return self.scheduler.closed

    def metrics_snapshot(self) -> Dict:
        """The ``/metrics`` payload: one snapshot across every layer."""
        store_stats = None
        if self.store is not None:
            stats = self.store.stats
            store_stats = {"hits": stats.hits, "misses": stats.misses,
                           "writes": stats.writes,
                           "hit_rate": stats.hit_rate}
        return {
            "uptime_s": time.time() - self._started_at,
            "draining": self.draining,
            "workers": self.config.workers,
            "service": self.metrics.to_dict(),
            "scheduler": self.scheduler.stats.to_dict(),
            "session": self.session.stats.to_dict(),
            "decode_memo": self.decode_memo.to_dict(),
            "store": store_stats,
            "tracked_jobs": len(self.jobs),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        self.pool.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish the queue.

        Returns:
            ``True`` when every worker exited within the timeout
            (``config.drain_timeout_s`` by default).
        """
        self.scheduler.close()
        if not self.pool._started:  # nothing to wait for
            return True
        return self.pool.join(
            self.config.drain_timeout_s if timeout is None else timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain, then release the store connection.

        After a dirty drain (workers still mid-solve past the timeout)
        the store connection is left open — a straggler is about to
        write its result back, and yanking the connection out from under
        it would turn a graceful-degradation path into spurious errors.
        """
        self.drain(timeout=timeout)
        if self.store is None:
            return
        if self.pool.alive():
            print("serve: drain timed out with workers still running; "
                  "leaving the store connection open for stragglers",
                  file=sys.stderr, flush=True)
            return
        self.store.close()


def create_app(store: Optional[Union[SQLiteResultCache, str, Path]] = None,
               config: Optional[ServeConfig] = None,
               registry: Optional[SolverRegistry] = None,
               start_workers: bool = True) -> AdvisorApp:
    """Build an :class:`AdvisorApp` (the conventional factory spelling)."""
    return AdvisorApp(store=store, config=config, registry=registry,
                      start_workers=start_workers)
