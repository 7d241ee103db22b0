"""``POST /v1/solve`` and ``POST /v1/solve-batch``.

The body of a solve is a serialized :class:`~repro.api.SolveRequest`
(problem, solver key, config, budget, warm start) plus two service-level
fields: ``priority`` (``"drift"`` / ``"interactive"`` / ``"batch"``) and
``mode`` (``"sync"`` waits for the result, ``"async"`` returns 202 with a
job id to poll).  Batch bodies carry a ``requests`` list sharing one
``priority`` / ``mode``.

Both routes decode each problem through the app's
:class:`~repro.serve.decode_memo.DecodeMemo` and go through
:meth:`AdvisorApp.submit_solve`, so every request gets the same
treatment: decode memo, persistent-store short-circuit, in-flight
coalescing, bounded queueing with 429 back-pressure, tenant-fair
scheduling.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from ...api.schema import SolveRequest
from ...core.errors import ClouDiAError
from ..dependencies import HttpError, Request
from ..scheduler import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    Job,
    QueueFullError,
    SchedulerClosedError,
    parse_priority,
)
from . import Route

#: Request modes.
MODE_SYNC = "sync"
MODE_ASYNC = "async"


def _parse_mode(payload: Dict) -> str:
    mode = payload.get("mode", MODE_SYNC)
    if mode not in (MODE_SYNC, MODE_ASYNC):
        raise HttpError(
            400, f"mode must be {MODE_SYNC!r} or {MODE_ASYNC!r}, "
                 f"got {mode!r}")
    return mode


def _parse_solve_request(app, payload: Dict) -> SolveRequest:
    try:
        return SolveRequest.from_dict(payload,
                                      decode_problem=app.decode_memo.decode)
    except (ClouDiAError, ValueError, TypeError, KeyError) as exc:
        raise HttpError(400, f"invalid solve request: {exc}") from None


def _submit(app, request: Request, payload: Dict,
            default_priority: int) -> Tuple[Job, str]:
    """Parse one request payload and hand it to the app's submit path."""
    try:
        priority = parse_priority(payload.get("priority"), default_priority)
    except ClouDiAError as exc:
        raise HttpError(400, str(exc)) from None
    solve_request = _parse_solve_request(app, payload)
    try:
        return app.submit_solve(solve_request, tenant=request.tenant,
                                priority=priority)
    except QueueFullError as exc:
        raise HttpError(429, str(exc)) from None
    except SchedulerClosedError as exc:
        raise HttpError(503, str(exc)) from None
    except ClouDiAError as exc:
        # Unknown solver key, malformed problem content, and the like.
        raise HttpError(400, str(exc)) from None


def _envelope(job: Job, source: str) -> Dict:
    """The per-request response body (``source`` is caller-relative)."""
    payload = job.to_dict(include_response=True)
    payload["source"] = source
    return payload


def _job_latency(job: Job) -> float:
    """End-to-end latency of one job, from its own submit time."""
    finished = job.finished_at if job.finished_at is not None else time.time()
    return max(0.0, finished - job.created_at)


def _await_job(app, job: Job, source: str, started: float,
               tenant: str) -> Tuple[int, Dict]:
    """Block for a sync request's job and build the response."""
    if not job.wait(app.config.request_timeout_s):
        return 504, {
            "error": "request timed out awaiting a worker; the job is "
                     "still running",
            "job_id": job.job_id,
            "poll": f"/v1/jobs/{job.job_id}",
        }
    app.metrics.record_served(tenant, source, time.perf_counter() - started)
    job.served_recorded = True
    body = _envelope(job, source)
    if job.error is not None:
        return 400, body
    return 200, body


def handle_solve(app, request: Request) -> Tuple[int, Dict]:
    """One solve, sync by default (``mode: "async"`` for fire-and-poll)."""
    started = time.perf_counter()
    payload = request.json_object()
    mode = _parse_mode(payload)
    job, source = _submit(app, request, payload, PRIORITY_INTERACTIVE)
    if mode == MODE_ASYNC:
        body = _envelope(job, source)
        body["poll"] = f"/v1/jobs/{job.job_id}"
        if job.done.is_set():  # store-served: the result is already there
            app.metrics.record_served(request.tenant, source,
                                      time.perf_counter() - started)
            job.served_recorded = True
        return 202, body
    return _await_job(app, job, source, started, request.tenant)


def handle_solve_batch(app, request: Request) -> Tuple[int, Dict]:
    """A list of solves sharing one priority (default: batch backfill)."""
    payload = request.json_object()
    entries = payload.get("requests")
    if not isinstance(entries, list) or not entries:
        raise HttpError(
            400, "solve-batch expects a non-empty 'requests' list")
    mode = _parse_mode(payload)
    items = []
    submitted = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise HttpError(400, "each batch entry must be a JSON object")
        merged = dict(entry)
        merged.setdefault("priority", payload.get("priority", "batch"))
        try:
            job, source = _submit(app, request, merged, PRIORITY_BATCH)
        except HttpError as exc:
            # Partial acceptance: earlier entries are already queued, so
            # report the rejection per entry instead of failing the batch.
            items.append({"status": "rejected", "error": exc.message,
                          "http_status": exc.status})
            continue
        submitted.append((job, source))
        items.append(None)  # placeholder, filled below

    if mode == MODE_ASYNC:
        cursor = iter(submitted)
        for index, item in enumerate(items):
            if item is None:
                job, source = next(cursor)
                body = _envelope(job, source)
                body["poll"] = f"/v1/jobs/{job.job_id}"
                items[index] = body
        return 202, {"items": items}

    deadline = time.monotonic() + app.config.request_timeout_s
    cursor = iter(submitted)
    any_timeout = False
    for index, item in enumerate(items):
        if item is not None:
            continue
        job, source = next(cursor)
        remaining = max(0.0, deadline - time.monotonic())
        if not job.wait(remaining):
            any_timeout = True
            items[index] = {
                "status": "pending", "job_id": job.job_id,
                "poll": f"/v1/jobs/{job.job_id}",
            }
            continue
        # Per-item latency from the item's own job, not the shared batch
        # start — the shared clock would inflate every later item.
        app.metrics.record_served(request.tenant, source, _job_latency(job))
        job.served_recorded = True
        items[index] = _envelope(job, source)
    return (504 if any_timeout else 200), {"items": items}


ROUTES = [
    Route("POST", "/v1/solve", handle_solve, "solve"),
    Route("POST", "/v1/solve-batch", handle_solve_batch, "solve-batch"),
]
