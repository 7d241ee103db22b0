"""``repro.serve`` — the multi-tenant HTTP front door of the advisor.

The paper frames ClouDiA as a deployment *advisor* applications consult;
this package is the serving layer that makes the consultation an HTTP
call.  Stdlib only (``http.server`` + ``json``), layered the way the
related serving systems are::

    http.py          transport: ThreadingHTTPServer, JSON, signals
    app.py           wiring + the submit path (store -> coalesce -> queue)
    decode_memo.py   repeated problem text is decoded once
    routes/          one thin module per endpoint family
    queries.py       read-side: solver catalog, history rendering
    dependencies.py  config, tenancy, the HttpError status mapping
    pagination.py    the shared limit/offset envelope
    scheduler.py     priorities, tenant fairness (DRR), coalescing
    workers.py       the stateless solver worker pool
    metrics.py       counters + latency percentiles for /metrics

Endpoints: ``POST /v1/solve`` (sync + async), ``POST /v1/solve-batch``,
``GET /v1/jobs/<id>``, ``GET /v1/solvers``, ``GET /v1/history`` (+
``/v1/history/<run>``), ``GET /healthz``, ``GET /metrics``.  See
``docs/SERVICE.md`` for the full contract.
"""

from .app import AdvisorApp, create_app
from .dependencies import DEFAULT_TENANT, DEFAULT_TENANT_HEADER, HttpError, \
    Request, ServeConfig
from .http import AdvisorHTTPServer, create_server, serve_until_signal
from .metrics import LatencyReservoir, ServiceMetrics
from .pagination import PageParams, paginate
from .scheduler import (
    PRIORITY_BATCH,
    PRIORITY_DRIFT,
    PRIORITY_INTERACTIVE,
    PRIORITY_LABELS,
    PRIORITY_NAMES,
    FairScheduler,
    Job,
    JobTable,
    QueueFullError,
    SchedulerClosedError,
    SchedulerStats,
    coalesce_key,
    parse_priority,
)
from .workers import WorkerPool

__all__ = [
    "AdvisorApp",
    "AdvisorHTTPServer",
    "DEFAULT_TENANT",
    "DEFAULT_TENANT_HEADER",
    "FairScheduler",
    "HttpError",
    "Job",
    "JobTable",
    "LatencyReservoir",
    "PRIORITY_BATCH",
    "PRIORITY_DRIFT",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_LABELS",
    "PRIORITY_NAMES",
    "PageParams",
    "QueueFullError",
    "Request",
    "SchedulerClosedError",
    "SchedulerStats",
    "ServeConfig",
    "ServiceMetrics",
    "WorkerPool",
    "coalesce_key",
    "create_app",
    "create_server",
    "paginate",
    "parse_priority",
    "serve_until_signal",
]
