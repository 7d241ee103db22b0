"""Shared request-scope dependencies of the serving layer.

The route handlers stay thin because everything cross-cutting lives here:
the service configuration (:class:`ServeConfig`), the parsed request
envelope handed to every handler (:class:`Request`), tenant resolution
from the configured header, and the :class:`HttpError` type that maps
library failures onto HTTP status codes in one place instead of inside
each route.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..core.errors import ClouDiAError

#: Header carrying the tenant name; matching is case-insensitive.
DEFAULT_TENANT_HEADER = "x-tenant"

#: Tenant requests are attributed to when the header is absent.
DEFAULT_TENANT = "public"

#: Tenant names must be short and printable — they key fairness queues
#: and metrics, so an attacker-controlled header must not explode either.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class HttpError(ClouDiAError):
    """A failure with a definite HTTP status code.

    Raised by routes and dependencies; the HTTP binding serialises it as
    ``{"error": ..., "status": ...}`` with the carried status code.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one advisor service process.

    Attributes:
        workers: solver worker threads draining the shared queue.
        max_queue: bound on queued jobs; beyond it submissions get 429.
        request_timeout_s: how long a synchronous ``/v1/solve`` waits for
            its job before returning 504 (the job keeps running and stays
            pollable under its job id).
        tenant_header: HTTP header resolved into the tenant name.
        default_tenant: tenant used when the header is absent.
        tenant_weights: deficit-round-robin weights (see
            :class:`~repro.serve.scheduler.FairScheduler`).
        max_finished_jobs: bound on finished jobs kept for ``/v1/jobs``.
        max_body_bytes: bound on accepted request bodies.
        drain_timeout_s: how long a graceful shutdown waits for in-flight
            jobs before detaching the worker threads.
    """

    workers: int = 2
    max_queue: int = 256
    request_timeout_s: float = 30.0
    tenant_header: str = DEFAULT_TENANT_HEADER
    default_tenant: str = DEFAULT_TENANT
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    max_finished_jobs: int = 1024
    max_body_bytes: int = 16 * 1024 * 1024
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")


@dataclass(frozen=True)
class Request:
    """The parsed request envelope handed to route handlers."""

    method: str
    path: str
    tenant: str
    query: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, str] = field(default_factory=dict)
    body: Optional[Any] = None

    def json_object(self) -> Dict[str, Any]:
        """The body as a JSON object, or 400."""
        if not isinstance(self.body, dict):
            raise HttpError(
                400, f"{self.method} {self.path} expects a JSON object body")
        return self.body


def resolve_tenant(headers: Mapping[str, str], config: ServeConfig) -> str:
    """The tenant a request belongs to, from the configured header.

    Raises:
        HttpError: 400 on a malformed tenant name.
    """
    wanted = config.tenant_header.lower()
    for name, value in headers.items():
        if name.lower() == wanted:
            tenant = value.strip()
            if not _TENANT_RE.match(tenant):
                raise HttpError(
                    400,
                    f"invalid tenant name in {config.tenant_header!r} "
                    f"header (1-64 chars of [A-Za-z0-9._-])",
                )
            return tenant
    return config.default_tenant
