"""Serializable solving API: requests, responses and the advisor session.

This package is the service-facing layer of the library, mirroring the
paper's framing of ClouDiA as an advisor *service* (Sects. 3, 6): a tenant
submits a :class:`SolveRequest` — a serialized
:class:`~repro.core.problem.DeploymentProblem` plus a solver key and typed
config — and receives a :class:`SolverResponse` with the plan, cost and
per-request telemetry.  :class:`AdvisorSession` executes requests,
deduplicating problem compilations across a batch.

Everything round-trips through plain dictionaries / JSON, so the full
pipeline can be driven from serialized artifacts (see the CLI's ``solve``
and ``solve-batch`` commands).
"""

from .schema import AUTO_SOLVER, SolveRequest, SolverResponse, SolveTelemetry
from .session import AdvisorSession, SessionStats
from .watch import WatchEvent, WatchPolicy, WatchReport

__all__ = [
    "AUTO_SOLVER",
    "AdvisorSession",
    "SessionStats",
    "SolveRequest",
    "SolverResponse",
    "SolveTelemetry",
    "WatchEvent",
    "WatchPolicy",
    "WatchReport",
]
