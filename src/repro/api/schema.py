"""Serializable request / response pair of the solving service.

A :class:`SolveRequest` bundles everything one solver run needs — the
:class:`~repro.core.problem.DeploymentProblem`, the solver key (resolved
through a :class:`~repro.solvers.registry.SolverRegistry`), its typed
config, an optional :class:`~repro.solvers.base.SearchBudget` and warm
start.  A :class:`SolverResponse` carries the
:class:`~repro.solvers.base.SolverResult` back together with per-request
:class:`SolveTelemetry` (timing, compilation cache hit).

Both objects round-trip losslessly through :meth:`to_dict` /
:meth:`from_dict`, which is what lets the CLI run the whole pipeline from
JSON artifacts and lets responses be archived next to benchmark results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional

from ..core.deployment import DeploymentPlan
from ..core.errors import ClouDiAError
from ..core.problem import DeploymentProblem
from ..solvers.base import SearchBudget, SolverResult
from ..solvers.registry import SolverRegistry

#: Key requesting the paper-default solver for the problem's objective.
AUTO_SOLVER = "auto"

#: Version tag embedded in serialized requests / responses.
API_SCHEMA_VERSION = 1


def solver_tag(solver_key: str, run: Mapping[str, Any]) -> str:
    """The solver half of a coalesce or store key: ``"<key>.<digest>"``.

    ``run`` holds what else decides the solve (config, budget dict and,
    for the service, the warm-start plan).  The digest is the first 16 hex
    digits of the SHA-256 of its key-sorted JSON, so two runs share a tag
    exactly when they would execute the same solve.
    """
    payload = json.dumps(run, sort_keys=True, default=repr)
    return f"{solver_key}.{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


@dataclass(frozen=True)
class SolveRequest:
    """One solving request against the advisor service.

    Attributes:
        problem: the deployment problem to solve.
        solver: registry key of the solver to run, or ``"auto"`` for the
            paper default of the problem's objective.
        config: solver configuration (validated against the factory
            signature by the registry, e.g. ``{"seed": 7}``).
        budget: optional time / iteration limits.
        initial_plan: optional warm-start plan.
        request_id: caller-chosen identifier echoed in the response; the
            session assigns sequential ids when omitted.
    """

    problem: DeploymentProblem
    solver: str = AUTO_SOLVER
    config: Mapping[str, Any] = field(default_factory=dict)
    budget: Optional[SearchBudget] = None
    initial_plan: Optional[DeploymentPlan] = None
    request_id: Optional[str] = None

    def resolved_solver_key(self, registry: SolverRegistry) -> str:
        """The concrete registry key this request runs under.

        Raises:
            SolverError: unknown key, or a problem above the solver's
                ``max_nodes`` (see :meth:`SolverRegistry.resolve`).
        """
        return registry.resolve(self.solver, self.problem)

    def with_id(self, request_id: str) -> "SolveRequest":
        """Copy of the request with ``request_id`` set."""
        return replace(self, request_id=request_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        payload: Dict[str, Any] = {
            "version": API_SCHEMA_VERSION,
            "problem": self.problem.to_dict(),
            "solver": self.solver,
        }
        if self.config:
            payload["config"] = dict(self.config)
        if self.budget is not None:
            payload["budget"] = self.budget.to_dict()
        if self.initial_plan is not None:
            payload["initial_plan"] = self.initial_plan.to_dict()
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any],
                  decode_problem: Callable[[Any], DeploymentProblem] =
                  DeploymentProblem.from_dict) -> "SolveRequest":
        """Rebuild a request from :meth:`to_dict` output.

        ``decode_problem`` builds the problem from its payload.  The
        service passes its :class:`~repro.serve.decode_memo.DecodeMemo`,
        so a repeated problem is decoded once.
        """
        _require_mapping(payload, "solve request")
        _check_version(payload, "request")
        if "problem" not in payload:
            raise ClouDiAError("solve request payload misses 'problem'")
        solver = payload.get("solver", AUTO_SOLVER)
        if solver is not None and not isinstance(solver, str):
            raise ClouDiAError(
                f"'solver' must be a solver key string, got "
                f"{type(solver).__name__}"
            )
        budget = payload.get("budget")
        initial_plan = payload.get("initial_plan")
        return cls(
            problem=decode_problem(payload["problem"]),
            solver=solver,
            config=dict(payload.get("config", {})),
            budget=None if budget is None else SearchBudget.from_dict(budget),
            initial_plan=None if initial_plan is None
            else DeploymentPlan.from_dict(initial_plan),
            request_id=payload.get("request_id"),
        )


@dataclass(frozen=True)
class SolveTelemetry:
    """Per-request bookkeeping recorded by the advisor session.

    Attributes:
        compile_cache_hit: whether this request reused an engine: its
            problem already owned one, or the session handed it the
            engine compiled for an earlier problem with equal
            ``(graph, costs)`` content.
        compile_time_s: wall-clock time spent obtaining the compiled
            problem (≈0 on a cache hit).
        solve_time_s: the solver's own reported search time.
        total_time_s: end-to-end time the session spent on the request.
    """

    compile_cache_hit: bool = False
    compile_time_s: float = 0.0
    solve_time_s: float = 0.0
    total_time_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "compile_cache_hit": self.compile_cache_hit,
            "compile_time_s": self.compile_time_s,
            "solve_time_s": self.solve_time_s,
            "total_time_s": self.total_time_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveTelemetry":
        """Rebuild telemetry from :meth:`to_dict` output.

        Unknown keys are ignored, so telemetry written by older releases
        stays readable.
        """
        _require_mapping(payload, "solve telemetry")
        return cls(
            compile_cache_hit=payload.get("compile_cache_hit", False),
            compile_time_s=payload.get("compile_time_s", 0.0),
            solve_time_s=payload.get("solve_time_s", 0.0),
            total_time_s=payload.get("total_time_s", 0.0),
        )


@dataclass(frozen=True)
class SolverResponse:
    """Outcome of one :class:`SolveRequest`.

    ``status`` is ``"ok"`` when the solver produced a result and
    ``"error"`` when the request failed (batch sessions capture failures
    per-request instead of aborting the batch); ``error`` then holds a
    one-line diagnosis.
    """

    request_id: str
    solver: str
    status: str = "ok"
    result: Optional[SolverResult] = None
    error: Optional[str] = None
    telemetry: Optional[SolveTelemetry] = None

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return self.status == "ok"

    @property
    def plan(self):
        """Shortcut to the recommended plan (``None`` on error)."""
        return None if self.result is None else self.result.plan

    @property
    def cost(self) -> Optional[float]:
        """Shortcut to the plan cost (``None`` on error)."""
        return None if self.result is None else self.result.cost

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        payload: Dict[str, Any] = {
            "version": API_SCHEMA_VERSION,
            "request_id": self.request_id,
            "solver": self.solver,
            "status": self.status,
        }
        if self.result is not None:
            payload["result"] = self.result.to_dict()
        if self.error is not None:
            payload["error"] = self.error
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolverResponse":
        """Rebuild a response from :meth:`to_dict` output."""
        _require_mapping(payload, "solver response")
        _check_version(payload, "response")
        missing = [key for key in ("request_id", "solver", "status")
                   if key not in payload]
        if missing:
            raise ClouDiAError(f"solver response payload misses keys {missing}")
        result = payload.get("result")
        telemetry = payload.get("telemetry")
        return cls(
            request_id=payload["request_id"],
            solver=payload["solver"],
            status=payload["status"],
            result=None if result is None else SolverResult.from_dict(result),
            error=payload.get("error"),
            telemetry=None if telemetry is None
            else SolveTelemetry.from_dict(telemetry),
        )


def _require_mapping(payload: Any, kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise ClouDiAError(
            f"{kind} payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )


def _check_version(payload: Mapping[str, Any], kind: str) -> None:
    version = payload.get("version", API_SCHEMA_VERSION)
    if version != API_SCHEMA_VERSION:
        raise ClouDiAError(
            f"unsupported {kind} schema version {version!r} "
            f"(this library reads version {API_SCHEMA_VERSION})"
        )
