"""Policy and telemetry types of the live re-deployment watch loop.

:meth:`repro.api.AdvisorSession.watch` replays a stream of cost revisions
against a deployed plan: every revision revises the problem, whose engine
is derived from the previous one, the incumbent plan is re-scored under
the revised costs, and a
re-solve is triggered only when the :class:`WatchPolicy` says the drift or
the incumbent's degradation warrants one.  Each step is recorded as a
:class:`WatchEvent` — including whether the engine was refreshed or
recompiled, whether the re-solve was warm or cold, and whether the result
came from the persistent cache — and the whole run is summarised by a
:class:`WatchReport`, which is also what the CLI ``watch`` command prints
and serializes as the re-deployment log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.deployment import DeploymentPlan
from ..core.problem import DeploymentProblem
from ..solvers.base import SearchBudget, SolverResult
from .schema import AUTO_SOLVER

#: Reasons a watch step re-solved (or did not).
REASON_INITIAL = "initial"
REASON_DRIFT = "drift"
REASON_DEGRADATION = "degradation"
REASON_HELD = "held"


def _finite_or_none(value: float) -> Optional[float]:
    """A float as RFC 8259 JSON can carry it: finite, or ``None``.

    The initial solve's incumbent cost is ``inf`` (no plan exists yet) and
    a zero-cost link turning non-zero drifts infinitely;
    ``json.dump(..., allow_nan=True)`` would serialize those as the bare
    token ``Infinity``, which strict parsers (jq, RFC 8259 consumers)
    reject.  ``null`` is the interchange-safe spelling of "no finite
    value"; :func:`json_to_float` inverts it.
    """
    return float(value) if math.isfinite(value) else None


def json_to_float(value: Optional[float]) -> float:
    """Invert :func:`_finite_or_none` when deserializing a log entry."""
    return float("inf") if value is None else float(value)


@dataclass(frozen=True)
class WatchPolicy:
    """When and how the watch loop re-solves.

    Attributes:
        solver: registry key of the solver re-solves run under (``"auto"``
            = the paper default for the problem's objective).
        config: solver configuration (e.g. ``{"seed": 7}``), validated by
            the registry like any other request config.
        budget: time / iteration limits per re-solve.
        drift_threshold: re-solve when a revision's largest per-link
            relative drift reaches this value, even if the incumbent's
            cost happens to survive (the critical link may simply have
            moved elsewhere).
        degradation_threshold: re-solve when the incumbent plan's cost
            under the revised matrix degrades by at least this fraction
            relative to its cost before the revision — a cheap, targeted
            trigger for drift concentrated on the links the plan actually
            uses.
        warm_start: warm-start re-solves from the incumbent plan (only
            applied to solvers whose registry spec declares
            ``supports_warm_start``); ``False`` forces cold re-solves,
            which is what the benchmark compares against.
    """

    solver: str = AUTO_SOLVER
    config: Mapping[str, Any] = field(default_factory=dict)
    budget: Optional[SearchBudget] = None
    drift_threshold: float = 0.05
    degradation_threshold: float = 0.02
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be >= 0")
        if self.degradation_threshold < 0:
            raise ValueError("degradation_threshold must be >= 0")


@dataclass(frozen=True)
class WatchEvent:
    """One step of the watch loop: a revision observed, acted on or held.

    Attributes:
        revision: 0 for the initial solve, then 1-based revision numbers.
        reason: why the step solved — ``"initial"``, ``"drift"`` or
            ``"degradation"`` — or ``"held"`` when the policy decided the
            incumbent stands.
        drift: the revision's largest per-link relative drift (0.0 for
            the initial solve).
        refresh_time_s: time spent adopting the revised costs.
        engine_refreshed: ``True`` when the revision's engine was derived
            from the previous one (:meth:`CompiledProblem.refresh_costs`);
            ``False`` when a full (re)compile was needed — the initial
            solve, or a revision finding no live engine.
        incumbent_cost: the standing plan's cost under the revised costs
            (``inf`` for the initial solve when no plan exists yet).
        resolved: whether a solver ran (or the result cache answered).
        cache_hit: whether the persistent result cache supplied the
            result instead of a solver run.
        warm_start: whether the re-solve was warm-started from the
            incumbent plan.
        solve_time_s: solver wall-clock time (0.0 on cache hits / holds).
        cost: best known cost after the step.
        redeployed: whether the step changed the recommended plan.
        solver: resolved solver registry key.
        fingerprint: fingerprint of the problem revision, the key the
            persistent cache uses.
    """

    revision: int
    reason: str
    drift: float
    refresh_time_s: float
    engine_refreshed: bool
    incumbent_cost: float
    resolved: bool
    cache_hit: bool
    warm_start: bool
    solve_time_s: float
    cost: float
    redeployed: bool
    solver: str
    fingerprint: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (one re-deployment log line).

        Strictly RFC 8259: non-finite floats (the initial solve's ``inf``
        incumbent cost, an infinite drift) are mapped to ``null`` so the
        log parses under ``allow_nan=False`` / jq / any non-Python
        consumer; :meth:`from_dict` restores them.
        """
        return {
            "revision": self.revision,
            "reason": self.reason,
            "drift": _finite_or_none(self.drift),
            "refresh_time_s": self.refresh_time_s,
            "engine_refreshed": self.engine_refreshed,
            "incumbent_cost": _finite_or_none(self.incumbent_cost),
            "resolved": self.resolved,
            "cache_hit": self.cache_hit,
            "warm_start": self.warm_start,
            "solve_time_s": self.solve_time_s,
            "cost": _finite_or_none(self.cost),
            "redeployed": self.redeployed,
            "solver": self.solver,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WatchEvent":
        """Rebuild an event from :meth:`to_dict` output (``null`` → ``inf``)."""
        return cls(
            revision=payload["revision"],
            reason=payload["reason"],
            drift=json_to_float(payload["drift"]),
            refresh_time_s=payload["refresh_time_s"],
            engine_refreshed=payload["engine_refreshed"],
            incumbent_cost=json_to_float(payload["incumbent_cost"]),
            resolved=payload["resolved"],
            cache_hit=payload["cache_hit"],
            warm_start=payload["warm_start"],
            solve_time_s=payload["solve_time_s"],
            cost=json_to_float(payload["cost"]),
            redeployed=payload["redeployed"],
            solver=payload["solver"],
            fingerprint=payload["fingerprint"],
        )


@dataclass
class WatchReport:
    """Outcome of one watch run: the final recommendation plus the log.

    Attributes:
        problem: the problem as of the last adopted revision.
        plan: the recommended deployment after the last event.
        cost: the plan's cost under the final costs.
        result: the solver result backing the current plan (from the last
            re-solve or cache hit).
        events: the full event log, in order (initial solve first).
    """

    problem: DeploymentProblem
    plan: DeploymentPlan
    cost: float
    result: Optional[SolverResult]
    events: List[WatchEvent] = field(default_factory=list)

    @property
    def resolves(self) -> int:
        """Steps that ran a solver (cache hits excluded)."""
        return sum(1 for event in self.events
                   if event.resolved and not event.cache_hit)

    @property
    def cache_hits(self) -> int:
        """Steps answered by the persistent result cache."""
        return sum(1 for event in self.events if event.cache_hit)

    @property
    def redeployments(self) -> int:
        """Steps that changed the recommended plan."""
        return sum(1 for event in self.events if event.redeployed)

    @property
    def holds(self) -> int:
        """Revisions where the incumbent plan was kept without re-solving."""
        return sum(1 for event in self.events
                   if event.reason == REASON_HELD)

    @property
    def refreshes(self) -> int:
        """Revisions adopted via in-place engine refresh (not recompile)."""
        return sum(1 for event in self.events if event.engine_refreshed)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable re-deployment log (strict RFC 8259 floats)."""
        return {
            "plan": self.plan.to_dict(),
            "cost": _finite_or_none(self.cost),
            "objective": self.problem.objective.value,
            "events": [event.to_dict() for event in self.events],
            "resolves": self.resolves,
            "cache_hits": self.cache_hits,
            "redeployments": self.redeployments,
            "holds": self.holds,
            "refreshes": self.refreshes,
        }


__all__: Tuple[str, ...] = (
    "REASON_DEGRADATION",
    "REASON_DRIFT",
    "REASON_HELD",
    "REASON_INITIAL",
    "WatchEvent",
    "WatchPolicy",
    "WatchReport",
    "json_to_float",
)
