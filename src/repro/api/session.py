"""The batch advisor session: execute solve requests with shared state.

:class:`AdvisorSession` is the long-lived, multi-request counterpart of the
one-shot :class:`~repro.core.advisor.ClouDiA` pipeline.  It adds three
things the paper's service framing needs at scale:

* **Compilation deduplication** — a problem owns its engine
  (:meth:`~repro.core.problem.DeploymentProblem.compiled`), so requests
  that pass the same problem object share it without further work; a
  problem that has no engine yet is keyed by the content hash of its
  ``(graph, costs)`` pair
  (:meth:`~repro.core.problem.DeploymentProblem.instance_key`) and handed
  the engine of an earlier problem with equal content, so requests
  deserialized from separate JSON documents — different solvers,
  objectives or budgets over one instance — lower it exactly once.
* **Batches** — :meth:`AdvisorSession.solve_many` runs independent
  requests one after another, compiling each distinct instance once and
  capturing failures per request.  The service's worker pool runs several
  threads against one session; engines are compiled under the session
  lock, so equal content still compiles once.
* **Telemetry** — every response carries per-request
  :class:`~repro.api.schema.SolveTelemetry` (compile cache hit, compile /
  solve / total time), and the session aggregates :class:`SessionStats` so
  a server can export hit rates.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..core.cost_matrix import CostMatrix
from ..core.errors import ClouDiAError, InvalidDeploymentError, StoreError
from ..core.evaluation import CompiledProblem, ParallelStats, parallel_stats
from ..core.deployment import DeploymentPlan
from ..core.problem import DeploymentProblem
from ..netmeasure.stream import CostRevision, relative_link_drift
from ..solvers.base import SolverResult
from ..solvers.registry import SolverRegistry, default_registry
from .schema import (
    SolveRequest,
    SolverResponse,
    SolveTelemetry,
    solver_tag,
)
from .watch import (
    REASON_DEGRADATION,
    REASON_DRIFT,
    REASON_HELD,
    REASON_INITIAL,
    WatchEvent,
    WatchPolicy,
    WatchReport,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from ..store import SQLiteResultCache

#: Bound on the engines a session keeps by instance content hash.  Past
#: it the least recently used engine is dropped from the cache (problems
#: that own it keep it); a later problem with that content recompiles.
ENGINE_CACHE_ENTRIES = 128


@dataclass(frozen=True)
class CompileCacheStats:
    """Counters of a session's engine cache (keyed by instance content)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int = ENGINE_CACHE_ENTRIES

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (consumed by telemetry exporters)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class SessionStats:
    """Aggregate counters of one advisor session."""

    #: Requests executed (successful or failed).
    requests: int = 0
    #: Distinct ``(graph, costs)`` pairs compiled by this session.
    compilations: int = 0
    #: Requests whose problem already owned an engine or was handed one
    #: compiled for equal content.
    compile_cache_hits: int = 0
    #: Cost revisions adopted during :meth:`AdvisorSession.watch` through
    #: an engine derived from the previous one (the graph-side lowering
    #: was reused).
    cost_refreshes: int = 0
    #: Cost revisions that needed a full recompile (no live engine).
    cost_recompiles: int = 0
    #: Watch steps that ran a solver (initial solves and re-solves).
    watch_resolves: int = 0
    #: Watch steps answered by the persistent result cache.
    result_cache_hits: int = 0
    #: Counters of the session's engine cache, keyed by instance content:
    #: a lookup happens only for a problem that owns no engine yet.
    engine_cache: CompileCacheStats = field(default_factory=CompileCacheStats)
    #: Process-wide incremental-evaluator counters — peeks, commits and
    #: ``peek_many`` batches (see :func:`repro.core.parallel_stats`).
    parallel: ParallelStats = field(default_factory=ParallelStats)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests that reused an engine."""
        total = self.compilations + self.compile_cache_hits
        return self.compile_cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every counter.

        The supported way for telemetry exporters (the service's
        ``/metrics`` route, log shippers) to serialise session state —
        including the nested ``engine_cache`` counters — without reaching
        into private attributes.
        """
        return {
            "requests": self.requests,
            "compilations": self.compilations,
            "compile_cache_hits": self.compile_cache_hits,
            "compile_hit_rate": self.hit_rate,
            "cost_refreshes": self.cost_refreshes,
            "cost_recompiles": self.cost_recompiles,
            "watch_resolves": self.watch_resolves,
            "result_cache_hits": self.result_cache_hits,
            "engine_cache": self.engine_cache.to_dict(),
            # Evaluation is serial; the two pool-call keys stay (always 0)
            # so existing readers of this snapshot keep working.
            "parallel": dict(self.parallel.to_dict(),
                             thread_parallel_calls=0,
                             process_parallel_calls=0),
        }


class AdvisorSession:
    """Executes :class:`~repro.api.schema.SolveRequest` batches.

    Args:
        registry: solver registry to resolve solver keys through; defaults
            to the process-wide :data:`~repro.solvers.registry.default_registry`.
        result_cache: optional durable
            :class:`~repro.store.SQLiteResultCache`.  Used by :meth:`watch`
            to skip re-solving revisions this or any sibling process
            already solved — entries are keyed on the problem fingerprint
            plus solver key, so restarted sessions resume where they left
            off.  The store also receives the watch history and the
            telemetry of every executed request.
    """

    def __init__(self, registry: Optional[SolverRegistry] = None,
                 result_cache: Optional["SQLiteResultCache"] = None):
        self.registry = registry if registry is not None else default_registry
        self.result_cache = result_cache
        self._lock = threading.Lock()
        #: Engines by instance content hash, in LRU order, bounded by
        #: ENGINE_CACHE_ENTRIES.
        self._engines: "OrderedDict[str, CompiledProblem]" = OrderedDict()
        self._engine_hits = 0
        self._evictions = 0
        self._requests = 0
        self._compilations = 0
        self._cache_hits = 0
        self._cost_refreshes = 0
        self._cost_recompiles = 0
        self._watch_resolves = 0
        self._result_cache_hits = 0

    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> SessionStats:
        """Aggregate counters since the session was created.

        ``engine_cache`` reports the session's engine cache (content
        lookups, evictions, current size), bounded so a long-lived serving
        session cannot keep one engine per instance it ever saw.
        """
        with self._lock:
            return SessionStats(
                requests=self._requests,
                compilations=self._compilations,
                compile_cache_hits=self._cache_hits,
                cost_refreshes=self._cost_refreshes,
                cost_recompiles=self._cost_recompiles,
                watch_resolves=self._watch_resolves,
                result_cache_hits=self._result_cache_hits,
                engine_cache=CompileCacheStats(
                    hits=self._engine_hits, misses=self._compilations,
                    evictions=self._evictions, size=len(self._engines),
                    max_entries=ENGINE_CACHE_ENTRIES),
                parallel=parallel_stats(),
            )

    def prepare(self, problem: DeploymentProblem) -> Tuple[bool, float]:
        """Make sure ``problem`` owns an engine, compiling at most once.

        A problem that already owns an engine is a hit and is not hashed.
        Any other problem is keyed by its
        :meth:`~repro.core.problem.DeploymentProblem.instance_key` and
        handed the engine cached for that content, or compiles one under
        the session lock (a compile takes milliseconds, so one lock is
        enough to build each distinct instance once across the service's
        worker threads).

        Returns:
            ``(cache_hit, compile_time_s)``.
        """
        if problem.engine is not None:
            with self._lock:
                self._cache_hits += 1
            return True, 0.0
        key = problem.instance_key()
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                self._engine_hits += 1
                self._cache_hits += 1
                problem.adopt_engine(engine)
                return True, 0.0
            started = time.perf_counter()
            self._engines[key] = problem.compiled()
            compile_time = time.perf_counter() - started
            self._compilations += 1
            if len(self._engines) > ENGINE_CACHE_ENTRIES:
                self._engines.popitem(last=False)
                self._evictions += 1
        return False, compile_time

    def clear_cache(self) -> None:
        """Drop every engine the session's content cache holds.

        Problems that own an engine keep it; a new problem with the same
        content compiles again.
        """
        with self._lock:
            self._engines.clear()

    # ------------------------------------------------------------------ #

    def solve(self, request: SolveRequest) -> SolverResponse:
        """Execute one request; solver errors propagate to the caller."""
        request = self._with_assigned_id(request)
        prepared = self.prepare(request.problem)
        return self._execute(request, prepared, capture_errors=False)

    def solve_many(self, requests: Iterable[SolveRequest]
                   ) -> List[SolverResponse]:
        """Execute a batch of independent requests, in order.

        Every problem is given its engine up front, then each request is
        solved in turn, so every request gets its whole wall-clock budget.
        Each distinct ``(graph, costs)`` pair is compiled once within the
        batch: a problem whose content an earlier request of the batch
        compiled takes that engine even if the session cache has evicted
        it since.  Failures, including an engine that cannot be built,
        are captured per request as ``"error"`` responses instead of
        aborting the batch, and response order matches request order.
        """
        batch: List[SolveRequest] = [
            self._with_assigned_id(request) for request in requests
        ]
        batch_engines: Dict[str, CompiledProblem] = {}
        prepared: List[Union[Tuple[bool, float], Exception]] = []
        for request in batch:
            problem = request.problem
            try:
                key = None if problem.engine is not None \
                    else problem.instance_key()
                if key in batch_engines:
                    problem.adopt_engine(batch_engines[key])
                prepared.append(self.prepare(problem))
                if key is not None:
                    batch_engines[key] = problem.engine
            except (ClouDiAError, ValueError, TypeError) as exc:
                prepared.append(exc)
        return [
            self._execute(request, prep, capture_errors=True)
            for request, prep in zip(batch, prepared)
        ]

    # ------------------------------------------------------------------ #
    # Live re-deployment
    # ------------------------------------------------------------------ #

    def watch(self, problem: DeploymentProblem,
              revisions: Iterable[Union[CostRevision, CostMatrix]],
              policy: Optional[WatchPolicy] = None,
              initial_plan: Optional[DeploymentPlan] = None) -> WatchReport:
        """Track a stream of cost revisions, re-solving only when it pays.

        The live re-deployment loop: ``problem`` is solved once (warm from
        ``initial_plan`` when given), then every revision — a
        :class:`~repro.netmeasure.CostRevision` from a
        :class:`~repro.netmeasure.MeasurementStream`, or a bare
        :class:`~repro.core.CostMatrix` — is adopted by *revising* the
        problem, whose engine is derived from the previous one (the
        graph-side lowering and compiled constraints are reused; only the
        dense cost array is new), the incumbent plan is re-scored under
        the revised costs, and a re-solve runs only when the policy's
        drift or degradation threshold is exceeded.  Re-solves are
        warm-started from the incumbent (for solvers that support it) and
        short-circuited by the session's persistent result cache, so a
        restarted watch — or a sibling process — skips revisions that
        were already solved.

        Args:
            problem: the deployment problem as last solved/deployed.
            revisions: cost revisions in arrival order.
            policy: re-solve policy; defaults to :class:`WatchPolicy`.
            initial_plan: the currently deployed plan, when one exists;
                it seeds the initial solve.

        Returns:
            A :class:`WatchReport` with the final recommendation and the
            full per-revision event log.
        """
        policy = policy if policy is not None else WatchPolicy()
        solver_key = self.registry.resolve(policy.solver, problem)
        warm_capable = self.registry.spec(solver_key).supports_warm_start
        events: List[WatchEvent] = []
        #: The fingerprint the run is keyed on in durable watch history
        #: (each adopted revision gets its own, recorded per event).
        root_fingerprint = problem.fingerprint()

        # Initial solve: establish the incumbent (never a "hold").  The
        # engine comes from the session's content cache, and a compiled
        # one enters it, so a later request for the same content hits.
        compile_started = time.perf_counter()
        self.prepare(problem)
        refresh_time = time.perf_counter() - compile_started
        incumbent_cost = (problem.evaluate(initial_plan)
                          if initial_plan is not None else float("inf"))
        plan, cost, result, event = self._watch_step(
            problem, solver_key, policy, warm_capable,
            warm_plan=initial_plan, revision=0, reason=REASON_INITIAL,
            drift=0.0, refresh_time_s=refresh_time, engine_refreshed=False,
            incumbent_plan=initial_plan, incumbent_cost=incumbent_cost,
        )
        events.append(event)

        for number, item in enumerate(revisions, start=1):
            costs = item.costs if isinstance(item, CostRevision) else item
            if costs.instance_ids != problem.costs.instance_ids:
                # A changed instance pool is a re-allocation, not a cost
                # drift: the incumbent plan may not even map onto it.
                raise ClouDiAError(
                    f"cost revision {number} covers a different instance "
                    f"set; watch() tracks cost drift over a fixed "
                    f"allocation — construct a new DeploymentProblem for "
                    f"a re-allocation"
                )
            if isinstance(item, CostRevision):
                drift = item.max_drift
            else:
                drift = float(relative_link_drift(problem.costs, costs).max())
            refresh_started = time.perf_counter()
            # Same instances (guaranteed above, and by construction for
            # stream revisions), so revise() derives the revised engine
            # whenever the problem owns one — the condition revise uses.
            refreshable = problem.engine is not None
            problem = problem.revise(costs=costs)
            incumbent_cost = problem.evaluate(plan)  # compiles if needed
            refresh_time = time.perf_counter() - refresh_started
            with self._lock:
                if refreshable:
                    self._cost_refreshes += 1
                else:
                    self._cost_recompiles += 1

            degradation = ((incumbent_cost - cost) / cost if cost > 0
                           else float("inf") if incumbent_cost > cost
                           else 0.0)
            if drift >= policy.drift_threshold:
                reason = REASON_DRIFT
            elif degradation >= policy.degradation_threshold:
                reason = REASON_DEGRADATION
            else:
                reason = REASON_HELD

            if reason == REASON_HELD:
                cost = incumbent_cost
                events.append(WatchEvent(
                    revision=number, reason=REASON_HELD, drift=drift,
                    refresh_time_s=refresh_time,
                    engine_refreshed=refreshable,
                    incumbent_cost=incumbent_cost, resolved=False,
                    cache_hit=False, warm_start=False, solve_time_s=0.0,
                    cost=cost, redeployed=False, solver=solver_key,
                    fingerprint=problem.fingerprint(),
                ))
                continue

            plan, cost, result, event = self._watch_step(
                problem, solver_key, policy, warm_capable, warm_plan=plan,
                revision=number, reason=reason, drift=drift,
                refresh_time_s=refresh_time, engine_refreshed=refreshable,
                incumbent_plan=plan, incumbent_cost=incumbent_cost,
            )
            events.append(event)

        report = WatchReport(problem=problem, plan=plan, cost=cost,
                             result=result, events=events)
        # The store keeps the re-deployment log durable: the events become
        # queryable history rows, not just this report.  Best effort, like
        # every store write: a failed write must not lose the report.
        if self.result_cache is not None:
            try:
                self.result_cache.history.record_report(
                    report, solver=solver_key,
                    root_fingerprint=root_fingerprint)
            except StoreError:
                pass
        return report

    def _watch_step(self, problem: DeploymentProblem, solver_key: str,
                    policy: WatchPolicy, warm_capable: bool,
                    warm_plan: Optional[DeploymentPlan], revision: int,
                    reason: str, drift: float, refresh_time_s: float,
                    engine_refreshed: bool,
                    incumbent_plan: Optional[DeploymentPlan],
                    incumbent_cost: float
                    ) -> Tuple[DeploymentPlan, float,
                               Optional[SolverResult], WatchEvent]:
        """Solve one watch step (cache first), keeping the better incumbent."""
        fingerprint = problem.fingerprint()
        cache_tag = self._solver_cache_tag(solver_key, policy)
        warm = policy.warm_start and warm_capable and warm_plan is not None
        cached = self.cached_result(problem, fingerprint, cache_tag)
        if cached is not None:
            result, solve_time, cache_hit = cached, 0.0, True
            candidate_cost = problem.evaluate(result.plan)
            with self._lock:
                self._result_cache_hits += 1
        else:
            request = SolveRequest(
                problem=problem, solver=solver_key,
                config=policy.config, budget=policy.budget,
                initial_plan=warm_plan if warm else None,
            )
            response = self.solve(request)
            result = response.result
            solve_time = result.solve_time_s
            cache_hit = False
            candidate_cost = result.cost
            with self._lock:
                self._watch_resolves += 1
            self.write_back(problem, fingerprint, cache_tag, result)

        # Keep the incumbent when the step did not strictly improve on it
        # (a cold or cached plan may be worse than the plan in production).
        if incumbent_plan is not None and incumbent_cost <= candidate_cost:
            plan, cost, redeployed = incumbent_plan, incumbent_cost, False
        else:
            plan, cost = result.plan, candidate_cost
            redeployed = (incumbent_plan is not None
                          and plan.as_dict() != incumbent_plan.as_dict())
        event = WatchEvent(
            revision=revision, reason=reason, drift=drift,
            refresh_time_s=refresh_time_s, engine_refreshed=engine_refreshed,
            incumbent_cost=incumbent_cost, resolved=True,
            cache_hit=cache_hit, warm_start=warm and not cache_hit,
            solve_time_s=solve_time, cost=cost, redeployed=redeployed,
            solver=solver_key, fingerprint=fingerprint,
        )
        return plan, cost, result, event

    @staticmethod
    def _solver_cache_tag(solver_key: str, policy: WatchPolicy) -> str:
        """The solver component of the persistent cache key.

        The problem fingerprint covers everything solver-independent; this
        tag covers the run configuration — solver key plus the policy's
        solver config (seed included) and budget — so watches sharing a
        store only reuse each other's results when they would have
        executed the same solve.  Unlike the service's coalesce key it
        leaves the warm-start plan out: a watch warm-starts from its
        incumbent, which changes with every step.
        """
        return solver_tag(solver_key, {
            "config": dict(policy.config),
            "budget": None if policy.budget is None
            else policy.budget.to_dict(),
        })

    def write_back(self, problem: DeploymentProblem, fingerprint: str,
                   cache_tag: str, result: SolverResult) -> None:
        """Best-effort write of a solved result into the store.

        The store accelerates later requests; a failed write (lock
        timeout, full disk) must not fail the solve that produced the
        result.  Used by :meth:`watch` and by the service's worker pool.
        """
        if self.result_cache is None:
            return
        try:
            self.result_cache.record_problem(problem)
            self.result_cache.put(fingerprint, cache_tag, result)
        except StoreError:
            pass

    def cached_result(self, problem: DeploymentProblem, fingerprint: str,
                      cache_tag: str) -> Optional[SolverResult]:
        """A stored result whose plan is valid for ``problem``, or ``None``.

        The one store read of :meth:`watch` and of the service's submit
        path.
        """
        if self.result_cache is None:
            return None
        result = self.result_cache.get(fingerprint, cache_tag)
        if result is None:
            return None
        try:
            problem.check_plan(result.plan)
        except InvalidDeploymentError:
            # A corrupt or foreign entry must degrade to a miss, never
            # into recommending an infeasible plan.
            return None
        return result

    # ------------------------------------------------------------------ #

    def _with_assigned_id(self, request: SolveRequest) -> SolveRequest:
        with self._lock:
            sequence = self._requests
            self._requests += 1
        if request.request_id is not None:
            return request
        return request.with_id(f"req-{sequence:04d}")

    def _execute(self, request: SolveRequest,
                 prepared: Union[Tuple[bool, float], Exception],
                 capture_errors: bool) -> SolverResponse:
        """Solve one request whose problem :meth:`prepare` has handled.

        ``prepared`` is what :meth:`prepare` returned, or the error it
        raised, which becomes an error response when errors are captured.
        """
        problem = request.problem
        started = time.perf_counter()
        solver_key = request.solver
        cache_hit, compile_time = False, 0.0
        try:
            if isinstance(prepared, Exception):
                raise prepared
            cache_hit, compile_time = prepared
            solver_key = request.resolved_solver_key(self.registry)
            solver = self.registry.make(solver_key, **dict(request.config))
            result = solver.solve(problem, budget=request.budget,
                                  initial_plan=request.initial_plan)
            telemetry = SolveTelemetry(
                compile_cache_hit=cache_hit,
                compile_time_s=compile_time,
                solve_time_s=result.solve_time_s,
                total_time_s=compile_time + time.perf_counter() - started,
            )
            response = SolverResponse(
                request_id=request.request_id, solver=solver_key,
                status="ok", result=result, telemetry=telemetry,
            )
        except (ClouDiAError, ValueError, TypeError) as exc:
            if not capture_errors:
                raise
            telemetry = SolveTelemetry(
                compile_cache_hit=cache_hit,
                compile_time_s=compile_time,
                total_time_s=compile_time + time.perf_counter() - started,
            )
            response = SolverResponse(
                request_id=request.request_id, solver=solver_key,
                status="error", error=f"{type(exc).__name__}: {exc}",
                telemetry=telemetry,
            )
        self._record_telemetry(problem, response)
        return response

    def _record_telemetry(self, problem: DeploymentProblem,
                          response: SolverResponse) -> None:
        """Append the response to the store's telemetry stream.

        Best effort: telemetry is observability, so a store failure (lock
        timeout, full disk) must not fail the solve that produced the
        response.
        """
        if self.result_cache is None:
            return
        try:
            self.result_cache.record_telemetry(problem.fingerprint(), response)
        except StoreError:
            pass

