"""The service's shared work queue: priorities, fairness, coalescing.

Three properties turn a plain queue into one that can sit in front of a
multi-tenant solver fleet:

* **Priority classes** — drift re-solves (a deployed plan is going stale
  *right now*) preempt interactive solves, which preempt batch backfill.
  Dequeueing always drains the most urgent non-empty class first.
* **Per-tenant fairness** — within a priority class, tenants are served by
  deficit round-robin: every pass over the active-tenant rotation grants
  each tenant its weight in credits and serves jobs while credits last, so
  a tenant flooding the queue gets throughput proportional to its weight
  instead of starving everyone behind its backlog.
* **In-flight coalescing** — jobs are keyed on the problem fingerprint
  plus a solver/config/budget tag (the same key the persistent result
  cache uses).  Submitting a job whose key is already queued or executing
  attaches the caller to the existing job instead of enqueueing a
  duplicate, so identical concurrent requests compile and solve exactly
  once and every caller receives the one shared response.

The queue is bounded: :meth:`FairScheduler.submit` raises
:class:`QueueFullError` (the HTTP layer maps it to ``429``) instead of
buffering without limit, and :class:`SchedulerClosedError` once a graceful
drain has begun (mapped to ``503``).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ..api.schema import SolveRequest, SolverResponse, solver_tag
from ..core.errors import ClouDiAError
from ..solvers.registry import SolverRegistry

#: Priority classes, most urgent first.  Lower value = served earlier.
PRIORITY_DRIFT = 0
PRIORITY_INTERACTIVE = 1
PRIORITY_BATCH = 2

#: Wire names of the priority classes (request payloads use these).
PRIORITY_NAMES: Dict[str, int] = {
    "drift": PRIORITY_DRIFT,
    "interactive": PRIORITY_INTERACTIVE,
    "batch": PRIORITY_BATCH,
}

#: Inverse of :data:`PRIORITY_NAMES`, for serialization.
PRIORITY_LABELS: Dict[int, str] = {
    value: name for name, value in PRIORITY_NAMES.items()
}

#: Job lifecycle states surfaced by ``GET /v1/jobs/<id>``.
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_ERROR = "error"


class QueueFullError(ClouDiAError):
    """Raised when the bounded work queue cannot accept another job."""


class SchedulerClosedError(ClouDiAError):
    """Raised when a job is submitted to a draining/closed scheduler."""


def parse_priority(value, default: int = PRIORITY_INTERACTIVE) -> int:
    """Map a wire priority (name or int) to a priority class.

    Raises:
        ClouDiAError: on an unknown name or out-of-range integer.
    """
    if value is None:
        return default
    if isinstance(value, str):
        try:
            return PRIORITY_NAMES[value]
        except KeyError:
            raise ClouDiAError(
                f"unknown priority {value!r}; expected one of "
                f"{', '.join(sorted(PRIORITY_NAMES))}"
            ) from None
    if isinstance(value, int) and value in PRIORITY_LABELS:
        return value
    raise ClouDiAError(f"unknown priority {value!r}")


def coalesce_key(registry: SolverRegistry, request: SolveRequest
                 ) -> Tuple[str, str]:
    """``(fingerprint, solver tag)`` identifying one unit of solving work.

    The fingerprint covers the problem content (graph, costs, objective,
    constraints); the tag is :func:`~repro.api.schema.solver_tag` over the
    resolved solver key, config, budget and warm-start plan.  It is also
    the key the service stores results under.  The watch loop's store tag
    (:meth:`AdvisorSession._solver_cache_tag`) leaves the warm-start plan
    out on purpose, because a watch's warm start changes with every
    incumbent.
    """
    solver_key = request.resolved_solver_key(registry)
    return request.problem.fingerprint(), solver_tag(
        solver_key,
        {
            "config": dict(request.config),
            "budget": None if request.budget is None
            else request.budget.to_dict(),
            "initial_plan": None if request.initial_plan is None
            else request.initial_plan.to_dict(),
        },
    )


@dataclass
class Job:
    """One queued unit of solving work and its shared outcome.

    A job is created per *distinct* solve; coalesced submissions share the
    same object, wait on the same :class:`threading.Event`, and read the
    same response.  ``source`` records how the response was produced —
    ``"solver"`` for a worker-executed solve, ``"store"`` for a submit-time
    persistent-cache hit (those jobs never enter the queue).

    ``request`` is dropped (set to ``None``) when the job enters the
    :class:`JobTable`'s finished LRU: polling reads only the response,
    fingerprint and tag, and a kept request would pin its decoded problem
    and that problem's engine for as long as the job is retained.
    """

    job_id: str
    tenant: str
    priority: int
    request: Optional[SolveRequest]
    fingerprint: str
    cache_tag: str
    created_at: float = field(default_factory=time.time)
    status: str = STATUS_QUEUED
    source: str = "solver"
    response: Optional[SolverResponse] = None
    error: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Submissions answered by this job (1 = no coalescing happened).
    attached: int = 1
    #: Whether a served/latency metric was recorded for this job on the
    #: poll path (``GET /v1/jobs``), so repeat polls don't double-count.
    served_recorded: bool = False
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def key(self) -> Tuple[str, str]:
        """The coalescing key: ``(fingerprint, solver tag)``."""
        return self.fingerprint, self.cache_tag

    def finish(self, response: Optional[SolverResponse] = None,
               error: Optional[str] = None) -> None:
        """Publish the outcome and wake every waiter (idempotent)."""
        if self.done.is_set():
            return
        self.response = response
        self.error = error
        self.status = STATUS_ERROR if error is not None else STATUS_DONE
        self.finished_at = time.time()
        self.done.set()

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until the job finishes; ``False`` on timeout."""
        return self.done.wait(timeout)

    def to_dict(self, include_response: bool = True) -> Dict:
        """JSON-serializable job status (the ``/v1/jobs/<id>`` body)."""
        payload: Dict = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": PRIORITY_LABELS[self.priority],
            "status": self.status,
            "source": self.source,
            "attached": self.attached,
            "fingerprint": self.fingerprint,
            "solver_tag": self.cache_tag,
        }
        if self.error is not None:
            payload["error"] = self.error
        if include_response and self.response is not None:
            payload["response"] = self.response.to_dict()
        return payload


@dataclass(frozen=True)
class SchedulerStats:
    """Counters of one :class:`FairScheduler`."""

    submitted: int = 0
    coalesced: int = 0
    dequeued: int = 0
    rejected: int = 0
    depths: Mapping[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-serializable snapshot."""
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "dequeued": self.dequeued,
            "rejected": self.rejected,
            "depths": dict(self.depths),
        }


class FairScheduler:
    """Bounded, prioritised, tenant-fair, deduplicating work queue.

    Args:
        max_queue: bound on the number of *queued* jobs (executing jobs do
            not count); submissions beyond it raise :class:`QueueFullError`.
        tenant_weights: deficit-round-robin weight per tenant name; a
            tenant absent from the mapping gets ``default_weight``.  A
            tenant with weight 2 is served twice as often as a weight-1
            tenant when both have backlog.
        default_weight: weight of tenants without an explicit entry.
    """

    def __init__(self, max_queue: int = 256,
                 tenant_weights: Optional[Mapping[str, float]] = None,
                 default_weight: float = 1.0):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if default_weight <= 0:
            raise ValueError("default_weight must be > 0")
        for tenant, weight in (tenant_weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight for {tenant!r} must be > 0")
        self.max_queue = max_queue
        self.tenant_weights = dict(tenant_weights or {})
        self.default_weight = default_weight
        self._cond = threading.Condition()
        self._queues: Dict[int, Dict[str, Deque[Job]]] = {
            priority: {} for priority in PRIORITY_LABELS
        }
        #: Active-tenant rotation per priority class (insertion order).
        self._rotations: Dict[int, List[str]] = {
            priority: [] for priority in PRIORITY_LABELS
        }
        self._cursors: Dict[int, int] = dict.fromkeys(PRIORITY_LABELS, 0)
        self._deficits: Dict[Tuple[int, str], float] = {}
        #: Slot the cursor is parked on mid-service (quantum already
        #: granted this visit), per priority class.
        self._parked: Dict[int, Optional[Tuple[int, str]]] = \
            dict.fromkeys(PRIORITY_LABELS)
        #: Jobs queued or executing, by coalescing key.
        self._inflight: Dict[Tuple[str, str], Job] = {}
        self._queued = 0
        self._closed = False
        self._submitted = 0
        self._coalesced = 0
        self._dequeued = 0
        self._rejected = 0
        self._ids = itertools.count()
        self._id_prefix = uuid.uuid4().hex[:8]

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def new_job_id(self) -> str:
        """A process-unique job identifier."""
        with self._cond:
            return f"job-{self._id_prefix}-{next(self._ids):06d}"

    def submit(self, job: Job) -> Tuple[Job, bool]:
        """Enqueue ``job``, or attach it to an identical in-flight job.

        Returns:
            ``(effective_job, coalesced)`` — when ``coalesced`` is true the
            caller should wait on the returned (pre-existing) job instead
            of the one it built.

        Raises:
            SchedulerClosedError: the scheduler is draining or closed.
            QueueFullError: the queue bound is reached (the submission is
                counted in ``rejected``).
        """
        with self._cond:
            if self._closed:
                raise SchedulerClosedError(
                    "scheduler is draining; not accepting new work")
            existing = self._inflight.get(job.key)
            if existing is not None:
                existing.attached += 1
                self._coalesced += 1
                self._submitted += 1
                if job.priority < existing.priority:
                    # A more urgent twin arrived: re-file the queued job
                    # under the urgent class, else a drift re-solve would
                    # wait at batch priority — inversion for exactly the
                    # requests the classes exist to expedite.
                    self._promote_locked(existing, job.priority)
                return existing, True
            if self._queued >= self.max_queue:
                self._rejected += 1
                raise QueueFullError(
                    f"work queue is full ({self.max_queue} jobs queued); "
                    f"retry later"
                )
            self._submitted += 1
            self._queued += 1
            tenants = self._queues[job.priority]
            queue = tenants.get(job.tenant)
            if queue is None:
                queue = tenants[job.tenant] = deque()
                self._rotations[job.priority].append(job.tenant)
            queue.append(job)
            self._inflight[job.key] = job
            self._cond.notify()
            return job, False

    def _promote_locked(self, job: Job, priority: int) -> None:
        """Move a still-queued job into a more urgent priority class.

        A no-op when the job has already been dequeued (running jobs
        cannot be expedited).  Caller holds the lock.
        """
        tenants = self._queues[job.priority]
        queue = tenants.get(job.tenant)
        if queue is None:
            return
        for position, entry in enumerate(queue):
            if entry is job:
                del queue[position]
                break
        else:
            return
        if not queue:
            # Replicate _pick_locked's drained-tenant cleanup.
            del tenants[job.tenant]
            rotation = self._rotations[job.priority]
            index = rotation.index(job.tenant)
            rotation.pop(index)
            slot = (job.priority, job.tenant)
            self._deficits.pop(slot, None)
            if self._parked.get(job.priority) == slot:
                self._parked[job.priority] = None
            if self._cursors[job.priority] > index:
                self._cursors[job.priority] -= 1
        job.priority = priority
        target = self._queues[priority]
        queue = target.get(job.tenant)
        if queue is None:
            queue = target[job.tenant] = deque()
            self._rotations[priority].append(job.tenant)
        queue.append(job)

    # ------------------------------------------------------------------ #
    # Consumer side (worker pool)
    # ------------------------------------------------------------------ #

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the next job by priority then tenant fairness.

        Blocks up to ``timeout`` seconds (forever when ``None``) for work;
        returns ``None`` on timeout or once the scheduler is closed and
        drained — the worker-pool exit signal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._queued:
                    job = self._pick_locked()
                    self._dequeued += 1
                    job.status = STATUS_RUNNING
                    job.started_at = time.time()
                    return job
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def _pick_locked(self) -> Job:
        """Deficit round-robin pick; caller holds the lock, queue non-empty."""
        for priority in sorted(PRIORITY_LABELS):
            rotation = self._rotations[priority]
            if not rotation:
                continue
            tenants = self._queues[priority]
            # Each full pass grants every active tenant its weight in
            # credits, so a job is found within ceil(1/min_weight) passes.
            while True:
                index = self._cursors[priority] % len(rotation)
                tenant = rotation[index]
                slot = (priority, tenant)
                if self._parked.get(priority) == slot:
                    # Mid-service: the quantum was granted when the cursor
                    # arrived; only the stored residual applies.
                    credit = self._deficits.get(slot, 0.0)
                else:
                    weight = self.tenant_weights.get(
                        tenant, self.default_weight)
                    credit = self._deficits.get(slot, 0.0) + weight
                    self._parked[priority] = slot
                if credit < 1.0:
                    self._deficits[slot] = credit
                    self._cursors[priority] = index + 1
                    self._parked[priority] = None
                    continue
                queue = tenants[tenant]
                job = queue.popleft()
                self._queued -= 1
                credit -= 1.0
                if not queue:
                    # Tenant drained: leave the rotation, drop residual
                    # credit (classic DRR — credit does not accrue while
                    # idle, so a returning tenant cannot burst).
                    del tenants[tenant]
                    rotation.pop(index)
                    self._deficits.pop(slot, None)
                    self._cursors[priority] = index
                    self._parked[priority] = None
                elif credit < 1.0:
                    self._deficits[slot] = credit
                    self._cursors[priority] = index + 1
                    self._parked[priority] = None
                else:
                    self._deficits[slot] = credit
                return job
        raise AssertionError("queue count positive but no job found")

    def complete(self, job: Job) -> None:
        """Retire a finished job from the in-flight coalescing map.

        Call *after* :meth:`Job.finish`: late identical submissions then
        either attach to the finished job (result immediately available)
        or, once retired, go through the persistent store instead.
        """
        with self._cond:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    # ------------------------------------------------------------------ #
    # Lifecycle and introspection
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop accepting work; queued jobs still drain through workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether a drain has begun."""
        with self._cond:
            return self._closed

    def depth(self) -> int:
        """Total queued (not yet dequeued) jobs."""
        with self._cond:
            return self._queued

    @property
    def stats(self) -> SchedulerStats:
        """Counters plus current per-priority queue depths."""
        with self._cond:
            depths = {
                PRIORITY_LABELS[priority]: sum(
                    len(queue) for queue in self._queues[priority].values())
                for priority in sorted(PRIORITY_LABELS)
            }
            return SchedulerStats(
                submitted=self._submitted, coalesced=self._coalesced,
                dequeued=self._dequeued, rejected=self._rejected,
                depths=depths,
            )


class JobTable:
    """Bounded registry of jobs for ``GET /v1/jobs/<id>``.

    Active (queued/running) jobs are always retained; finished jobs are
    kept in a bounded LRU so a long-lived server does not accumulate one
    entry per request forever.  A finished job evicted from the table
    simply answers 404 — its result lives on in the persistent store.
    A job entering the LRU drops its request, so retained jobs hold their
    responses but no decoded problem or engine.
    """

    def __init__(self, max_finished: int = 1024):
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        self.max_finished = max_finished
        self._lock = threading.Lock()
        self._active: Dict[str, Job] = {}
        self._finished: "OrderedDict[str, Job]" = OrderedDict()

    def add(self, job: Job) -> None:
        """Track a job (in whatever state it currently is)."""
        with self._lock:
            if job.done.is_set():
                self._finish_locked(job)
            else:
                self._active[job.job_id] = job

    def retire(self, job: Job) -> None:
        """Move a finished job from the active set into the bounded LRU."""
        with self._lock:
            self._active.pop(job.job_id, None)
            self._finish_locked(job)

    def get(self, job_id: str) -> Optional[Job]:
        """The job registered under ``job_id``, or ``None``."""
        with self._lock:
            job = self._active.get(job_id)
            if job is None:
                job = self._finished.get(job_id)
                if job is not None:
                    self._finished.move_to_end(job_id)
            return job

    def _finish_locked(self, job: Job) -> None:
        job.request = None
        self._finished[job.job_id] = job
        while len(self._finished) > self.max_finished:
            self._finished.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._active) + len(self._finished)
