"""The worker pool: stateless threads draining the fair scheduler.

Each worker loops on :meth:`FairScheduler.next_job`, executes the job
through the shared :class:`~repro.api.AdvisorSession` (which deduplicates
compilations across workers), persists the result into the durable store,
and publishes the response on the job — waking every coalesced waiter at
once.  Workers hold no per-request state of their own; everything durable
lives in the store and everything shared lives in the session, which is
what lets the pool be sized freely and lets siblings of a restarted
server pick up where it left off.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import List, Optional

from ..api.session import AdvisorSession
from .metrics import ServiceMetrics
from .scheduler import FairScheduler, Job, JobTable

#: How long an idle worker blocks per wait; short enough that a drain
#: request is noticed promptly even without a wakeup.
_IDLE_WAIT_S = 0.25


class WorkerPool:
    """Threads executing scheduler jobs through one advisor session.

    Args:
        scheduler: the shared fair queue to drain.
        session: the advisor session requests run through; its store (when
            it has one) also receives every solved result.
        metrics: service counters (solver invocations, errors).
        workers: number of worker threads.
        jobs: the job table finished jobs are retired into, moving them
            from the always-retained active set to the bounded LRU so a
            long-lived server's memory stays bounded.
    """

    def __init__(self, scheduler: FairScheduler, session: AdvisorSession,
                 metrics: ServiceMetrics, workers: int = 2,
                 jobs: Optional[JobTable] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.scheduler = scheduler
        self.session = session
        self.metrics = metrics
        self.jobs = jobs
        self.num_workers = workers
        self._threads: List[threading.Thread] = []
        self._started = False

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"advisor-worker-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _run(self) -> None:
        while True:
            job = self.scheduler.next_job(timeout=_IDLE_WAIT_S)
            if job is None:
                if self.scheduler.closed:
                    return
                continue
            try:
                self.execute(job)
            except Exception:  # noqa: BLE001 - the pool must not shrink
                # The job already finished with the error (waiters woke);
                # swallowing here keeps the worker alive so one bad
                # request cannot permanently shrink the pool.
                traceback.print_exc(file=sys.stderr)

    def execute(self, job: Job) -> None:
        """Run one job to completion and publish its outcome.

        Every failure mode ends with :meth:`Job.finish` and
        :meth:`FairScheduler.complete` — a job can never be left hanging
        with waiters blocked on it.
        """
        try:
            response = self.session.solve_many([job.request])[0]
            self.metrics.record_solver_run(error=not response.ok)
            if response.ok:
                self.session.write_back(job.request.problem, job.fingerprint,
                                        job.cache_tag, response.result)
                job.source = "solver"
                job.finish(response=response)
            else:
                job.finish(response=response, error=response.error)
        except BaseException as exc:  # noqa: BLE001 - waiters must wake
            job.finish(error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.scheduler.complete(job)
            if self.jobs is not None:
                self.jobs.retire(job)

    def alive(self) -> bool:
        """Whether any worker thread is still running."""
        return any(thread.is_alive() for thread in self._threads)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker to exit (after the scheduler closed).

        Returns:
            ``True`` when all workers exited within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(remaining)
        return not any(thread.is_alive() for thread in self._threads)
