"""Traced mode: runtime wrappers around each layer's public functions.

Only a ``--trace 1`` run calls this module's :func:`install`; untraced
runs execute the program unmodified.  Each wrapper records one span per
call -- ``(id, parent, name, start, end, thread CPU, request id, thread,
work)``, where work is the plan count of a batch evaluation -- into an
in-memory list that is written out when the run ends.  A span's
*self* time is its wall time minus its child spans' wall time; its *wait*
time is self wall time minus self thread-CPU time (interpreter-lock waits,
I/O, blocking on another thread).

Functions a module imported by name (``from x import f``) are patched in
every loaded ``repro`` module that holds the same object, so calls through
``repro.serve.app.coalesce_key`` are seen as well as
``repro.serve.scheduler.coalesce_key``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped callable.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.handle", "repro.serve.app", "AdvisorApp.handle"),
    ("serve.submit", "repro.serve.app", "AdvisorApp.submit_solve"),
    ("serve.submit", "repro.serve.scheduler", "coalesce_key"),
    ("serve.submit", "repro.serve.scheduler", "FairScheduler.submit"),
    ("serve.worker", "repro.serve.workers", "WorkerPool.execute"),
    ("schema.decode", "repro.api.schema", "SolveRequest.from_dict"),
    ("schema.encode", "repro.api.schema", "SolverResponse.to_dict"),
    ("session.prepare", "repro.api.session", "AdvisorSession.prepare"),
    ("session.solve", "repro.api.session", "AdvisorSession.solve"),
    ("session.solve", "repro.api.session", "AdvisorSession.solve_many"),
    ("session.watch", "repro.api.session", "AdvisorSession.watch"),
    ("problem.fingerprint", "repro.core.problem",
     "DeploymentProblem.fingerprint"),
    ("problem.revise", "repro.core.problem", "DeploymentProblem.revise"),
    ("problem.check_plan", "repro.core.problem",
     "DeploymentProblem.check_plan"),
    ("evaluation.compile", "repro.core.evaluation", "compile_problem"),
    ("evaluation.refresh", "repro.core.evaluation",
     "CompiledProblem.refresh_costs"),
    ("evaluation.batch", "repro.core.evaluation",
     "CompiledProblem.evaluate_batch"),
    ("evaluation.batch", "repro.core.evaluation",
     "CompiledProblem.evaluate_plans"),
    ("evaluation.peek", "repro.core.evaluation", "DeltaEvaluator.swap_cost"),
    ("evaluation.peek", "repro.core.evaluation",
     "DeltaEvaluator.relocate_cost"),
    ("evaluation.peek_many", "repro.core.evaluation",
     "DeltaEvaluator.peek_many"),
    ("evaluation.commit", "repro.core.evaluation", "DeltaEvaluator.apply_swap"),
    ("evaluation.commit", "repro.core.evaluation",
     "DeltaEvaluator.apply_relocate"),
    ("solvers", "repro.solvers.base", "DeploymentSolver.solve"),
    ("solvers.cp.clustering", "repro.core.cost_matrix", "CostMatrix.clustered"),
    ("solvers.cp.search", "repro.solvers.cp.subgraph",
     "SubgraphMonomorphismSearch.find"),
    ("solvers.cp.matching", "repro.solvers.cp.alldifferent",
     "matching_feasible"),
    ("store.get", "repro.store.result_cache", "SQLiteResultCache.get"),
    ("store.put", "repro.store.result_cache", "SQLiteResultCache.put"),
    ("store.telemetry", "repro.store.result_cache",
     "SQLiteResultCache.record_problem"),
    ("store.telemetry", "repro.store.result_cache",
     "SQLiteResultCache.record_telemetry"),
    ("store.history", "repro.store.history", "WatchHistory.record_report"),
    ("stream.fold", "repro.netmeasure.stream", "MeasurementStream.fold_costs"),
)

#: Solver classes to the registry keys their self time is reported under.
SOLVER_KEYS = {
    "SwapLocalSearch": "local_search", "SimulatedAnnealing": "annealing",
    "GreedyG2": "greedy", "GreedyG1": "g1", "RandomSearch": "r1",
    "CPLongestLinkSolver": "cp", "MIPLongestPathSolver": "mip",
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Submit time of each queued serve job, keyed by job id.
        self._queued_at: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag this thread's following spans with ``request_id``."""
        self._local.request_id = request_id

    def wrap(self, name: str, func: Callable,
             request_id_of: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper around ``func``."""
        tracer = self
        counted = name == "evaluation.batch"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            span_name = name
            if name == "solvers":
                span_name = "solvers." + SOLVER_KEYS.get(
                    type(args[0]).__name__, type(args[0]).__name__)
            request_id = getattr(tracer._local, "request_id", None)
            if request_id_of is not None:
                request_id = request_id_of(args) or request_id
            work = len(args[1]) if counted else 0
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append((span_id, parent, span_name, start, end,
                                     cpu, request_id, threading.get_ident(),
                                     work))

        return traced

    def record(self, name: str, start: float, end: float,
               request_id: Optional[str]) -> None:
        """A synthetic root span with no CPU time (a wait between calls)."""
        self.spans.append((next(self._ids), 0, name, start, end, 0.0,
                           request_id, 0, 0))

    def queue_submit(self, func: Callable) -> Callable:
        """Wrap ``FairScheduler.submit`` to stamp when a job was queued."""
        tracer = self

        @functools.wraps(func)
        def submit(scheduler, job):
            # Stamp first: a worker may dequeue before submit returns.
            tracer._queued_at[job.job_id] = time.perf_counter()
            effective, coalesced = func(scheduler, job)
            if coalesced:
                tracer._queued_at.pop(job.job_id, None)
            return effective, coalesced

        return submit

    def queue_next(self, func: Callable) -> Callable:
        """Wrap ``FairScheduler.next_job``: a dequeue closes a queue wait."""
        tracer = self

        @functools.wraps(func)
        def next_job(scheduler, timeout=None):
            job = func(scheduler, timeout)
            if job is not None:
                queued = tracer._queued_at.pop(job.job_id, None)
                if queued is not None:
                    tracer.record("serve.queue_wait", queued,
                                  time.perf_counter(), job.job_id)
            return job

        return next_job

    def dump(self, path: Path) -> None:
        """Write every span as one JSON list."""
        path.write_text(json.dumps(self.spans))


def _job_id(args) -> Optional[str]:
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _request_id(args) -> Optional[str]:
    return getattr(args[1], "request_id", None) if len(args) > 1 else None


_REQUEST_IDS = {
    "WorkerPool.execute": _job_id,
    "FairScheduler.submit": _job_id,
    "AdvisorSession.solve": _request_id,
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _patch_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS`; call once per process."""
    import repro.serve  # noqa: F401 - load every module that may be patched
    import repro.solvers.cp  # noqa: F401
    import repro.store  # noqa: F401

    scheduler_cls, _ = _resolve("repro.serve.scheduler", "FairScheduler.submit")
    scheduler_cls.submit = tracer.queue_submit(scheduler_cls.submit)
    scheduler_cls.next_job = tracer.queue_next(scheduler_cls.next_job)
    for name, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        request_id_of = _REQUEST_IDS.get(path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                tracer.wrap(name, raw.__func__, request_id_of)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, raw, request_id_of))
        else:
            _patch_everywhere(raw, tracer.wrap(name, raw, request_id_of))


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #

def self_times(spans: Iterable[tuple]) -> List[Dict]:
    """Per span: name, wall, self wall, self CPU, self wait, request id."""
    spans = list(spans)
    child_wall: Dict[int, float] = defaultdict(float)
    child_cpu: Dict[int, float] = defaultdict(float)
    for span_id, parent, _n, start, end, cpu, _r, _t, _w in spans:
        if parent:
            child_wall[parent] += end - start
            child_cpu[parent] += cpu
    out = {}
    for span_id, parent, name, start, end, cpu, request_id, _t, work in sorted(
            spans):
        wall = end - start
        self_wall = max(0.0, wall - child_wall[span_id])
        self_cpu = min(self_wall, max(0.0, cpu - child_cpu[span_id]))
        out[span_id] = {"id": span_id, "parent": parent, "name": name,
                        "wall": wall, "self": self_wall, "self_cpu": self_cpu,
                        "wait": self_wall - self_cpu, "work": work,
                        "request_id": request_id}
    # A handler span learns its job id only from a descendant (the job is
    # built inside it): pass ids up, then down to id-less descendants.
    for row in reversed(list(out.values())):
        parent = out.get(row["parent"])
        if parent is not None and parent["request_id"] is None:
            parent["request_id"] = row["request_id"]
    for row in out.values():
        parent = out.get(row["parent"])
        if row["request_id"] is None and parent is not None:
            row["request_id"] = parent["request_id"]
    return list(out.values())


def layer_times(spans: Iterable[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed wall, self, self-wait seconds, calls, work."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"wall": 0.0, "self": 0.0, "wait": 0.0, "calls": 0,
                 "work": 0})
    for row in self_times(spans):
        entry = totals[row["name"]]
        entry["wall"] += row["wall"]
        entry["self"] += row["self"]
        entry["wait"] += row["wait"]
        entry["calls"] += 1
        entry["work"] += row["work"]
    return dict(totals)
