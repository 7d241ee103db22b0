"""The four workloads: one timed pass each, plus checks and counters.

A pass builds a fresh system (session, store or server), runs its warm-up
ops on their own instances, snapshots the program's counters, times every
op of the seeded schedule with ``perf_counter`` around the public call,
snapshots the counters again, and only then checks every output.  The
same pass function runs untraced (end-to-end metrics, counts) and, in
``--trace 1`` runs, a second time with :mod:`tracing` installed.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import common
import inputs
import numpy as np

from repro.api import AdvisorSession
from repro.api.schema import SolverResponse
from repro.api.watch import WatchPolicy
from repro.core.deployment import DeploymentPlan
from repro.core.errors import ClouDiAError
from repro.core.objectives import deployment_cost
from repro.core.problem import DeploymentProblem
from repro.netmeasure.stream import MeasurementStream
from repro.solvers.base import SearchBudget
from repro.store import SQLiteResultCache


@dataclass
class Pass:
    """Outcome of one timed pass."""

    samples: List[Tuple[float, str]] = field(default_factory=list)
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    gains: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    notes: List[str] = field(default_factory=list)
    spans: Optional[list] = None
    #: ``perf_counter`` bounds of the timed phase (spans are clipped to it).
    window: Tuple[float, float] = (0.0, 0.0)
    #: Server worker threads, as ``/metrics`` reports them (serve only).
    workers: int = 1

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    @property
    def throughput_rps(self) -> float:
        return len(self.samples) / self.elapsed_s


def check_plan(problem: DeploymentProblem, plan: DeploymentPlan,
               cost: float) -> float:
    """Validate a returned plan against the pure-Python reference.

    Returns the plan's relative cost cut against the default plan; raises
    ``ClouDiAError`` or ``ValueError`` when the plan is invalid or its
    reported cost differs from the reference cost.
    """
    problem.check_plan(plan)
    graph, costs, objective = problem.graph, problem.costs, problem.objective
    reference = deployment_cost(plan, graph, costs, objective)
    if cost != reference:
        raise ValueError(f"reported cost {cost!r} != reference {reference!r}")
    default = deployment_cost(problem.default_plan(), graph, costs, objective)
    return (default - reference) / default


def _flat(prefix: str, payload: Dict, out: Dict) -> Dict:
    for key, value in payload.items():
        if isinstance(value, dict):
            _flat(f"{prefix}{key}.", value, out)
        else:
            out[prefix + key] = value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def session_counts(before: Dict, after: Dict) -> Dict[str, float]:
    """Count metrics from two ``SessionStats.to_dict()`` snapshots.

    ``SessionStats`` embeds ``compile_cache_stats()`` (``engine_cache``)
    and ``parallel_stats()`` (``parallel``), so one snapshot reads all
    three program counter holders.
    """
    d = common.delta(_flat("", before, {}), _flat("", after, {}))
    compiled = d["compilations"] + d["compile_cache_hits"]
    engine = d["engine_cache.hits"] + d["engine_cache.misses"]
    return {
        "session.compile_hit_rate": _ratio(d["compile_cache_hits"], compiled),
        "evaluation.compiles": d["engine_cache.misses"],
        "evaluation.compile_cache_hit_rate": _ratio(d["engine_cache.hits"],
                                                    engine),
        "evaluation.refreshes": d["cost_refreshes"],
        "evaluation.peeks": d["parallel.delta_peeks"],
        "evaluation.commits": d["parallel.delta_commits"],
        "evaluation.peek_many_calls": d["parallel.batch_peek_calls"],
        "evaluation.peeked_moves": d["parallel.batch_peeked_moves"],
        "parallel.pool_calls": (d["parallel.thread_parallel_calls"]
                                + d["parallel.process_parallel_calls"]),
    }


def store_counts(before, after) -> Dict[str, float]:
    """Count metrics from two store ``stats`` snapshots."""
    gets = (after.hits - before.hits) + (after.misses - before.misses)
    return {"store.gets": gets, "store.puts": after.writes - before.writes,
            "store.hit_rate": _ratio(after.hits - before.hits, gets)}


def _sampled(tracer, request_id: str) -> None:
    if tracer is not None:
        tracer.set_request(request_id)


# ---------------------------------------------------------------------- #
# search-ll / search-lp: AdvisorSession.solve in a closed loop
# ---------------------------------------------------------------------- #

def search_pass(workload: str, seed: int, seconds: float,
                tracer=None) -> Pass:
    ops = inputs.solve_mix(workload, seed, seconds)
    warm = inputs.solve_mix(workload, seed, seconds, warmup=True)
    session = AdvisorSession()
    for op in warm:
        session.solve(op.request)
    before = session.stats.to_dict()
    result = Pass()
    responses: List[Optional[SolverResponse]] = []
    started = time.perf_counter()
    for op in ops:
        _sampled(tracer, op.request.request_id)
        t0 = time.perf_counter()
        try:
            response = session.solve(op.request)
        except (ClouDiAError, ValueError, TypeError) as exc:
            response = None
            result.fail(f"{op.label}: {type(exc).__name__}: {exc}")
        result.samples.append((time.perf_counter() - t0, op.label))
        responses.append(response)
    result.elapsed_s = time.perf_counter() - started
    result.window = (started, started + result.elapsed_s)
    after = session.stats.to_dict()
    result.peak_rss_mb = common.self_peak_rss_mb()
    result.attempted = len(ops)

    iterations = local_search_iterations = 0
    for op, response in zip(ops, responses):
        if response is None:
            continue
        try:
            if not response.ok:
                raise ValueError(response.error)
            result.gains.append(check_plan(op.request.problem, response.plan,
                                           response.cost))
        except (ClouDiAError, ValueError) as exc:
            result.fail(f"{op.label}: {exc}")
            continue
        iterations += response.result.iterations
        if op.request.solver == "local-search":
            local_search_iterations += response.result.iterations
    result.counts = session_counts(before, after)
    result.counts["solvers.iterations"] = iterations
    result.counts["evaluation.peek_useful_frac"] = _ratio(
        local_search_iterations, result.counts["evaluation.peeked_moves"])
    return result


# ---------------------------------------------------------------------- #
# redeploy-watch: AdvisorSession.watch over seeded drift traces
# ---------------------------------------------------------------------- #

WATCH_POLICY = dict(solver="local-search", drift_threshold=0.2,
                    degradation_threshold=0.05, warm_start=True)
STREAM = inputs.STREAM_THRESHOLD
#: Request class of each fold code of :data:`inputs.WATCH_PATTERN`.
FOLD_CLASSES = {"a": "absorbed", "h": "held", "s": "resolve", "r": "return"}


def _policy(seed: int) -> WatchPolicy:
    return WatchPolicy(config={"restarts": 1, "seed": seed},
                       budget=SearchBudget(max_iterations=1000),
                       **WATCH_POLICY)


def watch_pass(workload: str, seed: int, seconds: float,
               tracer=None) -> Pass:
    sessions = inputs.watch_sessions(seed, seconds)
    warm = inputs.watch_sessions(seed, seconds, warmup=True)
    store = SQLiteResultCache(common.fresh_path("watch.sqlite"))
    session = AdvisorSession(result_cache=store)
    result = Pass()
    try:
        for item in warm:
            session.watch(item.problem, _folds(item, MeasurementStream(
                item.problem.costs, drift_threshold=STREAM)), _policy(seed))
        before = session.stats.to_dict()
        store_before = store.stats
        reports, streams = [], []
        folds = absorbed = 0
        started = time.perf_counter()
        for number, item in enumerate(sessions):
            rid = f"watch-{number:03d}"
            _sampled(tracer, rid)
            stream = MeasurementStream(item.problem.costs,
                                       drift_threshold=STREAM)
            marks: List[Tuple[float, str]] = []
            t0 = time.perf_counter()
            report = session.watch(item.problem, _folds(item, stream, marks),
                                   _policy(seed))
            end = time.perf_counter()
            # marks[k] = (end of op k, label); the history write after the
            # last fold belongs to the last op.
            previous = t0
            for index, (mark, label) in enumerate(marks):
                stop = end if index == len(marks) - 1 else mark
                result.samples.append((stop - previous, label))
                previous = mark
            streams.append(stream)
            reports.append(report)
            folds += len(item.folds)
            absorbed += stream.folds_absorbed
        result.elapsed_s = time.perf_counter() - started
        result.window = (started, started + result.elapsed_s)
        after = session.stats.to_dict()
        store_after = store.stats
    finally:
        store.close()
        common.fresh_path("watch.sqlite")
    result.peak_rss_mb = common.self_peak_rss_mb()
    result.attempted = len(result.samples)
    for number, (report, stream) in enumerate(zip(reports, streams)):
        try:
            if not np.array_equal(report.problem.costs.as_array(),
                                  stream.current.as_array()):
                raise ValueError("report does not end on the last revision")
            result.gains.append(check_plan(report.problem, report.plan,
                                           report.cost))
        except (ClouDiAError, ValueError) as exc:
            result.fail(f"watch-{number:03d}: {exc}")
    events = [event for report in reports for event in report.events]
    result.counts = session_counts(before, after)
    result.counts.update(store_counts(store_before, store_after))
    result.counts.update({
        "session.watch_held": sum(not e.resolved for e in events),
        "session.watch_resolves": sum(e.resolved and not e.cache_hit
                                      for e in events),
        "session.watch_store_hits": sum(e.cache_hit for e in events),
        "solvers.iterations": sum(r.result.iterations for r in reports
                                  if r.result is not None),
        "stream.folds": folds,
        "stream.absorbed": absorbed,
    })
    return result


def _folds(item, stream: MeasurementStream,
           marks: Optional[List[Tuple[float, str]]] = None):
    """Fold each raw matrix; yield the revisions the stream emits.

    Every fold is one op: it ends when the generator resumes after
    ``watch`` processed its revision, or at once when the stream absorbed
    it.  The initial solve ends at the first pull.
    """
    if marks is not None:
        marks.append((time.perf_counter(), "resolve"))
    for code, costs in item.folds:
        revision = stream.fold_costs(costs)
        if revision is not None:
            yield revision
        if marks is not None:
            marks.append((time.perf_counter(), FOLD_CLASSES[code]))


# ---------------------------------------------------------------------- #
# serve-mixed: a live `repro serve` driven over two connections
# ---------------------------------------------------------------------- #

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve`` child on a fresh store, ready once /healthz is 200."""

    def __init__(self, store_name: str, spans_path=None) -> None:
        self.port = _free_port()
        self.store = store = common.fresh_path(store_name)
        self.stderr: Optional[str] = None
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(common.HERE / "serve_launcher.py"),
                   str(spans_path)]
        cmd += ["serve", "--store", str(store), "--port", str(self.port)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=common.child_env(),
                                     cwd=common.ROOT,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self) -> float:
        deadline = self.started + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited: "
                                   + self.proc.stderr.read()[-2000:])
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass  # not listening yet
            finally:
                conn.close()
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve never became healthy")

    def get(self, path: str) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> str:
        """SIGTERM (graceful drain), wait, drop the store; returns stderr."""
        if self.stderr is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                _, err = self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                _, err = self.proc.communicate()
            self.stderr = err or ""
            common.fresh_path(self.store.name)
        return self.stderr


def serve_metrics_counts(before: Dict, after: Dict) -> Dict[str, float]:
    """Count metrics from two ``/metrics`` snapshots."""
    d = common.delta(_flat("", before, {}), _flat("", after, {}))
    counts = session_counts(before["session"], after["session"])
    counts.update({
        "serve.store_served": d.get("service.served_by_source.store", 0),
        "serve.coalesced": d["scheduler.coalesced"],
        "serve.solver_runs": d["service.solver_invocations"],
        "serve.rejected": d["scheduler.rejected"],
        "store.gets": d["store.hits"] + d["store.misses"],
        "store.puts": d["store.writes"],
        "store.hit_rate": _ratio(d["store.hits"],
                                 d["store.hits"] + d["store.misses"]),
    })
    return counts


def _post(conn: http.client.HTTPConnection, body: bytes, tenant: str
          ) -> Tuple[int, bytes]:
    conn.request("POST", "/v1/solve", body=body,
                 headers={"Content-Type": "application/json",
                          "x-tenant": tenant})
    response = conn.getresponse()
    return response.status, response.read()


def _lockstep(server: Server, steps, on_done: Callable) -> float:
    """Send each step's two requests at the same instant; returns wall s."""
    conns = [http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
             for _ in range(2)]
    barrier = threading.Barrier(2)
    errors: List[Exception] = []

    def client(index: int) -> None:
        try:
            for number, step in enumerate(steps):
                barrier.wait(timeout=300)
                request = step[index]
                t0 = time.perf_counter()
                try:
                    status, raw = _post(conns[index], request.body,
                                        f"tenant-{index}")
                except (OSError, http.client.HTTPException) as exc:
                    status, raw = 0, repr(exc).encode()
                    conns[index].close()
                on_done(number, index, request, status, raw,
                        time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for conn in conns:
        conn.close()
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    return elapsed


def serve_pass(workload: str, seed: int, seconds: float, tracer=None,
               schedule=None, server: Optional[Server] = None) -> Pass:
    steps, warm = schedule
    if server is None:
        server = Server("serve.sqlite",
                        spans_path=None if tracer is None
                        else common.fresh_path("serve-spans.json"))
    result = Pass()
    try:
        _lockstep(server, warm, lambda *_: None)
        before = server.get("/metrics")
        outcomes: List = [None] * (2 * len(steps))

        def done(number, index, request, status, raw, seconds_):
            outcomes[2 * number + index] = (request, status, raw)

        def timed(number, index, request, status, raw, seconds_):
            result.samples.append((seconds_, request.label))
            done(number, index, request, status, raw, seconds_)

        started = time.perf_counter()
        result.elapsed_s = _lockstep(server, steps, timed)
        result.window = (started, time.perf_counter())
        after = server.get("/metrics")
        result.workers = after["workers"]
        result.peak_rss_mb = common.pid_peak_rss_mb(server.proc.pid)
    finally:
        stderr = server.stop()
    result.attempted = len(outcomes)
    # Each body is solved once; every store-served or coalesced response
    # to it must carry the plan of that solve.
    solved: Dict[int, Dict] = {}
    shared: List[Tuple[object, Dict]] = []
    for request, status, raw in outcomes:
        try:
            if status != 200:
                raise ValueError(f"HTTP {status}: {raw[:200]!r}")
            envelope = json.loads(raw)
            response = SolverResponse.from_dict(envelope["response"])
            if not response.ok:
                raise ValueError(response.error)
            result.gains.append(check_plan(request.problem, response.plan,
                                           response.cost))
        except (ClouDiAError, ValueError, KeyError) as exc:
            result.fail(f"{request.label}#{request.body_id}: {exc}")
            continue
        if envelope["source"] == "solver":
            solved[request.body_id] = response.plan.as_dict()
        else:
            shared.append((request, response.plan.as_dict()))
    for request, plan in shared:
        if solved.get(request.body_id) != plan:
            result.fail(f"{request.label}#{request.body_id}: shared "
                        f"response differs from the solve of its body")
    result.counts = serve_metrics_counts(before, after)
    sizes = [len(request.body) for step in steps for request in step]
    result.counts["schema.request_kb"] = sum(sizes) / len(sizes) / 1024.0
    if tracer is not None:
        spans_path = common.WORK / "serve-spans.json"
        if not spans_path.exists():
            raise RuntimeError("traced server wrote no spans: " + stderr[-2000:])
        result.spans = json.loads(spans_path.read_text())
    return result
