"""The decode memo of the solve routes: what shares a decoded problem.

A repeated problem text is served the problem decoded the first time;
any other text, however small the difference, is decoded anew.  Payloads
the decoder refuses stay a JSON 400 and never enter the memo, and the
memo keeps serving repeats when every store call fails.  A finished job
keeps its response but not its problem, so memo eviction frees it.
"""

from __future__ import annotations

import base64
import gc
import json
import sqlite3
import sys
import threading
import time
import weakref

import pytest

from repro.api import SolveRequest, session
from repro.core import (
    CommunicationGraph,
    DeploymentProblem,
    Objective,
    PlacementConstraints,
)
from repro.core.errors import StoreError
from repro.serve import ServeConfig, create_app
from repro.serve.decode_memo import DecodeMemo, payload_key
from repro.solvers import SearchBudget
from repro.store import SQLiteResultCache
from repro.testing import deterministic_cost_matrix


def make_problem(seed=0):
    """A 7-node aggregation tree (a DAG, so both objectives apply)."""
    return DeploymentProblem(
        CommunicationGraph.aggregation_tree(2, 2),
        deterministic_cost_matrix(9, seed=seed),
        constraints=PlacementConstraints(pinned={0: 2}),
        metadata={"template": "tree"})


def solve_body(seed=0, **extra):
    body = SolveRequest(problem=make_problem(seed), solver="local-search",
                        config={"seed": 3},
                        budget=SearchBudget(max_iterations=200)).to_dict()
    body.update(extra)
    return body


def post(app, body, path="/v1/solve"):
    return app.handle("POST", path, body=json.dumps(body).encode())


def record_problems(app):
    """Record, weakly and by job id, the problem each job was submitted with.

    A finished job drops its request, so :func:`problem_of` reads the
    problem off the submit path instead.  A coalesced caller maps to the
    job it joined, and so to that job's problem.
    """
    problems = weakref.WeakValueDictionary()
    submit = app.submit_solve

    def recording(request, tenant, priority):
        job, source = submit(request, tenant=tenant, priority=priority)
        problems.setdefault(job.job_id, request.problem)
        return job, source

    app.submit_solve = recording
    app.submitted_problems = problems
    return app


def problem_of(app, envelope):
    """The problem object the service solved (or served) the body with."""
    return app.submitted_problems[envelope["job_id"]]


def memo_counts(app):
    stats = app.decode_memo.to_dict()
    return stats["hits"], stats["misses"], stats["size"]


@pytest.fixture
def app(tmp_path):
    instance = record_problems(create_app(
        store=tmp_path / "serve.db",
        config=ServeConfig(workers=1, request_timeout_s=20.0)))
    yield instance
    instance.close(timeout=5.0)


def _nudge_cost_byte(problem):
    raw = bytearray(base64.b64decode(problem["costs"]["matrix"]))
    raw[8] ^= 1  # the lowest mantissa byte of cost (0, 1)
    problem["costs"]["matrix"] = base64.b64encode(bytes(raw)).decode()


def _reverse_one_edge(problem):
    # Any orientation of a tree stays acyclic.
    problem["graph"]["edges"][-1].reverse()


def _rename_one_instance(problem):
    problem["costs"]["instance_ids"][-1] = 100


def _switch_objective(problem):
    problem["objective"] = Objective.LONGEST_PATH.value


def _move_the_pin(problem):
    problem["constraints"]["pinned"] = [[0, 3]]


def _annotate(problem):
    problem["metadata"]["tenant"] = "acme"


def _omit_version(problem):
    del problem["version"]  # read as the current version


#: One-field edits of a problem payload that change what is solved.
CONTENT_EDITS = {
    "cost-byte": _nudge_cost_byte,
    "edge": _reverse_one_edge,
    "instance-id": _rename_one_instance,
    "objective": _switch_objective,
    "constraint": _move_the_pin,
}

#: Edits that change the text but not the fingerprint.
TEXT_EDITS = {
    "metadata": _annotate,
    "version": _omit_version,
}


class TestWhatSharesADecodedProblem:
    @pytest.mark.parametrize("case", sorted({**CONTENT_EDITS, **TEXT_EDITS}))
    def test_a_different_problem_text_is_decoded_anew(self, app, case):
        status, first = post(app, solve_body())
        assert status == 200 and first["source"] == "solver"
        memoised = problem_of(app, first)
        body = solve_body()
        {**CONTENT_EDITS, **TEXT_EDITS}[case](body["problem"])
        status, second = post(app, body)
        assert status == 200, second
        problem = problem_of(app, second)
        assert problem is not memoised
        assert memo_counts(app) == (0, 2, 2)
        if case in CONTENT_EDITS:
            # The store has no entry for the new problem: the solver runs.
            assert problem.fingerprint() != memoised.fingerprint()
            assert second["source"] == "solver"
            assert app.metrics.solver_invocations == 2
        else:
            assert problem.fingerprint() == memoised.fingerprint()
            assert second["source"] == "store"
            assert app.metrics.solver_invocations == 1

    @pytest.mark.parametrize("extra", [
        {"priority": "batch"},
        {"solver": "greedy", "config": {}},
        {"budget": {"max_iterations": 50}},
    ], ids=["priority", "solver", "budget"])
    def test_same_problem_text_under_other_run_fields_is_a_hit(self, app,
                                                               extra):
        _, first = post(app, solve_body())
        status, second = post(app, solve_body(**extra))
        assert status == 200, second
        assert problem_of(app, second) is problem_of(app, first)
        assert memo_counts(app) == (1, 1, 1)

    def test_every_batch_entry_goes_through_the_memo(self, app):
        _, first = post(app, solve_body())
        entries = [solve_body(), solve_body(seed=1), solve_body(seed=1)]
        status, batch = post(app, {"requests": entries},
                             path="/v1/solve-batch")
        assert status == 200, batch
        problems = [problem_of(app, item) for item in batch["items"]]
        assert problems[0] is problem_of(app, first)
        assert problems[2] is problems[1]
        assert memo_counts(app) == (2, 2, 2)
        # The repeat either joins the in-flight solve or, once that has
        # finished, reads its stored result.
        sources = [item["source"] for item in batch["items"]]
        assert sources[:2] == ["store", "solver"]
        assert sources[2] in ("coalesced", "store")

    def test_concurrent_decodes_of_one_body_keep_one_problem(self):
        memo = DecodeMemo()
        text = json.dumps(make_problem().to_dict())
        barrier = threading.Barrier(8)
        problems = [None] * 8

        def decode(slot):
            payload = json.loads(text)  # each caller parses its own body
            barrier.wait()
            problems[slot] = memo.decode(payload)

        threads = [threading.Thread(target=decode, args=(slot,))
                   for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({problem.fingerprint() for problem in problems}) == 1
        assert all(problem is problems[0] for problem in problems)
        stats = memo.to_dict()
        assert stats["size"] == 1
        assert stats["hits"] + stats["misses"] == 8

    def test_lru_bound_and_eviction_order(self, monkeypatch):
        monkeypatch.setattr(session, "ENGINE_CACHE_ENTRIES", 2)
        memo = DecodeMemo()

        def decode(seed):
            return memo.decode(make_problem(seed).to_dict())

        a, b = decode(0), decode(1)
        assert decode(0) is a  # a is now the most recently used
        c = decode(2)  # evicts b, the least recently used
        assert memo.to_dict()["size"] == 2
        assert decode(0) is a and decode(2) is c
        assert decode(1) is not b  # decoded anew; evicts a
        assert decode(2) is c
        assert decode(0) is not a
        assert memo.to_dict() == {"hits": 4, "misses": 5, "size": 2,
                                  "max_entries": 2}

    def test_the_key_is_a_digest_of_the_received_text(self):
        payload = make_problem().to_dict()
        key = payload_key(payload)
        assert key == payload_key(json.loads(json.dumps(payload)))
        # Field order is part of the received text.
        reordered = dict(reversed(list(payload.items())))
        assert payload_key(reordered) != key
        # A matrix that is not an ASCII string is keyed with the rest.
        garbled = json.loads(json.dumps(payload))
        garbled["costs"]["matrix"] = "é" + garbled["costs"]["matrix"]
        assert payload_key(garbled) not in (None, key)
        assert payload_key([payload]) is None

    def test_a_payload_with_no_json_text_bypasses_the_memo(self):
        # Nested past the encoder's recursion limit: the problem decodes
        # (metadata is copied shallowly) but has no key.
        payload = make_problem().to_dict()
        nested = []
        for _ in range(sys.getrecursionlimit() + 100):
            nested = [nested]
        payload["metadata"]["template"] = nested
        assert payload_key(payload) is None
        memo = DecodeMemo()
        problem = memo.decode(payload)
        assert problem.fingerprint() == make_problem().fingerprint()
        assert memo.to_dict()["size"] == 0


def _not_an_object(problem):
    return [problem]


def _matrix_not_a_string(problem):
    raw = base64.b64decode(problem["costs"]["matrix"])
    problem["costs"]["matrix"] = list(raw)
    return problem


def _matrix_not_ascii(problem):
    problem["costs"]["matrix"] = "é" + problem["costs"]["matrix"]
    return problem


def _matrix_one_float_short(problem):
    raw = base64.b64decode(problem["costs"]["matrix"])
    problem["costs"]["matrix"] = base64.b64encode(raw[:-8]).decode()
    return problem


def _version_1(problem):
    problem["version"] = 1
    return problem


def _unhashable_instance_id(problem):
    problem["costs"]["instance_ids"][0] = [0]
    return problem


def _cyclic_longest_path(problem):
    problem["graph"]["edges"].append([0, 1])  # closes 1 -> 0 -> 1
    problem["objective"] = Objective.LONGEST_PATH.value
    return problem


#: Problem payloads the decoder refuses, each a function of a valid one.
MALFORMED_PROBLEMS = {
    "not-an-object": _not_an_object,
    "matrix-not-a-string": _matrix_not_a_string,
    "matrix-not-ascii": _matrix_not_ascii,
    "matrix-one-float-short": _matrix_one_float_short,
    "version-1": _version_1,
    "unhashable-instance-id": _unhashable_instance_id,
    "cyclic-longest-path": _cyclic_longest_path,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_malformed_problem_is_400_before_and_after_warming(app, case):
    body = solve_body()
    body["problem"] = MALFORMED_PROBLEMS[case](body["problem"])
    for warm in (False, True):
        if warm:
            # A valid body of the same shape enters the memo.
            assert post(app, solve_body())[0] == 200
        size = memo_counts(app)[2]
        for _ in range(2):
            status, payload = post(app, body)
            assert status == 400, payload
            assert payload["status"] == 400
            assert payload["error"].startswith("invalid solve request")
        assert memo_counts(app)[2] == size
    assert memo_counts(app) == (0, 5, 1)
    assert app.metrics.solver_invocations == 1


class _LockedConnection:
    """A connection whose every statement fails as a locked database."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, *args, **kwargs):
        raise sqlite3.OperationalError("database is locked")

    def close(self):
        self._conn.close()


class _FailingStore(SQLiteResultCache):
    """A store that fails on every call: reads miss, writes raise."""

    def __init__(self, path):
        super().__init__(path)
        self._conn = _LockedConnection(self._conn)


class TestServeStoreFaults:
    """A failing store degrades the serve path; it never breaks it."""

    def test_solves_answer_and_nothing_leaks(self, tmp_path):
        store = _FailingStore(tmp_path / "serve.db")
        app = record_problems(create_app(store=store, config=ServeConfig(
            workers=2, request_timeout_s=20.0)))
        try:
            body = solve_body()
            for _ in range(2):
                status, payload = post(app, body)
                assert status == 200, payload
                assert payload["source"] == "solver"
                assert payload["response"]["status"] == "ok"
            # Every call failed: two read misses, no write landed.
            assert store.stats.misses == 2 and store.stats.writes == 0
            problem = problem_of(app, payload)
            response = app.jobs.get(payload["job_id"]).response
            fingerprint = problem.fingerprint()
            for write in (
                    lambda: store.put(fingerprint, "tag", response.result),
                    lambda: store.record_problem(problem),
                    lambda: store.record_telemetry(fingerprint, response)):
                with pytest.raises(StoreError, match="database is locked"):
                    write()
            assert memo_counts(app) == (1, 1, 1)
            assert app.metrics.solver_invocations == 2
            # Workers retire a job just after its waiters wake.
            deadline = time.monotonic() + 5.0
            while app.jobs._active and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not app.jobs._active
            assert len(app.pool._threads) == 2
            assert all(thread.is_alive() for thread in app.pool._threads)
        finally:
            app.close(timeout=5.0)


def _wait_retired(app, job_id):
    """Wait until the worker has moved ``job_id`` into the finished LRU."""
    deadline = time.monotonic() + 5.0
    while job_id in app.jobs._active and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job_id not in app.jobs._active


class TestFinishedJobsPinNoProblem:
    """The memo and engine-cache bounds bound what finished jobs keep."""

    def test_an_evicted_problem_is_freed_while_its_job_answers(
            self, app, monkeypatch):
        monkeypatch.setattr(session, "ENGINE_CACHE_ENTRIES", 2)
        status, first = post(app, solve_body(seed=0))
        assert status == 200 and first["source"] == "solver"
        job_id = first["job_id"]
        _wait_retired(app, job_id)
        problem = weakref.ref(problem_of(app, first))
        engine = weakref.ref(problem().compiled())
        assert app.jobs.get(job_id).request is None
        # Two other problems evict the first from the memo and the
        # engine cache; the finished job is all that could still hold it.
        for seed in (1, 2):
            status, other = post(app, solve_body(seed=seed))
            assert status == 200 and other["source"] == "solver"
        assert memo_counts(app) == (0, 3, 2)
        gc.collect()
        assert problem() is None and engine() is None
        status, polled = app.handle("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        assert polled["status"] == "done"
        assert polled["response"] == first["response"]

    def test_a_store_served_job_drops_its_request(self, app):
        post(app, solve_body())
        status, served = post(app, solve_body())
        assert status == 200 and served["source"] == "store"
        job = app.jobs.get(served["job_id"])
        assert job.request is None
        assert job.response.to_dict() == served["response"]
