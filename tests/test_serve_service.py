"""The advisor service end to end: the app submit path (store
short-circuit, coalescing, back-pressure, drain) and the real HTTP
transport on a loopback socket."""

from __future__ import annotations

import base64
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import SolveRequest, WatchPolicy
from repro.core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentProblem,
    PlacementConstraints,
)
from repro.core.errors import InvalidCostMatrixError
from repro.serve import (
    PRIORITY_INTERACTIVE,
    ServeConfig,
    create_app,
    create_server,
)
from repro.serve.http import AdvisorRequestHandler
from repro.serve.scheduler import coalesce_key
from repro.solvers import SearchBudget
from repro.store import SQLiteResultCache
from repro.testing import deterministic_cost_matrix


def make_problem(seed=0):
    return DeploymentProblem(CommunicationGraph.ring(5),
                             deterministic_cost_matrix(7, seed=seed))


def make_request(seed=0, solver="local-search", **kwargs):
    kwargs.setdefault("config", {"seed": 3})
    kwargs.setdefault("budget", SearchBudget(max_iterations=200))
    return SolveRequest(problem=make_problem(seed), solver=solver, **kwargs)


def solve_body(seed=0, **extra):
    body = make_request(seed).to_dict()
    body.update(extra)
    return body


def encode_matrix(matrix) -> str:
    """The wire form of a cost matrix: base64 little-endian float64."""
    return base64.b64encode(np.asarray(matrix, "<f8").tobytes()).decode()


def _matrix_bytes(body) -> bytes:
    return base64.b64decode(body["problem"]["costs"]["matrix"])


#: Malformed ``costs.matrix`` values for the 7-instance body of
#: :func:`solve_body`, each a function of that body.
MALFORMED_MATRICES = {
    "nested-list": lambda body: np.frombuffer(
        _matrix_bytes(body)).reshape(7, 7).tolist(),
    "number": lambda body: 3.5,
    "object": lambda body: {"shape": [7, 7]},
    "null": lambda body: None,
    # Decodes to the right bytes if the stray characters are dropped.
    "non-base64": lambda body: "!*" + body["problem"]["costs"]["matrix"],
    "non-ascii": lambda body: "\u00e9" + body["problem"]["costs"]["matrix"],
    "one-float-short": lambda body: base64.b64encode(
        _matrix_bytes(body)[:-8]).decode(),
    "one-byte-long": lambda body: base64.b64encode(
        _matrix_bytes(body) + b"\0").decode(),
}


def quick_config(**overrides):
    base = dict(workers=1, request_timeout_s=20.0)
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture
def app(tmp_path):
    instance = create_app(store=tmp_path / "serve.db",
                          config=quick_config())
    yield instance
    instance.close(timeout=5.0)


class TestSubmitPath:
    def test_concurrent_identical_requests_solve_exactly_once(self,
                                                              tmp_path):
        # The acceptance criterion, made deterministic: stage both
        # submissions while no worker is running, then start the pool.
        app = create_app(store=tmp_path / "serve.db",
                         config=quick_config(), start_workers=False)
        try:
            first, source_a = app.submit_solve(
                make_request(), "public", PRIORITY_INTERACTIVE)
            second, source_b = app.submit_solve(
                make_request(), "public", PRIORITY_INTERACTIVE)
            assert source_a == "solver" and source_b == "coalesced"
            assert second is first
            app.start()
            assert first.wait(30.0)
            assert first.error is None
            assert app.metrics.solver_invocations == 1
            assert app.scheduler.stats.coalesced == 1
        finally:
            app.close(timeout=5.0)

    def test_repeat_after_restart_is_fully_store_served(self, tmp_path):
        path = tmp_path / "serve.db"
        first_app = create_app(store=path, config=quick_config())
        job, source = first_app.submit_solve(
            make_request(), "public", PRIORITY_INTERACTIVE)
        assert source == "solver" and job.wait(30.0)
        solved_cost = job.response.result.cost
        first_app.close(timeout=5.0)

        restarted = create_app(store=path, config=quick_config())
        try:
            job, source = restarted.submit_solve(
                make_request(), "public", PRIORITY_INTERACTIVE)
            # Served at submit time: already finished, never queued.
            assert source == "store"
            assert job.done.is_set()
            assert job.response.result.cost == solved_cost
            assert restarted.metrics.solver_invocations == 0
            assert restarted.metrics.store_hits == 1
        finally:
            restarted.close(timeout=5.0)

    def test_stored_plan_violating_the_constraints_is_a_miss(self, app):
        job, source = app.submit_solve(
            make_request(), "public", PRIORITY_INTERACTIVE)
        assert source == "solver" and job.wait(30.0)
        stored = job.response.result
        pin = (stored.plan.instance_for(0) + 1) % 7
        problem = make_problem()
        constrained = SolveRequest(
            problem=DeploymentProblem(
                problem.graph, problem.costs,
                constraints=PlacementConstraints(pinned={0: pin})),
            solver="local-search", config={"seed": 3},
            budget=SearchBudget(max_iterations=200))
        # Forge an entry under the constrained request's key pointing at
        # the pin-violating plan: the submit path must treat it as a miss.
        app.store.put(*coalesce_key(app.session.registry, constrained),
                      stored)
        job, source = app.submit_solve(constrained, "public",
                                       PRIORITY_INTERACTIVE)
        assert source == "solver" and job.wait(30.0)
        assert job.response.result.plan.instance_for(0) == pin
        assert app.metrics.store_hits == 0

    def test_store_writeback_happens_once_for_coalesced_pair(self, app):
        job, _ = app.submit_solve(make_request(), "public",
                                  PRIORITY_INTERACTIVE)
        assert job.wait(30.0)
        assert app.store.stats.writes == 1

    def test_finished_jobs_are_retired_into_the_bounded_table(self,
                                                              tmp_path):
        # Worker-path jobs must leave the always-retained active set once
        # finished, or a long-lived server leaks one Job per request.
        app = create_app(store=tmp_path / "serve.db",
                         config=quick_config(max_finished_jobs=1))
        try:
            jobs = []
            for seed in (0, 1):
                job, _ = app.submit_solve(make_request(seed), "public",
                                          PRIORITY_INTERACTIVE)
                assert job.wait(30.0)
                jobs.append(job)
            # Retirement happens just after the waiters wake; poll briefly.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(app.jobs) > 1:
                time.sleep(0.01)
            assert len(app.jobs) == 1
            assert app.jobs.get(jobs[0].job_id) is None  # LRU-evicted
            assert app.jobs.get(jobs[1].job_id) is jobs[1]
        finally:
            app.close(timeout=5.0)

    def test_worker_survives_unexpected_exception(self, tmp_path):
        app = create_app(store=tmp_path / "serve.db", config=quick_config())
        try:
            original = app.session.solve_many

            def boom(requests):
                raise RuntimeError("boom")

            app.session.solve_many = boom
            job, _ = app.submit_solve(make_request(seed=0), "public",
                                      PRIORITY_INTERACTIVE)
            assert job.wait(30.0)
            assert job.status == "error" and "boom" in job.error
            # The (single) worker survived and serves the next job.
            app.session.solve_many = original
            job, _ = app.submit_solve(make_request(seed=1), "public",
                                      PRIORITY_INTERACTIVE)
            assert job.wait(30.0)
            assert job.error is None
        finally:
            app.close(timeout=5.0)

    def test_dirty_drain_leaves_store_open_for_stragglers(self, tmp_path):
        app = create_app(store=tmp_path / "serve.db",
                         config=quick_config(drain_timeout_s=0.05))
        release = threading.Event()
        original = app.session.solve_many

        def slow(requests):
            release.wait(10.0)
            return original(requests)

        app.session.solve_many = slow
        job, _ = app.submit_solve(make_request(), "public",
                                  PRIORITY_INTERACTIVE)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and job.status != "running":
            time.sleep(0.01)
        assert job.status == "running"
        app.close(timeout=0.05)  # dirty: the worker is mid-solve
        # The store connection survived for the straggler's write-back.
        release.set()
        assert job.wait(30.0)
        assert job.error is None
        assert app.store.stats.writes == 1
        app.close(timeout=5.0)  # now clean: the store actually closes

    def test_without_store_every_distinct_request_solves(self):
        app = create_app(config=quick_config())
        try:
            for seed in (0, 1):
                job, source = app.submit_solve(
                    make_request(seed), "public", PRIORITY_INTERACTIVE)
                assert source == "solver" and job.wait(30.0)
            assert app.metrics.solver_invocations == 2
            assert app.metrics.store_hits == 0
        finally:
            app.close(timeout=5.0)


class TestAppDispatch:
    """Full request handling through ``AdvisorApp.handle`` (no socket)."""

    def test_sync_solve_roundtrip(self, app):
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body()).encode())
        assert status == 200
        assert payload["status"] == "done"
        assert payload["source"] == "solver"
        assert payload["response"]["status"] == "ok"
        assert payload["response"]["result"]["cost"] > 0

    def test_sync_repeat_served_from_store(self, app):
        body = json.dumps(solve_body()).encode()
        app.handle("POST", "/v1/solve", body=body)
        status, payload = app.handle("POST", "/v1/solve", body=body)
        assert status == 200
        assert payload["source"] == "store"
        assert app.metrics.solver_invocations == 1

    @pytest.mark.parametrize("leftover", [{"workers": "procs:2"},
                                          {"peek_block": 8}],
                             ids=["workers", "peek_block"])
    def test_leftover_workers_budget_key_served_from_store(self, app,
                                                           leftover):
        # A body still carrying a removed budget key is accepted and
        # served the stored result of the body without it.
        plain = solve_body(budget={"max_iterations": 200})
        legacy = solve_body(budget=dict({"max_iterations": 200}, **leftover))
        _, first = app.handle("POST", "/v1/solve",
                              body=json.dumps(plain).encode())
        status, second = app.handle("POST", "/v1/solve",
                                    body=json.dumps(legacy).encode())
        assert status == 200
        assert first["source"] == "solver"
        assert second["source"] == "store"
        assert second["response"]["result"] == first["response"]["result"]
        assert app.metrics.solver_invocations == 1

    def test_async_solve_then_poll(self, app):
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body(mode="async")).encode())
        assert status == 202
        poll = payload["poll"]
        assert poll == f"/v1/jobs/{payload['job_id']}"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, payload = app.handle("GET", poll)
            assert status == 200
            if payload["status"] == "done":
                break
            time.sleep(0.05)
        assert payload["status"] == "done"
        assert payload["response"]["result"]["cost"] > 0

    def test_polled_async_job_records_served_once(self, app):
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body(mode="async")).encode())
        assert status == 202
        poll = payload["poll"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, payload = app.handle("GET", poll)
            if payload["status"] == "done":
                break
            time.sleep(0.05)
        assert payload["status"] == "done"
        snapshot = app.metrics.to_dict()
        assert snapshot["served_by_source"] == {"solver": 1}
        assert snapshot["latency"]["count"] == 1
        app.handle("GET", poll)  # a repeat poll must not double-count
        assert app.metrics.to_dict()["latency"]["count"] == 1

    def test_batch_latency_is_per_item_not_batch_wide(self, app):
        # Pre-solve seed=0 so the batch's second item is store-served.
        app.handle("POST", "/v1/solve",
                   body=json.dumps(solve_body(seed=0)).encode())
        recorded = []
        original = app.metrics.record_served

        def capture(tenant, source, latency_s):
            recorded.append((source, latency_s))
            original(tenant, source, latency_s)

        app.metrics.record_served = capture
        body = {"requests": [
            solve_body(seed=1,
                       budget=SearchBudget(max_iterations=20000).to_dict()),
            solve_body(seed=0),
        ]}
        status, _ = app.handle("POST", "/v1/solve-batch",
                               body=json.dumps(body).encode())
        assert status == 200
        by_source = dict(recorded)
        # The store-served item reports its own (instant) latency; the
        # old shared batch clock would have charged it the first item's
        # whole solve time as well.
        assert by_source["store"] < by_source["solver"]

    def test_batch_solve(self, app):
        body = {
            "requests": [solve_body(seed=0), solve_body(seed=1)],
            "priority": "batch",
        }
        status, payload = app.handle(
            "POST", "/v1/solve-batch", body=json.dumps(body).encode())
        assert status == 200
        assert len(payload["items"]) == 2
        assert all(item["status"] == "done" for item in payload["items"])
        assert all(item["priority"] == "batch"
                   for item in payload["items"])

    def test_batch_rejects_bad_entry_but_keeps_good_ones(self, app):
        body = {"requests": [solve_body(seed=0), {"solver": "greedy"}]}
        status, payload = app.handle(
            "POST", "/v1/solve-batch", body=json.dumps(body).encode())
        assert status == 200
        first, second = payload["items"]
        assert first["status"] == "done"
        assert second["status"] == "rejected"
        assert second["http_status"] == 400

    def test_sync_timeout_returns_504_with_pollable_job(self, tmp_path):
        app = create_app(store=tmp_path / "serve.db",
                         config=quick_config(request_timeout_s=0.05),
                         start_workers=False)
        try:
            status, payload = app.handle(
                "POST", "/v1/solve",
                body=json.dumps(solve_body()).encode())
            assert status == 504
            assert payload["poll"] == f"/v1/jobs/{payload['job_id']}"
            status, job_payload = app.handle("GET", payload["poll"])
            assert status == 200
            assert job_payload["status"] == "queued"
        finally:
            app.close(timeout=5.0)

    def test_queue_bound_maps_to_429(self, tmp_path):
        app = create_app(store=tmp_path / "serve.db",
                         config=quick_config(max_queue=1),
                         start_workers=False)
        try:
            body = json.dumps(solve_body(seed=0, mode="async")).encode()
            status, _ = app.handle("POST", "/v1/solve", body=body)
            assert status == 202
            body = json.dumps(solve_body(seed=1, mode="async")).encode()
            status, payload = app.handle("POST", "/v1/solve", body=body)
            assert status == 429
            assert "full" in payload["error"]
        finally:
            app.close(timeout=5.0)

    def test_tenant_priority_and_error_validation(self, app):
        status, payload = app.handle(
            "POST", "/v1/solve",
            headers={"x-tenant": "team/alpha"},
            body=json.dumps(solve_body()).encode())
        assert status == 400 and "tenant" in payload["error"]
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body(priority="urgent")).encode())
        assert status == 400 and "priority" in payload["error"]
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body(solver="nope")).encode())
        assert status == 400
        status, payload = app.handle("POST", "/v1/solve", body=b"{oops")
        assert status == 400 and "JSON" in payload["error"]

    @pytest.mark.parametrize("solver, config, accepted", [
        ("cp", {"use_engine": False}, "k_clusters, round_to"),
        ("local-search", {"acceptance": "best"},
         "restarts, seed, max_moves_without_improvement"),
        ("mip", {"backend": "bnb"},
         "k_clusters, round_to, node_limit, initial_random_plans, seed"),
    ], ids=["cp-use_engine", "local-search-acceptance", "mip-backend"])
    def test_unknown_config_field_is_400_listing_accepted_fields(
            self, app, solver, config, accepted):
        body = solve_body(solver=solver, config=config)
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert next(iter(config)) in payload["error"]
        assert f"accepted fields: {accepted}" in payload["error"]

    @pytest.mark.parametrize("budget", [
        {"time_limit_s": "5"}, {"time_limit_s": True},
        {"time_limit_s": -1.0}, {"max_iterations": "300"},
        {"max_iterations": 2.5}, {"max_iterations": -1},
        {"max_iterations": False}, {"target_cost": "low"},
    ], ids=lambda budget: "-".join(f"{k}={v!r}" for k, v in budget.items()))
    def test_malformed_budget_is_400_before_any_solve(self, app, budget):
        status, payload = app.handle(
            "POST", "/v1/solve",
            body=json.dumps(solve_body(budget=budget)).encode())
        assert status == 400
        assert next(iter(budget)) in payload["error"]
        assert app.metrics.solver_invocations == 0

    @pytest.mark.parametrize("budget", [
        {}, {"target_cost": 1.0}, {"workers": 2}, {"peek_block": 8},
    ], ids=["empty", "target-cost-only", "workers-only", "peek-block-only"])
    def test_budget_without_a_stopping_limit_is_400_before_any_solve(
            self, app, budget):
        # G1 is a one-shot construction, so a budget the service let
        # through would show up as a 200, not as a pinned worker.
        body = solve_body(solver="g1", config={}, budget=budget)
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert payload["status"] == 400
        assert "'time_limit_s'" in payload["error"]
        assert "'max_iterations'" in payload["error"]
        assert app.metrics.solver_invocations == 0

    @pytest.mark.parametrize("solver", [None, "mip"],
                             ids=["no-solver", "mip"])
    def test_solver_above_its_node_ceiling_is_400_before_any_solve(
            self, app, oversized_dag_problem, solver):
        body = SolveRequest(problem=oversized_dag_problem,
                            budget=SearchBudget.seconds(2.0)).to_dict()
        if solver is None:
            body.pop("solver")
        else:
            body["solver"] = solver
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert "at most 64 nodes" in payload["error"]
        assert "solvers that fit: " in payload["error"]
        assert app.metrics.solver_invocations == 0

    @pytest.mark.parametrize("solver, field, token", [
        ("r2", "budget", b'{"time_limit_s": NaN}'),
        ("annealing", "budget", b'{"time_limit_s": Infinity}'),
        ("r1", "config", b'{"num_samples": NaN}'),
    ], ids=["r2-nan-time-limit", "annealing-infinite-time-limit",
            "r1-nan-samples"])
    def test_non_finite_json_tokens_are_400_and_never_pin_a_worker(
            self, app, solver, field, token):
        body = solve_body(solver=solver, mode="async")
        body.pop("budget")
        body.pop("config")
        raw = json.dumps(body).encode()
        raw = raw[:-1] + b', "' + field.encode() + b'": ' + token + b"}"
        status, payload = app.handle("POST", "/v1/solve", body=raw)
        assert status == 400
        assert "not valid JSON" in payload["error"]
        assert app.metrics.solver_invocations == 0
        # The single worker is free: a later request completes.
        status, payload = app.handle("POST", "/v1/solve", body=json.dumps(
            solve_body(solver="r1", config={"num_samples": 20, "seed": 1},
                       budget=None)).encode())
        assert status == 200
        assert payload["response"]["status"] == "ok"

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0],
                             ids=["inf", "nan", "negative"])
    def test_infinite_cost_is_400_before_any_solve(self, app, value):
        body = solve_body()
        matrix = np.frombuffer(_matrix_bytes(body)).reshape(7, 7).copy()
        matrix[0, 1] = value  # in the encoded bytes, not a JSON token
        body["problem"]["costs"]["matrix"] = encode_matrix(matrix)
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert "non-negative and finite" in payload["error"]
        assert app.metrics.solver_invocations == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_malformed_cost_matrix_is_400_before_any_solve(self, app, case):
        body = solve_body()
        costs = body["problem"]["costs"]
        costs["matrix"] = MALFORMED_MATRICES[case](body)
        with pytest.raises(InvalidCostMatrixError) as raised:
            CostMatrix.from_dict(json.loads(json.dumps(costs)))
        if case == "nested-list":
            assert "base64" in str(raised.value)
            assert "float64" in str(raised.value)
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert str(raised.value) in payload["error"]
        assert app.metrics.solver_invocations == 0

    def test_version_1_problem_is_400_by_its_version(self, app):
        body = solve_body()
        assert body["problem"]["version"] == 2
        # A version-1 problem: nested float lists under version 1.
        body["problem"]["version"] = 1
        costs = body["problem"]["costs"]
        costs["matrix"] = MALFORMED_MATRICES["nested-list"](body)
        with pytest.raises(InvalidCostMatrixError, match="base64"):
            CostMatrix.from_dict(json.loads(json.dumps(costs)))
        status, payload = app.handle("POST", "/v1/solve",
                                     body=json.dumps(body).encode())
        assert status == 400
        assert "unsupported problem schema version 1" in payload["error"]
        assert app.metrics.solver_invocations == 0

    @pytest.mark.parametrize("body", [
        b"[" * 5000, b"[" * 100000, b'{"a": ' * 100000,
    ], ids=["list-5000", "list-100000", "object-100000"])
    def test_deeply_nested_body_is_400(self, app, body):
        status, payload = app.handle("POST", "/v1/solve", body=body)
        assert status == 400
        assert payload["error"].startswith("request body is not valid JSON")
        assert app.metrics.solver_invocations == 0

    def test_tenant_header_lands_on_the_job(self, app):
        status, payload = app.handle(
            "POST", "/v1/solve", headers={"x-tenant": "acme"},
            body=json.dumps(solve_body()).encode())
        assert status == 200
        assert payload["tenant"] == "acme"

    def test_unknown_routes_and_methods(self, app):
        assert app.handle("GET", "/v1/nope")[0] == 404
        assert app.handle("DELETE", "/v1/solve")[0] == 405
        assert app.handle("GET", "/v1/jobs/job-missing-000001")[0] == 404

    def test_drain_flips_health_and_refuses_work(self, app):
        assert app.handle("GET", "/healthz")[0] == 200
        assert app.drain(timeout=5.0)
        status, payload = app.handle("GET", "/healthz")
        assert status == 503 and payload["status"] == "draining"
        status, _ = app.handle(
            "POST", "/v1/solve", body=json.dumps(solve_body()).encode())
        assert status == 503

    def test_metrics_snapshot_covers_every_layer(self, app):
        app.handle("POST", "/v1/solve",
                   body=json.dumps(solve_body()).encode())
        status, payload = app.handle("GET", "/metrics")
        assert status == 200
        assert payload["service"]["solver_invocations"] == 1
        assert payload["service"]["served_by_tenant"] == {"public": 1}
        assert payload["scheduler"]["dequeued"] == 1
        assert payload["session"]["requests"] >= 1
        assert "engine_cache" in payload["session"]
        assert payload["store"]["writes"] == 1
        assert payload["service"]["latency"]["count"] == 1

    def test_solvers_catalog_matches_registry(self, app):
        status, payload = app.handle("GET", "/v1/solvers")
        assert status == 200
        keys = {entry["key"] for entry in payload["solvers"]}
        assert {"cp", "mip", "greedy", "local-search"} <= keys
        sample = payload["solvers"][0]
        assert {"key", "summary", "objectives", "supports_warm_start",
                "config_fields"} <= set(sample)


class TestHistoryEndpoints:
    def _populate(self, app, runs=3):
        problem = make_problem()
        policy = WatchPolicy(solver="local-search", config={"seed": 3},
                             budget=SearchBudget(max_iterations=200))
        for _ in range(runs):
            app.session.watch(problem, [], policy)
        return problem

    def test_history_is_paginated_newest_first(self, app):
        self._populate(app, runs=3)
        status, payload = app.handle("GET", "/v1/history",
                                     query_string="limit=2")
        assert status == 200
        assert payload["total"] == 3
        assert len(payload["items"]) == 2
        assert payload["next_offset"] == 2
        run_ids = [item["run_id"] for item in payload["items"]]
        assert run_ids == sorted(run_ids, reverse=True)
        status, payload = app.handle("GET", "/v1/history",
                                     query_string="limit=2&offset=2")
        assert len(payload["items"]) == 1
        assert payload["next_offset"] is None

    def test_history_filters_by_root_fingerprint(self, app):
        problem = self._populate(app, runs=1)
        status, payload = app.handle(
            "GET", "/v1/history",
            query_string=f"root={problem.fingerprint()}")
        assert status == 200 and payload["total"] == 1
        status, payload = app.handle("GET", "/v1/history",
                                     query_string="root=deadbeef")
        assert payload["total"] == 0

    def test_history_run_detail_and_404(self, app):
        self._populate(app, runs=1)
        status, listing = app.handle("GET", "/v1/history")
        run_id = listing["items"][0]["run_id"]
        status, payload = app.handle("GET", f"/v1/history/{run_id}")
        assert status == 200
        assert payload["run_id"] == run_id
        assert payload["events"][0]["reason"] == "initial"
        assert app.handle("GET", "/v1/history/99999")[0] == 404

    def test_history_without_store_is_503(self):
        app = create_app(config=quick_config())
        try:
            status, payload = app.handle("GET", "/v1/history")
            assert status == 503
            assert "store" in payload["error"]
        finally:
            app.close(timeout=5.0)

    def test_bad_pagination_params_are_400(self, app):
        assert app.handle("GET", "/v1/history",
                          query_string="limit=0")[0] == 400
        assert app.handle("GET", "/v1/history",
                          query_string="offset=-1")[0] == 400
        assert app.handle("GET", "/v1/history",
                          query_string="limit=banana")[0] == 400


@pytest.fixture(scope="module")
def mesh_1000_body() -> bytes:
    """An n = 1000 mesh solve body over m = 1100 instances."""
    problem = DeploymentProblem(CommunicationGraph.mesh_2d(25, 40),
                                deterministic_cost_matrix(1100, seed=2))
    request = SolveRequest(problem=problem, solver="local-search",
                           budget=SearchBudget(max_iterations=10))
    return json.dumps(dict(request.to_dict(), mode="async")).encode()


class TestHttpTransport:
    """The real socket path: ThreadingHTTPServer on a loopback port."""

    @pytest.fixture
    def serve(self, tmp_path):
        """Start servers on demand: ``serve(start_workers=..., **config)``."""
        running = []

        def start(start_workers=True, **overrides):
            app = create_app(store=tmp_path / f"serve-{len(running)}.db",
                             config=quick_config(**overrides),
                             start_workers=start_workers)
            server = create_server(app, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            running.append((server, app))
            return f"http://127.0.0.1:{server.server_address[1]}", app

        yield start
        for server, app in running:
            server.shutdown()
            server.server_close()
            app.close(timeout=5.0)

    @pytest.fixture
    def service(self, serve):
        return serve()

    @staticmethod
    def _connection(base) -> http.client.HTTPConnection:
        host, port = base.rsplit("/", 1)[1].split(":")
        return http.client.HTTPConnection(host, int(port), timeout=30)

    def _call(self, base, path, body=None, headers=None, method=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            base + path, data=data, headers=headers or {}, method=method)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_health_solve_and_metrics_over_http(self, service):
        base, app = service
        status, payload = self._call(base, "/healthz")
        assert status == 200 and payload["status"] == "ok"

        status, payload = self._call(base, "/v1/solve", body=solve_body(),
                                     headers={"x-tenant": "edge"})
        assert status == 200
        assert payload["source"] == "solver"
        assert payload["tenant"] == "edge"
        cost = payload["response"]["result"]["cost"]

        # The identical request again: served from the durable store.
        status, payload = self._call(base, "/v1/solve", body=solve_body())
        assert status == 200
        assert payload["source"] == "store"
        assert payload["response"]["result"]["cost"] == cost

        status, payload = self._call(base, "/metrics")
        assert status == 200
        assert payload["service"]["solver_invocations"] == 1
        assert payload["service"]["store_hits"] == 1

    def test_concurrent_identical_posts_coalesce_over_http(self, service):
        base, app = service
        # A slow filler occupies the single worker, so both async posts
        # are still queued when the second arrives and must coalesce.
        filler = solve_body(seed=9, mode="async",
                            budget=SearchBudget(max_iterations=40000).to_dict())
        status, _ = self._call(base, "/v1/solve", body=filler)
        assert status == 202

        twin = solve_body(seed=1, mode="async")
        results = []

        def post():
            results.append(self._call(base, "/v1/solve", body=twin))

        threads = [threading.Thread(target=post) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert [status for status, _ in results] == [202, 202]
        job_ids = {payload["job_id"] for _, payload in results}
        assert len(job_ids) == 1  # one shared job for both posts
        sources = sorted(payload["source"] for _, payload in results)
        assert sources == ["coalesced", "solver"]

        poll = f"/v1/jobs/{job_ids.pop()}"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, payload = self._call(base, poll)
            if payload["status"] == "done":
                break
            time.sleep(0.1)
        assert payload["status"] == "done"
        assert payload["attached"] == 2

    def test_http_error_paths(self, service):
        base, _ = service
        status, payload = self._call(base, "/v1/nope")
        assert status == 404
        status, payload = self._call(base, "/v1/solve", body={"bad": 1})
        assert status == 400
        status, payload = self._call(base, "/v1/solve", method="DELETE")
        assert status == 405

    def test_keep_alive_responses_do_not_stall(self, service):
        # urllib opens a connection per call; only a reused connection
        # shows a response waiting on the client's delayed ACK (Nagle).
        base, _ = service
        conn = self._connection(base)
        timings = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                timings.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(timings) < 0.010, timings

    def test_n1000_request_fits_the_default_body_limit(self, serve,
                                                        mesh_1000_body):
        assert len(mesh_1000_body) < ServeConfig().max_body_bytes
        base, app = serve(start_workers=False)
        conn = self._connection(base)
        try:
            conn.request("POST", "/v1/solve", body=mesh_1000_body)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 202, payload
        assert payload["source"] == "solver"

    def test_over_limit_body_is_413_on_a_usable_connection(
            self, serve, mesh_1000_body):
        base, app = serve(start_workers=False, max_body_bytes=1 << 20)
        conn = self._connection(base)
        try:
            conn.request("POST", "/v1/solve", body=mesh_1000_body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert payload["status"] == 413
            assert "1048576-byte limit" in payload["error"]
            # The body was read off the socket, so the connection still
            # carries the next request.
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        assert app.metrics.solver_invocations == 0

    def test_stalled_and_idle_clients_are_dropped(self, serve, monkeypatch):
        # The stdlib default is no timeout at all: a client stalled
        # mid-body, or idle on a keep-alive connection, pins its thread.
        assert 0 < AdvisorRequestHandler.timeout <= 60
        monkeypatch.setattr(AdvisorRequestHandler, "timeout", 0.2)
        base, _ = serve()
        address = ("127.0.0.1", int(base.rsplit(":", 1)[1]))
        before = set(threading.enumerate())
        stalled = socket.create_connection(address)
        stalled.sendall(b"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Length: 1000\r\n\r\n[1, 2")
        idle = socket.create_connection(address)
        for client in (stalled, idle):
            client.settimeout(10.0)
            try:
                assert client.recv(1024) == b""  # the server hung up
            finally:
                client.close()
        for thread in set(threading.enumerate()) - before:
            thread.join(5.0)
            assert not thread.is_alive(), thread.name
        status, payload = self._call(base, "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_malformed_content_length_closes_the_connection(self, service):
        base, _ = service
        address = ("127.0.0.1", int(base.rsplit(":", 1)[1]))
        with socket.create_connection(address, timeout=10.0) as client:
            client.sendall(b"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
                           b"Content-Length: twelve\r\n\r\n{}")
            response = b""
            while True:
                chunk = client.recv(4096)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "malformed Content-Length header"


class TestServeCli:
    def test_cli_wires_store_and_config(self, tmp_path, monkeypatch):
        from repro import cli

        captured = {}

        def fake_serve(app, host, port, quiet=True, ready_message=None):
            captured["app"] = app
            captured["host"] = host
            captured["port"] = port
            captured["ready"] = ready_message
            app.close(timeout=5.0)
            return 0

        monkeypatch.setattr("repro.serve.serve_until_signal", fake_serve)
        code = cli.main([
            "serve", "--store", str(tmp_path / "cli.db"),
            "--workers", "3", "--port", "8123", "--queue-size", "7",
            "--tenant-weight", "gold=2.5",
        ])
        assert code == 0
        app = captured["app"]
        assert captured["port"] == 8123
        assert app.config.workers == 3
        assert app.config.max_queue == 7
        assert app.config.tenant_weights == {"gold": 2.5}
        assert isinstance(app.store, SQLiteResultCache)
        assert "8123" in captured["ready"]

    def test_cli_rejects_bad_tenant_weight(self, capsys):
        from repro import cli

        code = cli.main(["serve", "--tenant-weight", "goldtwo"])
        assert code == 2
        assert "tenant-weight" in capsys.readouterr().err
