"""The fair scheduler: priorities, deficit round-robin, coalescing,
back-pressure, the job table, and the metrics reservoir."""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.api import AdvisorSession, SolveRequest, WatchPolicy
from repro.core import CommunicationGraph, DeploymentProblem
from repro.core.errors import ClouDiAError
from repro.serve import (
    PRIORITY_BATCH,
    PRIORITY_DRIFT,
    PRIORITY_INTERACTIVE,
    FairScheduler,
    Job,
    JobTable,
    LatencyReservoir,
    QueueFullError,
    SchedulerClosedError,
    coalesce_key,
    parse_priority,
)
from repro.solvers import SearchBudget
from repro.solvers.registry import default_registry
from repro.testing import deterministic_cost_matrix


def make_problem(seed=0):
    return DeploymentProblem(CommunicationGraph.ring(5),
                             deterministic_cost_matrix(7, seed=seed))


def request_body(**budget):
    """A local-search request body with extra budget keys."""
    return {"problem": make_problem(5).to_dict(),
            "solver": "local-search", "config": {"seed": 3},
            "budget": dict({"max_iterations": 300}, **budget)}


def request_keys(**budget):
    """The coalesce key and the store tag of :func:`request_body`."""
    request = SolveRequest.from_dict(
        json.loads(json.dumps(request_body(**budget))))
    policy = WatchPolicy(solver=request.solver, config=request.config,
                         budget=request.budget)
    return (coalesce_key(default_registry, request),
            AdvisorSession._solver_cache_tag(request.solver, policy))


def make_job(scheduler, tenant="public", priority=PRIORITY_INTERACTIVE,
             seed=0, solver="local-search", config=None):
    request = SolveRequest(problem=make_problem(seed), solver=solver,
                           config=config or {})
    fingerprint, tag = coalesce_key(default_registry, request)
    return Job(job_id=scheduler.new_job_id(), tenant=tenant,
               priority=priority, request=request,
               fingerprint=fingerprint, cache_tag=tag)


def drain(scheduler):
    jobs = []
    while True:
        job = scheduler.next_job(timeout=0)
        if job is None:
            return jobs
        job.finish()
        scheduler.complete(job)
        jobs.append(job)


class TestPriorities:
    def test_parse_priority_names_and_ints(self):
        assert parse_priority("drift") == PRIORITY_DRIFT
        assert parse_priority("interactive") == PRIORITY_INTERACTIVE
        assert parse_priority("batch") == PRIORITY_BATCH
        assert parse_priority(None, PRIORITY_BATCH) == PRIORITY_BATCH
        assert parse_priority(0) == PRIORITY_DRIFT
        with pytest.raises(ClouDiAError):
            parse_priority("urgent")
        with pytest.raises(ClouDiAError):
            parse_priority(7)

    def test_drift_resolve_preempts_earlier_batch_backfill(self):
        # The acceptance scenario: batch jobs are queued first, a drift
        # re-solve arrives later — and is still dequeued first.
        scheduler = FairScheduler()
        batch = [make_job(scheduler, priority=PRIORITY_BATCH, seed=index)
                 for index in range(3)]
        for job in batch:
            scheduler.submit(job)
        interactive = make_job(scheduler, priority=PRIORITY_INTERACTIVE,
                               seed=10)
        drift = make_job(scheduler, priority=PRIORITY_DRIFT, seed=11)
        scheduler.submit(interactive)
        scheduler.submit(drift)

        order = drain(scheduler)
        assert order[0] is drift
        assert order[1] is interactive
        assert order[2:] == batch

    def test_priority_classes_drain_in_order(self):
        scheduler = FairScheduler()
        jobs = {}
        for priority in (PRIORITY_BATCH, PRIORITY_DRIFT,
                         PRIORITY_INTERACTIVE):
            jobs[priority] = make_job(scheduler, priority=priority,
                                      seed=priority)
            scheduler.submit(jobs[priority])
        order = [job.priority for job in drain(scheduler)]
        assert order == sorted(order)


class TestFairness:
    def test_two_tenant_flood_interleaves(self):
        # Tenant "whale" floods the queue before "minnow" submits at all;
        # round-robin still alternates them, so the minnow's 5 jobs are
        # all served within the first 10 dequeues instead of waiting
        # behind the whale's 20.
        scheduler = FairScheduler(max_queue=100)
        for index in range(20):
            scheduler.submit(make_job(scheduler, tenant="whale", seed=index))
        for index in range(5):
            scheduler.submit(make_job(scheduler, tenant="minnow",
                                      seed=100 + index))
        first_ten = [scheduler.next_job(timeout=0).tenant
                     for _ in range(10)]
        assert first_ten.count("minnow") == 5
        assert first_ten.count("whale") == 5

    def test_weighted_tenant_gets_proportional_share(self):
        scheduler = FairScheduler(max_queue=100,
                                  tenant_weights={"gold": 2.0})
        for index in range(12):
            scheduler.submit(make_job(scheduler, tenant="gold", seed=index))
            scheduler.submit(make_job(scheduler, tenant="basic",
                                      seed=100 + index))
        first_nine = [scheduler.next_job(timeout=0).tenant
                      for _ in range(9)]
        # Weight 2 vs 1: gold is served twice per cycle.
        assert first_nine.count("gold") == 6
        assert first_nine.count("basic") == 3

    def test_fractional_weight_throttles_tenant(self):
        scheduler = FairScheduler(max_queue=100,
                                  tenant_weights={"slow": 0.5})
        for index in range(6):
            scheduler.submit(make_job(scheduler, tenant="slow", seed=index))
            scheduler.submit(make_job(scheduler, tenant="fast",
                                      seed=100 + index))
        first_six = [scheduler.next_job(timeout=0).tenant for _ in range(6)]
        assert first_six.count("fast") == 4
        assert first_six.count("slow") == 2

    def test_drained_tenant_loses_residual_credit(self):
        scheduler = FairScheduler(max_queue=100,
                                  tenant_weights={"burst": 5.0})
        scheduler.submit(make_job(scheduler, tenant="burst", seed=0))
        scheduler.submit(make_job(scheduler, tenant="steady", seed=1))
        assert scheduler.next_job(timeout=0).tenant == "burst"
        # The burst tenant drained; its 4 leftover credits must not let a
        # later submission jump the steady tenant.
        scheduler.submit(make_job(scheduler, tenant="burst", seed=2))
        remaining = [scheduler.next_job(timeout=0).tenant for _ in range(2)]
        assert "steady" in remaining

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            FairScheduler(tenant_weights={"t": 0.0})
        with pytest.raises(ValueError):
            FairScheduler(default_weight=-1.0)
        with pytest.raises(ValueError):
            FairScheduler(max_queue=0)


class TestCoalescing:
    def test_identical_submissions_share_one_job(self):
        scheduler = FairScheduler()
        first = make_job(scheduler, seed=5)
        second = make_job(scheduler, seed=5)
        assert first.key == second.key
        job_a, coalesced_a = scheduler.submit(first)
        job_b, coalesced_b = scheduler.submit(second)
        assert not coalesced_a and coalesced_b
        assert job_b is job_a
        assert job_a.attached == 2
        assert scheduler.stats.coalesced == 1
        # Only one job is actually queued.
        assert scheduler.depth() == 1

    def test_different_config_does_not_coalesce(self):
        scheduler = FairScheduler()
        first = make_job(scheduler, seed=5, config={"seed": 1})
        second = make_job(scheduler, seed=5, config={"seed": 2})
        assert first.key != second.key
        _, coalesced_a = scheduler.submit(first)
        _, coalesced_b = scheduler.submit(second)
        assert not coalesced_a and not coalesced_b
        assert scheduler.depth() == 2

    def test_leftover_budget_workers_key_shares_keys(self):
        """Stale ``"workers"`` and ``"peek_block"`` budget keys are ignored
        like any unknown key: the body coalesces with, and is served the
        stored result of, the same body without them."""
        assert request_keys(workers=2) == request_keys()
        assert request_keys(peek_block=8) == request_keys()
        assert request_keys(peek_block=8, workers=2) == request_keys()

    @pytest.mark.parametrize("workers", [
        None, "auto", 3, "procs", "procs:auto", "procs:4",
        "procs:", "procs:x", "procs:0", "procs:-1", "procs=2", "prox",
        "", 0, -2, 1.5,
    ])
    def test_every_former_workers_spec_is_ignored(self, workers):
        """Every value of the removed knob's grammar, the ones it accepted
        and the ones it rejected, now parses and is dropped."""
        budget = SolveRequest.from_dict(json.loads(json.dumps(
            request_body(workers=workers)))).budget
        assert budget == SearchBudget(max_iterations=300)
        assert "workers" not in budget.to_dict()
        assert request_keys(workers=workers) == request_keys()

    def test_running_job_still_coalesces_until_completed(self):
        scheduler = FairScheduler()
        primary = make_job(scheduler, seed=5)
        scheduler.submit(primary)
        running = scheduler.next_job(timeout=0)
        assert running is primary
        # Still in-flight (executing): an identical submission attaches.
        follower = make_job(scheduler, seed=5)
        job, coalesced = scheduler.submit(follower)
        assert coalesced and job is primary
        primary.finish()
        scheduler.complete(primary)
        # Retired: the next identical submission queues fresh.
        third = make_job(scheduler, seed=5)
        job, coalesced = scheduler.submit(third)
        assert not coalesced and job is third

    def test_urgent_twin_promotes_queued_job(self):
        # A drift-priority twin of a queued batch job must not wait at
        # batch priority: the queued job is re-filed under drift.
        scheduler = FairScheduler()
        blocker = make_job(scheduler, priority=PRIORITY_BATCH, seed=1)
        target = make_job(scheduler, priority=PRIORITY_BATCH, seed=2)
        scheduler.submit(blocker)
        scheduler.submit(target)
        twin = make_job(scheduler, priority=PRIORITY_DRIFT, seed=2)
        job, coalesced = scheduler.submit(twin)
        assert coalesced and job is target
        assert target.priority == PRIORITY_DRIFT
        # The promoted job jumps the earlier batch submission.
        assert scheduler.next_job(timeout=0) is target
        assert scheduler.next_job(timeout=0) is blocker

    def test_less_urgent_twin_does_not_demote(self):
        scheduler = FairScheduler()
        target = make_job(scheduler, priority=PRIORITY_INTERACTIVE, seed=2)
        scheduler.submit(target)
        twin = make_job(scheduler, priority=PRIORITY_BATCH, seed=2)
        job, coalesced = scheduler.submit(twin)
        assert coalesced and job is target
        assert target.priority == PRIORITY_INTERACTIVE

    def test_urgent_twin_of_running_job_is_a_noop(self):
        scheduler = FairScheduler()
        target = make_job(scheduler, priority=PRIORITY_BATCH, seed=2)
        scheduler.submit(target)
        assert scheduler.next_job(timeout=0) is target
        twin = make_job(scheduler, priority=PRIORITY_DRIFT, seed=2)
        job, coalesced = scheduler.submit(twin)
        assert coalesced and job is target
        # Already dequeued: execution cannot be expedited.
        assert target.priority == PRIORITY_BATCH

    def test_promotion_cleans_up_drained_priority_class(self):
        scheduler = FairScheduler()
        target = make_job(scheduler, priority=PRIORITY_BATCH, seed=2)
        scheduler.submit(target)
        scheduler.submit(make_job(scheduler, priority=PRIORITY_DRIFT,
                                  seed=2))
        assert target.priority == PRIORITY_DRIFT
        # The batch class's tenant bookkeeping was cleaned: later batch
        # submissions still schedule normally.
        later = make_job(scheduler, priority=PRIORITY_BATCH, seed=3)
        scheduler.submit(later)
        assert scheduler.next_job(timeout=0) is target
        assert scheduler.next_job(timeout=0) is later
        assert scheduler.next_job(timeout=0) is None

    def test_coalesced_waiters_all_wake(self):
        scheduler = FairScheduler()
        primary = make_job(scheduler, seed=5)
        scheduler.submit(primary)
        attached, _ = scheduler.submit(make_job(scheduler, seed=5))
        seen = []

        def wait():
            attached.wait(5.0)
            seen.append(attached.status)

        threads = [threading.Thread(target=wait) for _ in range(3)]
        for thread in threads:
            thread.start()
        job = scheduler.next_job(timeout=0)
        job.finish()
        scheduler.complete(job)
        for thread in threads:
            thread.join(5.0)
        assert seen == ["done", "done", "done"]


class TestBackpressure:
    def test_queue_bound_rejects(self):
        scheduler = FairScheduler(max_queue=2)
        scheduler.submit(make_job(scheduler, seed=0))
        scheduler.submit(make_job(scheduler, seed=1))
        with pytest.raises(QueueFullError):
            scheduler.submit(make_job(scheduler, seed=2))
        assert scheduler.stats.rejected == 1
        # Coalescing does not consume queue slots: an identical twin of a
        # queued job is accepted even at the bound.
        job, coalesced = scheduler.submit(make_job(scheduler, seed=1))
        assert coalesced

    def test_closed_scheduler_rejects_but_drains(self):
        scheduler = FairScheduler()
        queued = make_job(scheduler, seed=0)
        scheduler.submit(queued)
        scheduler.close()
        with pytest.raises(SchedulerClosedError):
            scheduler.submit(make_job(scheduler, seed=1))
        # Queued work still drains, then next_job signals exit with None.
        assert scheduler.next_job(timeout=0) is queued
        assert scheduler.next_job(timeout=0) is None

    def test_next_job_times_out_empty(self):
        scheduler = FairScheduler()
        assert scheduler.next_job(timeout=0.01) is None


class TestJobTable:
    def test_active_then_retire_then_lru_eviction(self):
        scheduler = FairScheduler()
        table = JobTable(max_finished=2)
        jobs = [make_job(scheduler, seed=index) for index in range(3)]
        for job in jobs:
            table.add(job)
        assert len(table) == 3
        for job in jobs:
            job.finish()
            table.retire(job)
        # Bounded LRU: the oldest finished job fell out.
        assert table.get(jobs[0].job_id) is None
        assert table.get(jobs[1].job_id) is jobs[1]
        assert table.get(jobs[2].job_id) is jobs[2]
        assert len(table) == 2

    def test_job_to_dict_roundtrips_status(self):
        scheduler = FairScheduler()
        job = make_job(scheduler, tenant="acme", priority=PRIORITY_DRIFT)
        payload = job.to_dict()
        assert payload["tenant"] == "acme"
        assert payload["priority"] == "drift"
        assert payload["status"] == "queued"
        assert "response" not in payload
        job.finish(error="boom")
        payload = job.to_dict()
        assert payload["status"] == "error"
        assert payload["error"] == "boom"


class TestLatencyReservoir:
    @pytest.mark.parametrize("stale, shuffled", [(0, False), (50, True)],
                             ids=["in-order", "wrapped-shuffled"])
    def test_percentiles_over_window(self, stale, shuffled):
        reservoir = LatencyReservoir(max_samples=100)
        for value in range(1000, 1000 + stale):  # evicted as the window wraps
            reservoir.record(float(value))
        window = [value / 100.0 for value in range(1, 101)]
        if shuffled:
            random.Random(5).shuffle(window)
        for value in window:
            reservoir.record(value)
        snapshot = reservoir.to_dict()
        assert snapshot["count"] == 100 + stale
        # Nearest rank: index round(q * 99) of the sorted window.
        assert snapshot["p50_s"] == 0.51
        assert snapshot["p90_s"] == 0.90
        assert snapshot["p99_s"] == 0.99

    def test_empty_reservoir_serialises_none(self):
        snapshot = LatencyReservoir().to_dict()
        assert snapshot["count"] == 0
        assert snapshot["p50_s"] is None
