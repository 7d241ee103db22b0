"""Metric catalogue: every reported name, its unit, and how it is computed.

``BENCHMARK.json`` lists exactly these names; a test keeps the two equal.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import common
import tracing

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "plan_gain": ("frac", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Per-layer self/wait times per timed op: name -> (span names, field).
#: ``self`` is self wall time, ``wait`` self wall minus self thread CPU,
#: ``wall`` the whole span (synthetic spans such as queue waits).
TIMES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "serve.handle_ms": (("serve.handle",), "self"),
    "serve.handle_wait_ms": (("serve.handle",), "wait"),
    "serve.submit_ms": (("serve.submit",), "self"),
    "serve.queue_wait_ms": (("serve.queue_wait",), "wall"),
    "serve.worker_ms": (("serve.worker",), "self"),
    "serve.worker_wait_ms": (("serve.worker",), "wait"),
    "schema.decode_ms": (("schema.decode",), "self"),
    "schema.encode_ms": (("schema.encode",), "self"),
    "session.prepare_ms": (("session.prepare",), "self"),
    "session.self_ms": (("session.solve",), "self"),
    "session.watch_self_ms": (("session.watch",), "self"),
    "problem.fingerprint_ms": (("problem.fingerprint",), "self"),
    "problem.revise_ms": (("problem.revise",), "self"),
    "problem.check_plan_ms": (("problem.check_plan",), "self"),
    "evaluation.compile_ms": (("evaluation.compile",), "self"),
    "evaluation.refresh_ms": (("evaluation.refresh",), "self"),
    "evaluation.batch_ms": (("evaluation.batch",), "self"),
    "evaluation.peek_ms": (("evaluation.peek",), "self"),
    "evaluation.peek_many_ms": (("evaluation.peek_many",), "self"),
    "evaluation.commit_ms": (("evaluation.commit",), "self"),
    **{f"solvers.{key}_ms": ((f"solvers.{key}",), "self")
       for key in ("local_search", "annealing", "greedy", "g1", "r1", "cp",
                   "mip")},
    "solvers.cp.clustering_ms": (("solvers.cp.clustering",), "self"),
    "solvers.cp.search_ms": (("solvers.cp.search",), "self"),
    "solvers.cp.matching_ms": (("solvers.cp.matching",), "self"),
    "store.get_ms": (("store.get",), "self"),
    "store.put_ms": (("store.put",), "self"),
    "store.put_wait_ms": (("store.put",), "wait"),
    "store.telemetry_ms": (("store.telemetry",), "self"),
    "store.history_ms": (("store.history",), "self"),
    "stream.fold_ms": (("stream.fold",), "self"),
}

#: Counts and ratios read from the untraced pass (program counters,
#: responses, reports), or recorded at traced boundaries (``batch_plans``).
COUNTS: Dict[str, Tuple[str, str]] = {
    "serve.store_served": ("count", "higher"),
    "serve.coalesced": ("count", "higher"),
    "serve.solver_runs": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "schema.request_kb": ("KiB", "lower"),
    "session.compile_hit_rate": ("frac", "higher"),
    "session.watch_held": ("count", "higher"),
    "session.watch_resolves": ("count", "lower"),
    "session.watch_store_hits": ("count", "higher"),
    "evaluation.compiles": ("count", "lower"),
    "evaluation.compile_cache_hit_rate": ("frac", "higher"),
    "evaluation.refreshes": ("count", "higher"),
    "evaluation.batch_plans": ("count", "lower"),
    "evaluation.peeks": ("count", "lower"),
    "evaluation.peek_many_calls": ("count", "lower"),
    "evaluation.peeked_moves": ("count", "lower"),
    "evaluation.commits": ("count", "lower"),
    "evaluation.peek_useful_frac": ("frac", "higher"),
    "solvers.iterations": ("count", "higher"),
    "store.gets": ("count", "lower"),
    "store.puts": ("count", "lower"),
    "store.hit_rate": ("frac", "higher"),
    "stream.folds": ("count", "higher"),
    "stream.absorbed": ("count", "higher"),
    "parallel.pool_calls": ("count", "lower"),
    "failed_frac": ("frac", "lower"),
}

#: Per-layer metrics derived from both passes.
DERIVED: Dict[str, Tuple[str, str]] = {
    "serve.worker_busy_frac": ("frac", "lower"),
    "trace.untraced_rps": ("1/s", "higher"),
    "trace.traced_rps": ("1/s", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def per_layer_catalogue() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    rows = [(name, "ms", "lower") for name in TIMES]
    rows += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    rows += [(name, unit, better)
             for name, (unit, better) in DERIVED.items()]
    return rows


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, run) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of one untraced pass."""
    latencies = [seconds for seconds, _ in run.samples]
    values = {
        "setup_s": setup_s,
        "latency_p50_ms": common.percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": common.percentile(latencies, 90) * 1000.0,
        "throughput_rps": run.throughput_rps,
        "plan_gain": statistics.fmean(run.gains) if run.gains else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {name: _metric(values[name], unit)
            for name, (unit, _) in END_TO_END.items()}


def per_layer(untraced, traced) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics: times from the traced pass, counts untraced."""
    low, high = traced.window
    layers = tracing.layer_times(span for span in traced.spans
                                 if low <= span[3] and span[4] <= high)
    ops = len(traced.samples)
    values: Dict[str, float] = {}
    for name, (span_names, fld) in TIMES.items():
        total = sum(layers[span][fld] for span in span_names
                    if span in layers)
        values[name] = total * 1000.0 / ops
    for name in COUNTS:
        values[name] = untraced.counts.get(name, 0)
    values["evaluation.batch_plans"] = layers.get(
        "evaluation.batch", {}).get("work", 0)
    values["failed_frac"] = untraced.failed / untraced.attempted
    busy = layers.get("serve.worker", {}).get("wall", 0.0)
    values["serve.worker_busy_frac"] = busy / (traced.workers
                                               * traced.elapsed_s)
    values["trace.untraced_rps"] = untraced.throughput_rps
    values["trace.traced_rps"] = traced.throughput_rps
    values["trace.overhead_frac"] = (1.0 - traced.throughput_rps
                                     / untraced.throughput_rps)
    return {name: _metric(values[name], unit)
            for name, unit, _ in per_layer_catalogue()}
