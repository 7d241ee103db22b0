"""Service telemetry: counters and latency percentiles for ``/metrics``.

Everything here is in-process and lock-guarded; the ``/metrics`` endpoint
serialises one consistent snapshot as JSON.  The snapshot stitches
together the layers' own telemetry rather than duplicating it: queue
depths and coalescing counters come from the scheduler, compile/cache hit
rates from :meth:`repro.api.SessionStats.to_dict`, store hit/miss/write
counters from the result store, and this module adds what only the HTTP
layer can see — per-route request counts, per-tenant served counts, how
each response was produced (solver run, store hit, coalesced wait), and
end-to-end latency percentiles.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Deque, Dict

#: Default bound on the latency reservoir (most recent samples kept).
DEFAULT_RESERVOIR = 2048

#: Percentiles exported by the metrics snapshot.
LATENCY_PERCENTILES = (0.5, 0.9, 0.99)


class LatencyReservoir:
    """Sliding window of the most recent request latencies.

    A bounded deque rather than a decaying sample: the service wants
    "latency lately", and a few thousand samples bound both memory and
    the cost of the sorted percentile scan.
    """

    def __init__(self, max_samples: int = DEFAULT_RESERVOIR):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._total = 0.0

    def record(self, latency_s: float) -> None:
        """Add one end-to-end latency sample (seconds)."""
        self._samples.append(float(latency_s))
        self._count += 1
        self._total += float(latency_s)

    def to_dict(self) -> Dict:
        """Count, mean and the exported percentiles (seconds).

        The window is sorted once per snapshot; each percentile ``q`` is
        the nearest-rank sample at index ``round(q * (len - 1))``, and
        ``None`` while the window is empty.
        """
        mean = self._total / self._count if self._count else None
        ordered = sorted(self._samples)
        last = len(ordered) - 1
        return {
            "count": self._count,
            "mean_s": mean,
            **{f"p{int(q * 100)}_s":
               ordered[min(last, max(0, round(q * last)))] if ordered else None
               for q in LATENCY_PERCENTILES},
        }


class ServiceMetrics:
    """Thread-safe counters of the HTTP serving layer."""

    def __init__(self, max_latency_samples: int = DEFAULT_RESERVOIR):
        self._lock = threading.Lock()
        self._requests: Counter = Counter()
        self._statuses: Counter = Counter()
        self._tenants: Counter = Counter()
        self._sources: Counter = Counter()
        self._solver_invocations = 0
        self._solver_errors = 0
        self._store_hits = 0
        self._latency = LatencyReservoir(max_latency_samples)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_request(self, route: str, status: int) -> None:
        """Count one HTTP request against its route and status code."""
        with self._lock:
            self._requests[route] += 1
            self._statuses[str(status)] += 1

    def record_served(self, tenant: str, source: str,
                      latency_s: float) -> None:
        """Count one answered solve: tenant, production path, latency."""
        with self._lock:
            self._tenants[tenant] += 1
            self._sources[source] += 1
            self._latency.record(latency_s)

    def record_solver_run(self, error: bool = False) -> None:
        """Count one worker-executed solver invocation."""
        with self._lock:
            self._solver_invocations += 1
            if error:
                self._solver_errors += 1

    def record_store_hit(self) -> None:
        """Count one submit-time persistent-store short-circuit."""
        with self._lock:
            self._store_hits += 1

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    @property
    def solver_invocations(self) -> int:
        """Worker-executed solver runs so far (the dedup acceptance metric)."""
        with self._lock:
            return self._solver_invocations

    @property
    def store_hits(self) -> int:
        """Submit-time store short-circuits so far."""
        with self._lock:
            return self._store_hits

    def to_dict(self) -> Dict:
        """JSON-serializable snapshot of the HTTP-layer counters."""
        with self._lock:
            return {
                "requests": dict(self._requests),
                "responses_by_status": dict(self._statuses),
                "served_by_tenant": dict(self._tenants),
                "served_by_source": dict(self._sources),
                "solver_invocations": self._solver_invocations,
                "solver_errors": self._solver_errors,
                "store_hits": self._store_hits,
                "latency": self._latency.to_dict(),
            }
