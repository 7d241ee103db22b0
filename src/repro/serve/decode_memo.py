"""A bounded memo of decoded problems in front of the solve routes.

A tenant that re-submits a problem posts the same problem text again, and
decoding it — base64, graph construction, validation — costs more than
the rest of a store-served repeat together.  :class:`DecodeMemo` keys
each problem payload by a digest of its received text and hands a repeat
the :class:`~repro.core.problem.DeploymentProblem` decoded the first
time, with its cached fingerprint and the engine it owns.

The memo holds at most :data:`repro.api.session.ENGINE_CACHE_ENTRIES`
problems, least recently used evicted first: each one pins at most one
engine, so the bound matches the session's engine cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..api import session
from ..core.problem import DeploymentProblem


def payload_key(payload: Any) -> Optional[str]:
    """SHA-256 over a problem payload as received, or ``None``.

    The digest covers two length-framed parts: the JSON text of the
    payload, fields in received order, with ``costs.matrix`` set to
    ``null``, then the base64 matrix text itself.  Hashing the matrix
    text directly skips re-encoding the megabyte-scale string.  A payload
    whose matrix is not an ASCII string is keyed by its full JSON text in
    one frame.  Either way two payloads share a key only when they are
    identical, so they decode to equal problems.

    Returns ``None`` for a payload that is not a ``dict`` or has no JSON
    text; the caller decodes it without the memo.
    """
    if not isinstance(payload, dict):
        return None
    costs = payload.get("costs")
    matrix = costs.get("matrix") if isinstance(costs, dict) else None
    try:
        if isinstance(matrix, str) and matrix.isascii():
            parts = (json.dumps(dict(payload, costs=dict(costs, matrix=None))),
                     matrix)
        else:
            parts = (json.dumps(payload),)
    except (TypeError, ValueError, RecursionError):
        return None
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


class DecodeMemo:
    """Thread-safe LRU from :func:`payload_key` to the decoded problem."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._problems: "OrderedDict[str, DeploymentProblem]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def decode(self, payload: Any) -> DeploymentProblem:
        """The problem ``payload`` decodes to, decoded once per key.

        A miss decodes through
        :meth:`DeploymentProblem.from_dict <repro.core.problem.DeploymentProblem.from_dict>`
        and propagates its errors unchanged; only a problem that decoded
        enters the memo.
        """
        key = payload_key(payload)
        with self._lock:
            problem = None if key is None else self._problems.get(key)
            if problem is not None:
                self._problems.move_to_end(key)
                self._hits += 1
                return problem
            self._misses += 1
        problem = DeploymentProblem.from_dict(payload)
        if key is None:
            return problem
        with self._lock:
            # Concurrent decodes of one payload keep the first object, so
            # they share its fingerprint and engine.
            problem = self._problems.setdefault(key, problem)
            self._problems.move_to_end(key)
            while len(self._problems) > session.ENGINE_CACHE_ENTRIES:
                self._problems.popitem(last=False)
        return problem

    def to_dict(self) -> Dict[str, int]:
        """Hit, miss and size counters (the ``/metrics`` ``decode_memo``)."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "size": len(self._problems),
                    "max_entries": session.ENGINE_CACHE_ENTRIES}
