"""Pairwise communication cost matrices (Definition 1 in the paper).

A :class:`CostMatrix` stores ``CL(i, j)`` for every ordered pair of allocated
instances.  Costs may be asymmetric and need not obey the triangle
inequality.  The matrix is usually built from raw latency samples collected
by one of the measurement schemes in :mod:`repro.netmeasure`, aggregated
under one of the latency metrics of Sect. 3.2 (mean, mean plus standard
deviation, or the 99th percentile).
"""

from __future__ import annotations

import base64
import enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .clustering import cluster_costs
from .errors import InvalidCostMatrixError
from .types import InstanceId, Link


class LatencyMetric(enum.Enum):
    """How raw latency samples are summarised into a single link cost.

    Sect. 3.2 of the paper considers three candidate metrics and concludes
    experimentally (Sect. 6.4) that the mean is robust for the applications
    studied.
    """

    MEAN = "mean"
    MEAN_PLUS_STD = "mean_plus_std"
    P99 = "p99"

    def summarise(self, samples: Sequence[float]) -> float:
        """Collapse a list of round-trip samples into one cost value."""
        data = np.asarray(samples, dtype=float)
        if data.size == 0:
            raise InvalidCostMatrixError("cannot summarise an empty sample list")
        if self is LatencyMetric.MEAN:
            return float(data.mean())
        if self is LatencyMetric.MEAN_PLUS_STD:
            return float(data.mean() + data.std(ddof=0))
        return float(np.percentile(data, 99))


class CostMatrix:
    """Communication cost function ``CL`` over a set of allocated instances.

    The matrix is indexed by instance identifiers (arbitrary integers); an
    internal dense NumPy array holds the costs for fast vectorised queries.
    Diagonal entries are zero by convention (an instance talking to itself
    costs nothing), and the deployment plans produced by the library never
    use them because plans are injective.
    """

    def __init__(self, instance_ids: Sequence[InstanceId], matrix: np.ndarray):
        ids = list(instance_ids)
        if len(ids) != len(set(ids)):
            raise InvalidCostMatrixError("duplicate instance identifiers")
        array = np.asarray(matrix, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidCostMatrixError("cost matrix must be square")
        if array.shape[0] != len(ids):
            raise InvalidCostMatrixError(
                "cost matrix size does not match number of instances"
            )
        off_diag = array[~np.eye(len(ids), dtype=bool)]
        if off_diag.size and (not np.isfinite(off_diag).all()
                              or (off_diag < 0).any()):
            raise InvalidCostMatrixError("costs must be non-negative and finite")
        self._ids: Tuple[InstanceId, ...] = tuple(ids)
        self._index: Dict[InstanceId, int] = {inst: k for k, inst in enumerate(ids)}
        self._matrix = array.copy()
        np.fill_diagonal(self._matrix, 0.0)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_samples(cls, samples: Mapping[Link, Sequence[float]],
                     metric: LatencyMetric = LatencyMetric.MEAN,
                     instance_ids: Sequence[InstanceId] | None = None,
                     fill_missing: float | None = None) -> "CostMatrix":
        """Build a cost matrix from per-link latency samples.

        Args:
            samples: mapping from ordered instance pair to raw RTT samples.
            metric: how samples are summarised into a single cost.
            instance_ids: the instances to include; inferred from the sample
                keys when omitted.
            fill_missing: value used for links with no samples.  When
                ``None``, a missing directed link falls back to the reverse
                direction if available and otherwise raises.

        Raises:
            InvalidCostMatrixError: if a link has no samples and no fallback.
        """
        if instance_ids is None:
            inferred = sorted({i for pair in samples for i in pair})
            instance_ids = inferred
        ids = list(instance_ids)
        index = {inst: k for k, inst in enumerate(ids)}
        n = len(ids)
        matrix = np.zeros((n, n), dtype=float)
        summarised: Dict[Link, float] = {
            pair: metric.summarise(obs) for pair, obs in samples.items() if len(obs) > 0
        }
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                if (a, b) in summarised:
                    value = summarised[(a, b)]
                elif (b, a) in summarised:
                    value = summarised[(b, a)]
                elif fill_missing is not None:
                    value = fill_missing
                else:
                    raise InvalidCostMatrixError(
                        f"no latency samples for link ({a}, {b})"
                    )
                matrix[index[a], index[b]] = value
        return cls(ids, matrix)

    @classmethod
    def from_function(cls, instance_ids: Sequence[InstanceId],
                      cost_fn) -> "CostMatrix":
        """Build a matrix by evaluating ``cost_fn(i, j)`` on every ordered pair."""
        ids = list(instance_ids)
        n = len(ids)
        matrix = np.zeros((n, n), dtype=float)
        for a_idx, a in enumerate(ids):
            for b_idx, b in enumerate(ids):
                if a_idx != b_idx:
                    matrix[a_idx, b_idx] = float(cost_fn(a, b))
        return cls(ids, matrix)

    @classmethod
    def symmetric_from_upper(cls, instance_ids: Sequence[InstanceId],
                             upper: Mapping[Link, float]) -> "CostMatrix":
        """Build a symmetric matrix given costs for unordered pairs."""
        ids = list(instance_ids)
        index = {inst: k for k, inst in enumerate(ids)}
        n = len(ids)
        matrix = np.zeros((n, n), dtype=float)
        for (a, b), value in upper.items():
            matrix[index[a], index[b]] = value
            matrix[index[b], index[a]] = value
        return cls(ids, matrix)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def instance_ids(self) -> Tuple[InstanceId, ...]:
        """Instances covered by this matrix, in index order."""
        return self._ids

    @property
    def num_instances(self) -> int:
        """Number of instances."""
        return len(self._ids)

    def as_array(self) -> np.ndarray:
        """Dense copy of the underlying cost array."""
        return self._matrix.copy()

    def index_of(self, instance: InstanceId) -> int:
        """Dense-array index of an instance identifier."""
        try:
            return self._index[instance]
        except KeyError as exc:
            raise InvalidCostMatrixError(f"unknown instance {instance}") from exc

    def cost(self, i: InstanceId, j: InstanceId) -> float:
        """``CL(i, j)``: the cost of the directed link from ``i`` to ``j``."""
        return float(self._matrix[self.index_of(i), self.index_of(j)])

    def link_costs(self, include_diagonal: bool = False) -> np.ndarray:
        """All directed link costs as a flat array (diagonal excluded by default)."""
        if include_diagonal:
            return self._matrix.flatten()
        mask = ~np.eye(self.num_instances, dtype=bool)
        return self._matrix[mask]

    def links_sorted_by_cost(self) -> List[Tuple[Link, float]]:
        """All directed links sorted ascending by cost (ties broken by ids)."""
        entries = [
            ((a, b), float(self._matrix[ai, bi]))
            for ai, a in enumerate(self._ids)
            for bi, b in enumerate(self._ids)
            if ai != bi
        ]
        entries.sort(key=lambda item: (item[1], item[0]))
        return entries

    def max_cost(self) -> float:
        """Largest off-diagonal cost."""
        return float(self.link_costs().max())

    def min_cost(self) -> float:
        """Smallest off-diagonal cost."""
        return float(self.link_costs().min())

    def mean_cost(self) -> float:
        """Average off-diagonal cost."""
        return float(self.link_costs().mean())

    def distinct_costs(self, round_to: float | None = None) -> np.ndarray:
        """Sorted distinct off-diagonal cost values, optionally rounded."""
        values = self.link_costs()
        if round_to is not None and round_to > 0:
            values = np.round(values / round_to) * round_to
        return np.unique(values)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (problem schema version 2).

        ``matrix`` is one base64 string of the row-major little-endian
        float64 bytes; its shape is ``len(instance_ids)`` squared.  The
        bytes round-trip exactly, so a serialized matrix reproduces
        bit-identical deployment costs and content fingerprints, and the
        string decodes an order of magnitude faster than the equivalent
        nested JSON float lists.
        """
        raw = self._matrix.astype("<f8", copy=False).tobytes()
        return {
            "instance_ids": list(self._ids),
            "matrix": base64.b64encode(raw).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, payload) -> "CostMatrix":
        """Rebuild a matrix from :meth:`to_dict` output.

        Raises:
            InvalidCostMatrixError: if ``matrix`` is not a strict base64
                string of exactly ``8 * m * m`` bytes for the ``m``
                instance ids, or the decoded costs fail validation.
        """
        try:
            ids = list(payload["instance_ids"])
            encoded = payload["matrix"]
        except (KeyError, TypeError) as exc:
            raise InvalidCostMatrixError(
                "cost matrix payload must contain 'instance_ids' and 'matrix'"
            ) from exc
        if not isinstance(encoded, str):
            raise InvalidCostMatrixError(
                f"cost matrix 'matrix' must be a base64 string of row-major "
                f"little-endian float64 bytes, got {type(encoded).__name__}"
            )
        try:
            raw = base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise InvalidCostMatrixError(
                f"cost matrix 'matrix' is not valid base64: {exc}"
            ) from None
        m = len(ids)
        if len(raw) != 8 * m * m:
            raise InvalidCostMatrixError(
                f"cost matrix 'matrix' holds {len(raw)} bytes; {m} instances "
                f"need {8 * m * m} ({m} x {m} float64)"
            )
        return cls(ids, np.frombuffer(raw, dtype="<f8").reshape(m, m))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def submatrix(self, instances: Iterable[InstanceId]) -> "CostMatrix":
        """Restrict the matrix to a subset of instances (preserving order given)."""
        subset = list(instances)
        indices = [self.index_of(i) for i in subset]
        return CostMatrix(subset, self._matrix[np.ix_(indices, indices)])

    def clustered(self, k: int | None, round_to: float | None = 0.01) -> "CostMatrix":
        """Return a copy whose off-diagonal costs are replaced by cluster means.

        This implements the cost-clustering heuristic of Sect. 6.3: the CP
        solver iterates over distinct cost values, so coarsening them reduces
        the number of iterations at the price of approximating the objective.
        """
        if k is None and (round_to is None or round_to <= 0):
            return CostMatrix(self._ids, self._matrix)
        mask = ~np.eye(self.num_instances, dtype=bool)
        values = self._matrix[mask]
        clustered_values = cluster_costs(values, k, round_to=round_to)
        matrix = self._matrix.copy()
        matrix[mask] = clustered_values
        return CostMatrix(self._ids, matrix)

    def normalized(self) -> "CostMatrix":
        """Scale costs so the off-diagonal vector has unit Euclidean norm.

        The measurement-accuracy experiment (Fig. 4) normalises latency
        vectors before comparing methodologies, because a uniform over- or
        under-estimation factor does not change the chosen deployment.
        """
        norm = float(np.linalg.norm(self.link_costs()))
        if norm == 0:
            return CostMatrix(self._ids, self._matrix)
        return CostMatrix(self._ids, self._matrix / norm)

    def symmetrized(self) -> "CostMatrix":
        """Return a symmetric matrix using the max of the two directions."""
        matrix = np.maximum(self._matrix, self._matrix.T)
        return CostMatrix(self._ids, matrix)

    def relabeled(self, mapping: Mapping[InstanceId, InstanceId]) -> "CostMatrix":
        """Return a copy with instance identifiers replaced through ``mapping``."""
        new_ids = [mapping[i] for i in self._ids]
        return CostMatrix(new_ids, self._matrix)

    def __repr__(self) -> str:
        return (
            f"CostMatrix(instances={self.num_instances}, "
            f"min={self.min_cost():.4f}, max={self.max_cost():.4f})"
        )
