"""Optimal one-dimensional k-means used to cluster link costs (Sect. 6.3).

The paper reduces the number of distinct cost values seen by the CP solver
by clustering link costs with k-means.  Because the costs are scalar, the
clustering can be solved exactly with dynamic programming: optimal clusters
of sorted values are contiguous ranges, so the problem decomposes over a
prefix structure.  The implementation below is the textbook
O(k * n^2) dynamic program with prefix sums over the ``n`` distinct values.
Each DP row is scored with NumPy in blocks of bounded size, with the same
floating-point expressions and the same first-minimum split as a scalar
loop, so the result is bit-identical to one (``tests/test_clustering.py``
keeps that loop as its oracle).  The few hundred distinct values of
latencies rounded to 0.01 ms cluster in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ClouDiAError


@dataclass(frozen=True)
class ClusteringResult:
    """Result of clustering scalar values into ``k`` groups.

    Attributes:
        centers: cluster means, sorted ascending.
        labels: for each input value (in the original order), the index of
            the cluster it belongs to.
        cost: total within-cluster sum of squared deviations.
    """

    centers: np.ndarray
    labels: np.ndarray
    cost: float

    @property
    def num_clusters(self) -> int:
        """Number of clusters actually produced."""
        return int(len(self.centers))

    def mapped_values(self) -> np.ndarray:
        """Each input value replaced by the mean of its cluster."""
        return self.centers[self.labels]


#: Candidate cells scored per NumPy block of a DP row (2 MiB per float
#: temporary), so the ~12,000 distinct values of an unrounded 110-instance
#: matrix never build the full (n + 1)^2 segment table (1.2 GB).
_BLOCK_CELLS = 1 << 18


def _fill_dp_row(prev: np.ndarray, row: np.ndarray, split_row: np.ndarray,
                 c: int, prefix_count: np.ndarray, prefix_sum: np.ndarray,
                 prefix_sq: np.ndarray) -> None:
    """Fill ``row[i]`` and ``split_row[i]`` for ``i = c .. n`` from ``prev``.

    ``row[i]`` is the least ``prev[j] + SSE(values j .. i - 1)`` over the
    split points ``c - 1 <= j < i``, and ``split_row[i]`` the first ``j``
    reaching it: ``argmin`` returns the first minimum, which is the pick of
    a scan that keeps a candidate only when it is strictly smaller.  A NaN
    candidate (overflowed sums) never wins such a scan, so it scores
    ``inf``; a row of ``inf`` keeps ``j = c - 1``.  Each segment cost is the
    same floating-point expression a scalar loop evaluates, so the result
    is bit-identical to it.
    """
    n = prev.size - 1
    lo = c - 1
    step = max(1, _BLOCK_CELLS // (n - lo))
    for start in range(c, n + 1, step):
        stop = min(start + step, n + 1)
        i = np.arange(start, stop)[:, None]
        j = np.arange(lo, stop - 1)[None, :]
        cnt = prefix_count[i] - prefix_count[j]
        total = prefix_sum[i] - prefix_sum[j]
        total_sq = prefix_sq[i] - prefix_sq[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            candidate = prev[j] + (total_sq - (total * total) / cnt)
        candidate[(j >= i) | np.isnan(candidate)] = np.inf
        best = np.argmin(candidate, axis=1)
        row[start:stop] = candidate[np.arange(stop - start), best]
        split_row[start:stop] = best + lo


def kmeans_1d(values: Sequence[float], k: int) -> ClusteringResult:
    """Cluster scalar ``values`` into at most ``k`` groups, exactly.

    Args:
        values: the scalar observations (any order, duplicates allowed).
        k: the maximum number of clusters.  If there are fewer distinct
            values than ``k``, one cluster per distinct value is returned.

    Returns:
        A :class:`ClusteringResult` with cluster means and per-value labels.

    Raises:
        ClouDiAError: if ``values`` is empty or ``k`` is not positive.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ClouDiAError("cannot cluster an empty collection of values")
    if k <= 0:
        raise ClouDiAError("number of clusters must be positive")

    distinct, inverse, counts = np.unique(data, return_inverse=True,
                                          return_counts=True)
    n = distinct.size
    k_eff = min(k, n)

    if k_eff == n:
        return ClusteringResult(centers=distinct, labels=inverse, cost=0.0)

    # Prefix sums over the sorted distinct values weighted by multiplicity.
    counts = counts.astype(float)
    prefix_count = np.concatenate(([0.0], np.cumsum(counts)))
    prefix_sum = np.concatenate(([0.0], np.cumsum(counts * distinct)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(counts * distinct ** 2)))

    # dp[c][i]: best cost of splitting the first i distinct values into c clusters.
    inf = float("inf")
    dp = np.full((k_eff + 1, n + 1), inf)
    split = np.zeros((k_eff + 1, n + 1), dtype=int)
    dp[0][0] = 0.0
    for c in range(1, k_eff + 1):
        _fill_dp_row(dp[c - 1], dp[c], split[c], c,
                     prefix_count, prefix_sum, prefix_sq)

    # Recover segment boundaries.
    boundaries: List[int] = [n]
    i = n
    for c in range(k_eff, 0, -1):
        i = split[c][i]
        boundaries.append(i)
    boundaries.reverse()

    centers = np.empty(k_eff)
    distinct_labels = np.empty(n, dtype=int)
    for c in range(k_eff):
        lo, hi = boundaries[c], boundaries[c + 1]
        cnt = prefix_count[hi] - prefix_count[lo]
        centers[c] = (prefix_sum[hi] - prefix_sum[lo]) / cnt
        distinct_labels[lo:hi] = c

    return ClusteringResult(centers=centers, labels=distinct_labels[inverse],
                            cost=float(dp[k_eff][n]))


def cluster_costs(values: Sequence[float], k: int | None,
                  round_to: float | None = None) -> np.ndarray:
    """Replace each value by its cluster mean (helper for cost matrices).

    Args:
        values: scalar link costs.
        k: number of clusters; ``None`` disables clustering and returns the
            (optionally rounded) values unchanged.
        round_to: optional rounding grid applied before clustering.  The
            paper rounds latencies to the nearest 0.01 ms before counting
            distinct values.

    Returns:
        A NumPy array with the same length as ``values``.
    """
    data = np.asarray(list(values), dtype=float)
    if round_to is not None and round_to > 0:
        data = np.round(data / round_to) * round_to
    if k is None:
        return data
    return kmeans_1d(data, k).mapped_values()
