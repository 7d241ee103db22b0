"""Tests for the exact 1-D k-means used for cost clustering."""

from typing import List

import numpy as np
import pytest

from repro.core import ClouDiAError, ClusteringResult, cluster_costs, kmeans_1d


def kmeans_1d_loop(values, k):
    """The scalar dynamic program ``kmeans_1d`` vectorizes, kept as an oracle.

    One ``segment_cost`` call per (clusters, end, split) triple, keeping a
    split only when its candidate is strictly smaller.
    """
    data = np.asarray(list(values), dtype=float)
    distinct = np.unique(data)
    n = distinct.size
    k_eff = min(k, n)

    if k_eff == n:
        centers = distinct
        labels = np.searchsorted(distinct, data)
        return ClusteringResult(centers=centers, labels=labels, cost=0.0)

    counts = np.array([np.count_nonzero(data == v) for v in distinct], dtype=float)
    prefix_count = np.concatenate(([0.0], np.cumsum(counts)))
    prefix_sum = np.concatenate(([0.0], np.cumsum(counts * distinct)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(counts * distinct ** 2)))

    def segment_cost(lo, hi):
        cnt = prefix_count[hi] - prefix_count[lo]
        total = prefix_sum[hi] - prefix_sum[lo]
        total_sq = prefix_sq[hi] - prefix_sq[lo]
        return float(total_sq - (total * total) / cnt)

    inf = float("inf")
    dp = np.full((k_eff + 1, n + 1), inf)
    split = np.zeros((k_eff + 1, n + 1), dtype=int)
    dp[0][0] = 0.0
    for c in range(1, k_eff + 1):
        for i in range(c, n + 1):
            best, best_j = inf, c - 1
            for j in range(c - 1, i):
                candidate = dp[c - 1][j] + segment_cost(j, i)
                if candidate < best:
                    best, best_j = candidate, j
            dp[c][i] = best
            split[c][i] = best_j

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

    labels = distinct_labels[np.searchsorted(distinct, data)]
    return ClusteringResult(centers=centers, labels=labels, cost=float(dp[k_eff][n]))


def oracle_inputs():
    """532 seeded ``(values, k)`` pairs: random, rounded, tied, degenerate
    and overflowing."""
    rng = np.random.default_rng(2012)
    cases = []
    for index in range(480):
        size = int(rng.integers(1, 41))
        kind = index % 4
        if kind == 0:  # distinct floats
            values = rng.uniform(0.1, 2.0, size=size)
        elif kind == 1:  # rounded: many duplicates
            values = np.round(rng.lognormal(-0.5, 0.4, size=size), 1)
        elif kind == 2:  # small integers: tied splits and duplicates
            values = rng.integers(0, 6, size=size).astype(float)
        else:  # evenly spaced: every split of a run ties
            values = np.repeat(np.arange(int(rng.integers(1, 9))) * 0.5,
                               int(rng.integers(1, 4)))
        cases.append((values, int(rng.integers(1, 13))))
    for size in range(1, 21):  # k = 1, and k at least the distinct count
        values = rng.uniform(0.0, 1.0, size=size)
        cases.append((values, 1))
        cases.append((values, size + int(rng.integers(0, 3))))
    cases.append((np.array([0.7]), 1))
    cases.append((np.array([0.7]), 5))
    cases.append((np.full(12, 0.25), 3))
    # Squares past the float range: segment costs overflow to inf or NaN,
    # and a NaN candidate must never win a split.
    for scale in (1e155, 1e160, 1e200):
        values = np.concatenate((rng.uniform(1.0, 4.0, size=4) * scale,
                                 rng.uniform(0.0, 5.0, size=4)))
        cases.append((values, 2))
        cases.append((values, 3))
    for seed in range(3):  # paper scale: a 110-instance matrix on the 0.01 grid
        matrix = np.random.default_rng(seed).lognormal(-0.8, 0.35, size=(110, 110))
        off_diagonal = matrix[~np.eye(110, dtype=bool)]
        cases.append((np.round(off_diagonal / 0.01) * 0.01, 20))
    return cases


@pytest.mark.parametrize("values,k", oracle_inputs())
def test_kmeans_1d_matches_the_scalar_loop(values, k):
    with np.errstate(over="ignore", invalid="ignore"):
        result, expected = kmeans_1d(values, k), kmeans_1d_loop(values, k)
    assert result.centers.tobytes() == expected.centers.tobytes()
    assert result.labels.tolist() == expected.labels.tolist()
    assert repr(result.cost) == repr(expected.cost)


class TestKMeans1D:
    def test_two_obvious_clusters(self):
        values = [0.1, 0.11, 0.12, 5.0, 5.1, 5.2]
        result = kmeans_1d(values, 2)
        assert result.num_clusters == 2
        assert result.centers[0] == pytest.approx(0.11, abs=1e-9)
        assert result.centers[1] == pytest.approx(5.1, abs=1e-9)
        # First three values in cluster 0, last three in cluster 1.
        assert list(result.labels) == [0, 0, 0, 1, 1, 1]

    def test_more_clusters_than_distinct_values(self):
        values = [1.0, 2.0, 1.0]
        result = kmeans_1d(values, 10)
        assert result.num_clusters == 2
        assert result.cost == pytest.approx(0.0)

    def test_single_cluster_center_is_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        result = kmeans_1d(values, 1)
        assert result.centers[0] == pytest.approx(2.5)

    def test_cost_decreases_with_more_clusters(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=50)
        costs = [kmeans_1d(values, k).cost for k in (1, 2, 4, 8)]
        assert all(costs[i] >= costs[i + 1] - 1e-12 for i in range(len(costs) - 1))

    def test_optimality_against_brute_force(self):
        # For a tiny input we can enumerate all contiguous 2-partitions of the
        # sorted values and verify the DP finds the best one.
        values = np.array([0.0, 0.4, 1.0, 1.1, 3.0])
        result = kmeans_1d(values, 2)
        ordered = np.sort(values)

        def sse(segment):
            return float(((segment - segment.mean()) ** 2).sum())

        best = min(
            sse(ordered[:cut]) + sse(ordered[cut:]) for cut in range(1, len(ordered))
        )
        assert result.cost == pytest.approx(best)

    def test_mapped_values_shape_and_membership(self):
        values = [0.3, 0.31, 0.9, 0.92]
        result = kmeans_1d(values, 2)
        mapped = result.mapped_values()
        assert mapped.shape == (4,)
        assert set(np.round(mapped, 6)) <= set(np.round(result.centers, 6))

    def test_empty_input_rejected(self):
        with pytest.raises(ClouDiAError):
            kmeans_1d([], 3)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ClouDiAError):
            kmeans_1d([1.0], 0)

    def test_labels_monotone_in_value(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 2, size=40)
        result = kmeans_1d(values, 5)
        # Sorting the values must sort the labels: clusters are intervals.
        order = np.argsort(values)
        sorted_labels = result.labels[order]
        assert all(sorted_labels[i] <= sorted_labels[i + 1]
                   for i in range(len(sorted_labels) - 1))


class TestClusterCosts:
    def test_none_k_returns_values(self):
        values = [0.5, 0.7]
        assert list(cluster_costs(values, None, round_to=None)) == values

    def test_rounding_applied(self):
        values = [0.101, 0.109]
        rounded = cluster_costs(values, None, round_to=0.01)
        assert rounded[0] == pytest.approx(0.10)
        assert rounded[1] == pytest.approx(0.11)

    def test_clustering_reduces_distinct_values(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.2, 1.4, size=200)
        clustered = cluster_costs(values, 10, round_to=None)
        assert len(np.unique(clustered)) <= 10
