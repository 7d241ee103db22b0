"""Tests for cost matrices and latency metrics."""

import numpy as np
import pytest

from repro.core import CostMatrix, InvalidCostMatrixError, LatencyMetric
from repro.testing import deterministic_cost_matrix


class TestLatencyMetric:
    def test_mean(self):
        assert LatencyMetric.MEAN.summarise([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_plus_std(self):
        value = LatencyMetric.MEAN_PLUS_STD.summarise([1.0, 3.0])
        assert value == pytest.approx(2.0 + 1.0)

    def test_p99(self):
        samples = list(range(1, 101))
        assert LatencyMetric.P99.summarise(samples) == pytest.approx(99.01)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidCostMatrixError):
            LatencyMetric.MEAN.summarise([])

    def test_metric_ordering_on_skewed_samples(self):
        # A link with spikes has p99 and mean+std well above the mean.
        samples = [0.5] * 90 + [10.0] * 10
        mean = LatencyMetric.MEAN.summarise(samples)
        mean_std = LatencyMetric.MEAN_PLUS_STD.summarise(samples)
        p99 = LatencyMetric.P99.summarise(samples)
        assert mean < mean_std < p99


class TestConstruction:
    def test_diagonal_forced_to_zero(self):
        matrix = np.ones((3, 3))
        costs = CostMatrix([0, 1, 2], matrix)
        assert costs.cost(1, 1) == 0.0
        assert costs.cost(0, 1) == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidCostMatrixError):
            CostMatrix([0, 1], np.ones((2, 3)))

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidCostMatrixError):
            CostMatrix([0, 1, 2], np.ones((2, 2)))

    def test_rejects_negative_costs(self):
        matrix = np.ones((2, 2))
        matrix[0, 1] = -0.5
        with pytest.raises(InvalidCostMatrixError):
            CostMatrix([0, 1], matrix)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_costs(self, bad):
        matrix = np.ones((3, 3))
        matrix[2, 0] = bad
        with pytest.raises(InvalidCostMatrixError, match="finite"):
            CostMatrix([0, 1, 2], matrix)

    def test_non_finite_diagonal_is_ignored(self):
        matrix = np.ones((2, 2))
        np.fill_diagonal(matrix, np.inf)
        assert CostMatrix([0, 1], matrix).cost(0, 0) == 0.0

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidCostMatrixError):
            CostMatrix([0, 0], np.ones((2, 2)))

    def test_from_function(self):
        costs = CostMatrix.from_function([10, 20], lambda a, b: a + b)
        assert costs.cost(10, 20) == 30
        assert costs.cost(20, 10) == 30
        assert costs.cost(10, 10) == 0.0

    def test_from_samples_with_metric(self):
        samples = {(0, 1): [1.0, 3.0], (1, 0): [2.0, 2.0]}
        costs = CostMatrix.from_samples(samples, metric=LatencyMetric.MEAN)
        assert costs.cost(0, 1) == pytest.approx(2.0)
        assert costs.cost(1, 0) == pytest.approx(2.0)

    def test_from_samples_symmetric_fallback(self):
        samples = {(0, 1): [1.0]}
        costs = CostMatrix.from_samples(samples, instance_ids=[0, 1])
        assert costs.cost(1, 0) == pytest.approx(1.0)

    def test_from_samples_missing_link_raises(self):
        samples = {(0, 1): [1.0]}
        with pytest.raises(InvalidCostMatrixError):
            CostMatrix.from_samples(samples, instance_ids=[0, 1, 2])

    def test_from_samples_fill_missing(self):
        samples = {(0, 1): [1.0]}
        costs = CostMatrix.from_samples(samples, instance_ids=[0, 1, 2],
                                        fill_missing=9.0)
        assert costs.cost(0, 2) == 9.0

    def test_symmetric_from_upper(self):
        costs = CostMatrix.symmetric_from_upper([0, 1, 2], {(0, 1): 1.0, (0, 2): 2.0,
                                                            (1, 2): 3.0})
        assert costs.cost(1, 0) == 1.0
        assert costs.cost(2, 1) == 3.0


class TestQueries:
    def test_link_costs_excludes_diagonal(self):
        costs = deterministic_cost_matrix(4, seed=1)
        values = costs.link_costs()
        assert len(values) == 12
        assert (values > 0).all()

    def test_min_max_mean(self):
        costs = deterministic_cost_matrix(5, seed=2)
        values = costs.link_costs()
        assert costs.min_cost() == pytest.approx(values.min())
        assert costs.max_cost() == pytest.approx(values.max())
        assert costs.mean_cost() == pytest.approx(values.mean())

    def test_links_sorted_by_cost(self):
        costs = deterministic_cost_matrix(4, seed=3)
        ordered = costs.links_sorted_by_cost()
        assert len(ordered) == 12
        assert all(ordered[k][1] <= ordered[k + 1][1] for k in range(len(ordered) - 1))

    def test_unknown_instance_raises(self):
        costs = deterministic_cost_matrix(3)
        with pytest.raises(InvalidCostMatrixError):
            costs.cost(0, 99)

    def test_distinct_costs_with_rounding(self):
        matrix = np.array([[0.0, 0.101, 0.102], [0.101, 0.0, 0.2], [0.102, 0.2, 0.0]])
        costs = CostMatrix([0, 1, 2], matrix)
        assert len(costs.distinct_costs(round_to=0.01)) == 2
        assert len(costs.distinct_costs()) == 3


class TestTransformations:
    def test_submatrix_preserves_costs(self):
        costs = deterministic_cost_matrix(6, seed=4)
        sub = costs.submatrix([1, 3, 5])
        assert sub.num_instances == 3
        assert sub.cost(1, 3) == pytest.approx(costs.cost(1, 3))

    def test_normalized_has_unit_norm(self):
        costs = deterministic_cost_matrix(5, seed=5)
        normalized = costs.normalized()
        assert np.linalg.norm(normalized.link_costs()) == pytest.approx(1.0)

    def test_clustered_reduces_distinct_values(self):
        costs = deterministic_cost_matrix(8, seed=6)
        clustered = costs.clustered(k=4, round_to=None)
        assert len(clustered.distinct_costs()) <= 4
        # Clustering preserves the overall scale.
        assert clustered.mean_cost() == pytest.approx(costs.mean_cost(), rel=0.05)

    def test_clustered_none_is_identity(self):
        costs = deterministic_cost_matrix(4, seed=7)
        same = costs.clustered(None, round_to=None)
        assert np.allclose(same.as_array(), costs.as_array())

    def test_symmetrized_uses_max(self):
        matrix = np.array([[0.0, 1.0], [3.0, 0.0]])
        costs = CostMatrix([0, 1], matrix).symmetrized()
        assert costs.cost(0, 1) == 3.0
        assert costs.cost(1, 0) == 3.0

    def test_relabeled(self):
        costs = deterministic_cost_matrix(3, seed=8)
        relabeled = costs.relabeled({0: 100, 1: 101, 2: 102})
        assert relabeled.cost(100, 101) == pytest.approx(costs.cost(0, 1))
