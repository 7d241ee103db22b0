"""Cheap proxies for network distance: IP distance and hop count (Appendix 2).

Both proxies are trivial to obtain (no measurement traffic at all), but the
paper finds — and this module lets you verify on the simulator — that
neither predicts round-trip latency well enough to drive deployment
decisions.  The helpers below compute the proxy matrices and the grouping /
correlation statistics behind Figs. 16 and 17.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.cost_matrix import CostMatrix
from ..core.types import InstanceId
from ..cloud.provider import SimulatedCloud, ip_distance


def ip_distance_matrix(cloud: SimulatedCloud, instance_ids: Sequence[InstanceId],
                       group_bits: int = 8) -> CostMatrix:
    """Pairwise IP distance between instances (in address groups)."""
    ids = list(instance_ids)
    return CostMatrix.from_function(
        ids,
        lambda a, b: ip_distance(cloud.private_ip(a), cloud.private_ip(b),
                                 group_bits=group_bits),
    )


def hop_count_matrix(cloud: SimulatedCloud,
                     instance_ids: Sequence[InstanceId]) -> CostMatrix:
    """Pairwise TTL-derived router hop count between instances."""
    ids = list(instance_ids)
    return CostMatrix.from_function(ids, cloud.hop_count)


@dataclass(frozen=True)
class ProxyQuality:
    """How well a proxy metric predicts measured latency.

    Attributes:
        spearman: Spearman rank correlation between proxy and latency.
        pearson: Pearson correlation between proxy and latency.
        ordering_violations: fraction of link pairs ordered one way by the
            proxy and the other way by latency (0 = perfect monotonicity).
    """

    spearman: float
    pearson: float
    ordering_violations: float


def proxy_quality(proxy: CostMatrix, latency: CostMatrix,
                  max_pairs_for_violations: int = 200_000,
                  seed: int | None = 0) -> ProxyQuality:
    """Correlation and ordering statistics of a proxy against latency."""
    if proxy.instance_ids != latency.instance_ids:
        proxy = proxy.submatrix(latency.instance_ids)
    proxy_values = proxy.link_costs()
    latency_values = latency.link_costs()

    if np.ptp(proxy_values) == 0 or np.ptp(latency_values) == 0:
        # A constant proxy carries no ordering information at all.
        spearman = 0.0
        pearson = 0.0
    else:
        # Imported here: scipy.stats is most of the package's import time.
        from scipy import stats

        spearman = float(stats.spearmanr(proxy_values, latency_values).statistic)
        pearson = float(stats.pearsonr(proxy_values, latency_values).statistic)

    rng = np.random.default_rng(seed)
    n = len(proxy_values)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs_for_violations:
        first, second = np.triu_indices(n, k=1)
    else:
        first = rng.integers(0, n, size=max_pairs_for_violations)
        second = rng.integers(0, n, size=max_pairs_for_violations)
        keep = first != second
        first, second = first[keep], second[keep]

    proxy_order = np.sign(proxy_values[first] - proxy_values[second])
    latency_order = np.sign(latency_values[first] - latency_values[second])
    comparable = proxy_order != 0
    if comparable.sum() == 0:
        violations = 0.0
    else:
        violations = float(
            np.mean(proxy_order[comparable] * latency_order[comparable] < 0)
        )
    return ProxyQuality(spearman=spearman, pearson=pearson,
                        ordering_violations=violations)


def links_grouped_by_proxy(proxy: CostMatrix, latency: CostMatrix
                           ) -> Dict[float, List[float]]:
    """Latency of every link, grouped by its proxy value and sorted ascending.

    This is the data behind Figs. 16 and 17: one group per distinct proxy
    value (IP distance or hop count), with the latencies inside each group
    sorted so overlaps between groups are easy to spot.
    """
    if proxy.instance_ids != latency.instance_ids:
        proxy = proxy.submatrix(latency.instance_ids)
    groups: Dict[float, List[float]] = {}
    ids = latency.instance_ids
    for a in ids:
        for b in ids:
            if a == b:
                continue
            groups.setdefault(proxy.cost(a, b), []).append(latency.cost(a, b))
    return {value: sorted(latencies) for value, latencies in sorted(groups.items())}


def group_overlap_fraction(groups: Dict[float, List[float]]) -> float:
    """Fraction of adjacent proxy groups whose latency ranges overlap.

    A good proxy would produce disjoint latency ranges per group (overlap
    fraction 0); the paper's negative result corresponds to values near 1.
    """
    ordered = [latencies for _, latencies in sorted(groups.items()) if latencies]
    if len(ordered) < 2:
        return 0.0
    overlaps = 0
    for lower_group, upper_group in zip(ordered[:-1], ordered[1:]):
        if max(lower_group) > min(upper_group):
            overlaps += 1
    return overlaps / (len(ordered) - 1)
