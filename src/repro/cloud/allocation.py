"""Instance-placement policies of the simulated cloud provider.

Public clouds allocate instances non-contiguously: a tenant's VMs end up
scattered over racks and pods, which is exactly what produces the latency
heterogeneity ClouDiA exploits.  The policies below control how the
simulated provider picks physical hosts for a new allocation request.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from ..core.errors import AllocationError
from .topology import DatacenterTopology


class AllocationPolicy(abc.ABC):
    """Strategy deciding which free hosts receive new instances."""

    @abc.abstractmethod
    def choose_hosts(self, topology: DatacenterTopology, free_hosts: Sequence[int],
                     count: int, rng: np.random.Generator) -> List[int]:
        """Pick ``count`` host ids out of ``free_hosts``."""

    def _check(self, free_hosts: Sequence[int], count: int) -> None:
        if count <= 0:
            raise AllocationError("allocation count must be positive")
        if count > len(free_hosts):
            raise AllocationError(
                f"cannot allocate {count} instances: only {len(free_hosts)} hosts free"
            )


class ScatteredAllocation(AllocationPolicy):
    """Default policy: spread instances over racks, like a real multi-tenant cloud.

    Hosts are drawn rack by rack in a round-robin over a random rack order,
    with a small probability of placing a few instances in the same rack
    (providers do co-locate occasionally, and those pairs are the
    low-latency links worth keeping).
    """

    def __init__(self, same_rack_bias: float = 0.25):
        if not 0.0 <= same_rack_bias <= 1.0:
            raise AllocationError("same_rack_bias must be in [0, 1]")
        self.same_rack_bias = same_rack_bias

    def choose_hosts(self, topology: DatacenterTopology, free_hosts: Sequence[int],
                     count: int, rng: np.random.Generator) -> List[int]:
        self._check(free_hosts, count)
        free_by_rack: dict[int, List[int]] = {}
        for host_id in free_hosts:
            rack = topology.host(host_id).rack_id
            free_by_rack.setdefault(rack, []).append(host_id)
        for hosts in free_by_rack.values():
            rng.shuffle(hosts)

        rack_order = list(free_by_rack)
        rng.shuffle(rack_order)

        chosen: List[int] = []
        current_rack_idx = 0
        while len(chosen) < count:
            rack = rack_order[current_rack_idx % len(rack_order)]
            hosts = free_by_rack[rack]
            if hosts:
                chosen.append(hosts.pop())
                # With some probability stay on the same rack for the next
                # instance, producing a handful of well-connected pairs.
                if not (hosts and rng.random() < self.same_rack_bias):
                    current_rack_idx += 1
            else:
                current_rack_idx += 1
            if all(not hosts for hosts in free_by_rack.values()) and len(chosen) < count:
                raise AllocationError("ran out of free hosts during allocation")
        return chosen


class UniformRandomAllocation(AllocationPolicy):
    """Pick hosts uniformly at random among the free ones."""

    def choose_hosts(self, topology: DatacenterTopology, free_hosts: Sequence[int],
                     count: int, rng: np.random.Generator) -> List[int]:
        self._check(free_hosts, count)
        indices = rng.choice(len(free_hosts), size=count, replace=False)
        return [free_hosts[int(i)] for i in indices]


class ContiguousAllocation(AllocationPolicy):
    """Fill racks in order — an idealised 'cluster placement group' policy.

    Used in tests and ablations as the best case the provider could offer;
    ClouDiA's benefit shrinks when allocations are already contiguous.
    """

    def choose_hosts(self, topology: DatacenterTopology, free_hosts: Sequence[int],
                     count: int, rng: np.random.Generator) -> List[int]:
        self._check(free_hosts, count)
        ordered = sorted(free_hosts,
                         key=lambda h: (topology.host(h).rack_id, h))
        return list(ordered[:count])
