"""Common type aliases and helpers shared across the library.

The paper distinguishes between *application nodes* (the logical components
of the tenant's distributed application) and *instances* (the virtual
machines allocated in the public cloud).  Both are identified by integers in
this library; the aliases below make signatures self-documenting.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Identifier of a logical application node (a vertex of the communication graph).
NodeId = int

#: Identifier of an allocated cloud instance (a virtual machine).
InstanceId = int

#: A directed communication edge between two application nodes.
Edge = Tuple[NodeId, NodeId]

#: A directed link between two allocated instances.
Link = Tuple[InstanceId, InstanceId]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a NumPy random generator from a seed or pass one through.

    Accepting either a seed or an existing generator lets deterministic
    experiments share a single stream while unit tests pass plain integers.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
