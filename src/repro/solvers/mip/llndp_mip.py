"""MIP solver for the Longest Link problem (Sect. 4.1).

The encoding follows the paper exactly: binary variables ``x_ij`` select
which instance hosts each application node (the graph is padded with dummy
nodes so the mapping is a perfect matching), and a continuous variable ``c``
is forced above the cost of every link actually used through the big-M-free
constraints ``c >= CL(j, j') * (x_ij + x_i'j' - 1)``.

The encoding grows as ``|E| * |S|^2`` constraints, which is why the paper
observes that MIP "performs poorly at the scale of 100 instances"; the same
holds here, and the benchmarks exercise this solver at smaller scales.
Placement constraints shrink the model instead of growing it: disallowed
assignment variables are fixed out through their bounds (see
:func:`~repro.solvers.mip.deployment.encode_mip`).
"""

from __future__ import annotations

from ...core.objectives import Objective
from .deployment import MipDeploymentSolver


class MIPLongestLinkSolver(MipDeploymentSolver):
    """Longest-link solver backed by the MIP encoding of Sect. 4.1.

    A thin :class:`~repro.solvers.mip.deployment.MipDeploymentSolver`
    subclass — see that class for the constructor arguments (clustering,
    node limit, warm starts, constraint lowering).
    """

    name = "MIP"
    supported_objectives = (Objective.LONGEST_LINK,)
