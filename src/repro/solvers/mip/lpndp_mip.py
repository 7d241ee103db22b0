"""MIP solver for the Longest Path problem (Sect. 4.4).

The encoding introduces, on top of the assignment variables ``x_ij``:

* ``c_{ii'}`` — the realised cost of communication edge ``(i, i')`` under
  the assignment;
* ``t_i`` — the cost of the most expensive directed path reaching node ``i``;
* ``t`` — the overall objective, an upper bound on every ``t_i``.

As the paper notes, this objective interacts poorly with the subgraph
structure of the problem (it only prunes once most nodes are placed), which
is why no CP formulation is provided for LPNDP and why randomized search is
surprisingly competitive (Sect. 6.5.3).  Placement constraints are lowered
as assignment-variable fixings (see
:func:`~repro.solvers.mip.deployment.encode_mip`).
"""

from __future__ import annotations

from ...core.objectives import Objective
from .deployment import MipDeploymentSolver


class MIPLongestPathSolver(MipDeploymentSolver):
    """Longest-path solver backed by the MIP encoding of Sect. 4.4.

    A thin :class:`~repro.solvers.mip.deployment.MipDeploymentSolver`
    subclass — see that class for the constructor arguments.  Note the
    clustering default stays off: the paper finds clustering does *not*
    help LPNDP because path costs are sums.
    """

    name = "MIP-LP"
    supported_objectives = (Objective.LONGEST_PATH,)
