"""MIP encoding and solver for the Longest Link problem (Sect. 4.1).

The encoding follows the paper exactly: binary variables ``x_ij`` select
which instance hosts each application node (the graph is padded with dummy
nodes so the mapping is a perfect matching), and a continuous variable ``c``
is forced above the cost of every link actually used through the big-M-free
constraints ``c >= CL(j, j') * (x_ij + x_i'j' - 1)``.

The encoding grows as ``|E| * |S|^2`` constraints, which is why the paper
observes that MIP "performs poorly at the scale of 100 instances"; the same
holds here, and the benchmarks exercise this solver at smaller scales.
Placement constraints shrink the model instead of growing it: disallowed
assignment variables are fixed out through the shared
:class:`~repro.solvers.mip.deployment.DeploymentEncoding` hooks.
"""

from __future__ import annotations

from ...core.objectives import Objective
from .deployment import DeploymentEncoding, MipDeploymentSolver


class LLNDPEncoding(DeploymentEncoding):
    """Builds and decodes the longest-link MIP for one problem instance."""

    def _add_objective_variables(self) -> None:
        self.c_index = self.model.add_variable("c", lower=0.0)

    def _add_objective_constraints(self) -> None:
        # Longest-link constraints: c >= CL(j, j') (x_ij + x_i'j' - 1).
        for (i, i_prime) in self.graph.edges:
            for j in range(self.num_instances):
                for j_prime in range(self.num_instances):
                    if j == j_prime:
                        continue
                    link_cost = float(self.cost_array[j, j_prime])
                    if link_cost <= 0.0:
                        continue
                    self.model.add_constraint(
                        {
                            self.c_index: 1.0,
                            self.x_index[(i, j)]: -link_cost,
                            self.x_index[(i_prime, j_prime)]: -link_cost,
                        },
                        lower=-link_cost,
                    )
        self.model.set_objective({self.c_index: 1.0})


class MIPLongestLinkSolver(MipDeploymentSolver):
    """Longest-link solver backed by the MIP encoding of Sect. 4.1.

    A thin :class:`~repro.solvers.mip.deployment.MipDeploymentSolver`
    subclass — see that class for the constructor arguments (clustering,
    node limit, warm starts, constraint lowering).
    """

    name = "MIP"
    supported_objectives = (Objective.LONGEST_LINK,)
    encoding_factory = LLNDPEncoding
