"""MIP encoding and solver for the Longest Path problem (Sect. 4.4).

The encoding introduces, on top of the assignment variables ``x_ij``:

* ``c_{ii'}`` — the realised cost of communication edge ``(i, i')`` under
  the assignment;
* ``t_i`` — the cost of the most expensive directed path reaching node ``i``;
* ``t`` — the overall objective, an upper bound on every ``t_i``.

As the paper notes, this objective interacts poorly with the subgraph
structure of the problem (it only prunes once most nodes are placed), which
is why no CP formulation is provided for LPNDP and why randomized search is
surprisingly competitive (Sect. 6.5.3).  Placement constraints are lowered
as assignment-variable fixings through the shared
:class:`~repro.solvers.mip.deployment.DeploymentEncoding` hooks.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...core.communication_graph import CommunicationGraph
from ...core.errors import InvalidGraphError
from ...core.objectives import Objective
from .deployment import DeploymentEncoding, MipDeploymentSolver


class LPNDPEncoding(DeploymentEncoding):
    """Builds and decodes the longest-path MIP for one problem instance."""

    def _validate_graph(self, graph: CommunicationGraph) -> None:
        if not graph.is_dag():
            raise InvalidGraphError("LPNDP requires an acyclic communication graph")

    def _add_objective_variables(self) -> None:
        self.edge_cost_index: Dict[Tuple[int, int], int] = {
            edge: self.model.add_variable(f"c[{edge[0]},{edge[1]}]", lower=0.0)
            for edge in self.graph.edges
        }
        self.path_index: Dict[int, int] = {
            node: self.model.add_variable(f"t[{node}]", lower=0.0)
            for node in self.graph.nodes
        }
        self.t_index = self.model.add_variable("t", lower=0.0)

    def _add_objective_constraints(self) -> None:
        # Edge-cost linking: c_ii' >= CL(j, j') (x_ij + x_i'j' - 1).
        for (i, i_prime), c_var in self.edge_cost_index.items():
            for j in range(self.num_instances):
                for j_prime in range(self.num_instances):
                    if j == j_prime:
                        continue
                    link_cost = float(self.cost_array[j, j_prime])
                    if link_cost <= 0.0:
                        continue
                    self.model.add_constraint(
                        {
                            c_var: 1.0,
                            self.x_index[(i, j)]: -link_cost,
                            self.x_index[(i_prime, j_prime)]: -link_cost,
                        },
                        lower=-link_cost,
                    )

        # Path propagation: t_i' >= t_i + c_ii' and t >= t_i.
        for (i, i_prime), c_var in self.edge_cost_index.items():
            self.model.add_constraint(
                {
                    self.path_index[i_prime]: 1.0,
                    self.path_index[i]: -1.0,
                    c_var: -1.0,
                },
                lower=0.0,
            )
        for node in self.graph.nodes:
            self.model.add_constraint(
                {self.t_index: 1.0, self.path_index[node]: -1.0}, lower=0.0
            )

        self.model.set_objective({self.t_index: 1.0})


class MIPLongestPathSolver(MipDeploymentSolver):
    """Longest-path solver backed by the MIP encoding of Sect. 4.4.

    A thin :class:`~repro.solvers.mip.deployment.MipDeploymentSolver`
    subclass — see that class for the constructor arguments.  Note the
    clustering default stays off: the paper finds clustering does *not*
    help LPNDP because path costs are sums.
    """

    name = "MIP-LP"
    supported_objectives = (Objective.LONGEST_PATH,)
    encoding_factory = LPNDPEncoding
