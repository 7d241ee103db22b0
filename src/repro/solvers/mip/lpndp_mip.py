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

import numpy as np

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

    def solution_vector(self, assignment: Dict[int, int]) -> np.ndarray:
        """Full variable vector realising the given node -> instance-index map."""
        vector = np.zeros(self.model.num_variables)
        for node, j in assignment.items():
            vector[self.x_index[(node, j)]] = 1.0

        edge_costs: Dict[Tuple[int, int], float] = {}
        for (i, i_prime), c_var in self.edge_cost_index.items():
            cost = float(self.cost_array[assignment[i], assignment[i_prime]])
            edge_costs[(i, i_prime)] = cost
            vector[c_var] = cost

        longest_to: Dict[int, float] = {n: 0.0 for n in self.graph.nodes}
        for node in self.graph.topological_order():
            for successor in self.graph.successors(node):
                candidate = longest_to[node] + edge_costs[(node, successor)]
                if candidate > longest_to[successor]:
                    longest_to[successor] = candidate
        for node, t_var in self.path_index.items():
            vector[t_var] = longest_to[node]
        vector[self.t_index] = max(longest_to.values()) if longest_to else 0.0
        return vector


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
