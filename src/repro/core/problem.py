"""First-class node-deployment problem instances.

The paper frames ClouDiA as a *service* (Sects. 3 and 6): a tenant hands the
advisor a communication graph together with measured link costs and receives
a deployment plan back.  :class:`DeploymentProblem` is the request-side half
of that contract — a frozen, validated value object bundling

* the application :class:`~repro.core.communication_graph.CommunicationGraph`,
* the measured :class:`~repro.core.cost_matrix.CostMatrix` over allocated
  instances,
* the :class:`~repro.core.objectives.Objective` to minimise,
* optional :class:`PlacementConstraints` (pinned and forbidden placements),
* free-form JSON-serializable metadata (tenant name, template, provenance).

A problem owns its validation (enough instances, acyclicity for the
longest-path objective, consistent constraints) so solvers no longer
re-check the same invariants, and it owns one
:class:`~repro.core.evaluation.CompiledProblem`, built on first use by
:meth:`~DeploymentProblem.compiled`, so every consumer of one problem
object reuses a single lowering.

Problems serialize to plain dictionaries (:meth:`to_dict` /
:meth:`from_dict`) so a full solving request can leave the process as JSON
and be replayed elsewhere — the basis of the CLI's ``solve`` /
``solve-batch`` commands and the batch advisor session in
:mod:`repro.api`.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional

import numpy as np

from .communication_graph import CommunicationGraph
from .cost_matrix import CostMatrix
from .deployment import DeploymentPlan, provider_order_plan
from .errors import (
    ClouDiAError,
    InfeasibleProblemError,
    InvalidDeploymentError,
    InvalidGraphError,
)
from .evaluation import CompiledConstraints, CompiledProblem, compile_problem
from .objectives import Objective
from .types import InstanceId, NodeId

#: Version tag embedded in every serialized problem payload.  Version 2
#: carries the cost matrix as base64 float64 bytes
#: (:meth:`CostMatrix.to_dict`); version 1 files, whose matrices were
#: nested float lists, are refused and must be regenerated.
PROBLEM_SCHEMA_VERSION = 2


class PlacementConstraints:
    """Optional per-node placement restrictions of a deployment problem.

    Two kinds of constraints are supported:

    * *pinned* — a node **must** run on a specific instance (e.g. a
      component co-located with persistent state);
    * *forbidden* — a node must **not** run on certain instances (e.g.
      instances in a failure domain the component must avoid).

    Constraints are enforced *natively*: every built-in solver searches
    only the allowed region, drawing candidates and moves from the
    compiled view this class lowers to (:meth:`compile`, cached per
    problem by
    :meth:`~repro.core.problem.DeploymentProblem.compiled_constraints`).
    The base :class:`~repro.solvers.base.DeploymentSolver` checks every
    returned plan and raises if one violates a constraint.  The
    matching-based :meth:`repair` is what solvers use to make a violating
    warm start feasible, to complete a dead-ended greedy construction, and
    to fix the MIP's fallback plan when no solution was found in budget.
    """

    __slots__ = ("_pinned", "_forbidden")

    def __init__(self, pinned: Optional[Mapping[NodeId, InstanceId]] = None,
                 forbidden: Optional[Mapping[NodeId, Iterable[InstanceId]]] = None):
        pins: Dict[NodeId, InstanceId] = dict(pinned or {})
        if len(set(pins.values())) != len(pins):
            raise InvalidDeploymentError(
                "pinned placements must be injective: two nodes pinned to "
                "the same instance"
            )
        bans: Dict[NodeId, FrozenSet[InstanceId]] = {
            node: frozenset(instances)
            for node, instances in (forbidden or {}).items()
            if instances
        }
        for node, instance in pins.items():
            if instance in bans.get(node, frozenset()):
                raise InvalidDeploymentError(
                    f"node {node} is pinned to instance {instance} but that "
                    f"instance is also forbidden for it"
                )
        self._pinned = pins
        self._forbidden = bans

    # ------------------------------------------------------------------ #

    @property
    def pinned(self) -> Mapping[NodeId, InstanceId]:
        """Read-only view of the pinned ``node -> instance`` placements."""
        return MappingProxyType(self._pinned)

    @property
    def forbidden(self) -> Mapping[NodeId, FrozenSet[InstanceId]]:
        """Read-only view of the forbidden ``node -> {instances}`` sets."""
        return MappingProxyType(self._forbidden)

    @property
    def is_empty(self) -> bool:
        """``True`` when no constraint is present."""
        return not self._pinned and not self._forbidden

    def allows(self, node: NodeId, instance: InstanceId) -> bool:
        """Whether ``node`` may be placed on ``instance``."""
        pin = self._pinned.get(node)
        if pin is not None:
            return instance == pin
        return instance not in self._forbidden.get(node, frozenset())

    def validate(self, graph: CommunicationGraph, costs: CostMatrix) -> None:
        """Check the constraints against a concrete problem instance."""
        known_instances = set(costs.instance_ids)
        for node, instance in self._pinned.items():
            if not graph.has_node(node):
                raise InvalidDeploymentError(
                    f"constraint pins unknown node {node}"
                )
            if instance not in known_instances:
                raise InvalidDeploymentError(
                    f"node {node} is pinned to unknown instance {instance}"
                )
        for node, instances in self._forbidden.items():
            if not graph.has_node(node):
                raise InvalidDeploymentError(
                    f"constraint forbids instances for unknown node {node}"
                )
            unknown = instances - known_instances
            if unknown:
                raise InvalidDeploymentError(
                    f"node {node} forbids unknown instance(s) "
                    f"{sorted(unknown)[:5]}"
                )
            allowed = known_instances - instances
            if self._pinned.get(node) is None and not allowed:
                raise InfeasibleProblemError(
                    f"node {node} has no allowed instance left"
                )
        self._check_jointly_feasible(graph, costs)

    def _check_jointly_feasible(self, graph: CommunicationGraph,
                                costs: CostMatrix) -> None:
        """Fail fast on constraints that are only *jointly* infeasible.

        Per-node checks miss e.g. three nodes each restricted to the same
        single instance; without this, the infeasibility would surface only
        after a solver burnt its whole budget (in the repair step).  The
        unconstrained nodes accept any instance, so joint feasibility
        reduces to an injective matching of the forbidden-constrained,
        non-pinned nodes into their allowed non-pinned instances.
        """
        pinned_targets = set(self._pinned.values())
        constrained = [
            node for node in sorted(self._forbidden)
            if node not in self._pinned
        ]
        if not constrained:
            return
        candidates = [i for i in costs.instance_ids
                      if i not in pinned_targets]
        from scipy.optimize import linear_sum_assignment

        if len(candidates) < len(constrained):
            raise InfeasibleProblemError(
                "constraints leave fewer unpinned instances than "
                "constrained nodes"
            )
        allowed = np.ones((len(constrained), len(candidates)))
        for row, node in enumerate(constrained):
            forbidden = self._forbidden[node]
            for col, instance in enumerate(candidates):
                if instance not in forbidden:
                    allowed[row, col] = 0.0
        rows, cols = linear_sum_assignment(allowed)
        if allowed[rows, cols].max() > 0:
            raise InfeasibleProblemError(
                "placement constraints are jointly infeasible: no "
                "assignment places every constrained node on an allowed "
                "instance"
            )

    def violations(self, plan: DeploymentPlan) -> List[str]:
        """Human-readable list of constraint violations of ``plan``."""
        problems: List[str] = []
        for node, instance in self._pinned.items():
            actual = plan.instance_for(node)
            if actual != instance:
                problems.append(
                    f"node {node} must run on instance {instance}, "
                    f"plan places it on {actual}"
                )
        for node, instances in self._forbidden.items():
            actual = plan.instance_for(node)
            if actual in instances:
                problems.append(
                    f"node {node} is placed on forbidden instance {actual}"
                )
        return problems

    def satisfied_by(self, plan: DeploymentPlan) -> bool:
        """Whether ``plan`` honours every constraint."""
        return not self.violations(plan)

    def compile(self, problem: CompiledProblem) -> CompiledConstraints:
        """Lower the constraints onto a compiled problem's index space.

        Produces the boolean allowed mask the constraint-aware solvers
        search with: forbidden pairs are cleared, a pinned node's row
        becomes the one-hot of its pin, and the pinned column is cleared
        for every other node (the pin occupies that instance in any
        feasible plan).  Prefer
        :meth:`DeploymentProblem.compiled_constraints`, which caches the
        result per problem.
        """
        mask = np.ones((problem.num_nodes, problem.num_instances), dtype=bool)
        for node, instances in self._forbidden.items():
            row = problem.node_idx(node)
            for instance in instances:
                mask[row, problem.instance_idx(instance)] = False
        for node, instance in self._pinned.items():
            row = problem.node_idx(node)
            column = problem.instance_idx(instance)
            mask[:, column] = False
            mask[row, :] = False
            mask[row, column] = True
        return CompiledConstraints(problem, mask)

    def repair(self, plan: DeploymentPlan,
               instance_ids: Iterable[InstanceId]) -> DeploymentPlan:
        """Return the closest plan to ``plan`` that satisfies the constraints.

        Pins are satisfied first (swapping with the current occupant of the
        pinned instance, or relocating onto it when free).  If forbidden
        placements remain, the non-pinned nodes are re-assigned with a
        minimum-cost bipartite matching over their allowed instances in
        which keeping a node where it already is costs nothing — so the
        repair changes as few placements as possible, and it succeeds on
        *every* feasible instance (unlike single swaps / relocations, which
        cannot express multi-node reassignment chains).

        Raises:
            InfeasibleProblemError: when no assignment of the non-pinned
                nodes to allowed instances exists.
        """
        mapping = plan.as_dict()
        inverse = {instance: node for node, instance in mapping.items()}
        for node, instance in sorted(self._pinned.items()):
            current = mapping[node]
            if current == instance:
                continue
            occupant = inverse.get(instance)
            if occupant is not None:
                mapping[occupant] = current
                inverse[current] = occupant
            else:
                del inverse[current]
            mapping[node] = instance
            inverse[instance] = node

        repaired = DeploymentPlan(mapping)
        if self.satisfied_by(repaired):
            return repaired
        return self._rematch(mapping, instance_ids)

    def _rematch(self, mapping: Dict[NodeId, InstanceId],
                 instance_ids: Iterable[InstanceId]) -> DeploymentPlan:
        """Re-assign the non-pinned nodes with a minimum-change matching."""
        from scipy.optimize import linear_sum_assignment

        pinned_targets = set(self._pinned.values())
        free_nodes = [n for n in sorted(mapping) if n not in self._pinned]
        candidates = [i for i in instance_ids if i not in pinned_targets]
        if len(candidates) < len(free_nodes):
            raise InfeasibleProblemError(
                "cannot repair plan: fewer unpinned instances than "
                "unpinned nodes"
            )
        # Forbidden pairs cost more than any feasible full assignment can,
        # so the optimum uses one iff no feasible assignment exists.
        forbidden_cost = float(len(free_nodes) + 1)
        cost = np.ones((len(free_nodes), len(candidates)))
        for row, node in enumerate(free_nodes):
            for col, instance in enumerate(candidates):
                if not self.allows(node, instance):
                    cost[row, col] = forbidden_cost
                elif mapping[node] == instance:
                    cost[row, col] = 0.0
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].max() >= forbidden_cost:
            raise InfeasibleProblemError(
                "cannot repair plan: no assignment of the unpinned nodes "
                "to allowed instances exists"
            )
        repaired: Dict[NodeId, InstanceId] = dict(self._pinned)
        for row, col in zip(rows, cols):
            repaired[free_nodes[row]] = candidates[col]
        for node, instance in mapping.items():
            repaired.setdefault(node, instance)
        return DeploymentPlan(repaired)

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "pinned": [[node, instance]
                       for node, instance in sorted(self._pinned.items())],
            "forbidden": [[node, sorted(instances)]
                          for node, instances in sorted(self._forbidden.items())],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlacementConstraints":
        """Rebuild constraints from :meth:`to_dict` output."""
        return cls(
            pinned={node: instance for node, instance in payload.get("pinned", [])},
            forbidden={node: instances
                       for node, instances in payload.get("forbidden", [])},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementConstraints):
            return NotImplemented
        return (self._pinned == other._pinned
                and self._forbidden == other._forbidden)

    def __hash__(self) -> int:
        return hash((
            frozenset(self._pinned.items()),
            frozenset(self._forbidden.items()),
        ))

    def __repr__(self) -> str:
        return (
            f"PlacementConstraints(pinned={len(self._pinned)}, "
            f"forbidden={len(self._forbidden)})"
        )


class DeploymentProblem:
    """A frozen, validated node-deployment problem instance.

    Args:
        graph: the application communication graph.
        costs: measured pairwise link costs over the allocated instances.
        objective: deployment cost function to minimise.
        constraints: optional placement constraints.
        metadata: free-form JSON-serializable annotations carried along with
            the problem (template name, tenant, provenance).  Metadata never
            influences solving, fingerprints or compilation caching; it
            does participate in ``==`` so annotated problems stay
            distinguishable.

    Raises:
        InfeasibleProblemError: if there are fewer instances than nodes.
        InvalidGraphError: if the longest-path objective is requested on a
            cyclic graph.
        InvalidDeploymentError: if the constraints are inconsistent.
    """

    __slots__ = ("_graph", "_costs", "_objective", "_constraints", "_metadata",
                 "_fingerprint", "_instance_key", "_engine",
                 "_compiled_constraints", "__weakref__")

    def __init__(self, graph: CommunicationGraph, costs: CostMatrix,
                 objective: Objective = Objective.LONGEST_LINK,
                 constraints: Optional[PlacementConstraints] = None,
                 metadata: Optional[Mapping[str, Any]] = None):
        if not isinstance(objective, Objective):
            objective = Objective(objective)
        if costs.num_instances < graph.num_nodes:
            raise InfeasibleProblemError(
                f"{graph.num_nodes} application nodes cannot be deployed on "
                f"{costs.num_instances} instances"
            )
        if objective is Objective.LONGEST_PATH and not graph.is_dag():
            raise InvalidGraphError(
                "longest-path objective requires an acyclic communication graph"
            )
        if constraints is not None and constraints.is_empty:
            constraints = None
        if constraints is not None:
            constraints.validate(graph, costs)
        self._graph = graph
        self._costs = costs
        self._objective = objective
        self._constraints = constraints
        self._metadata: Dict[str, Any] = dict(metadata or {})
        self._fingerprint: Optional[str] = None
        self._instance_key: Optional[str] = None
        self._engine: Optional[CompiledProblem] = None
        self._compiled_constraints: Optional[CompiledConstraints] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> CommunicationGraph:
        """The application communication graph."""
        return self._graph

    @property
    def costs(self) -> CostMatrix:
        """The measured pairwise cost matrix."""
        return self._costs

    @property
    def objective(self) -> Objective:
        """The deployment cost function to minimise."""
        return self._objective

    @property
    def constraints(self) -> Optional[PlacementConstraints]:
        """Placement constraints, or ``None`` when unconstrained."""
        return self._constraints

    @property
    def metadata(self) -> Mapping[str, Any]:
        """Read-only view of the problem metadata."""
        return MappingProxyType(self._metadata)

    @property
    def num_nodes(self) -> int:
        """Number of application nodes."""
        return self._graph.num_nodes

    @property
    def num_instances(self) -> int:
        """Number of allocated instances."""
        return self._costs.num_instances

    # ------------------------------------------------------------------ #
    # Engine access and evaluation
    # ------------------------------------------------------------------ #

    def compiled(self) -> CompiledProblem:
        """The evaluation engine this problem owns, built on first use.

        The first call lowers the instance through
        :func:`~repro.core.evaluation.compile_problem` (unless the problem
        was handed an engine by :meth:`adopt_engine` or :meth:`revise`);
        every later call, from any solver, returns the same engine.
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = compile_problem(self._graph, self._costs)
        return engine

    @property
    def engine(self) -> Optional[CompiledProblem]:
        """The engine this problem owns, or ``None`` before it has one."""
        return self._engine

    def adopt_engine(self, engine: CompiledProblem) -> None:
        """Own ``engine`` instead of compiling one.

        The caller guarantees that ``engine`` was compiled from content
        equal to this problem's graph and costs (an equal
        :meth:`instance_key`); the advisor session uses this to share one
        engine between problems decoded separately from the same JSON.
        """
        self._engine = engine

    def compiled_constraints(self) -> Optional[CompiledConstraints]:
        """The constraints lowered onto the compiled engine, built once.

        Returns ``None`` for unconstrained problems.  The compiled view
        (allowed mask + per-node allowed-index arrays) is cached on the
        problem — like :meth:`compiled`, all solvers working on one problem
        object share a single lowering — and is covered by
        :meth:`fingerprint` through the constraints it derives from.
        """
        if self._constraints is None:
            return None
        if self._compiled_constraints is None:
            self._compiled_constraints = self._constraints.compile(
                self.compiled())
        return self._compiled_constraints

    def evaluate(self, plan: DeploymentPlan) -> float:
        """Deployment cost of ``plan`` under this problem's objective."""
        return self.compiled().evaluate_plan(plan, self._objective)

    def default_plan(self) -> DeploymentPlan:
        """The provider-order baseline deployment the paper compares against."""
        return provider_order_plan(self._graph.nodes, self._costs.instance_ids)

    def check_plan(self, plan: DeploymentPlan) -> None:
        """Validate that ``plan`` covers the graph and honours constraints."""
        if not plan.covers(self._graph):
            raise InvalidDeploymentError("plan does not cover the graph")
        if self._constraints is not None:
            violations = self._constraints.violations(plan)
            if violations:
                raise InvalidDeploymentError(
                    "plan violates placement constraints: "
                    + "; ".join(violations)
                )

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    def instance_key(self) -> str:
        """Content hash of the ``(graph, costs)`` pair.

        Two problems with equal instance keys describe the same graph and
        cost data (regardless of objective, constraints or metadata), so a
        single :class:`CompiledProblem` can serve both — this is the key the
        batch advisor session deduplicates compilations on.
        """
        if self._instance_key is None:
            digest = hashlib.sha256()
            digest.update(repr(self._graph.nodes).encode())
            digest.update(repr(self._graph.edges).encode())
            digest.update(repr(self._costs.instance_ids).encode())
            # The stored matrix is always C-contiguous (CostMatrix keeps
            # an ndarray.copy(), C order by default), so hashing its buffer
            # gives the digest of as_array().tobytes() without two copies.
            digest.update(self._costs._matrix)
            self._instance_key = digest.hexdigest()
        return self._instance_key

    def fingerprint(self) -> str:
        """Content hash of everything that influences solving.

        Extends :meth:`instance_key` with the objective and constraints;
        metadata is deliberately excluded.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.instance_key().encode())
            digest.update(self._objective.value.encode())
            if self._constraints is not None:
                digest.update(repr(self._constraints.to_dict()).encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def revise(self, costs: CostMatrix,
               metadata: Optional[Mapping[str, Any]] = None
               ) -> "DeploymentProblem":
        """Build this problem under a revised cost matrix, reusing the lowering.

        The live re-deployment pipeline's entry point for cost drift: when
        this problem owns an engine and the revised matrix covers the same
        instances in the same order — the graph and allocation are
        unchanged, only measured latencies moved — the revised problem
        owns an engine derived through
        :meth:`CompiledProblem.refresh_costs`: it shares every graph-side
        structure with this problem's engine and carries the compiled
        constraints view over (the mask depends on the index space only),
        so nothing is re-lowered or re-validated.  Otherwise the revised
        problem compiles on first use, like any new problem.

        The revised problem has a new :meth:`instance_key` /
        :meth:`fingerprint` (the costs changed); this problem and its
        engine are left untouched and keep scoring the old costs.

        Args:
            costs: the revised cost matrix.
            metadata: optional replacement metadata; the original
                problem's metadata is carried over when omitted.

        Returns:
            A new validated :class:`DeploymentProblem`; ``self`` when
            ``costs`` is the very matrix this problem already holds.
        """
        if costs is self._costs:
            return self
        revised = DeploymentProblem(
            self._graph, costs, objective=self._objective,
            constraints=self._constraints,
            metadata=self._metadata if metadata is None else metadata,
        )
        if (self._engine is not None
                and costs.instance_ids == self._costs.instance_ids):
            revised._engine = self._engine.refresh_costs(costs)
            # The constraints view depends only on the shared node and
            # instance index space, so it carries over.
            revised._compiled_constraints = self._compiled_constraints
        return revised

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation of the full problem."""
        payload: Dict[str, Any] = {
            "version": PROBLEM_SCHEMA_VERSION,
            "graph": self._graph.to_dict(),
            "costs": self._costs.to_dict(),
            "objective": self._objective.value,
        }
        if self._constraints is not None:
            payload["constraints"] = self._constraints.to_dict()
        if self._metadata:
            payload["metadata"] = dict(self._metadata)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeploymentProblem":
        """Rebuild a problem from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise ClouDiAError(
                f"problem payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        version = payload.get("version", PROBLEM_SCHEMA_VERSION)
        if version != PROBLEM_SCHEMA_VERSION:
            raise ClouDiAError(
                f"unsupported problem schema version {version!r} "
                f"(this library reads version {PROBLEM_SCHEMA_VERSION})"
            )
        missing = [key for key in ("graph", "costs", "objective")
                   if key not in payload]
        if missing:
            raise ClouDiAError(f"problem payload misses keys {missing}")
        constraints = None
        if payload.get("constraints") is not None:
            constraints = PlacementConstraints.from_dict(payload["constraints"])
        return cls(
            graph=CommunicationGraph.from_dict(payload["graph"]),
            costs=CostMatrix.from_dict(payload["costs"]),
            objective=Objective(payload["objective"]),
            constraints=constraints,
            metadata=payload.get("metadata"),
        )

    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeploymentProblem):
            return NotImplemented
        return (self.fingerprint() == other.fingerprint()
                and self._metadata == other._metadata)

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        suffix = "" if self._constraints is None else ", constrained"
        return (
            f"DeploymentProblem(nodes={self.num_nodes}, "
            f"instances={self.num_instances}, "
            f"objective={self._objective.value}{suffix})"
        )
