"""The ClouDiA deployment advisor: the end-to-end pipeline of Fig. 3.

Given a communication graph and an optimisation objective, the advisor

1. **allocates** instances from the cloud (over-allocating by a configurable
   ratio so there are spare instances to discard),
2. **measures** pairwise latencies with one of the measurement schemes of
   Sect. 5,
3. **searches** for a deployment plan minimising the chosen objective with
   one of the solvers of Sect. 4, and
4. **terminates** the over-allocated instances the plan does not use,

returning a report with the plan, the baseline (default) plan, predicted
costs and timing information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..cloud.provider import SimulatedCloud
from ..netmeasure.estimator import MeasurementResult
from ..netmeasure.staged import StagedMeasurement
from ..netmeasure.token_passing import TokenPassingMeasurement
from ..netmeasure.uncoordinated import UncoordinatedMeasurement
from ..solvers.base import DeploymentSolver, SearchBudget, SolverResult, default_plan
from ..solvers.registry import default_registry
from .communication_graph import CommunicationGraph
from .cost_matrix import CostMatrix, LatencyMetric
from .deployment import DeploymentPlan
from .errors import AllocationError, ClouDiAError
from .objectives import Objective, deployment_cost, improvement_ratio
from .problem import DeploymentProblem, PlacementConstraints
from .types import InstanceId


@dataclass(frozen=True)
class MeasurementConfig:
    """How the advisor measures pairwise latencies.

    Attributes:
        scheme: ``"staged"`` (default, what ClouDiA uses), ``"uncoordinated"``
            or ``"token-passing"``.
        target_samples_per_link: samples to collect per directed link.
        max_duration_ms: hard cap on simulated measurement time.
        message_bytes: probe payload size, matched to the application.
        samples_per_stage: the staged scheme's ``Ks`` parameter.
    """

    scheme: str = "staged"
    target_samples_per_link: int = 10
    max_duration_ms: Optional[float] = None
    message_bytes: int = 1024
    samples_per_stage: int = 10

    def build_scheme(self, seed: int | None = None):
        """Instantiate the configured measurement scheme."""
        if self.scheme == "staged":
            return StagedMeasurement(message_bytes=self.message_bytes, seed=seed,
                                     samples_per_stage=self.samples_per_stage)
        if self.scheme == "uncoordinated":
            return UncoordinatedMeasurement(message_bytes=self.message_bytes, seed=seed)
        if self.scheme == "token-passing":
            return TokenPassingMeasurement(message_bytes=self.message_bytes, seed=seed)
        raise ClouDiAError(f"unknown measurement scheme {self.scheme!r}")


@dataclass(frozen=True)
class AdvisorConfig:
    """Configuration of one advisor run.

    Attributes:
        objective: which deployment cost function to minimise.
        over_allocation_ratio: fraction of extra instances to allocate beyond
            the number of application nodes (the paper uses 10 %).
        metric: latency metric used to summarise probe samples into costs.
        solver: deployment solver — either an instantiated
            :class:`~repro.solvers.base.DeploymentSolver`, a registry key
            string (resolved through
            :data:`~repro.solvers.registry.default_registry` together with
            ``solver_config``), or ``None`` for the paper default of the
            objective (CP for longest link, the HiGHS MIP for longest
            path).
        solver_config: configuration passed to the registry when ``solver``
            is a string key or ``None``; the seed is filled in from
            ``seed`` when the solver accepts one and the config does not
            set it.
        solver_time_limit_s: time budget handed to the solver.
        measurement: measurement configuration.
        constraints: optional placement constraints applied to the search.
        terminate_unused: whether to terminate the over-allocated instances
            the plan does not use (step 4 of Fig. 3).  Experiments that still
            need to evaluate the *default* deployment afterwards set this to
            ``False`` and terminate later themselves.
        seed: seed shared by measurement and search.
    """

    objective: Objective = Objective.LONGEST_LINK
    over_allocation_ratio: float = 0.10
    metric: LatencyMetric = LatencyMetric.MEAN
    solver: Optional[DeploymentSolver | str] = None
    solver_config: Mapping[str, object] = field(default_factory=dict)
    solver_time_limit_s: float = 5.0
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    constraints: Optional[PlacementConstraints] = None
    terminate_unused: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # Detected here rather than at search time: an advisor run pays for
        # allocation and measurement before it ever builds the solver, so a
        # statically-detectable misconfiguration must not survive that long.
        if isinstance(self.solver, DeploymentSolver) and self.solver_config:
            raise ValueError(
                "solver_config has no effect when solver is an instantiated "
                "DeploymentSolver; configure the instance directly or pass "
                "a registry key instead"
            )

    def build_solver(self, problem: DeploymentProblem) -> DeploymentSolver:
        """Instantiate the configured (or default) solver for ``problem``.

        ``solver=None`` and ``solver="auto"`` both resolve to the paper
        default for the problem's objective.  A registry key is resolved
        against ``problem``, so a problem above the solver's size ceiling
        is refused before any search.
        """
        if isinstance(self.solver, DeploymentSolver):
            return self.solver
        key = default_registry.resolve(self.solver, problem)
        config = default_registry.seeded_config(key, self.seed,
                                                self.solver_config)
        return default_registry.make(key, **config)


@dataclass(frozen=True)
class AdvisorReport:
    """Everything ClouDiA did and recommends for one application."""

    plan: DeploymentPlan
    default_plan: DeploymentPlan
    objective: Objective
    allocated_instances: tuple
    terminated_instances: tuple
    measurement: MeasurementResult
    cost_matrix: CostMatrix
    solver_result: SolverResult
    predicted_cost: float
    default_predicted_cost: float

    @property
    def predicted_improvement(self) -> float:
        """Predicted relative cost reduction of the plan over the default."""
        return improvement_ratio(self.default_predicted_cost, self.predicted_cost)

    @property
    def measurement_time_ms(self) -> float:
        """Simulated time spent measuring pairwise latencies."""
        return self.measurement.elapsed_ms

    @property
    def search_time_s(self) -> float:
        """Wall-clock time spent searching for the deployment plan."""
        return self.solver_result.solve_time_s


class ClouDiA:
    """The deployment advisor.

    Args:
        cloud: the (simulated) public cloud to allocate from.
        config: advisor configuration; a sensible default is used if omitted.
    """

    def __init__(self, cloud: SimulatedCloud, config: AdvisorConfig | None = None):
        self.cloud = cloud
        self.config = config if config is not None else AdvisorConfig()

    # ------------------------------------------------------------------ #

    def recommend(self, graph: CommunicationGraph,
                  max_instances: int | None = None) -> AdvisorReport:
        """Run the full pipeline of Fig. 3 for one application.

        Args:
            graph: the application's communication graph.
            max_instances: cap on the total number of instances to allocate;
                defaults to ``ceil((1 + over_allocation_ratio) * |V|)``.

        Returns:
            An :class:`AdvisorReport`; the over-allocated instances the plan
            does not use have already been terminated.
        """
        return self.recommend_on_instances(graph,
                                           self.allocate(graph, max_instances))

    def recommend_on_instances(self, graph: CommunicationGraph,
                               instance_ids: Sequence[InstanceId]) -> AdvisorReport:
        """Run measurement + search + termination on already-allocated instances."""
        ids: List[InstanceId] = list(instance_ids)
        if len(ids) < graph.num_nodes:
            raise AllocationError(
                f"{graph.num_nodes} nodes cannot be deployed on {len(ids)} instances"
            )

        measurement = self.measure(ids)
        costs = measurement.to_cost_matrix(metric=self.config.metric)
        solver_result = self.search(graph, costs)

        baseline = default_plan(graph, costs)
        baseline_cost = deployment_cost(baseline, graph, costs, self.config.objective)

        unused = solver_result.plan.unused_instances(ids)
        if self.config.terminate_unused:
            self.cloud.terminate(unused)

        return AdvisorReport(
            plan=solver_result.plan,
            default_plan=baseline,
            objective=self.config.objective,
            allocated_instances=tuple(ids),
            terminated_instances=tuple(unused),
            measurement=measurement,
            cost_matrix=costs,
            solver_result=solver_result,
            predicted_cost=solver_result.cost,
            default_predicted_cost=baseline_cost,
        )

    # ------------------------------------------------------------------ #
    # Individual pipeline stages (also usable on their own)
    # ------------------------------------------------------------------ #

    def allocate(self, graph: CommunicationGraph,
                 max_instances: int | None = None) -> List[InstanceId]:
        """Stage 1 of Fig. 3: allocate instances with over-allocation.

        The single implementation of the over-allocation sizing policy —
        the CLI's ``make-problem`` command reuses it so the sizing cannot
        drift from :meth:`recommend`.
        """
        num_nodes = graph.num_nodes
        desired = int(round((1.0 + self.config.over_allocation_ratio) * num_nodes))
        desired = max(desired, num_nodes)
        if max_instances is not None:
            if max_instances < num_nodes:
                raise AllocationError(
                    f"max_instances={max_instances} is below the number of "
                    f"application nodes ({num_nodes})"
                )
            desired = min(desired, max_instances)
        return [instance.instance_id
                for instance in self.cloud.allocate(desired)]

    def measure(self, instance_ids: Sequence[InstanceId]) -> MeasurementResult:
        """Stage 2 of Fig. 3: measure pairwise latencies."""
        scheme = self.config.measurement.build_scheme(seed=self.config.seed)
        return scheme.measure(
            self.cloud, list(instance_ids),
            target_samples_per_link=self.config.measurement.target_samples_per_link,
            max_duration_ms=self.config.measurement.max_duration_ms,
        )

    def search(self, graph: CommunicationGraph, costs: CostMatrix) -> SolverResult:
        """Stage 3 of Fig. 3: search for a low-cost deployment plan."""
        problem = DeploymentProblem(
            graph, costs, objective=self.config.objective,
            constraints=self.config.constraints,
        )
        solver = self.config.build_solver(problem)
        budget = SearchBudget.seconds(self.config.solver_time_limit_s)
        return solver.solve(problem, budget=budget)
