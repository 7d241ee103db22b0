"""ClouDiA: a deployment advisor for public clouds — reproduction library.

This package reproduces the system described in "ClouDiA: a deployment
advisor for public clouds" (Zou, Le Bras, Vaz Salles, Demers, Gehrke; VLDB
2012 / VLDB Journal 2015) as a pure-Python library:

* :mod:`repro.core` — communication graphs, cost matrices, deployment plans,
  the two deployment objectives, and the :class:`ClouDiA` advisor pipeline;
* :mod:`repro.solvers` — CP, MIP, greedy, randomized and local-search
  deployment solvers;
* :mod:`repro.cloud` — a simulated public cloud (EC2 / GCE / Rackspace
  latency profiles) standing in for the paper's real allocations;
* :mod:`repro.netmeasure` — the token-passing, uncoordinated and staged
  pairwise latency measurement schemes plus the IP-distance / hop-count
  approximations;
* :mod:`repro.workloads` — the behavioral simulation, aggregation query and
  key-value store applications used in the evaluation;
* :mod:`repro.analysis` — CDFs, statistics and reporting helpers used by the
  benchmark harness.
"""

from .core import (
    CommunicationGraph,
    CostMatrix,
    DeploymentPlan,
    DeploymentProblem,
    LatencyMetric,
    Objective,
    PlacementConstraints,
    deployment_cost,
    longest_link_cost,
    longest_path_cost,
)
from .core.advisor import AdvisorConfig, AdvisorReport, ClouDiA, MeasurementConfig
from .api import (
    AdvisorSession,
    SessionStats,
    SolveRequest,
    SolverResponse,
    SolveTelemetry,
    WatchPolicy,
    WatchReport,
)
from .cloud import DatacenterTopology, ProviderProfile, SimulatedCloud
from .netmeasure import (
    CostRevision,
    MeasurementStream,
    StagedMeasurement,
    TokenPassingMeasurement,
    UncoordinatedMeasurement,
)
from .solvers import (
    CPLongestLinkSolver,
    GreedyG1,
    GreedyG2,
    MIPLongestLinkSolver,
    MIPLongestPathSolver,
    PortfolioSolver,
    RandomSearch,
    SearchBudget,
    SolverRegistry,
    default_plan,
    default_registry,
)
from .workloads import (
    AggregationQueryWorkload,
    BehavioralSimulationWorkload,
    KeyValueStoreWorkload,
    compare_deployments,
)

__version__ = "0.3.0"

__all__ = [
    "AdvisorConfig",
    "AdvisorReport",
    "AdvisorSession",
    "AggregationQueryWorkload",
    "BehavioralSimulationWorkload",
    "CPLongestLinkSolver",
    "ClouDiA",
    "CommunicationGraph",
    "CostMatrix",
    "CostRevision",
    "DatacenterTopology",
    "DeploymentPlan",
    "DeploymentProblem",
    "GreedyG1",
    "GreedyG2",
    "KeyValueStoreWorkload",
    "LatencyMetric",
    "MIPLongestLinkSolver",
    "MIPLongestPathSolver",
    "MeasurementConfig",
    "MeasurementStream",
    "Objective",
    "PlacementConstraints",
    "PortfolioSolver",
    "ProviderProfile",
    "RandomSearch",
    "SearchBudget",
    "SessionStats",
    "SimulatedCloud",
    "SolveRequest",
    "SolveTelemetry",
    "SolverRegistry",
    "SolverResponse",
    "StagedMeasurement",
    "TokenPassingMeasurement",
    "UncoordinatedMeasurement",
    "WatchPolicy",
    "WatchReport",
    "compare_deployments",
    "default_plan",
    "default_registry",
    "deployment_cost",
    "longest_link_cost",
    "longest_path_cost",
    "__version__",
]
