"""Core abstractions of the ClouDiA deployment advisor."""

from .clustering import ClusteringResult, cluster_costs, kmeans_1d
from .communication_graph import CommunicationGraph, augment_with_dummy_nodes
from .cost_matrix import CostMatrix, LatencyMetric
from .deployment import DeploymentPlan
from .evaluation import (
    CompiledConstraints,
    CompiledProblem,
    DeltaEvaluator,
    MoveBatch,
    ParallelStats,
    compile_problem,
    delta_counters,
    parallel_stats,
)
from .errors import (
    AllocationError,
    BudgetExhaustedError,
    ClouDiAError,
    InfeasibleProblemError,
    InvalidCostMatrixError,
    InvalidDeploymentError,
    InvalidGraphError,
    MeasurementError,
    SolverError,
)
from .problem import (
    PROBLEM_SCHEMA_VERSION,
    DeploymentProblem,
    PlacementConstraints,
)
from .objectives import (
    CriticalElement,
    Objective,
    critical_path,
    deployment_cost,
    improvement_ratio,
    longest_link_cost,
    longest_path_cost,
    worst_link,
)

__all__ = [
    "AllocationError",
    "BudgetExhaustedError",
    "ClouDiAError",
    "ClusteringResult",
    "CommunicationGraph",
    "CompiledConstraints",
    "CompiledProblem",
    "CostMatrix",
    "CriticalElement",
    "DeltaEvaluator",
    "MoveBatch",
    "DeploymentPlan",
    "DeploymentProblem",
    "InfeasibleProblemError",
    "InvalidCostMatrixError",
    "InvalidDeploymentError",
    "InvalidGraphError",
    "LatencyMetric",
    "MeasurementError",
    "Objective",
    "PROBLEM_SCHEMA_VERSION",
    "ParallelStats",
    "PlacementConstraints",
    "SolverError",
    "augment_with_dummy_nodes",
    "cluster_costs",
    "delta_counters",
    "compile_problem",
    "critical_path",
    "deployment_cost",
    "improvement_ratio",
    "kmeans_1d",
    "longest_link_cost",
    "longest_path_cost",
    "parallel_stats",
    "worst_link",
]
