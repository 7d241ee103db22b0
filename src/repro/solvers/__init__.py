"""Deployment-plan search techniques (Sect. 4 of the paper)."""

from .base import (
    ConvergenceTrace,
    DeploymentSolver,
    SearchBudget,
    SolverResult,
    Stopwatch,
    best_random_plan,
    constrained_warm_start,
    default_plan,
    random_plans,
)
from .cp import (
    CPLongestLinkSolver,
    SearchOutcome,
    SubgraphMonomorphismSearch,
)
from .greedy import GreedyG1, GreedyG2
from .local_search import SimulatedAnnealing, SwapLocalSearch
from .mip import MIPLongestLinkSolver, MIPLongestPathSolver
from .portfolio import PortfolioSolver
from .random_search import RandomSearch
from .registry import (
    SolverConfigError,
    SolverRegistry,
    SolverSpec,
    UnknownSolverError,
    default_registry,
)

__all__ = [
    "CPLongestLinkSolver",
    "ConvergenceTrace",
    "DeploymentSolver",
    "GreedyG1",
    "GreedyG2",
    "MIPLongestLinkSolver",
    "MIPLongestPathSolver",
    "PortfolioSolver",
    "RandomSearch",
    "SearchBudget",
    "SearchOutcome",
    "SimulatedAnnealing",
    "SolverConfigError",
    "SolverRegistry",
    "SolverResult",
    "SolverSpec",
    "Stopwatch",
    "SubgraphMonomorphismSearch",
    "SwapLocalSearch",
    "UnknownSolverError",
    "best_random_plan",
    "constrained_warm_start",
    "default_plan",
    "default_registry",
    "random_plans",
]
