"""Mixed-integer programming formulations and the HiGHS-backed solvers."""

from .deployment import DeploymentEncoding, MipDeploymentSolver
from .llndp_mip import LLNDPEncoding, MIPLongestLinkSolver
from .lpndp_mip import LPNDPEncoding, MIPLongestPathSolver
from .model import LinearConstraintRow, MipModel, MipSolution, Variable
from .scipy_backend import solve_milp

__all__ = [
    "DeploymentEncoding",
    "LLNDPEncoding",
    "LPNDPEncoding",
    "LinearConstraintRow",
    "MIPLongestLinkSolver",
    "MIPLongestPathSolver",
    "MipDeploymentSolver",
    "MipModel",
    "MipSolution",
    "Variable",
    "solve_milp",
]
