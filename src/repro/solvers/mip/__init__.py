"""The deployment MIPs, built as HiGHS arrays, and their solvers."""

from .deployment import MipDeploymentSolver, decode_plan, encode_mip
from .llndp_mip import MIPLongestLinkSolver
from .lpndp_mip import MIPLongestPathSolver
from .scipy_backend import MipArrays, MipSolution, solve_milp

__all__ = [
    "MIPLongestLinkSolver",
    "MIPLongestPathSolver",
    "MipArrays",
    "MipDeploymentSolver",
    "MipSolution",
    "decode_plan",
    "encode_mip",
    "solve_milp",
]
