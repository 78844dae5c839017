"""LP/MILP solving on HiGHS through scipy's binding, the repository's own
branch-and-bound over HiGHS node LPs, and backend plugins."""

from .backends import (BundledBackend, ScipyBackend, get_backend,
                       register_backend, solve_lp)
from .bnb import solve_milp, verify_milp_solution
from .core import (EQ, GE, LE, LinearProgram, LpBuilder, LpSolution,
                   MilpModel, MilpResult, SolveOptions, SolverError, Status,
                   check_lp_solution, relative_gap)
from .lpfile import write_lp

__all__ = [
    "EQ", "GE", "LE",
    "LinearProgram", "LpBuilder", "LpSolution", "MilpModel", "MilpResult",
    "SolveOptions", "SolverError", "Status",
    "BundledBackend", "ScipyBackend",
    "get_backend", "register_backend",
    "solve_lp", "solve_milp", "verify_milp_solution", "check_lp_solution",
    "relative_gap", "write_lp",
]
