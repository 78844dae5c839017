"""Self-contained LP/MILP solving with dual certificates and backend plugins."""

from .backends import (BundledBackend, ScipyBackend, get_backend,
                       register_backend)
from .bnb import solve_milp, verify_milp_solution
from .core import (EQ, GE, LE, LinearProgram, LpBuilder, LpSolution,
                   MilpModel, MilpResult, SolveOptions, SolverError, Status,
                   check_lp_solution)
from .lpfile import read_lp, write_lp
from .simplex import solve_lp

__all__ = [
    "EQ", "GE", "LE",
    "LinearProgram", "LpBuilder", "LpSolution", "MilpModel", "MilpResult",
    "SolveOptions", "SolverError", "Status",
    "BundledBackend", "ScipyBackend",
    "get_backend", "register_backend",
    "solve_lp", "solve_milp", "verify_milp_solution", "check_lp_solution",
    "read_lp", "write_lp",
]
