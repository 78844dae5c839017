"""Pluggable solver backends.

The bundled simplex/branch-and-bound is the default and the reference used
by the test suite; a scipy (HiGHS) adapter covers large instances.  Select a
backend per call, or globally through the ``GRIDTARIFF_BACKEND`` environment
variable.
"""

from __future__ import annotations

import os
import warnings
from typing import Protocol

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from . import bnb, simplex
from .core import (EQ, GE, LE, LinearProgram, LpSolution, MilpModel,
                   MilpResult, SolveOptions, SolverError, Status)

ENV_VAR = "GRIDTARIFF_BACKEND"


class SolverBackend(Protocol):
    name: str

    def solve_lp(self, lp: LinearProgram, opts: SolveOptions | None = None) -> LpSolution: ...

    def solve_milp(self, model: MilpModel, opts: SolveOptions | None = None,
                   initial_solutions: list[np.ndarray] | None = None) -> MilpResult: ...


class BundledBackend:
    name = "bundled"

    def solve_lp(self, lp, opts=None):
        return simplex.solve_lp(lp)

    def solve_milp(self, model, opts=None, initial_solutions=None):
        return bnb.solve_milp(model, opts, initial_solutions)


class ScipyBackend:
    """HiGHS via scipy.optimize; duals recovered from HiGHS marginals."""

    name = "scipy"

    @staticmethod
    def _split(lp: LinearProgram):
        le = np.flatnonzero(lp.sense == LE)
        ge = np.flatnonzero(lp.sense == GE)
        eq = np.flatnonzero(lp.sense == EQ)
        a_ub = sp.vstack([lp.a_rows[le], -lp.a_rows[ge]], format="csr") \
            if len(le) + len(ge) else None
        b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]]) if a_ub is not None else None
        a_eq = lp.a_rows[eq] if len(eq) else None
        b_eq = lp.rhs[eq] if a_eq is not None else None
        return le, ge, eq, a_ub, b_ub, a_eq, b_eq

    def solve_lp(self, lp, opts=None):
        lp.validate()
        sign = -1.0 if lp.maximize else 1.0
        le, ge, eq, a_ub, b_ub, a_eq, b_eq = self._split(lp)
        res = sopt.linprog(sign * lp.obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                           b_eq=b_eq, bounds=np.column_stack([lp.lower, lp.upper]),
                           method="highs")
        if res.status == 2:
            return LpSolution(Status.INFEASIBLE, None, None, None, None)
        if res.status == 3:
            return LpSolution(Status.UNBOUNDED, None, None, None, None)
        if res.status != 0:
            raise SolverError(f"scipy linprog failed: {res.message}")
        duals = np.zeros(lp.n_rows)
        if a_ub is not None:
            marg = res.ineqlin.marginals
            duals[le] = marg[: len(le)]
            duals[ge] = -marg[len(le):]
        if a_eq is not None:
            duals[eq] = res.eqlin.marginals
        duals *= sign
        x = res.x
        rc = lp.obj - np.asarray(lp.a_rows.T @ duals).ravel()
        obj = float(lp.obj @ x)
        return LpSolution(Status.OPTIMAL, x, duals, rc, obj,
                          iterations=int(getattr(res, "nit", 0)))

    def solve_milp(self, model, opts=None, initial_solutions=None):
        opts = opts or SolveOptions()
        model.validate()
        lp = model.lp
        sign = -1.0 if lp.maximize else 1.0
        lo = np.full(lp.n_rows, -np.inf)
        hi = np.full(lp.n_rows, np.inf)
        lo[lp.sense == GE] = lp.rhs[lp.sense == GE]
        hi[lp.sense == LE] = lp.rhs[lp.sense == LE]
        lo[lp.sense == EQ] = lp.rhs[lp.sense == EQ]
        hi[lp.sense == EQ] = lp.rhs[lp.sense == EQ]
        integrality = np.zeros(lp.n_vars)
        integrality[model.binary_idx] = 1
        # tight tolerances matter: slack allowed on a big-M row is the
        # tolerance times the row scale, which can flip switch patterns
        options = {"time_limit": opts.time_limit,
                   "mip_rel_gap": opts.rel_gap,
                   "presolve": True,
                   "mip_feasibility_tolerance": 1e-9,
                   "primal_feasibility_tolerance": 1e-9,
                   "dual_feasibility_tolerance": 1e-9}
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="Unrecognized options",
                                    category=RuntimeWarning)
            res = sopt.milp(
                sign * lp.obj,
                constraints=sopt.LinearConstraint(lp.a_rows, lo, hi),
                bounds=sopt.Bounds(lp.lower, lp.upper),
                integrality=integrality,
                options=options,
            )
        if res.status == 2:
            return MilpResult(Status.INFEASIBLE, None, None, np.nan, np.inf, 0)
        if res.status == 3:
            return MilpResult(Status.UNBOUNDED, None, None, np.nan, np.inf, 0)
        if res.status not in (0, 1):
            raise SolverError(f"scipy milp failed: {res.message}")
        if res.x is None:
            return MilpResult(Status.NO_SOLUTION, None, None, np.nan, np.inf, 0)
        # binaries rounded only: the caller's polish step re-solves the
        # continuous part with the switches fixed
        x = res.x.copy()
        x[model.binary_idx] = np.round(x[model.binary_idx])
        obj = float(lp.obj @ x)
        bound = res.mip_dual_bound if res.mip_dual_bound is not None else sign * res.fun
        bound = sign * float(bound)
        gap = abs(obj - bound) / max(1.0, abs(obj))
        status = Status.OPTIMAL if res.status == 0 else Status.TIME_LIMIT
        return MilpResult(status, x, obj, bound, float(gap),
                          int(getattr(res, "mip_node_count", 0) or 0))


_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend) -> SolverBackend:
    """Register a backend under its name; duplicate names are rejected."""
    if backend.name in _REGISTRY:
        raise SolverError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str | None = None) -> SolverBackend:
    name = name or os.environ.get(ENV_VAR, "bundled")
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


register_backend(BundledBackend())
register_backend(ScipyBackend())
