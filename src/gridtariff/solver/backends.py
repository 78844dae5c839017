"""Pluggable solver backends.

The bundled simplex/branch-and-bound is the default and the reference used
by the test suite; a HiGHS adapter covers large instances.  Select a
backend per call, or globally through the ``GRIDTARIFF_BACKEND`` environment
variable.

Both backends answer one MILP contract: an optimal solve is ``OPTIMAL``; a
solve stopped by a time or node limit reports that limit, with its incumbent
when it has one and ``x=None`` otherwise, and with the best bound it proved.
Neither reads a starting point; ``solve_bilevel`` supplies its own fallback
incumbent when a limit leaves none.

``ScipyBackend`` solves LPs through the HiGHS bindings that scipy vendors
(``scipy.optimize._highspy._core``), and MILPs through
``scipy.optimize.milp``.  An LP goes to HiGHS in row-bound form
(``row_lower <= A x <= row_upper``), its CSR matrix passed row-wise as it is.
An LP whose matrix, senses, right-hand sides and bounds are all read-only
arrays is *re-priceable*: every LP that ``build_follower_lp`` prices from one
operator system is, since they share the system's skeleton.  Such an LP is
solved with presolve off, and after an optimal solve its loaded HiGHS model
is kept, one per thread.  The next LP with the very same arrays only swaps in
its costs and re-optimizes from the kept basis; any other LP releases the
kept model first.  A re-priced LP's optimal vertex can therefore depend on
the previous re-pricing on that thread; its objective and duals are optimal
either way.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Protocol

import numpy as np
import scipy.optimize as sopt
from scipy.optimize._highspy import _core as highs_core

from . import bnb, simplex
from .core import (GE, LE, LinearProgram, LpSolution, MilpModel,
                   MilpResult, SolveOptions, SolverError, Status)

ENV_VAR = "GRIDTARIFF_BACKEND"


class SolverBackend(Protocol):
    name: str

    def solve_lp(self, lp: LinearProgram, opts: SolveOptions | None = None) -> LpSolution: ...

    # A MILP stopped by a limit reports that limit with ``x=None`` when it has
    # no incumbent.  The adapters accept and ignore a third argument
    # ``initial_solutions``, which perfbench's tracing wrapper still forwards.
    def solve_milp(self, model: MilpModel,
                   opts: SolveOptions | None = None) -> MilpResult: ...


class BundledBackend:
    name = "bundled"

    def solve_lp(self, lp, opts=None):
        return simplex.solve_lp(lp)

    def solve_milp(self, model, opts=None, initial_solutions=None):
        return bnb.solve_milp(model, opts)


def _row_bounds(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``[lower, upper]`` interval from its sense and rhs."""
    return (np.where(lp.sense == LE, -np.inf, lp.rhs),
            np.where(lp.sense == GE, np.inf, lp.rhs))


def _reprice_key(lp: LinearProgram) -> tuple | None:
    """The arrays that fix a re-priceable LP's rows and bounds, or None when
    any of them is writeable (and so could change under a kept model)."""
    a = lp.a_rows
    key = (a.data, a.indices, a.indptr, lp.sense, lp.rhs, lp.lower, lp.upper)
    return None if any(arr.flags.writeable for arr in key) else key


def _load(lp: LinearProgram, cost: np.ndarray, presolve: bool):
    """A new HiGHS instance holding ``lp`` with objective ``cost`` (minimized)."""
    model = highs_core.HighsLp()
    model.num_col_, model.num_row_ = lp.n_vars, lp.n_rows
    model.col_cost_, model.col_lower_, model.col_upper_ = cost, lp.lower, lp.upper
    model.row_lower_, model.row_upper_ = _row_bounds(lp)
    matrix = model.a_matrix_
    matrix.format_ = highs_core.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = lp.n_vars, lp.n_rows
    matrix.start_, matrix.index_ = lp.a_rows.indptr, lp.a_rows.indices
    matrix.value_ = lp.a_rows.data
    model.a_matrix_ = matrix
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    if not presolve:
        highs.setOptionValue("presolve", "off")
    if highs.passModel(model) == highs_core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the LP")
    return highs


def _not_optimal(lp: LinearProgram, highs, status) -> LpSolution:
    """The verdict of a HiGHS LP solve that did not end optimal; any status
    other than a verdict on the LP itself raises."""
    codes = highs_core.HighsModelStatus
    if status == codes.kInfeasible:
        return LpSolution(Status.INFEASIBLE, None, None, None, None)
    if status in (codes.kUnbounded, codes.kUnboundedOrInfeasible):
        # the latter: the dual is infeasible, so there is no finite optimum
        return LpSolution(Status.UNBOUNDED, None, None, None, None)
    if status == codes.kModelEmpty:
        # an LP without columns, whose rows HiGHS does not check: each reads 0
        lower, upper = _row_bounds(lp)
        if np.any(lower > 0.0) or np.any(upper < 0.0):
            return LpSolution(Status.INFEASIBLE, None, None, None, None)
        return LpSolution(Status.OPTIMAL, np.zeros(0), np.zeros(lp.n_rows),
                          np.zeros(0), 0.0)
    raise SolverError(f"HiGHS LP solve failed: {highs.modelStatusToString(status)}")


class ScipyBackend:
    """HiGHS through scipy's vendored bindings; duals are HiGHS' row duals."""

    name = "scipy"

    def __init__(self) -> None:
        self._kept = threading.local()      # .model: (reprice key, loaded _Highs)

    def solve_lp(self, lp, opts=None):
        lp.validate()
        sign = -1.0 if lp.maximize else 1.0
        key = _reprice_key(lp)
        kept = getattr(self._kept, "model", None)
        self._kept.model = None
        if kept is not None and key is not None \
                and all(a is b for a, b in zip(kept[0], key)):
            highs = kept[1]
            highs.changeColsCost(lp.n_vars, np.arange(lp.n_vars, dtype=np.int32),
                                 sign * lp.obj)
        else:
            kept = None         # free the old model before loading the new one
            highs = _load(lp, sign * lp.obj, presolve=key is None)
        highs.run()
        status = highs.getModelStatus()
        if status != highs_core.HighsModelStatus.kOptimal:
            return _not_optimal(lp, highs, status)
        solution = highs.getSolution()
        x = np.asarray(solution.col_value)
        duals = sign * np.asarray(solution.row_dual)
        if key is not None:
            self._kept.model = (key, highs)
        rc = lp.obj - np.asarray(lp.a_rows.T @ duals).ravel()
        return LpSolution(Status.OPTIMAL, x, duals, rc, float(lp.obj @ x),
                          iterations=int(highs.getInfo().simplex_iteration_count))

    def solve_milp(self, model, opts=None, initial_solutions=None):
        opts = opts or SolveOptions()
        model.validate()
        lp = model.lp
        sign = -1.0 if lp.maximize else 1.0
        lo, hi = _row_bounds(lp)
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
        status = Status.OPTIMAL if res.status == 0 else Status.TIME_LIMIT
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        if res.x is None:
            bound = np.nan if res.mip_dual_bound is None \
                else sign * float(res.mip_dual_bound)
            return MilpResult(status, None, None, bound, np.inf, nodes)
        # binaries rounded only: the caller's polish step re-solves the
        # continuous part with the switches fixed
        x = res.x.copy()
        x[model.binary_idx] = np.round(x[model.binary_idx])
        obj = float(lp.obj @ x)
        bound = res.mip_dual_bound if res.mip_dual_bound is not None else sign * res.fun
        bound = sign * float(bound)
        gap = abs(obj - bound) / max(1.0, abs(obj))
        return MilpResult(status, x, obj, bound, float(gap), nodes)


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


register_backend(BundledBackend())
register_backend(ScipyBackend())
