"""Pluggable solver backends.

Both backends solve on HiGHS.  The bundled one, the default, runs the
repository's own best-bound branch-and-bound (``bnb``) on HiGHS node LPs;
the scipy one runs HiGHS' MIP solver.  They solve LPs alike.  A backend
is selected per call, by name; without one it is the bundled backend.

Both backends answer one MILP contract: an optimal solve is ``OPTIMAL``; a
solve stopped by a time or node limit reports that limit, with its incumbent
when it has one and ``x=None`` otherwise, and with the best bound it proved.
An incumbent is exact: each backend re-solves it with every binary fixed at
its rounded value (``MilpModel.fixed_at``) and returns that LP's optimum, or
``x=None`` when the LP has none.  Neither backend reads a starting point;
``solve_bilevel`` supplies its own fallback incumbent when a limit leaves
none.  Neither keeps anything from one MILP for a later call.

Every LP, MILP and ``bnb`` node LP reaches HiGHS through ``HighsModel``,
over the binding that scipy vendors (``scipy.optimize._highspy._core``,
imported only here): it loads and runs a model, maps HiGHS' model status to
a ``Status``, reads the solution back and changes costs, column bounds and
the basis.  A model goes in row-bound form
(``row_lower <= A x <= row_upper``), its CSR matrix passed row-wise as it
is.  An LP whose matrix, senses, right-hand sides and bounds are all
read-only arrays is *re-priceable*: every LP that ``build_follower_lp``
prices from one operator system is, since they share the system's skeleton.
Such an LP is solved with presolve off, and after an optimal solve its
loaded HiGHS model is kept, one per thread.  The next LP with the very same
arrays only swaps in its costs and re-optimizes from the kept basis; any
other LP releases the kept model first.  A re-priced LP's optimal vertex can
therefore depend on the previous re-pricing on that thread; its objective
and duals are optimal either way.  The operator LP carries its implied
column upper bounds, so its duals are those of the bounded LP: a column at
its upper bound may have a negative reduced cost.  Those bounds let the dual
simplex answer a change of costs by moving columns between their bounds, and
halve the iterations of a re-priced week response.  Every other LP runs with
HiGHS' default, presolve on.

A MILP always runs with presolve off.  On the rolling-horizon windows (about
200 to 300 rows, up to a few dozen nodes) presolve costs more than it saves;
only small one-node MILPs, whose fixed columns it removes, lose a few
milliseconds.  A MILP also always runs without the feasibility-jump
heuristic (Luteberget & Sartor 2023).  It runs before the root LP and, on
these big-M MILPs, finds only points that the root rounding and sub-MIP
heuristics beat: without it the windows and desk MILPs keep their objectives
and node counts and take about 30% less time.  RINS and RENS stay on, since
without them HiGHS ends one window optimal below a known feasible point.  A
MILP's ``lp_iterations`` are HiGHS' simplex iterations plus those of the
fixed-switch re-solve.  HiGHS' MIP solver can print a debug line to stdout
whatever its options say, so fd 1 points at fd 2 while a MILP runs.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from typing import Protocol

import numpy as np

try:    # a private module of scipy's: say so when a release drops it
    from scipy.optimize._highspy import _core as highs_core
except ImportError as exc:
    import scipy
    raise ImportError(f"gridtariff needs scipy.optimize._highspy._core, which scipy"
                      f" {scipy.__version__} lacks; it is tested with scipy 1.17.1") from exc

from . import bnb
from .core import (GE, LE, LinearProgram, LpSolution, MilpModel,
                   MilpResult, SolveOptions, SolverError, Status, relative_gap)


class SolverBackend(Protocol):
    name: str

    def solve_lp(self, lp: LinearProgram, opts: SolveOptions | None = None) -> LpSolution: ...

    # ``x`` of the result is an optimum of ``model.fixed_at(x)``, or None (also
    # at a limit); ``initial_solutions``, which perfbench forwards, is ignored.
    def solve_milp(self, model: MilpModel,
                   opts: SolveOptions | None = None) -> MilpResult: ...


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


# tight tolerances matter: slack allowed on a big-M row is the tolerance times
# the row scale, which can flip switch patterns
TOLERANCES = (("primal_feasibility_tolerance", 1e-9),
              ("dual_feasibility_tolerance", 1e-9))

_CODES = highs_core.HighsModelStatus
# HiGHS' verdicts on a model, and the limits only a MILP solve may stop at
_STATUS = {_CODES.kOptimal: Status.OPTIMAL,
           _CODES.kInfeasible: Status.INFEASIBLE,
           _CODES.kUnbounded: Status.UNBOUNDED,
           _CODES.kTimeLimit: Status.TIME_LIMIT,
           _CODES.kIterationLimit: Status.TIME_LIMIT,
           _CODES.kSolutionLimit: Status.NODE_LIMIT}     # mip_max_nodes


_REDIRECT = threading.Lock()
_redirected = [0, -1]       # MILP runs in progress, the saved fd 1


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point fd 1 at fd 2 for the block.  HiGHS' MIP solver prints a debug
    line to stdout whatever ``output_flag`` says, and a CLI's stdout is text
    other programs read.  The first of overlapping blocks on any thread saves
    fd 1 and the last restores it."""
    with _REDIRECT:
        if _redirected[0] == 0:
            sys.stdout.flush()
            _redirected[1] = os.dup(1)
            os.dup2(2, 1)
        _redirected[0] += 1
    try:
        yield
    finally:
        with _REDIRECT:
            _redirected[0] -= 1
            if _redirected[0] == 0:
                os.dup2(_redirected[1], 1)
                os.close(_redirected[1])


class HighsModel:
    """``lp`` in one HiGHS instance minimizing ``cost`` (``sign`` times its
    objective), ``options`` checked, a MILP with ``integer`` columns.  ``info``
    is the last run's and ``iterations`` sums every run's simplex iterations."""

    def __init__(self, lp: LinearProgram, presolve: bool, options=(),
                 integer: np.ndarray | None = None) -> None:
        self.sign = -1.0 if lp.maximize else 1.0
        cost = self.cost = self.sign * lp.obj
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
        self.highs = highs = highs_core._Highs()
        highs.setOptionValue("output_flag", False)
        if not presolve:
            highs.setOptionValue("presolve", "off")
        if highs.passModel(model) == highs_core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        for option, value in options:
            if highs.setOptionValue(option, value) != highs_core.HighsStatus.kOk:
                raise SolverError(f"HiGHS refused option {option}={value!r}")
        self.milp = integer is not None
        if self.milp:
            kinds = np.full(len(integer), highs_core.HighsVarType.kInteger)
            highs.changeColsIntegrality(len(integer), integer.astype(np.int32), kinds)
        self.iterations, self.info = 0, None

    def run(self) -> Status:
        """Run HiGHS and map its model status to a ``Status``; any other
        status, or a limit on an LP, raises with HiGHS' own string."""
        highs = self.highs
        with _stdout_to_stderr() if self.milp else contextlib.nullcontext():
            highs.run()
        self.info = highs.getInfo()
        self.iterations += int(self.info.simplex_iteration_count)
        code = highs.getModelStatus()
        if code == _CODES.kUnboundedOrInfeasible and not self.milp:
            return Status.UNBOUNDED     # the dual is infeasible: no finite optimum
        status = _STATUS.get(code)
        if status is None or (status in (Status.TIME_LIMIT, Status.NODE_LIMIT)
                              and not self.milp):
            raise SolverError(f"HiGHS {'MILP' if self.milp else 'LP'} solve"
                              f" failed: {highs.modelStatusToString(code)}")
        return status

    def solution(self, duals: bool = False):
        """The last run's ``x`` and, if asked for, row duals in the LP's sense."""
        solution = self.highs.getSolution()
        return (np.asarray(solution.col_value),
                self.sign * np.asarray(solution.row_dual) if duals else None)

    def reprice(self, obj: np.ndarray, maximize: bool) -> None:
        """Make ``obj`` the objective, maximized or minimized."""
        self.sign = -1.0 if maximize else 1.0
        self.cost = self.sign * obj
        self.highs.changeColsCost(len(obj), np.arange(len(obj), dtype=np.int32), self.cost)

    def solve_node(self, cols: np.ndarray, lo: np.ndarray, up: np.ndarray,
                   basis=None) -> tuple:
        """Set int32 columns ``cols``' bounds, re-solve from ``basis`` (or the
        last run's): ``(status, x, cost @ x)``, x and cost None unless optimal."""
        self.highs.changeColsBounds(len(cols), cols, lo, up)
        if basis is not None:
            self.highs.setBasis(basis)
        status = self.run()
        if status is not Status.OPTIMAL:
            return status, None, None
        x, _ = self.solution()
        return status, x, float(self.cost @ x)

    def basis(self):
        """The basis of the last run."""
        return self.highs.getBasis()


class ScipyBackend:
    """HiGHS through scipy's vendored bindings; duals are HiGHS' row duals."""

    name = "scipy"

    def __init__(self) -> None:
        self._kept = threading.local()      # .model: (reprice key, HighsModel)

    def solve_lp(self, lp, opts=None):
        lp.validate()
        kept = getattr(self._kept, "model", None)
        self._kept.model = None
        if lp.n_vars == 0:
            # HiGHS does not check the rows of an LP without columns: each reads 0
            lower, upper = _row_bounds(lp)
            if np.any(lower > 0.0) or np.any(upper < 0.0):
                return LpSolution(Status.INFEASIBLE, None, None, None)
            return LpSolution(Status.OPTIMAL, np.zeros(0), np.zeros(lp.n_rows), 0.0)
        key = _reprice_key(lp)
        if kept is not None and key is not None \
                and all(a is b for a, b in zip(kept[0], key)):
            model = kept[1]
            model.reprice(lp.obj, lp.maximize)
        else:
            kept = None         # free the old model before loading the new one
            model = HighsModel(lp, presolve=key is None)
        status = model.run()
        if status is not Status.OPTIMAL:
            return LpSolution(status, None, None, None)
        x, duals = model.solution(duals=True)
        if key is not None:
            self._kept.model = (key, model)
        return LpSolution(Status.OPTIMAL, x, duals, float(lp.obj @ x),
                          iterations=int(model.info.simplex_iteration_count))

    def solve_milp(self, model, opts=None, initial_solutions=None):
        opts = opts or SolveOptions()
        model.validate()
        lp, binaries = model.lp, model.binary_idx
        mip = HighsModel(lp, presolve=False, integer=binaries, options=(
            ("time_limit", opts.time_limit), ("mip_rel_gap", opts.rel_gap),
            ("mip_max_nodes", opts.node_limit),
            ("mip_heuristic_run_feasibility_jump", False),
            ("mip_feasibility_tolerance", 1e-9), *TOLERANCES))
        status = mip.run()
        info, iterations = mip.info, mip.iterations
        if len(binaries):
            bound, nodes = mip.sign * info.mip_dual_bound, int(info.mip_node_count)
        else:                   # solved as an LP, which sets no MIP information
            bound, nodes = mip.sign * info.objective_function_value, 0
        x = objective = None        # no exact incumbent unless re-solved
        if status is not Status.UNBOUNDED and info.primal_solution_status \
                == highs_core.SolutionStatus.kSolutionStatusFeasible:
            fixed = model.fixed_at(mip.solution()[0])
            del mip                 # free the MILP before loading its fixed LP
            exact = self.solve_lp(fixed)
            iterations += exact.iterations
            x, objective = exact.x, exact.objective     # None unless optimal
        return MilpResult(status, x, objective, bound,
                          relative_gap(objective, bound), nodes,
                          lp_iterations=iterations)


class BundledBackend(ScipyBackend):
    """The repository's own branch-and-bound (``bnb``) on HiGHS node LPs;
    its LPs are ``ScipyBackend``'s."""

    name = "bundled"

    def solve_milp(self, model, opts=None, initial_solutions=None):
        return bnb.solve_milp(model, opts)


_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend) -> SolverBackend:
    """Register a backend under its name; duplicate names are rejected."""
    if backend.name in _REGISTRY:
        raise SolverError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str | None = None) -> SolverBackend:
    try:
        return _REGISTRY[name or "bundled"]
    except KeyError:
        raise SolverError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


register_backend(BundledBackend())
register_backend(ScipyBackend())


def solve_lp(lp: LinearProgram, opts: SolveOptions | None = None) -> LpSolution:
    """``lp`` solved on HiGHS, as every backend solves its LPs."""
    return _REGISTRY["scipy"].solve_lp(lp, opts)
