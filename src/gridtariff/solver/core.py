"""Core model containers that every LP/MILP backend reads.

A ``LinearProgram`` is a sparse row-oriented model with variable bounds and
row senses; rows and columns are known by position only.  Models that need
names for them (the operator LP) keep their own index arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Hashable, Sequence

import numpy as np
import scipy.sparse as sp

LE, EQ, GE = "<", "=", ">"
_SENSES = (LE, EQ, GE)


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    NODE_LIMIT = "node_limit"


class SolverError(RuntimeError):
    """Raised on malformed input or numerical breakdown."""


@dataclass
class SolveOptions:
    """Knobs shared by the backends."""

    time_limit: float = 600.0
    rel_gap: float = 1e-4
    node_limit: int = 2_000_000

    def __post_init__(self) -> None:
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.rel_gap < 0:
            raise ValueError("rel_gap must be >= 0")


@dataclass
class LinearProgram:
    """Sparse LP: optimize c'x s.t. row senses, lower <= x <= upper."""

    n_vars: int
    obj: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_rows: sp.csr_matrix
    sense: np.ndarray          # elements of {"<", "=", ">"}
    rhs: np.ndarray
    maximize: bool = False

    @property
    def n_rows(self) -> int:
        return self.a_rows.shape[0]

    def validate(self) -> None:
        m, n = self.a_rows.shape
        if n != self.n_vars:
            raise SolverError("constraint matrix width != n_vars")
        for arr, size in ((self.obj, n), (self.lower, n), (self.upper, n),
                          (self.rhs, m), (self.sense, m)):
            if len(arr) != size:
                raise SolverError("inconsistent LP array sizes")
        if not np.all(np.isfinite(self.rhs)):
            raise SolverError("rhs must be finite")
        if not np.all(np.isfinite(self.obj)):
            raise SolverError("objective must be finite")
        if not np.all(np.isfinite(self.a_rows.data)):
            raise SolverError("constraint coefficients must be finite")
        if np.any(self.lower > self.upper + 1e-12):
            raise SolverError("crossed variable bounds")
        bad = set(self.sense.tolist()) - set(_SENSES)
        if bad:
            raise SolverError(f"unknown row senses {bad}")

    def with_objective(self, obj: np.ndarray, maximize: bool | None = None) -> "LinearProgram":
        return replace(self, obj=np.asarray(obj, dtype=float),
                       maximize=self.maximize if maximize is None else maximize)

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> "LinearProgram":
        return replace(self, lower=np.asarray(lower, dtype=float),
                       upper=np.asarray(upper, dtype=float))


@dataclass
class MilpModel:
    """LP plus the set of variables restricted to {0, 1}."""

    lp: LinearProgram
    binary_idx: np.ndarray

    def validate(self) -> None:
        self.lp.validate()
        if len(self.binary_idx) != len(set(self.binary_idx.tolist())):
            raise SolverError("duplicate binary indices")
        if len(self.binary_idx) and (self.binary_idx.min() < 0
                                     or self.binary_idx.max() >= self.lp.n_vars):
            raise SolverError("binary index out of range")
        lo = self.lp.lower[self.binary_idx]
        up = self.lp.upper[self.binary_idx]
        if np.any(lo < -1e-9) or np.any(up > 1 + 1e-9):
            raise SolverError("binary variables must have bounds within [0, 1]")

    def fixed_at(self, x: np.ndarray) -> LinearProgram:
        """The LP with every binary fixed at its rounded value in ``x``."""
        lo, up = self.lp.lower.copy(), self.lp.upper.copy()
        lo[self.binary_idx] = up[self.binary_idx] = np.round(x[self.binary_idx])
        return self.lp.with_bounds(lo, up)


@dataclass
class LpSolution:
    status: Status
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    iterations: int = 0


@dataclass
class MilpResult:
    """A MILP solve's outcome.  ``x`` is exact: an optimum of the LP with
    every binary fixed at its rounded value (``MilpModel.fixed_at``), and
    ``objective`` and ``rel_gap`` are measured at it.  ``x=None`` means the
    solve has no exact incumbent: none was found, or its fixed-switch LP has
    no optimum."""

    status: Status
    x: np.ndarray | None
    objective: float | None
    bound: float
    rel_gap: float
    nodes: int
    log: list = field(default_factory=list)   # (node id, depth, bound, branch var)
    lp_iterations: int = 0     # simplex iterations of the search (bundled:
                               # its node LPs; HiGHS: its own count) plus
                               # the incumbent's fixed-switch re-solve


def relative_gap(incumbent: float | None, bound: float) -> float:
    """``|incumbent - bound| / max(1, |incumbent|)``, or inf without both."""
    if incumbent is None or not np.isfinite(bound):
        return np.inf
    return abs(incumbent - bound) / max(1.0, abs(incumbent))


class LpBuilder:
    """Incremental triplet-based construction of a LinearProgram; variables
    are added under unique names."""

    def __init__(self, maximize: bool = False) -> None:
        self.maximize = maximize
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._rows_i: list[int] = []
        self._rows_j: list[int] = []
        self._rows_v: list[float] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._names: set[Hashable] = set()

    @property
    def n_vars(self) -> int:
        return len(self._obj)

    @property
    def n_rows(self) -> int:
        return len(self._rhs)

    def add_var(self, name: Hashable, lb: float = 0.0, ub: float = np.inf,
                obj: float = 0.0) -> int:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        self._names.add(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        return len(self._obj) - 1

    def set_obj(self, idx: int, coef: float) -> None:
        self._obj[idx] = float(coef)

    def add_row(self, terms: Sequence[tuple[int, float]], sense: str,
                rhs: float) -> int:
        if sense not in _SENSES:
            raise SolverError(f"bad sense {sense!r}")
        row = len(self._rhs)
        for j, v in terms:
            if v != 0.0:
                self._rows_i.append(row)
                self._rows_j.append(j)
                self._rows_v.append(float(v))
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        return row

    def build(self) -> LinearProgram:
        n, m = self.n_vars, self.n_rows
        mat = sp.coo_matrix(
            (self._rows_v, (self._rows_i, self._rows_j)), shape=(m, n)
        ).tocsr()
        mat.sum_duplicates()
        lp = LinearProgram(
            n_vars=n,
            obj=np.asarray(self._obj, dtype=float),
            lower=np.asarray(self._lb, dtype=float),
            upper=np.asarray(self._ub, dtype=float),
            a_rows=mat,
            sense=np.asarray(self._sense, dtype=object),
            rhs=np.asarray(self._rhs, dtype=float),
            maximize=self.maximize,
        )
        lp.validate()
        return lp


def check_lp_solution(lp: LinearProgram, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Return human-readable violations of bounds/rows at x (empty if feasible)."""
    issues: list[str] = []
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        j = int(np.argmax(np.maximum(lp.lower - x, x - lp.upper)))
        issues.append(f"bound violated at var {j}")
    ax = lp.a_rows @ x
    scale = 1.0 + np.abs(lp.rhs)
    for sense, test in ((LE, ax - lp.rhs), (GE, lp.rhs - ax)):
        mask = (lp.sense == sense) & (test > tol * scale)
        for i in np.flatnonzero(mask):
            issues.append(f"row {i} {sense} violated by {test[i]:.3e}")
    mask = (lp.sense == EQ) & (np.abs(ax - lp.rhs) > tol * scale)
    for i in np.flatnonzero(mask):
        issues.append(f"row {i} = violated by {abs(ax[i] - lp.rhs[i]):.3e}")
    return issues
