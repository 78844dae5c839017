"""Bounded-variable primal and dual simplex with dual certificates.

Two-phase revised simplex over the equality system [A | I]x = b obtained by
slack augmentation.  Nonbasic variables rest on a finite bound (or at zero if
free).  An explicit dense basis inverse is kept: a refactorization eliminates
the basic unit columns (slacks and phase-1 artificials, one +-1 each) first
and inverts only the structural "bump" left over (Suhl & Suhl 1990,
*Computing sparse LU factorizations for large-scale linear programming
bases*), then checks the whole inverse against the basis; each pivot updates
the inverse in place with one BLAS rank-1 update, and the basis is
refactorized periodically.  Dantzig pricing switches to Bland's rule after a
run of degenerate steps, which guarantees termination.

A ``Workspace`` holds the standardized arrays, including the transpose that
pricing reads, and can be reused across solves of the same constraint matrix
with different objectives or variable bounds (branch-and-bound nodes).  A
solve starts from the slack crash basis, or from the optimal basis of an
earlier solve whose bounds were looser: that basis is still dual feasible, so
a bounded dual simplex (Koberstein 2005, *The dual simplex method*) restores
primal feasibility and the primal loop then confirms optimality.

The workspace also keeps the basis and inverse that its last solve without
phase-1 artificials ended on.  A warm start reaches its basis from that one
by column exchanges, one rank-1 update each, instead of a refactorization
(Bixby 2002, *Solving real-world linear programs*).  It refactorizes when the
exchanges would take the inverse past ``_REFACTOR_EVERY`` updates, meet a
pivot below ``_PIVOT_TOL`` or fail the whole-basis check.

Multiplier convention (minimization): binding ">=" rows have nonnegative
multipliers, binding "<=" rows nonpositive ones, equalities are free, and the
dual objective y'b plus bound contributions equals the primal optimum.  For
maximization problems the returned multipliers are negated so the analogous
signs hold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger

from .core import GE, LE, LinearProgram, LpSolution, SolverError, Status

_BASIC = 0
_AT_LB = 1
_AT_UB = 2
_FREE_NB = 3
_FIXED = 4

_PIVOT_TOL = 1e-7
_RC_TOL = 1e-9
_DUAL_FEAS_TOL = 1e-7                # a warm basis must price out within this
_FEAS_TOL = 1e-9                     # relative bound violation the dual repairs
_DEGEN_RUN = 40
_REFACTOR_EVERY = 120


class Workspace:
    """Standardized arrays for one constraint matrix, reusable across solves,
    and the basis inverse the last solve left for the next warm start."""

    def __init__(self, lp: LinearProgram):
        lp.validate()
        m, n = lp.n_rows, lp.n_vars
        self.m, self.n_struct = m, n
        self.slack_lb = np.where(lp.sense == GE, -np.inf, 0.0)
        self.slack_ub = np.where(lp.sense == LE, np.inf, 0.0)
        self.base_lower = lp.lower.copy()
        self.base_upper = lp.upper.copy()
        self.a = sp.hstack([lp.a_rows, sp.eye(m, format="csc")], format="csc")
        self.a_t = self.a.T.tocsr()         # pricing reads [A | I]^T every step
        self.a_struct = lp.a_rows.tocsc()
        self.b = lp.rhs.copy()
        # (basis, dense inverse, rank-1 updates since its refactorization) at
        # the end of the last solve that needed no phase-1 artificials
        self.kept: tuple[np.ndarray, np.ndarray, int] | None = None

    def bounds(self, lower: np.ndarray | None, upper: np.ndarray | None
               ) -> tuple[np.ndarray, np.ndarray]:
        lo = self.base_lower if lower is None else np.asarray(lower, dtype=float)
        up = self.base_upper if upper is None else np.asarray(upper, dtype=float)
        return (np.concatenate([lo, self.slack_lb]),
                np.concatenate([up, self.slack_ub]))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP, returning primal values and row multipliers."""
    ws = Workspace(lp)
    return solve_with_workspace(ws, lp.obj, lp.maximize)


def solve_with_workspace(ws: Workspace, obj: np.ndarray, maximize: bool,
                         lower: np.ndarray | None = None,
                         upper: np.ndarray | None = None,
                         basis: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> LpSolution:
    """Solve over ``ws`` with the given objective and bounds.

    ``basis`` is the ``(basis, vstat)`` pair of an optimal solve on ``ws``
    with the same objective and looser bounds.  Its inverse comes from the
    one ``ws.kept`` holds, by column exchanges, or else from a
    refactorization (``LpSolution.exchanged`` says which).  The dual simplex
    then restores primal feasibility from it and the primal loop checks
    optimality.  The solve falls back to the slack crash basis when the pair
    holds a phase-1 artificial, is singular or is not dual feasible within
    1e-7 (``_DUAL_FEAS_TOL``); ``LpSolution.warm`` says which start was used.
    """
    lb, ub = ws.bounds(lower, upper)
    if np.any(lb > ub + 1e-12):
        return LpSolution(Status.INFEASIBLE, None, None, None)
    c = np.zeros(ws.n_struct + ws.m)
    c[: ws.n_struct] = -obj if maximize else obj
    sim = _Simplex.restore(ws, lb, ub, c, basis) if basis is not None else None
    warm = sim is not None
    if warm:
        feasible = sim.dual()
    else:
        sim = _Simplex.crash(ws, lb, ub)
        feasible = sim.phase1()
    status = sim.phase2(c) if feasible else Status.INFEASIBLE
    sim.keep()
    if status is Status.INFEASIBLE:
        return LpSolution(Status.INFEASIBLE, None, None, None,
                          iterations=sim.iterations, warm=warm,
                          exchanged=sim.exchanged,
                          farkas=None if warm else sim.multipliers())
    if status is Status.UNBOUNDED:
        return LpSolution(Status.UNBOUNDED, None, None, None,
                          iterations=sim.iterations, warm=warm,
                          exchanged=sim.exchanged)
    x = sim.x[: ws.n_struct].copy()
    y = sim.multipliers()
    obj_val = float(np.dot(obj, x))
    if maximize:
        y = -y
    return LpSolution(Status.OPTIMAL, x, y, obj_val, iterations=sim.iterations,
                      basis=sim.basis.copy(), vstat=sim.vstat[: sim.n_tot].copy(),
                      warm=warm, exchanged=sim.exchanged)


class _Simplex:
    def __init__(self, ws: Workspace, lb: np.ndarray, ub: np.ndarray,
                 x: np.ndarray, vstat: np.ndarray, basis: np.ndarray,
                 art: sp.csc_matrix | None = None,
                 kept: tuple[np.ndarray, np.ndarray, int] | None = None):
        self.ws = ws
        self.iterations = 0
        self.n_tot = ws.n_struct + ws.m
        self.n_art = 0 if art is None else art.shape[1]
        if self.n_art:
            self.a = sp.hstack([ws.a, art], format="csc")
            self.a_t = self.a.T.tocsr()
            self.lb = np.concatenate([lb, np.zeros(self.n_art)])
            self.ub = np.concatenate([ub, np.full(self.n_art, np.inf)])
        else:
            self.a, self.a_t = ws.a, ws.a_t
            self.lb, self.ub = lb, ub
        self.x = x
        self.vstat = vstat
        self.basis = basis
        self.c = np.zeros(self.a.shape[1])
        self.binv: np.ndarray | None = None
        self.exchanged = kept is not None and self._exchange(*kept)
        if not self.exchanged:
            self._refactor()
        self._bland = False
        self._degen_run = 0

    @classmethod
    def crash(cls, ws: Workspace, lb: np.ndarray, ub: np.ndarray) -> "_Simplex":
        """Slack-first crash basis; rows whose slack cannot absorb the
        residual get an artificial column instead."""
        m = ws.m
        n_tot = ws.n_struct + m
        # Nonbasic starting point: nearest finite bound, or 0 for free vars.
        x = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        status = np.full(n_tot, _AT_LB, dtype=np.int8)
        status[~np.isfinite(lb) & np.isfinite(ub)] = _AT_UB
        status[~np.isfinite(lb) & ~np.isfinite(ub)] = _FREE_NB
        status[lb == ub] = _FIXED

        resid = ws.b - ws.a_struct @ x[: ws.n_struct]
        s_lb, s_ub = lb[ws.n_struct:], ub[ws.n_struct:]
        fits = (s_lb - 1e-12 <= resid) & (resid <= s_ub + 1e-12)
        x[ws.n_struct:] = np.where(fits, resid, np.clip(resid, s_lb, s_ub))
        status[ws.n_struct:][fits] = _BASIC
        basis = np.arange(ws.n_struct, n_tot)
        art_rows = np.flatnonzero(~fits)
        if not art_rows.size:
            return cls(ws, lb, ub, x, status, basis)
        n_art = len(art_rows)
        basis[art_rows] = n_tot + np.arange(n_art)
        gap = resid[art_rows] - x[ws.n_struct + art_rows]
        art = sp.coo_matrix((np.where(gap >= 0, 1.0, -1.0),
                             (art_rows, np.arange(n_art))),
                            shape=(m, n_art)).tocsc()
        x = np.concatenate([x, np.abs(gap)])
        status = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int8)])
        return cls(ws, lb, ub, x, status, basis, art)

    @classmethod
    def restore(cls, ws: Workspace, lb: np.ndarray, ub: np.ndarray,
                c: np.ndarray, start: tuple[np.ndarray, np.ndarray]
                ) -> "_Simplex | None":
        """The basis of an earlier solve under new bounds, or None when it
        cannot seed a dual simplex.  Takes the workspace's kept inverse."""
        basis, vstat = start
        n_tot = ws.n_struct + ws.m
        if len(basis) != ws.m or basis.min(initial=0) < 0 \
                or basis.max(initial=-1) >= n_tot:
            return None                        # holds a phase-1 artificial
        fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
        # nonbasic columns keep the bound they rested on where it is finite
        to_ub = fin_ub & ((vstat == _AT_UB) | ~fin_lb)
        status = np.where(lb == ub, _FIXED,
                          np.where(to_ub, _AT_UB,
                                   np.where(fin_lb, _AT_LB, _FREE_NB))).astype(np.int8)
        status[basis] = _BASIC
        x = np.where(status == _AT_UB, ub, np.where(fin_lb, lb, 0.0))
        kept, ws.kept = ws.kept, None
        try:
            sim = cls(ws, lb, ub, x, status, basis.copy(), kept=kept)
        except SolverError:
            return None                        # singular under refactorization
        sim.c[:] = c
        d = sim.reduced_costs()
        if np.any(((status == _AT_LB) & (d < -_DUAL_FEAS_TOL))
                  | ((status == _AT_UB) & (d > _DUAL_FEAS_TOL))
                  | ((status == _FREE_NB) & (np.abs(d) > _DUAL_FEAS_TOL))):
            return None
        return sim

    # -- basis linear algebra --------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis through its structural bump.

        Each basic unit column ``u`` (slack or artificial) is ``s_u`` times
        the unit vector of its row ``r_u``.  The basic structural columns
        ``J`` and the rows ``R`` that no unit column covers form the bump
        ``K = A[R, J]``, and the inverse is ``binv[J, R] = K^-1``,
        ``binv[U, r_U] = s_U``, ``binv[U, R] = -s_U A[r_U, J] K^-1`` and zero
        elsewhere.  Two unit columns on one row or a singular bump make the
        basis singular.
        """
        m, a, basis = self.ws.m, self.a, self.basis
        unit = basis >= self.ws.n_struct
        u_pos, j_pos = np.flatnonzero(unit), np.flatnonzero(~unit)
        first = a.indptr[basis[u_pos]]
        u_rows, u_sign = a.indices[first], a.data[first]
        uncovered = np.ones(m, dtype=bool)
        uncovered[u_rows] = False
        r_rows = np.flatnonzero(uncovered)
        if len(r_rows) != len(j_pos):
            raise SolverError("singular basis: two unit columns on one row")
        a_j = a[:, basis[j_pos]]
        cols = a_j.toarray()
        try:
            k_inv = np.linalg.inv(cols[r_rows])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}") from exc
        on_r = np.empty((m, len(r_rows)))             # binv[:, R]
        on_r[j_pos] = k_inv
        on_r[u_pos] = -u_sign[:, None] * (cols[u_rows] @ k_inv)
        binv = np.zeros((m, m))
        binv[:, r_rows] = on_r
        binv[u_pos, u_rows] = u_sign
        self.binv = binv
        self._check_inverse()
        self._since_refactor = 0
        self._recompute_basic()

    def _exchange(self, kept_basis: np.ndarray, binv: np.ndarray,
                  since: int) -> bool:
        """Reach the basis from a kept basis and its inverse by column
        exchanges; False leaves the inverse to a refactorization.

        Each entering column takes the leaving position, among those whose
        kept column is not in the basis, with the largest |pivot| and gets
        one rank-1 update; the rows are then put in the basis's order.  The
        exchanges must keep the inverse within ``_REFACTOR_EVERY`` updates
        of its refactorization, every pivot must reach ``_PIVOT_TOL`` and the
        result must pass the whole-basis check.
        """
        member = np.zeros(self.n_tot, dtype=bool)   # masks: np.isin is slower
        member[self.basis] = True
        free = np.flatnonzero(~member[kept_basis])    # their column leaves
        member[:] = False
        member[kept_basis] = True
        entering = self.basis[~member[self.basis]]
        if since + len(entering) > _REFACTOR_EVERY:
            return False
        self.binv, self._since_refactor = binv, since
        for j in entering:
            w = self._col(j)
            piv = np.abs(w[free])
            k = int(np.argmax(piv))
            if piv[k] < _PIVOT_TOL:
                return False
            self._update(free[k], w)
            kept_basis[free[k]] = j
            free = np.delete(free, k)
        row_of = np.empty(self.n_tot, dtype=np.int64)
        row_of[kept_basis] = np.arange(self.ws.m)
        self.binv = self.binv[row_of[self.basis]]
        try:
            self._check_inverse()
        except SolverError:
            return False
        self._recompute_basic()
        return True

    def _check_inverse(self) -> None:
        """Raise unless ``B binv = I`` holds over the whole basis to 1e-6."""
        m = self.ws.m
        prod = self.a[:, self.basis] @ self.binv
        prod.flat[:: m + 1] -= 1.0
        resid = max(prod.max(), -prod.min()) if m else 0.0
        if not np.isfinite(resid) or resid > 1e-6:
            raise SolverError(
                f"numerical breakdown: basis inverse residual {resid:.2e}")

    def _recompute_basic(self) -> None:
        """Basic values from the nonbasic point, shedding update drift."""
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.ws.b - self.a @ x_nb)

    def keep(self) -> None:
        """Leave the basis and its inverse on the workspace for the next
        warm start, unless this solve needed phase-1 artificials."""
        if self.n_art == 0:
            self.ws.kept = (self.basis, self.binv, self._since_refactor)

    def _col(self, j: int) -> np.ndarray:
        a = self.a
        start, end = a.indptr[j], a.indptr[j + 1]
        idx = a.indices[start:end]
        if len(idx) == 0:
            return np.zeros(self.ws.m)
        return self.binv[:, idx] @ a.data[start:end]

    def multipliers(self) -> np.ndarray:
        return self.c[self.basis] @ self.binv

    def reduced_costs(self) -> np.ndarray:
        return self.c - self.a_t @ self.multipliers()

    # -- phases -------------------------------------------------------------

    def phase1(self) -> bool:
        if self.n_art == 0:
            return True
        self.c[:] = 0.0
        self.c[self.n_tot:] = 1.0
        status = self._iterate()
        if status is Status.UNBOUNDED:   # phase-1 objective is bounded below by 0
            raise SolverError("phase-1 reported unbounded")
        obj = float(self.c @ self.x)
        if obj > 1e-7 * (1.0 + np.abs(self.ws.b).max(initial=0.0)):
            return False
        self._purge_artificials()
        return True

    def _purge_artificials(self) -> None:
        # pivot basic artificials out where a usable column exists; leftover
        # rows are redundant and keep a fixed artificial at zero
        for pos in range(self.ws.m):
            j = self.basis[pos]
            if j < self.n_tot:
                continue
            row = self.a_t @ self.binv[pos]
            candidates = np.flatnonzero(np.abs(row[: self.n_tot]) > 1e-7)
            for cand in candidates:
                if self.vstat[cand] != _BASIC and self.lb[cand] != self.ub[cand]:
                    w = self._col(int(cand))
                    self._pivot(int(cand), pos, w, t=0.0, direction=1.0,
                                to_upper=False)
                    break
        for j in range(self.n_tot, self.a.shape[1]):
            self.lb[j] = self.ub[j] = 0.0
            if self.vstat[j] != _BASIC:
                self.vstat[j] = _FIXED
                self.x[j] = 0.0

    def phase2(self, cost: np.ndarray) -> Status:
        self.c[:] = 0.0
        self.c[: len(cost)] = cost
        if self.n_art:
            self._refactor()
        return self._iterate()

    def dual(self) -> bool:
        """Bounded dual simplex from a dual feasible basis: True once every
        basic value is within its bounds, False when a row proves the bounds
        infeasible."""
        for _ in range(80 * (self.ws.m + self.n_tot) + 2000):
            xb = self.x[self.basis]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            below = lb_b - xb
            above = xb - ub_b
            viol = np.maximum(below, above)
            infeasible = viol > _FEAS_TOL * np.maximum(
                1.0, np.abs(np.where(below > above, lb_b, ub_b)))
            if not infeasible.any():
                return True
            self.iterations += 1
            if self._bland:
                rows = np.flatnonzero(infeasible)
                pos = int(rows[np.argmin(self.basis[rows])])
            else:
                pos = int(np.argmax(np.where(infeasible, viol, -np.inf)))
            to_upper = bool(above[pos] > below[pos])
            sgn = 1.0 if to_upper else -1.0

            # x_B[pos] moves by -alpha_j per unit of nonbasic x_j; the entering
            # column must push it toward the violated bound
            alpha = sgn * (self.a_t @ self.binv[pos])
            d = self.reduced_costs()
            up = (((self.vstat == _AT_LB) | (self.vstat == _FREE_NB))
                  & (alpha > _PIVOT_TOL))
            down = (((self.vstat == _AT_UB) | (self.vstat == _FREE_NB))
                    & (alpha < -_PIVOT_TOL))
            eligible = np.flatnonzero(up | down)
            if eligible.size == 0:
                if self._since_refactor > 0:
                    self._refactor()           # confirm on fresh factors
                    continue
                return False
            slack = np.where(up[eligible], d[eligible], -d[eligible])
            ratio = np.maximum(slack, 0.0) / np.abs(alpha[eligible])
            tmin = ratio.min()
            ties = eligible[ratio <= tmin + 1e-12]
            if self._bland:
                j = int(ties.min())
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])

            if tmin <= 1e-12:
                self._degen_run += 1
                if self._degen_run > _DEGEN_RUN:
                    self._bland = True
            else:
                self._degen_run = 0

            w = self._col(j)
            if abs(w[pos]) < 10 * _PIVOT_TOL and self._since_refactor > 0:
                self._refactor()
                continue
            leaving = self.basis[pos]
            bound = self.ub[leaving] if to_upper else self.lb[leaving]
            t = (self.x[leaving] - bound) / w[pos]
            self._pivot(j, pos, w, t, 1.0, to_upper)
            if self._since_refactor >= _REFACTOR_EVERY:
                self._refactor()
        raise SolverError("dual simplex iteration limit exceeded")

    # -- core loop ------------------------------------------------------------

    def _iterate(self) -> Status:
        for _ in range(80 * (self.ws.m + self.n_tot) + 2000):
            self.iterations += 1
            rc = self.reduced_costs()

            at_lb = (self.vstat == _AT_LB) & (rc < -_RC_TOL)
            at_ub = (self.vstat == _AT_UB) & (rc > _RC_TOL)
            free = (self.vstat == _FREE_NB) & (np.abs(rc) > _RC_TOL)
            eligible = np.flatnonzero(at_lb | at_ub | free)
            if eligible.size == 0:
                return Status.OPTIMAL

            if self._bland:
                j = int(eligible[0])
            else:
                j = int(eligible[np.argmax(np.abs(rc[eligible]))])
            direction = 1.0 if (self.vstat[j] == _AT_LB
                                or (self.vstat[j] == _FREE_NB and rc[j] < 0)) else -1.0

            w = self._col(j)
            xb = self.x[self.basis]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            step = direction * w

            t_best = self.ub[j] - self.lb[j]   # bound-flip distance (may be inf)
            leave_pos = -1
            to_upper = False
            dec = step > _PIVOT_TOL
            inc = step < -_PIVOT_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                t_dec = np.where(dec, (xb - lb_b) / np.where(dec, step, 1.0), np.inf)
                t_inc = np.where(inc, (ub_b - xb) / np.where(inc, -step, 1.0), np.inf)
            t_rows = np.minimum(t_dec, t_inc)
            t_rows[~np.isfinite(t_rows)] = np.inf
            if t_rows.size:
                if self._bland:
                    tmin = t_rows.min()
                    ties = np.flatnonzero(t_rows <= tmin + 1e-12)
                    pos = int(ties[np.argmin(self.basis[ties])])
                else:
                    pos = int(np.argmin(t_rows))
                if t_rows[pos] < t_best:
                    t_best = float(t_rows[pos])
                    leave_pos = pos
                    to_upper = bool(t_inc[pos] <= t_dec[pos])

            if not np.isfinite(t_best):
                return Status.UNBOUNDED
            t_best = max(t_best, 0.0)

            if leave_pos >= 0 and abs(w[leave_pos]) < 10 * _PIVOT_TOL \
                    and self._since_refactor > 0:
                # suspicious pivot on stale factors: refresh and redo the step
                self._refactor()
                continue

            if t_best <= 1e-12:
                self._degen_run += 1
                if self._degen_run > _DEGEN_RUN:
                    self._bland = True
            else:
                self._degen_run = 0

            if leave_pos < 0:
                # entering variable flips to its opposite bound
                self.x[self.basis] = xb - t_best * step
                self.x[j] += direction * t_best
                self.vstat[j] = _AT_UB if direction > 0 else _AT_LB
                continue

            self._pivot(j, leave_pos, w, t_best, direction, to_upper)
            if self._since_refactor >= _REFACTOR_EVERY:
                self._refactor()
        raise SolverError("simplex iteration limit exceeded")

    def _pivot(self, j: int, pos: int, w: np.ndarray, t: float,
               direction: float, to_upper: bool) -> None:
        leaving = self.basis[pos]
        self.x[self.basis] = self.x[self.basis] - direction * t * w
        self.x[j] += direction * t
        self.x[leaving] = self.ub[leaving] if to_upper else self.lb[leaving]
        if self.lb[leaving] == self.ub[leaving]:
            self.vstat[leaving] = _FIXED
        else:
            self.vstat[leaving] = _AT_UB if to_upper else _AT_LB
        self.vstat[j] = _BASIC
        self.basis[pos] = j

        if abs(w[pos]) < _PIVOT_TOL:
            self._refactor()
            return
        self._update(pos, w)

    def _update(self, pos: int, w: np.ndarray) -> None:
        """Rank-1 update of the inverse for the column ``B^-1 a_j = w``
        entering at position ``pos``."""
        row = self.binv[pos] / w[pos]
        # binv -= outer(w, row), in place on the Fortran view of binv
        self.binv = dger(-1.0, row, w, a=self.binv.T, overwrite_a=True).T
        self.binv[pos] = row
        self._since_refactor += 1
