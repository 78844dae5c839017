"""Best-bound branch-and-bound over binary variables, on HiGHS node LPs.

Nodes are LP relaxations with tightened binary bounds; selection is
best-bound with FIFO tie-breaking, branching picks the most fractional
binary (ties by lowest variable index).  The MILP's LP relaxation is loaded
into one HiGHS model per solve, with presolve off.  A node sets its binary
columns' bounds and restores its parent's optimal basis, which a fixed
binary leaves dual feasible, so a few steps of HiGHS' dual simplex re-solve
it (Huangfu & Hall 2018, *Parallelizing the dual revised simplex method*).
The root starts from HiGHS' own crash.  Everything is deterministic for a
fixed model, so repeated runs produce identical node trails.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from . import backends
from .core import (LinearProgram, MilpModel, MilpResult, SolveOptions, Status,
                   check_lp_solution, relative_gap)

_INT_TOL = 1e-6


@dataclass
class _Node:
    fixed: dict                     # position in ``binary_idx`` -> 0.0 or 1.0
    bound: float
    depth: int
    basis: object = None            # the parent's optimal HighsBasis


def verify_milp_solution(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    issues = check_lp_solution(model.lp, x, tol)
    if len(model.binary_idx):
        frac = np.abs(x[model.binary_idx] - np.round(x[model.binary_idx]))
        if frac.max() > tol:
            issues.append(f"binary integrality violated by {frac.max():.3e}")
    return issues


class NodeLp:
    """A MILP's LP relaxation, loaded once into HiGHS with presolve off.
    Each ``solve`` sets the bounds of the columns ``cols`` and re-solves it,
    from ``basis`` when one is given and from the last solve's basis
    otherwise; ``iterations`` sums the simplex iterations of every solve."""

    def __init__(self, lp: LinearProgram, cols: np.ndarray) -> None:
        self.cost = (-1.0 if lp.maximize else 1.0) * lp.obj
        self.cols = np.asarray(cols, dtype=np.int32)
        self.highs = backends._load(lp, self.cost, presolve=False,
                                    options=backends.TOLERANCES)
        self.iterations = 0

    def solve(self, lo: np.ndarray, up: np.ndarray, basis=None) -> tuple:
        """``(status, x, objective)``, the objective in the minimized sense;
        ``x`` and ``objective`` are None unless the status is ``OPTIMAL``."""
        highs = self.highs
        highs.changeColsBounds(len(self.cols), self.cols, lo, up)
        if basis is not None:
            highs.setBasis(basis)
        highs.run()
        self.iterations += int(highs.getInfo().simplex_iteration_count)
        status = backends._status(highs, milp=False)
        if status is not Status.OPTIMAL:
            return status, None, None
        x = np.asarray(highs.getSolution().col_value)
        return status, x, float(self.cost @ x)

    def basis(self):
        """The optimal basis of the last solve."""
        return self.highs.getBasis()


def solve_milp(model: MilpModel, opts: SolveOptions | None = None) -> MilpResult:
    """Branch-and-bound on HiGHS node LPs.  Internally minimizes.

    The incumbent is re-solved at ``model.fixed_at`` on the node model, from
    its node's optimal basis, so the result is exact.  A solve stopped by its
    time or node limit before finding an incumbent returns that limit's
    status with ``x=None`` and the bound of the open nodes; one stopped by
    ``opts.rel_gap`` reports that bound too.  A node LP without a finite
    optimum ends the search ``UNBOUNDED``; an infeasible one is pruned."""
    opts = opts or SolveOptions()
    model.validate()
    lp = model.lp
    sign = -1.0 if lp.maximize else 1.0
    binaries = np.asarray(model.binary_idx, dtype=np.int64)
    nodes = NodeLp(lp, binaries)

    incumbent_switches: np.ndarray | None = None
    incumbent_obj: float | None = None          # internal (min) sense
    incumbent_start = None

    def result(status: Status, x=None, objective=None, bound=np.nan,
               gap=np.inf) -> MilpResult:
        return MilpResult(status, x, objective, bound, gap, nodes_done, log,
                          lp_iterations=nodes.iterations)

    base_lo, base_up = lp.lower[binaries], lp.upper[binaries]

    def node_bounds(node: _Node) -> tuple[np.ndarray, np.ndarray]:
        lo, up = base_lo.copy(), base_up.copy()
        for k, v in node.fixed.items():
            lo[k] = up[k] = v
        return lo, up

    t0 = time.monotonic()
    log: list[tuple] = []
    nodes_done = 0
    counter = 1
    heap: list[tuple[float, int, _Node]] = [(-np.inf, 0, _Node({}, -np.inf, 0))]
    stop_status: Status | None = None
    proven_optimal = False
    dual_bound = -np.inf

    while heap:
        bound = heap[0][0]
        dual_bound = max(dual_bound, bound)
        if incumbent_obj is not None:
            if bound >= incumbent_obj - 1e-9:
                dual_bound = incumbent_obj
                proven_optimal = True
                heap.clear()
                break
            if relative_gap(incumbent_obj, bound) <= opts.rel_gap:
                break                   # the open nodes' bound stands
        if time.monotonic() - t0 > opts.time_limit:
            stop_status = Status.TIME_LIMIT
            break
        if nodes_done >= opts.node_limit:
            stop_status = Status.NODE_LIMIT
            break
        _, _, node = heapq.heappop(heap)

        status, x, objective = nodes.solve(*node_bounds(node), node.basis)
        nodes_done += 1
        if status is Status.UNBOUNDED:
            return result(Status.UNBOUNDED)
        if status is not Status.OPTIMAL:
            log.append((nodes_done, node.depth, None, "infeasible"))
            continue
        node_bound = max(bound, objective) if np.isfinite(bound) else objective
        if incumbent_obj is not None and node_bound >= incumbent_obj - 1e-9:
            log.append((nodes_done, node.depth, node_bound, "pruned"))
            continue

        frac = (np.abs(x[binaries] - np.round(x[binaries]))
                if len(binaries) else np.empty(0))
        if frac.size == 0 or frac.max() <= _INT_TOL:
            if frac.size and frac.max() > 1e-12:
                # re-solve at exactly integral switches: near-integral values
                # scaled by big row coefficients can hide real slack
                fixed = np.round(x[binaries])
                status, x, objective = nodes.solve(fixed, fixed, None)
                if status is not Status.OPTIMAL:
                    log.append((nodes_done, node.depth, node_bound, "leaf"))
                    continue
            if incumbent_obj is None or objective < incumbent_obj - 1e-12:
                incumbent_obj = objective
                incumbent_switches = np.round(x[binaries])
                incumbent_start = nodes.basis()
            log.append((nodes_done, node.depth, node_bound, "leaf"))
            continue

        dist = np.minimum(frac, 1.0 - frac)
        cand = np.flatnonzero(dist >= dist.max() - 1e-12)
        k = int(cand.min())
        log.append((nodes_done, node.depth, node_bound, int(binaries[k])))
        basis = nodes.basis()
        for fix in (0.0, 1.0):
            heapq.heappush(heap, (node_bound, counter,
                                  _Node({**node.fixed, k: fix}, node_bound,
                                        node.depth + 1, basis)))
            counter += 1

    if heap:                                   # stopped early; open nodes remain
        dual_bound = max(dual_bound, heap[0][0])
    elif stop_status is None and not proven_optimal:
        # tree exhausted: the incumbent (if any) is exactly optimal
        dual_bound = incumbent_obj if incumbent_obj is not None else np.inf
        proven_optimal = incumbent_obj is not None

    if incumbent_obj is None:
        if stop_status is not None:
            return result(stop_status, bound=sign * dual_bound
                          if np.isfinite(dual_bound) else np.nan)
        return result(Status.INFEASIBLE)

    if proven_optimal:
        dual_bound = incumbent_obj
    gap = relative_gap(incumbent_obj, dual_bound)
    status = Status.OPTIMAL if stop_status is None else stop_status
    if status is not Status.OPTIMAL and gap <= opts.rel_gap:
        status = Status.OPTIMAL
    status_exact, x, _ = nodes.solve(incumbent_switches, incumbent_switches,
                                     incumbent_start)
    bound = sign * dual_bound
    if status_exact is not Status.OPTIMAL:
        return result(status, bound=bound)
    objective = float(lp.obj @ x)
    return result(status, x, objective, bound, relative_gap(objective, bound))
