"""Best-bound branch-and-bound over binary variables.

Nodes are LP relaxations with tightened binary bounds; selection is
best-bound with FIFO tie-breaking, branching picks the most fractional
binary (ties by lowest variable index).  The root LP starts from the slack
crash basis; every other node starts from its parent's optimal basis, which
a fixed binary leaves dual feasible, so a few dual simplex steps re-solve it.
All nodes share one ``simplex.Workspace``, so a node reaches its parent's
basis by a few column exchanges on the inverse the previous node left there,
and refactorizes only when that is not possible.  Everything is
deterministic for a fixed model, so repeated runs produce identical node
trails.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from . import simplex
from .core import (MilpModel, MilpResult, SolveOptions, Status,
                   check_lp_solution, relative_gap)

_INT_TOL = 1e-6


@dataclass
class _Node:
    lb_patch: dict
    ub_patch: dict
    bound: float
    depth: int
    basis: tuple | None = None      # the parent's (basis, vstat)


def verify_milp_solution(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    issues = check_lp_solution(model.lp, x, tol)
    if len(model.binary_idx):
        frac = np.abs(x[model.binary_idx] - np.round(x[model.binary_idx]))
        if frac.max() > tol:
            issues.append(f"binary integrality violated by {frac.max():.3e}")
    return issues


def solve_milp(model: MilpModel, opts: SolveOptions | None = None) -> MilpResult:
    """Branch-and-bound on the bundled simplex.  Internally minimizes.

    The incumbent is re-solved at ``model.fixed_at`` on the node workspace,
    from its node's optimal basis, so the result is exact.  A solve stopped
    by its time or node limit before finding an incumbent returns that
    limit's status with ``x=None`` and the bound of the open nodes; one
    stopped by ``opts.rel_gap`` reports that bound too."""
    opts = opts or SolveOptions()
    model.validate()
    lp = model.lp
    sign = -1.0 if lp.maximize else 1.0
    work_lp = lp.with_objective(sign * lp.obj, maximize=False)
    binaries = np.asarray(model.binary_idx, dtype=np.int64)

    incumbent_x: np.ndarray | None = None
    incumbent_obj: float | None = None          # internal (min) sense
    incumbent_start: tuple | None = None

    ws = simplex.Workspace(work_lp)

    def node_bounds(node: _Node) -> tuple[np.ndarray, np.ndarray]:
        lo = work_lp.lower.copy()
        up = work_lp.upper.copy()
        for j, v in node.lb_patch.items():
            lo[j] = v
        for j, v in node.ub_patch.items():
            up[j] = v
        return lo, up

    lp_iterations = 0
    cold_nodes = 0
    refactored_nodes = 0

    def node_lp(lo: np.ndarray, up: np.ndarray, basis: tuple | None):
        nonlocal lp_iterations, cold_nodes, refactored_nodes
        sol = simplex.solve_with_workspace(ws, work_lp.obj, False, lo, up,
                                           basis=basis)
        lp_iterations += sol.iterations
        cold_nodes += not sol.warm
        refactored_nodes += sol.warm and not sol.exchanged
        return sol

    def result(status: Status, x=None, objective=None, bound=np.nan,
               gap=np.inf) -> MilpResult:
        return MilpResult(status, x, objective, bound, gap, nodes_done, log,
                          lp_iterations=lp_iterations, cold_nodes=cold_nodes,
                          refactored_nodes=refactored_nodes)

    t0 = time.monotonic()
    log: list[tuple] = []
    nodes_done = 0
    counter = 1
    heap: list[tuple[float, int, _Node]] = [(-np.inf, 0, _Node({}, {}, -np.inf, 0))]
    stop_status: Status | None = None
    proven_optimal = False
    dual_bound = -np.inf

    while heap:
        if time.monotonic() - t0 > opts.time_limit:
            stop_status = Status.TIME_LIMIT
            break
        if nodes_done >= opts.node_limit:
            stop_status = Status.NODE_LIMIT
            break
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
        _, _, node = heapq.heappop(heap)

        lo, up = node_bounds(node)
        sol = node_lp(lo, up, node.basis)
        nodes_done += 1
        if sol.status is Status.UNBOUNDED:
            return result(Status.UNBOUNDED)
        if sol.status is not Status.OPTIMAL:
            log.append((nodes_done, node.depth, None, "infeasible"))
            continue
        node_bound = max(bound, sol.objective) if np.isfinite(bound) else sol.objective
        if incumbent_obj is not None and node_bound >= incumbent_obj - 1e-9:
            log.append((nodes_done, node.depth, node_bound, "pruned"))
            continue

        frac = (np.abs(sol.x[binaries] - np.round(sol.x[binaries]))
                if len(binaries) else np.empty(0))
        if frac.size == 0 or frac.max() <= _INT_TOL:
            if frac.size and frac.max() > 1e-12:
                # re-solve at exactly integral switches: near-integral values
                # scaled by big row coefficients can hide real slack
                fixed = model.fixed_at(sol.x)
                sol = node_lp(fixed.lower, fixed.upper, (sol.basis, sol.vstat))
                if sol.status is not Status.OPTIMAL:
                    log.append((nodes_done, node.depth, node_bound, "leaf"))
                    continue
            if incumbent_obj is None or sol.objective < incumbent_obj - 1e-12:
                incumbent_obj = sol.objective
                incumbent_x = sol.x
                incumbent_start = (sol.basis, sol.vstat)
            log.append((nodes_done, node.depth, node_bound, "leaf"))
            continue

        dist = np.minimum(frac, 1.0 - frac)
        cand = np.flatnonzero(dist >= dist.max() - 1e-12)
        branch_var = int(binaries[cand.min()])
        log.append((nodes_done, node.depth, node_bound, branch_var))
        for fix in (0.0, 1.0):
            lbp = dict(node.lb_patch)
            ubp = dict(node.ub_patch)
            lbp[branch_var] = fix
            ubp[branch_var] = fix
            heapq.heappush(heap, (node_bound, counter,
                                  _Node(lbp, ubp, node_bound, node.depth + 1,
                                        (sol.basis, sol.vstat))))
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
    fixed = model.fixed_at(incumbent_x)
    exact = simplex.solve_with_workspace(ws, work_lp.obj, False, fixed.lower,
                                         fixed.upper, basis=incumbent_start)
    lp_iterations += exact.iterations
    bound = sign * dual_bound
    if exact.status is not Status.OPTIMAL:
        return result(status, bound=bound)
    objective = float(lp.obj @ exact.x)
    return result(status, exact.x, objective, bound, relative_gap(objective, bound))
