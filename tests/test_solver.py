"""LP/MILP solver checks against independent oracles."""

from __future__ import annotations

import itertools
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from gridtariff.solver import (EQ, GE, LE, LinearProgram,
                               LpBuilder, MilpModel, SolveOptions, SolverError,
                               Status, check_lp_solution, get_backend,
                               register_backend, relative_gap, solve_lp,
                               solve_milp, verify_milp_solution)
from gridtariff.generator import generate_instance, generate_mini_instance
from gridtariff.reformulation import (build_mpcc, default_dual_m, linearize,
                                      solve_bilevel)
from gridtariff.rolling import (RhConfig, RhTrajectory, make_subinstance,
                                run as run_rolling_horizon)
from gridtariff.scenario import uniform_selector
from gridtariff.solver.backends import (BundledBackend, ScipyBackend,
                                        _stdout_to_stderr)
from gridtariff.solver.bnb import NodeLp

from conftest import DESK_SHAPE, assert_dual_certificate, reduced_costs


def simple_lp(maximize=True):
    b = LpBuilder(maximize=maximize)
    x = b.add_var("x", 0, np.inf, obj=1.0)
    b.add_row([(x, 1.0)], "<", 5.0)
    return b.build()


class TestSimplex:
    """The public ``solve_lp``, HiGHS' simplex, against independent
    oracles."""

    def test_bounded_max(self):
        sol = solve_lp(simple_lp())
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(5.0)
        assert sol.x[0] == pytest.approx(5.0)
        assert sol.duals[0] == pytest.approx(1.0)   # cap is worth 1 per unit

    def test_infeasible_with_certificate(self):
        b = LpBuilder()
        x = b.add_var("x", 0, np.inf, obj=1.0)
        b.add_row([(x, 1.0)], "<", 1.0)
        b.add_row([(x, 1.0)], ">", 2.0)
        lp = b.build()
        assert solve_lp(lp).status is Status.INFEASIBLE
        y = _violation_duals(lp)
        # certificate: y'b exceeds what any x >= 0 can deliver through y'A
        combo = np.asarray(lp.a_rows.T @ y).ravel()
        assert combo[0] <= 1e-9
        assert y @ lp.rhs > 1e-9

    def test_unbounded(self):
        b = LpBuilder(maximize=True)
        x = b.add_var("x", 0, np.inf, obj=1.0)
        b.add_row([(x, 1.0)], ">", 0.0)
        assert solve_lp(b.build()).status is Status.UNBOUNDED

    def test_equalities_and_free_vars(self):
        b = LpBuilder()
        x = b.add_var("x", -np.inf, np.inf, obj=1.0)
        y = b.add_var("y", -np.inf, np.inf, obj=1.0)
        b.add_row([(x, 1.0), (y, 1.0)], "=", 3.0)
        b.add_row([(x, 1.0), (y, -1.0)], "=", 1.0)
        sol = solve_lp(b.build())
        assert sol.status is Status.OPTIMAL
        assert sol.x == pytest.approx([2.0, 1.0])

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            anchor = rng.uniform(0, 2, n)
            ub = anchor + rng.uniform(0.5, 3.0, n)
            A = np.where(rng.random((m, n)) < 0.7, rng.normal(size=(m, n)), 0.0)
            sense = rng.choice([LE, GE], m)
            rhs = A @ anchor + np.where(sense == LE, 1, -1) * rng.uniform(0, 1, m)
            b = LpBuilder()
            for j in range(n):
                b.add_var(f"x{j}", 0.0, ub[j], obj=float(rng.normal()))
            for i in range(m):
                b.add_row([(j, A[i, j]) for j in range(n) if A[i, j]],
                          sense[i], float(rhs[i]))
            lp = b.build()
            sol = solve_lp(lp)
            best = _vertex_enumeration_optimum(lp)
            assert sol.status is Status.OPTIMAL
            assert sol.objective == pytest.approx(best, abs=1e-8, rel=1e-8)
            checked += 1
        assert checked == 40

    def test_matches_scipy_on_random_lps(self):
        # scipy's own HiGHS interface, which shares no code with the loader
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 14))
            b = LpBuilder(maximize=bool(rng.integers(0, 2)))
            anchor = rng.uniform(0, 3, n)
            for j in range(n):
                ub = np.inf if rng.random() < 0.5 else anchor[j] + rng.uniform(0.1, 4)
                b.add_var(f"x{j}", 0.0, ub, obj=float(rng.normal()))
            for i in range(m):
                terms = [(j, float(rng.normal())) for j in range(n)
                         if rng.random() < 0.6]
                if not terms:
                    terms = [(int(rng.integers(0, n)), 1.0)]
                lhs = sum(anchor[j] * v for j, v in terms)
                sense = rng.choice([LE, GE, "="], p=[0.5, 0.4, 0.1])
                off = {"<": 0.5, ">": -0.5, "=": 0.0}[sense] * rng.uniform(0, 2)
                b.add_row(terms, sense, lhs + off)
            lp = b.build()
            mine = solve_lp(lp)
            sign = -1.0 if lp.maximize else 1.0
            ref = linprog(sign * lp.obj, **_linprog_rows(lp), method="highs")
            assert mine.status is _LINPROG_STATUS[ref.status]
            if mine.status is Status.OPTIMAL:
                assert mine.objective == pytest.approx(sign * ref.fun,
                                                       rel=1e-7, abs=1e-7)

    def test_dual_certificate_strong_duality(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 9))
            b = LpBuilder()
            anchor = rng.uniform(0, 2, n)
            for j in range(n):
                ub = np.inf if rng.random() < 0.6 else anchor[j] + rng.uniform(0.2, 3)
                b.add_var(f"x{j}", 0.0, ub, obj=float(rng.normal()))
            for i in range(m):
                terms = [(j, float(rng.normal())) for j in range(n)
                         if rng.random() < 0.7] or [(0, 1.0)]
                lhs = sum(anchor[j] * v for j, v in terms)
                sense = rng.choice([LE, GE], p=[0.6, 0.4])
                b.add_row(terms, sense,
                          lhs + (0.5 if sense == LE else -0.5) * rng.uniform(0, 1))
            lp = b.build()
            sol = solve_lp(lp)
            if sol.status is not Status.OPTIMAL:
                continue
            rc = reduced_costs(lp, sol)
            bound_part = 0.0
            for j in range(lp.n_vars):
                if abs(rc[j]) > 1e-7:
                    at_lb = abs(sol.x[j] - lp.lower[j]) < 1e-6
                    at_ub = (np.isfinite(lp.upper[j])
                             and abs(sol.x[j] - lp.upper[j]) < 1e-6)
                    assert at_lb or at_ub, "nonzero reduced cost off its bound"
                    bound_part += rc[j] * sol.x[j]
            dual_obj = float(sol.duals @ lp.rhs) + bound_part
            assert dual_obj == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)
            assert not check_lp_solution(lp, sol.x)


def _linprog_rows(lp: LinearProgram) -> dict:
    """The rows and bounds of ``lp`` as scipy's ``linprog`` takes them."""
    le, ge, eq = lp.sense == LE, lp.sense == GE, lp.sense == EQ
    return dict(A_ub=sp.vstack([lp.a_rows[le], -lp.a_rows[ge]]),
                b_ub=np.concatenate([lp.rhs[le], -lp.rhs[ge]]),
                A_eq=lp.a_rows[eq], b_eq=lp.rhs[eq],
                bounds=np.column_stack([lp.lower, lp.upper]))


_LINPROG_STATUS = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}


def _violation_duals(lp: LinearProgram) -> np.ndarray:
    """The row duals of the LP that minimizes the violations of ``lp``'s
    inequality rows.  When ``lp`` is infeasible they are a Farkas
    certificate of it."""
    m = lp.n_rows
    elastic = LinearProgram(
        lp.n_vars + m, np.r_[np.zeros(lp.n_vars), np.ones(m)],
        np.r_[lp.lower, np.zeros(m)], np.r_[lp.upper, np.full(m, np.inf)],
        sp.hstack([lp.a_rows, sp.diags(np.where(lp.sense == LE, -1.0, 1.0))],
                  format="csr"), lp.sense, lp.rhs)
    sol = solve_lp(elastic)
    assert sol.status is Status.OPTIMAL and sol.objective > 1e-9
    return sol.duals


def _random_mixed_lp(rng) -> LinearProgram:
    """GE, LE and EQ rows around a feasible anchor; free, boxed and
    half-bounded columns."""
    n = int(rng.integers(2, 10))
    m = int(rng.integers(1, 10))
    anchor = rng.uniform(-2, 2, n)
    b = LpBuilder(maximize=bool(rng.integers(0, 2)))
    for j in range(n):
        kind = rng.choice(["free", "box", "lower"], p=[0.25, 0.45, 0.3])
        lo = -np.inf if kind == "free" else anchor[j] - rng.uniform(0, 2)
        up = anchor[j] + rng.uniform(0, 2) if kind == "box" else np.inf
        b.add_var(f"x{j}", lo, up, obj=float(rng.normal()))
    for _ in range(m):
        terms = [(j, float(rng.normal())) for j in range(n)
                 if rng.random() < 0.6] or [(int(rng.integers(0, n)), 1.0)]
        lhs = sum(anchor[j] * v for j, v in terms)
        sense = rng.choice([LE, GE, "="], p=[0.4, 0.4, 0.2])
        off = {"<": 1.0, ">": -1.0, "=": 0.0}[sense] * rng.uniform(0, 2)
        b.add_row(terms, sense, lhs + off)
    # every column bounded on its objective's side keeps the LP bounded
    b.add_row([(j, 1.0) for j in range(n)], LE, float(anchor.sum() + 5))
    b.add_row([(j, 1.0) for j in range(n)], GE, float(anchor.sum() - 5))
    for j in range(n):
        b.add_row([(j, 1.0)], "<", float(anchor[j] + 4))
        b.add_row([(j, 1.0)], ">", float(anchor[j] - 4))
    return b.build()


def _tighten(rng, lo, up, x):
    """Shrink a few columns' intervals, around or away from the point x."""
    lo, up = lo.copy(), up.copy()
    k = int(rng.integers(1, min(3, len(lo)) + 1))
    for j in rng.choice(len(lo), size=k, replace=False):
        mid = x[j] + rng.normal(scale=1.5)
        a = max(lo[j], mid - rng.uniform(0, 1))
        b = min(up[j], mid + rng.uniform(0, 1))
        if a > b:
            a = b = min(max(mid, lo[j]), up[j])
        if rng.random() < 0.3:
            a = b                               # fix the column, as branching does
        lo[j], up[j] = a, b
    return lo, up


class TestWarmStart:
    """A ``NodeLp`` re-solve from an earlier optimal basis against a cold
    solve of the same LP."""

    @staticmethod
    def _same(warm, lp):
        cold = solve_lp(lp)
        status, _, objective = warm
        assert status is cold.status
        if cold.status is Status.OPTIMAL:
            sign = -1.0 if lp.maximize else 1.0
            assert objective == pytest.approx(sign * cold.objective,
                                              rel=1e-9, abs=1e-9)

    def test_tightened_children_match_cold_solves(self):
        rng = np.random.default_rng(41)
        statuses = []
        for _ in range(60):
            lp = _random_mixed_lp(rng)
            node = NodeLp(lp, np.arange(lp.n_vars))
            status, x, _ = node.solve(lp.lower, lp.upper)
            if status is not Status.OPTIMAL:
                continue
            parent = node.basis()
            for _ in range(4):
                lo, up = _tighten(rng, lp.lower, lp.upper, x)
                child = node.solve(lo, up, parent)
                self._same(child, lp.with_bounds(lo, up))
                statuses.append(child[0])
                if child[0] is Status.OPTIMAL:
                    assert not check_lp_solution(lp.with_bounds(lo, up), child[1])
                    lo2, up2 = _tighten(rng, lo, up, child[1])
                    self._same(node.solve(lo2, up2, node.basis()),
                               lp.with_bounds(lo2, up2))
        assert statuses.count(Status.OPTIMAL) >= 50
        assert statuses.count(Status.INFEASIBLE) >= 20

    def test_basis_with_artificial_falls_back(self):
        lp = _redundant_rows_lp()
        node = NodeLp(lp, np.arange(lp.n_vars))
        assert node.solve(lp.lower, lp.upper)[0] is Status.OPTIMAL
        parent = node.basis()
        # an equality row's logical stays basic, where phase 1 left an artificial
        assert _BASIC in list(parent.row_status)
        up = lp.upper.copy()
        up[0] = 2.0                                       # x <= 2
        child = node.solve(lp.lower, up, parent)
        self._same(child, lp.with_bounds(lp.lower, up))
        assert child[2] == pytest.approx(4.0)

    def test_dual_infeasible_basis_falls_back(self):
        lp = simple_lp(maximize=True)
        top = NodeLp(lp, np.arange(lp.n_vars))
        assert top.solve(lp.lower, lp.upper)[2] == pytest.approx(-5.0)
        bottom = lp.with_objective(lp.obj, maximize=False)
        other = NodeLp(bottom, np.arange(lp.n_vars))
        # x = 5 is optimal for the max, and its reduced cost has the wrong sign
        # for the min
        sol = other.solve(bottom.lower, bottom.upper, top.basis())
        self._same(sol, bottom)
        assert sol[2] == pytest.approx(0.0)

    def test_singular_basis_falls_back(self):
        b = LpBuilder(maximize=True)
        x1 = b.add_var("x1", 0, np.inf, obj=1.0)
        x2 = b.add_var("x2", 0, np.inf, obj=2.0)
        x3 = b.add_var("x3", 0, np.inf, obj=1.0)
        b.add_row([(x1, 1.0), (x2, 1.0), (x3, 1.0)], "<", 4.0)
        b.add_row([(x3, 1.0)], "<", 1.0)
        lp = b.build()
        node = NodeLp(lp, np.arange(lp.n_vars))
        start = _core.HighsBasis()
        start.col_status = [_BASIC, _BASIC, _core.HighsBasisStatus.kLower]
        start.row_status = [_core.HighsBasisStatus.kUpper] * 2
        start.valid = True
        sol = node.solve(lp.lower, lp.upper, start)   # x1 and x2 share one column
        self._same(sol, lp)
        assert sol[2] == pytest.approx(-8.0)

    def test_plain_solve_lp_is_cold(self):
        rng = np.random.default_rng(7)
        counts = []
        for _ in range(10):
            lp = _random_mixed_lp(rng)
            # a writeable LP could change between calls: each loads a new model
            first, again = solve_lp(lp), solve_lp(lp)
            assert first.status is again.status is Status.OPTIMAL
            assert again.iterations == first.iterations
            counts.append(first.iterations)
            frozen = _read_only(lp)
            solve_lp(frozen)
            assert solve_lp(frozen).iterations == 0
        assert max(counts) > 0


def _redundant_rows_lp() -> LinearProgram:
    """Two copies of one equality."""
    b = LpBuilder()
    x = b.add_var("x", 0, 4, obj=1.0)
    y = b.add_var("y", 0, 4, obj=2.0)
    b.add_row([(x, 1.0), (y, 1.0)], "=", 3.0)
    b.add_row([(x, 2.0), (y, 2.0)], "=", 6.0)
    return b.build()


_BASIC = _core.HighsBasisStatus.kBasic


def _desk_milp(seed: int) -> MilpModel:
    mpcc = build_mpcc(generate_instance(seed, **DESK_SHAPE))
    return linearize(mpcc, default_dual_m(mpcc))


def _vertex_enumeration_optimum(lp: LinearProgram) -> float:
    """Brute-force optimum: intersect every n-subset of tight hyperplanes."""
    n = lp.n_vars
    A = lp.a_rows.toarray()
    planes = [(A[i], lp.rhs[i]) for i in range(lp.n_rows)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e.copy(), lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            planes.append((e.copy(), lp.upper[j]))
    best = np.inf if not lp.maximize else -np.inf
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(x < lp.lower - 1e-8) or np.any(x > lp.upper + 1e-8):
            continue
        ax = A @ x
        ok = True
        for i in range(lp.n_rows):
            if lp.sense[i] == LE and ax[i] > lp.rhs[i] + 1e-8:
                ok = False
            elif lp.sense[i] == GE and ax[i] < lp.rhs[i] - 1e-8:
                ok = False
            elif lp.sense[i] == "=" and abs(ax[i] - lp.rhs[i]) > 1e-8:
                ok = False
        if not ok:
            continue
        val = float(lp.obj @ x)
        best = max(best, val) if lp.maximize else min(best, val)
    return best


def knapsack_model(values, weights, cap):
    b = LpBuilder(maximize=True)
    for j, v in enumerate(values):
        b.add_var(f"z{j}", 0.0, 1.0, obj=float(v))
    b.add_row([(j, float(w)) for j, w in enumerate(weights)], "<", float(cap))
    return MilpModel(b.build(), np.arange(len(values)))


class TestBranchAndBound:
    def test_pure_lp_matches_solve_lp(self):
        lp = simple_lp()
        milp = MilpModel(lp, np.empty(0, dtype=np.int64))
        res = solve_milp(milp)
        assert res.status is Status.OPTIMAL
        assert res.objective == pytest.approx(solve_lp(lp).objective)
        assert res.rel_gap == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_knapsack_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        v = rng.uniform(1, 20, n)
        w = rng.uniform(1, 10, n)
        cap = float(w.sum() * rng.uniform(0.3, 0.7))
        res = solve_milp(knapsack_model(v, w, cap), SolveOptions(rel_gap=0.0))
        best = max(
            float(v[list(s)].sum())
            for r in range(n + 1)
            for s in itertools.combinations(range(n), r)
            if w[list(s)].sum() <= cap + 1e-12)
        assert res.status is Status.OPTIMAL
        assert res.objective == pytest.approx(best, abs=1e-8)
        assert res.bound == pytest.approx(best, abs=1e-8)
        assert not verify_milp_solution(knapsack_model(v, w, cap), res.x)

    def test_gap_recomputes_from_reported_values(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(1, 20, 10)
        w = rng.uniform(1, 10, 10)
        model = knapsack_model(v, w, float(w.sum() * 0.5))
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        expected = abs(res.objective - res.bound) / max(1.0, abs(res.objective))
        assert res.rel_gap == pytest.approx(expected, abs=1e-12)

    def test_determinism_same_node_trail(self):
        rng = np.random.default_rng(17)
        v = rng.uniform(1, 20, 9)
        w = rng.uniform(1, 10, 9)
        model = knapsack_model(v, w, float(w.sum() * 0.45))
        r1 = solve_milp(model, SolveOptions(rel_gap=0.0))
        r2 = solve_milp(model, SolveOptions(rel_gap=0.0))
        assert r1.log == r2.log
        assert r1.objective == r2.objective
        assert np.array_equal(r1.x, r2.x)
        assert r1.lp_iterations == r2.lp_iterations > 0
        assert r1.nodes > 1

    def test_infeasible_milp(self):
        b = LpBuilder(maximize=True)
        z = b.add_var("z", 0.0, 1.0, obj=1.0)
        b.add_row([(z, 1.0)], ">", 2.0)
        res = solve_milp(MilpModel(b.build(), np.array([z])))
        assert res.status is Status.INFEASIBLE

    def test_node_limit_without_incumbent_reports_the_limit(self):
        # desk seed 1's root relaxation is fractional, so one node finds no
        # incumbent and leaves two open children
        res = solve_milp(_desk_milp(1), SolveOptions(rel_gap=0.0, node_limit=1))
        assert res.status is Status.NODE_LIMIT
        assert res.x is None and res.objective is None
        assert res.nodes == 1
        assert np.isfinite(res.bound)

    def test_gap_stop_reports_the_open_bound(self):
        # the search stops with an open node whose bound 53.704125 is within
        # 2% of the incumbent; HiGHS proves 53.730111 on the same MILP
        res = solve_milp(_desk_milp(9), SolveOptions(rel_gap=0.02))
        assert res.status is Status.OPTIMAL and res.nodes == 21
        assert res.objective == pytest.approx(53.597135, abs=1e-6)
        assert res.bound == pytest.approx(53.704125, abs=1e-6)
        assert res.rel_gap == pytest.approx(0.0019962, abs=1e-6)
        assert res.rel_gap == relative_gap(res.objective, res.bound)

    def test_limits_report_no_bound_below_the_incumbent(self):
        # desk seed 9 finds its optimum at node 21; after node 31 every open
        # node's bound is past it, which proves it optimal
        model = _desk_milp(9)
        for limit in range(20, 33):
            res = solve_milp(model, SolveOptions(rel_gap=0.0, node_limit=limit))
            if res.x is not None:
                assert res.bound >= res.objective - 1e-12
                assert (res.status is Status.OPTIMAL) is (res.rel_gap <= 1e-12)
        assert res.status is Status.OPTIMAL and res.nodes == 31

    def test_infeasible_children_are_pruned(self):
        # the root relaxation is z1 = 1, z2 = 0.5; fixing z2 = 0 gives the
        # optimum 1, and under z2 = 1 both values of z1 break a row
        b = LpBuilder(maximize=True)
        z1 = b.add_var("z1", 0.0, 1.0, obj=1.0)
        z2 = b.add_var("z2", 0.0, 1.0, obj=1.0)
        b.add_row([(z1, 1.0), (z2, 1.0)], LE, 1.5)
        b.add_row([(z1, 1.0)], GE, 0.25)
        res = solve_milp(MilpModel(b.build(), np.array([z1, z2])),
                         SolveOptions(rel_gap=0.0))
        assert res.status is Status.OPTIMAL and res.objective == 1.0
        assert [entry[3] for entry in res.log] \
            == [z2, "leaf", z1, "infeasible", "infeasible"]

    def test_unbounded_relaxation(self):
        res = solve_milp(_unbounded_milp())
        assert res.status is Status.UNBOUNDED
        assert res.x is None and res.nodes == 1

    def test_unbounded_or_infeasible_node_is_classified(self, monkeypatch):
        # a node LP that HiGHS finds without a finite optimum, unable to say
        # whether it is unbounded or infeasible, ends the search; it is not
        # pruned as an infeasible node
        runs = []

        class Undecided(_core._Highs):
            def run(self):
                runs.append(None)
                return super().run()

            def getModelStatus(self):
                if len(runs) == 2:
                    return _core.HighsModelStatus.kUnboundedOrInfeasible
                return super().getModelStatus()

        monkeypatch.setattr(_core, "_Highs", Undecided)
        res = solve_milp(_desk_milp(1), SolveOptions(rel_gap=0.0))
        assert res.status is Status.UNBOUNDED
        assert res.x is None and res.nodes == 2

    def test_first_window_optimum_matches_highs(self):
        # the optimum the strict xfail below holds HiGHS' bound to
        model = _first_window_milp(5)
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        assert res.status is Status.OPTIMAL
        assert res.objective == pytest.approx(40.686126, abs=1e-6)
        assert res.bound == res.objective
        assert not verify_milp_solution(model, res.x, tol=1e-6)

    def test_incumbents_feasible(self):
        rng = np.random.default_rng(23)
        v = rng.uniform(1, 10, 11)
        w = rng.uniform(1, 8, 11)
        model = knapsack_model(v, w, float(w.sum() * 0.4))
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        assert not verify_milp_solution(model, res.x, tol=1e-6)
        frac = np.abs(res.x[model.binary_idx] - np.round(res.x[model.binary_idx]))
        assert frac.max() <= 1e-6


def _read_only(lp: LinearProgram) -> LinearProgram:
    """The LP with its rows and bounds frozen, which makes it re-priceable."""
    a = lp.a_rows
    for arr in (a.data, a.indices, a.indptr, lp.sense, lp.rhs, lp.lower, lp.upper):
        arr.setflags(write=False)
    return lp


class TestScipyLp:
    """``ScipyBackend.solve_lp`` on HiGHS: the kept model of a re-priceable
    LP, checked by dual certificates, and the classification of HiGHS'
    statuses."""

    def test_repriced_random_lps_match_bundled(self):
        rng = np.random.default_rng(43)
        sci, bundled = ScipyBackend(), BundledBackend()
        for _ in range(25):
            lp = _read_only(_random_mixed_lp(rng))
            for _ in range(4):
                priced = lp.with_objective(rng.normal(size=lp.n_vars),
                                           maximize=bool(rng.integers(0, 2)))
                ref = sci.solve_lp(priced)
                assert ref.status is Status.OPTIMAL    # every column is boxed by rows
                assert not check_lp_solution(priced, ref.x)
                assert_dual_certificate(priced, ref)
                mine = bundled.solve_lp(priced)
                assert mine.status is ref.status
                assert mine.objective == pytest.approx(ref.objective,
                                                       rel=1e-7, abs=1e-7)
            # the same costs again start from the kept optimal basis
            assert sci.solve_lp(priced).iterations == 0

    def test_statuses_match_bundled(self):
        b = LpBuilder(maximize=True)
        x = b.add_var("x", 0, np.inf, obj=1.0)
        b.add_row([(x, 1.0)], GE, 1.0)
        unbounded = b.build()
        b = LpBuilder()
        x = b.add_var("x", 0, 1.0, obj=1.0)
        b.add_row([(x, 1.0)], GE, 2.0)
        infeasible = b.build()
        # without columns, each row reads 0: 0 <= 1 holds, 0 >= 1 does not
        empty = [LinearProgram(0, np.zeros(0), np.zeros(0), np.zeros(0),
                               sp.csr_matrix((1, 0)), np.array([sense], dtype=object),
                               np.array([1.0])) for sense in (LE, GE)]
        for lp, status in ((unbounded, Status.UNBOUNDED),
                           (infeasible, Status.INFEASIBLE),
                           (empty[0], Status.OPTIMAL), (empty[1], Status.INFEASIBLE)):
            for frozen in (False, True):
                lp = _read_only(lp) if frozen else lp
                ref = ScipyBackend().solve_lp(lp)
                assert ref.status is BundledBackend().solve_lp(lp).status is status
                if ref.status is Status.OPTIMAL:
                    assert ref.objective == 0.0
                    assert ref.duals.tolist() == [0.0]

    def test_other_status_raises_with_the_highs_status(self, monkeypatch):

        class IterationLimited(_core._Highs):
            def run(self):
                self.setOptionValue("simplex_iteration_limit", 0)
                return super().run()

        monkeypatch.setattr(_core, "_Highs", IterationLimited)
        lp = _read_only(_random_mixed_lp(np.random.default_rng(3)))
        with pytest.raises(SolverError, match="Iteration limit reached"):
            ScipyBackend().solve_lp(lp)


class TestBackends:
    def test_default_is_bundled(self):
        assert get_backend().name == "bundled"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("GRIDTARIFF_BACKEND", "scipy")
        assert get_backend().name == "scipy"

    def test_unknown_backend(self):
        with pytest.raises(SolverError):
            get_backend("nope")

    @pytest.mark.parametrize("bad", [dict(time_limit=0.0), dict(rel_gap=-1e-9)])
    def test_options_reject_bad_settings(self, bad):
        with pytest.raises(ValueError):
            SolveOptions(**bad)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend(ScipyBackend())

    @pytest.mark.parametrize("name", ["bundled", "scipy"])
    def test_non_finite_coefficient_rejected(self, name):
        # HiGHS would read a NaN coefficient's row as satisfied
        lp = simple_lp()
        lp.a_rows.data[0] = np.nan
        with pytest.raises(SolverError, match="coefficients must be finite"):
            get_backend(name).solve_lp(lp)

    def test_scipy_milp_agrees_with_bundled(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(1, 20, 10)
        w = rng.uniform(1, 10, 10)
        model = knapsack_model(v, w, float(w.sum() * 0.5))
        mine = solve_milp(model, SolveOptions(rel_gap=0.0))
        ref = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))
        assert ref.objective == pytest.approx(mine.objective, rel=1e-9)


def _mini_milp(seed: int) -> MilpModel:
    mpcc = build_mpcc(generate_mini_instance(seed, n_bases=3))
    return linearize(mpcc, default_dual_m(mpcc))


def _rh_config(seed: int) -> RhConfig:
    """The benchmark's rolling run of 3-base mini seed ``seed``: window 6,
    step 1, no frozen prices, on HiGHS."""
    return RhConfig(window=6, step=1, frozen=0, seed=seed, backend="scipy",
                    selector=uniform_selector(3, 0.4))


def _first_window_milp(seed: int) -> MilpModel:
    """The big-M MILP of the first window of ``_rh_config(seed)``'s run."""
    inst = generate_mini_instance(seed, n_bases=3)
    sub, _ = make_subinstance(inst, 0, RhTrajectory(inst),
                              _rh_config(seed), None)
    mpcc = build_mpcc(sub)
    return linearize(mpcc, default_dual_m(mpcc))


def _unbounded_milp() -> MilpModel:
    b = LpBuilder(maximize=True)
    x = b.add_var("x", 0.0, np.inf, obj=1.0)
    z = b.add_var("z", 0.0, 1.0, obj=1.0)
    b.add_row([(x, 1.0)], GE, 1.0)
    return MilpModel(b.build(), np.array([z]))


def test_stdout_redirect_restores_fd1_across_threads():
    # overlapping MILP runs on several threads share fd 1: the last one out
    # must restore it, whatever the interleaving
    before, interval = os.fstat(1), sys.getswitchinterval()

    def work():
        for _ in range(300):
            with _stdout_to_stderr():
                pass

    threads = [threading.Thread(target=work) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


class TestScipyMilpStatus:
    """``ScipyBackend.solve_milp`` classifies HiGHS' model status and reads
    HiGHS' bound and node count on every outcome.  Where a case needs a time
    limit, HiGHS stops at its node limit, at the same point on every host,
    and reports a time limit instead."""

    # without its heuristics, HiGHS has no incumbent for the 3-base mini
    # seed 14 MILP after one node
    NO_HEURISTICS = (("mip_heuristic_effort", 0.0),
                     *((f"mip_heuristic_run_{name}", False) for name in
                       ("feasibility_jump", "rens", "rins", "root_reduced_cost",
                        "shifting", "zi_round")))

    # the options whose values ``patch`` records, as ``solve_milp`` set them
    RECORDED = ("presolve", "mip_heuristic_run_feasibility_jump")

    @staticmethod
    def patch(monkeypatch, options=(), status=None, nudge=0.0):
        """Make the first HiGHS instance, the MILP's, set ``options`` before
        it runs, report ``status`` in place of its own, and move its column
        values by ``nudge``; later instances, such as the fixed-switch LP's,
        run as they are.  Returns the MILP's ``getInfo()``, the column values
        it handed out, and the ``RECORDED`` options it was set to run with,
        read before ``options`` are applied."""
        infos, values, ran_with = [], [], []
        made = []

        class Patched(_core._Highs):
            def __init__(self):
                super().__init__()
                self.patched = not made
                made.append(None)

            def run(self):
                if not self.patched:
                    return super().run()
                ran_with.append({name: self.getOptionValue(name)[1]
                                 for name in TestScipyMilpStatus.RECORDED})
                for name, value in options:
                    if self.setOptionValue(name, value) != _core.HighsStatus.kOk:
                        raise ValueError(f"HiGHS refused {name}={value!r}")
                outcome = super().run()
                infos.append(self.getInfo())
                return outcome

            def getModelStatus(self):
                if status is None or not self.patched:
                    return super().getModelStatus()
                return status

            def getSolution(self):
                solution = super().getSolution()
                if self.patched:
                    solution.col_value = np.asarray(solution.col_value) + nudge
                    values.append(np.asarray(solution.col_value))
                return solution

        monkeypatch.setattr(_core, "_Highs", Patched)
        return infos, values, ran_with

    @staticmethod
    def rolling_milps(monkeypatch, seed: int) -> list:
        """``(model, opts, result)`` of every window MILP of
        ``_rh_config(seed)``'s run, solved as the run solves them."""
        backend, solved = get_backend("scipy"), []
        solve = backend.solve_milp

        def record(model, opts=None):
            solved.append((model, opts, solve(model, opts)))
            return solved[-1][2]

        monkeypatch.setattr(backend, "solve_milp", record)
        run_rolling_horizon(generate_mini_instance(seed, n_bases=3),
                            _rh_config(seed))
        return solved

    @staticmethod
    def highs_bound(model, info) -> float:
        return (-1.0 if model.lp.maximize else 1.0) * info.mip_dual_bound

    def test_limit_with_incumbent_is_time_limit(self, monkeypatch):
        infos, values, _ = self.patch(monkeypatch, nudge=1e-7,
                                      status=_core.HighsModelStatus.kTimeLimit)
        model = _mini_milp(5)
        res = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0, node_limit=1))
        assert res.status is Status.TIME_LIMIT
        raw, binaries = values[0], model.binary_idx
        # the incumbent re-solved with its switches fixed at HiGHS' rounded ones
        assert not np.array_equal(raw[binaries], res.x[binaries])
        assert np.array_equal(res.x[binaries], np.round(raw[binaries]))
        assert set(res.x[binaries].tolist()) <= {0.0, 1.0}
        exact = ScipyBackend().solve_lp(model.fixed_at(raw))
        assert np.array_equal(res.x, exact.x)
        assert res.objective == float(model.lp.obj @ res.x)
        assert res.bound == self.highs_bound(model, infos[0])
        assert res.rel_gap == relative_gap(res.objective, res.bound)
        assert res.nodes == infos[0].mip_node_count == 1

    def test_limit_without_incumbent_reports_the_highs_bound(self, monkeypatch):
        infos, _, _ = self.patch(monkeypatch, self.NO_HEURISTICS,
                                 status=_core.HighsModelStatus.kTimeLimit)
        model = _mini_milp(14)
        res = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0, node_limit=1))
        assert infos[0].primal_solution_status \
            == _core.SolutionStatus.kSolutionStatusNone
        assert res.status is Status.TIME_LIMIT
        assert res.x is None and res.objective is None
        assert np.isfinite(res.bound)
        assert res.bound == self.highs_bound(model, infos[0])
        assert res.rel_gap == np.inf
        assert res.nodes == 1

    def test_node_limit(self):
        model = _mini_milp(5)
        res = ScipyBackend().solve_milp(model, SolveOptions(node_limit=1))
        assert res.status is Status.NODE_LIMIT
        assert res.nodes == 1
        assert res.x is not None and res.bound >= res.objective
        sol = solve_bilevel(generate_mini_instance(5, n_bases=3),
                            opts=SolveOptions(node_limit=1), backend="scipy")
        assert sol.status is Status.NODE_LIMIT

    def test_milp_runs_without_presolve(self, monkeypatch):
        _, _, ran_with = self.patch(monkeypatch)
        ScipyBackend().solve_milp(_mini_milp(5), SolveOptions(node_limit=1))
        assert [r["presolve"] for r in ran_with] == ["off"]

    def test_milp_runs_without_feasibility_jump(self, monkeypatch):
        _, _, ran_with = self.patch(monkeypatch)
        ScipyBackend().solve_milp(_mini_milp(5), SolveOptions(node_limit=1))
        assert [r["mip_heuristic_run_feasibility_jump"] for r in ran_with] \
            == [False]

    def test_feasibility_jump_changes_no_window_answer(self, monkeypatch):
        # the heuristic only finds points the root heuristics beat anyway
        solved = self.rolling_milps(monkeypatch, 6)
        assert len(solved) > 1
        for model, opts, first in solved:
            _, _, ran_with = self.patch(
                monkeypatch, (("mip_heuristic_run_feasibility_jump", True),))
            again = ScipyBackend().solve_milp(model, opts)
            assert ran_with[0]["mip_heuristic_run_feasibility_jump"] is False
            assert again.status is first.status
            assert again.objective == pytest.approx(first.objective, rel=1e-9)

    def test_lp_iterations_count_the_search_and_the_fixed_lp(self, monkeypatch):
        # the window MILP with the most nodes, solved as the run solves it
        model, opts, first = max(self.rolling_milps(monkeypatch, 6),
                                 key=lambda s: s[2].nodes)
        infos, values, _ = self.patch(monkeypatch)
        res = ScipyBackend().solve_milp(model, opts)
        fixed = ScipyBackend().solve_lp(model.fixed_at(values[0]))
        assert res.nodes == first.nodes > 1
        assert res.lp_iterations == first.lp_iterations > res.nodes
        assert res.lp_iterations \
            == infos[0].simplex_iteration_count + fixed.iterations

    def test_first_window_optimum_is_exact(self):
        # the incumbent the xfail below holds HiGHS' bound against
        model = _first_window_milp(5)
        res = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))
        assert res.status is Status.OPTIMAL
        assert res.objective == pytest.approx(40.686126, abs=1e-6)
        assert not verify_milp_solution(model, res.x, tol=1e-6)
        fixed = ScipyBackend().solve_lp(model.fixed_at(res.x))
        assert fixed.status is Status.OPTIMAL
        assert fixed.objective == pytest.approx(res.objective, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "HiGHS' big-M bound is no certificate: without RINS and RENS it"
        " reports OPTIMAL at 40.610562 on a window with a feasible 40.686126"))
    def test_optimal_bound_covers_a_feasible_point(self, monkeypatch):
        model = _first_window_milp(5)
        known = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))
        self.patch(monkeypatch, (("mip_heuristic_run_rins", False),
                                 ("mip_heuristic_run_rens", False)))
        res = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))
        # an optimal verdict must bound every feasible point
        assert res.status is not Status.OPTIMAL \
            or res.bound >= known.objective - 1e-9 * abs(known.objective)

    def test_unbounded(self, monkeypatch):
        # without presolve HiGHS reports this MILP unbounded, with a feasible
        # point that is no answer
        infos, _, _ = self.patch(monkeypatch)
        res = ScipyBackend().solve_milp(_unbounded_milp())
        assert infos[0].primal_solution_status \
            == _core.SolutionStatus.kSolutionStatusFeasible
        assert res.status is Status.UNBOUNDED
        assert res.x is None

    def test_unbounded_or_infeasible_raises(self, monkeypatch):
        # HiGHS' presolve cannot tell this MILP's unboundedness from
        # infeasibility
        self.patch(monkeypatch, (("presolve", "on"),))
        with pytest.raises(SolverError, match="Primal infeasible or unbounded"):
            ScipyBackend().solve_milp(_unbounded_milp())

    def test_other_status_raises_with_the_highs_status(self, monkeypatch):
        self.patch(monkeypatch, status=_core.HighsModelStatus.kSolveError)
        model = knapsack_model(np.array([3.0, 2.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(SolverError, match="Solve error"):
            ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))

    def test_model_error_raises(self, monkeypatch):
        model = knapsack_model(np.array([3.0, 2.0]), np.array([1.0, 1.0]), 1.0)
        huge = replace(model, lp=replace(model.lp, a_rows=model.lp.a_rows * 1e16))
        with pytest.raises(SolverError, match="HiGHS rejected the model"):
            ScipyBackend().solve_milp(huge)
        self.patch(monkeypatch, status=_core.HighsModelStatus.kModelError)
        with pytest.raises(SolverError, match="Model error"):
            ScipyBackend().solve_milp(model)

    def test_refused_option_raises(self):
        model = knapsack_model(np.array([3.0, 2.0]), np.array([1.0, 1.0]), 1.0)
        opts = SolveOptions()
        opts.rel_gap = -1.0             # set past the options' own check
        with pytest.raises(SolverError, match="refused option mip_rel_gap"):
            ScipyBackend().solve_milp(model, opts)

    def test_pure_lp_is_its_own_bound(self):
        res = ScipyBackend().solve_milp(
            MilpModel(simple_lp(), np.empty(0, dtype=np.int64)))
        assert res.status is Status.OPTIMAL
        assert res.objective == res.bound == 5.0
        assert res.rel_gap == 0.0 and res.nodes == 0
