"""Bundled LP/MILP solver checks against independent oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from gridtariff.solver import (GE, LE, LinearProgram, LpBuilder, MilpModel,
                               SolveOptions, SolverError, Status,
                               check_lp_solution, get_backend,
                               register_backend, solve_lp, solve_milp,
                               verify_milp_solution)
from gridtariff.generator import generate_instance
from gridtariff.reformulation import build_mpcc, default_big_m, linearize
from gridtariff.solver import simplex
from gridtariff.solver.backends import ScipyBackend

from conftest import DESK_SHAPE


def simple_lp(maximize=True):
    b = LpBuilder(maximize=maximize)
    x = b.add_var("x", 0, np.inf, obj=1.0)
    b.add_row([(x, 1.0)], "<", 5.0)
    return b.build()


class TestSimplex:
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
        sol = solve_lp(b.build())
        assert sol.status is Status.INFEASIBLE
        assert sol.farkas is not None
        y = sol.farkas
        # certificate: y'b exceeds what any x >= 0 can deliver through y'A
        lp = b.build()
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
        rng = np.random.default_rng(5)
        sci = ScipyBackend()
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
            mine, ref = solve_lp(lp), sci.solve_lp(lp)
            assert mine.status == ref.status
            if mine.status is Status.OPTIMAL:
                assert mine.objective == pytest.approx(ref.objective,
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
            bound_part = 0.0
            for j in range(lp.n_vars):
                if abs(sol.reduced_costs[j]) > 1e-7:
                    at_lb = abs(sol.x[j] - lp.lower[j]) < 1e-6
                    at_ub = (np.isfinite(lp.upper[j])
                             and abs(sol.x[j] - lp.upper[j]) < 1e-6)
                    assert at_lb or at_ub, "nonzero reduced cost off its bound"
                    bound_part += sol.reduced_costs[j] * sol.x[j]
            dual_obj = float(sol.duals @ lp.rhs) + bound_part
            assert dual_obj == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)
            assert not check_lp_solution(lp, sol.x)


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


def _redundant_rows_lp() -> LinearProgram:
    """Two copies of one equality: phase 1 leaves an artificial basic."""
    b = LpBuilder()
    x = b.add_var("x", 0, 4, obj=1.0)
    y = b.add_var("y", 0, 4, obj=2.0)
    b.add_row([(x, 1.0), (y, 1.0)], "=", 3.0)
    b.add_row([(x, 2.0), (y, 2.0)], "=", 6.0)
    return b.build()


class TestWarmStart:
    """A re-solve from an earlier optimal basis (dual simplex, then the
    primal loop) against a cold solve of the same LP."""

    @staticmethod
    def _same(warm, cold):
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    def test_tightened_children_match_cold_solves(self):
        rng = np.random.default_rng(41)
        statuses = []
        for _ in range(60):
            lp = _random_mixed_lp(rng)
            ws = simplex.Workspace(lp)
            parent = simplex.solve_with_workspace(ws, lp.obj, lp.maximize)
            if parent.status is not Status.OPTIMAL:
                continue
            for _ in range(4):
                lo, up = _tighten(rng, lp.lower, lp.upper, parent.x)
                start = (parent.basis, parent.vstat)
                child = simplex.solve_with_workspace(ws, lp.obj, lp.maximize,
                                                     lo, up, basis=start)
                cold = simplex.solve_with_workspace(ws, lp.obj, lp.maximize, lo, up)
                self._same(child, cold)
                statuses.append(child.status)
                if parent.basis.max() < ws.n_struct + ws.m and np.all(lo <= up):
                    assert child.warm
                if child.status is Status.OPTIMAL:
                    assert not check_lp_solution(lp.with_bounds(lo, up), child.x)
                    lo2, up2 = _tighten(rng, lo, up, child.x)
                    grand = simplex.solve_with_workspace(
                        ws, lp.obj, lp.maximize, lo2, up2,
                        basis=(child.basis, child.vstat))
                    self._same(grand, simplex.solve_with_workspace(
                        ws, lp.obj, lp.maximize, lo2, up2))
        assert statuses.count(Status.OPTIMAL) >= 50
        assert statuses.count(Status.INFEASIBLE) >= 20

    def test_basis_with_artificial_falls_back(self):
        lp = _redundant_rows_lp()
        ws = simplex.Workspace(lp)
        parent = simplex.solve_with_workspace(ws, lp.obj, False)
        assert parent.basis.max() >= ws.n_struct + ws.m   # artificial stays basic
        up = lp.upper.copy()
        up[0] = 2.0                                       # x <= 2
        child = simplex.solve_with_workspace(ws, lp.obj, False, lp.lower, up,
                                             basis=(parent.basis, parent.vstat))
        assert not child.warm
        self._same(child, simplex.solve_with_workspace(ws, lp.obj, False,
                                                       lp.lower, up))
        assert child.objective == pytest.approx(4.0)

    def test_dual_infeasible_basis_falls_back(self):
        lp = simple_lp(maximize=True)
        ws = simplex.Workspace(lp)
        parent = simplex.solve_with_workspace(ws, lp.obj, True)
        other = simplex.solve_with_workspace(ws, lp.obj, False,
                                             basis=(parent.basis, parent.vstat))
        assert not other.warm
        self._same(other, simplex.solve_with_workspace(ws, lp.obj, False))
        assert other.objective == pytest.approx(0.0)

    def test_singular_basis_falls_back(self):
        b = LpBuilder(maximize=True)
        x1 = b.add_var("x1", 0, np.inf, obj=1.0)
        x2 = b.add_var("x2", 0, np.inf, obj=2.0)
        x3 = b.add_var("x3", 0, np.inf, obj=1.0)
        b.add_row([(x1, 1.0), (x2, 1.0), (x3, 1.0)], "<", 4.0)
        b.add_row([(x3, 1.0)], "<", 1.0)
        lp = b.build()
        ws = simplex.Workspace(lp)
        vstat = np.array([0, 0, 1, 1, 1], dtype=np.int8)
        sol = simplex.solve_with_workspace(ws, lp.obj, True,
                                           basis=(np.array([x1, x2]), vstat))
        assert not sol.warm                    # x1 and x2 share one column
        self._same(sol, simplex.solve_with_workspace(ws, lp.obj, True))
        assert sol.objective == pytest.approx(8.0)

    def test_plain_solve_lp_is_cold(self):
        sol = solve_lp(simple_lp())
        assert not sol.warm
        assert sol.basis is not None and sol.vstat is not None


def _dense_basis(sim) -> np.ndarray:
    return sim.a[:, sim.basis].toarray()


def _desk_milp(seed: int) -> MilpModel:
    mpcc = build_mpcc(generate_instance(seed, **DESK_SHAPE))
    return linearize(mpcc, default_big_m(mpcc))


class TestRefactor:
    """The bump refactorization against a dense inverse of the whole basis,
    and the in-place rank-1 update."""

    @pytest.fixture
    def refactors(self, monkeypatch):
        """Compare every refactorization with ``np.linalg.inv`` of the dense
        basis and count the kinds of basis seen."""
        refactor = simplex._Simplex._refactor
        seen = {"crash": 0, "phase1": 0, "artificial": 0, "warm": 0}

        def checked(sim):
            refactor(sim)
            dense = np.linalg.inv(_dense_basis(sim))
            np.testing.assert_allclose(sim.binv, dense, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(dense).max()))
            n_struct = int((sim.basis < sim.ws.n_struct).sum())
            if sim.iterations == 0:
                seen["warm" if n_struct else "crash"] += 1
            elif sim.n_art and n_struct:
                seen["phase1"] += 1
                seen["artificial"] += bool(sim.basis.max() >= sim.n_tot)

        monkeypatch.setattr(simplex._Simplex, "_refactor", checked)
        return seen

    def test_random_lp_bases_match_dense_inverse(self, refactors):
        rng = np.random.default_rng(7)
        for _ in range(30):
            lp = _random_mixed_lp(rng)
            ws = simplex.Workspace(lp)
            parent = simplex.solve_with_workspace(ws, lp.obj, lp.maximize)
            if parent.status is not Status.OPTIMAL:
                continue
            for _ in range(3):
                lo, up = _tighten(rng, lp.lower, lp.upper, parent.x)
                simplex.solve_with_workspace(ws, lp.obj, lp.maximize, lo, up,
                                             basis=(parent.basis, parent.vstat))
        lp = _redundant_rows_lp()
        assert solve_lp(lp).basis.max() >= lp.n_vars + lp.n_rows
        assert min(refactors.values()) > 0, refactors

    def test_desk_node_bases_match_dense_inverse(self, refactors):
        res = solve_milp(_desk_milp(9), SolveOptions(rel_gap=0.0))
        assert res.status is Status.OPTIMAL and res.nodes > 10
        assert refactors["crash"] > 0 and refactors["phase1"] > 0
        assert refactors["warm"] >= res.nodes - 1

    @staticmethod
    def _three_rows():
        """x1 and x2 share their entries on rows 0 and 1; row 2 is x3's."""
        b = LpBuilder(maximize=True)
        x1 = b.add_var("x1", 0, np.inf, obj=1.0)
        x2 = b.add_var("x2", 0, np.inf, obj=2.0)
        x3 = b.add_var("x3", 0, np.inf, obj=1.0)
        b.add_row([(x1, 1.0), (x2, 1.0), (x3, 1.0)], "<", 4.0)
        b.add_row([(x1, 2.0), (x2, 2.0)], "<", 6.0)
        b.add_row([(x3, 1.0)], "<", 1.0)
        lp = b.build()
        return lp, simplex.Workspace(lp)

    def _assert_singular(self, basis, match):
        lp, ws = self._three_rows()
        lb, ub = ws.bounds(None, None)
        vstat = np.full(ws.n_struct + ws.m, simplex._AT_LB, dtype=np.int8)
        vstat[basis] = simplex._BASIC
        with pytest.raises(SolverError, match=match):
            simplex._Simplex(ws, lb, ub, np.zeros(len(lb)), vstat, basis.copy())
        sol = simplex.solve_with_workspace(ws, lp.obj, True, basis=(basis, vstat))
        assert not sol.warm
        assert sol.objective == pytest.approx(
            simplex.solve_with_workspace(ws, lp.obj, True).objective)
        assert sol.objective == pytest.approx(7.0)

    def test_two_unit_columns_on_one_row_raise(self):
        # the slack of row 0 twice, x3 for the last row
        self._assert_singular(np.array([3, 3, 2]), "two unit columns")

    def test_singular_bump_raises(self):
        # x1 and x2 on rows 0 and 1 make a singular 2x2 bump
        self._assert_singular(np.array([0, 1, 5]), "singular basis")

    def test_corrupted_bump_inverse_trips_residual(self, monkeypatch):
        lp = _desk_milp(1).lp
        ws = simplex.Workspace(lp)
        sol = simplex.solve_with_workspace(ws, lp.obj, lp.maximize)
        assert (sol.basis < ws.n_struct).sum() > 10
        lb, ub = ws.bounds(None, None)
        inv = np.linalg.inv

        def corrupted(k):
            k_inv = inv(k)
            k_inv[0, 0] += 1e-4
            return k_inv

        monkeypatch.setattr(simplex.np.linalg, "inv", corrupted)
        with pytest.raises(SolverError, match="residual"):
            simplex._Simplex(ws, lb, ub, np.zeros(len(lb)), sol.vstat.copy(),
                             sol.basis.copy())

    def test_in_place_update_stays_accurate(self):
        lp = _desk_milp(1).lp
        ws = simplex.Workspace(lp)
        lb, ub = ws.bounds(None, None)
        c = np.zeros(ws.n_struct + ws.m)
        c[: ws.n_struct] = -lp.obj if lp.maximize else lp.obj
        sim = simplex._Simplex.crash(ws, lb, ub)
        assert sim.phase1()
        assert sim.phase2(c, None) is Status.OPTIMAL
        assert sim._since_refactor >= 20               # pivots since the last refactor
        err = np.abs(sim.binv @ _dense_basis(sim) - np.eye(ws.m)).max()
        assert err <= 1e-8


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
        assert (r1.lp_iterations, r1.cold_nodes) == (r2.lp_iterations, r2.cold_nodes)
        assert r1.cold_nodes == 1 and r1.nodes > 1

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

    def test_incumbents_feasible(self):
        rng = np.random.default_rng(23)
        v = rng.uniform(1, 10, 11)
        w = rng.uniform(1, 8, 11)
        model = knapsack_model(v, w, float(w.sum() * 0.4))
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        assert not verify_milp_solution(model, res.x, tol=1e-6)
        frac = np.abs(res.x[model.binary_idx] - np.round(res.x[model.binary_idx]))
        assert frac.max() <= 1e-6


def assert_dual_certificate(lp: LinearProgram, sol, tol: float = 1e-6) -> None:
    """The duals and reduced costs of an optimal ``sol`` certify it: row
    duals have the sign of their row and vanish on slack rows, a nonzero
    reduced cost sits at the bound it pushes against, and the dual objective
    equals the primal one."""
    sign = -1.0 if lp.maximize else 1.0
    y, rc, x = sign * sol.duals, sign * sol.reduced_costs, sol.x
    act = lp.a_rows @ x
    scale = 1.0 + np.abs(lp.rhs)
    assert np.all(y[lp.sense == GE] >= -tol) and np.all(y[lp.sense == LE] <= tol)
    slack = (lp.sense != "=") & (np.abs(act - lp.rhs) > tol * scale)
    assert np.all(np.abs(y[slack]) <= tol)
    at_lower = np.isclose(x, lp.lower, rtol=0.0, atol=tol)
    at_upper = np.isclose(x, lp.upper, rtol=0.0, atol=tol)
    assert np.all((rc <= tol) | at_lower) and np.all((rc >= -tol) | at_upper)
    bound = np.where(rc > 0, lp.lower, lp.upper)
    pushed = np.abs(rc) > tol
    dual_obj = float(sol.duals @ lp.rhs + sol.reduced_costs[pushed] @ bound[pushed])
    assert dual_obj == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)


def _read_only(lp: LinearProgram) -> LinearProgram:
    """The LP with its rows and bounds frozen, which makes it re-priceable."""
    a = lp.a_rows
    for arr in (a.data, a.indices, a.indptr, lp.sense, lp.rhs, lp.lower, lp.upper):
        arr.setflags(write=False)
    return lp


class TestScipyLp:
    """``ScipyBackend.solve_lp`` on HiGHS: the kept model of a re-priceable
    LP, and the classification of HiGHS' statuses."""

    def test_repriced_random_lps_match_bundled(self):
        rng = np.random.default_rng(43)
        sci = ScipyBackend()
        optimal = 0
        for _ in range(25):
            lp = _read_only(_random_mixed_lp(rng))
            for _ in range(4):
                priced = lp.with_objective(rng.normal(size=lp.n_vars),
                                           maximize=bool(rng.integers(0, 2)))
                mine, ref = solve_lp(priced), sci.solve_lp(priced)
                assert ref.status is mine.status
                if ref.status is Status.OPTIMAL:
                    optimal += 1
                    assert ref.objective == pytest.approx(mine.objective,
                                                          rel=1e-7, abs=1e-7)
                    assert not check_lp_solution(priced, ref.x)
                    assert_dual_certificate(priced, ref)
            if ref.status is Status.OPTIMAL:
                # the same costs again start from the kept optimal basis
                assert sci.solve_lp(priced).iterations == 0
        assert optimal >= 60

    def test_statuses_match_bundled(self):
        b = LpBuilder(maximize=True)
        x = b.add_var("x", 0, np.inf, obj=1.0)
        b.add_row([(x, 1.0)], GE, 1.0)
        unbounded = b.build()
        b = LpBuilder()
        x = b.add_var("x", 0, 1.0, obj=1.0)
        b.add_row([(x, 1.0)], GE, 2.0)
        infeasible = b.build()
        empty = [LinearProgram(0, np.zeros(0), np.zeros(0), np.zeros(0),
                               sp.csr_matrix((1, 0)), np.array([sense], dtype=object),
                               np.array([1.0])) for sense in (LE, GE)]
        for lp in (unbounded, infeasible, *empty):
            for frozen in (False, True):
                lp = _read_only(lp) if frozen else lp
                mine, ref = solve_lp(lp), ScipyBackend().solve_lp(lp)
                assert ref.status is mine.status
                if ref.status is Status.OPTIMAL:
                    assert ref.objective == mine.objective == 0.0
                    assert ref.duals.tolist() == [0.0]
        assert ScipyBackend().solve_lp(empty[0]).status is Status.OPTIMAL

    def test_other_status_raises_with_the_highs_status(self, monkeypatch):
        from scipy.optimize._highspy import _core

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

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend(ScipyBackend())

    def test_scipy_milp_agrees_with_bundled(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(1, 20, 10)
        w = rng.uniform(1, 10, 10)
        model = knapsack_model(v, w, float(w.sum() * 0.5))
        mine = solve_milp(model, SolveOptions(rel_gap=0.0))
        ref = ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))
        assert ref.objective == pytest.approx(mine.objective, rel=1e-9)


class TestScipyMilpStatus:
    """``ScipyBackend.solve_milp`` classifies each scipy ``milp`` status."""

    @staticmethod
    def solve_with(monkeypatch, **canned):
        import scipy.optimize as sopt
        result = sopt.OptimizeResult(x=None, fun=None, mip_dual_bound=None,
                                     mip_node_count=7, message="canned")
        result.update(canned)
        monkeypatch.setattr(sopt, "milp", lambda *args, **kwargs: result)
        model = knapsack_model(np.array([3.0, 2.0]), np.array([1.0, 1.0]), 1.0)
        return ScipyBackend().solve_milp(model, SolveOptions(rel_gap=0.0))

    def test_limit_with_incumbent_is_time_limit(self, monkeypatch):
        res = self.solve_with(monkeypatch, status=1, x=np.array([0.9999999, 1e-8]),
                              fun=-3.0, mip_dual_bound=-3.5)
        assert res.status is Status.TIME_LIMIT
        assert res.x.tolist() == [1.0, 0.0]        # binaries rounded, not re-solved
        assert res.objective == 3.0
        assert res.bound == 3.5
        assert res.nodes == 7

    def test_limit_without_incumbent_is_no_solution(self, monkeypatch):
        res = self.solve_with(monkeypatch, status=1, mip_dual_bound=-3.5)
        assert res.status is Status.TIME_LIMIT
        assert res.x is None
        assert res.bound == 3.5

    def test_unbounded(self, monkeypatch):
        res = self.solve_with(monkeypatch, status=3)
        assert res.status is Status.UNBOUNDED
        assert res.x is None

    def test_other_status_raises_with_scipy_message(self, monkeypatch):
        with pytest.raises(SolverError, match="numerical trouble"):
            self.solve_with(monkeypatch, status=4, x=np.array([1.0, 0.0]),
                            fun=-3.0, message="numerical trouble")
