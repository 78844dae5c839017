"""Bundled LP/MILP solver checks against independent oracles."""

from __future__ import annotations

import itertools
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize._highspy import _core

from gridtariff.solver import (GE, LE, LinearProgram,
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
from gridtariff.solver import simplex
from gridtariff.solver.backends import ScipyBackend, _stdout_to_stderr

from conftest import DESK_SHAPE, reduced_costs


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

    def test_crash_matches_row_loop(self):
        """The vectorized crash picks each row's slack or artificial, in row
        order, with the values of a row-by-row loop."""
        rng = np.random.default_rng(13)
        lps = [_random_mixed_lp(rng) for _ in range(20)] + [_desk_milp(1).lp]
        n_art = 0
        for lp in lps:
            ws = simplex.Workspace(lp)
            assert np.array_equal(ws.slack_lb, [-np.inf if s == GE else 0.0
                                                for s in lp.sense])
            assert np.array_equal(ws.slack_ub, [np.inf if s == LE else 0.0
                                                for s in lp.sense])
            lb, ub = ws.bounds(None, None)
            sim = simplex._Simplex.crash(ws, lb.copy(), ub.copy())
            ref = simplex._Simplex(ws, lb.copy(), ub.copy(),
                                   *_crash_by_rows(ws, lb, ub))
            assert np.array_equal(sim.basis, ref.basis)
            assert np.array_equal(sim.vstat, ref.vstat)
            assert np.array_equal(sim.x, ref.x)
            assert (sim.a != ref.a).nnz == 0
            n_art += sim.n_art
        assert n_art > 0

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


def _crash_by_rows(ws, lb, ub):
    """The crash basis's start, built one row at a time: ``(x, vstat,
    basis, artificial columns)``."""
    m, n_tot = ws.m, ws.n_struct + ws.m
    x = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
    status = np.full(n_tot, simplex._AT_LB, dtype=np.int8)
    status[~np.isfinite(lb) & np.isfinite(ub)] = simplex._AT_UB
    status[~np.isfinite(lb) & ~np.isfinite(ub)] = simplex._FREE_NB
    status[lb == ub] = simplex._FIXED
    resid = ws.b - ws.a_struct @ x[: ws.n_struct]
    basis = np.empty(m, dtype=np.int64)
    art_rows, art_signs, art_vals = [], [], []
    for i in range(m):
        s_idx = ws.n_struct + i
        r = resid[i]
        if lb[s_idx] - 1e-12 <= r <= ub[s_idx] + 1e-12:
            basis[i] = s_idx
            x[s_idx] = r
            status[s_idx] = simplex._BASIC
        else:
            s_val = float(np.clip(r, lb[s_idx], ub[s_idx]))
            x[s_idx] = s_val
            gap = r - s_val
            basis[i] = n_tot + len(art_rows)
            art_rows.append(i)
            art_signs.append(1.0 if gap >= 0 else -1.0)
            art_vals.append(abs(gap))
    if not art_rows:
        return x, status, basis, None
    n_art = len(art_rows)
    art = sp.coo_matrix((art_signs, (art_rows, range(n_art))),
                        shape=(m, n_art)).tocsc()
    x = np.concatenate([x, np.asarray(art_vals)])
    status = np.concatenate([status, np.full(n_art, simplex._BASIC,
                                             dtype=np.int8)])
    return x, status, basis, art


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
    return linearize(mpcc, default_dual_m(mpcc))


class TestRefactor:
    """The bump refactorization and a warm start's column exchanges against
    a dense inverse of the whole basis, and the in-place rank-1 update."""

    @pytest.fixture
    def refactors(self, monkeypatch):
        """Compare every inverse a refactorization or a warm start's column
        exchanges produce with ``np.linalg.inv`` of the dense basis, and
        count the kinds of basis seen."""
        refactor = simplex._Simplex._refactor
        exchange = simplex._Simplex._exchange
        seen = {"crash": 0, "phase1": 0, "artificial": 0, "warm": 0,
                "exchanged": 0}

        def assert_inverse(sim):
            dense = np.linalg.inv(_dense_basis(sim))
            np.testing.assert_allclose(sim.binv, dense, rtol=0,
                                       atol=1e-9 * max(1.0, np.abs(dense).max()))

        def checked(sim):
            refactor(sim)
            assert_inverse(sim)
            n_struct = int((sim.basis < sim.ws.n_struct).sum())
            if sim.iterations == 0:
                seen["warm" if n_struct else "crash"] += 1
            elif sim.n_art and n_struct:
                seen["phase1"] += 1
                seen["artificial"] += bool(sim.basis.max() >= sim.n_tot)

        def checked_exchange(sim, *kept):
            done = exchange(sim, *kept)
            if done:
                assert_inverse(sim)
                seen["exchanged"] += 1
            return done

        monkeypatch.setattr(simplex._Simplex, "_refactor", checked)
        monkeypatch.setattr(simplex._Simplex, "_exchange", checked_exchange)
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
        # every warm node's inverse was exchanged or refactorized, and checked
        assert refactors["warm"] >= res.refactored_nodes
        assert refactors["exchanged"] + res.refactored_nodes >= res.nodes - 1
        assert refactors["exchanged"] > res.refactored_nodes

    @pytest.mark.parametrize("spoil", ["budget", "pivot", "residual"])
    def test_spoiled_exchanges_refactorize(self, spoil, refactors):
        """A kept inverse that runs over the update budget, meets only tiny
        pivots or fails the whole-basis check leaves the warm start to a
        refactorization."""
        lp = _desk_milp(1).lp
        ws = simplex.Workspace(lp)
        root = simplex.solve_with_workspace(ws, lp.obj, lp.maximize)
        start = (root.basis, root.vstat)
        frac = np.flatnonzero(np.abs(root.x - np.round(root.x)) > 1e-6)
        lo, up = lp.lower.copy(), lp.upper.copy()
        lo[frac[0]] = up[frac[0]] = 0.0
        down = simplex.solve_with_workspace(ws, lp.obj, lp.maximize, lo, up,
                                            basis=start)
        assert down.warm and ws.kept is not None
        assert not np.array_equal(np.sort(down.basis), np.sort(root.basis))
        kept_basis, binv, since = ws.kept
        lo[frac[0]] = up[frac[0]] = 1.0
        cold = simplex.solve_with_workspace(ws, lp.obj, lp.maximize, lo, up)
        spoiled, spoiled_since = binv.copy(), since
        if spoil == "budget":
            spoiled_since = simplex._REFACTOR_EVERY
        elif spoil == "pivot":
            spoiled *= 1e-9
        else:
            spoiled[0, 0] += 1e-4
        for kept, exchanged in (((binv.copy(), since), True),
                                ((spoiled, spoiled_since), False)):
            ws.kept = (kept_basis.copy(), *kept)
            before = refactors["warm"]
            child = simplex.solve_with_workspace(ws, lp.obj, lp.maximize,
                                                 lo, up, basis=start)
            assert child.warm and child.exchanged is exchanged
            assert refactors["warm"] == before + (not exchanged)
            assert child.objective == pytest.approx(cold.objective,
                                                    rel=1e-9, abs=1e-9)

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
        assert sim.phase2(c) is Status.OPTIMAL
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

    def test_gap_stop_reports_the_open_bound(self):
        # the search stops with an open node whose bound 53.704125 is within
        # 2% of the incumbent; HiGHS proves 53.730111 on the same MILP
        res = solve_milp(_desk_milp(9), SolveOptions(rel_gap=0.02))
        assert res.status is Status.OPTIMAL and res.nodes == 33
        assert res.objective == pytest.approx(53.597135, abs=1e-6)
        assert res.bound == pytest.approx(53.704125, abs=1e-6)
        assert res.rel_gap == pytest.approx(0.0019962, abs=1e-6)
        assert res.rel_gap == relative_gap(res.objective, res.bound)

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
    y, rc, x = sign * sol.duals, sign * reduced_costs(lp, sol), sol.x
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
    dual_obj = float(sol.duals @ lp.rhs + reduced_costs(lp, sol)[pushed] @ bound[pushed])
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
