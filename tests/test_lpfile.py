"""Round-trip checks for the plain-text model interchange format."""

from __future__ import annotations

import numpy as np
import pytest

from gridtariff.follower import build_follower_lp
from gridtariff.reformulation import build_mpcc, default_dual_m, linearize
from gridtariff.solver import (MilpModel, SolveOptions, Status, solve_lp,
                               solve_milp, write_lp)

from conftest import LpBuilder, make_t1, read_lp


def test_lp_round_trip(tmp_path):
    b = LpBuilder(maximize=True)
    x = b.add_var("x", 0.0, 4.0, obj=2.0)
    y = b.add_var("y", -1.0, np.inf, obj=-0.5)
    b.add_row([(x, 1.0), (y, 2.0)], "<", 6.0)
    b.add_row([(x, 1.0), (y, -1.0)], ">", -2.0)
    b.add_row([(x, 1.0), (y, 1.0)], "=", 3.0)
    lp = b.build()
    path = tmp_path / "model.lp"
    write_lp(lp, path)
    back = read_lp(path)
    assert back.lp.n_vars == 2
    assert back.lp.maximize
    s0, s1 = solve_lp(lp), solve_lp(back.lp)
    assert s0.status is s1.status is Status.OPTIMAL
    assert s1.objective == pytest.approx(s0.objective, rel=1e-12)


def test_milp_round_trip_with_binaries(tmp_path):
    b = LpBuilder(maximize=True)
    for j in range(5):
        b.add_var(f"z{j}", 0.0, 1.0, obj=float(j + 1))
    b.add_row([(j, float(j + 1)) for j in range(5)], "<", 7.0)
    model = MilpModel(b.build(), np.arange(5))
    path = tmp_path / "knap.lp"
    write_lp(model, path)
    back = read_lp(path)
    assert sorted(back.binary_idx.tolist()) == list(range(5))
    r0 = solve_milp(model, SolveOptions(rel_gap=0.0))
    r1 = solve_milp(back, SolveOptions(rel_gap=0.0))
    assert r1.objective == pytest.approx(r0.objective, abs=1e-9)


def test_follower_lp_export_solves_identically(tmp_path):
    inst = make_t1()
    lp = build_follower_lp(inst, np.array([3.0, 3.0]))
    path = tmp_path / "follower.lp"
    write_lp(lp, path)
    back = read_lp(path)
    assert solve_lp(back.lp).objective == pytest.approx(
        solve_lp(lp).objective, rel=1e-12)


def test_bilevel_milp_export_round_trip(tmp_path):
    inst = make_t1()
    mpcc = build_mpcc(inst)
    model = linearize(mpcc, default_dual_m(mpcc))
    path = tmp_path / "pricing.lp"
    write_lp(model, path)
    back = read_lp(path)
    assert len(back.binary_idx) == len(model.binary_idx)
    r0 = solve_milp(model, SolveOptions(rel_gap=0.0))
    r1 = solve_milp(back, SolveOptions(rel_gap=0.0))
    assert r1.objective == pytest.approx(r0.objective, abs=1e-6)
