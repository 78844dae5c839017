"""End-to-end command line checks at desk scale."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from gridtariff.baselines import reference_case
from gridtariff.cli import SENSITIVITY_GRID, _generate, build_parser, main
from gridtariff.serialize import write_instance

from conftest import make_t1

FAST = ["--time-limit", "120", "--gap", "1e-6", "--backend", "scipy"]


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_generate_then_solve_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run_cli("generate", "--preset", "mini", "--seed", "1",
                   "-o", inst, "--curves-dir", tmp_path / "curves") == 0
    assert (tmp_path / "curves" / "supply_cost.csv").exists()
    assert run_cli("solve", inst, *FAST, "-o", sol,
                   "--series-dir", tmp_path / "series",
                   "--export-lp", tmp_path / "model.lp",
                   "--export-follower-lp", tmp_path / "schedule.lp") == 0
    assert (tmp_path / "schedule.lp").read_text().startswith("Minimize")
    doc = json.loads(sol.read_text())
    assert doc["status"] == "optimal"
    assert "mip_gap" in doc and np.isfinite(doc["mip_gap"])
    assert len(doc["prices"]) == 12
    assert (tmp_path / "series" / "prices.csv").exists()
    assert (tmp_path / "model.lp").read_text().startswith("Maximize")


def test_baseline_reference_hand_value(tmp_path):
    inst_path = tmp_path / "t1.json"
    write_instance(make_t1(), inst_path)
    out = tmp_path / "ref.json"
    assert run_cli("baseline", inst_path, "--kind", "reference", "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["generalized_cost"] == pytest.approx(6.0)
    assert doc["leader_profit"] == pytest.approx(1.0)


def test_solve_uncertified_optimum_exit_code(tmp_path, monkeypatch, capsys):
    import gridtariff.cli as cli
    from gridtariff.reformulation import build_mpcc, default_big_m

    t1 = make_t1(C=(0.0, 0.0))
    cramped = default_big_m(build_mpcc(t1), default_dual=1.5)
    real = cli.solve_bilevel
    monkeypatch.setattr(cli, "solve_bilevel", lambda inst, **kw: real(
        inst, config=cramped, max_retries=0, **kw))
    inst_path = tmp_path / "t1.json"
    write_instance(t1, inst_path)
    out = tmp_path / "out.json"
    code = run_cli("solve", inst_path, "--gap", "0", "-o", out)
    assert code == 3
    assert "uncertified optimum" in capsys.readouterr().err
    assert not out.exists()


def test_solve_invalid_instance_exit_code(tmp_path):
    inst_path = tmp_path / "bad.json"
    bad = make_t1()
    bad.battery = type(bad.battery)(5.0, 0.0, 1.0, 0.9, 0.9)
    write_instance(bad, inst_path)
    code = run_cli("solve", inst_path, "-o", tmp_path / "out.json")
    assert code == 2


def test_rh_command(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli("generate", "--preset", "mini", "--seed", "2", "-o", inst) == 0
    out = tmp_path / "rh"
    assert run_cli("rh", inst, "--window", "6", "--step", "2", "--frozen", "2",
                   *FAST, "-o", out) == 0
    rows = list(csv.DictReader((out / "iterations.csv").open()))
    assert rows and all(r["status"] == "optimal" for r in rows)
    traj = json.loads((out / "trajectory.json").read_text())
    assert traj["complete"] is True
    assert (out / "committed.csv").exists()


def test_sensitivity_grid_is_thirteen(tmp_path):
    assert len(SENSITIVITY_GRID) == 13
    names = [n for n, _ in SENSITIVITY_GRID]
    assert names[0] == "base" and len(set(names)) == 13


def test_rh_study_defaults_make_thirty_runs():
    from gridtariff.cli import build_parser
    args = build_parser().parse_args(["rh-study", "-o", "x"])
    frozen = [int(v) for v in args.frozen_values.split(",")]
    assert frozen == [0, 2, 4, 6, 8, 10]
    assert args.paths == 5
    assert args.paths * len(frozen) == 30
    assert args.window == 12 and args.step == 1
    assert args.stay == pytest.approx(0.4)


def test_sensitivity_run_mini(tmp_path):
    out = tmp_path / "study"
    assert run_cli("sensitivity", "--preset", "mini", "--seed", "1",
                   *FAST, "-o", out) == 0
    leader = list(csv.DictReader((out / "leader_table.csv").open()))
    follower = list(csv.DictReader((out / "follower_table.csv").open()))
    assert len(leader) == 13 and len(follower) == 13
    # reported percentage columns recompute from the raw columns
    for row in leader:
        ref, opt = float(row["ref_obj"]), float(row["opt_obj"])
        expected = 100.0 * (opt - ref) / ref
        assert float(row["pct_diff"]) == pytest.approx(expected, abs=5e-4)
    for row in follower:
        if row["pct_bc"]:
            assert float(row["pct_bc"]) == pytest.approx(
                100.0 * float(row["bc_opt"]) / float(row["bc_ref"]), abs=5e-4)
    zero_inc = next(r for r in follower if r["instance"] == "zero_inconvenience")
    assert zero_inc["pct_ic"] == ""             # undefined ratio left blank


def test_rh_study_smoke(tmp_path):
    out = tmp_path / "rhstudy"
    args = ["rh-study", "--preset", "mini", "--seed", "3",
            "--window", "6", "--step", "2", "--paths", "1",
            "--frozen-values", "0,2", "--skip-perfect", *FAST, "-o", out]
    assert run_cli(*args) == 0
    rows = list(csv.DictReader((out / "study.csv").open()))
    assert len(rows) == 2                        # one path, two frozen lengths
    assert {r["frozen"] for r in rows} == {"0", "2"}
    paths = (out / "path0.csv").read_text().splitlines()
    assert paths[0] == "iteration,base"
    base_rows = list(csv.DictReader((out / "baselines.csv").open()))
    ref_rows = [r for r in base_rows if r["kind"] == "reference"]
    assert len(ref_rows) == 1
    # the reference case runs on the generation path the first run realized
    inst = _generate(build_parser().parse_args([str(a) for a in args]))
    realized = json.loads((out / "run_p0_f0" / "trajectory.json").read_text())
    dg_path = np.array([inst.tree.bases[b].dg_bound[h]
                        for h, b in enumerate(realized["base_by_slot"])])
    ref = reference_case(inst, dg_path)
    assert ref_rows[0]["leader_obj"] == f"{ref.leader_profit:.6f}"
    assert ref_rows[0]["generalized_cost"] == f"{ref.generalized_cost:.6f}"


def test_rh_study_single_base(tmp_path):
    out = tmp_path / "rhstudy"
    assert build_parser().parse_args(["rh-study", "-o", "x"]).bases == 3
    assert run_cli("rh-study", "--preset", "mini", "--seed", "3", "--bases", "1",
                   "--window", "6", "--step", "2", "--paths", "1",
                   "--frozen-values", "0", "--skip-perfect", *FAST, "-o", out) == 0
    path = list(csv.DictReader((out / "path0.csv").open()))
    assert path and {r["base"] for r in path} == {"0"}
    realized = json.loads((out / "run_p0_f0" / "trajectory.json").read_text())
    assert set(realized["base_by_slot"]) == {0}
