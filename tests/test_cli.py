"""End-to-end command line checks at desk scale."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridtariff
from gridtariff.baselines import perfect_case, reference_case
from gridtariff.cli import SENSITIVITY_GRID, _generate, build_parser, main
from gridtariff.follower import FollowerInfeasible
from gridtariff.generator import generate_mini_instance, greedy_device_profile
from gridtariff.serialize import read_instance, write_instance
from gridtariff.solver import SolveOptions

from conftest import make_t1

FAST = ["--time-limit", "120", "--gap", "1e-6", "--backend", "scipy"]

# edits of a 3-base instance file's scenario tree that its reader rejects
BAD_TREES = {
    "bases of 12 and 11 slots": lambda tree: tree.update(
        bases=[tree["bases"][0], tree["bases"][1][:11]], probabilities=[0.5, 0.5]),
    "11-slot bases, period 4": lambda tree: tree.update(
        bases=[base[:11] for base in tree["bases"][:2]], probabilities=[0.5, 0.5],
        period_length=4),
}


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_generate_then_solve_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run_cli("generate", "--preset", "mini", "--seed", "1",
                   "-o", inst, "--curves-dir", tmp_path / "curves") == 0
    generated = read_instance(inst)
    curves = {"supply_cost": ("supply_cost", generated.prices.supply_cost),
              "competitor_price": ("competitor_price",
                                   generated.prices.competitor),
              "unshifted_demand": ("demand", greedy_device_profile(
                  generated.devices, generated.n_slots).sum(axis=0)),
              "generation_bound": ("generation_bound",
                                   generated.tree.bases[0].dg_bound)}
    for name, (column, values) in curves.items():
        rows = list(csv.reader((tmp_path / "curves" / f"{name}.csv").open()))
        assert rows[0] == ["slot", column], name
        assert rows[1] == ["0", f"{values[0]:.10g}"], name
        assert len(rows) == 13, name
    assert run_cli("solve", inst, *FAST, "-o", sol,
                   "--series-dir", tmp_path / "series",
                   "--export-lp", tmp_path / "model.lp",
                   "--export-follower-lp", tmp_path / "schedule.lp") == 0
    schedule_lp = (tmp_path / "schedule.lp").read_text()
    assert schedule_lp.startswith("Minimize")
    assert " <= v" in schedule_lp.split("Bounds")[1]    # the implied bounds
    doc = json.loads(sol.read_text())
    assert doc["status"] == "optimal"
    assert "mip_gap" in doc and np.isfinite(doc["mip_gap"])
    assert doc["polish_lps"] in (0, 1, 2)
    assert len(doc["prices"]) == 12
    assert (tmp_path / "series" / "prices.csv").exists()
    assert (tmp_path / "model.lp").read_text().startswith("Maximize")


def test_baseline_perfect_matches_the_library(tmp_path):
    inst = generate_mini_instance(1, n_bases=3)
    inst_path = tmp_path / "inst.json"
    write_instance(inst, inst_path)
    out = tmp_path / "perfect.json"
    assert run_cli("baseline", inst_path, "--kind", "perfect", "--scenario-leaf",
                   "1", *FAST, "-o", out) == 0
    doc = json.loads(out.read_text())
    res = perfect_case(inst, inst.tree.dg[1], opts=SolveOptions(time_limit=120.0,
                                                               rel_gap=1e-6),
                       backend="scipy")
    assert doc["kind"] == "perfect"
    assert doc["leader_profit"] == pytest.approx(res.leader_profit, rel=1e-9)
    assert doc["prices"] == pytest.approx(res.prices.tolist(), rel=1e-9)


def test_baseline_perfect_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import gridtariff.cli as cli

    def infeasible(*args, **kwargs):
        raise FollowerInfeasible("operator problem infeasible")
    monkeypatch.setattr(cli.baselines, "perfect_case", infeasible)
    inst_path = tmp_path / "inst.json"
    write_instance(make_t1(), inst_path)
    out = tmp_path / "perfect.json"
    assert run_cli("baseline", inst_path, "--kind", "perfect", *FAST, "-o", out) == 3
    assert "solver failure: operator problem infeasible" in capsys.readouterr().err
    assert not out.exists()


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
    from gridtariff import reformulation

    t1 = make_t1(C=(0.0, 0.0))
    real = cli.solve_bilevel
    monkeypatch.setattr(reformulation, "MAX_ESCALATIONS", 0)
    monkeypatch.setattr(cli, "solve_bilevel", lambda inst, **kw: real(
        inst, dual_m=1.5, **kw))
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


@pytest.mark.parametrize("path, message", [
    ("iteration,base\n0,1\n1,x\n", "line 3: '1,x' does not end in a base index"),
    ("0\n1\n", "has 2 bases; the run has 6 windows"),
    ("0\n1\n2\n3\n0\n1\n", "base 3 at iteration 3 is outside [0, 3)")])
def test_rh_bad_forced_path_exit_code(tmp_path, capsys, path, message):
    inst = tmp_path / "inst.json"
    write_instance(generate_mini_instance(14, n_bases=3), inst)
    (tmp_path / "path.csv").write_text(path)
    code = run_cli("rh", inst, "--window", "6", "--forced-path",
                   tmp_path / "path.csv", *FAST, "-o", tmp_path / "out")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["rh", "rh-study"])
def test_rh_step_beyond_window_exit_code(tmp_path, capsys, command):
    if command == "rh":
        inst = tmp_path / "inst.json"
        write_instance(generate_mini_instance(5, n_bases=3), inst)
        args = ["rh", inst]
    else:
        args = ["rh-study", "--preset", "mini", "--seed", "5"]
    code = run_cli(*args, "--window", "6", "--step", "7", *FAST,
                   "-o", tmp_path / "out")
    assert code == 2
    assert "validation: step 7 exceeds window 6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("rh", "--stay", "1.5", "negative transition probability"),
    ("rh-study", "--stay", "1.5", "negative transition probability"),
    ("rh-study", "--frozen-values", "0,x", "invalid literal for int()"),
    ("rh", "--time-limit", "0", "time_limit must be positive"),
    ("rh-study", "--backend", "nope", "unknown backend 'nope'"),
    ("solve", "--backend", "nope", "unknown backend 'nope'"),
    ("solve", "--time-limit", "0", "time_limit must be positive"),
    ("solve", "--gap", "-1", "rel_gap must be >= 0"),
    ("baseline", "--scenario-leaf", "5", "scenario leaf 5 is outside [0, 3)"),
    ("baseline", "--scenario-leaf", "-1", "scenario leaf -1 is outside [0, 3)"),
    ("sensitivity", "--time-limit", "0", "time_limit must be positive"),
    ("solve", "file", "bases of 12 and 11 slots", "inhomogeneous shape"),
    ("rh", "file", "11-slot bases, period 4", "base scenario 0 shorter than horizon"),
])
def test_rh_bad_settings_exit_code(tmp_path, capsys, command, option, value,
                                   message):
    """Bad settings of every command, and instance files that the reader
    rejects (option ``file``, edited by ``BAD_TREES[value]``), exit 2 before
    anything is written."""
    inst = tmp_path / "inst.json"
    args = {"rh": ["rh", inst, "--window", "6"],
            "rh-study": ["rh-study", "--preset", "mini", "--seed", "5",
                         "--paths", "1"],
            "solve": ["solve", inst, "--export-lp", tmp_path / "m.lp",
                      "--series-dir", tmp_path / "series"],
            "baseline": ["baseline", inst, "--kind", "reference"],
            "sensitivity": ["sensitivity", "--preset", "mini", "--seed", "1"],
            }[command]
    if inst in args:
        write_instance(generate_mini_instance(1, n_bases=3), inst)
    setting = [option, value]
    if option == "file":
        doc = json.loads(inst.read_text())
        BAD_TREES[value](doc["scenario_tree"])
        inst.write_text(json.dumps(doc))
        setting = []
    code = run_cli(*args, *FAST, *setting, "-o", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation: ") and message in err
    assert [p.name for p in tmp_path.iterdir()] == (["inst.json"] if inst in args
                                                    else [])


def test_rh_stdout_holds_only_the_cli_lines(tmp_path):
    # HiGHS prints a debug line to stdout from inside the MILP of this run's
    # window t=5.  A subprocess, so that neither C buffering nor pytest's
    # capture can hide it.
    src = str(Path(gridtariff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = [sys.executable, "-c",
           "import sys; from gridtariff.cli import main; sys.exit(main())"]
    lines = []
    for args in (["generate", "--preset", "mini", "--seed", "6", "--bases", "3",
                  "-o", "i.json"],
                 ["rh", "i.json", "--window", "6", "--step", "1", "--seed", "6",
                  "--backend", "scipy", "-o", "out"]):
        done = subprocess.run(cli + args, cwd=tmp_path, env=env, check=True,
                              capture_output=True, text=True)
        lines += done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("wrote i.json ")
    assert lines[1].startswith("rolling horizon done: ")


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


@pytest.mark.parametrize("command", ["sensitivity", "rh-study"])
def test_study_failures_are_classified(tmp_path, monkeypatch, capsys, command):
    """A solve failure makes a failed row and exit 4; a fault of the program
    propagates instead of passing for a failed solve."""
    import gridtariff.cli as cli
    from gridtariff.reformulation import BilevelInfeasible

    def failing(error):
        def solve(*args, **kwargs):
            raise error("no solution")
        return solve
    target = (cli, "solve_bilevel") if command == "sensitivity" \
        else (cli.baselines, "perfect_case")
    args = [command, "--preset", "mini", "--seed", "3", *FAST]
    if command == "rh-study":
        args += ["--window", "6", "--step", "2", "--paths", "1",
                 "--frozen-values", "0"]
    monkeypatch.setattr(*target, failing(TypeError))
    with pytest.raises(TypeError, match="no solution"):
        run_cli(*args, "-o", tmp_path / "bug")
    monkeypatch.setattr(*target, failing(BilevelInfeasible))
    assert run_cli(*args, "-o", tmp_path / "out") == 4
    if command == "sensitivity":
        runs = list(csv.DictReader((tmp_path / "out" / "runs.csv").open()))
        assert len(runs) == 13 and {r["status"] for r in runs} == {"failed"}
    else:
        assert "path 0 perfect case failed: no solution" in capsys.readouterr().err


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
