"""Batch command line interface.

Subcommands: ``generate`` (synthetic instances), ``solve`` (one-shot pricing
MILP), ``baseline`` (reference / perfect cases), ``rh`` (rolling horizon),
``sensitivity`` (the thirteen-variant study grid) and ``rh-study`` (frozen
horizon sweep over replayed scenario paths).

Exit codes: 0 success, 2 validation failure, 3 solver failure (including a
big-M optimum whose audit escalation could not certify), 4 partial
results (a time limit truncated something).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, reports, rolling, serialize
from .follower import FollowerInfeasible
from .generator import (MINI_PRESETS, VariantSpec, generate_mini_instance,
                        generate_week_instance, greedy_device_profile)
from .model import Instance, validate
from .reformulation import BilevelInfeasible, UncertifiedOptimum, solve_bilevel
from .rolling import RhAborted, RhConfig
from .scenario import uniform_selector
from .solver import SolveOptions, SolverError, Status, get_backend, write_lp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4

# what a solve raises when it ends without a usable optimum; anything else is
# a fault of the program or its input, not a failed run
SOLVE_FAILURES = (BilevelInfeasible, UncertifiedOptimum, FollowerInfeasible)

SENSITIVITY_GRID: list[tuple[str, VariantSpec]] = [
    ("base", VariantSpec()),
    ("zero_battery", VariantSpec(battery_scale=0.0)),
    ("small_battery", VariantSpec(battery_scale=0.5)),
    ("large_battery", VariantSpec(battery_scale=1.5)),
    ("zero_inconvenience", VariantSpec(inconvenience_scale=0.0)),
    ("low_inconvenience", VariantSpec(inconvenience_scale=0.5)),
    ("high_inconvenience", VariantSpec(inconvenience_scale=1.5)),
    ("zero_generation", VariantSpec(dg_scale=0.0)),
    ("low_generation", VariantSpec(dg_scale=0.5)),
    ("high_generation", VariantSpec(dg_scale=1.5)),
    ("peak_spot", VariantSpec(spot_peak_uplift=True)),
    ("narrow_windows", VariantSpec(window_class="narrow")),
    ("wide_windows", VariantSpec(window_class="wide")),
]


def _variant_from_args(args) -> VariantSpec:
    return VariantSpec(dg_scale=args.dg_scale, battery_scale=args.battery_scale,
                       inconvenience_scale=args.inconvenience_scale,
                       spot_peak_uplift=args.spot_uplift,
                       window_class=args.window_class)


def _generate(args, variants: VariantSpec | None = None) -> Instance:
    variants = variants if variants is not None else _variant_from_args(args)
    if args.preset == "week":
        return generate_week_instance(args.seed, variants, n_bases=args.bases)
    return generate_mini_instance(args.seed, variants, preset=args.preset,
                                  n_bases=args.bases)


def _load_instance(args) -> Instance:
    """The instance file, validated; a file that the reader rejects or an
    invalid instance exits as a validation failure."""
    try:
        inst = serialize.read_instance(args.instance)
    except KeyError as exc:
        print(f"validation: {args.instance}: missing field {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    except ValueError as exc:
        print(f"validation: {args.instance}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    report = validate(inst)
    if not report.ok:
        for v in report:
            print(f"validation: {v.code}: {v.message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return inst


def _solve_opts(args) -> SolveOptions:
    """The solver settings; a time limit that is not positive, a negative
    gap or an unknown backend exits as a validation failure."""
    try:
        get_backend(args.backend)
        return SolveOptions(time_limit=args.time_limit, rel_gap=args.gap)
    except (ValueError, SolverError) as exc:
        print(f"validation: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _rh_config(args, n_bases: int, frozen: int | str) -> RhConfig:
    """The rolling-horizon settings; bad solver settings (``_solve_opts``),
    or a bad window, step, stay probability or frozen prefix (also one that
    is no integer), exit as a validation failure."""
    try:
        return RhConfig(window=args.window, step=args.step, frozen=int(frozen),
                        opts=_solve_opts(args),
                        selector=uniform_selector(n_bases, args.stay),
                        seed=args.seed, backend=args.backend)
    except ValueError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def cmd_generate(args) -> int:
    inst = _generate(args)
    report = validate(inst)
    if not report.ok:
        for v in report:
            print(f"validation: {v.code}: {v.message}", file=sys.stderr)
        return EXIT_VALIDATION
    serialize.write_instance(inst, args.output)
    print(f"wrote {args.output} ({inst.n_slots} slots, {len(inst.devices)} devices)")
    if args.curves_dir:
        outdir = Path(args.curves_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        demand = greedy_device_profile(inst.devices, inst.n_slots).sum(axis=0)
        generation = inst.tree.bases[min(1, len(inst.tree.bases) - 1)].dg_bound
        for name, column, values in (
                ("supply_cost", "supply_cost", inst.prices.supply_cost),
                ("competitor_price", "competitor_price", inst.prices.competitor),
                ("unshifted_demand", "demand", demand),
                ("generation_bound", "generation_bound", generation)):
            serialize.write_series_csv(outdir / f"{name}.csv", {column: values})
        print(f"wrote curve CSVs to {outdir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    opts = _solve_opts(args)
    if args.export_lp:
        from .reformulation import build_mpcc, default_dual_m, linearize
        mpcc = build_mpcc(inst)
        write_lp(linearize(mpcc, default_dual_m(mpcc)), args.export_lp)
        print(f"wrote model to {args.export_lp}")
    if args.export_follower_lp:
        from .follower import build_follower_lp
        write_lp(build_follower_lp(inst, inst.prices.competitor),
                 args.export_follower_lp)
        print(f"wrote scheduling LP (at competitor prices) to"
              f" {args.export_follower_lp}")
    t0 = time.monotonic()
    try:
        sol = solve_bilevel(inst, opts=opts, backend=args.backend)
    except (BilevelInfeasible, FollowerInfeasible) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    runtime = time.monotonic() - t0
    reports.write_solution_json(args.output, inst, sol)
    if args.series_dir:
        reports.write_run_series(args.series_dir, inst, sol)
    rep = reports.run_report(inst.name, inst, sol, runtime)
    print(f"{inst.name}: leader={rep.leader_objective:.4f} gc={rep.generalized_cost:.4f}"
          f" gap={rep.mip_gap:.2e} status={rep.status} ({runtime:.1f}s)")
    return EXIT_OK if sol.status is Status.OPTIMAL else EXIT_PARTIAL


def cmd_baseline(args) -> int:
    inst = _load_instance(args)
    opts = _solve_opts(args)
    if not 0 <= args.scenario_leaf < inst.tree.n_leaves:
        print(f"validation: scenario leaf {args.scenario_leaf} is outside"
              f" [0, {inst.tree.n_leaves})", file=sys.stderr)
        return EXIT_VALIDATION
    dg_path = inst.tree.dg[args.scenario_leaf]
    if args.kind == "reference":
        res = baselines.reference_case(inst, dg_path)
    else:
        try:
            res = baselines.perfect_case(inst, dg_path, opts=opts,
                                         backend=args.backend)
        except (BilevelInfeasible, FollowerInfeasible) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    doc = {
        "instance": inst.name, "kind": res.kind,
        "leader_profit": res.leader_profit,
        "billing_cost": res.billing_cost,
        "inconvenience_cost": res.inconvenience_cost,
        "generalized_cost": res.generalized_cost,
        "prices": np.asarray(res.prices).tolist(),
    }
    Path(args.output).write_text(json.dumps(doc, indent=1))
    print(f"{res.kind}: leader={res.leader_profit:.4f} gc={res.generalized_cost:.4f}")
    return EXIT_OK


def cmd_rh(args) -> int:
    inst = _load_instance(args)
    cfg = _rh_config(args, len(inst.tree.bases), args.frozen)
    forced = None
    if args.forced_path:
        try:
            forced = serialize.read_forced_path_csv(args.forced_path)
            rolling.check_forced_path(inst, cfg, forced)
        except ValueError as exc:
            print(f"validation: forced path: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        traj = rolling.run(inst, cfg, forced_path=forced)
    except RhAborted as exc:
        _write_trajectory(outdir, inst, exc.trajectory)
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    _write_trajectory(outdir, inst, traj)
    audit = rolling.audit_trajectory(inst, traj)
    bc, ic = traj.realized_follower_cost(inst)
    print(f"rolling horizon done: leader={traj.realized_leader_profit(inst):.4f}"
          f" follower_gc={bc + ic:.4f} audit_ok={audit.ok}")
    return EXIT_OK


def _write_trajectory(outdir: Path, inst: Instance,
                      traj: rolling.RhTrajectory) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "instance": inst.name,
        "complete": traj.complete,
        "realized_bases": list(map(int, traj.realized_bases)),
        "frozen_prices": np.nan_to_num(traj.frozen_prices).tolist(),
        "base_by_slot": traj.base_by_slot.tolist(),
        "battery_state": traj.schedule.battery_state[0].tolist(),
    }
    (outdir / "trajectory.json").write_text(json.dumps(doc, indent=1))
    serialize.write_rows_csv(
        outdir / "iterations.csv",
        ["t", "status", "gap", "runtime_s", "leader_obj", "follower_obj",
         "realized_base"],
        [[r.t, r.status, f"{r.gap:.3e}", f"{r.runtime_s:.2f}",
          f"{r.leader_obj:.6f}", f"{r.follower_obj:.6f}", r.realized_base]
         for r in traj.per_iteration_log])
    if traj.complete:
        serialize.write_series_csv(outdir / "committed.csv", {
            "price": traj.frozen_prices,
            "consumption": traj.schedule.consumption[0].sum(axis=0),
            "battery_state": traj.schedule.battery_state[0, :-1],
        })


def cmd_sensitivity(args) -> int:
    opts = _solve_opts(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    leader_rows, follower_rows, report_rows = [], [], []
    failures = 0

    def flush_tables() -> None:     # partial grids still leave usable tables
        serialize.write_rows_csv(outdir / "leader_table.csv",
                                 reports.LEADER_TABLE_HEADER, leader_rows)
        serialize.write_rows_csv(outdir / "follower_table.csv",
                                 reports.FOLLOWER_TABLE_HEADER, follower_rows)
        serialize.write_rows_csv(outdir / "runs.csv", reports.RunReport.HEADER,
                                 report_rows)

    for name, variants in SENSITIVITY_GRID:
        inst = _generate(args, variants)
        t0 = time.monotonic()
        try:
            sol = solve_bilevel(inst, opts=opts, backend=args.backend)
        except SOLVE_FAILURES as exc:                # keep the grid going
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
            leader_rows.append([name, None, None, None])
            follower_rows.append([name] + [None] * 7)
            report_rows.append([name, "failed"] + [None] * 8)
            failures += 1
            flush_tables()
            continue
        runtime = time.monotonic() - t0
        ref = baselines.reference_case(
            inst, inst.tree.dg[np.argmax(inst.tree.probabilities)])
        cmp = baselines.compare_solutions(sol, ref, inst)
        lrow, frow = reports.comparison_rows(name, cmp)
        leader_rows.append(lrow)
        follower_rows.append(frow)
        report_rows.append(reports.run_report(name, inst, sol, runtime).row())
        reports.write_run_series(outdir / name, inst, sol)
        reports.write_solution_json(outdir / name / "solution.json", inst, sol)
        flush_tables()
        print(f"{name}: ref={cmp.ref_leader:.2f} opt={cmp.opt_leader:.2f} "
              f"diff={cmp.pct_diff:.2f}% gap={sol.mip_gap:.2e} ({runtime:.0f}s)")
    print(f"wrote study tables to {outdir} ({len(SENSITIVITY_GRID) - failures}"
          f"/{len(SENSITIVITY_GRID)} runs ok)")
    return EXIT_OK if failures == 0 else EXIT_PARTIAL


def cmd_rh_study(args) -> int:
    configs = [_rh_config(args, args.bases, v) for v in args.frozen_values.split(",")]
    inst = _generate(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    rows: list = []
    base_rows: list = []
    failures = 0

    def flush_tables() -> None:     # partial sweeps still leave usable tables
        serialize.write_rows_csv(outdir / "study.csv", reports.StudyRow.HEADER, rows)
        serialize.write_rows_csv(outdir / "baselines.csv",
                                 ["path", "kind", "leader_obj", "generalized_cost"],
                                 base_rows)

    for path_id in range(args.paths):
        forced: list[int] | None = None
        for cfg in configs:
            frozen = cfg.frozen
            cfg = replace(cfg, seed=args.seed + path_id)
            t0 = time.monotonic()
            try:
                traj = rolling.run(inst, cfg, forced_path=forced)
            except RhAborted as exc:
                print(f"path {path_id} frozen {frozen}: aborted ({exc})",
                      file=sys.stderr)
                failures += 1
                continue
            runtime = time.monotonic() - t0
            dg_path = traj.realized_dg_path(inst)
            if forced is None:
                forced = list(traj.realized_bases)
                realized_path = dg_path
                serialize.write_rows_csv(outdir / f"path{path_id}.csv",
                                         ["iteration", "base"],
                                         list(enumerate(forced)))
            audit = rolling.audit_trajectory(inst, traj)
            bc, ic = traj.realized_follower_cost(inst)
            profit = traj.realized_leader_profit(inst)
            rows.append(reports.StudyRow(
                path_id, frozen, profit, bc, ic, audit.competitor_energy,
                sum(v for _, v in audit.dg_violations),
                float(np.maximum(dg_path - traj.schedule.generation[0], 0.0).sum()),
                runtime, len(traj.per_iteration_log)).row())
            _write_trajectory(outdir / f"run_p{path_id}_f{frozen}", inst, traj)
            flush_tables()
            print(f"path {path_id} frozen {frozen}: leader={profit:.2f}"
                  f" ({runtime:.0f}s)")
        if forced is not None:
            ref = baselines.reference_case(inst, realized_path)
            base_rows.append([path_id, "reference", f"{ref.leader_profit:.6f}",
                              f"{ref.generalized_cost:.6f}"])
            if not args.skip_perfect:
                try:
                    perf = baselines.perfect_case(inst, realized_path,
                                                  opts=configs[0].opts,
                                                  backend=args.backend)
                    base_rows.append([path_id, "perfect",
                                      f"{perf.leader_profit:.6f}",
                                      f"{perf.generalized_cost:.6f}"])
                except SOLVE_FAILURES as exc:
                    print(f"path {path_id} perfect case failed: {exc}",
                          file=sys.stderr)
                    failures += 1
            flush_tables()
    flush_tables()
    print(f"wrote {outdir}/study.csv with {len(rows)} runs")
    return EXIT_OK if failures == 0 else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtariff",
        description="Bilevel time-of-use pricing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_opts(p, bases=1):
        p.add_argument("--preset", default="mini",
                       choices=["week"] + sorted(MINI_PRESETS))
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--bases", type=int, default=bases, choices=[1, 3])
        p.add_argument("--dg-scale", type=float, default=1.0)
        p.add_argument("--battery-scale", type=float, default=1.0)
        p.add_argument("--inconvenience-scale", type=float, default=1.0)
        p.add_argument("--spot-uplift", action="store_true")
        p.add_argument("--window-class", default="base",
                       choices=["narrow", "base", "wide"])

    def add_solver_opts(p, time_limit=600.0):
        p.add_argument("--time-limit", type=float, default=time_limit)
        p.add_argument("--gap", type=float, default=1e-4)
        p.add_argument("--backend", default=None)

    p = sub.add_parser("generate", help="emit a synthetic instance JSON")
    add_gen_opts(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--curves-dir", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="one-shot pricing MILP on an instance file")
    p.add_argument("instance")
    add_solver_opts(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--series-dir", default=None)
    p.add_argument("--export-lp", default=None)
    p.add_argument("--export-follower-lp", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("baseline", help="reference or perfect case")
    p.add_argument("instance")
    p.add_argument("--kind", choices=["reference", "perfect"], required=True)
    p.add_argument("--scenario-leaf", type=int, default=0)
    add_solver_opts(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rh", help="rolling-horizon run on an instance file")
    p.add_argument("instance")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--frozen", type=int, default=0)
    p.add_argument("--stay", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--forced-path", default=None)
    add_solver_opts(p, time_limit=150.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_rh)

    p = sub.add_parser("sensitivity", help="thirteen-variant study grid")
    add_gen_opts(p)
    add_solver_opts(p, time_limit=1200.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("rh-study", help="frozen-horizon sweep over replayed paths")
    add_gen_opts(p, bases=3)
    add_solver_opts(p, time_limit=150.0)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--paths", type=int, default=5)
    p.add_argument("--frozen-values", default="0,2,4,6,8,10")
    p.add_argument("--stay", type=float, default=0.4)
    p.add_argument("--skip-perfect", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_rh_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UncertifiedOptimum as exc:
        print(f"uncertified optimum: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
