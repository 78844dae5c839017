"""Report assembly for solves, baselines and studies.

Everything lands as CSV (diffable, plot-ready) plus a JSON dump per run.
Leader tables carry reference/optimized objectives with the percentage
difference; follower tables carry billing/inconvenience splits and the
optimized-to-reference ratios, with blank cells where a ratio's denominator
is zero.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import ComparisonReport
from .follower import evaluate_schedule
from .model import Instance
from .reformulation import BilevelSolution
from .serialize import write_rows_csv, write_series_csv

LEADER_TABLE_HEADER = ["instance", "ref_obj", "opt_obj", "pct_diff"]
FOLLOWER_TABLE_HEADER = ["instance", "bc_ref", "ic_ref", "bc_opt", "ic_opt",
                         "pct_bc", "pct_ic", "pct_gc"]


@dataclass
class RunReport:
    name: str
    status: str
    leader_objective: float
    billing_cost: float
    inconvenience_cost: float
    generalized_cost: float
    mip_gap: float
    runtime_s: float
    audit_flags: int
    retries: int

    def row(self) -> list:
        return [self.name, self.status, f"{self.leader_objective:.6f}",
                f"{self.billing_cost:.6f}", f"{self.inconvenience_cost:.6f}",
                f"{self.generalized_cost:.6f}", f"{self.mip_gap:.3e}",
                f"{self.runtime_s:.2f}", self.audit_flags, self.retries]

    HEADER = ["instance", "status", "leader_obj", "bc", "ic", "gc", "gap",
              "runtime_s", "audit_flags", "retries"]


def run_report(name: str, instance: Instance, solution: BilevelSolution,
               runtime_s: float) -> RunReport:
    costs = evaluate_schedule(instance, solution.prices, solution.follower)
    return RunReport(
        name=name, status=solution.status.value,
        leader_objective=solution.leader_objective,
        billing_cost=costs.billing_cost,
        inconvenience_cost=costs.inconvenience_cost,
        generalized_cost=costs.generalized_cost,
        mip_gap=solution.mip_gap, runtime_s=runtime_s,
        audit_flags=len(solution.audit.flags) if solution.audit else 0,
        retries=solution.retries)


def comparison_rows(name: str, cmp: ComparisonReport) -> tuple[list, list]:
    def fmt(v):
        return None if v is None else f"{v:.4f}"

    leader = [name, f"{cmp.ref_leader:.4f}", f"{cmp.opt_leader:.4f}",
              fmt(cmp.pct_diff)]
    follower = [name, f"{cmp.bc_ref:.4f}", f"{cmp.ic_ref:.4f}",
                f"{cmp.bc_opt:.4f}", f"{cmp.ic_opt:.4f}",
                fmt(cmp.pct_bc), fmt(cmp.pct_ic), fmt(cmp.pct_gc)]
    return leader, follower


def solution_to_dict(instance: Instance, solution: BilevelSolution) -> dict:
    costs = evaluate_schedule(instance, solution.prices, solution.follower)
    sched = solution.follower
    leader = sched.device["x"].sum(axis=1) + sched.stored["xs"]
    competitor = sched.device["xb"].sum(axis=1) + sched.stored["xbs"]
    generation = sched.device["lam"].sum(axis=1) + sched.stored["lams"]
    per_scenario = []
    for s in range(sched.n_scenarios):
        per_scenario.append({
            "probability": float(instance.tree.probabilities[s]),
            "leader_energy": leader[s].tolist(),
            "competitor_energy": competitor[s].tolist(),
            "generation_energy": generation[s].tolist(),
            "battery_state": sched.battery_state[s].tolist(),
            "billing_cost": costs.per_scenario[s][0],
            "inconvenience_cost": costs.per_scenario[s][1],
        })
    audit = solution.audit
    return {
        "instance": instance.name,
        "status": solution.status.value,
        "prices": solution.prices.tolist(),
        "leader_objective": solution.leader_objective,
        "follower_objective": solution.follower_objective,
        "billing_cost": costs.billing_cost,
        "inconvenience_cost": costs.inconvenience_cost,
        "generalized_cost": costs.generalized_cost,
        "mip_gap": solution.mip_gap,
        "retries": solution.retries,
        "audit": {
            "clean": audit.clean if audit else None,
            "flags": [asdict(f) for f in audit.flags] if audit else [],
            "max_primal": audit.max_primal if audit else None,
            "max_dual": audit.max_dual if audit else None,
        },
        "scenarios": per_scenario,
    }


def write_solution_json(path: str | Path, instance: Instance,
                        solution: BilevelSolution) -> None:
    Path(path).write_text(json.dumps(solution_to_dict(instance, solution), indent=1))


def write_run_series(outdir: str | Path, instance: Instance,
                     solution: BilevelSolution) -> None:
    """Plot-ready per-slot series for the highest-probability scenario."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    s = int(np.argmax(instance.tree.probabilities))
    sched = solution.follower
    used = {f: v[s].sum(axis=0) for f, v in sched.device.items()}   # per slot
    write_series_csv(outdir / "consumption.csv", {
        "total": sum(used.values()),
        "from_leader": used["x"] + sched.stored["xs"][s],
        "from_competitor": used["xb"] + sched.stored["xbs"][s],
        "from_generation": used["lam"] + sched.stored["lams"][s],
        "from_battery": used["sd"],
    })
    write_series_csv(outdir / "prices.csv", {
        "leader": solution.prices,
        "competitor": instance.prices.competitor,
        "supply_cost": instance.prices.supply_cost,
    })
    write_series_csv(outdir / "battery.csv",
                     {"state": sched.battery_state[s][: instance.n_slots]})


@dataclass
class StudyRow:
    path_id: int
    frozen: int
    leader_obj: float
    follower_bc: float
    follower_ic: float
    competitor_energy: float
    dg_overuse: float
    dg_unused: float
    runtime_s: float
    iterations: int

    HEADER = ["path", "frozen", "leader_obj", "follower_bc", "follower_ic",
              "competitor_energy", "dg_overuse", "dg_unused", "runtime_s",
              "iterations"]

    def row(self) -> list:
        return [self.path_id, self.frozen, f"{self.leader_obj:.6f}",
                f"{self.follower_bc:.6f}", f"{self.follower_ic:.6f}",
                f"{self.competitor_energy:.6f}", f"{self.dg_overuse:.6f}",
                f"{self.dg_unused:.6f}", f"{self.runtime_s:.2f}",
                self.iterations]


def write_table(path: str | Path, header: list[str], rows: list) -> None:
    write_rows_csv(path, header, rows)
