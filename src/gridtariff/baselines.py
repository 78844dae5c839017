"""Reference and perfect-information baselines.

The reference case prices at the competitor tariff and schedules every device
greedily at full power from the start of its window, sourcing each slot from
on-site generation first, then the battery, then the supplier; leftover
generation is stored until the battery is full.  It minimizes the operator's
inconvenience but ignores price structure, so its generalized cost upper
bounds the operator's cost under any in-bounds price profile.

The perfect case assumes the generation path is known in advance and solves
the one-scenario pricing problem exactly on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .follower import FollowerSolution, evaluate_schedule, leader_profit
from .generator import greedy_device_profile
from .model import Instance
from .reformulation import BilevelSolution, solve_bilevel
from .scenario import single_path_tree
from .solver import SolveOptions


@dataclass
class BaselineResult:
    kind: str                   # "reference" | "perfect"
    prices: np.ndarray
    schedule: FollowerSolution | None
    leader_profit: float
    billing_cost: float
    inconvenience_cost: float
    generalized_cost: float
    bilevel: BilevelSolution | None = None


def reference_case(instance: Instance, dg_path: np.ndarray) -> BaselineResult:
    """Greedy minimal-delay schedule at competitor prices on a known path."""
    dg_path = np.asarray(dg_path, dtype=float)
    n = instance.n_slots
    if len(dg_path) != n:
        raise ValueError("generation path length mismatch")
    bat = instance.battery
    demand = greedy_device_profile(instance.devices, n)
    n_dev = len(instance.devices)

    # per device and slot: from the supplier, generation and the battery;
    # per slot: from the supplier and generation into the battery
    x, lam, sd = np.zeros((3, n_dev, n))
    xs, lams = np.zeros((2, n))
    state = np.zeros(n + 1)
    state[0] = bat.initial
    for h in range(n):
        s_h = state[h]
        need = demand[:, h]
        dg_left = dg_path[h]
        # generation first, then battery (respecting the start-of-slot cap and
        # the floor after decay), then the supplier
        for d in range(n_dev):
            take = min(need[d], dg_left)
            lam[d, h] = take
            dg_left -= take
        served = lam[:, h].copy()
        draw_cap = min(s_h, max(0.0, bat.discharge_eff * s_h - bat.min_level))
        for d in range(n_dev):
            take = min(need[d] - served[d], draw_cap)
            sd[d, h] = take
            draw_cap -= take
            served[d] += take
        x[:, h] = need - served
        # store leftover generation, unless the battery is full
        headroom = bat.max_level - (bat.discharge_eff * s_h - sd[:, h].sum())
        lams[h] = min(dg_left, max(0.0, headroom) / bat.charge_eff)
        nxt = bat.next_level(s_h, sd[:, h].sum(), lams[h])
        if nxt < bat.min_level - 1e-12:
            # decay alone breached the floor: top up from the supplier
            xs[h] = (bat.min_level - nxt) / bat.charge_eff
            nxt = bat.min_level
        state[h + 1] = nxt

    schedule = FollowerSolution(
        (x + lam + sd)[None], (x.sum(axis=0) + xs)[None], np.zeros((1, n)),
        (lam.sum(axis=0) + lams)[None], sd.sum(axis=0)[None], (xs + lams)[None],
        state[None], float("nan"))
    prices = instance.prices.competitor.copy()
    single = instance.replace(tree=single_path_tree(dg_path))
    costs = evaluate_schedule(single, prices, schedule)
    schedule.objective_value = costs.generalized_cost
    profit = leader_profit(single, prices, schedule)
    return BaselineResult("reference", prices, schedule, profit,
                          costs.billing_cost, costs.inconvenience_cost,
                          costs.generalized_cost)


def perfect_case(instance: Instance, dg_path: np.ndarray,
                 opts: SolveOptions | None = None,
                 backend: str | None = None) -> BaselineResult:
    """Deterministic pricing optimum on the realized generation path."""
    single = instance.replace(tree=single_path_tree(np.asarray(dg_path, dtype=float)))
    sol = solve_bilevel(single, opts=opts, backend=backend)
    costs = evaluate_schedule(single, sol.prices, sol.follower)
    return BaselineResult("perfect", sol.prices, sol.follower,
                          sol.leader_objective, costs.billing_cost,
                          costs.inconvenience_cost, costs.generalized_cost,
                          bilevel=sol)


@dataclass
class ComparisonReport:
    ref_leader: float
    opt_leader: float
    pct_diff: float
    bc_ref: float
    ic_ref: float
    bc_opt: float
    ic_opt: float
    pct_bc: float | None
    pct_ic: float | None
    pct_gc: float | None


def _ratio(opt: float, ref: float) -> float | None:
    if abs(ref) < 1e-12:
        return None
    return 100.0 * opt / ref


def compare(opt_leader: float, bc_opt: float, ic_opt: float,
            reference: BaselineResult) -> ComparisonReport:
    """Reference-vs-optimized report: percentage diff and cost ratios."""
    ref = reference.leader_profit
    pct_diff = (100.0 * (opt_leader - ref) / ref) if abs(ref) > 1e-12 else np.nan
    gc_opt = bc_opt + ic_opt
    return ComparisonReport(
        ref_leader=ref, opt_leader=opt_leader, pct_diff=pct_diff,
        bc_ref=reference.billing_cost, ic_ref=reference.inconvenience_cost,
        bc_opt=bc_opt, ic_opt=ic_opt,
        pct_bc=_ratio(bc_opt, reference.billing_cost),
        pct_ic=_ratio(ic_opt, reference.inconvenience_cost),
        pct_gc=_ratio(gc_opt, reference.generalized_cost),
    )


def compare_solutions(optimized: BilevelSolution, reference: BaselineResult,
                      instance: Instance) -> ComparisonReport:
    costs = evaluate_schedule(instance, optimized.prices, optimized.follower)
    return compare(optimized.leader_objective, costs.billing_cost,
                   costs.inconvenience_cost, reference)
