"""Shared fixtures: hand-built tiny instances and independent oracles.

The grid oracle sweeps leader prices over a lattice and, per price point,
computes the operator's optimal response with leader-favorable tie-breaking;
the greedy variant handles the no-battery / no-generation / one-scenario
case in closed form, the LP variant covers everything else through a
composite objective (cost minus a vanishing leader-profit bonus).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gridtariff.follower import build_follower_lp, build_follower_system
from gridtariff.model import (Battery, Device, Horizon, Instance, PriceData,
                              TimeWindow)
from gridtariff.scenario import BaseScenario, flat_tree, single_path_tree
from gridtariff.solver import Status, simplex

# the instance shape of perfbench's desk workload
DESK_SHAPE = dict(n_bases=1, n_slots=4, n_devices=2, slot_minutes=360,
                  total_demand=8, duration_range=(1, 2), battery_hours=1.5,
                  dg_level=0.8)


def make_t1(C=(0.0, 0.1), K=(2.5, 1.0), pbar=(3.0, 3.0)) -> Instance:
    """Two slots, one device needing 2 units at up to 2 per slot."""
    dev = Device("c0", "a0", TimeWindow(0, 1), 2.0, 2.0, tuple(C))
    return Instance(
        horizon=Horizon(2, 30),
        devices=[dev],
        battery=Battery(0.0, 0.0, 0.0, 0.95, 0.95),
        prices=PriceData(np.asarray(pbar, dtype=float), np.asarray(K, dtype=float)),
        tree=single_path_tree(np.zeros(2)),
        name="t1",
    )


def random_tiny_instance(rng: np.random.Generator, *, n_slots: int,
                         n_devices: int, n_scenarios: int = 1,
                         battery: bool = False, generation: bool = False,
                         slope_max: float = 0.3) -> Instance:
    devices = []
    for d in range(n_devices):
        first = int(rng.integers(0, n_slots))
        last = int(rng.integers(first, n_slots))
        wlen = last - first + 1
        beta = float(rng.uniform(1.0, 3.0))
        demand = float(rng.uniform(0.5, wlen * beta))
        slope = float(rng.uniform(0.0, slope_max))
        devices.append(Device("c", f"a{d}", TimeWindow(first, last), demand,
                              beta, tuple(slope * k for k in range(wlen))))
    pbar = np.full(n_slots, float(rng.uniform(2.0, 5.0)))
    supply = rng.uniform(0.3, 0.9, n_slots) * pbar
    bat = Battery(0.0, 0.0, float(rng.uniform(0.5, 2.0)) if battery else 0.0,
                  0.9, 0.95)
    if n_scenarios == 1:
        dg = rng.uniform(0.0, 1.5, n_slots) if generation else np.zeros(n_slots)
        tree = single_path_tree(dg)
    else:
        dg = rng.uniform(0.2, 1.5, n_slots)
        dg[0] = 0.0          # shared prefix: scenarios indistinguishable early
        tree = flat_tree([BaseScenario(0, dg * 0.5), BaseScenario(1, dg * 1.5)],
                         n_slots)
    return Instance(Horizon(n_slots, 60), devices, bat, PriceData(pbar, supply),
                    tree, name=f"tiny-{n_slots}s{n_devices}d{n_scenarios}x")


# -- analytic follower response (no battery, no generation, one scenario) -----


def greedy_optimistic_profit(instance: Instance, prices: np.ndarray) -> float:
    """Exact optimistic leader profit for purchase-only instances.

    Each device independently fills its cheapest window slots by effective
    unit cost (price plus delay penalty), breaking cost ties toward the slots
    most profitable for the leader.
    """
    assert instance.battery.max_level == 0.0
    assert instance.tree.n_leaves == 1
    assert not np.any(instance.tree.leaves[0].dg_bound > 0)
    prices = np.asarray(prices, dtype=float)
    pbar = instance.prices.competitor
    supply = instance.prices.supply_cost
    profit = 0.0
    for dev in instance.devices:
        slots = np.fromiter(dev.window.slots, dtype=np.int64)
        eff = np.minimum(prices[slots], pbar[slots]) + np.asarray(dev.inconvenience)
        margin = np.where(prices[slots] <= pbar[slots] + 1e-12,
                          prices[slots] - supply[slots], 0.0)
        order = sorted(range(len(slots)), key=lambda i: (eff[i], -margin[i], i))
        left = dev.energy_demand
        for i in order:
            take = min(dev.max_power, left)
            left -= take
            if prices[slots[i]] <= pbar[slots[i]] + 1e-12:
                profit += margin[i] * take
            if left <= 1e-12:
                break
    return profit


# -- LP-based optimistic response ----------------------------------------------


class OptimisticResponder:
    """Reusable follower solver: min cost - eps * leader profit at fixed prices."""

    def __init__(self, instance: Instance, eps: float = 1e-7):
        self.instance = instance
        self.system = build_follower_system(instance)
        self.eps = eps
        lp = build_follower_lp(instance, np.zeros(instance.n_slots), self.system)
        self.lp = lp
        self.ws = simplex.Workspace(lp)
        self.supply = instance.prices.supply_cost

    def profit(self, prices: np.ndarray) -> float:
        sysm = self.system
        obj = sysm.objective(prices)
        obj[sysm.leader_cols] -= self.eps * sysm.leader_prob * (
            prices[sysm.leader_slot] - self.supply[sysm.leader_slot])
        sol = simplex.solve_with_workspace(self.ws, obj, False)
        assert sol.status is Status.OPTIMAL, sol.status
        x = sol.x
        return float(np.sum(sysm.leader_prob
                            * (prices[sysm.leader_slot]
                               - self.supply[sysm.leader_slot])
                            * x[sysm.leader_cols]))


def relevant_price_slots(instance: Instance) -> list[int]:
    """Slots whose leader price can influence anything.

    Without a battery the operator only buys inside device windows, so prices
    elsewhere are inert and may be fixed at the competitor level.
    """
    if instance.battery.max_level > 0:
        return list(range(instance.n_slots))
    used = set()
    for dev in instance.devices:
        used.update(dev.window.slots)
    return sorted(used)


def grid_oracle(instance: Instance, step_frac: float = 0.05,
                use_greedy: bool | None = None) -> tuple[float, np.ndarray]:
    """Best optimistic leader profit over the price lattice (step 0.05 * pbar)."""
    pbar = instance.prices.competitor
    slots = relevant_price_slots(instance)
    if use_greedy is None:
        use_greedy = (instance.battery.max_level == 0.0
                      and instance.tree.n_leaves == 1
                      and not np.any(instance.tree.leaves[0].dg_bound > 0))
    responder = None if use_greedy else OptimisticResponder(instance)
    grids = [np.linspace(0.0, pbar[h], int(round(1 / step_frac)) + 1)
             for h in slots]
    best = -np.inf
    best_prices = pbar.copy()
    for combo in itertools.product(*grids):
        prices = pbar.copy()
        prices[slots] = combo
        value = (greedy_optimistic_profit(instance, prices) if use_greedy
                 else responder.profit(prices))
        if value > best + 1e-12:
            best = value
            best_prices = prices.copy()
    return float(best), best_prices


@pytest.fixture
def t1():
    return make_t1()
