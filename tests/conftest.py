"""Shared fixtures: hand-built tiny instances and independent oracles.

``reference_follower`` builds the operator LP the slow, explicit way: one
tuple key per decision and leaf, one labelled row at a time, through
``LpBuilder``.  The array build in ``gridtariff.follower`` must reproduce it
bit for bit, and tests that need to know what a column or row is read its
labels.

``indistinguishability_time`` and ``all_nonanticipativity_pairs`` list the
decisions two leaves must share pair by pair, the quadratic way that
``scenario.node_map`` avoids; ``complementarity_products`` reads every
slack-multiplier product of a solved LP row by row.

The grid oracle sweeps leader prices over a lattice and, per price point,
computes the operator's optimal response with leader-favorable tie-breaking;
the greedy variant handles the no-battery / no-generation / one-scenario
case in closed form, the LP variant covers everything else through a
composite objective (cost minus a vanishing leader-profit bonus).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from gridtariff.follower import (DEVICE_FAMILIES, SLOT_FAMILIES,
                                 build_follower_lp, build_follower_system)
from gridtariff.model import (Battery, Device, Horizon, Instance, PriceData,
                              TimeWindow)
from gridtariff.scenario import (BaseScenario, Scenario, ScenarioTree,
                                 flat_tree, node_map, single_path_tree)
from gridtariff.solver import (EQ, GE, LE, LinearProgram, LpBuilder,
                               LpSolution, Status, simplex)

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


# -- pairwise oracles ----------------------------------------------------------


def indistinguishability_time(a: Scenario, b: Scenario) -> int:
    """Latest slot up to which the two generation paths agree everywhere.

    Returns -1 when they already differ at slot 0 and ``H`` (the last slot)
    when the paths are identical over the whole horizon.
    """
    diff = np.flatnonzero(a.dg_bound != b.dg_bound)
    if diff.size == 0:
        return len(a.dg_bound) - 1
    return int(diff[0]) - 1


def all_nonanticipativity_pairs(tree: ScenarioTree) -> list[tuple[int, int, int]]:
    """Every pair of leaves ``(leaf, leaf', h_max)`` that agree on slots
    ``0..h_max``."""
    out = []
    for i in range(tree.n_leaves):
        for j in range(i + 1, tree.n_leaves):
            h = indistinguishability_time(tree.leaves[i], tree.leaves[j])
            if h >= 0:
                out.append((i, j, h))
    return out


def complementarity_products(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """|slack * multiplier| per inequality row and |value * reduced cost| per var."""
    ineq = lp.sense != EQ
    slack = np.where(lp.sense == LE, -1.0, 1.0) * (lp.a_rows @ sol.x - lp.rhs)
    return np.abs(np.concatenate([(slack * sol.duals)[ineq],
                                  (sol.x - lp.lower) * sol.reduced_costs]))


# -- reference operator LP ------------------------------------------------------


def device_columns(system) -> dict:
    """Each device family's columns as a dense (scenario, device, slot) map,
    -1 outside the device's window, scattered from ``window_pos`` and
    ``window_cols``."""
    dense = np.full((len(DEVICE_FAMILIES), *system.schedule_shape), -1,
                    dtype=np.int64)
    dense.reshape(len(DEVICE_FAMILIES), -1)[:, system.window_pos] = \
        system.window_cols
    return dict(zip(DEVICE_FAMILIES, dense))


@dataclass
class ReferenceFollower:
    """The operator LP with a tuple key per decision and leaf.

    ``index`` maps every leaf's key (``("x", s, d, h)``, ``("xs", s, h)``,
    ``("S", s, h)``, ...) to its column; keys of leaves at one tree node map
    to one column, labelled in ``var_tags`` with the key of the node's first
    leaf.  ``row_tags`` labels each row with its family and coordinates.
    ``lp`` is built row by row with ``LpBuilder``, with objective ``c0``.
    """

    instance: Instance
    index: dict
    var_tags: list
    row_tags: list
    c0: np.ndarray
    price_slot: np.ndarray
    price_prob: np.ndarray
    lp: LinearProgram

    def objective(self, prices: np.ndarray) -> np.ndarray:
        return np.array([c + prob * prices[h] if h >= 0 else c for c, h, prob
                         in zip(self.c0.tolist(), self.price_slot.tolist(),
                                self.price_prob.tolist())])

    def device_index(self, family: str) -> np.ndarray:
        inst = self.instance
        out = np.full((inst.tree.n_leaves, len(inst.devices), inst.n_slots), -1)
        for s in range(inst.tree.n_leaves):
            for d, dev in enumerate(inst.devices):
                for h in dev.window.slots:
                    out[s, d, h] = self.index[(family, s, d, h)]
        return out

    def slot_cols(self, family: str) -> np.ndarray:
        n = self.instance.n_slots + (family == "S")
        return np.array([[self.index[(family, s, h)] for h in range(n)]
                         for s in range(self.instance.tree.n_leaves)])

    def row_families(self) -> dict:
        out: dict = {}
        for i, tag in enumerate(self.row_tags):
            out.setdefault(tag[0], []).append(i)
        return out


def reference_follower(instance: Instance) -> ReferenceFollower:
    """Every column and row of slot ``h`` is built once per tree node, by the
    node's first leaf (``S[h]`` belongs to slot ``h - 1``, ``S[0]`` to slot
    0; a row to the last slot it constrains); later leaves alias its keys."""
    n_slots, tree, bat = instance.n_slots, instance.tree, instance.battery
    probs = np.asarray(tree.probabilities, dtype=float)
    comp = instance.prices.competitor
    nodes = node_map(tree)
    node_prob = np.zeros(nodes.shape)
    for s in range(tree.n_leaves):
        node_prob[nodes[s], np.arange(n_slots)] += probs[s]
    node_prob = node_prob.tolist()
    first_own = (nodes != np.arange(tree.n_leaves)[:, None]).sum(axis=1).tolist()

    builder = LpBuilder()
    index: dict = {}
    tags: list = []
    price_slot: list = []
    price_prob: list = []

    def add(tag, cost0: float, slot: int = -1, prob: float = 0.0) -> None:
        index[tag] = builder.add_var(tag, 0.0, np.inf, obj=cost0)
        tags.append(tag)
        price_slot.append(slot)
        price_prob.append(prob)

    for s in range(tree.n_leaves):
        node, first = nodes[s].tolist(), first_own[s]
        for d, dev in enumerate(instance.devices):
            for h in dev.window.slots:
                if h < first:
                    for f in DEVICE_FAMILIES:
                        index[(f, s, d, h)] = index[(f, node[h], d, h)]
                    continue
                p = node_prob[s][h]
                cdh = p * dev.penalty_at(h)
                add(("x", s, d, h), cdh, slot=h, prob=p)
                add(("xb", s, d, h), cdh + p * comp[h])
                add(("lam", s, d, h), cdh)
                add(("sd", s, d, h), cdh)
        for h in range(n_slots):
            if h < first:
                for f in SLOT_FAMILIES:
                    index[(f, s, h)] = index[(f, node[h], h)]
                continue
            p = node_prob[s][h]
            add(("xs", s, h), 0.0, slot=h, prob=p)
            add(("xbs", s, h), p * comp[h])
            add(("lams", s, h), 0.0)
        for h in range(n_slots + 1):
            if max(h - 1, 0) < first:
                index[("S", s, h)] = index[("S", node[max(h - 1, 0)], h)]
            else:
                add(("S", s, h), 0.0)

    rows: list = []
    active = [[d for d, dev in enumerate(instance.devices)
               if dev.window.first <= h <= dev.window.last]
              for h in range(n_slots)]
    for s, leaf in enumerate(tree.leaves):
        first = first_own[s]
        for d, dev in enumerate(instance.devices):
            cells = [[index[(f, s, d, h)] for f in DEVICE_FAMILIES]
                     for h in dev.window.slots]
            if dev.window.last >= first:
                rows.append((("demand_min", s, d),
                             [(j, 1.0) for cols in cells for j in cols], GE,
                             dev.energy_demand))
            for h, cols in zip(dev.window.slots, cells):
                if h >= first:
                    rows.append((("power_cap", s, d, h), [(j, 1.0) for j in cols],
                                 LE, dev.max_power))
        if first == 0:
            rows.append((("batt_init", s), [(index[("S", s, 0)], 1.0)], EQ,
                         bat.initial))
        for h in range(first, n_slots):
            terms = [(index[("S", s, h + 1)], 1.0),
                     (index[("S", s, h)], -bat.discharge_eff),
                     (index[("lams", s, h)], -bat.charge_eff),
                     (index[("xs", s, h)], -bat.charge_eff),
                     (index[("xbs", s, h)], -bat.charge_eff)]
            terms += [(index[("sd", s, d, h)], 1.0) for d in active[h]]
            rows.append((("batt_balance", s, h), terms, EQ, 0.0))
        for h in range(first + 1, n_slots + 1):
            col = index[("S", s, h)]
            rows.append((("batt_floor", s, h), [(col, 1.0)], GE, bat.min_level))
            rows.append((("batt_ceiling", s, h), [(col, 1.0)], LE, bat.max_level))
        for h in range(first, n_slots):
            terms = [(index[("sd", s, d, h)], 1.0) for d in active[h]]
            terms.append((index[("S", s, h)], -1.0))
            rows.append((("draw_cap", s, h), terms, LE, 0.0))
        for h in range(first, n_slots):
            terms = [(index[("lams", s, h)], 1.0)]
            terms += [(index[("lam", s, d, h)], 1.0) for d in active[h]]
            rows.append((("dg_cap", s, h), terms, LE, float(leaf.dg_bound[h])))
    for _, terms, sense, rhs in rows:
        builder.add_row(terms, sense, rhs)
    lp = builder.build()
    return ReferenceFollower(instance, index, tags, [tag for tag, _, _, _ in rows],
                             lp.obj, np.asarray(price_slot), np.asarray(price_prob),
                             lp)


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
        sold = np.flatnonzero(sysm.price_slot >= 0)     # the leader's sales
        prob, slot = sysm.price_prob[sold], sysm.price_slot[sold]
        obj = sysm.objective(prices)
        obj[sold] -= self.eps * prob * (prices[slot] - self.supply[slot])
        sol = simplex.solve_with_workspace(self.ws, obj, False)
        assert sol.status is Status.OPTIMAL, sol.status
        return float(np.sum(prob * (prices[slot] - self.supply[slot])
                            * sol.x[sold]))


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
