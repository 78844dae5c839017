"""Shared fixtures: hand-built tiny instances and independent oracles.

``reference_follower`` builds the operator LP the slow, explicit way: one
tuple key per decision and leaf, one labelled row at a time, through
``LpBuilder``.  The array build in ``gridtariff.follower`` must reproduce it
bit for bit, and tests that need to know what a column or row is read its
labels.  The tests also write their small hand-made models with
``LpBuilder``, and ``verify_milp_solution`` checks a MILP point's rows,
bounds and integrality.

``indistinguishability_time`` and ``all_nonanticipativity_pairs`` list the
decisions two leaves must share pair by pair, the quadratic way that
``scenario.node_map`` avoids; ``complementarity_products`` reads every
slack-multiplier product of a solved LP row by row, and ``audit_loop`` audits
the big-M caps one pair at a time.

The grid oracle sweeps leader prices over a lattice and, per price point,
computes the operator's optimal response with leader-favorable tie-breaking;
the greedy variant handles the no-battery / no-generation / one-scenario
case in closed form, the LP variant covers everything else through a
composite objective (cost minus a vanishing leader-profit bonus).

``read_lp`` parses the LP-format files that ``write_lp`` exports, so models
round-trip through a file.

``reference_linearize`` and ``reference_shrink_lp`` build the single-level
MILP and the multiplier-shrink LP from scipy blocks (``sp.bmat``, a comp row
for every pair, then row selection); the array assembly in
``gridtariff.reformulation`` must reproduce them byte for byte
(``assert_same_lp``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np
import pytest
import scipy.sparse as sp

from gridtariff.follower import (DEVICE_FAMILIES, SLOT_FAMILIES,
                                 build_follower_lp, build_follower_system)
from gridtariff.model import (Battery, Device, Horizon, Instance, PriceData,
                              TimeWindow)
from gridtariff.reformulation import (DOMINATED_PURCHASE, SWITCHED, AuditFlag,
                                      AuditReport, _split_point)
from gridtariff.scenario import (BaseScenario, ScenarioTree, flat_tree,
                                 node_map, single_path_tree)
from gridtariff.solver import (EQ, GE, LE, LinearProgram, LpSolution,
                               MilpModel, SolverError, Status,
                               check_lp_solution)
from gridtariff.solver.backends import TOLERANCES, HighsModel

# the instance shape of perfbench's desk workload
DESK_SHAPE = dict(n_bases=1, n_slots=4, n_devices=2, slot_minutes=360,
                  total_demand=8, duration_range=(1, 2), battery_hours=1.5,
                  dg_level=0.8)


# -- row-by-row models ---------------------------------------------------------


class LpBuilder:
    """Incremental triplet-based construction of a LinearProgram; variables
    are added under unique names."""

    def __init__(self, maximize: bool = False) -> None:
        self.maximize = maximize
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._rows_i: list[int] = []
        self._rows_j: list[int] = []
        self._rows_v: list[float] = []
        self._sense: list[str] = []
        self._rhs: list[float] = []
        self._names: set[Hashable] = set()

    @property
    def n_vars(self) -> int:
        return len(self._obj)

    @property
    def n_rows(self) -> int:
        return len(self._rhs)

    def add_var(self, name: Hashable, lb: float = 0.0, ub: float = np.inf,
                obj: float = 0.0) -> int:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        self._names.add(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        return len(self._obj) - 1

    def set_obj(self, idx: int, coef: float) -> None:
        self._obj[idx] = float(coef)

    def add_row(self, terms: Sequence[tuple[int, float]], sense: str,
                rhs: float) -> int:
        if sense not in (LE, EQ, GE):
            raise SolverError(f"bad sense {sense!r}")
        row = len(self._rhs)
        for j, v in terms:
            if v != 0.0:
                self._rows_i.append(row)
                self._rows_j.append(j)
                self._rows_v.append(float(v))
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        return row

    def build(self) -> LinearProgram:
        n, m = self.n_vars, self.n_rows
        mat = sp.coo_matrix(
            (self._rows_v, (self._rows_i, self._rows_j)), shape=(m, n)
        ).tocsr()
        mat.sum_duplicates()
        lp = LinearProgram(
            n_vars=n,
            obj=np.asarray(self._obj, dtype=float),
            lower=np.asarray(self._lb, dtype=float),
            upper=np.asarray(self._ub, dtype=float),
            a_rows=mat,
            sense=np.asarray(self._sense, dtype=object),
            rhs=np.asarray(self._rhs, dtype=float),
            maximize=self.maximize,
        )
        lp.validate()
        return lp


def verify_milp_solution(model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list[str]:
    issues = check_lp_solution(model.lp, x, tol)
    if len(model.binary_idx):
        frac = np.abs(x[model.binary_idx] - np.round(x[model.binary_idx]))
        if frac.max() > tol:
            issues.append(f"binary integrality violated by {frac.max():.3e}")
    return issues


# -- tiny instances -------------------------------------------------------------


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


def indistinguishability_time(a: np.ndarray, b: np.ndarray) -> int:
    """Latest slot up to which the two generation paths agree everywhere.

    Returns -1 when they already differ at slot 0 and ``H`` (the last slot)
    when the paths are identical over the whole horizon.
    """
    diff = np.flatnonzero(a != b)
    if diff.size == 0:
        return len(a) - 1
    return int(diff[0]) - 1


def all_nonanticipativity_pairs(tree: ScenarioTree) -> list[tuple[int, int, int]]:
    """Every pair of leaves ``(leaf, leaf', h_max)`` that agree on slots
    ``0..h_max``."""
    out = []
    for i in range(tree.n_leaves):
        for j in range(i + 1, tree.n_leaves):
            h = indistinguishability_time(tree.dg[i], tree.dg[j])
            if h >= 0:
                out.append((i, j, h))
    return out


def reduced_costs(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """``obj - A^T duals`` of a solved LP: each column's reduced cost."""
    return lp.obj - lp.a_rows.T @ sol.duals


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


def complementarity_products(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """|slack * multiplier| per inequality row, then per column a positive
    reduced cost times the distance to the lower bound and a negative one
    times the distance to the upper bound."""
    ineq = lp.sense != EQ
    slack = np.where(lp.sense == LE, -1.0, 1.0) * (lp.a_rows @ sol.x - lp.rhs)
    rc = reduced_costs(lp, sol)
    at_lower = np.where(rc > 0, rc * (sol.x - lp.lower), 0.0)
    at_upper = np.where(rc < 0, rc * (lp.upper - sol.x), 0.0)
    return np.abs(np.concatenate([(slack * sol.duals)[ineq], at_lower, at_upper]))


def dual_objective(lp: LinearProgram, sol: LpSolution) -> float:
    """The dual objective of a solved LP: row terms ``duals @ rhs`` plus the
    bound terms ``max(rc, 0) * lower + min(rc, 0) * upper``."""
    rc = reduced_costs(lp, sol)
    bounds = (np.where(rc > 0, rc * lp.lower, 0.0)
              + np.where(rc < 0, rc * lp.upper, 0.0))
    return float(sol.duals @ lp.rhs + bounds.sum())


def rows_only(lp: LinearProgram) -> LinearProgram:
    """The LP without column upper bounds.  Its upper array is read-only, so
    the HiGHS backend re-prices the LPs that share it."""
    free = np.full(lp.n_vars, np.inf)
    free.setflags(write=False)
    return lp.with_bounds(lp.lower, free)


def audit_loop(pair_values: tuple[np.ndarray, np.ndarray], primal_m: np.ndarray,
               dual_m: float, margin: float = 1e-6) -> AuditReport:
    """The big-M audit pair by pair, primal side before multiplier side, at
    primal caps ``primal_m`` and multiplier M ``dual_m``: the reference for
    ``reformulation.audit_big_m``."""
    pv, dv = pair_values
    flags: list[AuditFlag] = []
    for k in range(len(pv)):
        if primal_m[k] > 0 and pv[k] >= (1.0 - margin) * primal_m[k]:
            flags.append(AuditFlag(k, "primal", float(pv[k]),
                                   float(primal_m[k]), True))
        if dv[k] >= (1.0 - margin) * dual_m:
            flags.append(AuditFlag(k, "dual", float(dv[k]), float(dual_m), False))
    return AuditReport(flags, float(pv.max(initial=0.0)), float(dv.max(initial=0.0)))


# -- reference operator LP ------------------------------------------------------


def energy_balance_residual(schedule) -> float:
    """Largest gap, per scenario and slot, between the energy a schedule
    sources (leader, competitor, generation, battery draw) and the energy it
    uses (consumption plus battery charge), relative to the largest use."""
    sourced = (schedule.leader + schedule.competitor + schedule.generation
               + schedule.battery_draw)
    used = schedule.consumption.sum(axis=1) + schedule.battery_charge
    return float(np.abs(sourced - used).max() / max(1.0, np.abs(used).max()))


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
    ``lp`` is built row by row with ``LpBuilder``, with objective ``c0`` and
    each column's upper bound read from its label: a device's power cap
    (``x``, ``xb``), also the leaf's generation bound (``lam``) or the
    battery's top level (``sd``); the most the battery can take in one slot
    (``xs``, ``xbs``), also the generation bound (``lams``); the top state
    (``S``).
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
    dg = tree.dg
    charge_cap = max(0.0, (2.0 * bat.max_level - bat.discharge_eff * bat.min_level)
                     / bat.charge_eff)
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
        fam = tag[0]
        if fam in ("x", "xb", "lam", "sd"):
            power = instance.devices[tag[2]].max_power
            upper = (min(power, dg[tag[1], tag[3]]) if fam == "lam"
                     else min(power, bat.max_level) if fam == "sd" else power)
        elif fam in ("xs", "xbs", "lams"):
            upper = min(charge_cap, dg[tag[1], tag[2]]) if fam == "lams" else charge_cap
        else:
            upper = max(bat.max_level, bat.initial)
        index[tag] = builder.add_var(tag, 0.0, upper, obj=cost0)
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
    for s in range(tree.n_leaves):
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
            rows.append((("dg_cap", s, h), terms, LE, float(dg[s, h])))
    for _, terms, sense, rhs in rows:
        builder.add_row(terms, sense, rhs)
    lp = builder.build()
    return ReferenceFollower(instance, index, tags, [tag for tag, _, _, _ in rows],
                             lp.obj, np.asarray(price_slot), np.asarray(price_prob),
                             lp)


# -- the single-level MILP and the shrink LP, assembled from scipy blocks ------


def reference_linearize(mpcc, dual_m: float,
                        pinned_prices: dict | None = None) -> MilpModel:
    """``reformulation.linearize`` the block way: a comp row for every pair in
    one ``sp.bmat``, then the kept rows selected.  The array assembly must
    reproduce it byte for byte."""
    system = mpcc.system
    skel = system.skeleton
    inst = system.instance
    n_slots, n, m = inst.n_slots, system.n_vars, system.n_rows
    comp = inst.prices.competitor
    supply = inst.prices.supply_cost
    row_sign = system.row_sign
    ineq = mpcc.ineq_rows
    n_ineq, n_pairs = len(ineq), mpcc.n_pairs
    switched = mpcc.switched
    n_sw = len(switched)

    p_lo, p_up = np.zeros(n_slots), np.array(comp, dtype=float)
    for h in range(n_slots):
        if pinned_prices and h in pinned_prices:
            v = float(pinned_prices[h])
            p_lo[h] = p_up[h] = min(max(v, 0.0), float(comp[h]))

    linked = np.flatnonzero(system.price_slot >= 0)
    obj_primal = -system.c0
    obj_primal[linked] -= system.price_prob[linked] * supply[system.price_slot[linked]]
    col_upper = system.skeleton.upper.copy()
    col_upper[mpcc.rule[n_ineq:] == DOMINATED_PURCHASE] = 0.0
    dual_upper = np.full(m, np.inf)
    fixed = np.flatnonzero(mpcc.rule[:n_ineq] != SWITCHED)
    dual_upper[ineq[fixed]] = dual_m * (1.0 - mpcc.implied_delta[fixed])

    a = skel.a_rows
    signed = sp.csr_matrix((np.repeat(row_sign, np.diff(a.indptr)) * a.data,
                            a.indices, a.indptr), shape=a.shape)
    signed_t = signed.T.tocsr()
    price = sp.csr_matrix((system.price_prob[linked],
                           (linked, system.price_slot[linked])), shape=(n, n_slots))
    pick = sp.csr_matrix((np.ones(n_ineq), ineq, np.arange(n_ineq + 1)),
                         shape=(n_ineq, m))
    cols = (switched, np.arange(n_sw))
    big_p = sp.csr_matrix((-mpcc.primal_bound[switched], cols), shape=(n_pairs, n_sw))
    big_d = sp.csr_matrix((np.full(n_sw, dual_m), cols), shape=(n_pairs, n_sw))
    mat = sp.bmat([
        [None, a, None, None],
        [-price, None, signed_t, None],
        [None, signed[ineq], None, big_p[:n_ineq]],
        [None, sp.identity(n), None, big_p[n_ineq:]],
        [None, None, pick, big_d[:n_ineq]],
        [price, None, -signed_t, big_d[n_ineq:]],
    ], format="csr")
    signed_rhs = row_sign * skel.rhs
    comp_rhs = np.concatenate([signed_rhs[ineq], np.zeros(n),
                               np.full(n_ineq, dual_m), dual_m - system.c0])
    is_switched = mpcc.rule == SWITCHED
    has = np.column_stack([is_switched, is_switched])
    has[n_ineq:, 1] = True
    comp_rows = np.column_stack([np.arange(n_pairs), n_pairs + np.arange(n_pairs)])[has]
    mat = mat[np.concatenate([np.arange(m + n), m + n + comp_rows])]
    mat.eliminate_zeros()
    mat.sort_indices()

    lp = LinearProgram(
        n_vars=n_slots + n + m + n_sw,
        obj=np.concatenate([np.zeros(n_slots), obj_primal, signed_rhs, np.zeros(n_sw)]),
        lower=np.concatenate([p_lo, np.zeros(n), np.where(skel.sense == EQ, -np.inf, 0.0),
                              np.zeros(n_sw)]),
        upper=np.concatenate([p_up, col_upper, dual_upper, np.ones(n_sw)]),
        a_rows=mat,
        sense=np.concatenate([skel.sense, np.full(n + len(comp_rows), LE, dtype=object)]),
        rhs=np.concatenate([skel.rhs, system.c0, comp_rhs[comp_rows]]),
        maximize=True)
    return MilpModel(lp, np.arange(n_slots + n + m, lp.n_vars, dtype=np.int64))


def reference_shrink_lp(model: MilpModel, mpcc, x: np.ndarray,
                        fstar: float) -> LinearProgram:
    """``reformulation._shrink_lp`` the block way: one ``sp.bmat`` over the
    fixed-switch rows, the hold row and the split rows."""
    lp = model.lp
    fixed = model.fixed_at(x)
    n = lp.n_vars
    eq = mpcc.system.skeleton.sense == EQ
    dual_cols = _split_point(mpcc, np.arange(n))[2]
    n_aux = int(eq.sum())
    shrink = np.zeros(n)
    shrink[dual_cols[~eq]] = 1.0
    one_each = np.arange(2 * n_aux + 1)
    split_d = sp.csr_matrix((np.tile([-1.0, 1.0], n_aux),
                             np.repeat(dual_cols[eq], 2), one_each),
                            shape=(2 * n_aux, n))
    split_aux = sp.csr_matrix((np.ones(2 * n_aux), np.repeat(np.arange(n_aux), 2),
                               one_each), shape=(2 * n_aux, n_aux))
    return LinearProgram(
        n_vars=n + n_aux,
        obj=np.concatenate([shrink, np.ones(n_aux)]),
        lower=np.concatenate([fixed.lower, np.zeros(n_aux)]),
        upper=np.concatenate([fixed.upper, np.full(n_aux, np.inf)]),
        a_rows=sp.bmat([[fixed.a_rows, None],
                        [sp.csr_matrix(lp.obj), None],
                        [split_d, split_aux]], format="csr"),
        sense=np.concatenate([fixed.sense, [GE if lp.maximize else LE],
                              np.full(2 * n_aux, GE, dtype=object)]),
        rhs=np.concatenate([fixed.rhs, [fstar], np.zeros(2 * n_aux)]),
        maximize=False)


def assert_same_lp(lp: LinearProgram, ref: LinearProgram) -> None:
    """Every array of ``lp`` equals ``ref``'s byte for byte, dtype included,
    and ``lp``'s matrix is canonical CSR: sorted indices, no explicit zeros."""
    a, b = lp.a_rows, ref.a_rows
    assert (lp.n_vars, a.shape, lp.maximize) == (ref.n_vars, b.shape, ref.maximize)
    for got, want in ((lp.obj, ref.obj), (lp.lower, ref.lower),
                      (lp.upper, ref.upper), (lp.rhs, ref.rhs),
                      (a.data, b.data), (a.indices, b.indices),
                      (a.indptr, b.indptr)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert lp.sense.dtype == ref.sense.dtype
    assert lp.sense.tolist() == ref.sense.tolist()
    assert np.all(a.data != 0)
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    assert np.all((np.diff(a.indices) > 0) | (np.diff(rows) > 0))


# -- analytic follower response (no battery, no generation, one scenario) -----


def greedy_optimistic_profit(instance: Instance, prices: np.ndarray) -> float:
    """Exact optimistic leader profit for purchase-only instances.

    Each device independently fills its cheapest window slots by effective
    unit cost (price plus delay penalty), breaking cost ties toward the slots
    most profitable for the leader.
    """
    assert instance.battery.max_level == 0.0
    assert instance.tree.n_leaves == 1
    assert not np.any(instance.tree.dg[0] > 0)
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
    """Reusable follower solver: min cost - eps * leader profit at fixed
    prices, re-priced on one HiGHS model with 1e-9 feasibility tolerances:
    at HiGHS' default 1e-7 the eps tie-break can go unseen."""

    def __init__(self, instance: Instance, eps: float = 1e-7):
        self.instance = instance
        self.system = build_follower_system(instance)
        self.eps = eps
        lp = build_follower_lp(instance, np.zeros(instance.n_slots), self.system)
        self.model = HighsModel(lp, presolve=False, options=TOLERANCES)
        self.supply = instance.prices.supply_cost

    def profit(self, prices: np.ndarray) -> float:
        sysm = self.system
        sold = np.flatnonzero(sysm.price_slot >= 0)     # the leader's sales
        prob, slot = sysm.price_prob[sold], sysm.price_slot[sold]
        obj = sysm.objective(prices)
        obj[sold] -= self.eps * prob * (prices[slot] - self.supply[slot])
        self.model.reprice(obj, maximize=False)
        assert self.model.run() is Status.OPTIMAL
        x, _ = self.model.solution()
        return float(np.sum(prob * (prices[slot] - self.supply[slot]) * x[sold]))


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
                      and not np.any(instance.tree.dg[0] > 0))
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


_TOKEN_RE = re.compile(r"([+-])|([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)|([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(text: str, get_var) -> list[tuple[int, float]]:
    terms: list[tuple[int, float]] = []
    sign, coef = 1.0, None
    for match in _TOKEN_RE.finditer(text):
        op, num, name = match.groups()
        if op:
            sign = -1.0 if op == "-" else 1.0
            coef = None
        elif num:
            coef = float(num)
        elif name:
            value = sign * (1.0 if coef is None else coef)
            terms.append((get_var(name), value))
            sign, coef = 1.0, None
    return terms


def read_lp(path: str | Path) -> MilpModel:
    """Parse a file that ``gridtariff.solver.write_lp`` (or a compatible
    writer) produced, under any variable and row names."""
    lines = [ln.split("\\")[0].strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    builder = LpBuilder()
    var_of: dict[str, int] = {}

    def get_var(name: str) -> int:
        if name not in var_of:
            var_of[name] = builder.add_var(name)
        return var_of[name]

    section = None
    maximize = False
    obj_terms: list[tuple[int, float]] = []
    rows: list[tuple[list, str, float]] = []
    binaries: list[str] = []
    bound_lines: list[str] = []
    for ln in lines:
        low = ln.lower()
        if low in ("maximize", "minimize", "max", "min"):
            maximize = low.startswith("max")
            section = "obj"
            continue
        if low in ("subject to", "st", "s.t.", "such that"):
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("binaries", "binary", "bin"):
            section = "bin"
            continue
        if low in ("general", "generals", "end"):
            section = "end"
            continue
        if section == "obj":
            body = ln.split(":", 1)[-1]
            obj_terms.extend(_parse_terms(body, get_var))
        elif section == "rows":
            body = ln.split(":", 1)[-1]            # drop the row name
            m = re.search(r"(<=|>=|=)", body)
            if not m:
                raise SolverError(f"constraint without relation: {ln!r}")
            rel = m.group(1)
            lhs, rhs = body.split(rel, 1)
            sense = {"<=": LE, ">=": GE, "=": EQ}[rel]
            rows.append((_parse_terms(lhs, get_var), sense, float(rhs)))
        elif section == "bounds":
            bound_lines.append(ln)
        elif section == "bin":
            binaries.extend(ln.split())

    for terms, sense, rhs in rows:
        builder.add_row(terms, sense, rhs)
    for idx, coef in obj_terms:
        builder.set_obj(idx, coef)
    lp = builder.build()
    lp.maximize = maximize

    for ln in bound_lines:
        if ln.endswith("free"):
            j = var_of[ln.split()[0]]
            lp.lower[j], lp.upper[j] = -np.inf, np.inf
            continue
        parts = re.split(r"<=|>=", ln)
        if "<=" in ln and len(parts) == 3:
            lo, name, up = parts
            j = var_of[name.strip()]
            lp.lower[j] = -np.inf if "inf" in lo else float(lo)
            lp.upper[j] = np.inf if "inf" in up else float(up)
        elif ">=" in ln and len(parts) == 2:
            name, lo = parts
            lp.lower[var_of[name.strip()]] = float(lo)
        elif "<=" in ln and len(parts) == 2:
            name, up = parts
            lp.upper[var_of[name.strip()]] = float(up)

    bin_idx = np.asarray(sorted(var_of[b] for b in binaries), dtype=np.int64)
    for j in bin_idx:
        lp.lower[j] = max(lp.lower[j], 0.0)
        lp.upper[j] = min(lp.upper[j], 1.0)
    return MilpModel(lp, bin_idx)


@pytest.fixture
def t1():
    return make_t1()
