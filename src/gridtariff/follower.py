"""The operator's scheduling problem for fixed leader prices.

For every scenario the operator decides, per device and slot, how much energy
to buy from the leader, buy from the competitor, take from on-site generation
or draw from the battery, plus slot-level purchases routed into storage.  One
LP covers all scenarios, with coupling equalities forcing identical decisions
while scenarios are indistinguishable.  The generated model is tagged so the
multiplier of every row can be recovered mechanically, which is what the
single-level reformulation consumes.

Leader prices enter only the objective.  ``build_follower_system`` assembles
the constraint matrix, senses, right-hand sides and bounds once, into a
read-only skeleton LP; ``build_follower_lp`` prices that skeleton by swapping
in a new objective vector, and ``extract_solution``/``extract_duals`` read a
solve back through index arrays stored alongside it.  The skeleton is the
only copy of the LP kept; the single-level reformulation builds its MILP
from the skeleton's matrix, too.

Variable families (per scenario ``s``): ``x`` leader purchase, ``xb``
competitor purchase, ``lam`` direct generation use, ``sd`` battery draw (all
per device/slot); ``xs``/``xbs``/``lams`` stored purchases and stored
generation per slot; ``S`` battery state over slots ``0..H+1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Instance
from .scenario import nonanticipativity_pairs
from .solver import (GE, LE, EQ, LinearProgram, LpSolution,
                     SolveOptions, Status, get_backend)

DEVICE_FAMILIES = ("x", "xb", "lam", "sd")
SLOT_FAMILIES = ("xs", "xbs", "lams")
INEQ_ROW_FAMILIES = ("demand_min", "power_cap", "batt_floor", "batt_ceiling",
                     "draw_cap", "dg_cap")


class FollowerInfeasible(RuntimeError):
    pass


class FollowerUnbounded(RuntimeError):
    """Impossible under nonnegative prices; signals a model bug."""


@dataclass
class FollowerSystem:
    """The operator LP, built once: the skeleton LP, the objective split,
    and index arrays for reading results.

    The objective coefficient of a column is ``c0 + prob * p[slot]`` with
    ``(slot, prob)`` from ``price_slot``/``price_prob`` (slot -1 for columns
    the leader price does not touch), so prices change only the objective:
    ``skeleton`` holds every row and bound, with ``c0`` as its objective, and
    its arrays are read-only because every priced LP shares them.  Leader
    profit is ``sum prob * (p[slot] - K[slot]) * v`` over the leader-purchase
    columns.
    """

    instance: Instance
    var_tags: list
    var_index: dict
    c0: np.ndarray
    price_slot: np.ndarray      # -1 where the leader price does not enter
    price_prob: np.ndarray
    leader_cols: np.ndarray     # columns sold by the leader (x and xs families)
    leader_prob: np.ndarray
    leader_slot: np.ndarray
    skeleton: LinearProgram
    device_cols: dict           # (family, scenario, device) -> columns over the window
    slot_cols: dict             # slot family or "S" -> (n_scen, slots) columns
    row_sign: np.ndarray        # -1 on <= rows, +1 elsewhere
    row_families: dict          # family -> (row indices, tag tails)

    @property
    def n_vars(self) -> int:
        return len(self.var_tags)

    @property
    def n_rows(self) -> int:
        return self.skeleton.n_rows

    def objective(self, prices: np.ndarray) -> np.ndarray:
        c = self.c0.copy()
        linked = self.price_slot >= 0
        c[linked] += self.price_prob[linked] * prices[self.price_slot[linked]]
        return c


def build_follower_system(instance: Instance) -> FollowerSystem:
    hz = instance.horizon
    n_slots = hz.n_slots
    tree = instance.tree
    probs = np.asarray(tree.probabilities, dtype=float)
    comp = instance.prices.competitor

    tags: list = []
    index: dict = {}
    c0: list[float] = []
    p_slot: list[int] = []
    p_prob: list[float] = []
    leader_cols: list[int] = []
    leader_prob: list[float] = []
    leader_slot: list[int] = []

    def add(tag, cost0: float, slot: int = -1, prob: float = 0.0,
            leader: bool = False) -> int:
        j = len(tags)
        index[tag] = j
        tags.append(tag)
        c0.append(cost0)
        p_slot.append(slot)
        p_prob.append(prob)
        if leader:
            leader_cols.append(j)
            leader_prob.append(prob)
            leader_slot.append(slot)
        return j

    n_scen = tree.n_leaves
    device_cols: dict = {}
    slot_cols = {f: np.empty((n_scen, n_slots), dtype=np.int64)
                 for f in SLOT_FAMILIES}
    slot_cols["S"] = np.empty((n_scen, n_slots + 1), dtype=np.int64)
    for s, leaf in enumerate(tree.leaves):
        p = float(probs[s])
        for d, dev in enumerate(instance.devices):
            first = len(tags)
            for h in dev.window.slots:
                cdh = p * dev.penalty_at(h)
                add(("x", s, d, h), cdh, slot=h, prob=p, leader=True)
                add(("xb", s, d, h), cdh + p * comp[h])
                add(("lam", s, d, h), cdh)
                add(("sd", s, d, h), cdh)
            for k, f in enumerate(DEVICE_FAMILIES):
                device_cols[(f, s, d)] = np.arange(first + k, len(tags),
                                                   len(DEVICE_FAMILIES))
        first = len(tags)
        for h in range(n_slots):
            add(("xs", s, h), 0.0, slot=h, prob=p, leader=True)
            add(("xbs", s, h), p * comp[h])
            add(("lams", s, h), 0.0)
        for k, f in enumerate(SLOT_FAMILIES):
            slot_cols[f][s] = np.arange(first + k, len(tags), len(SLOT_FAMILIES))
        first = len(tags)
        for h in range(n_slots + 1):
            add(("S", s, h), 0.0)
        slot_cols["S"][s] = np.arange(first, len(tags))

    c0 = np.asarray(c0)
    skeleton, row_families = _assemble(tags, c0, _follower_rows(instance, index))
    return FollowerSystem(
        instance=instance,
        var_tags=tags,
        var_index=index,
        c0=c0,
        price_slot=np.asarray(p_slot, dtype=np.int64),
        price_prob=np.asarray(p_prob),
        leader_cols=np.asarray(leader_cols, dtype=np.int64),
        leader_prob=np.asarray(leader_prob),
        leader_slot=np.asarray(leader_slot, dtype=np.int64),
        skeleton=skeleton,
        device_cols=device_cols,
        slot_cols=slot_cols,
        row_sign=np.where(skeleton.sense == LE, -1.0, 1.0),
        row_families=row_families,
    )


def _follower_rows(instance: Instance, index: dict) -> list:
    """The operator LP's rows as ``(tag, [(column, coef)], sense, rhs)``
    tuples over the columns of ``index``, in skeleton order."""
    n_slots, tree, bat = instance.n_slots, instance.tree, instance.battery
    active = [[d for d, dev in enumerate(instance.devices)
               if dev.window.first <= h <= dev.window.last]
              for h in range(n_slots)]      # devices whose window holds slot h
    col_ids = list(index.values())      # column order; shares the int objects
    n_fam = len(DEVICE_FAMILIES)
    rows: list = []
    for s, leaf in enumerate(tree.leaves):
        for d, dev in enumerate(instance.devices):
            # a device's columns are contiguous: x, xb, lam, sd per window slot
            first = index[(DEVICE_FAMILIES[0], s, d, dev.window.first)]
            block = col_ids[first: first + n_fam * len(dev.window)]
            rows.append((("demand_min", s, d), [(j, 1.0) for j in block], GE,
                         dev.energy_demand))
            for k, h in enumerate(dev.window.slots):
                terms = [(j, 1.0) for j in block[n_fam * k: n_fam * (k + 1)]]
                rows.append((("power_cap", s, d, h), terms, LE, dev.max_power))

        rows.append((("batt_init", s), [(index[("S", s, 0)], 1.0)], EQ, bat.initial))
        for h in range(n_slots):
            terms = [(index[("S", s, h + 1)], 1.0),
                     (index[("S", s, h)], -bat.discharge_eff),
                     (index[("lams", s, h)], -bat.charge_eff),
                     (index[("xs", s, h)], -bat.charge_eff),
                     (index[("xbs", s, h)], -bat.charge_eff)]
            terms += [(index[("sd", s, d, h)], 1.0) for d in active[h]]
            rows.append((("batt_balance", s, h), terms, EQ, 0.0))
        for h in range(1, n_slots + 1):
            col = index[("S", s, h)]
            rows.append((("batt_floor", s, h), [(col, 1.0)], GE, bat.min_level))
            rows.append((("batt_ceiling", s, h), [(col, 1.0)], LE, bat.max_level))
        for h in range(n_slots):
            terms = [(index[("sd", s, d, h)], 1.0) for d in active[h]]
            terms.append((index[("S", s, h)], -1.0))
            rows.append((("draw_cap", s, h), terms, LE, 0.0))
        for h in range(n_slots):
            terms = [(index[("lams", s, h)], 1.0)]
            terms += [(index[("lam", s, d, h)], 1.0) for d in active[h]]
            rows.append((("dg_cap", s, h), terms, LE, float(leaf.dg_bound[h])))

    for a, b, h_max in nonanticipativity_pairs(tree):
        for h in range(h_max + 1):
            for d in active[h]:
                for f in DEVICE_FAMILIES:
                    rows.append((("tie", f, d, a, b, h),
                                 [(index[(f, a, d, h)], 1.0),
                                  (index[(f, b, d, h)], -1.0)], EQ, 0.0))
            for f in SLOT_FAMILIES:
                rows.append((("tie", f, -1, a, b, h),
                             [(index[(f, a, h)], 1.0),
                              (index[(f, b, h)], -1.0)], EQ, 0.0))
            rows.append((("tie", "S", -1, a, b, h),
                         [(index[("S", a, h)], 1.0),
                          (index[("S", b, h)], -1.0)], EQ, 0.0))
    return rows


def _assemble(var_tags: list, c0: np.ndarray,
              rows: list) -> tuple[LinearProgram, dict]:
    """The skeleton LP of ``rows`` (columns in ``[0, inf)``, objective
    ``c0``), plus each row family's row indices and tag tails.  The
    skeleton's arrays are made read-only."""
    n, m = len(var_tags), len(rows)
    row_tags = [tag for tag, _, _, _ in rows]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(t) for _, t, _, _ in rows], out=indptr[1:])
    terms = list(itertools.chain.from_iterable(t for _, t, _, _ in rows))
    cols = np.fromiter((j for j, _ in terms), np.int64, len(terms))
    vals = np.fromiter((v for _, v in terms), float, len(terms))
    mat = sp.csr_matrix((vals, cols, indptr), shape=(m, n))
    mat.sum_duplicates()            # canonical form, as LpBuilder builds it
    mat.eliminate_zeros()
    skeleton = LinearProgram(
        n_vars=n, obj=c0, lower=np.zeros(n), upper=np.full(n, np.inf),
        a_rows=mat, sense=np.array([sn for _, _, sn, _ in rows], dtype=object),
        rhs=np.array([b for _, _, _, b in rows], dtype=float),
        maximize=False, var_tags=var_tags, row_tags=row_tags)
    skeleton.validate()
    for arr in (c0, skeleton.lower, skeleton.upper, skeleton.sense,
                skeleton.rhs, mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    families: dict = {}
    for i, tag in enumerate(row_tags):
        idx, tails = families.setdefault(tag[0], ([], []))
        idx.append(i)
        tails.append(tag[1:])
    row_families = {fam: (np.asarray(idx, dtype=np.int64), tails)
                    for fam, (idx, tails) in families.items()}
    return skeleton, row_families


def build_follower_lp(instance: Instance, prices: np.ndarray,
                      system: FollowerSystem | None = None) -> LinearProgram:
    """The scheduling LP at fixed leader prices (minimization): the system's
    skeleton with the priced objective swapped in.  The returned LP shares
    the skeleton's read-only matrix, senses, right-hand sides and bounds;
    only its objective array is its own."""
    prices = np.asarray(prices, dtype=float)
    if len(prices) != instance.n_slots:
        raise ValueError(f"price vector has {len(prices)} entries,"
                         f" expected {instance.n_slots}")
    system = system or build_follower_system(instance)
    return system.skeleton.with_objective(system.objective(prices))


# -- solutions ---------------------------------------------------------------


@dataclass
class FollowerSolution:
    """Per-scenario schedule plus the expected generalized cost."""

    n_scenarios: int
    n_slots: int
    device_values: dict        # (family, scenario, device) -> array over window
    stored: dict               # family -> (n_scen, n_slots) array
    battery_state: np.ndarray  # (n_scen, n_slots + 1)
    objective_value: float

    def device_consumption(self, s: int, d: int) -> np.ndarray:
        return sum(self.device_values[(f, s, d)] for f in DEVICE_FAMILIES)

    def family_by_slot(self, family: str, s: int, windows: list) -> np.ndarray:
        """Aggregate a device family (x/xb/lam/sd) into a per-slot vector."""
        out = np.zeros(self.n_slots)
        for (f, ss, d), vals in self.device_values.items():
            if f == family and ss == s:
                first = windows[d].first
                out[first:first + len(vals)] += vals
        return out

    def competitor_energy_total(self) -> float:
        total = float(self.stored["xbs"].sum())
        total += sum(float(v.sum()) for key, v in self.device_values.items()
                     if key[0] == "xb")
        return total


def extract_solution(system: FollowerSystem, x: np.ndarray,
                     objective: float) -> FollowerSolution:
    x = np.asarray(x)
    device_values = {key: x[cols] for key, cols in system.device_cols.items()}
    stored = {f: x[system.slot_cols[f]] for f in SLOT_FAMILIES}
    inst = system.instance
    return FollowerSolution(inst.tree.n_leaves, inst.n_slots, device_values,
                            stored, x[system.slot_cols["S"]], float(objective))


@dataclass
class FollowerDuals:
    """Row multipliers in nonnegative convention for inequality families."""

    by_family: dict            # family -> dict(tag tail -> value)
    raw: np.ndarray            # solver multipliers, one per row
    row_tags: list

    def value(self, tag) -> float:
        return self.by_family[tag[0]][tag[1:]]


def extract_duals(system: FollowerSystem, duals: np.ndarray) -> FollowerDuals:
    duals = np.asarray(duals)
    return FollowerDuals(duals_by_family(system, duals * system.row_sign),
                         duals, system.skeleton.row_tags)


def duals_by_family(system: FollowerSystem, values: np.ndarray) -> dict:
    """``FollowerDuals.by_family`` of row multipliers already in the
    nonnegative convention."""
    return {fam: dict(zip(tails, values[idx].tolist()))
            for fam, (idx, tails) in system.row_families.items()}


def solve_follower(lp: LinearProgram, backend: str | None = None,
                   opts: SolveOptions | None = None,
                   system: FollowerSystem | None = None
                   ) -> tuple[LpSolution, FollowerSolution | None, FollowerDuals | None]:
    """Solve the scheduling LP; returns the raw solution plus typed views.

    Typed views require the tagged ``system`` the LP was built from.
    """
    sol = get_backend(backend).solve_lp(lp, opts)
    if sol.status is Status.INFEASIBLE:
        raise FollowerInfeasible("operator problem infeasible; run validate()")
    if sol.status is Status.UNBOUNDED:
        raise FollowerUnbounded("operator LP unbounded: nonpositive effective"
                                " prices or corrupted model")
    if system is None:
        return sol, None, None
    return sol, extract_solution(system, sol.x, sol.objective), \
        extract_duals(system, sol.duals)


# -- cost accounting ----------------------------------------------------------


@dataclass
class CostBreakdown:
    billing_cost: float
    inconvenience_cost: float
    generalized_cost: float
    per_scenario: list = field(default_factory=list)   # (billing, inconvenience)


def evaluate_schedule(instance: Instance, prices: np.ndarray,
                      solution: FollowerSolution) -> CostBreakdown:
    """Expected billing and inconvenience of a schedule at given prices."""
    prices = np.asarray(prices, dtype=float)
    comp = instance.prices.competitor
    probs = instance.tree.probabilities
    per_scenario = []
    billing = inconvenience = 0.0
    for s in range(solution.n_scenarios):
        bc = float(prices @ solution.stored["xs"][s]
                   + comp @ solution.stored["xbs"][s])
        ic = 0.0
        for d, dev in enumerate(instance.devices):
            win = np.fromiter(dev.window.slots, dtype=np.int64)
            x = solution.device_values[("x", s, d)]
            xb = solution.device_values[("xb", s, d)]
            bc += float(prices[win] @ x + comp[win] @ xb)
            cons = solution.device_consumption(s, d)
            ic += float(np.asarray(dev.inconvenience) @ cons)
        per_scenario.append((bc, ic))
        billing += probs[s] * bc
        inconvenience += probs[s] * ic
    return CostBreakdown(billing, inconvenience, billing + inconvenience,
                         per_scenario)


def leader_profit(instance: Instance, prices: np.ndarray,
                  solution: FollowerSolution) -> float:
    """Expected supplier profit: revenue minus spot procurement cost."""
    prices = np.asarray(prices, dtype=float)
    cost = instance.prices.supply_cost
    probs = instance.tree.probabilities
    total = 0.0
    for s in range(solution.n_scenarios):
        margin = prices - cost
        total += probs[s] * float(margin @ solution.stored["xs"][s])
        for d, dev in enumerate(instance.devices):
            win = np.fromiter(dev.window.slots, dtype=np.int64)
            total += probs[s] * float(margin[win]
                                      @ solution.device_values[("x", s, d)])
    return total


def complementarity_products(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """|slack * multiplier| per inequality row and |value * reduced cost| per var."""
    ineq = lp.sense != EQ
    slack = np.where(lp.sense == LE, -1.0, 1.0) * (lp.a_rows @ sol.x - lp.rhs)
    return np.abs(np.concatenate([(slack * sol.duals)[ineq],
                                  (sol.x - lp.lower) * sol.reduced_costs]))
