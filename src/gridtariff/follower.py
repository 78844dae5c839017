"""The operator's scheduling problem for fixed leader prices.

For every scenario the operator decides, per device and slot, how much energy
to buy from the leader, buy from the competitor, take from on-site generation
or draw from the battery, plus slot-level purchases routed into storage.  One
LP covers all scenarios.  Scenarios whose generation paths agree on slots
``0..h`` are at one scenario-tree node in slot ``h`` (``node_map``) and must
decide the same there, so every column and row of slot ``h`` is built once
per node, by the node's first leaf; the battery state ``S[h + 1]`` belongs to
the slot-``h`` decisions that set it.  The generated model is tagged so the
multiplier of every row can be recovered mechanically, which is what the
single-level reformulation consumes.

Leader prices enter only the objective.  ``build_follower_system`` assembles
the constraint matrix, senses, right-hand sides and bounds once, into a
read-only skeleton LP; ``build_follower_lp`` prices that skeleton by swapping
in a new objective vector, and ``extract_solution`` reads a solve back
through index arrays stored alongside it.  The skeleton is the
only copy of the LP kept; the single-level reformulation builds its MILP
from the skeleton's matrix, too.

Variable families (per scenario ``s``): ``x`` leader purchase, ``xb``
competitor purchase, ``lam`` direct generation use, ``sd`` battery draw (all
per device/slot); ``xs``/``xbs``/``lams`` stored purchases and stored
generation per slot; ``S`` battery state over slots ``0..H+1``.  A schedule
holds each device family as one ``(n_scenarios, n_devices, n_slots)`` array,
zero outside each device's window, and each slot family as one
``(n_scenarios, n_slots)`` array; the cost accounting is array arithmetic
over them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Instance
from .scenario import node_map
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
    the leader price does not touch), where ``prob`` is the summed
    probability of the leaves at the column's tree node.  Every leaf's key
    is in ``var_index``; keys of leaves at one node map to one column, which
    carries the first leaf's tag.  Prices change only the objective:
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
    device_index: dict          # device family -> (n_scen, n_dev, n_slots) columns,
                                # -1 outside the device's window
    slot_cols: dict             # slot family or "S" -> (n_scen, slots) columns
                                # (both per leaf; leaves at one node share columns)
    window_pos: np.ndarray      # flat (scenario, device, slot) positions in windows
    window_cols: np.ndarray     # (device family, window position) -> column
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
    nodes = node_map(tree)
    node_prob = np.zeros(nodes.shape)       # [node, slot]: sum over its leaves
    for s in range(tree.n_leaves):
        node_prob[nodes[s], np.arange(n_slots)] += probs[s]
    node_prob = node_prob.tolist()
    # a leaf builds the nodes of a suffix of slots: from the first slot where
    # its path differs from every earlier leaf's path
    first_own = (nodes != np.arange(tree.n_leaves)[:, None]).sum(axis=1).tolist()

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
    columns = np.full((len(DEVICE_FAMILIES), n_scen, len(instance.devices),
                       n_slots), -1, dtype=np.int64)   # (family, s, d, slot)
    slot_cols = {f: np.empty((n_scen, n_slots), dtype=np.int64)
                 for f in SLOT_FAMILIES}
    slot_cols["S"] = np.empty((n_scen, n_slots + 1), dtype=np.int64)
    for s in range(n_scen):
        node, first = nodes[s].tolist(), first_own[s]
        for d, dev in enumerate(instance.devices):
            block = []                      # x, xb, lam, sd columns per window slot
            for h in dev.window.slots:
                if h < first:
                    cols = [index[(f, node[h], d, h)] for f in DEVICE_FAMILIES]
                    for f, j in zip(DEVICE_FAMILIES, cols):
                        index[(f, s, d, h)] = j
                else:
                    p = node_prob[s][h]
                    cdh = p * dev.penalty_at(h)
                    cols = [add(("x", s, d, h), cdh, slot=h, prob=p, leader=True),
                            add(("xb", s, d, h), cdh + p * comp[h]),
                            add(("lam", s, d, h), cdh),
                            add(("sd", s, d, h), cdh)]
                block += cols
            columns[:, s, d, dev.window.first: dev.window.last + 1] = \
                np.reshape(block, (-1, len(DEVICE_FAMILIES))).T
        for h in range(n_slots):
            if h < first:
                for f in SLOT_FAMILIES:
                    index[(f, s, h)] = index[(f, node[h], h)]
                continue
            p = node_prob[s][h]
            add(("xs", s, h), 0.0, slot=h, prob=p, leader=True)
            add(("xbs", s, h), p * comp[h])
            add(("lams", s, h), 0.0)
        for h in range(n_slots + 1):
            slot = max(h - 1, 0)    # S[h] is set in slot h - 1; S[0] joins slot 0
            if slot < first:
                index[("S", s, h)] = index[("S", node[slot], h)]
            else:
                add(("S", s, h), 0.0)
        for f, cols in slot_cols.items():
            cols[s] = [index[(f, s, h)] for h in range(cols.shape[1])]

    c0 = np.asarray(c0)
    device_index = dict(zip(DEVICE_FAMILIES, columns))
    skeleton, row_families = _assemble(
        tags, c0, _follower_rows(instance, index, device_index, first_own))
    window_pos = np.flatnonzero(columns[0] >= 0)
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
        device_index=device_index,
        slot_cols=slot_cols,
        window_pos=window_pos,
        window_cols=columns.reshape(len(DEVICE_FAMILIES), -1)[:, window_pos],
        row_sign=np.where(skeleton.sense == LE, -1.0, 1.0),
        row_families=row_families,
    )


def _follower_rows(instance: Instance, index: dict, device_index: dict,
                   first_own: list[int]) -> list:
    """The operator LP's rows as ``(tag, [(column, coef)], sense, rhs)``
    tuples over the columns of ``index`` (``device_index`` holds the same
    device columns as arrays), in skeleton order.  A row belongs to the tree
    node of the last slot it constrains and is built once, by that node's
    first leaf: leaf ``s`` builds the rows of slots ``first_own[s]`` on."""
    n_slots, tree, bat = instance.n_slots, instance.tree, instance.battery
    active = [[d for d, dev in enumerate(instance.devices)
               if dev.window.first <= h <= dev.window.last]
              for h in range(n_slots)]      # devices whose window holds slot h
    rows: list = []
    for s, leaf in enumerate(tree.leaves):
        first = first_own[s]
        for d, dev in enumerate(instance.devices):
            win = slice(dev.window.first, dev.window.last + 1)
            block = list(zip(*(device_index[f][s, d, win].tolist()
                               for f in DEVICE_FAMILIES)))     # per window slot
            if dev.window.last >= first:
                rows.append((("demand_min", s, d),
                             [(j, 1.0) for cols in block for j in cols], GE,
                             dev.energy_demand))
            for h, cols in zip(dev.window.slots, block):
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

    device: dict               # family -> (n_scen, n_dev, n_slots), 0 off-window
    stored: dict               # family -> (n_scen, n_slots) array
    battery_state: np.ndarray  # (n_scen, n_slots + 1)
    objective_value: float

    @property
    def n_scenarios(self) -> int:
        return self.battery_state.shape[0]

    @property
    def n_slots(self) -> int:
        return self.battery_state.shape[1] - 1


def extract_solution(system: FollowerSystem, x: np.ndarray,
                     objective: float) -> FollowerSolution:
    x = np.asarray(x)
    dense = np.zeros((len(DEVICE_FAMILIES), *system.device_index["x"].shape))
    dense.reshape(len(DEVICE_FAMILIES), -1)[:, system.window_pos] = \
        x[system.window_cols]
    stored = {f: x[system.slot_cols[f]] for f in SLOT_FAMILIES}
    return FollowerSolution(dict(zip(DEVICE_FAMILIES, dense)), stored,
                            x[system.slot_cols["S"]], float(objective))


def solve_follower(lp: LinearProgram, backend: str | None = None,
                   opts: SolveOptions | None = None,
                   system: FollowerSystem | None = None
                   ) -> tuple[LpSolution, FollowerSolution | None, np.ndarray | None]:
    """Solve the scheduling LP; returns the raw solution, the schedule and
    the row multipliers in the nonnegative convention for inequality rows.

    The schedule and multipliers require the tagged ``system`` the LP was
    built from.
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
        sol.duals * system.row_sign


# -- cost accounting ----------------------------------------------------------


@dataclass
class CostBreakdown:
    billing_cost: float
    inconvenience_cost: float
    generalized_cost: float
    per_scenario: list = field(default_factory=list)   # (billing, inconvenience)


def _penalty_matrix(instance: Instance) -> np.ndarray:
    """Delay penalty per (device, slot), zero outside each device's window."""
    penalty = np.zeros((len(instance.devices), instance.n_slots))
    for d, dev in enumerate(instance.devices):
        penalty[d, dev.window.first: dev.window.last + 1] = dev.inconvenience
    return penalty


def evaluate_schedule(instance: Instance, prices: np.ndarray,
                      solution: FollowerSolution) -> CostBreakdown:
    """Expected billing and inconvenience of a schedule at given prices."""
    prices = np.asarray(prices, dtype=float)
    device, stored = solution.device, solution.stored
    billing = ((device["x"].sum(axis=1) + stored["xs"]) @ prices
               + (device["xb"].sum(axis=1) + stored["xbs"]) @ instance.prices.competitor)
    used = sum(device[f] for f in DEVICE_FAMILIES)
    inconvenience = np.einsum("sdh,dh->s", used, _penalty_matrix(instance))
    probs = np.asarray(instance.tree.probabilities, dtype=float)
    bc, ic = float(probs @ billing), float(probs @ inconvenience)
    return CostBreakdown(bc, ic, bc + ic,
                         list(zip(billing.tolist(), inconvenience.tolist())))


def leader_profit(instance: Instance, prices: np.ndarray,
                  solution: FollowerSolution) -> float:
    """Expected supplier profit: revenue minus spot procurement cost."""
    margin = np.asarray(prices, dtype=float) - instance.prices.supply_cost
    sold = solution.device["x"].sum(axis=1) + solution.stored["xs"]
    probs = np.asarray(instance.tree.probabilities, dtype=float)
    return float(probs @ (sold @ margin))


def complementarity_products(lp: LinearProgram, sol: LpSolution) -> np.ndarray:
    """|slack * multiplier| per inequality row and |value * reduced cost| per var."""
    ineq = lp.sense != EQ
    slack = np.where(lp.sense == LE, -1.0, 1.0) * (lp.a_rows @ sol.x - lp.rhs)
    return np.abs(np.concatenate([(slack * sol.duals)[ineq],
                                  (sol.x - lp.lower) * sol.reduced_costs]))
