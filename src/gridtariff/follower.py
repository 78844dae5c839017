"""The operator's scheduling problem for fixed leader prices.

For every scenario the operator decides, per device and slot, how much energy
to buy from the leader, buy from the competitor, take from on-site generation
or draw from the battery, plus slot-level purchases routed into storage.  One
LP covers all scenarios.  Scenarios whose generation paths agree on slots
``0..h`` are at one scenario-tree node in slot ``h`` (``node_map``) and must
decide the same there, so every column and row of slot ``h`` is built once
per node, by the node's first leaf; the battery state ``S[h + 1]`` belongs to
the slot-``h`` decisions that set it.  Index arrays name every column by its
family, leaf, device and slot, and every row by its family, so the
single-level reformulation reads rows, bounds and multipliers mechanically.

Leader prices enter only the objective.  ``build_follower_system`` numbers
every leaf's columns and rows from one layout that all leaves share, with
array arithmetic, and assembles the constraint matrix, senses, right-hand
sides and bounds once, into a read-only skeleton LP; ``build_follower_lp`` prices that skeleton by swapping
in a new objective vector, and ``extract_solution`` reads a solve back
through index arrays stored alongside it.  The skeleton is the
only copy of the LP kept; the single-level reformulation builds its MILP
from the skeleton's matrix, too.

Each column's upper bound is the one its rows imply (a device's power cap,
the generation bound, the battery's levels and the most it can take in one
slot), so it cuts off no feasible point.  The bounds are there for the
simplex: after a change of prices a dual simplex clears the reduced costs
of wrong sign on boxed columns by moving them to their other bound, without
a dual phase 1, which about halves the work of a re-priced response.  A
column resting on its implied bound may then have a negative reduced cost
(``solve_follower``).

Variable families (per scenario ``s``): ``x`` leader purchase, ``xb``
competitor purchase, ``lam`` direct generation use, ``sd`` battery draw (all
per device/slot); ``xs``/``xbs``/``lams`` stored purchases and stored
generation per slot; ``S`` battery state over slots ``0..H+1``.  The families
are known only here: ``FollowerSystem`` also carries, as arrays, all that
the single-level reformulation reads of them (bounds, switch-free pairs, a
multiplier scale), and a schedule (``FollowerSolution``) holds consumption
per device and totals per slot, which ``extract_solution`` adds up from the
columns.  Which device used which source is not reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Instance
from .scenario import node_map
from .solver import GE, LE, EQ, LinearProgram, LpSolution, Status, get_backend

DEVICE_FAMILIES = ("x", "xb", "lam", "sd")
SLOT_FAMILIES = ("xs", "xbs", "lams")
ROW_FAMILIES = ("demand_min", "power_cap", "batt_init", "batt_balance",
                "batt_floor", "batt_ceiling", "draw_cap", "dg_cap")
_ROW_SENSE = np.array([GE, LE, EQ, EQ, GE, LE, LE, LE], dtype=object)


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
    probability of the leaves at the column's tree node.  The priced columns
    are the leader's sales (families ``x`` and ``xs``), so leader profit is
    ``sum prob * (p[slot] - K[slot]) * v`` over them.  ``window_pos`` with
    ``window_cols``, and ``slot_cols``, are the one map from decisions to
    columns: they hold a cell for every leaf, and leaves at one tree node hold
    the same column there.  ``skeleton.upper`` bounds each column by what
    the rows imply (a device's power cap, the generation bound, the battery's
    levels and the most it can take in one slot), and ``slack_upper`` each
    inequality row's slack.  ``competitor_cols`` are the purchases ``xb`` and
    ``xbs``; ``repeats_bound`` marks the ``batt_floor`` rows when
    ``min_level == 0``, which repeat their one column's bound ``S >= 0``.
    Prices change only the objective: ``skeleton`` holds every row and bound,
    with ``c0`` as its objective, and its arrays are read-only because every
    priced LP shares them.
    """

    instance: Instance
    c0: np.ndarray
    price_slot: np.ndarray      # -1 where the leader price does not enter
    price_prob: np.ndarray
    skeleton: LinearProgram
    slot_cols: dict             # slot family or "S" -> (n_scen, slots) columns
    window_pos: np.ndarray      # flat positions in ``schedule_shape`` of window cells
    window_cols: np.ndarray     # (device family, window position) -> column
    row_sign: np.ndarray        # -1 on <= rows, +1 elsewhere
    slack_upper: np.ndarray         # per row: bound on its slack, NaN if equality
    competitor_cols: np.ndarray     # the columns of families xb and xbs
    repeats_bound: np.ndarray       # per row: repeats its column's bound S >= 0
    multiplier_scale: float         # worst cost at the tariff / round-trip efficiency

    @property
    def n_vars(self) -> int:
        return len(self.c0)

    @property
    def n_rows(self) -> int:
        return self.skeleton.n_rows

    @property
    def schedule_shape(self) -> tuple[int, int, int]:
        """(scenario, device, slot): the shape of a schedule's consumption."""
        inst = self.instance
        return inst.tree.n_leaves, len(inst.devices), inst.n_slots

    def objective(self, prices: np.ndarray) -> np.ndarray:
        c = self.c0.copy()
        linked = self.price_slot >= 0
        c[linked] += self.price_prob[linked] * prices[self.price_slot[linked]]
        return c


def build_follower_system(instance: Instance) -> FollowerSystem:
    """Number the operator LP's columns and rows and assemble its skeleton.

    Every leaf has the same column layout: ``x, xb, lam, sd`` per window cell
    (device by device, slot by slot), then ``xs, xbs, lams`` per slot, then
    ``S[0..H]``.  A leaf builds the layout columns whose slot is at its own
    tree node (``S[h]`` is set in slot ``h - 1``; ``S[0]`` joins slot 0) and
    takes the column of the node's first leaf elsewhere; columns are
    numbered leaf by leaf in layout order.
    """
    n_slots, tree, bat = instance.n_slots, instance.tree, instance.battery
    n_scen, n_dev = tree.n_leaves, len(instance.devices)
    comp = instance.prices.competitor
    nodes = node_map(tree)
    node_prob = np.zeros(nodes.shape)       # [node, slot]: sum over its leaves
    np.add.at(node_prob, (nodes, np.arange(n_slots)),
              np.asarray(tree.probabilities, dtype=float)[:, None])
    cell_dev, cell_slot = _window_cells(instance)
    n_dcol = len(DEVICE_FAMILIES) * len(cell_dev)

    slots = np.arange(n_slots)
    col_slot = np.concatenate([np.repeat(cell_slot, 4), np.repeat(slots, 3),
                               [0], slots])
    # family of each layout column: x, xb, lam, sd, xs, xbs, lams, S = 0..7
    col_fam = np.concatenate([np.tile(np.arange(4), len(cell_dev)),
                              np.tile([4, 5, 6], n_slots), np.full(n_slots + 1, 7)])
    penalty = np.zeros(len(col_slot))
    penalty[:n_dcol] = np.repeat(_penalty_matrix(instance)[cell_dev, cell_slot], 4)
    bought = (col_fam == 1) | (col_fam == 5)           # xb and xbs
    competitor = np.where(bought, comp[col_slot], 0.0)
    priced = (col_fam == 0) | (col_fam == 4)           # x and xs
    # structural bounds; generation columns also take their leaf's dg bound
    power = np.array([dev.max_power for dev in instance.devices], dtype=float)
    charge_cap = max(0.0, (2.0 * bat.max_level - bat.discharge_eff * bat.min_level)
                     / bat.charge_eff)
    cap = np.concatenate([np.repeat(power[cell_dev], 4), np.full(3 * n_slots, charge_cap),
                          np.full(n_slots + 1, max(bat.max_level, bat.initial))])
    cap[3:n_dcol:4] = np.minimum(power[cell_dev], bat.max_level)      # sd

    at = nodes[:, col_slot]                 # the tree node of each leaf's column
    own = at == np.arange(n_scen)[:, None]
    cols = (np.cumsum(own).reshape(own.shape) - 1)[at, np.arange(len(col_slot))]
    leaf, pos = np.nonzero(own)             # the leaf and layout of each column
    prob = node_prob[leaf, col_slot[pos]]
    c0 = prob * penalty[pos] + prob * competitor[pos]
    upper = np.where((col_fam[pos] == 2) | (col_fam[pos] == 6),  # lam and lams
                     np.minimum(cap[pos], tree.dg[leaf, col_slot[pos]]),
                     cap[pos])

    window_pos = ((np.arange(n_scen) * (n_dev * n_slots))[:, None]
                  + cell_dev * n_slots + cell_slot).ravel()
    window_cols = cols[:, :n_dcol].reshape(-1, len(DEVICE_FAMILIES)).T
    slot_cols = {f: cols[:, col_fam == g]
                 for g, f in enumerate((*SLOT_FAMILIES, "S"), 4)}

    price_prob = np.where(priced[pos], prob, 0.0)
    worst_c = float((np.abs(c0) + price_prob * comp[col_slot[pos]]).max(initial=0.0))
    rho = bat.charge_eff * bat.discharge_eff
    skeleton, slack_upper, repeats_bound = _assemble(
        instance, nodes, cell_dev, cell_slot, cols, c0, upper)
    return FollowerSystem(
        instance=instance,
        c0=c0,
        price_slot=np.where(priced[pos], col_slot[pos], -1),
        price_prob=price_prob,
        skeleton=skeleton,
        slot_cols=slot_cols,
        window_pos=window_pos,
        window_cols=window_cols,
        row_sign=np.where(skeleton.sense == LE, -1.0, 1.0),
        slack_upper=slack_upper,
        competitor_cols=np.flatnonzero(bought[pos]),
        repeats_bound=repeats_bound,
        multiplier_scale=max(1.0, worst_c) / max(rho, 1e-2),
    )


def _window_cells(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Device and slot of every window cell, device by device."""
    first = np.array([dev.window.first for dev in instance.devices], dtype=np.int64)
    length = np.array([len(dev.window) for dev in instance.devices], dtype=np.int64)
    cell_dev = np.repeat(np.arange(len(first)), length)
    offset = first - (np.cumsum(length) - length)     # slot minus cell index
    return cell_dev, np.arange(len(cell_dev)) + offset[cell_dev]


def _assemble(instance: Instance, nodes: np.ndarray, cell_dev: np.ndarray,
              cell_slot: np.ndarray, cols: np.ndarray, c0: np.ndarray,
              upper: np.ndarray) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """The skeleton LP over the columns ``cols[leaf, layout position]``
    (bounds ``[0, upper]``, objective ``c0``), the bound on each row's slack
    that the other rows and the column bounds imply (NaN on equality rows),
    and the rows that repeat a column's bound.

    Every leaf has the same row layout: per device its ``demand_min`` and a
    ``power_cap`` per window cell; ``batt_init``; a ``batt_balance`` per
    slot; a ``batt_floor`` and a ``batt_ceiling`` per state ``S[1..H]``; a
    ``draw_cap`` per slot; a ``dg_cap`` per slot.  A row belongs to the tree
    node of the last slot it constrains and is built once, by that node's
    first leaf, over that leaf's columns.  The skeleton's arrays are made
    read-only.
    """
    n_slots, bat, devices = instance.n_slots, instance.battery, instance.devices
    n_scen, n_dev, n_cells = len(cols), len(devices), len(cell_dev)
    slots = np.arange(n_slots)
    cell = np.arange(n_cells)

    # row layout positions: per device its demand row, then its power caps;
    # batt_init; then a block per slot family.  ``slot_rows[h]`` holds slot
    # h's balance, the floor and ceiling of S[h + 1], its draw and dg caps.
    demand = np.searchsorted(cell_dev, np.arange(n_dev)) + np.arange(n_dev)
    cap = cell + cell_dev + 1
    init = n_dev + n_cells
    balance = init + 1 + slots
    floor = balance + n_slots + slots
    slot_rows = np.column_stack([balance, floor, floor + 1, balance + 3 * n_slots,
                                 balance + 4 * n_slots])
    n_layout = init + 1 + 5 * n_slots
    family = np.empty(n_layout, dtype=np.int64)   # index into ROW_FAMILIES
    row_slot = np.empty(n_layout, dtype=np.int64)
    base_rhs = np.zeros(n_layout)                 # dg_cap's is per leaf
    base_slack = np.full(n_layout, np.nan)        # dg_cap's is its rhs
    family[demand], family[cap], family[init] = 0, 1, 2
    family[slot_rows] = [3, 4, 5, 6, 7]
    row_slot[demand] = [dev.window.last for dev in devices]
    row_slot[cap], row_slot[init], row_slot[slot_rows] = cell_slot, 0, slots[:, None]
    base_rhs[demand] = [dev.energy_demand for dev in devices]
    base_rhs[cap] = np.array([dev.max_power for dev in devices])[cell_dev]
    base_rhs[init] = bat.initial
    base_rhs[slot_rows[:, 1]], base_rhs[slot_rows[:, 2]] = bat.min_level, bat.max_level
    base_slack[demand] = [len(dev.window) * dev.max_power - dev.energy_demand
                          for dev in devices]         # the power caps bound it
    base_slack[cap] = base_rhs[cap]
    base_slack[slot_rows[:, 1:3]] = bat.max_level - bat.min_level  # each other
    base_slack[slot_rows[:, 3]] = max(bat.max_level, bat.initial)  # the top state

    # the terms, one stencil per window cell and one per slot.  A cell's x,
    # xb, lam, sd (layout columns 4c + f) enter its device's demand row and
    # its power cap; sd also enters the balance and draw cap of the cell's
    # slot, lam its dg cap.
    cell_rows = np.column_stack([demand[cell_dev], cap,
                                 slot_rows[cell_slot][:, [0, 3, 4]]])
    cell_kind = [0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 4]
    cell_fam = [0, 1, 2, 3, 0, 1, 2, 3, 3, 3, 2]
    # A slot's S[h + 1], S[h], xs, xbs, lams enter its balance; S[h + 1] its
    # floor and ceiling; S[h] its draw cap; lams its dg cap.
    xs = len(DEVICE_FAMILIES) * n_cells + len(SLOT_FAMILIES) * slots
    s0 = len(DEVICE_FAMILIES) * n_cells + len(SLOT_FAMILIES) * n_slots   # S[0]
    slot_vars = np.column_stack([s0 + 1 + slots, s0 + slots, xs, xs + 1, xs + 2])
    ch, dis = -bat.charge_eff, -bat.discharge_eff
    slot_kind = [0, 0, 0, 0, 0, 1, 2, 3, 4]
    slot_var = [0, 1, 2, 3, 4, 0, 0, 1, 4]
    slot_val = [1.0, dis, ch, ch, ch, 1.0, 1.0, -1.0, 1.0]
    t_row = np.concatenate([cell_rows[:, cell_kind].ravel(),
                            slot_rows[:, slot_kind].ravel(), [init]])
    t_col = np.concatenate([(4 * cell[:, None] + cell_fam).ravel(),
                            slot_vars[:, slot_var].ravel(), [s0]])
    t_val = np.concatenate([np.ones(11 * n_cells), np.tile(slot_val, n_slots), [1.0]])
    order = np.argsort(t_row, kind="stable")
    t_row, t_col, t_val = t_row[order], t_col[order], t_val[order]

    at = nodes[:, row_slot]                 # the tree node of each leaf's row
    own = at == np.arange(n_scen)[:, None]
    leaf, pos = np.nonzero(own)             # the leaf and layout of each row
    t_leaf, t = np.nonzero(own[:, t_row])   # terms in row order
    n, m = len(c0), len(pos)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(t_row, minlength=n_layout)[pos], out=indptr[1:])
    mat = sp.csr_matrix((t_val[t], cols[t_leaf, t_col[t]], indptr), shape=(m, n))
    mat.sum_duplicates()            # canonical form, as LpBuilder builds it
    mat.eliminate_zeros()
    family = family[pos]
    rhs = base_rhs[pos]
    is_dg = family == ROW_FAMILIES.index("dg_cap")
    rhs[is_dg] = instance.tree.dg[leaf[is_dg], row_slot[pos[is_dg]]]
    slack = np.where(is_dg, rhs, base_slack[pos])
    skeleton = LinearProgram(
        n_vars=n, obj=c0, lower=np.zeros(n), upper=upper,
        a_rows=mat, sense=_ROW_SENSE[family], rhs=rhs, maximize=False)
    skeleton.validate()
    for arr in (c0, skeleton.lower, skeleton.upper, skeleton.sense,
                skeleton.rhs, mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    repeats_bound = (family == ROW_FAMILIES.index("batt_floor")) & (bat.min_level == 0.0)
    return skeleton, slack, repeats_bound


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
    """A schedule and its expected generalized cost.  ``consumption`` is per
    scenario, device and slot, zero outside each device's window; the sources
    are totals per scenario and slot, storage included: ``leader``,
    ``competitor``, ``generation`` and ``battery_draw`` supply the slot's
    consumption plus ``battery_charge``, the purchases and generation put
    into the battery.  Which device used which source is not reported."""

    consumption: np.ndarray     # (n_scen, n_dev, n_slots)
    leader: np.ndarray          # (n_scen, n_slots), as are the four below
    competitor: np.ndarray
    generation: np.ndarray
    battery_draw: np.ndarray
    battery_charge: np.ndarray
    battery_state: np.ndarray   # (n_scen, n_slots + 1)
    objective_value: float

    @classmethod
    def zeros(cls, n_scen: int, n_dev: int, n_slots: int) -> FollowerSolution:
        """An all-zero schedule."""
        return cls(np.zeros((n_scen, n_dev, n_slots)),
                   *np.zeros((5, n_scen, n_slots)),
                   np.zeros((n_scen, n_slots + 1)), float("nan"))

    def slot_totals(self) -> tuple[np.ndarray, ...]:
        """The five per-slot totals, in field order."""
        return (self.leader, self.competitor, self.generation, self.battery_draw,
                self.battery_charge)


def extract_solution(system: FollowerSystem, x: np.ndarray,
                     objective: float) -> FollowerSolution:
    """The schedule at the LP point ``x``: the one place that adds columns
    up into consumption and per-slot totals."""
    x = np.asarray(x)
    n_fam = len(DEVICE_FAMILIES)
    device = np.zeros((n_fam, *system.schedule_shape))     # 0 off-window
    device.reshape(n_fam, -1)[:, system.window_pos] = x[system.window_cols]
    x_h, xb_h, lam_h, sd_h = (fam.sum(axis=1) for fam in device)
    xs, xbs, lams = (x[system.slot_cols[f]] for f in SLOT_FAMILIES)
    return FollowerSolution(sum(device), x_h + xs, xb_h + xbs, lam_h + lams, sd_h,
                            xs + xbs + lams, x[system.slot_cols["S"]],
                            float(objective))


def solve_follower(lp: LinearProgram, backend: str | None = None,
                   system: FollowerSystem | None = None
                   ) -> tuple[LpSolution, FollowerSolution | None, np.ndarray | None]:
    """Solve the scheduling LP; returns the raw solution, the schedule and
    the row multipliers in the nonnegative convention for inequality rows.

    The multipliers are those of the LP with its implied column bounds: a
    column resting on its bound ``skeleton.upper`` may have a negative
    reduced cost, whose bound term ``rc * upper`` joins the row terms in the
    dual objective.  The optimal value is that of the LP without column
    upper bounds, since they cut off no feasible point.

    The schedule and multipliers require the ``system`` the LP was built
    from, whose index arrays read them.  LPs priced from one system share its
    read-only skeleton, so the HiGHS backend keeps the last one loaded and
    re-optimizes the next from its basis (``gridtariff.solver.backends``):
    the objective and multipliers are optimal either way, but among
    alternative optima the schedule returned can depend on the price vector
    solved before it on the same thread.
    """
    sol = get_backend(backend).solve_lp(lp)
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
    billing = (solution.leader @ prices
               + solution.competitor @ instance.prices.competitor)
    inconvenience = np.einsum("sdh,dh->s", solution.consumption,
                              _penalty_matrix(instance))
    probs = np.asarray(instance.tree.probabilities, dtype=float)
    bc, ic = float(probs @ billing), float(probs @ inconvenience)
    return CostBreakdown(bc, ic, bc + ic,
                         list(zip(billing.tolist(), inconvenience.tolist())))


def leader_profit(instance: Instance, prices: np.ndarray,
                  solution: FollowerSolution) -> float:
    """Expected supplier profit: revenue minus spot procurement cost."""
    margin = np.asarray(prices, dtype=float) - instance.prices.supply_cost
    probs = np.asarray(instance.tree.probabilities, dtype=float)
    return float(probs @ (solution.leader @ margin))

