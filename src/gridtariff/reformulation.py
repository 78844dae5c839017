"""Single-level MILP reformulation of the pricing problem.

For fixed prices the operator's problem is an LP, so it can be replaced by
its optimality system: primal feasibility, multiplier feasibility (price
variables enter those rows linearly) and pairwise complementarity between
every inequality slack or variable and its multiplier.  A pair gets a binary
switch ``a <= M_a * delta``, ``b <= M_b * (1 - delta)`` unless one of its two
sides is zero in every point of the model; complementarity then holds with
``delta`` fixed at the value that side implies, and the other side keeps its
M as a plain bound (``_switch_rules`` proves each case):

- zero-capacity pairs, whose primal side has structural bound 0 (generation
  columns and ``dg_cap`` rows at slots without generation, battery columns
  and rows without storage);
- ``batt_floor`` rows with ``min_level == 0``, which repeat the bound
  ``S >= 0``: their multiplier is fixed at 0 and the ``S`` column's pair
  carries the complementarity;
- competitor purchases ``xb``/``xbs``, fixed at 0 because the leader columns
  ``x``/``xs`` do the same at a price never higher.

Every other pair carries its own switch.  Strong duality then lets the
bilinear revenue terms in the supplier objective be replaced by the
multiplier objective minus the price-independent cost terms, which is what
the MILP maximizes.

The operator LP enters only through ``FollowerSystem.skeleton``: the MILP is
assembled from its matrix in blocks (``_linearize``), and no row-by-row copy
of the LP is kept.

Primal-side M values are structural bounds implied by the constraints, so a
pair value hitting them never truncates the optimum; multiplier-side M values
default to a large scalar and are escalated when the post-solve audit flags
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .follower import (DEVICE_FAMILIES, FollowerSolution, FollowerSystem,
                       build_follower_lp, build_follower_system,
                       extract_solution, leader_profit, solve_follower)
from .model import Instance, validate
from .solver import (EQ, GE, LE, LinearProgram, MilpModel, MilpResult,
                     SolveOptions, Status, get_backend, verify_milp_solution)

DEFAULT_DUAL_M = 1e5

# Why a pair carries no switch (``MpccSystem.rule``); see ``_switch_rules``.
SWITCHED, ZERO_CAPACITY, DUPLICATE_FLOOR, DOMINATED_PURCHASE = range(4)


class BilevelInfeasible(RuntimeError):
    """The single-level model is infeasible: bad instance or M too small."""


class ExtractionMismatch(RuntimeError):
    """Strong-duality objective and direct profit evaluation disagree."""


class UncertifiedOptimum(RuntimeError):
    """The best big-M optimum found still has multipliers at an M that its
    escalation could not clear, so a larger M might raise the profit.

    Not a ``BilevelInfeasible``: more time does not fix an M.  ``solution``
    holds the answer (with its audit) and ``flags`` its risky audit flags.
    """

    def __init__(self, solution: "BilevelSolution", why: str):
        self.solution = solution
        self.flags = solution.audit.risky
        super().__init__(
            f"{why}: profit {solution.leader_objective:.6f} has"
            f" {len(self.flags)} multiplier(s) at their big-M bound")


@dataclass
class MpccSystem:
    """The complementarity pairs of the operator LP: every inequality row
    (slack and multiplier) in row order, then every column (value and
    reduced cost)."""

    system: FollowerSystem
    pair_ref: np.ndarray       # per pair: its skeleton row, or its column
    var_upper: np.ndarray      # structural upper bounds of primal columns
    primal_bound: np.ndarray   # per pair: structural bound on its primal side
    rule: np.ndarray           # per pair: SWITCHED, or why it needs no switch

    @property
    def n_pairs(self) -> int:
        return len(self.pair_ref)

    @property
    def ineq_rows(self) -> np.ndarray:
        """Skeleton rows of the row pairs, which are the first pairs."""
        return self.pair_ref[: self.n_pairs - self.system.n_vars]

    @property
    def switched(self) -> np.ndarray:
        """Indices of the pairs that carry a binary switch."""
        return np.flatnonzero(self.rule == SWITCHED)

    @property
    def implied_delta(self) -> np.ndarray:
        """The switch value each pair's structure implies: 1 where the
        multiplier is fixed at 0, 0 where the primal side is."""
        return (self.rule == DUPLICATE_FLOOR).astype(float)

    def refs(self, rule: int) -> np.ndarray:
        """Row or column indices of the pairs classified under ``rule``."""
        return self.pair_ref[self.rule == rule]


@dataclass
class BigMConfig:
    primal: np.ndarray
    dual: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.primal < 0) or np.any(self.dual <= 0):
            raise ValueError("big-M values must be positive")

    def escalate(self, factor: float = 2.0) -> "BigMConfig":
        return BigMConfig(self.primal.copy(), self.dual * factor)


@dataclass
class AuditFlag:
    pair: int
    side: str                  # "primal" | "dual"
    value: float
    limit: float
    structural: bool


@dataclass
class AuditReport:
    flags: list[AuditFlag]
    max_primal: float
    max_dual: float

    @property
    def risky(self) -> list[AuditFlag]:
        return [f for f in self.flags if not f.structural]

    @property
    def clean(self) -> bool:
        return not self.risky


@dataclass
class BilevelSolution:
    prices: np.ndarray
    follower: FollowerSolution
    binaries: np.ndarray
    leader_objective: float
    follower_objective: float
    mip_gap: float
    status: Status
    audit: AuditReport | None = None
    retries: int = 0
    pair_values: tuple[np.ndarray, np.ndarray] | None = None
    milp: MilpResult | None = None


# -- construction ------------------------------------------------------------


def build_mpcc(instance: Instance, system: FollowerSystem | None = None) -> MpccSystem:
    """Pair every inequality row and nonnegative column with its multiplier,
    and classify which pairs need a switch (``_switch_rules``)."""
    system = system or build_follower_system(instance)
    ineq = np.flatnonzero(system.skeleton.sense != EQ)
    upper = _structural_upper_bounds(system)
    bound = np.concatenate([_row_primal_bounds(system)[ineq], upper])
    return MpccSystem(system, np.concatenate([ineq, np.arange(system.n_vars)]),
                      upper, bound, _switch_rules(system, ineq, bound))


def _structural_upper_bounds(system: FollowerSystem) -> np.ndarray:
    inst = system.instance
    bat = inst.battery
    charge_cap = max(0.0, (2.0 * bat.max_level - bat.discharge_eff * bat.min_level)
                     / bat.charge_eff)
    dg = inst.tree.dg_matrix()
    power = np.array([dev.max_power for dev in inst.devices], dtype=float)[:, None]
    device_upper = {"x": power, "xb": power, "lam": np.minimum(power, dg[:, None, :]),
                    "sd": np.minimum(power, bat.max_level)}
    upper = np.full(system.n_vars, max(bat.max_level, bat.initial))   # battery state
    cell = np.unravel_index(system.window_pos, system.schedule_shape)
    for fam, cols in zip(DEVICE_FAMILIES, system.window_cols):
        upper[cols] = np.broadcast_to(device_upper[fam], system.schedule_shape)[cell]
    upper[system.slot_cols["xs"]] = charge_cap
    upper[system.slot_cols["xbs"]] = charge_cap
    upper[system.slot_cols["lams"]] = np.minimum(charge_cap, dg)
    return upper


def _row_primal_bounds(system: FollowerSystem) -> np.ndarray:
    """Bound on each inequality row's slack, implied by the primal rows and
    column bounds of the single-level model (NaN on equality rows)."""
    inst = system.instance
    bat = inst.battery
    max_power = np.array([dev.max_power for dev in inst.devices], dtype=float)
    spare = np.array([len(dev.window) * dev.max_power - dev.energy_demand
                      for dev in inst.devices], dtype=float)
    fam, dev = system.row_families, system.row_device
    bound = np.full(system.n_rows, np.nan)
    # power caps bound a demand row's total; a floor and a ceiling bound
    # each other
    bound[fam["demand_min"]] = spare[dev[fam["demand_min"]]]
    bound[fam["power_cap"]] = max_power[dev[fam["power_cap"]]]
    bound[fam["batt_floor"]] = bat.max_level - bat.min_level
    bound[fam["batt_ceiling"]] = bat.max_level - bat.min_level
    bound[fam["draw_cap"]] = max(bat.max_level, bat.initial)
    bound[fam["dg_cap"]] = system.skeleton.rhs[fam["dg_cap"]]
    return bound


def _switch_rules(system: FollowerSystem, ineq: np.ndarray,
                  primal_bound: np.ndarray) -> np.ndarray:
    """Classify each pair: ``SWITCHED``, or the rule that makes one side zero
    in every point of the single-level model, so complementarity needs no
    switch.  The first rule that applies wins.  The MILP fixes such a pair's
    switch at the value the rule implies (``MpccSystem.implied_delta``) and
    keeps the multiplier cap that value leaves, so its feasible set is the
    fully switched model's with those switches fixed.

    ``ZERO_CAPACITY``: the primal side's structural bound is 0.  That bound
    follows from the model's own primal rows and column bounds
    (``_row_primal_bounds``, ``_structural_upper_bounds``), so the primal
    side is 0 at every feasible point and the product with any multiplier
    vanishes: switch value 0.

    ``DUPLICATE_FLOOR``: with ``min_level == 0`` the row ``batt_floor`` reads
    ``S_h >= 0``, the bound of its only column.  Its multiplier ``mu`` is
    fixed at 0, which keeps every operator optimum: if optimal multipliers
    have ``mu > 0``, then ``S_h = 0`` by complementarity, and moving ``mu``
    into the reduced cost of ``S_h`` (coefficient 1) keeps that reduced cost
    nonnegative and complementary to ``S_h = 0``; the multiplier objective is
    unchanged because the row's right-hand side is 0.  The pair of the
    column ``S_h`` then carries the complementarity: switch value 1.  (Under
    a finite multiplier M, the reduced cost with ``mu`` moved into it must
    also stay below the column's M.)

    ``DOMINATED_PURCHASE``: a competitor purchase ``xb``/``xbs`` has the same
    column as its leader twin ``x``/``xs`` and costs ``prob * (pbar - p) >= 0``
    more, since prices never exceed the tariff.  Moving its amount onto the
    twin keeps every row (the twin's bound is implied by the same rows) and
    does not raise the operator's cost, so the result is optimal too, with
    the same multipliers: a positive purchase has zero reduced cost, and the
    twin's reduced cost, lower by ``prob * (pbar - p)``, cannot be negative,
    so it is zero as well.  The costs tie only where ``p = pbar`` or
    ``prob = 0``, and there the move changes the leader's profit by
    ``prob * (pbar - K) * xb >= 0`` because ``validate`` ensures
    ``pbar > K``.  So the optimistic optimum survives fixing the column at 0,
    which makes its primal side 0 (switch value 0); the column and its
    multiplier-feasibility row stay in the model.
    """
    n_ineq = len(ineq)
    floor = np.zeros(system.n_rows, dtype=bool)
    if system.instance.battery.min_level == 0.0:
        floor[system.row_families["batt_floor"]] = True
    purchase = np.zeros(system.n_vars, dtype=bool)
    purchase[system.window_cols[DEVICE_FAMILIES.index("xb")]] = True
    purchase[system.slot_cols["xbs"]] = True
    rule = np.full(len(primal_bound), SWITCHED, dtype=np.int8)
    rule[:n_ineq][floor[ineq]] = DUPLICATE_FLOOR
    rule[n_ineq:][purchase] = DOMINATED_PURCHASE
    rule[primal_bound <= 0.0] = ZERO_CAPACITY           # the first rule wins
    return rule


def dual_m_scale(system: FollowerSystem) -> float:
    """Magnitude headroom for multipliers: worst objective coefficient at the
    competitor tariff, amplified by the battery round-trip losses."""
    inst = system.instance
    comp = inst.prices.competitor
    worst_c = float(np.abs(system.c0).max(initial=0.0))
    linked = system.price_slot >= 0
    if linked.any():
        worst_c = max(worst_c, float((np.abs(system.c0[linked])
                                      + system.price_prob[linked]
                                      * comp[system.price_slot[linked]]).max()))
    rho = inst.battery.charge_eff * inst.battery.discharge_eff
    return max(1.0, worst_c) / max(rho, 1e-2)


def default_big_m(mpcc: MpccSystem, default_dual: float | None = None) -> BigMConfig:
    """Structural primal bounds; scaled (audited, escalatable) multiplier bounds.

    Every pair has an entry.  Only switched pairs (``mpcc.switched``) use
    their primal M; the multiplier M of a pair without a switch still caps
    its multiplier side wherever its implied switch value allows that side
    to be positive, so the audit and escalation treat all pairs alike.
    """
    if default_dual is None:
        default_dual = min(DEFAULT_DUAL_M, 1e3 * dual_m_scale(mpcc.system))
    return BigMConfig(mpcc.primal_bound.copy(),
                      np.full(mpcc.n_pairs, float(default_dual)))


@dataclass
class _MilpLayout:
    n_slots: int
    primal_off: int
    dual_off: int
    delta_off: int


def _linearize(mpcc: MpccSystem, config: BigMConfig,
               pinned_prices: dict[int, float] | None = None
               ) -> tuple[MilpModel, _MilpLayout]:
    """The big-M MILP over columns ``[p | primal | multipliers | switches]``.

    Every block is the skeleton matrix ``A``, its sign-adjusted transpose
    ``(diag(row_sign) A)^T`` or rows of either: primal feasibility ``A``;
    multiplier feasibility ``sum_i sgn_i a_ij d_i - prob_j p_slot(j) <= c0_j``;
    then per pair ``a <= M_a * delta`` (``comp_p``) and
    ``b <= M_b * (1 - delta)`` (``comp_d``).  A pair without a switch has
    delta fixed at its implied value (``_switch_rules``): its ``comp_p`` row
    holds by the bounds and is left out, and its multiplier cap is a column
    bound for a row pair and a ``comp_d`` row for a column pair.
    """
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
    layout = _MilpLayout(n_slots, n_slots, n_slots + n, n_slots + n + m)

    p_lo, p_up = np.zeros(n_slots), np.array(comp, dtype=float)
    for h in range(n_slots):
        if pinned_prices and h in pinned_prices:
            v = float(pinned_prices[h])
            if not (-1e-9 <= v <= comp[h] + 1e-9):
                raise ValueError(f"pinned price {v} at slot {h} outside [0, {comp[h]}]")
            p_lo[h] = p_up[h] = min(max(v, 0.0), float(comp[h]))

    linked = np.flatnonzero(system.price_slot >= 0)      # the leader's sales
    obj_primal = -system.c0
    obj_primal[linked] -= system.price_prob[linked] * supply[system.price_slot[linked]]
    col_upper = mpcc.var_upper.copy()
    col_upper[mpcc.rule[n_ineq:] == DOMINATED_PURCHASE] = 0.0
    dual_upper = np.full(m, np.inf)
    fixed = np.flatnonzero(mpcc.rule[:n_ineq] != SWITCHED)
    dual_upper[ineq[fixed]] = config.dual[fixed] * (1.0 - mpcc.implied_delta[fixed])

    a = skel.a_rows
    signed = sp.csr_matrix((np.repeat(row_sign, np.diff(a.indptr)) * a.data,
                            a.indices, a.indptr), shape=a.shape)   # rows as >= or =
    signed_t = signed.T.tocsr()
    price = sp.csr_matrix((system.price_prob[linked],
                           (linked, system.price_slot[linked])), shape=(n, n_slots))
    pick = sp.csr_matrix((np.ones(n_ineq), ineq, np.arange(n_ineq + 1)),
                         shape=(n_ineq, m))                 # the multipliers of row pairs
    cols = (switched, np.arange(n_sw))                      # each switched pair's M
    big_p = sp.csr_matrix((-config.primal[switched], cols), shape=(n_pairs, n_sw))
    big_d = sp.csr_matrix((config.dual[switched], cols), shape=(n_pairs, n_sw))
    mat = sp.bmat([
        [None, a, None, None],                              # primal feasibility
        [-price, None, signed_t, None],                     # multiplier feasibility
        [None, signed[ineq], None, big_p[:n_ineq]],         # comp_p of row pairs
        [None, sp.identity(n), None, big_p[n_ineq:]],       # comp_p of column pairs
        [None, None, pick, big_d[:n_ineq]],                 # comp_d of row pairs
        [price, None, -signed_t, big_d[n_ineq:]],           # comp_d of column pairs
    ], format="csr")
    signed_rhs = row_sign * skel.rhs
    comp_rhs = np.concatenate([signed_rhs[ineq], np.zeros(n),
                               config.dual[:n_ineq], config.dual[n_ineq:] - system.c0])
    # interleave per pair: comp_p if switched, then comp_d if switched or a column
    is_switched = mpcc.rule == SWITCHED
    has = np.column_stack([is_switched, is_switched])
    has[n_ineq:, 1] = True
    comp_rows = np.column_stack([np.arange(n_pairs), n_pairs + np.arange(n_pairs)])[has]
    mat = mat[np.concatenate([np.arange(m + n), m + n + comp_rows])]
    mat.eliminate_zeros()
    mat.sort_indices()

    lp = LinearProgram(
        n_vars=layout.delta_off + n_sw,
        obj=np.concatenate([np.zeros(n_slots), obj_primal, signed_rhs, np.zeros(n_sw)]),
        lower=np.concatenate([p_lo, np.zeros(n), np.where(skel.sense == EQ, -np.inf, 0.0),
                              np.zeros(n_sw)]),
        upper=np.concatenate([p_up, col_upper, dual_upper, np.ones(n_sw)]),
        a_rows=mat,
        sense=np.concatenate([skel.sense, np.full(n + len(comp_rows), LE, dtype=object)]),
        rhs=np.concatenate([skel.rhs, system.c0, comp_rhs[comp_rows]]),
        maximize=True)
    lp.validate()
    binaries = np.arange(layout.delta_off, lp.n_vars, dtype=np.int64)
    return MilpModel(lp, binaries), layout


def linearize(mpcc: MpccSystem, config: BigMConfig,
              pinned_prices: dict[int, float] | None = None) -> MilpModel:
    """Big-M MILP for the single-level pricing problem (maximization)."""
    model, _ = _linearize(mpcc, config, pinned_prices)
    return model


# -- extraction and audit ------------------------------------------------------


def _pair_values(mpcc: MpccSystem, primal: np.ndarray, dual: np.ndarray,
                 prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of every pair: the slack ``row_sign * (A x - rhs)`` and
    multiplier of each inequality row, then the value and reduced cost
    ``c(p) - (diag(row_sign) A)^T dual`` of each column."""
    system = mpcc.system
    skel = system.skeleton
    ineq = mpcc.ineq_rows
    slack = system.row_sign * (skel.a_rows @ primal - skel.rhs)
    reduced = system.objective(prices) - skel.a_rows.T @ (system.row_sign * dual)
    return (np.concatenate([slack[ineq], primal]),
            np.concatenate([dual[ineq], reduced]))


def extract_bilevel(mpcc: MpccSystem, layout: _MilpLayout, result: MilpResult,
                    tol: float = 1e-5) -> BilevelSolution:
    system = mpcc.system
    inst = system.instance
    x = result.x
    prices = x[: layout.n_slots].copy()
    primal = x[layout.primal_off: layout.primal_off + system.n_vars]
    dual = x[layout.dual_off: layout.dual_off + system.n_rows]
    binaries = mpcc.implied_delta
    switched = mpcc.switched
    binaries[switched] = x[layout.delta_off: layout.delta_off + len(switched)]

    follower_obj = float(system.objective(prices) @ primal)
    fsol = extract_solution(system, primal, follower_obj)
    profit = leader_profit(inst, prices, fsol)
    model_obj = float(result.objective)
    if abs(model_obj - profit) > tol * (1.0 + abs(model_obj)):
        raise ExtractionMismatch(
            f"strong-duality objective {model_obj} vs direct profit {profit}")

    pv, dv = _pair_values(mpcc, primal, dual, prices)
    return BilevelSolution(
        prices=prices, follower=fsol, binaries=binaries,
        leader_objective=profit, follower_objective=follower_obj,
        mip_gap=float(result.rel_gap), status=result.status,
        pair_values=(pv, dv), milp=result)


def audit_big_m(solution: BilevelSolution, config: BigMConfig,
                margin: float = 1e-6) -> AuditReport:
    """Flag pair sides at or beyond (1 - margin) of their M."""
    pv, dv = solution.pair_values
    flags: list[AuditFlag] = []
    for k in range(len(pv)):
        if config.primal[k] > 0 and pv[k] >= (1.0 - margin) * config.primal[k]:
            flags.append(AuditFlag(k, "primal", float(pv[k]),
                                   float(config.primal[k]), True))
        if dv[k] >= (1.0 - margin) * config.dual[k]:
            flags.append(AuditFlag(k, "dual", float(dv[k]),
                                   float(config.dual[k]), False))
    return AuditReport(flags, float(pv.max(initial=0.0)), float(dv.max(initial=0.0)))


# -- solve --------------------------------------------------------------------


def _fallback_points(mpcc: MpccSystem, layout: _MilpLayout, model: MilpModel,
                     pinned_prices: dict[int, float] | None,
                     backend: str | None) -> list[np.ndarray]:
    """Feasible MILP points from operator optima at heuristic price profiles.

    An optimal primal/multiplier pair at any in-bounds price profile is a
    feasible point of the single-level model once its complementarity pattern
    is written into the switches, provided it buys nothing from the
    competitor and puts no multiplier on a duplicate floor (``_switch_rules``
    fixes both at 0; a point that does is dropped by the final check).  The
    profiles are the competitor tariff and the midpoint between it and the
    supply cost.

    The operator LPs are solved with the competitor purchases ``xb`` and
    ``xbs`` bounded at 0, so that no optimum is dropped for buying from the
    competitor.  The bound keeps the LP's optimal value, so its optima are
    operator optima, while every price is at most the tariff ``pbar`` (the
    profiles are, and ``_linearize`` rejects pinned prices above it): a
    purchase has the same column as its leader twin ``x``/``xs`` and costs
    ``prob * (pbar - p) >= 0`` more, so moving its amount onto the twin keeps
    every row and does not raise the cost (the ``DOMINATED_PURCHASE`` rule of
    ``_switch_rules``).  Where ``p = pbar`` the two tie, and which one an
    unrestricted LP buys would be the solver's choice.

    ``solve_bilevel`` computes these points only when a limit stops the MILP
    without an incumbent, and answers with the best of them: desk seed 1
    with ``node_limit=1`` returns ``NODE_LIMIT`` at profit 44.921807 this way
    instead of raising ``BilevelInfeasible``.
    """
    system = mpcc.system
    inst = system.instance
    comp = inst.prices.competitor
    supply = inst.prices.supply_cost
    profiles = [comp.copy(),
                np.minimum(comp, np.maximum(0.0, 0.5 * (comp + supply)))]
    upper = system.skeleton.upper.copy()
    upper[system.window_cols[DEVICE_FAMILIES.index("xb")]] = 0.0
    upper[system.slot_cols["xbs"]] = 0.0
    points = []
    for prof in profiles:
        if pinned_prices:
            prof = prof.copy()
            for h, v in pinned_prices.items():
                prof[h] = v
        lp = build_follower_lp(inst, prof, system).with_bounds(
            system.skeleton.lower, upper)
        try:
            sol, _, _ = solve_follower(lp, backend=backend)
        except RuntimeError:
            continue
        d_pos = sol.duals * system.row_sign        # paper-positive multipliers
        pv, dv = _pair_values(mpcc, sol.x, d_pos, prof)
        delta = (pv > 1e-7).astype(float)
        conflict = (pv > 1e-7) & (dv > 1e-7)
        if conflict.any():
            continue
        full = np.zeros(model.lp.n_vars)
        full[: layout.n_slots] = prof
        full[layout.primal_off: layout.primal_off + system.n_vars] = sol.x
        full[layout.dual_off: layout.dual_off + system.n_rows] = d_pos
        full[model.binary_idx] = delta[mpcc.switched]
        if not verify_milp_solution(model, full, tol=1e-6):
            points.append(full)
    return points


def _polish_incumbent(solver, model: MilpModel, layout: _MilpLayout,
                      mpcc: MpccSystem, result: MilpResult) -> MilpResult | None:
    """Re-solve with switches fixed at their rounded values, then pick the
    minimal-multiplier point among the alternate optima.

    The first LP removes any slack that MIP tolerances scaled by big-M rows
    let through; the second minimizes total multiplier magnitude (free
    equality multipliers included, via absolute-value splits) at the optimal
    objective, so degenerate multipliers do not ride their M and trip the
    audit.  Returns None when even the fixed-switch LP is infeasible, i.e.
    the incumbent was an artifact of solver tolerances.
    """
    lp = model.lp
    binaries = model.binary_idx
    rounded = np.round(result.x[binaries])
    lo = lp.lower.copy()
    up = lp.upper.copy()
    lo[binaries] = rounded
    up[binaries] = rounded
    fixed = lp.with_bounds(lo, up)
    s1 = solver.solve_lp(fixed)
    if s1.status is not Status.OPTIMAL:
        return None
    fstar = float(s1.objective)
    x_best = s1.x

    n = lp.n_vars
    eq = mpcc.system.skeleton.sense == EQ
    dual_cols = layout.dual_off + np.arange(len(eq))
    shrink = np.zeros(n)
    shrink[dual_cols[~eq]] = 1.0
    eq_cols = dual_cols[eq]
    n_aux = len(eq_cols)
    hold_sense = GE if lp.maximize else LE

    def shrink_lp(hold_rhs: float) -> LinearProgram:
        base = sp.vstack([fixed.a_rows, sp.csr_matrix(lp.obj.reshape(1, -1))],
                         format="csr")
        sense2 = np.append(fixed.sense, hold_sense)
        rhs2 = np.append(fixed.rhs, hold_rhs)
        obj2, lower2, upper2 = shrink, fixed.lower, fixed.upper
        if n_aux:
            # aux_i >= |d_eq_i| rows: aux - d >= 0 and aux + d >= 0
            rows_i = np.repeat(np.arange(2 * n_aux), 2)
            aux = n + np.arange(n_aux)
            cols = np.column_stack([aux, eq_cols, aux, eq_cols]).ravel()
            vals = np.tile([1.0, -1.0, 1.0, 1.0], n_aux)
            abs_block = sp.coo_matrix((vals, (rows_i, cols)),
                                      shape=(2 * n_aux, n + n_aux)).tocsr()
            base = sp.hstack([base, sp.csr_matrix((base.shape[0], n_aux))],
                             format="csr")
            base = sp.vstack([base, abs_block], format="csr")
            sense2 = np.append(sense2, np.full(2 * n_aux, GE, dtype=object))
            rhs2 = np.append(rhs2, np.zeros(2 * n_aux))
            obj2 = np.concatenate([shrink, np.ones(n_aux)])
            lower2 = np.concatenate([fixed.lower, np.zeros(n_aux)])
            upper2 = np.concatenate([fixed.upper, np.full(n_aux, np.inf)])
        return LinearProgram(n_vars=base.shape[1], obj=obj2, lower=lower2,
                             upper=upper2, a_rows=base, sense=sense2, rhs=rhs2,
                             maximize=False)

    s2 = solver.solve_lp(shrink_lp(fstar))      # hold the optimum exactly
    if s2.status is not Status.OPTIMAL:
        slack = (-1 if lp.maximize else 1) * 1e-9 * (1.0 + abs(fstar))
        s2 = solver.solve_lp(shrink_lp(fstar + slack))
    if s2.status is Status.OPTIMAL:
        x_best = s2.x[:n]
    obj = float(lp.obj @ x_best)
    gap = abs(obj - result.bound) / max(1.0, abs(obj)) \
        if np.isfinite(result.bound) else result.rel_gap
    return replace(result, x=x_best, objective=obj, rel_gap=gap)


def solve_bilevel(instance: Instance, config: BigMConfig | None = None,
                  opts: SolveOptions | None = None, *,
                  backend: str | None = None,
                  pinned_prices: dict[int, float] | None = None,
                  max_retries: int = 3) -> BilevelSolution:
    """Optimistic pricing optimum via the big-M MILP, with audited M escalation.

    Every returned solution has a clean audit.  When a limit stops the MILP
    without an incumbent, the best operator point of ``_fallback_points``
    stands in for it, with the MILP's status and bound.  Raises
    ``UncertifiedOptimum`` when escalation ends with multipliers still at
    their M, and ``BilevelInfeasible`` when neither the MILP nor the fallback
    gives an incumbent.
    """
    report = validate(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {[v.code for v in report]}")
    opts = opts or SolveOptions()
    system = build_follower_system(instance)
    mpcc = build_mpcc(instance, system)
    cfg = config or default_big_m(mpcc)

    solver = get_backend(backend)
    best: BilevelSolution | None = None
    deadline = time.monotonic() + opts.time_limit   # budget covers all retries
    for attempt in range(max_retries + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0.5 and attempt > 0:
            if best is not None:
                raise UncertifiedOptimum(best, "time budget exhausted")
            raise BilevelInfeasible(
                f"time budget exhausted after {attempt} attempts")
        attempt_opts = replace(opts, time_limit=max(remaining, 0.5))
        model, layout = _linearize(mpcc, cfg, pinned_prices)
        result = solver.solve_milp(model, attempt_opts)
        if result.status is Status.INFEASIBLE:
            # undersized multiplier caps can choke the whole system; larger M
            # only enlarges it, so escalation is the right reflex here too
            if attempt < max_retries:
                cfg = cfg.escalate()
                continue
            raise BilevelInfeasible(
                "single-level model infeasible: inconsistent instance or"
                " undersized M")
        if result.x is None and result.status in (Status.TIME_LIMIT,
                                                  Status.NODE_LIMIT):
            points = _fallback_points(mpcc, layout, model, pinned_prices, backend)
            if points:
                x = max(points, key=lambda point: float(model.lp.obj @ point))
                result = replace(result, x=x, objective=float(model.lp.obj @ x))
        if result.x is None:
            raise BilevelInfeasible(
                f"no incumbent within limits (status {result.status})")
        polished = _polish_incumbent(solver, model, layout, mpcc, result)
        solution = None
        if polished is not None:
            try:
                solution = extract_bilevel(mpcc, layout, polished)
            except ExtractionMismatch:
                solution = None
        if solution is not None:
            solution.retries = attempt
            solution.audit = audit_big_m(solution, cfg)
            if solution.audit.clean:
                return solution
            # enlarging M only enlarges the feasible set, so a retry that does
            # not improve the objective added nothing: stop escalating
            if best is not None and solution.leader_objective \
                    <= best.leader_objective + 1e-9 * (1 + abs(best.leader_objective)):
                raise UncertifiedOptimum(best, "a larger M did not move the profit")
            if attempt == max_retries:
                raise UncertifiedOptimum(solution, f"risky after {attempt} escalations")
            best = solution
        elif best is not None:
            raise UncertifiedOptimum(best, "a larger M gave no exact incumbent")
        elif attempt == max_retries:
            raise BilevelInfeasible(
                "no tolerance-exact incumbent recoverable; consider a tighter"
                " backend or larger explicit big-M values")
        cfg = cfg.escalate()
    raise RuntimeError("unreachable: the last attempt returns or raises")
