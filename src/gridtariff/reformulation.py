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
  at slots without generation, the battery without storage);
- rows that repeat their column's bound ``v >= 0``
  (``FollowerSystem.repeats_bound``): their multiplier is fixed at 0 and the
  column's pair carries the complementarity;
- competitor purchases (``FollowerSystem.competitor_cols``), fixed at 0
  because the leader's purchases do the same at a price never higher.

Every other pair carries its own switch.  Strong duality then lets the
bilinear revenue terms in the supplier objective be replaced by the
multiplier objective minus the price-independent cost terms, which is what
the MILP maximizes.

The operator LP enters only through ``FollowerSystem``'s arrays: the MILP is
assembled from the skeleton's matrix in blocks (``linearize``), and no
row-by-row copy of the LP is kept.  The LPs solved after the MILP take
their arrays from it: the fallback's operator LPs its column bounds, the
shrink LP its rows.  This module names no row or column family of it.

A pair's primal-side M is always its structural bound
(``MpccSystem.primal_bound``: ``FollowerSystem.slack_upper`` per row, the
skeleton's column bounds ``skeleton.upper``), implied by the constraints, so
a pair value hitting it never truncates the optimum.  The one M setting is
the multiplier M ``dual_m``, a scalar shared by every pair: it defaults to
``default_dual_m`` and ``solve_bilevel`` doubles it when the post-solve audit
flags a multiplier at it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .follower import (FollowerSolution, FollowerSystem, build_follower_lp,
                       build_follower_system, extract_solution, leader_profit,
                       solve_follower)
from .model import Instance, validate
from .solver import (EQ, GE, LE, LinearProgram, MilpModel, MilpResult,
                     SolveOptions, Status, get_backend, relative_gap)

DEFAULT_DUAL_M = 1e5
_AT_M_MARGIN = 1e-6        # a pair side within this share of its M is at it
_EXTRACT_TOL = 1e-5        # relative model-vs-direct profit mismatch allowed
MAX_ESCALATIONS = 3        # multiplier-M doublings one solve may try

# Why a pair carries no switch (``MpccSystem.rule``); see ``_switch_rules``.
SWITCHED, ZERO_CAPACITY, DUPLICATE_FLOOR, DOMINATED_PURCHASE = range(4)


class BilevelInfeasible(RuntimeError):
    """The single-level model is infeasible: bad instance or M too small."""


class LimitWithoutIncumbent(BilevelInfeasible):
    """A time or node limit ended the solve before any incumbent was found:
    the one ``BilevelInfeasible`` that more time may cure."""


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
    polish_lps: int = 0        # LPs the polish solved: 0, or 1-2 for the shrink LP


# -- construction ------------------------------------------------------------


def build_mpcc(instance: Instance, system: FollowerSystem | None = None) -> MpccSystem:
    """Pair every inequality row and nonnegative column with its multiplier,
    and classify which pairs need a switch (``_switch_rules``)."""
    system = system or build_follower_system(instance)
    ineq = np.flatnonzero(system.skeleton.sense != EQ)
    bound = np.concatenate([system.slack_upper[ineq], system.skeleton.upper])
    return MpccSystem(system, np.concatenate([ineq, np.arange(system.n_vars)]),
                      bound, _switch_rules(system, ineq, bound))


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
    (``FollowerSystem.slack_upper`` and ``skeleton.upper``), so the primal
    side is 0 at every feasible point and the product with any multiplier
    vanishes: switch value 0.

    ``DUPLICATE_FLOOR``: a row of ``FollowerSystem.repeats_bound`` reads
    ``v >= 0``, the bound of its only column ``v``.  Its multiplier ``mu`` is
    fixed at 0, which keeps every operator optimum: if optimal multipliers
    have ``mu > 0``, then ``v = 0`` by complementarity, and moving ``mu``
    into the reduced cost of ``v`` (coefficient 1) keeps that reduced cost
    nonnegative and complementary to ``v = 0``; the multiplier objective is
    unchanged because the row's right-hand side is 0.  The pair of the
    column ``v`` then carries the complementarity: switch value 1.  (Under
    a finite multiplier M, the reduced cost with ``mu`` moved into it must
    also stay below the column's M.)

    ``DOMINATED_PURCHASE``: a competitor purchase ``v``
    (``FollowerSystem.competitor_cols``) has the same matrix column as its
    leader twin and costs ``prob * (pbar - p) >= 0`` more, since prices never
    exceed the tariff.  Moving its amount onto the twin keeps every row (the
    twin's bound is implied by the same rows) and does not raise the
    operator's cost, so the result is optimal too, with
    the same multipliers: a positive purchase has zero reduced cost, and the
    twin's reduced cost, lower by ``prob * (pbar - p)``, cannot be negative,
    so it is zero as well.  The costs tie only where ``p = pbar`` or
    ``prob = 0``, and there the move changes the leader's profit by
    ``prob * (pbar - K) * v >= 0`` because ``validate`` ensures
    ``pbar > K``.  So the optimistic optimum survives fixing the column at 0,
    which makes its primal side 0 (switch value 0); the column and its
    multiplier-feasibility row stay in the model.
    """
    n_ineq = len(ineq)
    purchase = np.zeros(system.n_vars, dtype=bool)
    purchase[system.competitor_cols] = True
    rule = np.full(len(primal_bound), SWITCHED, dtype=np.int8)
    rule[:n_ineq][system.repeats_bound[ineq]] = DUPLICATE_FLOOR
    rule[n_ineq:][purchase] = DOMINATED_PURCHASE
    rule[primal_bound <= 0.0] = ZERO_CAPACITY           # the first rule wins
    return rule


def default_dual_m(mpcc: MpccSystem) -> float:
    """The multiplier M a solve starts from: a large scalar, scaled by
    ``FollowerSystem.multiplier_scale`` and audited after the solve."""
    return min(DEFAULT_DUAL_M, 1e3 * mpcc.system.multiplier_scale)


def linearize(mpcc: MpccSystem, dual_m: float,
              pinned_prices: dict[int, float] | None = None) -> MilpModel:
    """Big-M MILP for the single-level pricing problem (maximization), over
    columns ``[p | primal | multipliers | switches]`` (``_split_point``).

    Every block is the skeleton matrix ``A``, its sign-adjusted transpose
    ``(diag(row_sign) A)^T`` or rows of either: primal feasibility ``A``;
    multiplier feasibility ``sum_i sgn_i a_ij d_i - prob_j p_slot(j) <= c0_j``;
    then per pair ``a <= M_a * delta`` (``comp_p``) and
    ``b <= M_b * (1 - delta)`` (``comp_d``), where ``M_a`` is the pair's
    ``mpcc.primal_bound`` and ``M_b`` is ``dual_m`` for every pair.  A pair
    without a switch has delta fixed at its implied value
    (``_switch_rules``): its ``comp_p`` row holds by the bounds and is left
    out, and its multiplier cap is a column bound for a row pair and a
    ``comp_d`` row for a column pair.  Raises ``ValueError`` unless
    ``dual_m`` is finite and positive.
    """
    if not 0.0 < dual_m < np.inf:
        raise ValueError(f"the multiplier M must be finite and positive, not {dual_m}")
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
            if not (-1e-9 <= v <= comp[h] + 1e-9):
                raise ValueError(f"pinned price {v} at slot {h} outside [0, {comp[h]}]")
            p_lo[h] = p_up[h] = min(max(v, 0.0), float(comp[h]))

    linked = np.flatnonzero(system.price_slot >= 0)      # the leader's sales
    obj_primal = -system.c0
    obj_primal[linked] -= system.price_prob[linked] * supply[system.price_slot[linked]]
    col_upper = system.skeleton.upper.copy()
    col_upper[mpcc.rule[n_ineq:] == DOMINATED_PURCHASE] = 0.0
    dual_upper = np.full(m, np.inf)
    fixed = np.flatnonzero(mpcc.rule[:n_ineq] != SWITCHED)
    dual_upper[ineq[fixed]] = dual_m * (1.0 - mpcc.implied_delta[fixed])

    a = skel.a_rows
    signed = sp.csr_matrix((np.repeat(row_sign, np.diff(a.indptr)) * a.data,
                            a.indices, a.indptr), shape=a.shape)   # rows as >= or =
    signed_t = signed.T.tocsr()
    price = sp.csr_matrix((system.price_prob[linked],
                           (linked, system.price_slot[linked])), shape=(n, n_slots))
    pick = sp.csr_matrix((np.ones(n_ineq), ineq, np.arange(n_ineq + 1)),
                         shape=(n_ineq, m))                 # the multipliers of row pairs
    cols = (switched, np.arange(n_sw))                      # each switched pair's M
    big_p = sp.csr_matrix((-mpcc.primal_bound[switched], cols), shape=(n_pairs, n_sw))
    big_d = sp.csr_matrix((np.full(n_sw, dual_m), cols), shape=(n_pairs, n_sw))
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
                               np.full(n_ineq, dual_m), dual_m - system.c0])
    # interleave per pair: comp_p if switched, then comp_d if switched or a column
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
    lp.validate()
    return MilpModel(lp, np.arange(n_slots + n + m, lp.n_vars, dtype=np.int64))


# -- extraction and audit ------------------------------------------------------


def _pair_values(mpcc: MpccSystem, primal: np.ndarray, dual: np.ndarray,
                 prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of every pair: the slack ``row_sign * (A x - rhs)`` and
    multiplier of each inequality row, then the value and reduced cost
    ``c(p) - (diag(row_sign) A)^T dual`` of each column."""
    system = mpcc.system
    a = system.skeleton.a_rows
    reduced = system.objective(prices) - a.T @ (system.row_sign * dual)
    return (_primal_sides(mpcc, primal),
            np.concatenate([dual[mpcc.ineq_rows], reduced]))


def _primal_sides(mpcc: MpccSystem, primal: np.ndarray) -> np.ndarray:
    """The primal side of every pair: the slack ``row_sign * (A x - rhs)`` of
    each inequality row, then the value of each column."""
    system = mpcc.system
    skel = system.skeleton
    slack = system.row_sign * (skel.a_rows @ primal - skel.rhs)
    return np.concatenate([slack[mpcc.ineq_rows], primal])


def _split_point(mpcc: MpccSystem, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Prices, primal columns, multipliers and switches of a MILP point
    (views)."""
    system = mpcc.system
    primal_off = system.instance.n_slots
    dual_off = primal_off + system.n_vars
    delta_off = dual_off + system.n_rows
    return (x[:primal_off], x[primal_off:dual_off], x[dual_off:delta_off],
            x[delta_off:])


def extract_bilevel(mpcc: MpccSystem, result: MilpResult,
                    dual_m: float) -> BilevelSolution:
    """The solution at an exact MILP point, audited at multiplier M ``dual_m``.
    Raises ``ExtractionMismatch`` when the MILP objective and the direct
    profit disagree; no M causes that, since strong duality holds at any M
    once the switches fix complementarity."""
    system = mpcc.system
    inst = system.instance
    prices, primal, dual, switches = _split_point(mpcc, result.x)
    prices = prices.copy()
    binaries = mpcc.implied_delta
    binaries[mpcc.switched] = switches

    follower_obj = float(system.objective(prices) @ primal)
    fsol = extract_solution(system, primal, follower_obj)
    profit = leader_profit(inst, prices, fsol)
    model_obj = float(result.objective)
    if abs(model_obj - profit) > _EXTRACT_TOL * (1.0 + abs(model_obj)):
        raise ExtractionMismatch(
            f"strong-duality objective {model_obj} vs direct profit {profit}")

    pair_values = _pair_values(mpcc, primal, dual, prices)
    return BilevelSolution(
        prices=prices, follower=fsol, binaries=binaries,
        leader_objective=profit, follower_objective=follower_obj,
        mip_gap=float(result.rel_gap), status=result.status,
        audit=audit_big_m(mpcc, pair_values, dual_m),
        pair_values=pair_values, milp=result)


def audit_big_m(mpcc: MpccSystem, pair_values: tuple[np.ndarray, np.ndarray],
                dual_m: float) -> AuditReport:
    """Flag pair sides at or beyond (1 - _AT_M_MARGIN) of their M, by pair
    and the primal side first.  Primal flags are structural (their M is the
    proven bound ``mpcc.primal_bound``); multiplier flags are risky: a larger
    ``dual_m`` might move the optimum."""
    pv, dv = pair_values
    bound = mpcc.primal_bound
    primal = (bound > 0) & (pv >= (1.0 - _AT_M_MARGIN) * bound)
    dual = dv >= (1.0 - _AT_M_MARGIN) * dual_m
    flags: list[AuditFlag] = []
    for k in np.flatnonzero(primal | dual):
        k = int(k)
        if primal[k]:
            flags.append(AuditFlag(k, "primal", float(pv[k]), float(bound[k]), True))
        if dual[k]:
            flags.append(AuditFlag(k, "dual", float(dv[k]), float(dual_m), False))
    return AuditReport(flags, float(pv.max(initial=0.0)), float(dv.max(initial=0.0)))


# -- solve --------------------------------------------------------------------


def _fallback_patterns(mpcc: MpccSystem, model: MilpModel,
                       backend: str | None) -> list[np.ndarray]:
    """Switch patterns of operator optima at two price profiles: the
    competitor tariff and the midpoint between it and the supply cost, each
    clipped to the MILP's price bounds, which hold its pinned prices.

    A switched pair's switch is 1 where the optimum's primal side is
    positive.  Each pattern is returned as a MILP point that is 0 but for its
    switches, for ``model.fixed_at``: the LP at those switches optimizes the
    prices, the schedule and its multipliers together, so its optimum is an
    exact incumbent whose objective is the leader's profit.  The operator
    LPs take the MILP's own column bounds, which fix the competitor
    purchases at 0 (the ``DOMINATED_PURCHASE`` rule of ``_switch_rules``)
    and keep the operator's optimal value; where a price ties with the
    tariff, an unbounded purchase would give a pattern that the MILP cannot
    hold.
    """
    system = mpcc.system
    inst = system.instance
    comp = inst.prices.competitor
    price_lo, col_lo = _split_point(mpcc, model.lp.lower)[:2]
    price_up, col_up = _split_point(mpcc, model.lp.upper)[:2]
    patterns = []
    for profile in (comp, 0.5 * (comp + inst.prices.supply_cost)):
        lp = build_follower_lp(inst, np.clip(profile, price_lo, price_up), system)
        sol, _, _ = solve_follower(lp.with_bounds(col_lo, col_up), backend=backend)
        point = np.zeros(model.lp.n_vars)
        point[model.binary_idx] = _primal_sides(mpcc, sol.x)[mpcc.switched] > 1e-7
        patterns.append(point)
    return patterns


def _polish_incumbent(solver, model: MilpModel, mpcc: MpccSystem,
                      result: MilpResult) -> tuple[MilpResult | None, int]:
    """The minimal-multiplier point among the exact incumbent's alternate
    optima at the same switches.

    The shrink LP minimizes total multiplier magnitude at the optimal
    objective, so degenerate multipliers do not ride their M and trip the
    audit; ``solve_bilevel`` runs it only when the audit flags one that
    does.  Its columns are the MILP's and one ``aux_i`` per equality row
    ``i``; its rows are ``model.fixed_at`` at the incumbent, the hold row
    ``obj x >= f*`` (``<=`` when minimizing) and the split
    ``aux_i - d_i >= 0``, ``aux_i + d_i >= 0`` of each free multiplier
    ``d_i``; it minimizes the inequality multipliers plus ``sum aux``.  When
    it has no optimum, a retry moves the hold row alone by
    ``1e-9 (1 + |f*|)`` towards feasibility.  Returns the polished result,
    or ``None`` when neither LP has an optimum, and the number of LPs
    solved: 1, or 2 with the retry.
    """
    lp = model.lp
    fixed = model.fixed_at(result.x)
    fstar = float(result.objective)
    n = lp.n_vars
    eq = mpcc.system.skeleton.sense == EQ
    dual_cols = _split_point(mpcc, np.arange(n))[2]
    n_aux = int(eq.sum())
    shrink = np.zeros(n)
    shrink[dual_cols[~eq]] = 1.0
    one_each = np.arange(2 * n_aux + 1)          # one entry per split row
    split_d = sp.csr_matrix((np.tile([-1.0, 1.0], n_aux),
                             np.repeat(dual_cols[eq], 2), one_each),
                            shape=(2 * n_aux, n))
    split_aux = sp.csr_matrix((np.ones(2 * n_aux), np.repeat(np.arange(n_aux), 2),
                               one_each), shape=(2 * n_aux, n_aux))
    shrink_lp = LinearProgram(
        n_vars=n + n_aux,
        obj=np.concatenate([shrink, np.ones(n_aux)]),
        lower=np.concatenate([fixed.lower, np.zeros(n_aux)]),
        upper=np.concatenate([fixed.upper, np.full(n_aux, np.inf)]),
        a_rows=sp.bmat([[fixed.a_rows, None],
                        [sp.csr_matrix(lp.obj), None],        # the hold row
                        [split_d, split_aux]], format="csr"),
        sense=np.concatenate([fixed.sense, [GE if lp.maximize else LE],
                              np.full(2 * n_aux, GE, dtype=object)]),
        rhs=np.concatenate([fixed.rhs, [fstar], np.zeros(2 * n_aux)]),
        maximize=False)

    s2 = solver.solve_lp(shrink_lp)              # hold the optimum exactly
    n_lps = 1
    if s2.status is not Status.OPTIMAL:
        rhs = shrink_lp.rhs.copy()
        rhs[lp.n_rows] += (-1 if lp.maximize else 1) * 1e-9 * (1.0 + abs(fstar))
        s2 = solver.solve_lp(replace(shrink_lp, rhs=rhs))
        n_lps = 2
    if s2.status is not Status.OPTIMAL:
        return None, n_lps
    x = s2.x[:n]
    obj = float(lp.obj @ x)
    return replace(result, x=x, objective=obj,
                   rel_gap=relative_gap(obj, result.bound)), n_lps


def solve_bilevel(instance: Instance, opts: SolveOptions | None = None, *,
                  backend: str | None = None,
                  pinned_prices: dict[int, float] | None = None,
                  dual_m: float | None = None) -> BilevelSolution:
    """Optimistic pricing optimum via the big-M MILP, with audited M escalation.

    One attempt: solve the MILP, whose incumbent is exact at its switches
    (``MilpResult``); if a limit left none, re-solve every
    ``_fallback_patterns`` pattern at ``model.fixed_at`` instead and take the
    best optimal one, with the MILP's status and bound; extract it with its
    audit; only if a multiplier is at its M, polish it
    (``_polish_incumbent``) and re-extract.  A clean audit returns.  A risky
    audit, an infeasible MILP or an optimal one without an exact incumbent
    doubles the multiplier M ``dual_m`` (default ``default_dual_m``), at
    most ``MAX_ESCALATIONS`` times, and then raises ``UncertifiedOptimum``
    or ``BilevelInfeasible``; a limit that leaves no incumbent, the
    fallback's included, raises ``LimitWithoutIncumbent``.
    ``ExtractionMismatch`` and the fallback's operator-LP errors propagate:
    no M causes them.
    """
    report = validate(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {[v.code for v in report]}")
    opts = opts or SolveOptions()
    system = build_follower_system(instance)
    mpcc = build_mpcc(instance, system)
    if dual_m is None:
        dual_m = default_dual_m(mpcc)

    solver = get_backend(backend)
    best: BilevelSolution | None = None
    deadline = time.monotonic() + opts.time_limit   # budget covers all escalations
    for attempt in range(MAX_ESCALATIONS + 1):
        remaining = deadline - time.monotonic()
        if remaining <= 0.5 and attempt > 0:
            if best is not None:
                raise UncertifiedOptimum(best, "time budget exhausted")
            raise LimitWithoutIncumbent(
                f"time budget exhausted after {attempt} attempts")
        model = linearize(mpcc, dual_m, pinned_prices)
        result = solver.solve_milp(
            model, replace(opts, time_limit=max(remaining, 0.5)))
        if result.x is None and result.status in (Status.TIME_LIMIT,
                                                  Status.NODE_LIMIT):
            exact = [solver.solve_lp(model.fixed_at(x))
                     for x in _fallback_patterns(mpcc, model, backend)]
            exact = [sol for sol in exact if sol.status is Status.OPTIMAL]
            if exact:
                top = max(exact, key=lambda sol: sol.objective)
                result = replace(result, x=top.x, objective=top.objective,
                                 rel_gap=relative_gap(top.objective, result.bound))
        if result.x is None:
            if result.status not in (Status.OPTIMAL, Status.INFEASIBLE):
                raise LimitWithoutIncumbent(
                    f"no incumbent within limits (status {result.status.value})")
            # undersized multiplier caps can cut off every exact point, or
            # the whole system; a larger M only enlarges the feasible set
            if best is not None:
                raise UncertifiedOptimum(best, "a larger M gave no exact incumbent")
            if attempt == MAX_ESCALATIONS:
                raise BilevelInfeasible(
                    f"no tolerance-exact incumbent recoverable (MILP"
                    f" {result.status.value}): inconsistent instance or"
                    " undersized M; consider a larger `dual_m`")
        else:
            solution = extract_bilevel(mpcc, result, dual_m)
            polish_lps = 0
            if not solution.audit.clean:
                polished, polish_lps = _polish_incumbent(solver, model, mpcc, result)
                if polished is not None:
                    solution = extract_bilevel(mpcc, polished, dual_m)
            solution.retries, solution.polish_lps = attempt, polish_lps
            if solution.audit.clean:
                return solution
            # enlarging M only enlarges the feasible set, so an escalation
            # that does not improve the objective added nothing: stop
            if best is not None and solution.leader_objective \
                    <= best.leader_objective + 1e-9 * (1 + abs(best.leader_objective)):
                raise UncertifiedOptimum(best, "a larger M did not move the profit")
            if attempt == MAX_ESCALATIONS:
                raise UncertifiedOptimum(solution, f"risky after {attempt} escalations")
            best = solution
        dual_m *= 2.0
    raise RuntimeError("unreachable: the last attempt returns or raises")
