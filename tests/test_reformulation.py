"""Single-level MILP: construction, big-M switching, solve, extraction, audit."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gridtariff import reformulation
from gridtariff.follower import (build_follower_lp, build_follower_system,
                                 evaluate_schedule, extract_solution,
                                 leader_profit, solve_follower)
from gridtariff.generator import (generate_instance, generate_mini_instance,
                                  generate_week_instance)
from gridtariff.model import Battery, Device, TimeWindow
from gridtariff.reformulation import (DOMINATED_PURCHASE, DUPLICATE_FLOOR,
                                      SWITCHED, ZERO_CAPACITY,
                                      BilevelInfeasible, ExtractionMismatch,
                                      LimitWithoutIncumbent, MpccSystem,
                                      UncertifiedOptimum,
                                      audit_big_m, build_mpcc, default_dual_m,
                                      extract_bilevel, _fallback_patterns,
                                      _pair_values, _shrink_lp, _split_point,
                                      linearize, solve_bilevel)
from gridtariff.reports import solution_to_dict
from gridtariff.rolling import RhConfig, RhTrajectory, make_subinstance
from gridtariff.scenario import (BaseScenario, flat_tree, single_path_tree,
                                 uniform_selector)
from gridtariff.solver import (EQ, LE, LpSolution, MilpResult, SolveOptions,
                               SolverError, Status, get_backend, solve_lp,
                               solve_milp, verify_milp_solution)
from gridtariff.solver import backends
from gridtariff.solver.bnb import NodeLp

from conftest import (DESK_SHAPE, OptimisticResponder, assert_same_lp,
                      audit_loop, grid_oracle, make_t1, random_tiny_instance,
                      reference_follower, reference_linearize,
                      reference_shrink_lp)

# perfbench's desk-bundled roster, and the desk seeds it leaves out as slow
DESK_ROSTER = (1, 4, 7, 9, 13, 21)
DESK_SLOW = (5, 12, 20, 25, 35)


def _tag_loop_classification(ref):
    """Pair refs, structural bounds and switch rules read label by label from
    the reference operator LP, whose column bounds its labels give: the
    per-pair reference for ``build_mpcc``'s array classification."""
    inst, bat = ref.instance, ref.instance.battery
    upper = ref.lp.upper.tolist()
    refs, bound, rule = [], [], []
    skel = ref.lp
    for i, tag in enumerate(ref.row_tags):
        if skel.sense[i] == EQ:
            continue
        fam = tag[0]
        if fam == "demand_min":
            dev = inst.devices[tag[2]]
            b = len(dev.window) * dev.max_power - dev.energy_demand
        elif fam == "power_cap":
            b = inst.devices[tag[2]].max_power
        elif fam in ("batt_floor", "batt_ceiling"):
            b = bat.max_level - bat.min_level
        elif fam == "draw_cap":
            b = max(bat.max_level, bat.initial)
        else:
            assert fam == "dg_cap"
            b = skel.rhs[i]
        refs.append(i)
        bound.append(b)
        rule.append(ZERO_CAPACITY if b <= 0 else DUPLICATE_FLOOR
                    if fam == "batt_floor" and bat.min_level == 0.0 else SWITCHED)
    for j, tag in enumerate(ref.var_tags):
        refs.append(j)
        bound.append(upper[j])
        rule.append(ZERO_CAPACITY if upper[j] <= 0 else DOMINATED_PURCHASE
                    if tag[0] in ("xb", "xbs") else SWITCHED)
    return refs, upper, bound, rule


class TestBuildMpcc:
    def test_pair_count_is_inequalities_plus_variables(self, t1):
        mpcc = build_mpcc(t1)
        n_ineq = int((mpcc.system.skeleton.sense != EQ).sum())
        assert mpcc.n_pairs == n_ineq + mpcc.system.n_vars

    @pytest.mark.parametrize("make", [
        make_t1, lambda: make_t1(C=(0.0, 0.0)),
        lambda: generate_instance(1, **DESK_SHAPE),
        lambda: generate_instance(9, **DESK_SHAPE),
        lambda: generate_mini_instance(5, n_bases=3),
        *[lambda k=k: random_tiny_instance(
            np.random.default_rng(k), n_slots=1 + k % 3, n_devices=k % 3,
            n_scenarios=1 + k % 2, battery=k % 2 == 1, generation=k % 3 > 0)
          for k in range(6)]])
    def test_classification_matches_tag_loop(self, make):
        inst = make()
        mpcc = build_mpcc(inst)
        refs, upper, bound, rule = _tag_loop_classification(reference_follower(inst))
        np.testing.assert_array_equal(mpcc.pair_ref, refs)
        np.testing.assert_array_equal(mpcc.system.skeleton.upper, upper)
        np.testing.assert_array_equal(mpcc.primal_bound, bound)
        np.testing.assert_array_equal(mpcc.rule, rule)

    def test_zero_capacity_battery_pairs_forced_tight(self, t1):
        # battery ceiling rows exist with zero structural slack
        mpcc = build_mpcc(t1)
        n_ineq = len(mpcc.ineq_rows)
        row_tags = reference_follower(t1).row_tags
        ceiling = [k for k, ref in enumerate(mpcc.pair_ref)
                   if k < n_ineq and row_tags[ref][0] == "batt_ceiling"]
        assert ceiling
        assert all(mpcc.primal_bound[k] == 0.0 for k in ceiling)

    def test_shared_column_stationarity_sees_both_leaves(self):
        inst = make_t1().replace(tree=flat_tree(
            [BaseScenario(0, np.array([0.0, 1.0])),
             BaseScenario(1, np.array([0.0, 2.0]))], 2))
        mpcc = build_mpcc(inst)
        ref = reference_follower(inst)
        skel = mpcc.system.skeleton
        j = ref.index[("x", 0, 0, 0)]
        assert ref.index[("x", 1, 0, 0)] == j
        assert len(set(ref.index.values())) == mpcc.system.n_vars
        rows = skel.a_rows.tocsc()[:, j].indices.tolist()
        # both leaves' demand rows and the one shared power cap
        assert {ref.row_tags[i] for i in rows} == {
            ("demand_min", 0, 0), ("demand_min", 1, 0), ("power_cap", 0, 0, 0)}
        # the one multiplier-feasibility row of column j (rows follow the
        # primal rows in column order) holds its price and those multipliers
        model = linearize(mpcc, default_dual_m(mpcc))
        dual_cols = _split_point(mpcc, np.arange(model.lp.n_vars))[2]
        stationarity = model.lp.a_rows[mpcc.system.n_rows + j]
        assert set(stationarity.indices.tolist()) \
            == {0} | {int(dual_cols[i]) for i in rows}

    def test_price_variable_only_in_dual_and_switch_rows(self, t1):
        # prices enter no primal row, and no switch row with a primal column
        # (comp_p rows bound a primal side, comp_d rows a multiplier side)
        mpcc = build_mpcc(t1)
        model = linearize(mpcc, default_dual_m(mpcc))
        lp = model.lp
        csc = lp.a_rows.tocsc()
        primal = lp.a_rows[:, _split_point(mpcc, np.arange(lp.n_vars))[1]]
        for h in range(t1.n_slots):
            rows = csc.indices[csc.indptr[h]: csc.indptr[h + 1]]
            assert rows.size and rows.min() >= mpcc.system.n_rows
            assert primal[rows].nnz == 0
            assert lp.obj[h] == 0.0


class TestLinearize:
    def test_positive_m_required(self, t1):
        for dual_m in (0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="multiplier M"):
                solve_bilevel(t1, dual_m=dual_m)

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda seed=seed: _desk(seed), id=f"desk{seed}")
          for seed in DESK_ROSTER],
        pytest.param(lambda: _rh_mini3_window(5), id="mini5x3-t0")])
    def test_primal_m_is_the_structural_bound(self, make):
        inst = make()
        mpcc = build_mpcc(inst)
        m = 2.0 * default_dual_m(mpcc)
        model = linearize(mpcc, m)
        switch = model.lp.a_rows.tocsc()[:, model.binary_idx]
        switch.sort_indices()
        # each switch column: -M_a in its comp_p row, then M_b in its comp_d row
        np.testing.assert_array_equal(np.diff(switch.indptr), 2)
        entries = switch.data.reshape(-1, 2)
        np.testing.assert_array_equal(entries[:, 0], -mpcc.primal_bound[mpcc.switched])
        np.testing.assert_array_equal(entries[:, 1], m)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), backend="scipy")
        primal = [f for f in sol.audit.flags if f.side == "primal"]
        assert primal
        for flag in primal:
            assert flag.structural and flag.limit == mpcc.primal_bound[flag.pair]

    def test_switch_semantics(self):
        # a pair (slack, dual) with slack 0.5 at optimum needs delta = 1
        inst = make_t1(C=(0.0, 0.0))
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        pv, dv = sol.pair_values
        active = pv > 1e-7
        assert np.all(sol.binaries[active] >= 0.5)
        assert np.all(dv[active] <= 1e-6)

    def test_objective_matches_direct_profit_at_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            inst = random_tiny_instance(rng, n_slots=2, n_devices=2,
                                        battery=True, generation=True)
            sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
            assert sol.milp.objective == pytest.approx(sol.leader_objective,
                                                       rel=1e-6, abs=1e-6)

    def test_no_devices_no_profit(self, t1):
        inst = t1.replace(devices=[])
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        assert sol.leader_objective == pytest.approx(0.0, abs=1e-9)


def _pins(inst):
    """Pins inside the price range, within 1e-9 outside either end, and at
    -0.0, which the bounds keep as the reference's ``max(v, 0.0)`` does."""
    comp = inst.prices.competitor
    return {0: 0.5 * comp[0], 1: -0.0, 3: -5e-10, 4: comp[4] + 5e-10,
            5: float(comp[5])}


class TestAssembly:
    """The array assembly writes the MILP and the shrink LP that scipy's
    block assembly (``conftest.reference_linearize``,
    ``reference_shrink_lp``) writes, byte for byte."""

    @pytest.mark.parametrize("make, pinned", [
        pytest.param(make_t1, False, id="t1"),
        *[pytest.param(lambda seed=seed: _desk(seed), False, id=f"desk{seed}")
          for seed in DESK_ROSTER],
        *[pytest.param(lambda seed=seed: _rh_mini3_window(seed), pinned,
                       id=f"mini{seed}x3-t0{'-pinned' if pinned else ''}")
          for seed in (5, 6, 14) for pinned in (False, True)],
        pytest.param(lambda: generate_week_instance(1, n_bases=1), False,
                     id="week1"),
    ])
    def test_same_bytes_as_block_assembly(self, make, pinned):
        inst = make()
        mpcc = build_mpcc(inst)
        pins = _pins(inst) if pinned else None
        rng = np.random.default_rng(7)
        for dual_m in (default_dual_m(mpcc), 1.5):
            model = linearize(mpcc, dual_m, pins)
            ref = reference_linearize(mpcc, dual_m, pins)
            assert_same_lp(model.lp, ref.lp)
            assert model.binary_idx.tobytes() == ref.binary_idx.tobytes()
            x = np.zeros(model.lp.n_vars)
            x[model.binary_idx] = rng.integers(0, 2, len(model.binary_idx))
            for fstar in (0.0, -3.25):
                assert_same_lp(_shrink_lp(model, mpcc, x, fstar),
                               reference_shrink_lp(model, mpcc, x, fstar))

    def test_polish_solves_the_reference_shrink_lp(self, monkeypatch):
        # desk seed 4's HiGHS incumbent rides its M, so the polish runs
        log = _CallLog("scipy")
        solve_bilevel(_desk(4), opts=SolveOptions(rel_gap=0.0),
                      backend=_register(monkeypatch, log))
        [(_, model, res)] = [call for call in log.calls if call[0] == "milp"]
        shrink = [call[1] for call in log.calls if call[0] == "lp"][0]
        assert_same_lp(shrink, reference_shrink_lp(
            model, build_mpcc(_desk(4)), res.x, float(res.objective)))


class TestSolveBilevel:
    def test_t1_zero_penalty_grid(self):
        inst = make_t1(C=(0.0, 0.0))
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        best, _ = grid_oracle(inst)
        # all demand shifts to the cheap-supply slot at the competitor price
        assert sol.leader_objective == pytest.approx(4.0, abs=1e-9)
        assert sol.leader_objective >= best - 1e-9

    def test_t1_discount_shifts_load(self):
        inst = make_t1()
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        best, best_prices = grid_oracle(inst)
        tol = 0.05 * float(inst.prices.competitor.max()) * inst.total_demand()
        assert abs(sol.leader_objective - best) <= tol + sol.mip_gap + 1e-9
        assert sol.leader_objective == pytest.approx(3.8, abs=1e-9)
        assert sol.prices[1] == pytest.approx(2.9, abs=1e-9)

    def test_single_slot_devices_no_shifting(self):
        devs = [Device("c", "a0", TimeWindow(0, 0), 2.0, 2.0, (0.0,)),
                Device("c", "a1", TimeWindow(1, 1), 1.5, 2.0, (0.0,))]
        inst = make_t1().replace(devices=devs)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        pbar, supply = inst.prices.competitor, inst.prices.supply_cost
        expected = 2.0 * (pbar[0] - supply[0]) + 1.5 * (pbar[1] - supply[1])
        assert sol.leader_objective == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(sol.prices, pbar, atol=1e-9)

    def test_kkt_soundness(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            inst = random_tiny_instance(rng, n_slots=3, n_devices=2,
                                        battery=bool(rng.integers(0, 2)),
                                        generation=True)
            sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
            system = build_follower_system(inst)
            lp = build_follower_lp(inst, sol.prices, system)
            resolved, _, _ = solve_follower(lp, system=system)
            assert resolved.objective == pytest.approx(
                sol.follower_objective, rel=1e-6, abs=1e-8)

    def test_dominance_over_competitor_profile(self):
        rng = np.random.default_rng(21)
        from conftest import OptimisticResponder
        for _ in range(4):
            inst = random_tiny_instance(rng, n_slots=3, n_devices=2,
                                        generation=bool(rng.integers(0, 2)))
            sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
            at_pbar = OptimisticResponder(inst).profit(inst.prices.competitor)
            assert sol.leader_objective >= at_pbar - sol.mip_gap - 1e-6

    def test_pinned_prices_respected(self, t1):
        sol = solve_bilevel(t1, opts=SolveOptions(rel_gap=0.0),
                            pinned_prices={0: 2.5})
        assert sol.prices[0] == pytest.approx(2.5, abs=1e-12)

    def test_pinned_price_out_of_bounds_rejected(self, t1):
        with pytest.raises(ValueError, match=r"pinned price 99.0 at slot 0 outside"):
            solve_bilevel(t1, pinned_prices={0: 99.0})

    @pytest.mark.parametrize("slot", [7, 2, -1, 0.5])
    def test_pin_outside_the_horizon_rejected(self, t1, slot):
        with pytest.raises(ValueError, match=rf"pinned price at slot {slot} outside"
                                             r" the horizon's slots 0\.\.1"):
            solve_bilevel(t1, pinned_prices={slot: 1.0, 0: 0.5})

    def test_invalid_instance_rejected(self, t1):
        bad = t1.replace(battery=Battery(5.0, 0.0, 1.0, 0.9, 0.9))
        with pytest.raises(ValueError):
            solve_bilevel(bad)

    def test_identical_bases_solve_like_one_base(self):
        # three all-zero bases share every node, so this is the one-base MILP
        sol = solve_bilevel(generate_mini_instance(1, n_bases=3),
                            opts=SolveOptions(time_limit=30), backend="scipy")
        assert sol.status is Status.OPTIMAL
        assert sol.leader_objective == pytest.approx(219.883676, abs=1e-6)

    def test_scipy_backend_matches(self):
        rng = np.random.default_rng(4)
        inst = random_tiny_instance(rng, n_slots=3, n_devices=2, battery=True)
        a = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        b = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), backend="scipy")
        assert b.leader_objective == pytest.approx(a.leader_objective,
                                                   rel=1e-6, abs=1e-6)


def _pair_tag(mpcc, ref, k) -> tuple:
    """The reference label of pair ``k``'s row or column."""
    if k < len(mpcc.ineq_rows):
        return ref.row_tags[mpcc.pair_ref[k]]
    return ref.var_tags[mpcc.pair_ref[k]]


def _zero_generation_slot():
    return make_t1().replace(tree=single_path_tree(np.array([0.0, 1.2])))


def _battery_floor_at_zero():
    return random_tiny_instance(np.random.default_rng(5), n_slots=2,
                                n_devices=2, battery=True, generation=True)


def _two_scenarios_with_battery():
    return random_tiny_instance(np.random.default_rng(11), n_slots=2,
                                n_devices=2, n_scenarios=2, battery=True)


def _sold_at_tariff():
    return make_t1(C=(0.0, 0.0))


class TestSwitchRules:
    """Pairs with a side that is always zero carry no switch, and the optimum
    stays the one the price grid finds."""

    @pytest.mark.parametrize("make", [_zero_generation_slot,
                                      _battery_floor_at_zero,
                                      _two_scenarios_with_battery,
                                      _sold_at_tariff])
    def test_optimum_matches_grid_oracle(self, make):
        inst = make()
        mpcc = build_mpcc(inst)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        best, _ = grid_oracle(inst)
        tol = 0.05 * float(inst.prices.competitor.max()) * inst.total_demand()
        assert sol.leader_objective >= best - 1e-9
        assert sol.leader_objective <= best + tol
        # the optimistic operator at the reported prices yields that profit
        assert OptimisticResponder(inst).profit(sol.prices) == pytest.approx(
            sol.leader_objective, rel=1e-6, abs=1e-6)

        # one entry per pair; pairs without a switch report what they imply
        pv, dv = sol.pair_values
        assert len(sol.binaries) == len(pv) == len(dv) == mpcc.n_pairs
        fixed = mpcc.rule != SWITCHED
        np.testing.assert_array_equal(sol.binaries[fixed],
                                      mpcc.implied_delta[fixed])
        primal_zero = (mpcc.rule == ZERO_CAPACITY) \
            | (mpcc.rule == DOMINATED_PURCHASE)
        assert np.abs(pv[primal_zero]).max(initial=0.0) <= 1e-9
        assert np.all(dv[mpcc.rule == DUPLICATE_FLOOR] == 0.0)

    def test_zero_generation_slot_triggers(self):
        inst = _zero_generation_slot()
        mpcc, ref = build_mpcc(inst), reference_follower(inst)
        tags = [_pair_tag(mpcc, ref, k) for k in range(mpcc.n_pairs)]
        lam = {tag[3]: rule for tag, rule in zip(tags, mpcc.rule) if tag[0] == "lam"}
        assert lam == {0: ZERO_CAPACITY, 1: SWITCHED}

    @pytest.mark.parametrize("make", [_battery_floor_at_zero,
                                      _two_scenarios_with_battery])
    def test_battery_floor_at_zero_triggers(self, make):
        inst = make()
        assert inst.battery.min_level == 0.0 < inst.battery.max_level
        mpcc, ref = build_mpcc(inst), reference_follower(inst)
        floors = [mpcc.rule[k] for k in range(mpcc.n_pairs)
                  if _pair_tag(mpcc, ref, k)[0] == "batt_floor"]
        assert floors and set(floors) == {DUPLICATE_FLOOR}
        model = linearize(mpcc, default_dual_m(mpcc))
        dual_cols = _split_point(mpcc, np.arange(model.lp.n_vars))[2]
        for i in mpcc.pair_ref[mpcc.rule == DUPLICATE_FLOOR]:
            assert model.lp.upper[dual_cols[i]] == 0.0
        # a positive floor is a row of its own and keeps its switch
        raised = build_mpcc(inst.replace(battery=Battery(
            0.1, 0.1, inst.battery.max_level, 0.9, 0.95)))
        assert not np.any(raised.rule == DUPLICATE_FLOOR)

    def test_sold_at_tariff_triggers(self):
        inst = _sold_at_tariff()
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
        sold = sol.follower.leader[0]
        at_tariff = np.isclose(sol.prices, inst.prices.competitor, atol=1e-9)
        assert np.any((sold > 1e-6) & at_tariff)
        mpcc, ref = build_mpcc(inst), reference_follower(inst)
        assert Counter(_pair_tag(mpcc, ref, k)[0]
                       for k in np.flatnonzero(mpcc.rule == DOMINATED_PURCHASE)) \
            == {"xb": 2}                    # no storage: xbs has zero capacity

    def test_week_counts(self):
        inst = generate_week_instance(1)
        mpcc, ref = build_mpcc(inst), reference_follower(inst)
        by_rule = {rule: Counter(_pair_tag(mpcc, ref, k)[0]
                                 for k in np.flatnonzero(mpcc.rule == rule))
                   for rule in (ZERO_CAPACITY, DUPLICATE_FLOOR,
                                DOMINATED_PURCHASE)}
        assert by_rule[ZERO_CAPACITY] == {"lam": 1288, "lams": 168,
                                          "dg_cap": 168}
        assert by_rule[DUPLICATE_FLOOR] == {"batt_floor": 336}
        assert by_rule[DOMINATED_PURCHASE] == {"xb": 2308, "xbs": 336}
        assert sum(sum(c.values()) for c in by_rule.values()) == 4604
        model = linearize(mpcc, default_dual_m(mpcc))
        assert len(model.binary_idx) == len(mpcc.switched) == 9745


class TestAudit:
    @staticmethod
    def _pairs(primal_bound):
        """Pairs with these structural primal bounds, which is all of an
        ``MpccSystem`` that the audit reads."""
        n = len(primal_bound)
        return MpccSystem(None, np.arange(n), np.asarray(primal_bound, float),
                          np.full(n, SWITCHED, dtype=np.int8))

    def test_clean_when_everything_midrange(self):
        rep = audit_big_m(self._pairs([10.0, 10.0]),
                          (np.array([5.0, 0.0]), np.array([0.0, 50.0])), 100.0)
        assert rep.clean and not rep.flags
        assert rep.max_primal == 5.0 and rep.max_dual == 50.0

    def test_dual_at_m_flagged(self):
        rep = audit_big_m(self._pairs([10.0]), (np.array([0.0]), np.array([100.0])),
                          100.0)
        assert not rep.clean
        assert rep.flags[0].side == "dual" and not rep.flags[0].structural

    def test_structural_primal_at_m_not_risky(self):
        rep = audit_big_m(self._pairs([10.0]), (np.array([10.0]), np.array([0.0])),
                          100.0)
        assert rep.clean                       # flagged but structural
        assert rep.flags and rep.flags[0].structural

    def test_t1_solved_audit_clean(self, t1):
        sol = solve_bilevel(t1, opts=SolveOptions(rel_gap=0.0))
        assert sol.audit is not None
        assert sol.audit.clean
        assert sol.retries == 0

    def test_escalation_recovers_from_tiny_m(self):
        inst = make_t1(C=(0.0, 0.0))
        # true multipliers reach the competitor price (3); doubling from 0.6
        # crosses that within the retry budget
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), dual_m=0.6)
        assert sol.leader_objective == pytest.approx(4.0, abs=1e-6)
        assert sol.retries >= 1

    def test_risky_last_attempt_raises_uncertified(self, monkeypatch):
        # true multipliers reach the competitor price (3): an M of 1.5 cuts
        # them off and the MILP optimum is 1.0, not 4.0
        inst = make_t1(C=(0.0, 0.0))
        with monkeypatch.context() as m, \
                pytest.raises(UncertifiedOptimum) as info:
            m.setattr(reformulation, "MAX_ESCALATIONS", 0)
            solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), dual_m=1.5)
        exc = info.value
        assert not isinstance(exc, BilevelInfeasible)
        assert exc.solution.leader_objective == pytest.approx(1.0, abs=1e-6)
        assert not exc.solution.audit.clean
        assert exc.flags == exc.solution.audit.risky
        assert exc.flags and not any(f.structural for f in exc.flags)
        # the same M with its escalation budget certifies the true optimum
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), dual_m=1.5)
        assert sol.leader_objective == pytest.approx(4.0, abs=1e-6)
        assert sol.audit.clean

    def test_hopelessly_tiny_m_raises(self, monkeypatch):
        inst = make_t1(C=(0.0, 0.0))
        monkeypatch.setattr(reformulation, "MAX_ESCALATIONS", 2)
        with pytest.raises(Exception):
            solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), dual_m=0.01)

    @staticmethod
    def _assert_matches_loop(mpcc, pair_values):
        """The vectorized audit gives the pair loop's report at the default
        M, and at primal caps cut to the pair values with the multiplier M
        at the median positive multiplier, which flag both sides of many
        pairs."""
        pv, dv = pair_values
        tight = replace(mpcc, primal_bound=np.where(pv > 0, pv, mpcc.primal_bound))
        for caps, m in ((mpcc, default_dual_m(mpcc)),
                        (tight, float(np.median(dv[dv > 0])))):
            report = audit_big_m(caps, pair_values, m)
            assert report == audit_loop(pair_values, caps.primal_bound, m)
        assert report.flags and not report.clean
        assert {flag.side for flag in report.flags} == {"primal", "dual"}

    @pytest.mark.parametrize("seed", DESK_ROSTER)
    def test_matches_the_pair_loop_on_the_desk_roster(self, seed):
        inst = _desk(seed)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), backend="bundled")
        self._assert_matches_loop(build_mpcc(inst), sol.pair_values)

    def test_matches_the_pair_loop_on_a_week_solve(self):
        inst = generate_week_instance(1, n_bases=3)
        mpcc = build_mpcc(inst)
        system = mpcc.system
        prices = inst.prices.competitor
        op, _, _ = solve_follower(build_follower_lp(inst, prices, system),
                                  backend="scipy")
        pv, dv = _pair_values(mpcc, op.x, op.duals * system.row_sign, prices)
        assert mpcc.n_pairs > 40_000
        self._assert_matches_loop(mpcc, (pv, dv))


def _desk(seed):
    return generate_instance(seed, **DESK_SHAPE)


def _rh_mini3_window(seed):
    """The first window instance of ``rh-mini3`` on 3-base mini ``seed``."""
    inst = generate_mini_instance(seed, n_bases=3)
    cfg = RhConfig(window=6, step=1, selector=uniform_selector(3, 0.4))
    sub, _ = make_subinstance(inst, 0, RhTrajectory(inst), cfg, None)
    return sub


def _week_day_window(n_bases):
    """The first day window of the rolling horizon on week seed 1 (window
    24, step 24, stay 0.8)."""
    inst = generate_week_instance(1, n_bases=n_bases)
    cfg = RhConfig(window=24, step=24, selector=uniform_selector(n_bases, 0.8))
    sub, _ = make_subinstance(inst, 0, RhTrajectory(inst), cfg, None)
    return sub


def _register(monkeypatch, backend) -> str:
    """Register ``backend`` for the length of one test; returns its name."""
    monkeypatch.setitem(backends._REGISTRY, backend.name, backend)
    return backend.name


class _NoIncumbent:
    """Stops every MILP at its time limit without an incumbent, with a finite
    bound; LPs go to HiGHS."""

    name = "no-incumbent"
    bound = 50.0

    def __init__(self) -> None:
        self.milps = 0

    def solve_lp(self, lp, opts=None):
        return get_backend("scipy").solve_lp(lp, opts)

    def solve_milp(self, model, opts=None):
        self.milps += 1
        return MilpResult(Status.TIME_LIMIT, None, None, self.bound, np.inf, 0)


class _NoIncumbentNoPattern(_NoIncumbent):
    """Stops every MILP at its time limit without an incumbent; the operator
    LPs go to HiGHS, but no LP at a pattern's switches (the only
    maximizations) has an optimum."""

    name = "no-incumbent-no-pattern"

    def solve_lp(self, lp, opts=None):
        if lp.maximize:
            return LpSolution(Status.INFEASIBLE, None, None, None)
        return super().solve_lp(lp, opts)


class _NoExactIncumbent:
    """Reports every MILP optimal without an exact incumbent, as when the LP
    at its incumbent's switches has no optimum; LPs go to HiGHS."""

    name = "no-exact-incumbent"

    def __init__(self) -> None:
        self.milps = 0

    def solve_lp(self, lp, opts=None):
        return get_backend("scipy").solve_lp(lp, opts)

    def solve_milp(self, model, opts=None):
        self.milps += 1
        return MilpResult(Status.OPTIMAL, None, None, 50.0, np.inf, 0)


class _NoPolish:
    """Solves the first ``solved`` MILPs on HiGHS and reports later ones
    optimal without an exact incumbent; no LP has an optimum, so the polish
    never shrinks a multiplier that rides its M.  HiGHS leaves some of
    ``make_t1()``'s multipliers at every M."""

    name = "no-polish"

    def __init__(self, solved: float = np.inf) -> None:
        self.solved = solved
        self.milps = 0

    def solve_lp(self, lp, opts=None):
        return LpSolution(Status.INFEASIBLE, None, None, None)

    def solve_milp(self, model, opts=None):
        self.milps += 1
        if self.milps > self.solved:
            return MilpResult(Status.OPTIMAL, None, None, 50.0, np.inf, 0)
        return get_backend("scipy").solve_milp(model, opts)


class _OffObjective:
    """Returns HiGHS' exact incumbent with its objective off by 1.0, so that
    the objective and the profit evaluated at the point disagree."""

    name = "off-objective"

    def __init__(self) -> None:
        self.milps = 0

    def solve_lp(self, lp, opts=None):
        return get_backend("scipy").solve_lp(lp, opts)

    def solve_milp(self, model, opts=None):
        self.milps += 1
        res = get_backend("scipy").solve_milp(model, opts)
        return replace(res, objective=res.objective + 1.0)


class _NoIncumbentBrokenLp(_NoIncumbent):
    """Stops every MILP at its time limit without an incumbent, and fails
    every LP, the fallback's operator LPs included."""

    name = "no-incumbent-broken-lp"

    def solve_lp(self, lp, opts=None):
        raise SolverError("LP solver failed")


class _CallLog:
    """Forwards to a registered backend and records its calls in order, as
    ``("milp", model, result)`` or ``("lp", lp, solution)``.  LPs that a
    backend solves inside its own ``solve_milp`` are not among them."""

    def __init__(self, inner: str) -> None:
        self.inner = get_backend(inner)
        self.name = f"logged-{inner}"
        self.calls: list[tuple] = []

    def solve_lp(self, lp, opts=None):
        sol = self.inner.solve_lp(lp, opts)
        self.calls.append(("lp", lp, sol))
        return sol

    def solve_milp(self, model, opts=None):
        res = self.inner.solve_milp(model, opts)
        self.calls.append(("milp", model, res))
        return res

    def kinds(self) -> list[str]:
        return [kind for kind, _, _ in self.calls]


class _FirstLpInfeasible(_CallLog):
    """A ``_CallLog`` of HiGHS whose first LP has no optimum."""

    def __init__(self) -> None:
        super().__init__("scipy")
        self.name = "first-lp-infeasible"

    def solve_lp(self, lp, opts=None):
        if "lp" in self.kinds():
            return super().solve_lp(lp, opts)
        sol = LpSolution(Status.INFEASIBLE, None, None, None)
        self.calls.append(("lp", lp, sol))
        return sol


class TestPriming:
    """Switch patterns of operator optima, re-solved at their switches: exact
    MILP points whose objective is the leader's profit, which
    ``solve_bilevel`` falls back on when a limit stops the MILP without an
    incumbent."""

    @pytest.mark.parametrize("backend", ["bundled", "scipy"])
    @pytest.mark.parametrize("make", [
        pytest.param(make_t1, id="t1"),
        pytest.param(lambda: _desk(1), id="desk1"),
        pytest.param(lambda: _desk(4), id="desk4"),
        pytest.param(lambda: generate_mini_instance(5, n_bases=3), id="mini5x3"),
    ])
    def test_points_are_priced_at_the_leader_profit(self, make, backend):
        inst = make()
        mpcc = build_mpcc(inst)
        model = linearize(mpcc, default_dual_m(mpcc))
        patterns = _fallback_patterns(mpcc, model, backend)
        assert len(patterns) == 2
        system = mpcc.system
        for pattern in patterns:
            point = get_backend(backend).solve_lp(model.fixed_at(pattern))
            assert point.status is Status.OPTIMAL
            assert not verify_milp_solution(model, point.x, tol=1e-6)
            prices, x, _, _ = _split_point(mpcc, point.x)
            schedule = extract_solution(system, x, 0.0)
            assert point.objective == pytest.approx(
                leader_profit(inst, prices, schedule), rel=1e-6)
            # nothing bought from the competitor, at an operator optimum
            assert not x[system.competitor_cols].any()
            assert not schedule.competitor.any()
            unrestricted, _, _ = solve_follower(
                build_follower_lp(inst, prices, system), backend=backend)
            assert float(system.objective(prices) @ x) == pytest.approx(
                unrestricted.objective, rel=1e-9)

    def test_node_limited_bundled_solve_falls_back_to_an_operator_point(self):
        sol = solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0, node_limit=1))
        assert sol.status is Status.NODE_LIMIT
        assert sol.leader_objective == pytest.approx(45.665345, rel=1e-6)

    def test_fallback_gap_is_measured_from_the_milp_bound(self, monkeypatch):
        name = _register(monkeypatch, _NoIncumbent())
        sol = solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0), backend=name)
        assert sol.status is Status.TIME_LIMIT
        assert sol.leader_objective == pytest.approx(45.665345, rel=1e-6)
        assert sol.milp.bound == _NoIncumbent.bound
        assert sol.mip_gap == pytest.approx(
            (_NoIncumbent.bound - sol.leader_objective) / sol.leader_objective,
            rel=1e-9)

    @pytest.mark.parametrize("n_bases, floor", [(1, 1013.02), (3, 1011.22)])
    def test_week_day_window_keeps_the_better_pattern(self, n_bases, floor,
                                                      monkeypatch):
        # 1 base: 1013.021165 is the window's optimum.  3 bases: the tariff
        # pattern re-solves to 955.2627, the midpoint pattern to 1011.221745,
        # 1.42% below the bound HiGHS reaches in 30 s
        sol = solve_bilevel(_week_day_window(n_bases), opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, _NoIncumbent()))
        assert sol.status is Status.TIME_LIMIT
        assert sol.leader_objective >= floor
        assert sol.audit.clean

    @pytest.mark.parametrize("backend", ["bundled", "scipy"])
    def test_no_operator_lp_before_the_milp(self, backend, monkeypatch):
        log = _CallLog(backend)
        sol = solve_bilevel(_desk(4), opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, log))
        assert sol.status is Status.OPTIMAL
        assert log.kinds()[0] == "milp"
        assert log.kinds().count("milp") == 1

    def test_optimal_milp_without_exact_incumbent_escalates(self, monkeypatch):
        linearize_at = reformulation.linearize
        ms = []                         # the multiplier M of each MILP built

        def recorded(mpcc, dual_m, pinned_prices=None):
            ms.append(dual_m)
            return linearize_at(mpcc, dual_m, pinned_prices)

        monkeypatch.setattr(reformulation, "linearize", recorded)
        m0 = default_dual_m(build_mpcc(_desk(1)))
        stub = _NoExactIncumbent()
        name = _register(monkeypatch, stub)
        monkeypatch.setattr(reformulation, "MAX_ESCALATIONS", 2)
        with pytest.raises(BilevelInfeasible, match="no tolerance-exact incumbent"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0), backend=name)
        assert stub.milps == 3 and ms == [m0, 2 * m0, 4 * m0]    # two doublings
        monkeypatch.setattr(reformulation, "MAX_ESCALATIONS", 0)
        with pytest.raises(BilevelInfeasible, match="no tolerance-exact incumbent"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0), backend=name)
        assert stub.milps == 4 and ms[3:] == [m0]                # none


class TestExits:
    """The exits of ``solve_bilevel`` that no real solve in the suite takes,
    each reached through a stub backend."""

    def test_no_pattern_re_solves(self, monkeypatch):
        stub = _NoIncumbentNoPattern()
        with pytest.raises(LimitWithoutIncumbent,
                           match=r"^no incumbent within limits \(status time_limit\)$"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 1

    def test_time_budget_exhausted_without_an_answer(self, monkeypatch):
        stub = _NoExactIncumbent()
        with pytest.raises(LimitWithoutIncumbent,
                           match=r"^time budget exhausted after 1 attempts$"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0, time_limit=0.1),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 1

    def test_time_budget_exhausted_with_a_risky_answer(self, monkeypatch):
        stub = _NoPolish()
        with pytest.raises(UncertifiedOptimum,
                           match=r"^time budget exhausted: profit 3\.800000 has"):
            solve_bilevel(make_t1(), opts=SolveOptions(rel_gap=0.0, time_limit=0.1),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 1

    def test_larger_m_gives_no_exact_incumbent(self, monkeypatch):
        stub = _NoPolish(solved=1)
        with pytest.raises(UncertifiedOptimum,
                           match=r"^a larger M gave no exact incumbent: profit 3\.800000"):
            solve_bilevel(make_t1(), opts=SolveOptions(rel_gap=0.0),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 2

    def test_larger_m_does_not_move_the_profit(self, monkeypatch):
        stub = _NoPolish()
        with pytest.raises(UncertifiedOptimum,
                           match=r"^a larger M did not move the profit: profit 3\.800000"):
            solve_bilevel(make_t1(), opts=SolveOptions(rel_gap=0.0),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 2


class TestErrorsPropagate:
    """Failures no M can cause leave ``solve_bilevel`` at once, as raised."""

    def test_extraction_mismatch_is_not_escalated(self, monkeypatch):
        stub = _OffObjective()
        with pytest.raises(ExtractionMismatch, match="strong-duality objective"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0),
                          backend=_register(monkeypatch, stub))
        assert stub.milps == 1

    def test_fallback_lp_error_propagates(self, monkeypatch):
        with pytest.raises(SolverError, match="LP solver failed"):
            solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0),
                          backend=_register(monkeypatch, _NoIncumbentBrokenLp()))


class TestBundledNodes:
    """Branch-and-bound nodes re-solved from their parent's basis."""

    @pytest.mark.parametrize("seed", DESK_ROSTER)
    def test_warm_nodes_match_cold_resolves(self, seed, monkeypatch):
        mpcc = build_mpcc(_desk(seed))
        model = linearize(mpcc, default_dual_m(mpcc))
        lp, solve, checked = model.lp, NodeLp.solve, []

        def checked_solve(nodes, lo, up, basis=None):
            warm = solve(nodes, lo, up, basis)
            if basis is not None:
                lower, upper = lp.lower.copy(), lp.upper.copy()
                lower[nodes.cols], upper[nodes.cols] = lo, up
                cold = solve_lp(lp.with_bounds(lower, upper))
                assert warm[0] is cold.status
                if cold.status is Status.OPTIMAL:
                    assert warm[2] == pytest.approx(-cold.objective,
                                                    rel=1e-9, abs=1e-9)
                checked.append(warm[0])
            return warm

        monkeypatch.setattr(NodeLp, "solve", checked_solve)
        assert lp.maximize               # the node LPs minimize -obj
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        assert res.status is Status.OPTIMAL
        assert res.nodes > 1
        assert len(checked) >= res.nodes - 1   # every node but the root

    @pytest.mark.parametrize("seed", DESK_ROSTER)
    def test_exact_resolve_is_warm(self, seed, monkeypatch):
        # the search's last LP, the incumbent at its fixed switches, starts
        # from the incumbent node's basis on the node model
        solve, calls = NodeLp.solve, []

        def recorded(nodes, lo, up, basis=None):
            before = nodes.iterations
            out = solve(nodes, lo, up, basis)
            calls.append((basis, out, nodes.iterations - before))
            return out

        monkeypatch.setattr(NodeLp, "solve", recorded)
        mpcc = build_mpcc(_desk(seed))
        model = linearize(mpcc, default_dual_m(mpcc))
        res = solve_milp(model, SolveOptions(rel_gap=0.0))
        basis, (_, x, _), iterations = calls[-1]
        assert res.status is Status.OPTIMAL
        assert basis is not None and iterations <= 2
        assert np.array_equal(res.x, x)
        cold = solve_lp(model.fixed_at(res.x))
        assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", DESK_ROSTER)
    def test_node_work_repeats_exactly(self, seed):
        opts = SolveOptions(rel_gap=0.0)
        first = solve_bilevel(_desk(seed), opts=opts).milp
        again = solve_bilevel(_desk(seed), opts=opts).milp
        assert first.lp_iterations == again.lp_iterations > 0
        assert first.nodes == again.nodes
        assert first.log == again.log

    @pytest.mark.parametrize("seed", DESK_SLOW)
    def test_slow_desk_seeds_finish(self, seed):
        inst = _desk(seed)
        ref = solve_bilevel(inst, opts=SolveOptions(rel_gap=1e-9), backend="scipy")
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0, time_limit=60.0),
                            backend="bundled")
        assert sol.status is Status.OPTIMAL
        assert sol.leader_objective == pytest.approx(ref.leader_objective, rel=1e-9)


class TestPolish:
    """The multiplier-shrink LP, run only when a multiplier of the exact
    incumbent is at its M."""

    @staticmethod
    def _rides_m(inst, dual_m, res) -> bool:
        """Whether the audit flags a multiplier of a MILP result at ``dual_m``."""
        return not extract_bilevel(build_mpcc(inst), res, dual_m).audit.clean

    @staticmethod
    def _milp_and_lps(log: _CallLog):
        """The one MILP's model and result, and the LPs solved after it."""
        [(_, model, res)] = [call for call in log.calls if call[0] == "milp"]
        return model, res, [call[1:] for call in log.calls if call[0] == "lp"]

    def test_clean_point_solves_no_lp(self, monkeypatch):
        # HiGHS' incumbent on desk seed 39 has no multiplier at its M
        inst = _desk(39)
        log = _CallLog("scipy")
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, log))
        assert sol.status is Status.OPTIMAL and sol.audit.clean
        assert log.kinds() == ["milp"]
        assert sol.polish_lps == solution_to_dict(inst, sol)["polish_lps"] == 0

    def test_highs_point_at_m_runs_the_shrink_lp(self, monkeypatch):
        inst = _desk(4)
        log = _CallLog("scipy")
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, log))
        assert sol.status is Status.OPTIMAL and sol.audit.clean
        assert sol.retries == 0
        model, res, lps = self._milp_and_lps(log)
        assert lps[0][0].n_rows > model.lp.n_rows   # the multiplier-shrink LP
        mpcc = build_mpcc(inst)
        assert self._rides_m(inst, default_dual_m(mpcc), res)
        assert sol.polish_lps == len(lps) in (1, 2)
        assert solution_to_dict(inst, sol)["polish_lps"] == sol.polish_lps

    def test_retry_moves_only_the_hold_row(self, monkeypatch):
        log = _FirstLpInfeasible()
        sol = solve_bilevel(_desk(1), opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, log))
        assert sol.status is Status.OPTIMAL and sol.audit.clean
        assert sol.polish_lps == 2
        model, res, [(first, _), (retry, polished)] = self._milp_and_lps(log)
        assert polished.status is Status.OPTIMAL
        for a, b in ((first.obj, retry.obj), (first.lower, retry.lower),
                     (first.upper, retry.upper), (first.a_rows.data, retry.a_rows.data),
                     (first.a_rows.indices, retry.a_rows.indices),
                     (first.a_rows.indptr, retry.a_rows.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert first.sense.tolist() == retry.sense.tolist()
        hold = model.lp.n_rows                  # the row after the MILP's
        assert first.rhs[hold] == res.objective
        assert np.flatnonzero(first.rhs != retry.rhs).tolist() == [hold]
        assert retry.rhs[hold] == first.rhs[hold] - 1e-9 * (1.0 + abs(res.objective))

    def test_small_m_makes_the_bundled_polish_shrink(self, monkeypatch):
        inst = _desk(4)
        # the bundled exact incumbent's multipliers peak near 10.46, the
        # shrink LP's below 10.1
        small = 10.2
        log = _CallLog("bundled")
        monkeypatch.setattr(reformulation, "MAX_ESCALATIONS", 0)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0),
                            backend=_register(monkeypatch, log), dual_m=small)
        _, res, lps = self._milp_and_lps(log)
        assert self._rides_m(inst, small, res)
        assert sol.polish_lps == len(lps) in (1, 2)
        assert sol.audit.clean
        ref = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), backend="bundled")
        assert sol.leader_objective == pytest.approx(ref.leader_objective, rel=1e-9)

    @pytest.mark.parametrize("seed", range(1, 15))
    def test_desk_seeds_are_clean_and_match_highs(self, seed):
        inst = _desk(seed)
        sol = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0), backend="bundled")
        ref = solve_bilevel(inst, opts=SolveOptions(rel_gap=1e-9), backend="scipy")
        assert sol.status is Status.OPTIMAL and sol.audit.clean
        assert sol.leader_objective == pytest.approx(ref.leader_objective, rel=1e-9)
