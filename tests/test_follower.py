"""Operator scheduling LP: primal/dual correctness and cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from gridtariff.follower import (DEVICE_FAMILIES, SLOT_FAMILIES, _follower_rows,
                                 build_follower_lp, build_follower_system,
                                 complementarity_products, evaluate_schedule,
                                 extract_solution, leader_profit,
                                 solve_follower, FollowerInfeasible)
from gridtariff.generator import generate_instance, generate_week_instance
from gridtariff.model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from gridtariff.scenario import (BaseScenario, flat_tree,
                                 indistinguishability_time, single_path_tree)
from gridtariff.solver import EQ, LE, LpBuilder, Status

from conftest import DESK_SHAPE, make_t1, random_tiny_instance


def solve_at(instance, prices):
    system = build_follower_system(instance)
    lp = build_follower_lp(instance, np.asarray(prices, dtype=float), system)
    sol, fsol, fduals = solve_follower(lp, system=system)
    return system, lp, sol, fsol, fduals


class TestBuildCounts:
    def test_t1_row_families(self):
        inst = make_t1()
        system = build_follower_system(inst)
        fams = {}
        for tag in system.skeleton.row_tags:
            fams[tag[0]] = fams.get(tag[0], 0) + 1
        assert fams["demand_min"] == 1
        assert fams["power_cap"] == 2
        assert fams["batt_init"] == 1
        assert fams["batt_balance"] == 2
        assert fams["batt_floor"] == fams["batt_ceiling"] == 2
        assert fams["draw_cap"] == fams["dg_cap"] == 2
        # 4 purchase variables per window slot + 3 stored + battery states
        assert system.n_vars == 4 * 2 + 3 * 2 + 3

    def test_two_scenarios_tie_every_slot0_family(self):
        inst = make_t1().replace(tree=flat_tree(
            [BaseScenario(0, np.array([0.0, 1.0])),
             BaseScenario(1, np.array([0.0, 2.0]))], 2))
        system = build_follower_system(inst)
        ties = [tag for tag in system.skeleton.row_tags if tag[0] == "tie"]
        assert len(ties) == 8                    # all eight families at h=0
        assert {t[1] for t in ties} == {"x", "xb", "lam", "sd",
                                        "xs", "xbs", "lams", "S"}


class TestSolveFollower:
    def test_t1_at_competitor_prices(self, t1):
        _, _, sol, fsol, _ = solve_at(t1, [3.0, 3.0])
        assert sol.objective == pytest.approx(6.0)
        np.testing.assert_allclose(fsol.device_values[("x", 0, 0)], [2.0, 0.0],
                                   atol=1e-9)

    def test_zero_prices_zero_penalty(self):
        inst = make_t1(C=(0.0, 0.0))
        _, _, sol, _, _ = solve_at(inst, [0.0, 0.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_free_generation_covers_demand(self):
        inst = make_t1(C=(0.0, 0.0)).replace(
            tree=single_path_tree(np.array([5.0, 5.0])))
        _, _, sol, fsol, _ = solve_at(inst, [3.0, 3.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert fsol.device_values[("x", 0, 0)].sum() == pytest.approx(0.0, abs=1e-9)
        assert fsol.device_values[("xb", 0, 0)].sum() == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_demand_raises(self):
        dev = Device("c", "a", TimeWindow(0, 0), 5.0, 1.0, (0.0,))
        inst = make_t1().replace(devices=[dev])
        system = build_follower_system(inst)
        lp = build_follower_lp(inst, np.array([3.0, 3.0]), system)
        with pytest.raises(FollowerInfeasible):
            solve_follower(lp, system=system)

    def test_price_length_checked(self, t1):
        with pytest.raises(ValueError):
            build_follower_lp(t1, np.array([3.0]))


class TestEvaluateSchedule:
    def test_zero_consumption(self, t1):
        system = build_follower_system(t1)
        fsol = extract_solution(system, np.zeros(system.n_vars), 0.0)
        costs = evaluate_schedule(t1, np.array([3.0, 3.0]), fsol)
        assert (costs.billing_cost, costs.inconvenience_cost,
                costs.generalized_cost) == (0.0, 0.0, 0.0)

    def test_t1_optimum_breakdown(self, t1):
        _, _, sol, fsol, _ = solve_at(t1, [3.0, 3.0])
        costs = evaluate_schedule(t1, np.array([3.0, 3.0]), fsol)
        assert costs.billing_cost == pytest.approx(6.0)
        assert costs.inconvenience_cost == pytest.approx(0.0, abs=1e-9)
        assert costs.generalized_cost == pytest.approx(6.0)

    def test_shifted_schedule_pays_delay(self, t1):
        system = build_follower_system(t1)
        x = np.zeros(system.n_vars)
        x[system.var_index[("x", 0, 0, 1)]] = 2.0   # everything in slot 1
        fsol = extract_solution(system, x, 0.0)
        costs = evaluate_schedule(t1, np.array([3.0, 3.0]), fsol)
        assert costs.billing_cost == pytest.approx(6.0)
        assert costs.inconvenience_cost == pytest.approx(0.2)
        assert costs.generalized_cost == pytest.approx(6.2)
        assert leader_profit(t1, np.array([3.0, 3.0]), fsol) == \
            pytest.approx(2 * (3.0 - 1.0))


class TestDuality:
    def test_strong_duality_random_draws(self):
        rng = np.random.default_rng(77)
        for k in range(50):
            inst = random_tiny_instance(
                rng, n_slots=int(rng.integers(2, 5)),
                n_devices=int(rng.integers(1, 3)),
                n_scenarios=int(rng.integers(1, 3)),
                battery=bool(rng.integers(0, 2)),
                generation=bool(rng.integers(0, 2)))
            prices = rng.uniform(0, 1, inst.n_slots) * inst.prices.competitor
            system, lp, sol, _, duals = solve_at(inst, prices)
            dual_obj = float(sol.duals @ lp.rhs)
            assert dual_obj == pytest.approx(sol.objective, rel=1e-6, abs=1e-8)
            assert complementarity_products(lp, sol).max() <= 1e-6
            # positive-sign convention for inequality multipliers
            for fam in ("demand_min", "power_cap", "batt_floor",
                        "batt_ceiling", "draw_cap", "dg_cap"):
                for v in duals.by_family.get(fam, {}).values():
                    assert v >= -1e-9

    def test_nonanticipativity_satisfied(self):
        rng = np.random.default_rng(5)
        inst = random_tiny_instance(rng, n_slots=4, n_devices=2, n_scenarios=2)
        prices = 0.7 * inst.prices.competitor
        _, _, _, fsol, _ = solve_at(inst, prices)
        leaves = inst.tree.leaves
        h_max = indistinguishability_time(leaves[0], leaves[1])
        assert h_max >= 0
        for f in ("xs", "xbs", "lams"):
            for h in range(h_max + 1):
                assert fsol.stored[f][0][h] == pytest.approx(
                    fsol.stored[f][1][h], abs=1e-9)
        for d, dev in enumerate(inst.devices):
            for h in dev.window.slots:
                if h > h_max:
                    continue
                k = h - dev.window.first
                for f in ("x", "xb", "lam", "sd"):
                    assert fsol.device_values[(f, 0, d)][k] == pytest.approx(
                        fsol.device_values[(f, 1, d)][k], abs=1e-9)

    def test_price_monotonicity(self):
        rng = np.random.default_rng(13)
        inst = random_tiny_instance(rng, n_slots=3, n_devices=2, battery=True,
                                    generation=True)
        prices = 0.5 * inst.prices.competitor
        _, _, base, _, _ = solve_at(inst, prices)
        for h in range(3):
            bumped = prices.copy()
            bumped[h] = min(bumped[h] + 0.5, inst.prices.competitor[h])
            _, _, sol, _, _ = solve_at(inst, bumped)
            assert sol.objective >= base.objective - 1e-9

    def test_free_generation_dominance(self):
        rng = np.random.default_rng(19)
        inst = random_tiny_instance(rng, n_slots=3, n_devices=2, battery=True,
                                    generation=True)
        prices = 0.6 * inst.prices.competitor
        _, _, lo, _, _ = solve_at(inst, prices)
        bigger = inst.replace(tree=single_path_tree(
            inst.tree.leaves[0].dg_bound + 1.0))
        _, _, hi, _, _ = solve_at(bigger, prices)
        assert hi.objective <= lo.objective + 1e-9

    def test_scipy_backend_agrees(self, t1):
        system = build_follower_system(t1)
        lp = build_follower_lp(t1, np.array([2.0, 2.5]), system)
        mine, _, _ = solve_follower(lp, system=system)
        other, _, _ = solve_follower(lp, backend="scipy", system=system)
        assert other.objective == pytest.approx(mine.objective, rel=1e-9)


def test_week_scale_build_and_counts():
    inst = generate_week_instance(1)
    system = build_follower_system(inst)
    # single scenario: variables and rows both land in the tens of thousands
    assert 8_000 <= system.n_vars <= 60_000
    assert 3_000 <= system.n_rows <= 60_000


# -- the skeleton and the index-array extractors ------------------------------


@pytest.fixture(scope="module")
def week3():
    inst = generate_week_instance(1, n_bases=3)
    return inst, build_follower_system(inst)


def _profiles(inst, seed):
    """Two price profiles between supply cost and the competitor tariff."""
    supply, comp = inst.prices.supply_cost, inst.prices.competitor
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (2, inst.n_slots))
    return list(supply + u * (comp - supply))


def _tagged_rows(system):
    """The tagged row tuples the skeleton is assembled from."""
    return _follower_rows(system.instance, system.var_index)


def _builder_lp(system, prices):
    """The operator LP built row by row from the tagged rows."""
    b = LpBuilder(maximize=False)
    for tag, cost in zip(system.var_tags, system.objective(prices)):
        b.add_var(tag, 0.0, np.inf, obj=float(cost))
    for tag, terms, sense, rhs in _tagged_rows(system):
        b.add_row(tag, terms, sense, rhs)
    return b.build()


def _assert_same_lp(lp, ref):
    assert (lp.n_vars, lp.maximize) == (ref.n_vars, ref.maximize)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(lp.a_rows, name),
                                      getattr(ref.a_rows, name))
    assert lp.a_rows.shape == ref.a_rows.shape
    assert lp.sense.tolist() == ref.sense.tolist()
    for name in ("rhs", "lower", "upper", "obj"):
        np.testing.assert_array_equal(getattr(lp, name), getattr(ref, name))
    assert lp.var_tags == ref.var_tags
    assert lp.row_tags == ref.row_tags


class TestSkeleton:
    @pytest.mark.parametrize("which", ["desk", "week"])
    def test_priced_skeleton_equals_builder_lp(self, which, week3):
        if which == "week":
            inst, system = week3
        else:
            inst = generate_instance(1, **DESK_SHAPE)
            system = build_follower_system(inst)
        for prices in _profiles(inst, seed=3):
            _assert_same_lp(build_follower_lp(inst, prices, system),
                            _builder_lp(system, prices))

    def test_priced_lps_own_their_objectives(self, week3):
        inst, system = week3
        p1, p2 = _profiles(inst, seed=4)
        lp1 = build_follower_lp(inst, p1, system)
        lp2 = build_follower_lp(inst, p2, system)
        assert not np.shares_memory(lp1.obj, lp2.obj)
        assert not np.shares_memory(lp1.obj, system.skeleton.obj)
        before = lp2.obj.copy()
        lp1.obj[:] = 0.0
        np.testing.assert_array_equal(lp2.obj, before)
        np.testing.assert_array_equal(system.skeleton.obj, system.c0)

    def test_skeleton_arrays_are_read_only(self, week3):
        inst, system = week3
        lp = build_follower_lp(inst, inst.prices.competitor, system)
        for arr in (lp.lower, lp.upper, lp.rhs, lp.sense, lp.a_rows.data,
                    system.skeleton.lower, system.c0):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        # callers that need other bounds copy them first
        fixed = lp.with_bounds(lp.lower.copy(), np.minimum(lp.upper, 1.0))
        assert fixed.upper.max() == 1.0 and np.isinf(lp.upper).all()


class TestExtraction:
    """The index-array extractors against a per-tag oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def solved(self, week3):
        inst, system = week3
        lp = build_follower_lp(inst, _profiles(inst, seed=5)[0], system)
        sol, fsol, fduals = solve_follower(lp, backend="scipy", system=system)
        return system, sol, fsol, fduals

    def test_solution_matches_tag_oracle(self, solved):
        system, sol, fsol, _ = solved
        inst = system.instance
        n_scen, n_slots = inst.tree.n_leaves, inst.n_slots
        idx, x = system.var_index, sol.x
        assert (fsol.n_scenarios, fsol.n_slots) == (n_scen, n_slots)
        assert fsol.objective_value == float(sol.objective)
        keys = [(f, s, d) for s in range(n_scen)
                for d in range(len(inst.devices)) for f in DEVICE_FAMILIES]
        assert list(fsol.device_values) == keys
        for f, s, d in keys:
            want = np.array([x[idx[(f, s, d, h)]]
                             for h in inst.devices[d].window.slots])
            got = fsol.device_values[(f, s, d)]
            assert got.dtype == want.dtype and (got == want).all()
        assert sorted(fsol.stored) == sorted(SLOT_FAMILIES)
        for f in SLOT_FAMILIES:
            want = np.array([[x[idx[(f, s, h)]] for h in range(n_slots)]
                             for s in range(n_scen)])
            assert fsol.stored[f].shape == want.shape
            assert (fsol.stored[f] == want).all()
        want = np.array([[x[idx[("S", s, h)]] for h in range(n_slots + 1)]
                         for s in range(n_scen)])
        assert fsol.battery_state.shape == want.shape
        assert (fsol.battery_state == want).all()

    def test_duals_match_row_oracle(self, solved):
        system, sol, _, fduals = solved
        rows = _tagged_rows(system)
        want: dict = {}
        for (tag, _, sense, _), y in zip(rows, sol.duals):
            want.setdefault(tag[0], {})[tag[1:]] = float(-y if sense == LE else y)
        assert fduals.by_family == want
        assert list(fduals.by_family) == list(want)
        assert (fduals.raw == sol.duals).all()
        assert fduals.row_tags == [tag for tag, _, _, _ in rows]
