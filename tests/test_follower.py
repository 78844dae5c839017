"""Operator scheduling LP: primal/dual correctness and cost accounting."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gridtariff.baselines import reference_case
from gridtariff.follower import (DEVICE_FAMILIES, ROW_FAMILIES, SLOT_FAMILIES,
                                 build_follower_lp, build_follower_system,
                                 evaluate_schedule, extract_solution,
                                 leader_profit, solve_follower,
                                 FollowerInfeasible)
from gridtariff.generator import (MINI_PRESETS, generate_instance,
                                  generate_mini_instance, generate_week_instance,
                                  greedy_device_profile)
from gridtariff.model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from gridtariff.rolling import RhConfig, RhTrajectory, make_subinstance
from gridtariff.scenario import BaseScenario, flat_tree, single_path_tree
from gridtariff.solver import EQ, LE, Status, check_lp_solution, solve_lp
from gridtariff.solver.backends import ScipyBackend

from conftest import (DESK_SHAPE, complementarity_products, device_columns,
                      energy_balance_residual, indistinguishability_time,
                      make_t1, random_tiny_instance, reference_follower)
from test_scenario import random_trees
from test_solver import assert_dual_certificate


def solve_at(instance, prices):
    system = build_follower_system(instance)
    lp = build_follower_lp(instance, np.asarray(prices, dtype=float), system)
    sol, fsol, fduals = solve_follower(lp, system=system)
    return system, lp, sol, fsol, fduals


class TestBuildCounts:
    def test_t1_row_families(self):
        inst = make_t1()
        system = build_follower_system(inst)
        assert list(system.row_families) == list(ROW_FAMILIES)
        fams = {f: len(rows) for f, rows in system.row_families.items()}
        assert sum(fams.values()) == system.n_rows
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
        # all eight families share their slot-0 column (S[1] is set in slot 0)
        # and no later one
        device = device_columns(system)
        fams = [device[f][:, 0] for f in DEVICE_FAMILIES] \
            + [system.slot_cols[f] for f in (*SLOT_FAMILIES, "S")]
        leaf0, leaf1 = (np.concatenate([c[s] for c in fams]) for s in (0, 1))
        np.testing.assert_array_equal(leaf0 == leaf1,
                                      [True, False] * 7 + [True, True, False])
        assert system.n_vars == 17 + 8      # the one-leaf count plus slot 1
        assert len(np.unique(np.concatenate([leaf0, leaf1]))) == system.n_vars
        # a shared column is priced with both leaves' probability
        x = device["x"][0, 0]
        np.testing.assert_array_equal(system.price_prob[x], [1.0, 0.5])


class TestSolveFollower:
    def test_t1_at_competitor_prices(self, t1):
        _, _, sol, fsol, _ = solve_at(t1, [3.0, 3.0])
        assert sol.objective == pytest.approx(6.0)
        np.testing.assert_allclose(fsol.consumption[0, 0], [2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(fsol.leader[0], [2.0, 0.0], atol=1e-9)

    def test_zero_prices_zero_penalty(self):
        inst = make_t1(C=(0.0, 0.0))
        _, _, sol, _, _ = solve_at(inst, [0.0, 0.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_free_generation_covers_demand(self):
        inst = make_t1(C=(0.0, 0.0)).replace(
            tree=single_path_tree(np.array([5.0, 5.0])))
        _, _, sol, fsol, _ = solve_at(inst, [3.0, 3.0])
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert fsol.leader[0].sum() == pytest.approx(0.0, abs=1e-9)
        assert fsol.competitor[0].sum() == pytest.approx(0.0, abs=1e-9)

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
        x[device_columns(system)["x"][0, 0, 1]] = 2.0   # everything in slot 1
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
            ineq = system.skeleton.sense != EQ
            assert duals[ineq].min(initial=0.0) >= -1e-9

    def test_nonanticipativity_satisfied(self):
        rng = np.random.default_rng(5)
        inst = random_tiny_instance(rng, n_slots=4, n_devices=2, n_scenarios=2)
        prices = 0.7 * inst.prices.competitor
        _, _, _, fsol, _ = solve_at(inst, prices)
        leaves = inst.tree.leaves
        h_max = indistinguishability_time(leaves[0], leaves[1])
        assert h_max >= 0
        for total in fsol.slot_totals():
            for h in range(h_max + 1):
                assert total[0][h] == pytest.approx(total[1][h], abs=1e-9)
        for d, dev in enumerate(inst.devices):
            for h in dev.window.slots:
                if h > h_max:
                    continue
                assert fsol.consumption[0, d, h] == pytest.approx(
                    fsol.consumption[1, d, h], abs=1e-9)

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
    return inst, build_follower_system(inst), reference_follower(inst)


def _profiles(inst, seed):
    """Two price profiles between supply cost and the competitor tariff."""
    supply, comp = inst.prices.supply_cost, inst.prices.competitor
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (2, inst.n_slots))
    return list(supply + u * (comp - supply))


def _assert_same_lp(lp, ref):
    assert (lp.n_vars, lp.maximize) == (ref.n_vars, ref.maximize)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(lp.a_rows, name),
                                      getattr(ref.a_rows, name))
    assert lp.a_rows.shape == ref.a_rows.shape
    assert lp.sense.tolist() == ref.sense.tolist()
    for name in ("rhs", "lower", "upper", "obj"):
        np.testing.assert_array_equal(getattr(lp, name), getattr(ref, name))


def _rh_windows(seed):
    """The window instances of an ``rh-mini3`` rolling run (window 6, step 1)
    over mini seed ``seed`` with 3 bases, every device served flat-out from
    its window start."""
    inst = generate_mini_instance(seed, n_bases=3)
    cfg = RhConfig(window=6, step=1, frozen=0)
    traj = RhTrajectory(inst)
    traj.schedule.consumption[0] = greedy_device_profile(inst.devices, inst.n_slots)
    last = inst.horizon.last_slot
    return [make_subinstance(inst, t, traj, cfg, None if t == 0 else t % 3)[0]
            for t in range(last - cfg.window + 1)]


def _shared_node_trees():
    rng = np.random.default_rng(41)
    trees = random_trees(rng, ((3, 1, 4), (2, 1, 4), (3, 2, 8), (2, 2, 6)))
    return [random_tiny_instance(rng, n_slots=tree.n_slots, n_devices=3,
                                 battery=True).replace(tree=tree)
            for tree in trees]


_REFERENCE_CASES = {
    **{f"desk{s}": lambda s=s: [generate_instance(s, **DESK_SHAPE)]
       for s in (1, 4, 7, 9, 13, 21)},
    **{f"{p}-3bases": lambda p=p: [generate_mini_instance(s, preset=p, n_bases=3)
                                   for s in (1, 5)]
       for p in MINI_PRESETS},
    "rh-mini3-windows": lambda: _rh_windows(5) + _rh_windows(6),
    "shared-node-trees": _shared_node_trees,
    "week-1base": lambda: [generate_week_instance(1)],
    "week-3bases": lambda: [generate_week_instance(1, n_bases=3)],
}


class TestReference:
    """The array-built system against the tuple-keyed reference build."""

    def _assert_matches(self, system, ref):
        inst = system.instance
        _assert_same_lp(system.skeleton, ref.lp)
        for name in ("c0", "price_slot", "price_prob"):
            got, want = getattr(system, name), getattr(ref, name)
            assert got.dtype.kind == want.dtype.kind
            np.testing.assert_array_equal(got, want)
        device = device_columns(system)
        for f in DEVICE_FAMILIES:
            np.testing.assert_array_equal(device[f], ref.device_index(f))
        assert list(system.slot_cols) == [*SLOT_FAMILIES, "S"]
        for f, cols in system.slot_cols.items():
            np.testing.assert_array_equal(cols, ref.slot_cols(f))
        want = ref.row_families()
        assert list(system.row_families) == list(ROW_FAMILIES)
        for f, rows in system.row_families.items():
            np.testing.assert_array_equal(rows, want.get(f, []))
        bat = inst.battery
        spare = [len(dev.window) * dev.max_power - dev.energy_demand
                 for dev in inst.devices]
        power = [dev.max_power for dev in inst.devices]
        want = [spare[tag[2]] if tag[0] == "demand_min"
                else power[tag[2]] if tag[0] == "power_cap"
                else bat.max_level - bat.min_level
                if tag[0] in ("batt_floor", "batt_ceiling")
                else max(bat.max_level, bat.initial) if tag[0] == "draw_cap"
                else ref.lp.rhs[i] if tag[0] == "dg_cap" else np.nan
                for i, tag in enumerate(ref.row_tags)]
        np.testing.assert_array_equal(system.slack_upper, want)
        np.testing.assert_array_equal(
            system.repeats_bound,
            [tag[0] == "batt_floor" and bat.min_level == 0.0 for tag in ref.row_tags])
        assert inst.tree.n_leaves == len(system.slot_cols["S"])

    @pytest.mark.parametrize("case", list(_REFERENCE_CASES))
    def test_array_build_equals_reference(self, case):
        for inst in _REFERENCE_CASES[case]():
            self._assert_matches(build_follower_system(inst), reference_follower(inst))


class TestSkeleton:
    @pytest.mark.parametrize("which", ["desk", "week"])
    def test_priced_skeleton_equals_builder_lp(self, which, week3):
        if which == "week":
            inst, system, ref = week3
        else:
            inst = generate_instance(1, **DESK_SHAPE)
            system, ref = build_follower_system(inst), reference_follower(inst)
        for prices in _profiles(inst, seed=3):
            _assert_same_lp(build_follower_lp(inst, prices, system),
                            ref.lp.with_objective(ref.objective(prices)))

    def test_identical_leaves_build_the_one_leaf_lp(self):
        # the three bases of mini seed 1 are all zero: every node is shared
        inst = generate_mini_instance(1, n_bases=3)
        assert inst.tree.n_leaves == 3 and not inst.tree.dg_matrix().any()
        three = build_follower_system(inst)
        one = build_follower_system(generate_mini_instance(1))
        _assert_same_lp(three.skeleton, one.skeleton)
        np.testing.assert_array_equal(three.c0, one.c0)
        np.testing.assert_array_equal(three.price_prob, one.price_prob)

    def test_priced_lps_own_their_objectives(self, week3):
        inst, system, _ = week3
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
        inst, system, _ = week3
        lp = build_follower_lp(inst, inst.prices.competitor, system)
        for arr in (lp.lower, lp.upper, lp.rhs, lp.sense, lp.a_rows.data,
                    system.skeleton.lower, system.c0):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        # callers that need other bounds copy them first
        fixed = lp.with_bounds(lp.lower.copy(), np.minimum(lp.upper, 1.0))
        assert fixed.upper.max() == 1.0 and np.isinf(lp.upper).all()


class TestRepricedHighs:
    """The HiGHS backend keeps a re-priceable LP's model and re-optimizes it
    from the last basis when only the prices change."""

    @pytest.mark.parametrize("which", ["mini", "week"])
    def test_repriced_lp_matches_fresh_cold_solves(self, which, week3):
        if which == "week":
            inst, system, _ = week3
        else:
            inst = generate_mini_instance(5, n_bases=3)
            system = build_follower_system(inst)
        profiles = [inst.prices.competitor, *_profiles(inst, seed=6),
                    *_profiles(inst, seed=7), inst.prices.supply_cost]
        backend = ScipyBackend()
        hot = []
        for prices in profiles:
            lp = build_follower_lp(inst, prices, system)
            sol = backend.solve_lp(lp)
            assert sol.status is Status.OPTIMAL
            assert not check_lp_solution(lp, sol.x)
            assert_dual_certificate(lp, sol)
            hot.append(sol.objective)
        assert backend.solve_lp(lp).iterations == 0      # kept at its optimum
        for prices, objective in zip(profiles, hot):
            fresh = build_follower_system(inst)
            cold = ScipyBackend().solve_lp(build_follower_lp(inst, prices, fresh))
            assert cold.objective == pytest.approx(objective, rel=1e-9)

    def test_writeable_rhs_is_never_served_from_the_kept_model(self):
        inst = generate_mini_instance(5, n_bases=3)
        system = build_follower_system(inst)
        backend = ScipyBackend()
        lp = build_follower_lp(inst, inst.prices.competitor, system)
        backend.solve_lp(lp)
        mutable = replace(lp, rhs=lp.rhs.copy())
        first = backend.solve_lp(mutable)
        mutable.rhs[system.row_families["demand_min"]] *= 0.5
        second = backend.solve_lp(mutable)
        assert second.objective < first.objective - 1e-6
        assert second.objective == pytest.approx(solve_lp(mutable).objective,
                                                 rel=1e-9)

    def test_infeasible_solve_after_a_hot_one_leaves_a_cold_start(self):
        inst = generate_mini_instance(5, n_bases=3)
        system = build_follower_system(inst)
        p1, p2 = _profiles(inst, seed=8)
        lp = build_follower_lp(inst, p2, system)
        cold = ScipyBackend().solve_lp(lp)
        backend = ScipyBackend()
        backend.solve_lp(build_follower_lp(inst, p1, system))
        backend.solve_lp(lp)
        assert backend.solve_lp(lp).iterations == 0      # kept at its optimum
        bad = make_t1().replace(devices=[Device("c", "a", TimeWindow(0, 0), 5.0,
                                                1.0, (0.0,))])
        assert backend.solve_lp(build_follower_lp(bad, np.array([3.0, 3.0]))
                                ).status is Status.INFEASIBLE
        again = backend.solve_lp(lp)
        assert again.iterations == cold.iterations > 0
        np.testing.assert_array_equal(again.x, cold.x)


class TestEnergyBalance:
    """Every schedule sources exactly the energy it consumes and stores; the
    committed rolling-horizon schedule is checked in ``test_rolling``."""

    @pytest.mark.parametrize("which", ["desk", "mini3", "week"])
    def test_extracted_schedule(self, which, week3):
        if which == "week":
            inst, system, _ = week3
        else:
            inst = (generate_instance(1, **DESK_SHAPE) if which == "desk"
                    else generate_mini_instance(14, n_bases=3))
            system = build_follower_system(inst)
        lp = build_follower_lp(inst, _profiles(inst, seed=9)[0], system)
        _, schedule, _ = solve_follower(lp, backend="scipy", system=system)
        assert schedule.battery_charge.any() and schedule.generation.any()
        assert energy_balance_residual(schedule) <= 1e-9

    def test_reference_schedule(self, week3):
        inst = week3[0]
        schedule = reference_case(inst, inst.tree.leaves[0].dg_bound).schedule
        assert schedule.battery_charge.any() and schedule.battery_draw.any()
        assert energy_balance_residual(schedule) <= 1e-9


class TestExtraction:
    """The index-array extractors against the reference keys, bit for bit."""

    @pytest.fixture(scope="class")
    def solved(self, week3):
        inst, system, ref = week3
        lp = build_follower_lp(inst, _profiles(inst, seed=5)[0], system)
        sol, fsol, fduals = solve_follower(lp, backend="scipy", system=system)
        return ref, sol, fsol, fduals

    def test_solution_matches_tag_oracle(self, solved):
        ref, sol, fsol, _ = solved
        inst = ref.instance
        n_scen, n_slots = inst.tree.n_leaves, inst.n_slots
        idx, x = ref.index, sol.x
        assert fsol.objective_value == float(sol.objective)
        shape = (n_scen, len(inst.devices), n_slots)
        device = {f: np.zeros(shape) for f in DEVICE_FAMILIES}  # 0 off-window
        for f in DEVICE_FAMILIES:
            for s in range(n_scen):
                for d, dev in enumerate(inst.devices):
                    for h in dev.window.slots:
                        device[f][s, d, h] = x[idx[(f, s, d, h)]]
        stored = {f: np.array([[x[idx[(f, s, h)]] for h in range(n_slots)]
                               for s in range(n_scen)]) for f in SLOT_FAMILIES}
        # summed in the order extract_solution sums them
        want = {"consumption": sum(device[f] for f in DEVICE_FAMILIES),
                "leader": device["x"].sum(axis=1) + stored["xs"],
                "competitor": device["xb"].sum(axis=1) + stored["xbs"],
                "generation": device["lam"].sum(axis=1) + stored["lams"],
                "battery_draw": device["sd"].sum(axis=1),
                "battery_charge": stored["xs"] + stored["xbs"] + stored["lams"]}
        for name, value in want.items():
            got = getattr(fsol, name)
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert (got == value).all(), name
        assert fsol.consumption.shape == shape
        assert fsol.leader.shape == (n_scen, n_slots)
        want = np.array([[x[idx[("S", s, h)]] for h in range(n_slots + 1)]
                         for s in range(n_scen)])
        assert fsol.battery_state.shape == want.shape
        assert (fsol.battery_state == want).all()

    def test_duals_match_row_oracle(self, solved):
        ref, sol, _, duals = solved
        want = np.array([-y if sense == LE else y
                         for sense, y in zip(ref.lp.sense.tolist(), sol.duals.tolist())])
        assert duals.dtype == want.dtype and duals.shape == want.shape
        assert (duals == want).all()
