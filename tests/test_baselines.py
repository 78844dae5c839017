"""Reference greedy schedule, perfect-information case, comparison math."""

from __future__ import annotations

import numpy as np
import pytest

from gridtariff.baselines import (BaselineResult, compare, compare_solutions,
                                  perfect_case, reference_case)
from gridtariff.follower import (build_follower_lp, build_follower_system,
                                 evaluate_schedule, solve_follower)
from gridtariff.generator import generate_mini_instance, greedy_device_profile
from gridtariff.model import Battery, Device, TimeWindow, validate
from gridtariff.reformulation import solve_bilevel
from gridtariff.scenario import single_path_tree
from gridtariff.solver import SolveOptions, Status, check_lp_solution, simplex

from conftest import grid_oracle, make_t1, random_tiny_instance


class TestGreedySchedule:
    def test_fills_window_front_at_max_power(self):
        dev = Device("c", "a", TimeWindow(0, 3), 4.0, 2.0, (0.0,) * 4)
        inst = make_t1().replace(
            devices=[dev],
            tree=single_path_tree(np.zeros(4)),
            prices=make_t1().prices)
        inst.horizon = type(inst.horizon)(4, 30)
        inst.prices = type(inst.prices)(np.full(4, 3.0), np.full(4, 1.0))
        profile = greedy_device_profile(inst.devices, inst.n_slots)
        np.testing.assert_allclose(profile[0], [2.0, 2.0, 0.0, 0.0])

    def test_generation_covers_billing(self):
        inst = make_t1(C=(0.0, 0.0))
        ref = reference_case(inst, np.array([5.0, 5.0]))
        assert ref.billing_cost == pytest.approx(0.0, abs=1e-9)
        assert ref.generalized_cost == pytest.approx(0.0, abs=1e-9)

    def test_t1_reference_costs(self, t1):
        ref = reference_case(t1, np.zeros(2))
        assert ref.kind == "reference"
        np.testing.assert_allclose(ref.prices, t1.prices.competitor)
        assert ref.billing_cost == pytest.approx(6.0)
        assert ref.inconvenience_cost == pytest.approx(0.0, abs=1e-12)
        assert ref.leader_profit == pytest.approx(2 * (3.0 - 2.5))

    def test_reference_schedule_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            inst = random_tiny_instance(rng, n_slots=4, n_devices=2,
                                        battery=True, generation=True)
            dg = inst.tree.leaves[0].dg_bound
            ref = reference_case(inst, dg)
            system = build_follower_system(
                inst.replace(tree=single_path_tree(dg)))
            lp = build_follower_lp(inst.replace(tree=single_path_tree(dg)),
                                   inst.prices.competitor, system)
            x = np.zeros(system.n_vars)
            for f, vals in ref.schedule.device.items():
                for d, dev in enumerate(inst.devices):
                    for h in dev.window.slots:
                        x[system.var_index[(f, 0, d, h)]] = vals[0, d, h]
            for f in ("xs", "xbs", "lams"):
                for h in range(inst.n_slots):
                    x[system.var_index[(f, 0, h)]] = ref.schedule.stored[f][0][h]
            for h in range(inst.n_slots + 1):
                x[system.var_index[("S", 0, h)]] = ref.schedule.battery_state[0][h]
            assert not check_lp_solution(lp, x, tol=1e-7)

    def test_reference_minimizes_inconvenience(self):
        # greedy front-loading is optimal for the delay-cost-only objective
        rng = np.random.default_rng(9)
        for _ in range(5):
            inst = random_tiny_instance(rng, n_slots=4, n_devices=2,
                                        generation=True)
            dg = inst.tree.leaves[0].dg_bound
            ref = reference_case(inst, dg)
            system = build_follower_system(inst)
            lp = build_follower_lp(inst, np.zeros(inst.n_slots), system)
            obj = system.c0.copy()          # purely the delay penalties
            sol = simplex.solve_with_workspace(simplex.Workspace(lp), obj, False)
            assert sol.status is Status.OPTIMAL
            assert ref.inconvenience_cost == pytest.approx(
                sol.objective, rel=1e-6, abs=1e-6)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(30)
        for _ in range(4):
            inst = random_tiny_instance(rng, n_slots=3, n_devices=2,
                                        battery=True, generation=True)
            dg = inst.tree.leaves[0].dg_bound
            ref = reference_case(inst, dg)
            system = build_follower_system(inst)
            sol_opt = solve_bilevel(inst, opts=SolveOptions(rel_gap=0.0))
            assert sol_opt.follower_objective <= ref.generalized_cost + 1e-6
            for _ in range(20):
                prices = rng.uniform(0, 1, inst.n_slots) * inst.prices.competitor
                lp = build_follower_lp(inst, prices, system)
                s, _, _ = solve_follower(lp, system=system)
                assert s.objective <= ref.generalized_cost + 1e-6

    def test_reference_schedule_zero_outside_windows(self):
        rng = np.random.default_rng(4)
        insts = [generate_mini_instance(seed, preset=preset)
                 for seed in (1, 2) for preset in ("mini", "mini24")]
        insts += [random_tiny_instance(rng, n_slots=5, n_devices=3, battery=True,
                                       generation=True) for _ in range(4)]
        for inst in insts:
            ref = reference_case(inst, inst.tree.leaves[0].dg_bound)
            for f, vals in ref.schedule.device.items():
                assert vals.shape == (1, len(inst.devices), inst.n_slots)
                for d, dev in enumerate(inst.devices):
                    outside = np.delete(vals[0, d], list(dev.window.slots))
                    assert not outside.any(), (inst.name, f, d)

    def test_battery_floor_decay_top_up(self):
        # a positive floor forces a trickle charge when the state decays
        inst = make_t1().replace(battery=Battery(1.0, 1.0, 2.0, 0.9, 0.9))
        assert validate(inst).ok
        ref = reference_case(inst, np.zeros(2))
        state = ref.schedule.battery_state[0]
        assert np.all(state >= 1.0 - 1e-9)


class TestPerfectCase:
    def test_single_scenario_equals_one_shot(self, t1):
        direct = solve_bilevel(t1, opts=SolveOptions(rel_gap=0.0))
        perfect = perfect_case(t1, t1.tree.leaves[0].dg_bound,
                               opts=SolveOptions(rel_gap=0.0))
        assert perfect.kind == "perfect"
        assert perfect.leader_profit == pytest.approx(direct.leader_objective,
                                                      abs=1e-9)

    def test_t1_matches_grid_oracle(self, t1):
        perfect = perfect_case(t1, t1.tree.leaves[0].dg_bound,
                               opts=SolveOptions(rel_gap=0.0))
        best, _ = grid_oracle(t1)
        # the lattice undershoots by at most one step worth of revenue
        resolution = 0.05 * float(t1.prices.competitor.max()) * t1.total_demand()
        assert perfect.leader_profit >= best - 1e-9
        assert perfect.leader_profit <= best + resolution + 1e-9

    def test_less_generation_weakly_better_for_supplier(self):
        rng = np.random.default_rng(14)
        inst = random_tiny_instance(rng, n_slots=3, n_devices=2, generation=True)
        zero = perfect_case(inst, np.zeros(3), opts=SolveOptions(rel_gap=0.0))
        high = perfect_case(inst, np.full(3, 2.0), opts=SolveOptions(rel_gap=0.0))
        assert zero.leader_profit >= high.leader_profit - 1e-9


class TestCompare:
    def test_equal_runs_are_100_percent(self):
        ref = BaselineResult("reference", np.zeros(1), None, 50.0, 40.0, 10.0, 50.0)
        cmp = compare(50.0, 40.0, 10.0, ref)
        assert cmp.pct_diff == pytest.approx(0.0)
        assert cmp.pct_bc == pytest.approx(100.0)
        assert cmp.pct_ic == pytest.approx(100.0)
        assert cmp.pct_gc == pytest.approx(100.0)

    def test_large_magnitude_arithmetic(self):
        # percentage columns stay accurate at realistic magnitudes
        ref = BaselineResult("reference", np.zeros(1), None,
                             34172.68, 46573.2, 525.13, 47098.33)
        cmp = compare(34676.53, 46025.7, 877.31, ref)
        assert cmp.pct_diff == pytest.approx(1.47, abs=5e-3)
        assert cmp.pct_bc == pytest.approx(98.82, abs=5e-3)
        assert cmp.pct_ic == pytest.approx(167.07, abs=5e-3)

    def test_zero_inconvenience_ratio_undefined(self):
        ref = BaselineResult("reference", np.zeros(1), None, 10.0, 30.0, 0.0, 30.0)
        cmp = compare(10.0, 30.0, 0.0, ref)
        assert cmp.pct_ic is None

    def test_compare_solutions_consistent(self, t1):
        sol = solve_bilevel(t1, opts=SolveOptions(rel_gap=0.0))
        ref = reference_case(t1, np.zeros(2))
        cmp = compare_solutions(sol, ref, t1)
        costs = evaluate_schedule(t1, sol.prices, sol.follower)
        assert cmp.opt_leader == pytest.approx(sol.leader_objective)
        assert cmp.bc_opt == pytest.approx(costs.billing_cost)


def test_reference_on_mini_preset():
    inst = generate_mini_instance(4)
    dg = inst.tree.leaves[0].dg_bound
    ref = reference_case(inst, dg)
    # minimal-delay inconvenience has a closed form under front-loading
    expected_ic = 0.0
    profile = greedy_device_profile(inst.devices, inst.n_slots)
    for d, dev in enumerate(inst.devices):
        for h in dev.window.slots:
            expected_ic += dev.penalty_at(h) * profile[d, h]
    assert ref.inconvenience_cost == pytest.approx(expected_ic, rel=1e-9)
    assert ref.generalized_cost >= ref.billing_cost
