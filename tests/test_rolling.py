"""Rolling horizon: config guards, demand actualization, commits, audits."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from gridtariff.generator import generate_mini_instance
from gridtariff.model import Device, TimeWindow
from gridtariff import rolling
from gridtariff.reformulation import (MAX_ESCALATIONS, AuditFlag,
                                      LimitWithoutIncumbent,
                                      UncertifiedOptimum, solve_bilevel)
from gridtariff.rolling import (RhAborted, RhConfig, RhTrajectory,
                                audit_trajectory, make_subinstance, n_windows,
                                run)
from gridtariff.scenario import MarkovSelector, uniform_selector
from gridtariff.solver import SolveOptions

from conftest import energy_balance_residual, make_t1
from test_reformulation import _NoExactIncumbent, _register

EXACT = dict(opts=SolveOptions(rel_gap=1e-9, time_limit=300.0), backend="scipy")


class TestRhConfig:
    def test_valid(self):
        RhConfig(window=6, step=1, frozen=4)
        RhConfig(window=6, step=6, frozen=0)

    def test_step_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            RhConfig(window=4, step=5, frozen=0)

    def test_frozen_plus_step_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            RhConfig(window=6, step=2, frozen=5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            RhConfig(window=0, step=1, frozen=0)
        with pytest.raises(ValueError):
            RhConfig(window=4, step=1, frozen=-1)


class TestMakeSubinstance:
    def _mini(self):
        return generate_mini_instance(1)

    def test_window_slice_and_prices(self):
        inst = self._mini()
        cfg = RhConfig(window=6, step=1, frozen=0)
        sub, kept = make_subinstance(inst, 3, RhTrajectory(inst), cfg, None)
        assert sub.n_slots == 7
        np.testing.assert_allclose(sub.prices.competitor,
                                   inst.prices.competitor[3:10])
        assert sub.tree.n_leaves == len(inst.tree.bases)

    def test_fully_served_device_excluded(self):
        inst = make_t1()
        traj = RhTrajectory(inst)
        traj.schedule.consumption[0, 0, 0] = 2.0  # whole demand already served
        cfg = RhConfig(window=1, step=1, frozen=0)
        sub, kept = make_subinstance(inst, 1, traj, cfg, 0)
        assert kept == []

    def test_residual_demand_subtracts_served(self):
        dev = Device("c", "a", TimeWindow(0, 3), 10.0, 4.0, (0.0,) * 4)
        inst = generate_mini_instance(1).replace(devices=[dev])
        traj = RhTrajectory(inst)
        traj.schedule.consumption[0, 0, 0] = 1.0
        traj.schedule.consumption[0, 0, 1] = 3.0  # 4 consumed before t=2
        cfg = RhConfig(window=4, step=2, frozen=0)
        sub, kept = make_subinstance(inst, 2, traj, cfg, 0)
        assert kept == [0]
        assert sub.devices[0].energy_demand == pytest.approx(6.0)

    def test_overhanging_window_capped_by_reachable_energy(self):
        # demand 10 at power 2 with the window reaching past the subhorizon:
        # only (t + window - first) * power = 3 * 2 is reachable
        dev = Device("c", "a", TimeWindow(5, 11), 10.0, 2.0, (0.0,) * 7)
        inst = generate_mini_instance(1).replace(devices=[dev])
        cfg = RhConfig(window=8, step=1, frozen=0)
        sub, kept = make_subinstance(inst, 0, RhTrajectory(inst), cfg, None)
        assert sub.devices[0].energy_demand == pytest.approx(min(10.0, 3 * 2.0))

    def test_clamp_warns_when_capacity_insufficient(self):
        dev = Device("c", "a", TimeWindow(0, 3), 8.0, 2.0, (0.0,) * 4)
        inst = generate_mini_instance(1).replace(devices=[dev])
        traj = RhTrajectory(inst)                     # nothing served yet
        cfg = RhConfig(window=2, step=1, frozen=0)
        with pytest.warns(UserWarning):
            sub, _ = make_subinstance(inst, 2, traj, cfg, 0)
        assert sub.devices[0].energy_demand == pytest.approx(4.0)

    def test_markov_probabilities_condition_on_previous(self):
        inst = generate_mini_instance(1, n_bases=3)
        cfg = RhConfig(window=6, step=1, frozen=0,
                       selector=uniform_selector(3, 0.4))
        sub, _ = make_subinstance(
            inst, 4, RhTrajectory(inst), cfg, previous_base=1)
        np.testing.assert_allclose(sub.tree.probabilities, [0.3, 0.4, 0.3])

    def test_battery_carry_over(self):
        inst = generate_mini_instance(1)
        traj = RhTrajectory(inst)
        traj.schedule.battery_state[0, 4] = 0.8
        cfg = RhConfig(window=4, step=1, frozen=0)
        sub, _ = make_subinstance(inst, 4, traj, cfg, 0)
        assert sub.battery.initial == pytest.approx(0.8)


class TestRun:
    def test_single_window_equals_one_shot(self):
        inst = generate_mini_instance(3)
        one = solve_bilevel(inst, opts=SolveOptions(rel_gap=1e-9),
                            backend="scipy")
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        assert len(traj.per_iteration_log) == 1
        assert traj.realized_leader_profit(inst) == pytest.approx(
            one.leader_objective, rel=1e-6, abs=1e-6)
        assert audit_trajectory(inst, traj).ok

    def test_frozen_prices_pinned_to_committed_values(self):
        inst = generate_mini_instance(2)
        cfg = RhConfig(window=6, step=1, frozen=3, **EXACT)
        traj = run(inst, cfg)
        assert traj.complete
        assert bool(traj.price_committed.all())
        for rec in traj.per_iteration_log:
            for h, v in rec.pinned.items():
                assert traj.frozen_prices[h] == v    # byte-identical

    def test_replay_determinism(self):
        inst = generate_mini_instance(2, n_bases=3)
        sel = uniform_selector(3, 0.4)
        cfg = RhConfig(window=6, step=2, frozen=0, selector=sel, seed=11, **EXACT)
        first = run(inst, cfg)
        replay = run(inst, RhConfig(window=6, step=2, frozen=2, selector=sel,
                                    seed=99, **EXACT),
                     forced_path=list(first.realized_bases))
        assert replay.realized_bases == first.realized_bases
        again = run(inst, RhConfig(window=6, step=2, frozen=2, selector=sel,
                                   seed=5, **EXACT),
                    forced_path=list(first.realized_bases))
        np.testing.assert_array_equal(replay.frozen_prices, again.frozen_prices)
        np.testing.assert_array_equal(replay.schedule.consumption,
                                      again.schedule.consumption)
        for mine, theirs in zip(replay.schedule.slot_totals(),
                                again.schedule.slot_totals()):
            np.testing.assert_array_equal(mine, theirs)

    def test_exact_runs_have_clean_audits(self):
        inst = generate_mini_instance(5)
        for frozen in (0, 2):
            cfg = RhConfig(window=6, step=1, frozen=frozen, **EXACT)
            traj = run(inst, cfg)
            audit = audit_trajectory(inst, traj)
            assert audit.ok, (frozen, audit)
            assert audit.competitor_energy <= 1e-6
            assert not audit.unmet_demand

    def test_objectives_differ_across_frozen_lengths(self):
        inst = generate_mini_instance(2, n_bases=3)
        sel = uniform_selector(3, 0.4)
        cfg0 = RhConfig(window=6, step=2, frozen=0, selector=sel, seed=3, **EXACT)
        t0 = run(inst, cfg0)
        t4 = run(inst, RhConfig(window=6, step=2, frozen=4, selector=sel,
                                seed=3, **EXACT),
                 forced_path=list(t0.realized_bases))
        assert t0.complete and t4.complete
        assert audit_trajectory(inst, t0).ok
        assert audit_trajectory(inst, t4).ok

    def test_realized_accounting_matches_per_slot_sums(self):
        inst = generate_mini_instance(5, n_bases=3)
        cfg = RhConfig(window=6, step=2, frozen=2, selector=uniform_selector(3, 0.4),
                       seed=5, **EXACT)
        traj = run(inst, cfg)
        assert traj.complete and len(set(traj.realized_bases)) > 1
        p, pbar = traj.frozen_prices, inst.prices.competitor
        cost = inst.prices.supply_cost
        sched = traj.schedule
        billing = inconvenience = profit = 0.0
        for h in range(inst.n_slots):
            billing += p[h] * sched.leader[0, h] + pbar[h] * sched.competitor[0, h]
            profit += (p[h] - cost[h]) * sched.leader[0, h]
        for d, dev in enumerate(inst.devices):
            for h in dev.window.slots:
                inconvenience += dev.penalty_at(h) * sched.consumption[0, d, h]
        assert billing > 0.0 and inconvenience > 0.0
        bc, ic = traj.realized_follower_cost(inst)
        assert bc == pytest.approx(billing, rel=1e-12)
        assert ic == pytest.approx(inconvenience, rel=1e-12)
        assert traj.realized_leader_profit(inst) == pytest.approx(profit, rel=1e-12)


class TestForcedPath:
    """A forced path is checked against the run before any window is solved."""

    @pytest.mark.parametrize("path, match", [
        ([-1, 0, 1, 2, 0, 1], r"base -1 at iteration 0 is outside \[0, 3\)"),
        ([0, 1, 2, 3, 0, 1], r"base 3 at iteration 3 is outside \[0, 3\)"),
        ([0, 1], "has 2 bases; the run has 6 windows")])
    def test_bad_path_raises_before_any_solve(self, monkeypatch, path, match):
        calls = []
        monkeypatch.setattr(rolling, "solve_bilevel",
                            lambda *args, **kwargs: calls.append(args))
        inst = generate_mini_instance(14, n_bases=3)
        cfg = RhConfig(window=6, step=1, frozen=0, backend="scipy")
        with pytest.raises(ValueError, match=match):
            run(inst, cfg, forced_path=path)
        assert not calls

    @pytest.mark.parametrize("window, step", [(1, 1), (6, 1), (6, 2), (4, 3),
                                              (11, 1), (12, 5), (20, 7)])
    def test_window_count_matches_the_loop_rule(self, window, step):
        inst = generate_mini_instance(1)          # slots 0..11
        t, count = 0, 1
        while t + window < inst.horizon.last_slot:
            t, count = t + step, count + 1
        assert n_windows(inst, RhConfig(window=window, step=step)) == count


class TestWindowRetry:
    """A window is retried only when the solve ran out of limits."""

    def test_programming_error_propagates(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise TypeError("bug in the pricing code")

        monkeypatch.setattr(rolling, "solve_bilevel", broken)
        inst = generate_mini_instance(3)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        with pytest.raises(TypeError, match="bug in the pricing code"):
            run(inst, cfg)
        assert len(calls) == 1

    def test_uncertified_optimum_not_retried(self, monkeypatch):
        inst = generate_mini_instance(3)
        calls = []

        def risky(sub, *, opts, **kwargs):
            calls.append(opts.time_limit)
            sol = solve_bilevel(sub, opts=opts, **kwargs)
            sol.audit.flags.append(AuditFlag(0, "dual", 1.0, 1.0, False))
            raise UncertifiedOptimum(sol, "forced")

        monkeypatch.setattr(rolling, "solve_bilevel", risky)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        with pytest.raises(UncertifiedOptimum, match="forced"):
            run(inst, cfg)
        assert calls == [300.0]

    def test_solver_limit_retried_with_twice_the_time(self, monkeypatch):
        limits = []

        def out_of_time_once(sub, *, opts, **kwargs):
            limits.append(opts.time_limit)
            if len(limits) == 1:
                raise LimitWithoutIncumbent("no incumbent within limits")
            return solve_bilevel(sub, opts=opts, **kwargs)

        monkeypatch.setattr(rolling, "solve_bilevel", out_of_time_once)
        inst = generate_mini_instance(3)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        assert limits == [300.0, 600.0]
        assert traj.complete and len(traj.per_iteration_log) == 1
        assert bool(traj.price_committed.all())
        assert audit_trajectory(inst, traj).ok

    def test_no_exact_incumbent_aborts_without_a_retry(self, monkeypatch):
        stub = _NoExactIncumbent()
        inst = generate_mini_instance(3)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0,
                       **{**EXACT, "backend": _register(monkeypatch, stub)})
        with pytest.raises(RhAborted, match="no tolerance-exact incumbent"):
            run(inst, cfg)
        assert stub.milps == 1 + MAX_ESCALATIONS == 4


@pytest.fixture(scope="module", params=[5, 14])
def mini_run(request):
    """A realize run with ``rh-mini3``'s settings on 3-base mini seed 5 and
    on seed 14, whose bases differ (seed 5's three are one zero path), with
    the solution of each window."""
    windows = []

    def recorded(*args, **kwargs):
        windows.append(solve_bilevel(*args, **kwargs))
        return windows[-1]

    inst = generate_mini_instance(request.param, n_bases=3)
    cfg = RhConfig(window=6, step=1, frozen=0, seed=request.param,
                   backend="scipy", selector=uniform_selector(3, 0.4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rolling, "solve_bilevel", recorded)
        traj = run(inst, cfg)
    return inst, traj, windows


class TestAuditTrajectory:
    def test_committed_states_are_the_window_lps(self, mini_run):
        inst, traj, windows = mini_run
        states = traj.schedule.battery_state[0]
        assert states.max() > 1.0                  # the battery is in use
        starts = [rec.t for rec in traj.per_iteration_log] + [inst.n_slots]
        assert len(windows) == len(traj.per_iteration_log)
        for k, (sol, rec) in enumerate(zip(windows, traj.per_iteration_log)):
            n = starts[k + 1] - rec.t
            np.testing.assert_array_equal(
                states[rec.t + 1: rec.t + n + 1],
                sol.follower.battery_state[rec.realized_base, 1: n + 1])
        assert audit_trajectory(inst, traj).battery_residual <= 1e-9

    def test_committed_schedule_balances_energy(self, mini_run):
        inst, traj, _ = mini_run
        schedule = traj.schedule
        assert schedule.battery_charge.any() and schedule.battery_draw.any()
        assert energy_balance_residual(schedule) <= 1e-9

    def test_injected_battery_state_detected(self, mini_run):
        inst, traj, _ = mini_run
        traj = copy.deepcopy(traj)
        slot = int(np.argmax(traj.schedule.battery_state[0]))
        traj.schedule.battery_state[0, slot] += 0.1
        audit = audit_trajectory(inst, traj)
        assert audit.battery_residual == pytest.approx(0.1, abs=1e-9)
        assert not audit.ok

    def test_injected_generation_overuse_detected(self):
        inst = generate_mini_instance(1)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        slot = int(np.argmax(traj.realized_dg_path(inst)))
        traj.schedule.generation[0, slot] += 5.0
        audit = audit_trajectory(inst, traj)
        overuses = [v for h, v in audit.dg_violations if h == slot]
        assert overuses and overuses[0] == pytest.approx(5.0, abs=1e-6)

    def test_injected_unmet_demand_detected(self):
        inst = generate_mini_instance(1)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        d = 0
        dev = inst.devices[d]
        traj.schedule.consumption[0, d, :] *= 0.0
        audit = audit_trajectory(inst, traj)
        assert any(key == dev.key for key, _ in audit.unmet_demand)
