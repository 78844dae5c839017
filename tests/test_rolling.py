"""Rolling horizon: config guards, demand actualization, commits, audits."""

from __future__ import annotations

import numpy as np
import pytest

from gridtariff.follower import DEVICE_FAMILIES
from gridtariff.generator import generate_mini_instance
from gridtariff.model import Device, TimeWindow
from gridtariff import rolling
from gridtariff.reformulation import (AuditFlag, BilevelInfeasible,
                                      UncertifiedOptimum, solve_bilevel)
from gridtariff.rolling import (RhConfig, RhTrajectory, audit_trajectory,
                                make_subinstance, run)
from gridtariff.scenario import MarkovSelector, uniform_selector
from gridtariff.solver import SolveOptions

from conftest import make_t1

EXACT = dict(rel_gap=1e-9, per_iteration_time_limit=300.0, backend="scipy")


def empty_trajectory(instance) -> RhTrajectory:
    traj = RhTrajectory(instance.n_slots)
    n_dev = len(instance.devices)
    traj.frozen_prices = np.full(instance.n_slots, np.nan)
    traj.price_committed = np.zeros(instance.n_slots, dtype=bool)
    traj.base_by_slot = np.full(instance.n_slots, -1, dtype=np.int64)
    traj.device_energy = {f: np.zeros((n_dev, instance.n_slots))
                          for f in DEVICE_FAMILIES}
    traj.stored = {f: np.zeros(instance.n_slots) for f in ("xs", "xbs", "lams")}
    traj.battery_state = np.zeros(instance.n_slots + 1)
    traj.battery_state[0] = instance.battery.initial
    return traj


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
        sub, kept, leaf_of_base = make_subinstance(inst, 3, empty_trajectory(inst),
                                                   cfg, None)
        assert sub.n_slots == 7
        np.testing.assert_allclose(sub.prices.competitor,
                                   inst.prices.competitor[3:10])
        assert len(leaf_of_base) == len(inst.tree.bases)

    def test_fully_served_device_excluded(self):
        inst = make_t1()
        traj = empty_trajectory(inst)
        traj.device_energy["x"][0, 0] = 2.0       # whole demand already served
        cfg = RhConfig(window=1, step=1, frozen=0)
        sub, kept, _ = make_subinstance(inst, 1, traj, cfg, 0)
        assert kept == []

    def test_residual_demand_subtracts_served(self):
        dev = Device("c", "a", TimeWindow(0, 3), 10.0, 4.0, (0.0,) * 4)
        inst = generate_mini_instance(1).replace(devices=[dev])
        traj = empty_trajectory(inst)
        traj.device_energy["x"][0, 0] = 1.0
        traj.device_energy["lam"][0, 1] = 3.0      # 4 consumed before t=2
        cfg = RhConfig(window=4, step=2, frozen=0)
        sub, kept, _ = make_subinstance(inst, 2, traj, cfg, 0)
        assert kept == [0]
        assert sub.devices[0].energy_demand == pytest.approx(6.0)

    def test_overhanging_window_capped_by_reachable_energy(self):
        # demand 10 at power 2 with the window reaching past the subhorizon:
        # only (t + window - first) * power = 3 * 2 is reachable
        dev = Device("c", "a", TimeWindow(5, 11), 10.0, 2.0, (0.0,) * 7)
        inst = generate_mini_instance(1).replace(devices=[dev])
        cfg = RhConfig(window=8, step=1, frozen=0)
        sub, kept, _ = make_subinstance(inst, 0, empty_trajectory(inst), cfg, None)
        assert sub.devices[0].energy_demand == pytest.approx(min(10.0, 3 * 2.0))

    def test_clamp_warns_when_capacity_insufficient(self):
        dev = Device("c", "a", TimeWindow(0, 3), 8.0, 2.0, (0.0,) * 4)
        inst = generate_mini_instance(1).replace(devices=[dev])
        traj = empty_trajectory(inst)                 # nothing served yet
        cfg = RhConfig(window=2, step=1, frozen=0)
        with pytest.warns(UserWarning):
            sub, _, _ = make_subinstance(inst, 2, traj, cfg, 0)
        assert sub.devices[0].energy_demand == pytest.approx(4.0)

    def test_markov_probabilities_condition_on_previous(self):
        inst = generate_mini_instance(1, n_bases=3)
        cfg = RhConfig(window=6, step=1, frozen=0,
                       selector=uniform_selector(3, 0.4))
        sub, _, leaf_of_base = make_subinstance(
            inst, 4, empty_trajectory(inst), cfg, previous_base=1)
        probs = np.zeros(len(inst.tree.bases))
        for b, leaf in enumerate(leaf_of_base):
            probs[b] = 0.0
        collected = {}
        for b, leaf in enumerate(leaf_of_base):
            collected.setdefault(leaf, 0.0)
            collected[leaf] += (0.4 if b == 1 else 0.3)
        for leaf, p in collected.items():
            assert sub.tree.probabilities[leaf] == pytest.approx(p)

    def test_battery_carry_over(self):
        inst = generate_mini_instance(1)
        traj = empty_trajectory(inst)
        traj.battery_state[4] = 0.8
        cfg = RhConfig(window=4, step=1, frozen=0)
        sub, _, _ = make_subinstance(inst, 4, traj, cfg, 0)
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
        for f in DEVICE_FAMILIES:
            np.testing.assert_array_equal(replay.device_energy[f],
                                          again.device_energy[f])

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

        def risky(sub, big_m, opts, **kwargs):
            calls.append(opts.time_limit)
            sol = solve_bilevel(sub, big_m, opts, **kwargs)
            sol.audit.flags.append(AuditFlag(0, "dual", 1.0, 1.0, False))
            raise UncertifiedOptimum(sol, "forced")

        monkeypatch.setattr(rolling, "solve_bilevel", risky)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        with pytest.raises(UncertifiedOptimum, match="forced"):
            run(inst, cfg)
        assert calls == [300.0]

    def test_solver_limit_retried_with_twice_the_time(self, monkeypatch):
        limits = []

        def out_of_time_once(sub, big_m, opts, **kwargs):
            limits.append(opts.time_limit)
            if len(limits) == 1:
                raise BilevelInfeasible("no incumbent within limits")
            return solve_bilevel(sub, big_m, opts, **kwargs)

        monkeypatch.setattr(rolling, "solve_bilevel", out_of_time_once)
        inst = generate_mini_instance(3)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        assert limits == [300.0, 600.0]
        assert traj.complete and len(traj.per_iteration_log) == 1
        assert bool(traj.price_committed.all())
        assert audit_trajectory(inst, traj).ok


class TestAuditTrajectory:
    def test_injected_generation_overuse_detected(self):
        inst = generate_mini_instance(1)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        slot = int(np.argmax(traj.realized_dg_path(inst)))
        traj.stored["lams"][slot] += 5.0
        audit = audit_trajectory(inst, traj)
        overuses = [v for h, v in audit.dg_violations if h == slot]
        assert overuses and overuses[0] == pytest.approx(5.0, abs=1e-6)

    def test_injected_unmet_demand_detected(self):
        inst = generate_mini_instance(1)
        cfg = RhConfig(window=inst.horizon.last_slot, step=1, frozen=0, **EXACT)
        traj = run(inst, cfg)
        d = 0
        dev = inst.devices[d]
        traj.device_energy["x"][d, :] *= 0.0
        traj.device_energy["xb"][d, :] *= 0.0
        traj.device_energy["lam"][d, :] *= 0.0
        traj.device_energy["sd"][d, :] *= 0.0
        audit = audit_trajectory(inst, traj)
        assert any(key == dev.key for key, _ in audit.unmet_demand)
