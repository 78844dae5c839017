"""Rolling-horizon pricing over a long horizon.

Each iteration solves the single-level MILP on a short window whose leading
price slots are pinned to values committed earlier, realizes which base
generation scenario comes true, commits the realized decisions for the step
just passed, updates residual demands and the battery state, and slides the
window.  Subwindow scenario trees contain only the base scenarios, weighted
by a one-step Markov rule conditioned on the previously realized base.

The loop runs windows ``{t, ..., min(t + window, H)}`` for ``t = 0, step,
2*step, ...`` and finishes with the first window that reaches the end of the
horizon, committing that window's decisions through the last slot.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .follower import (DEVICE_FAMILIES, SLOT_FAMILIES, FollowerSolution,
                       evaluate_schedule, leader_profit)
from .model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from .reformulation import BilevelInfeasible, BilevelSolution, solve_bilevel
from .scenario import (BaseScenario, MarkovSelector, flat_tree, realize_next,
                       single_path_tree)
from .solver import SolveOptions


@dataclass(frozen=True)
class RhConfig:
    """Window length, step and frozen prefix, all in slots.

    The step must fit inside the window, and the frozen prefix plus one step
    must also fit, so that every slot pinned at the next iteration was priced
    by an earlier one.
    """

    window: int                  # slots re-optimized per iteration (l_RH)
    step: int = 1                # slide between iterations (s_RH)
    frozen: int = 0              # pinned price prefix per iteration (l_FH)
    per_iteration_time_limit: float = 150.0
    selector: MarkovSelector = MarkovSelector(1.0, 0.0)
    seed: int = 0
    rel_gap: float = 1e-4
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.step < 1 or self.window < 1:
            raise ValueError("window and step must be >= 1")
        if self.step > self.window:
            raise ValueError(f"step {self.step} exceeds window {self.window}")
        if self.frozen < 0:
            raise ValueError("frozen prefix must be >= 0")
        if self.frozen + self.step > self.window:
            raise ValueError(
                f"frozen prefix {self.frozen} + step {self.step} exceeds window "
                f"{self.window}: later iterations would pin unpriced slots")


@dataclass
class IterationRecord:
    t: int
    status: str
    gap: float
    runtime_s: float
    leader_obj: float
    follower_obj: float
    realized_base: int
    pinned: dict = field(default_factory=dict)   # absolute slot -> pinned price


@dataclass
class RhTrajectory:
    """Realized path, committed prices and slot-by-slot realized decisions."""

    n_slots: int
    realized_bases: list[int] = field(default_factory=list)   # one per iteration
    base_by_slot: np.ndarray | None = None
    frozen_prices: np.ndarray | None = None
    price_committed: np.ndarray | None = None
    device_energy: dict = field(default_factory=dict)   # family -> (n_dev, n_slots)
    stored: dict = field(default_factory=dict)          # family -> (n_slots,)
    battery_state: np.ndarray | None = None
    per_iteration_log: list[IterationRecord] = field(default_factory=list)
    complete: bool = False

    def realized_dg_path(self, instance: Instance) -> np.ndarray:
        bases = instance.tree.bases
        return np.array([bases[b].dg_bound[h]
                         for h, b in enumerate(self.base_by_slot)])

    def consumption_by_slot(self) -> np.ndarray:
        return sum(self.device_energy[f].sum(axis=0) for f in DEVICE_FAMILIES)

    def _realized(self, instance: Instance) -> tuple[Instance, FollowerSolution]:
        """The instance over the realized generation path, and the committed
        decisions as its one-scenario schedule (views of this trajectory)."""
        single = instance.replace(
            tree=single_path_tree(self.realized_dg_path(instance)))
        schedule = FollowerSolution(
            {f: v[None] for f, v in self.device_energy.items()},
            {f: v[None] for f, v in self.stored.items()},
            self.battery_state[None], float("nan"))
        return single, schedule

    def realized_leader_profit(self, instance: Instance) -> float:
        single, schedule = self._realized(instance)
        return leader_profit(single, self.frozen_prices, schedule)

    def realized_follower_cost(self, instance: Instance) -> tuple[float, float]:
        """(billing, inconvenience) of the realized schedule."""
        single, schedule = self._realized(instance)
        costs = evaluate_schedule(single, self.frozen_prices, schedule)
        return costs.billing_cost, costs.inconvenience_cost


class RhAborted(RuntimeError):
    def __init__(self, message: str, trajectory: RhTrajectory):
        super().__init__(message)
        self.trajectory = trajectory


def make_subinstance(instance: Instance, t: int, trajectory: RhTrajectory,
                     config: RhConfig, previous_base: int | None
                     ) -> tuple[Instance, list[int]]:
    """Window instance starting at slot t with actualized demands and battery.

    Returns the instance and the original index of each kept device.  Base
    ``b`` is leaf ``b`` of the window's flat tree; bases whose generation
    paths coincide on the window share their decisions through the tree's
    nodes (``node_map``), so the window LP is the same as with one leaf of
    their summed probability.  Residual demand subtracts everything
    the realized path already served; demand reaching past the window is
    capped so the device consumes as much as possible inside it, and any
    residual exceeding the remaining window capacity is clamped with a
    warning.
    """
    H = instance.horizon.last_slot
    t_end = min(t + config.window, H)
    n_sub = t_end - t + 1
    devices: list[Device] = []
    kept: list[int] = []
    for d, dev in enumerate(instance.devices):
        win = dev.window.intersect(t, t_end)
        if win is None:
            continue
        residual = dev.energy_demand
        if dev.window.first < t:
            for f in DEVICE_FAMILIES:
                residual -= float(trajectory.device_energy[f][d, :t].sum())
            residual = max(0.0, residual)
        if dev.window.last > t + config.window:
            cap = (t + config.window - max(dev.window.first, t)) * dev.max_power
            residual = min(residual, cap)
        if residual <= 1e-9:
            continue
        win_cap = len(win) * dev.max_power
        if residual > win_cap + 1e-9:
            warnings.warn(
                f"device {dev.key}: residual demand {residual:.6g} exceeds window"
                f" capacity {win_cap:.6g} at t={t}; clamping", stacklevel=2)
            residual = win_cap
        local = TimeWindow(win.first - t, win.last - t)
        pens = tuple(dev.penalty_at(h) for h in win.slots)
        devices.append(Device(dev.client_id, dev.appliance_id, local,
                              residual, dev.max_power, pens))
        kept.append(d)

    bat = instance.battery
    s_now = float(trajectory.battery_state[t]) if t > 0 else bat.initial
    s_now = min(max(s_now, bat.min_level), bat.max_level) if bat.usable else s_now
    battery = Battery(s_now, bat.min_level, bat.max_level,
                      bat.charge_eff, bat.discharge_eff)

    prices = PriceData(instance.prices.competitor[t: t_end + 1].copy(),
                       instance.prices.supply_cost[t: t_end + 1].copy())
    n_b = len(instance.tree.bases)
    if previous_base is None or n_b == 1:
        base_probs = np.full(n_b, 1.0 / n_b)
    else:
        base_probs = config.selector.next_probs(previous_base, n_b)
    bases = [BaseScenario(b, base.dg_bound[t: t_end + 1])
             for b, base in enumerate(instance.tree.bases)]
    tree = flat_tree(bases, n_sub, base_probs)
    sub = Instance(Horizon(n_sub, instance.horizon.slot_minutes), devices,
                   battery, prices, tree, name=f"{instance.name}@t{t}")
    return sub, kept


def run(instance: Instance, config: RhConfig,
        forced_path: list[int] | None = None) -> RhTrajectory:
    """Execute the rolling loop and assemble the full-horizon trajectory."""
    n_slots = instance.n_slots
    n_dev = len(instance.devices)
    n_bases = len(instance.tree.bases)
    rng = np.random.default_rng(config.seed)

    traj = RhTrajectory(n_slots)
    traj.frozen_prices = np.full(n_slots, np.nan)
    traj.price_committed = np.zeros(n_slots, dtype=bool)
    traj.base_by_slot = np.full(n_slots, -1, dtype=np.int64)
    traj.device_energy = {f: np.zeros((n_dev, n_slots)) for f in DEVICE_FAMILIES}
    traj.stored = {f: np.zeros(n_slots) for f in SLOT_FAMILIES}
    traj.battery_state = np.zeros(n_slots + 1)
    traj.battery_state[0] = instance.battery.initial

    t = 0
    previous_base: int | None = None
    iteration = 0
    H = instance.horizon.last_slot
    while True:
        final = t + config.window >= H
        t_end = min(t + config.window, H)
        sub, kept = make_subinstance(instance, t, traj, config, previous_base)
        pinned = {h - t: float(traj.frozen_prices[h])
                  for h in range(t, t_end + 1) if traj.price_committed[h]}
        opts = SolveOptions(time_limit=config.per_iteration_time_limit,
                            rel_gap=config.rel_gap)
        t0 = time.monotonic()
        sol, failure = _solve_window(sub, opts, pinned, config)
        runtime = time.monotonic() - t0
        if sol is None:
            traj.complete = False
            raise RhAborted(f"window at t={t} produced no solution within the"
                            f" escalated time limit ({failure})", traj)

        if forced_path is not None:
            realized = int(forced_path[iteration])
        else:
            realized = realize_next(config.selector, previous_base, rng, n_bases)

        commit_hi = t_end if final else min(t + config.step - 1, t_end)
        _commit(traj, sol, kept, t, commit_hi, realized)
        price_hi = t_end if final else min(t + config.step + config.frozen, t_end)
        _commit_prices(traj, sol, t, price_hi)
        _roll_battery(instance, traj, t, commit_hi)

        traj.realized_bases.append(realized)
        traj.base_by_slot[t: commit_hi + 1] = realized
        traj.per_iteration_log.append(IterationRecord(
            t=t, status=sol.status.value, gap=float(sol.mip_gap),
            runtime_s=runtime, leader_obj=float(sol.leader_objective),
            follower_obj=float(sol.follower_objective), realized_base=realized,
            pinned={t + k: v for k, v in pinned.items()}))

        previous_base = realized
        iteration += 1
        if final:
            break
        t += config.step

    traj.complete = True
    return traj


def _solve_window(sub: Instance, opts: SolveOptions, pinned: dict,
                  config: RhConfig) -> tuple[BilevelSolution | None, str]:
    for attempt in range(2):                    # escalate the time limit once
        try:
            return solve_bilevel(sub, opts=opts, backend=config.backend,
                                 pinned_prices=pinned), ""
        except BilevelInfeasible as exc:        # limits ran out; bugs propagate
            if attempt == 1:
                return None, f"{type(exc).__name__}: {exc}"
            opts = SolveOptions(time_limit=opts.time_limit * 2,
                                rel_gap=opts.rel_gap)


def _commit(traj: RhTrajectory, sol: BilevelSolution, kept: list[int], t: int,
            hi: int, realized: int) -> None:
    n = hi - t + 1                  # window slots 0..n-1 are slots t..hi
    for f in DEVICE_FAMILIES:
        traj.device_energy[f][kept, t: hi + 1] = sol.follower.device[f][realized, :, :n]
    for f in SLOT_FAMILIES:
        traj.stored[f][t: hi + 1] = sol.follower.stored[f][realized, :n]


def _commit_prices(traj: RhTrajectory, sol: BilevelSolution, t: int,
                   hi: int) -> None:
    for h in range(t, hi + 1):
        if not traj.price_committed[h]:
            traj.frozen_prices[h] = sol.prices[h - t]
            traj.price_committed[h] = True


def _roll_battery(instance: Instance, traj: RhTrajectory, t: int, hi: int) -> None:
    bat = instance.battery
    for h in range(t, hi + 1):
        draw = sum(traj.device_energy["sd"][:, h])
        charge = (traj.stored["lams"][h] + traj.stored["xs"][h]
                  + traj.stored["xbs"][h])
        traj.battery_state[h + 1] = (bat.discharge_eff * traj.battery_state[h]
                                     - draw + bat.charge_eff * charge)


# -- audit ---------------------------------------------------------------------


@dataclass
class TrajectoryAudit:
    competitor_energy: float
    dg_violations: list          # (slot, overuse magnitude)
    unmet_demand: list           # (device key, shortfall)
    battery_residual: float
    battery_bound_violations: list
    draw_cap_violations: list
    power_cap_violations: list

    @property
    def ok(self) -> bool:
        return (self.competitor_energy <= 1e-6
                and not self.dg_violations
                and not self.unmet_demand
                and self.battery_residual <= 1e-6
                and not self.battery_bound_violations
                and not self.draw_cap_violations
                and not self.power_cap_violations)


def audit_trajectory(instance: Instance, traj: RhTrajectory) -> TrajectoryAudit:
    """Quantify optimism violations and feasibility slippage of a realized run,
    beyond an absolute tolerance of 1e-6."""
    tol = 1e-6
    dg_path = traj.realized_dg_path(instance)
    n = instance.n_slots
    bat = instance.battery

    competitor = float(traj.device_energy["xb"].sum() + traj.stored["xbs"].sum())

    dg_viol = []
    dg_use = traj.device_energy["lam"].sum(axis=0) + traj.stored["lams"]
    for h in range(n):
        over = dg_use[h] - dg_path[h]
        if over > tol:
            dg_viol.append((h, float(over)))

    unmet = []
    for d, dev in enumerate(instance.devices):
        got = sum(float(traj.device_energy[f][d].sum()) for f in DEVICE_FAMILIES)
        if got < dev.energy_demand - max(tol, 1e-9 * dev.energy_demand):
            unmet.append((dev.key, float(dev.energy_demand - got)))

    state = np.zeros(n + 1)
    state[0] = bat.initial
    bound_viol = []
    draw_viol = []
    for h in range(n):
        draw = float(traj.device_energy["sd"][:, h].sum())
        charge = float(traj.stored["lams"][h] + traj.stored["xs"][h]
                       + traj.stored["xbs"][h])
        if draw > state[h] + tol:
            draw_viol.append((h, draw - state[h]))
        state[h + 1] = bat.discharge_eff * state[h] - draw + bat.charge_eff * charge
        if not (bat.min_level - tol <= state[h + 1] <= bat.max_level + tol):
            bound_viol.append((h + 1, float(state[h + 1])))
    residual = float(np.abs(state - traj.battery_state).max())

    power_viol = []
    for d, dev in enumerate(instance.devices):
        for h in dev.window.slots:
            cons = sum(traj.device_energy[f][d, h] for f in DEVICE_FAMILIES)
            if cons > dev.max_power + tol:
                power_viol.append((dev.key, h, float(cons - dev.max_power)))
        outside = sum(float(np.delete(traj.device_energy[f][d],
                                      list(dev.window.slots)).sum())
                      for f in DEVICE_FAMILIES)
        if outside > tol:
            power_viol.append((dev.key, -1, outside))

    return TrajectoryAudit(competitor, dg_viol, unmet, residual, bound_viol,
                           draw_viol, power_viol)
