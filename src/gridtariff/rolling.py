"""Rolling-horizon pricing over a long horizon.

Each iteration solves the single-level MILP on a short window whose leading
price slots are pinned to values committed earlier, realizes which base
generation scenario comes true, commits the realized decisions for the step
just passed, updates residual demands and the battery state, and slides the
window.  Subwindow scenario trees contain only the base scenarios, weighted
by a one-step Markov rule conditioned on the previously realized base.

The trajectory holds the committed schedule as one single-scenario
``FollowerSolution``: consumption per device and the source totals per slot,
copied with their battery states from the realized leaf of each window LP.
Which device used which source is not reported.  ``audit_trajectory``
re-simulates the battery from the committed draws and charges and measures
the committed states against it.

The loop runs windows ``{t, ..., min(t + window, H)}`` for ``t = 0, step,
2*step, ...`` and finishes with the first window that reaches the end of the
horizon, committing that window's decisions through the last slot.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .follower import (FollowerSolution, _window_cells, evaluate_schedule,
                       leader_profit)
from .model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from .reformulation import (BilevelInfeasible, BilevelSolution,
                            LimitWithoutIncumbent, solve_bilevel)
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
    opts: SolveOptions = field(  # every window's solver settings
        default_factory=lambda: SolveOptions(time_limit=150.0))
    selector: MarkovSelector = MarkovSelector(1.0, 0.0)
    seed: int = 0
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.step < 1 or self.window < 1:
            raise ValueError("window and step must be >= 1")
        if self.step > self.window:
            raise ValueError(f"step {self.step} exceeds window {self.window}")
        if self.frozen < 0:
            raise ValueError("frozen prefix must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


class RhTrajectory:
    """Realized path, committed prices (NaN until committed) and the
    committed decisions as one scenario over the horizon (zero until then)."""

    def __init__(self, instance: Instance):
        n_slots = instance.n_slots
        self.schedule = FollowerSolution.zeros(1, len(instance.devices), n_slots)
        self.schedule.battery_state[0, 0] = instance.battery.initial
        self.frozen_prices = np.full(n_slots, np.nan)
        self.base_by_slot = np.full(n_slots, -1, dtype=np.int64)
        self.per_iteration_log: list[IterationRecord] = []
        self.complete = False

    @property
    def realized_bases(self) -> list[int]:
        """The base realized after each iteration, in order."""
        return [r.realized_base for r in self.per_iteration_log]

    @property
    def price_committed(self) -> np.ndarray:
        return ~np.isnan(self.frozen_prices)

    def realized_dg_path(self, instance: Instance) -> np.ndarray:
        bases = instance.tree.bases
        return np.array([bases[b].dg_bound[h]
                         for h, b in enumerate(self.base_by_slot)])

    def _realized(self, instance: Instance) -> Instance:
        """The instance over the realized generation path: ``schedule``'s."""
        return instance.replace(
            tree=single_path_tree(self.realized_dg_path(instance)))

    def realized_leader_profit(self, instance: Instance) -> float:
        return leader_profit(self._realized(instance), self.frozen_prices,
                             self.schedule)

    def realized_follower_cost(self, instance: Instance) -> tuple[float, float]:
        """(billing, inconvenience) of the realized schedule."""
        costs = evaluate_schedule(self._realized(instance), self.frozen_prices,
                                  self.schedule)
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
    served = trajectory.schedule.consumption[0]
    devices: list[Device] = []
    kept: list[int] = []
    for d, dev in enumerate(instance.devices):
        win = dev.window.intersect(t, t_end)
        if win is None:
            continue
        residual = dev.energy_demand
        if dev.window.first < t:
            residual = max(0.0, residual - float(served[d, :t].sum()))
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
    s_now = float(trajectory.schedule.battery_state[0, t])
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


def n_windows(instance: Instance, config: RhConfig) -> int:
    """How many windows a run solves: ``t = 0, step, ...`` up to the first
    window that reaches the last slot."""
    over = instance.horizon.last_slot - config.window
    return 1 + max(0, -(-over // config.step))


def check_forced_path(instance: Instance, config: RhConfig,
                      forced_path: list[int]) -> None:
    """Raise ``ValueError`` unless the path names a base of the instance for
    every window of the run."""
    n_bases, needed = len(instance.tree.bases), n_windows(instance, config)
    if len(forced_path) < needed:
        raise ValueError(f"forced path has {len(forced_path)} bases;"
                         f" the run has {needed} windows")
    for i, base in enumerate(forced_path):
        if not 0 <= base < n_bases:
            raise ValueError(f"forced path base {base} at iteration {i}"
                             f" is outside [0, {n_bases})")


def run(instance: Instance, config: RhConfig,
        forced_path: list[int] | None = None) -> RhTrajectory:
    """Execute the rolling loop and assemble the full-horizon trajectory.
    A ``forced_path`` is checked (``check_forced_path``) before any solve."""
    if forced_path is not None:
        check_forced_path(instance, config, forced_path)
    n_bases = len(instance.tree.bases)
    rng = np.random.default_rng(config.seed)
    traj = RhTrajectory(instance)
    previous_base: int | None = None
    H = instance.horizon.last_slot
    last = n_windows(instance, config) - 1
    for i in range(last + 1):
        t, final = i * config.step, i == last
        t_end = min(t + config.window, H)
        sub, kept = make_subinstance(instance, t, traj, config, previous_base)
        committed = traj.price_committed
        pinned = {h - t: float(traj.frozen_prices[h])
                  for h in range(t, t_end + 1) if committed[h]}
        t0 = time.monotonic()
        try:
            sol = _solve_window(sub, pinned, config)
        except BilevelInfeasible as exc:
            raise RhAborted(f"window at t={t} produced no solution"
                            f" ({type(exc).__name__}: {exc})", traj) from exc
        runtime = time.monotonic() - t0

        if forced_path is not None:
            realized = int(forced_path[i])
        else:
            realized = realize_next(config.selector, previous_base, rng, n_bases)

        commit_hi = t_end if final else min(t + config.step - 1, t_end)
        _commit(traj, sol, kept, t, commit_hi, realized)
        price_hi = t_end if final else min(t + config.step + config.frozen, t_end)
        _commit_prices(traj, sol, t, price_hi)

        traj.base_by_slot[t: commit_hi + 1] = realized
        traj.per_iteration_log.append(IterationRecord(
            t=t, status=sol.status.value, gap=float(sol.mip_gap),
            runtime_s=runtime, leader_obj=float(sol.leader_objective),
            follower_obj=float(sol.follower_objective), realized_base=realized,
            pinned={t + k: v for k, v in pinned.items()}))

        previous_base = realized

    traj.complete = True
    return traj


def _solve_window(sub: Instance, pinned: dict, config: RhConfig) -> BilevelSolution:
    """Solve the window; retry once with twice the time, only on a limit."""
    opts = config.opts
    try:
        return solve_bilevel(sub, opts=opts, backend=config.backend,
                             pinned_prices=pinned)
    except LimitWithoutIncumbent:
        opts = replace(opts, time_limit=2 * opts.time_limit)
    return solve_bilevel(sub, opts=opts, backend=config.backend,
                         pinned_prices=pinned)


def _commit(traj: RhTrajectory, sol: BilevelSolution, kept: list[int], t: int,
            hi: int, realized: int) -> None:
    """Copy the realized leaf's schedule for slots t..hi and its states."""
    n = hi - t + 1                  # window slots 0..n-1 are slots t..hi
    committed, window = traj.schedule, sol.follower
    committed.consumption[0, kept, t: hi + 1] = window.consumption[realized, :, :n]
    for mine, theirs in zip(committed.slot_totals(), window.slot_totals()):
        mine[0, t: hi + 1] = theirs[realized, :n]
    # + 0.0 turns the LP's empty states of -0.0 into 0.0 for the reports
    committed.battery_state[0, t + 1: hi + 2] = \
        window.battery_state[realized, 1: n + 1] + 0.0


def _commit_prices(traj: RhTrajectory, sol: BilevelSolution, t: int,
                   hi: int) -> None:
    """Commit the window's prices for the slots t..hi not yet priced."""
    new = np.isnan(traj.frozen_prices[t: hi + 1])
    traj.frozen_prices[t: hi + 1][new] = sol.prices[: hi - t + 1][new]


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
    beyond an absolute tolerance of 1e-6.  ``battery_residual`` is the largest
    distance of the committed battery states, which the window LPs set, from
    the battery re-simulated from the committed decisions."""
    tol = 1e-6
    sched = traj.schedule
    bat = instance.battery
    keys = [dev.key for dev in instance.devices]

    competitor = float(sched.competitor.sum())

    over = sched.generation[0] - traj.realized_dg_path(instance)
    dg_viol = [(int(h), float(over[h])) for h in np.flatnonzero(over > tol)]

    used = sched.consumption[0]                     # (device, slot)
    demand = np.array([dev.energy_demand for dev in instance.devices])
    got = used.sum(axis=1)
    short = got < demand - np.maximum(tol, 1e-9 * demand)
    unmet = [(keys[d], float(demand[d] - got[d])) for d in np.flatnonzero(short)]

    draw, charge = sched.battery_draw[0], sched.battery_charge[0]
    state = np.full(instance.n_slots + 1, bat.initial)
    for h in range(instance.n_slots):
        state[h + 1] = bat.next_level(state[h], draw[h], charge[h])
    draw_viol = [(int(h), float(draw[h] - state[h]))
                 for h in np.flatnonzero(draw > state[:-1] + tol)]
    in_bounds = (bat.min_level - tol <= state) & (state <= bat.max_level + tol)
    bound_viol = [(int(h), float(state[h]))
                  for h in np.flatnonzero(~in_bounds[1:]) + 1]
    residual = float(np.abs(state - sched.battery_state[0]).max())

    inside = np.zeros(used.shape, dtype=bool)
    inside[_window_cells(instance)] = True
    max_power = np.array([dev.max_power for dev in instance.devices])
    over_cap = inside & (used > max_power[:, None] + tol)
    outside = np.where(inside, 0.0, used).sum(axis=1)
    power_viol = [(keys[d], int(h), float(used[d, h] - max_power[d]))
                  for d, h in zip(*np.nonzero(over_cap))]
    power_viol += [(keys[d], -1, float(outside[d]))
                   for d in np.flatnonzero(outside > tol)]

    return TrajectoryAudit(competitor, dg_viol, unmet, residual, bound_viol,
                           draw_viol, power_viol)
