"""Domain types for pricing instances, plus structural validation.

Quantities are unitless: energy in abstract units per slot, prices in
abstract currency per energy unit.  A horizon of ``n_slots`` slots is indexed
``0..H`` with ``H = n_slots - 1``; the battery state carries one extra index
``H + 1`` for the post-horizon level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .scenario import ScenarioTree


@dataclass(frozen=True)
class Horizon:
    n_slots: int
    slot_minutes: int = 30

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError("horizon needs at least one slot")

    @property
    def last_slot(self) -> int:
        return self.n_slots - 1


@dataclass(frozen=True)
class TimeWindow:
    """Inclusive slot range during which a device may draw energy."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first < 0 or self.last < self.first:
            raise ValueError(f"bad time window [{self.first}, {self.last}]")

    def __len__(self) -> int:
        return self.last - self.first + 1

    @property
    def slots(self) -> range:
        return range(self.first, self.last + 1)

    def intersect(self, first: int, last: int) -> "TimeWindow | None":
        lo, hi = max(self.first, first), min(self.last, last)
        return TimeWindow(lo, hi) if lo <= hi else None


@dataclass(frozen=True)
class Device:
    """A client appliance: total demand over a window, capped per slot."""

    client_id: str
    appliance_id: str
    window: TimeWindow
    energy_demand: float
    max_power: float
    inconvenience: tuple[float, ...]    # one delay penalty per window slot

    def __post_init__(self) -> None:
        if len(self.inconvenience) != len(self.window):
            raise ValueError(
                f"device {self.key}: inconvenience length {len(self.inconvenience)}"
                f" != window length {len(self.window)}")

    @property
    def key(self) -> str:
        return f"{self.client_id}/{self.appliance_id}"

    def penalty_at(self, slot: int) -> float:
        return self.inconvenience[slot - self.window.first]


@dataclass(frozen=True)
class Battery:
    initial: float = 0.0
    min_level: float = 0.0
    max_level: float = 0.0
    charge_eff: float = 0.95
    discharge_eff: float = 0.95

    @property
    def usable(self) -> bool:
        return self.max_level > self.min_level

    def next_level(self, level: float, draw: float, charge: float) -> float:
        """The state after a slot that starts at ``level``, as the LP reads it."""
        return self.discharge_eff * level - draw + self.charge_eff * charge


@dataclass(frozen=True)
class PriceData:
    """Competitor tariff and the leader's per-slot procurement cost."""

    competitor: np.ndarray
    supply_cost: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "competitor", np.asarray(self.competitor, dtype=float))
        object.__setattr__(self, "supply_cost", np.asarray(self.supply_cost, dtype=float))


@dataclass
class Instance:
    horizon: Horizon
    devices: list[Device]
    battery: Battery
    prices: PriceData
    tree: ScenarioTree
    name: str = "instance"

    @property
    def n_slots(self) -> int:
        return self.horizon.n_slots

    def total_demand(self) -> float:
        return float(sum(d.energy_demand for d in self.devices))

    def replace(self, **kw) -> "Instance":
        return replace(self, **kw)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def __iter__(self) -> Iterable[Violation]:
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)


def validate(instance: Instance) -> ValidationReport:
    """Check every structural invariant and feasibility precondition."""
    rep = ValidationReport()
    hz = instance.horizon
    H = hz.last_slot

    for dev in instance.devices:
        w = dev.window
        if w.last > H:
            rep.add("window_out_of_horizon",
                    f"device {dev.key}: window ends at {w.last} > horizon {H}")
        if dev.energy_demand <= 0:
            rep.add("nonpositive_demand", f"device {dev.key}: demand {dev.energy_demand}")
        if dev.max_power <= 0:
            rep.add("nonpositive_power", f"device {dev.key}: max power {dev.max_power}")
        if dev.energy_demand > len(w) * dev.max_power + 1e-9:
            rep.add("demand_unsatisfiable",
                    f"device {dev.key}: demand {dev.energy_demand} exceeds window "
                    f"capacity {len(w) * dev.max_power}")
        inc = np.asarray(dev.inconvenience)
        if np.any(inc < -1e-12):
            rep.add("negative_inconvenience", f"device {dev.key}")
        if np.any(np.diff(inc) < -1e-12):
            rep.add("decreasing_inconvenience",
                    f"device {dev.key}: delay penalties must not decrease")

    bat = instance.battery
    if bat.min_level < 0:
        rep.add("negative_battery_floor", f"min level {bat.min_level}")
    if bat.max_level < bat.min_level:
        rep.add("battery_bounds_crossed",
                f"max {bat.max_level} < min {bat.min_level}")
    if not (bat.min_level - 1e-9 <= bat.initial <= bat.max_level + 1e-9):
        rep.add("initial_battery_out_of_range",
                f"initial {bat.initial} outside [{bat.min_level}, {bat.max_level}]")
    for name, eff in (("charge", bat.charge_eff), ("discharge", bat.discharge_eff)):
        if not (0.0 < eff <= 1.0):
            rep.add("bad_efficiency", f"{name} efficiency {eff} not in (0, 1]")

    pr = instance.prices
    for name, vec in (("competitor", pr.competitor), ("supply_cost", pr.supply_cost)):
        if len(vec) != hz.n_slots:
            rep.add("price_vector_length",
                    f"{name} has {len(vec)} entries, expected {hz.n_slots}")
    if len(pr.competitor) == len(pr.supply_cost) == hz.n_slots:
        if np.any(pr.competitor <= 0):
            rep.add("nonpositive_competitor_price", "competitor tariff must be > 0")
        if np.any(pr.supply_cost < 0):
            rep.add("negative_supply_cost", "supply cost must be >= 0")
        if np.any(pr.competitor <= pr.supply_cost):
            worst = int(np.argmin(pr.competitor - pr.supply_cost))
            rep.add("competitor_below_cost",
                    f"competitor price must exceed supply cost (slot {worst})")

    tree = instance.tree
    if tree.n_slots != hz.n_slots:
        rep.add("tree_horizon_mismatch",
                f"tree covers {tree.n_slots} slots, instance has {hz.n_slots}")
    probs = np.asarray(tree.probabilities)
    if abs(probs.sum() - 1.0) > 1e-9:
        rep.add("leaf_probabilities", f"leaf probabilities sum to {probs.sum()}")
    if np.any(probs < -1e-12):
        rep.add("negative_probability", "leaf probability below zero")
    for base in tree.bases:
        if np.any(np.asarray(base.dg_bound) < -1e-12):
            rep.add("negative_dg_bound", f"base scenario {base.id}")

    return rep

