"""Seeded synthetic instances.

The week preset mirrors the study setup: 336 half-hour slots, 120 devices
whose unshifted demand follows a two-peak daily curve, a diurnal generation
curve that vanishes at night, a spot-cost curve whose evening peaks exceed
4.5, and a flat competitor tariff above every spot cost.  Mini presets keep
the same texture at desk scale so the whole pipeline can be solved exactly.

Variants perturb one feature at a time (generation, battery, inconvenience
slope, peak spot costs, window widths); everything else is drawn from
independent substreams so unrelated fields are bit-identical across variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from .scenario import BaseScenario, flat_tree

BASE_INCONVENIENCE_SLOPE = 0.0625
SCALE_CHOICES = (0.0, 0.5, 1.0, 1.5)
WINDOW_STRETCH = {"narrow": (1.4, 2.0), "base": (1.8, 2.5), "wide": (2.14, 3.0)}
SPOT_PEAK_THRESHOLD = 4.5
SPOT_PEAK_FACTOR = 1.2


class InvalidVariant(ValueError):
    pass


@dataclass(frozen=True)
class VariantSpec:
    dg_scale: float = 1.0
    battery_scale: float = 1.0
    inconvenience_scale: float = 1.0
    spot_peak_uplift: bool = False
    window_class: str = "base"

    def validate(self) -> None:
        for name, value in (("dg_scale", self.dg_scale),
                            ("battery_scale", self.battery_scale),
                            ("inconvenience_scale", self.inconvenience_scale)):
            if value not in SCALE_CHOICES:
                raise InvalidVariant(f"{name} must be one of {SCALE_CHOICES}, got {value}")
        if self.window_class not in WINDOW_STRETCH:
            raise InvalidVariant(f"window_class must be one of {sorted(WINDOW_STRETCH)}")

    @property
    def inconvenience_slope(self) -> float:
        return BASE_INCONVENIENCE_SLOPE * self.inconvenience_scale


def _day_fraction(n_slots: int, slot_minutes: int) -> np.ndarray:
    minutes = np.arange(n_slots) * slot_minutes
    return (minutes % 1440) / 1440.0


def _bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - center) / width) ** 2)


def demand_weights(n_slots: int, slot_minutes: int) -> np.ndarray:
    """Two-peak daily usage profile (morning and evening), positive everywhere."""
    t = _day_fraction(n_slots, slot_minutes)
    w = 0.18 + 1.0 * _bump(t, 0.33, 0.055) + 1.25 * _bump(t, 0.795, 0.07)
    return w


def spot_cost_curve(n_slots: int, slot_minutes: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Spot procurement costs: low overnight, peaks above 4.5 twice a day."""
    t = _day_fraction(n_slots, slot_minutes)
    day = np.arange(n_slots) * slot_minutes // 1440
    weekday = 1.0 + 0.04 * np.cos(2 * np.pi * day / 7.0)
    base = 1.9 + 1.9 * _bump(t, 0.35, 0.05) + 2.9 * _bump(t, 0.78, 0.06)
    noise = rng.normal(0.0, 0.05, n_slots)
    return np.maximum(0.3, base * weekday + noise)


def dg_shape(n_slots: int, slot_minutes: int) -> np.ndarray:
    """Daylight-only generation profile, zero at night, unit peak."""
    t = _day_fraction(n_slots, slot_minutes)
    sunrise, sunset = 0.27, 0.77
    inside = (t > sunrise) & (t < sunset)
    shape = np.zeros(n_slots)
    shape[inside] = np.sin(np.pi * (t[inside] - sunrise) / (sunset - sunrise)) ** 1.3
    return shape


def greedy_device_profile(devices: list[Device], n_slots: int) -> np.ndarray:
    """Per-device-per-slot demand when every device runs flat-out from its
    window start; its sum over devices is the unshifted demand curve."""
    demand = np.zeros((len(devices), n_slots))
    for d, dev in enumerate(devices):
        remaining = dev.energy_demand
        for h in dev.window.slots:
            take = min(dev.max_power, remaining)
            demand[d, h] = take
            remaining -= take
            if remaining <= 1e-12:
                break
    return demand


def generate_instance(seed: int, variants: VariantSpec | None = None, *,
                      n_slots: int = 336, n_devices: int = 120,
                      slot_minutes: int = 30, n_bases: int = 1,
                      total_demand: float = 4560.0,
                      duration_range: tuple[int, int] = (6, 12),
                      competitor_level: float = 10.0,
                      battery_hours: float = 2.0,
                      dg_level: float = 1.0,
                      name: str | None = None) -> Instance:
    """Deterministic synthetic instance; same arguments give identical output."""
    variants = variants or VariantSpec()
    variants.validate()
    if n_bases not in (1, 3):
        raise InvalidVariant("n_bases must be 1 or 3")

    ss = np.random.SeedSequence(seed)
    rng_dev, rng_price, rng_misc = (np.random.default_rng(s) for s in ss.spawn(3))
    hz = Horizon(n_slots, slot_minutes)

    # -- devices ---------------------------------------------------------
    weights = demand_weights(n_slots, slot_minutes)
    weights = weights / weights.sum()
    lo_d, hi_d = duration_range
    durations = rng_dev.integers(lo_d, hi_d + 1, n_devices)
    betas = rng_dev.uniform(2.0, 5.0, n_devices)
    fills = rng_dev.uniform(0.85, 1.0, n_devices)
    starts = rng_dev.choice(n_slots, size=n_devices, p=weights)
    stretch_u = rng_dev.uniform(0.0, 1.0, n_devices)

    energies = betas * (durations - 1 + fills)
    scale = total_demand / energies.sum()
    energies *= scale
    betas *= scale

    lo_s, hi_s = WINDOW_STRETCH[variants.window_class]
    slope = variants.inconvenience_slope
    devices: list[Device] = []
    for k in range(n_devices):
        duration = int(np.ceil(energies[k] / betas[k] - 1e-12))
        win_len = max(duration, int(round((lo_s + stretch_u[k] * (hi_s - lo_s))
                                          * duration)))
        win_len = min(win_len, n_slots)
        first = int(min(starts[k], n_slots - win_len))
        window = TimeWindow(first, first + win_len - 1)
        inconvenience = tuple(slope * i for i in range(win_len))
        devices.append(Device(
            client_id=f"c{k % max(1, n_devices // 10):02d}",
            appliance_id=f"a{k:03d}",
            window=window,
            energy_demand=float(energies[k]),
            max_power=float(betas[k]),
            inconvenience=inconvenience,
        ))

    # -- prices ----------------------------------------------------------
    supply = spot_cost_curve(n_slots, slot_minutes, rng_price)
    if variants.spot_peak_uplift:
        supply = supply.copy()
        supply[supply > SPOT_PEAK_THRESHOLD] *= SPOT_PEAK_FACTOR
    competitor = np.full(n_slots, float(competitor_level))
    prices = PriceData(competitor=competitor, supply_cost=supply)

    # -- battery ---------------------------------------------------------
    hourly_demand = total_demand / (n_slots * slot_minutes / 60.0)
    max_level = battery_hours * hourly_demand * variants.battery_scale
    battery = Battery(initial=0.0, min_level=0.0, max_level=float(max_level),
                      charge_eff=0.95, discharge_eff=0.95)

    # -- generation scenarios ---------------------------------------------
    demand_curve = greedy_device_profile(devices, n_slots).sum(axis=0)
    amp = dg_level * 1.2 * float(np.quantile(demand_curve, 0.45))
    dg_curve = amp * dg_shape(n_slots, slot_minutes) * variants.dg_scale
    base_scales = [1.0] if n_bases == 1 else [0.5, 1.0, 1.5]
    bases = [BaseScenario(i, dg_curve * s) for i, s in enumerate(base_scales)]
    tree = flat_tree(bases, n_slots)

    rng_misc.random()          # reserve the stream for future fields
    label = name or (f"week-s{seed}" if n_slots == 336 else f"gen-s{seed}-{n_slots}")
    return Instance(horizon=hz, devices=devices, battery=battery,
                    prices=prices, tree=tree, name=label)


def generate_week_instance(seed: int, variants: VariantSpec | None = None,
                           n_bases: int = 1) -> Instance:
    """The full-scale preset: one week of half-hour slots, 120 devices."""
    return generate_instance(seed, variants, n_slots=336, n_devices=120,
                             slot_minutes=30, n_bases=n_bases)


MINI_PRESETS = {
    "mini": dict(n_slots=12, n_devices=5, slot_minutes=120, total_demand=28.0,
                 duration_range=(1, 2), battery_hours=1.5, dg_level=0.8),
    "mini24": dict(n_slots=24, n_devices=8, slot_minutes=60, total_demand=52.0,
                   duration_range=(1, 3), battery_hours=1.5, dg_level=0.8),
    "mini48": dict(n_slots=48, n_devices=12, slot_minutes=30, total_demand=90.0,
                   duration_range=(2, 4), battery_hours=2.0, dg_level=0.9),
}


def generate_mini_instance(seed: int, variants: VariantSpec | None = None,
                           preset: str = "mini", n_bases: int = 1) -> Instance:
    """Desk-scale presets (12-48 slots) solvable exactly by the bundled solver."""
    if preset not in MINI_PRESETS:
        raise InvalidVariant(f"unknown mini preset {preset!r}")
    kw = dict(MINI_PRESETS[preset])
    return generate_instance(seed, variants, n_bases=n_bases,
                             name=f"{preset}-s{seed}", **kw)
