"""Synthetic instance generator: determinism, variants, curve shapes."""

from __future__ import annotations

import numpy as np
import pytest

from gridtariff.generator import (BASE_INCONVENIENCE_SLOPE, MINI_PRESETS,
                                  SPOT_PEAK_THRESHOLD, InvalidVariant,
                                  VariantSpec, generate_instance,
                                  generate_mini_instance,
                                  generate_week_instance, greedy_device_profile)
from gridtariff.model import validate
from gridtariff.serialize import instance_to_dict


def test_week_dimensions():
    inst = generate_week_instance(1)
    assert inst.n_slots == 336
    assert inst.horizon.slot_minutes == 30
    assert len(inst.devices) == 120
    assert validate(inst).ok


def test_generator_deterministic():
    a = instance_to_dict(generate_week_instance(7, VariantSpec(dg_scale=0.5)))
    b = instance_to_dict(generate_week_instance(7, VariantSpec(dg_scale=0.5)))
    assert a == b


def test_variant_orthogonality_dg_scale():
    base = generate_week_instance(3)
    scaled = generate_week_instance(3, VariantSpec(dg_scale=0.5))
    assert [d for d in base.devices] == [d for d in scaled.devices]
    assert np.array_equal(base.prices.competitor, scaled.prices.competitor)
    assert np.array_equal(base.prices.supply_cost, scaled.prices.supply_cost)
    assert base.battery == scaled.battery
    np.testing.assert_allclose(scaled.tree.bases[0].dg_bound,
                               0.5 * base.tree.bases[0].dg_bound)


def test_zero_dg_scale_kills_generation():
    inst = generate_week_instance(1, VariantSpec(dg_scale=0.0), n_bases=3)
    for path in inst.tree.dg:
        assert not np.any(path != 0.0)


def test_zero_inconvenience_scale():
    inst = generate_week_instance(1, VariantSpec(inconvenience_scale=0.0))
    assert all(all(c == 0.0 for c in d.inconvenience) for d in inst.devices)


@pytest.mark.parametrize("scale,slope", [(0.0, 0.0), (0.5, 0.03125),
                                         (1.0, 0.0625), (1.5, 0.09375)])
def test_inconvenience_slopes(scale, slope):
    assert VariantSpec(inconvenience_scale=scale).inconvenience_slope == \
        pytest.approx(slope)
    inst = generate_mini_instance(1, VariantSpec(inconvenience_scale=scale))
    for dev in inst.devices:
        inc = np.asarray(dev.inconvenience)
        assert inc[0] == 0.0
        if len(inc) > 1:
            np.testing.assert_allclose(np.diff(inc), slope)


def test_spot_uplift_exactly_on_peaks():
    base = generate_week_instance(2)
    uplifted = generate_week_instance(2, VariantSpec(spot_peak_uplift=True))
    k0, k1 = base.prices.supply_cost, uplifted.prices.supply_cost
    peak = k0 > SPOT_PEAK_THRESHOLD
    assert peak.any() and (~peak).any()
    np.testing.assert_allclose(k1[peak], 1.2 * k0[peak])
    np.testing.assert_allclose(k1[~peak], k0[~peak])


def test_spot_curve_has_peaks_above_threshold():
    inst = generate_week_instance(4)
    assert (inst.prices.supply_cost > 4.5).sum() >= 7   # at least one peak a day
    assert np.all(inst.prices.competitor > inst.prices.supply_cost)


def test_dg_zero_at_night():
    inst = generate_week_instance(1)
    dg = inst.tree.bases[0].dg_bound
    minutes = np.arange(336) * 30 % 1440
    night = (minutes < 6 * 60) | (minutes > 19 * 60)
    assert np.all(dg[night] == 0.0)
    assert dg.max() > 0.0


def test_demand_curve_two_peaks_per_day():
    inst = generate_week_instance(1)
    demand = greedy_device_profile(inst.devices, inst.n_slots).sum(axis=0)
    day = demand[:48]
    morning = day[12:22].sum()      # 06:00-11:00
    evening = day[34:44].sum()      # 17:00-22:00
    trough = day[0:10].sum()        # midnight-05:00
    assert morning > trough and evening > trough


@pytest.mark.parametrize("cls,lo,hi", [("narrow", 1.4, 2.0), ("base", 1.8, 2.5),
                                       ("wide", 2.14, 3.0)])
def test_window_stretch_classes(cls, lo, hi):
    inst = generate_week_instance(5, VariantSpec(window_class=cls))
    ratios = []
    for dev in inst.devices:
        duration = int(np.ceil(dev.energy_demand / dev.max_power - 1e-12))
        ratios.append(len(dev.window) / duration)
    ratios = np.asarray(ratios)
    # rounding to whole slots perturbs each ratio by at most half a slot
    assert ratios.min() >= lo - 0.51
    assert ratios.max() <= hi + 0.51
    assert lo - 0.2 <= np.median(ratios) <= hi + 0.2


def test_every_device_satisfiable():
    for seed in range(3):
        inst = generate_week_instance(seed)
        for dev in inst.devices:
            assert dev.energy_demand <= len(dev.window) * dev.max_power + 1e-9


def test_battery_scaling():
    base = generate_week_instance(1)
    small = generate_week_instance(1, VariantSpec(battery_scale=0.5))
    zero = generate_week_instance(1, VariantSpec(battery_scale=0.0))
    assert small.battery.max_level == pytest.approx(0.5 * base.battery.max_level)
    assert zero.battery.max_level == 0.0


def test_invalid_variants_rejected():
    with pytest.raises(InvalidVariant):
        generate_week_instance(1, VariantSpec(dg_scale=0.7))
    with pytest.raises(InvalidVariant):
        generate_week_instance(1, VariantSpec(window_class="huge"))
    with pytest.raises(InvalidVariant):
        generate_mini_instance(1, preset="nope")


def test_mini_presets_validate():
    for preset in MINI_PRESETS:
        inst = generate_mini_instance(2, preset=preset, n_bases=3)
        assert validate(inst).ok
        assert inst.n_slots == MINI_PRESETS[preset]["n_slots"]


def test_three_base_scenarios_are_scaled():
    inst = generate_mini_instance(1, n_bases=3)
    b = inst.tree.bases
    np.testing.assert_allclose(b[0].dg_bound, 0.5 * b[1].dg_bound)
    np.testing.assert_allclose(b[2].dg_bound, 1.5 * b[1].dg_bound)
