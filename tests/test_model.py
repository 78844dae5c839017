"""Domain type invariants and instance validation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gridtariff.generator import generate_mini_instance
from gridtariff.model import (Battery, Device, Horizon, Instance, PriceData,
                              TimeWindow, validate)
from gridtariff.scenario import (BaseScenario, build_complete_tree, flat_tree,
                                 single_path_tree)

from conftest import make_t1


def base_instance(**overrides):
    inst = make_t1()
    return inst.replace(**overrides) if overrides else inst


def codes(instance):
    return {v.code for v in validate(instance)}


def _first_device(inst, **fields):
    dev = inst.devices[0]
    return inst.replace(devices=[replace(dev, **fields), *inst.devices[1:]])


NAN = float("nan")


class TestTimeWindow:
    def test_length_and_slots(self):
        w = TimeWindow(2, 5)
        assert len(w) == 4
        assert list(w.slots) == [2, 3, 4, 5]

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            TimeWindow(3, 2)
        with pytest.raises(ValueError):
            TimeWindow(-1, 2)

    def test_intersect(self):
        w = TimeWindow(2, 5)
        assert w.intersect(4, 9) == TimeWindow(4, 5)
        assert w.intersect(6, 9) is None


class TestDevice:
    def test_inconvenience_length_must_match(self):
        with pytest.raises(ValueError):
            Device("c", "a", TimeWindow(0, 2), 1.0, 1.0, (0.0, 0.1))


class TestValidate:
    def test_clean_instance(self):
        assert validate(base_instance()).ok

    def test_unsatisfiable_demand(self):
        dev = Device("c", "a", TimeWindow(0, 2), 10.0, 2.0, (0.0, 0.0, 0.0))
        inst = base_instance()
        inst = Instance(Horizon(3, 60), [dev], inst.battery,
                        PriceData(np.full(3, 3.0), np.full(3, 1.0)),
                        single_path_tree(np.zeros(3)))
        assert "demand_unsatisfiable" in codes(inst)   # 10 > 3 slots * 2

    def test_initial_battery_below_minimum(self):
        inst = base_instance(battery=Battery(0.5, 1.0, 2.0, 0.9, 0.9))
        assert "initial_battery_out_of_range" in codes(inst)

    def test_decreasing_inconvenience_flagged(self):
        dev = Device("c", "a", TimeWindow(0, 1), 1.0, 1.0, (0.2, 0.1))
        inst = base_instance(devices=[dev])
        assert "decreasing_inconvenience" in codes(inst)

    def test_window_outside_horizon(self):
        dev = Device("c", "a", TimeWindow(1, 2), 1.0, 1.0, (0.0, 0.1))
        inst = base_instance(devices=[dev])
        assert "window_out_of_horizon" in codes(inst)

    def test_competitor_below_cost(self):
        inst = base_instance(
            prices=PriceData(np.array([3.0, 3.0]), np.array([3.5, 1.0])))
        assert "competitor_below_cost" in codes(inst)

    def test_bad_efficiency(self):
        inst = base_instance(battery=Battery(0, 0, 1.0, 0.0, 0.9))
        assert "bad_efficiency" in codes(inst)

    def test_tree_horizon_mismatch(self):
        inst = base_instance(tree=single_path_tree(np.zeros(5)))
        assert "tree_horizon_mismatch" in codes(inst)

    @pytest.mark.parametrize("shape", ["complete", "flat"])
    def test_tree_from_bases_longer_than_the_horizon(self, shape):
        inst = generate_mini_instance(1)
        longer = [BaseScenario(0, np.append(inst.tree.bases[0].dg_bound, 0.5))]
        tree = (build_complete_tree(longer, 12, 12) if shape == "complete"
                else flat_tree(longer, 12))
        assert codes(inst.replace(tree=tree)) == set()

    def test_price_vector_length(self):
        inst = base_instance(
            prices=PriceData(np.array([3.0]), np.array([1.0])))
        assert "price_vector_length" in codes(inst)

    def test_empty_device_list_is_valid(self):
        assert validate(base_instance(devices=[])).ok

    # a NaN fails every comparison, so each number is checked for
    # finiteness on its own instead of slipping past the range checks
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda inst: _first_device(inst, energy_demand=NAN), id="demand"),
        pytest.param(lambda inst: _first_device(inst, max_power=NAN), id="max_power"),
        pytest.param(lambda inst: _first_device(
            inst, inconvenience=(inst.devices[0].inconvenience[0], NAN)),
            id="inconvenience"),
        pytest.param(lambda inst: inst.replace(prices=PriceData(
            np.array([3.0, NAN]), inst.prices.supply_cost)), id="competitor"),
        pytest.param(lambda inst: inst.replace(prices=PriceData(
            inst.prices.competitor, np.array([NAN, 1.0]))), id="supply_cost"),
        pytest.param(lambda inst: inst.replace(
            tree=single_path_tree(np.array([0.0, NAN]))), id="generation_bound"),
    ])
    def test_nan_is_its_only_violation(self, edit):
        assert codes(edit(base_instance())) == {"non_finite"}

    def test_nan_battery_level(self):
        inst = base_instance(battery=replace(base_instance().battery, initial=NAN))
        assert codes(inst) == {"non_finite", "initial_battery_out_of_range"}

    def test_infinite_demand(self):
        inst = _first_device(base_instance(), energy_demand=np.inf)
        assert codes(inst) == {"non_finite", "demand_unsatisfiable"}
