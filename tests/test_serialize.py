"""Instance JSON round-trip and CSV emission."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from gridtariff.generator import VariantSpec, generate_mini_instance, generate_week_instance
from gridtariff.model import validate
from gridtariff.scenario import (BaseScenario, MarkovSelector, build_complete_tree,
                                 flat_tree)
from gridtariff.serialize import (instance_from_dict, instance_to_dict,
                                  read_forced_path_csv, read_instance,
                                  write_instance, write_series_csv)


def assert_instances_equal(a, b):
    assert a.horizon == b.horizon
    assert a.name == b.name
    assert len(a.devices) == len(b.devices)
    for da, db in zip(a.devices, b.devices):
        assert da == db
    assert a.battery == b.battery
    np.testing.assert_array_equal(a.prices.competitor, b.prices.competitor)
    np.testing.assert_array_equal(a.prices.supply_cost, b.prices.supply_cost)
    assert a.tree.n_leaves == b.tree.n_leaves
    np.testing.assert_array_equal(a.tree.probabilities, b.tree.probabilities)
    for la, lb in zip(a.tree.dg, b.tree.dg):
        np.testing.assert_array_equal(la, lb)


def test_round_trip_mini(tmp_path):
    inst = generate_mini_instance(3, VariantSpec(window_class="wide"), n_bases=3)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert_instances_equal(inst, read_instance(path))


def test_round_trip_week(tmp_path):
    inst = generate_week_instance(1, VariantSpec(spot_peak_uplift=True))
    path = tmp_path / "week.json"
    write_instance(inst, path)
    assert_instances_equal(inst, read_instance(path))


def test_round_trip_branching_tree():
    inst = generate_mini_instance(1, n_bases=3)
    bases = [BaseScenario(i, b.dg_bound) for i, b in enumerate(inst.tree.bases)]
    tree = build_complete_tree(bases, 4, inst.n_slots, "markov",
                               MarkovSelector(0.4, 0.3))
    inst = inst.replace(tree=tree)
    doc = instance_to_dict(inst)
    back = instance_from_dict(doc)
    assert back.tree.n_leaves == tree.n_leaves
    np.testing.assert_allclose(back.tree.probabilities, tree.probabilities)


@pytest.mark.parametrize("period", [4, 12])
def test_round_trip_bases_longer_than_the_horizon(tmp_path, period):
    inst = generate_mini_instance(1, n_bases=3)
    bases = [BaseScenario(b.id, np.append(b.dg_bound, 0.5)) for b in inst.tree.bases]
    tree = (build_complete_tree(bases, period, inst.n_slots) if period < inst.n_slots
            else flat_tree(bases, inst.n_slots))
    path = tmp_path / "inst.json"
    write_instance(inst.replace(tree=tree), path)
    back = read_instance(path)
    assert validate(back).ok
    np.testing.assert_array_equal(back.tree.dg, tree.dg)


def test_schema_version_checked():
    doc = instance_to_dict(generate_mini_instance(1))
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        instance_from_dict(doc)


def test_curve_csv_layout(tmp_path):
    # a curve is a one-column series
    path = tmp_path / "curve.csv"
    write_series_csv(path, {"demand": np.array([1.5, 2.5])})
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["slot", "demand"]
    assert rows[1] == ["0", "1.5"]
    assert rows[2] == ["1", "2.5"]


def test_series_csv_layout(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["slot", "a", "b"]
    assert rows[2] == ["1", "2", "4"]


def test_forced_path_csv(tmp_path):
    path = tmp_path / "path.csv"
    path.write_text("iteration,base\n0,2\n1,0\n2,1\n")
    assert read_forced_path_csv(path) == [2, 0, 1]
    path.write_text("2\n\n0\n1\n")                  # no header, a blank line
    assert read_forced_path_csv(path) == [2, 0, 1]
    path.write_text("iteration,base\n0,1\n1,2.0\n2,x\n3,0\n")
    with pytest.raises(ValueError, match=r"line 3: '1,2.0'"):
        read_forced_path_csv(path)
    path.write_text("0,1\nbase\n")                   # a header only on line 1
    with pytest.raises(ValueError, match="line 2: 'base'"):
        read_forced_path_csv(path)
