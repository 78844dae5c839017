"""Instance and result serialization.

An instance is one JSON document: ``slot_minutes``, ``n_slots``,
``devices[]`` (window, demand, power cap, delay penalties), ``battery``,
``competitor_prices[]``, ``supply_costs[]`` and ``scenario_tree`` (base
generation paths plus the branching and probability rule).  Curve and report
exports are plain CSV with a header row and slot indices so plots need no
further processing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .model import Battery, Device, Horizon, Instance, PriceData, TimeWindow
from .scenario import (BaseScenario, MarkovSelector, build_complete_tree,
                       flat_tree)

SCHEMA_VERSION = 1


def instance_to_dict(instance: Instance) -> dict:
    tree = instance.tree
    tree_doc = {
        "bases": [np.asarray(b.dg_bound).tolist() for b in tree.bases],
        "period_length": tree.period_length,
        "prob_rule": tree.prob_rule,
        "probabilities": np.asarray(tree.probabilities).tolist(),
    }
    if tree.selector is not None:
        tree_doc["stay_prob"] = tree.selector.stay_prob
        tree_doc["switch_prob"] = tree.selector.switch_prob
    return {
        "schema_version": SCHEMA_VERSION,
        "name": instance.name,
        "n_slots": instance.horizon.n_slots,
        "slot_minutes": instance.horizon.slot_minutes,
        "devices": [
            {
                "client_id": d.client_id,
                "appliance_id": d.appliance_id,
                "window_first": d.window.first,
                "window_last": d.window.last,
                "energy_demand": d.energy_demand,
                "max_power": d.max_power,
                "inconvenience": list(d.inconvenience),
            }
            for d in instance.devices
        ],
        "battery": {
            "initial": instance.battery.initial,
            "min_level": instance.battery.min_level,
            "max_level": instance.battery.max_level,
            "charge_eff": instance.battery.charge_eff,
            "discharge_eff": instance.battery.discharge_eff,
        },
        "competitor_prices": instance.prices.competitor.tolist(),
        "supply_costs": instance.prices.supply_cost.tolist(),
        "scenario_tree": tree_doc,
    }


def instance_from_dict(doc: dict) -> Instance:
    if doc.get("schema_version", 1) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')}")
    devices = [
        Device(
            client_id=d["client_id"],
            appliance_id=d["appliance_id"],
            window=TimeWindow(d["window_first"], d["window_last"]),
            energy_demand=float(d["energy_demand"]),
            max_power=float(d["max_power"]),
            inconvenience=tuple(float(v) for v in d["inconvenience"]),
        )
        for d in doc["devices"]
    ]
    b = doc["battery"]
    battery = Battery(initial=float(b["initial"]), min_level=float(b["min_level"]),
                      max_level=float(b["max_level"]),
                      charge_eff=float(b["charge_eff"]),
                      discharge_eff=float(b["discharge_eff"]))
    td = doc["scenario_tree"]
    bases = [BaseScenario(i, np.asarray(v, dtype=float))
             for i, v in enumerate(td["bases"])]
    n_slots = int(doc["n_slots"])
    selector = None
    if "stay_prob" in td:
        selector = MarkovSelector(float(td["stay_prob"]), float(td["switch_prob"]))
    if td["period_length"] >= n_slots or len(bases) == 1:
        tree = flat_tree(bases, n_slots,
                         np.asarray(td["probabilities"], dtype=float)
                         if td.get("probabilities") else None)
        tree.prob_rule = td.get("prob_rule", "uniform")
        tree.selector = selector
    else:
        tree = build_complete_tree(bases, int(td["period_length"]), n_slots,
                                   td.get("prob_rule", "uniform"), selector)
    return Instance(
        horizon=Horizon(n_slots, int(doc["slot_minutes"])),
        devices=devices,
        battery=battery,
        prices=PriceData(np.asarray(doc["competitor_prices"], dtype=float),
                         np.asarray(doc["supply_costs"], dtype=float)),
        tree=tree,
        name=doc.get("name", "instance"),
    )


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1))


def read_instance(path: str | Path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text()))


def write_series_csv(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    length = len(arrays[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot"] + names)
        for h in range(length):
            writer.writerow([h] + [f"{float(a[h]):.10g}" for a in arrays])


def write_rows_csv(path: str | Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def read_forced_path_csv(path: str | Path) -> list[int]:
    """One base index per rolling-horizon iteration, the last field of each
    line; blank lines are skipped and line 1 may be a header.  Any later line
    whose last field is not an integer raises ``ValueError``."""
    out: list[int] = []
    for k, line in enumerate(Path(path).read_text().splitlines(), 1):
        try:
            out.append(int(line.split(",")[-1]))
        except ValueError:
            if k > 1 and line.strip():
                raise ValueError(f"{path}, line {k}: {line.strip()!r} does not"
                                 " end in a base index") from None
    return out
