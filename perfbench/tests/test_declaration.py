"""BENCHMARK.json declares exactly the metrics the benchmark prints."""

from __future__ import annotations

import json
import os

from perfbench import run
from perfbench.workload import WORKLOADS, Workload, _per_layer
from perfbench.layers import COUNTERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_end_to_end_metrics_match_the_declaration():
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_metrics_match_the_declaration():
    zero = dict.fromkeys(COUNTERS, 0)
    metrics, _ = _per_layer(Workload(1, "."), [], {}, zero, 1.0, 1.0, 0.5)
    printed = {name: run.per_layer_unit(name) for name in metrics}
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert printed == declared


def test_workloads_match_the_declaration():
    assert tuple(w["name"] for w in _declared()["workloads"]) == run.WORKLOADS
    assert set(run.WORKLOADS) == set(WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
