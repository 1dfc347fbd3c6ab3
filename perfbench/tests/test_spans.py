"""Span arithmetic: children within parents, self times add up to wall time."""

from __future__ import annotations

import json
import random

import pytest

pytest.importorskip("repro")

from repro import obs  # noqa: E402

from perfbench.spans import (  # noqa: E402
    OP,
    chrome_events,
    from_dict,
    layer_spans,
    op_breakdown,
    to_dict,
)

LAYERS = {"api", "revreach.build", "kernel", "a", "b", "c", "d"}


def span(name, t0, t1, children=(), meta=None):
    node = obs.Span(name, meta)
    node.started, node.elapsed = t0, t1 - t0
    node.children = list(children)
    return node


def test_self_time_subtracts_children():
    root = span(
        OP,
        0.0,
        10.0,
        [span("api", 1.0, 9.0, [span("revreach.build", 2.0, 5.0), span("kernel", 5.0, 8.5)])],
    )
    entry = op_breakdown(root, LAYERS)
    assert entry["wall"] == 10.0
    assert entry["unattributed"] == pytest.approx(2.0)
    assert dict(entry["layers"]) == pytest.approx(
        {"api": 1.5, "revreach.build": 3.0, "kernel": 3.5}
    )


def test_program_spans_are_transparent():
    # tree_build is the program's own phase: its time stays with the
    # layer around it, and the kernel span inside it is still a layer.
    root = span(
        OP,
        0.0,
        10.0,
        [span("api", 0.0, 10.0, [span("tree_build", 1.0, 7.0, [span("kernel", 2.0, 3.0)])])],
    )
    entry = op_breakdown(root, LAYERS)
    assert dict(entry["layers"]) == pytest.approx({"api": 9.0, "kernel": 1.0})
    assert [s.name for s in layer_spans(root, LAYERS)] == ["api", "kernel"]


def test_overlapping_children_are_counted_once_and_clipped():
    root = span(
        OP,
        0.0,
        10.0,
        [span("a", 1.0, 6.0), span("b", 4.0, 8.0), span("c", 9.0, 12.0)],  # c runs past
    )
    assert op_breakdown(root, LAYERS)["unattributed"] == pytest.approx(10.0 - 7.0 - 1.0)


def _random_tree(rng, parent, depth):
    """Non-overlapping children nested inside ``parent``."""
    if depth == 0:
        return
    cursor = parent.started
    end = parent.started + parent.elapsed
    for _ in range(rng.randint(0, 3)):
        start = rng.uniform(cursor, end)
        stop = rng.uniform(start, end)
        # Program phases ("phase") sit between layers at random.
        child = span(rng.choice(["a", "b", "c", "d", "phase"]), start, stop)
        parent.children.append(child)
        _random_tree(rng, child, depth - 1)
        cursor = stop


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


@pytest.mark.parametrize("seed", range(20))
def test_layer_self_times_plus_unattributed_equal_wall(seed):
    rng = random.Random(seed)
    root = span(OP, 0.0, rng.uniform(1, 50))
    _random_tree(rng, root, 4)
    for node in _walk(root):
        for child in node.children:
            assert node.started <= child.started
            assert child.started + child.elapsed <= node.started + node.elapsed
            assert child.elapsed <= node.elapsed
    entry = op_breakdown(root, LAYERS)
    total = entry["unattributed"] + sum(entry["layers"].values())
    assert total == pytest.approx(entry["wall"], rel=1e-12, abs=1e-12)
    assert entry["unattributed"] >= -1e-12
    assert all(value >= -1e-12 for value in entry["layers"].values())


def test_a_live_trace_breaks_down_to_its_wall_time():
    trace = obs.Trace(OP, {"op": 7})
    with trace.activate():
        with obs.span("api"):
            with obs.span("tree_build"):
                with obs.span("kernel"):
                    sum(range(1000))
    entry = op_breakdown(trace.root, LAYERS)
    assert set(entry["layers"]) == {"api", "kernel"}
    total = entry["unattributed"] + sum(entry["layers"].values())
    assert total == pytest.approx(entry["wall"], rel=1e-9)


def test_chrome_events_are_complete_events_in_microseconds():
    root = span(OP, 2.0, 2.5, [span("kernel.step", 2.1, 2.2)], meta={"op": 3, "thread": 9})
    events = chrome_events([root])
    json.dumps(events)
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0.0
    assert events[0]["dur"] == pytest.approx(500000.0)
    assert events[1]["ts"] == pytest.approx(100000.0)
    assert events[1]["cat"] == "kernel"
    assert {e["tid"] for e in events} == {9}
    assert {e["args"]["op"] for e in events} == {3}


def test_span_trees_round_trip_through_json():
    import numpy as np

    root = span(OP, 1.0, 2.0, [span("engine.query", 1.1, 1.9, meta={"size": np.int64(4)})])
    copy = from_dict(json.loads(json.dumps(to_dict(root))))
    assert to_dict(copy) == to_dict(root)
    assert copy.children[0].meta == {"size": 4}
