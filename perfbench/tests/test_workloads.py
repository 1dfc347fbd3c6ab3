"""The workloads' checks and layer wrappers, on a small power-law graph.

Needs the program on the path: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

pytest.importorskip("repro")

from repro.datasets.powerlaw import zipf_powerlaw  # noqa: E402

from repro import obs  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.spans import OP, layer_spans, op_breakdown  # noqa: E402
from perfbench.workload import AdaptiveW2, ColdFixed, TemporalChurn, run_ops  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return zipf_powerlaw(400, 2400, seed=5)


def _run(workload, graph, count):
    workload.load(graph)
    records, samples, _, _, _ = run_ops(workload, count=count, conns=[None])
    assert [error for _, _, _, error, _ in records] == [None] * count
    return samples


def _zeroed(vector, source):
    corrupted = vector.copy()
    keep = corrupted[source]
    corrupted[:] = 0.0
    corrupted[source] = keep
    return corrupted


def _permuted(vector, source):
    corrupted = vector.copy()
    others = np.flatnonzero(np.arange(len(vector)) != source)
    corrupted[others] = np.asarray(vector)[np.random.default_rng(0).permutation(others)]
    assert not np.array_equal(corrupted, vector)
    return corrupted


def _scaled(vector, source):
    corrupted = vector * 0.5
    corrupted[source] = vector[source]
    return corrupted


@pytest.mark.parametrize("workload_cls", [ColdFixed, AdaptiveW2])
@pytest.mark.parametrize("corrupt", [_zeroed, _permuted, _scaled])
def test_checks_reject_a_realistically_corrupted_answer(graph, tmp_path, workload_cls, corrupt):
    workload = workload_cls(3, str(tmp_path))
    workload.catalog_size = 200
    try:
        samples = _run(workload, graph, 3)
    finally:
        workload.close()
    assert workload.check(samples) == []
    corrupted = dict(samples)
    source = int(workload.sources[1])
    corrupted[1] = corrupt(samples[1], source)
    failures = workload.check(corrupted)
    assert failures and all(f.startswith("op 1") for f in failures)


def test_cold_fixed_sanity_counts_one_tree_build_per_op(tmp_path):
    workload = ColdFixed(3, str(tmp_path))
    delta = {"repro_tree_builds_total": 5}
    assert workload.sanity(delta, 5)["tree_builds_equal_ops"]["holds"]
    assert not workload.sanity(delta, 6)["tree_builds_equal_ops"]["holds"]


SMALL_SESSION = (("random", 5), ("peripheral", 1), ("peripheral", 1))


def test_temporal_replay_matches_and_rejects_a_corrupted_survivor_set(graph, tmp_path):
    workload = TemporalChurn(4, str(tmp_path))
    workload.theta = 0.0
    workload.session_shape = SMALL_SESSION
    _run(workload, graph, workload.ops_per_session)
    assert workload.check({}) == []
    push = next(i for i in range(workload.ops_per_session) if workload.notes[i][3])
    session, step, before, survivors = workload.notes[push]
    workload.notes[push] = (session, step, before, survivors[1:])
    (failure,) = workload.check({})
    assert f"push {push}" in failure


def test_peripheral_pushes_keep_the_source_tree_and_prune(graph, tmp_path):
    from repro.core.revreach import revreach_levels, revreach_update

    workload = TemporalChurn(6, str(tmp_path))
    workload.theta = 0.0
    workload.session_shape = SMALL_SESSION
    workload.load(graph)
    source = int(workload.sources[0])
    edges = set(workload.edges)
    tree = revreach_levels(graph, source, 5, 0.6)
    from repro.graph.digraph import DiGraph

    for (kind, _), (added, removed) in zip(SMALL_SESSION, workload._deltas(0)):
        edges = (edges - set(removed)) | set(added)
        after = DiGraph.from_edges(graph.num_nodes, sorted(edges))
        updated = revreach_update(tree, after, added, removed, directed=True)
        if kind == "peripheral":
            assert updated is tree or updated.same_as(tree)
        tree = updated

    # Traced, a peripheral push recomputes only part of Ω.
    workload.begin_traced()
    try:
        records, _, _, roots, _ = run_ops(
            workload, count=workload.ops_per_session, conns=[None], traced=True
        )
    finally:
        workload.end_traced()
    assert [error for _, _, _, error, _ in records] == [None] * workload.ops_per_session
    assert workload.layer_metrics(records, roots, {})["temporal.recompute_ratio"] < 1.0


def test_ops_are_a_function_of_source_and_seed(graph, tmp_path):
    first, second = ColdFixed(8, str(tmp_path)), ColdFixed(8, str(tmp_path))
    a, b = _run(first, graph, 2), _run(second, graph, 2)
    for index in a:
        assert np.array_equal(a[index], b[index])


def test_install_wraps_every_binding_and_undo_restores_them(graph):
    import repro.api
    import repro.core.crashsim
    from repro.walks.kernel import WalkCrashKernel

    crashsim = sys.modules["repro.core.crashsim"].crashsim
    single_source = repro.api.single_source
    accumulate = WalkCrashKernel.__dict__["accumulate"]
    undo = layers.install()
    try:
        assert sys.modules["repro.core.crashsim"].crashsim.__wrapped__ is crashsim
        assert repro.api.crashsim.__wrapped__ is crashsim
        assert WalkCrashKernel.__dict__["accumulate"].__wrapped__ is accumulate
        trace = obs.Trace(OP, {"op": 0})
        with trace.activate():
            repro.api.single_source(graph, 1, n_r=8, seed=1)
    finally:
        undo()
    assert sys.modules["repro.core.crashsim"].crashsim is crashsim
    assert repro.api.single_source is single_source
    assert WalkCrashKernel.__dict__["accumulate"] is accumulate

    names = {span.name for span in layer_spans(trace.root, layers.LAYERS)}
    assert {"api", "crashsim", "revreach.build", "kernel"} <= names
    entry = op_breakdown(trace.root, layers.LAYERS)
    total = entry["unattributed"] + sum(entry["layers"].values())
    assert total == pytest.approx(entry["wall"], rel=1e-9)
