"""Workload generators are a pure function of the seed."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import inputs

POOL = np.arange(0, 4000, 3)
IN_DEGREES = 1 + np.arange(4000) % 4
TWO_HOP = (np.arange(4000) * 31) % 5
STRUCTURE = (IN_DEGREES, TWO_HOP)


def test_walkable_pool_keeps_nodes_with_in_links():
    degrees = np.array([0, 2, 0, 1, 5])
    assert inputs.walkable_pool(degrees).tolist() == [1, 3, 4]


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: inputs.fresh_sources(POOL, seed, 50, *STRUCTURE),
        lambda seed: inputs.catalog(POOL, seed, 200),
        lambda seed: inputs.hot_sources(POOL, seed, *STRUCTURE),
        lambda seed: inputs.zipf_stream(inputs.hot_sources(POOL, 7, *STRUCTURE), seed, 500),
        lambda seed: np.array([inputs.query_seed(seed)]),
    ],
    ids=["fresh_sources", "catalog", "hot_sources", "zipf_stream", "query_seed"],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert np.array_equal(make(3), make(3))
    assert not np.array_equal(make(3), make(4))


def test_fresh_sources_are_distinct_pool_nodes():
    sources = inputs.fresh_sources(POOL, 1, 100, *STRUCTURE)
    assert len(set(sources.tolist())) == 100
    assert np.isin(sources, POOL).all()


def test_fresh_sources_can_take_the_whole_pool():
    sources = inputs.fresh_sources(POOL, 1, POOL.size, *STRUCTURE)
    assert sorted(sources.tolist()) == POOL.tolist()


def _strata(nodes):
    return IN_DEGREES[nodes] * 8 + TWO_HOP[nodes]


def test_every_prefix_of_fresh_sources_keeps_the_structural_mix():
    sources = inputs.fresh_sources(POOL, 5, 200, *STRUCTURE)
    pool_share = np.bincount(_strata(POOL), minlength=32) / POOL.size
    for prefix in (20, 50, 200):
        share = np.bincount(_strata(sources[:prefix]), minlength=32) / prefix
        assert np.abs(share - pool_share).max() <= 2.0 / prefix


def test_fresh_sources_draw_the_same_strata_on_every_seed():
    first = inputs.fresh_sources(POOL, 1, 100, *STRUCTURE)
    second = inputs.fresh_sources(POOL, 2, 100, *STRUCTURE)
    assert np.array_equal(_strata(first), _strata(second))
    assert not np.array_equal(first, second)


def test_two_hop_in_sums_in_neighbour_in_degrees():
    # Edges into 2 come from 0 and 1; 0 has in-links from 1 and 3.
    in_indptr = np.array([0, 2, 2, 4, 4])
    in_indices = np.array([1, 3, 0, 1])
    degrees = np.diff(in_indptr)
    assert inputs.two_hop_in(degrees, in_indptr, in_indices).tolist() == [0, 0, 2, 0]


def test_catalog_is_sorted_and_distinct():
    catalog = inputs.catalog(POOL, 1, 300)
    assert np.array_equal(catalog, np.unique(catalog))
    assert np.isin(catalog, POOL).all()


def test_zipf_stream_favours_the_hottest_source():
    hot = inputs.hot_sources(POOL, 2, *STRUCTURE)
    stream = inputs.zipf_stream(hot, 2, 5000)
    assert np.isin(stream, hot).all()
    counts = {int(node): int((stream == node).sum()) for node in hot}
    assert counts[int(hot[0])] == max(counts.values())


def _edges(seed: int):
    """A random core on nodes 0..39, plus 30 edges x → y from 40..69 into
    the dangling nodes 70..99 (so peripheral deltas have edges to take)."""
    rng = np.random.default_rng(seed)
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, 40, size=(300, 2)) if u != v}
    pairs |= {(40 + i, 70 + i) for i in range(30)}
    return sorted(pairs)


SHAPE = (("random", 10), ("peripheral", 2), ("random", 12), ("peripheral", 3))


def test_churn_deltas_are_deterministic_and_seeded():
    edges = _edges(0)
    first = inputs.churn_deltas(edges, 100, 5, 0, SHAPE, source=3)
    assert first == inputs.churn_deltas(edges, 100, 5, 0, SHAPE, source=3)
    assert first != inputs.churn_deltas(edges, 100, 6, 0, SHAPE, source=3)
    assert first != inputs.churn_deltas(edges, 100, 5, 1, SHAPE, source=3)


def test_churn_deltas_apply_in_order_without_failing_operations():
    edges = _edges(1)
    current = set(edges)
    deltas = inputs.churn_deltas(edges, 100, 9, 0, SHAPE, source=3)
    for (_, size), (added, removed) in zip(SHAPE, deltas):
        assert len(added) == len(set(added)) == size
        assert len(removed) == len(set(removed)) == size
        assert set(removed) <= current
        assert not set(added) & current
        assert all(u != v for u, v in added)
        current = (current - set(removed)) | set(added)
        assert len(current) == len(edges)


def test_peripheral_deltas_touch_only_dangling_nodes():
    edges = _edges(2)
    current = set(edges)
    source = 71
    for (kind, _), (added, removed) in zip(
        SHAPE, inputs.churn_deltas(edges, 100, 4, 0, SHAPE, source=source)
    ):
        out_degree = np.bincount([u for u, _ in current], minlength=100)
        if kind == "peripheral":
            for x, y in removed:
                assert out_degree[y] == 0 and out_degree[x] == 1
            for u, v in added:
                assert out_degree[u] == 0 and out_degree[v] == 0
            assert source not in {node for edge in added + removed for node in edge}
        current = (current - set(removed)) | set(added)

