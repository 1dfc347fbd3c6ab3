"""Differential tests for :meth:`DiGraph.with_delta`, the CSR splice.

The splice must reproduce, array for array, what rebuilding the next
snapshot through :class:`GraphBuilder` gives (every removal applied before
any addition), and :meth:`TemporalGraph.snapshot` — which now splices its
stored deltas — must match a from-scratch build of ``edges_at(i)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EdgeNotFoundError, ParameterError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.temporal import TemporalGraphBuilder

CSR_ARRAYS = (
    "out_indptr",
    "out_indices",
    "in_indptr",
    "in_indices",
)


def rebuilt(graph, added, removed):
    """The next snapshot through the builder: range check, removals, adds."""
    n = graph.num_nodes
    for s, t in list(removed) + list(added):
        if not (0 <= s < n and 0 <= t < n):
            raise ParameterError(f"delta edge ({s}, {t}) outside [0, {n})")
    builder = GraphBuilder.from_graph(graph)
    labels = graph.node_labels or tuple(range(n))
    for s, t in removed:
        builder.remove_edge(labels[s], labels[t])
    for s, t in added:
        builder.add_edge(labels[s], labels[t])
    return builder.build()


def assert_same_arrays(got, expected):
    for name in CSR_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.is_weighted == expected.is_weighted
    if got.is_weighted:
        for name in ("out_weights", "in_weights"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
    assert got.num_arcs == expected.num_arcs
    assert got.directed == expected.directed


@st.composite
def graph_and_delta(draw):
    n = draw(st.integers(1, 7))
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    labelled = draw(st.booleans())
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=20))
    weights = (
        draw(
            st.lists(
                st.sampled_from([0.25, 0.5, 2.0, 3.0]),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
        if weighted
        else None
    )
    graph = DiGraph.from_edges(
        n,
        edges,
        directed=directed,
        weights=weights,
        node_labels=[f"v{i}" for i in range(n)] if labelled else None,
    )
    present = sorted(graph.edges())
    # Removals: mostly present arcs, sometimes an absent arc, a self-loop,
    # a repeat, a reversed arc, or an endpoint outside [0, n).
    stray = st.tuples(st.integers(0, n), st.integers(0, n))
    removable = st.sampled_from(present) if present else stray
    removed = draw(
        st.lists(st.one_of(removable, removable, removable, stray), max_size=4)
    )
    if present and draw(st.booleans()):
        arc = draw(st.sampled_from(present))
        removed[:0] = [arc, arc[::-1]]  # both arcs of one edge
    # Additions: fresh pairs (self-loops included), repeats, re-adds of
    # present arcs, and re-adds of arcs removed in the same delta.
    pool = [node.map(lambda v: (v, v)), st.tuples(node, node)]
    if present:
        pool.append(st.sampled_from(present))
    if removed:
        pool.append(st.sampled_from(removed))
    added = draw(st.lists(st.one_of(*pool), max_size=6))
    if added and draw(st.booleans()):
        added.append(added[0])
    if draw(st.integers(0, 9)) == 0:
        added.append((n, 0))
    return graph, added, removed


class TestWithDeltaMatchesBuilder:
    @settings(max_examples=400, deadline=None)
    @given(graph_and_delta())
    def test_differential(self, case):
        graph, added, removed = case
        try:
            expected = rebuilt(graph, added, removed)
        except (ParameterError, EdgeNotFoundError) as exc:
            with pytest.raises(type(exc)):
                graph.with_delta(added, removed)
            return
        got = graph.with_delta(added, removed)
        assert_same_arrays(got, expected)
        # Labels carry over as they are; the builder interns identity
        # labels for an unlabelled graph.
        assert got.node_labels == graph.node_labels
        identity = tuple(range(graph.num_nodes))
        assert (got.node_labels or identity) == expected.node_labels

    def test_leaves_the_source_graph_untouched(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        before = [getattr(graph, name).copy() for name in CSR_ARRAYS]
        graph.with_delta(added=[(3, 0)], removed=[(1, 2)])
        for name, array in zip(CSR_ARRAYS, before):
            assert np.array_equal(getattr(graph, name), array)

    def test_weighted_readd_resets_weight(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[4.0, 2.0])
        spliced = graph.with_delta(added=[(0, 1), (2, 0)])
        assert spliced.edge_weight(0, 1) == 1.0
        assert spliced.edge_weight(1, 2) == 2.0
        assert spliced.edge_weight(2, 0) == 1.0

    def test_undirected_changes_both_arcs(self):
        graph = DiGraph.from_edges(3, [(0, 1)], directed=False)
        spliced = graph.with_delta(added=[(2, 1)], removed=[(1, 0)])
        assert sorted(spliced.edges()) == [(1, 2), (2, 1)]
        assert spliced.num_edges == 1

    @pytest.mark.parametrize(
        "directed, removed",
        [
            (True, [(0, 2)]),
            (True, [(1, 1)]),
            (True, [(0, 1), (0, 1)]),
            (False, [(0, 1), (1, 0)]),
        ],
        ids=["absent", "self-loop", "removed-twice", "undirected-edge-twice"],
    )
    def test_absent_removal_raises(self, directed, removed):
        graph = DiGraph.from_edges(3, [(0, 1)], directed=directed)
        with pytest.raises(EdgeNotFoundError):
            graph.with_delta(removed=removed)

    def test_out_of_range_checked_before_removals(self):
        graph = DiGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ParameterError):
            graph.with_delta(added=[(0, 3)], removed=[(1, 2)])


#: (n, edges, directed, weights, added, removed) at the row search's edges.
EDGE_ROWS = {
    "first-row": (5, [(0, 1), (0, 3), (2, 0)], True, None, [(0, 2), (0, 4)], [(0, 3)]),
    "last-row": (
        5, [(4, 0), (4, 2), (1, 4)], True, None, [(4, 1), (3, 4)], [(4, 2), (1, 4)]
    ),
    "first-and-last-undirected": (5, [(0, 4), (0, 1)], False, None, [(4, 3)], [(4, 0)]),
    "only-arc-of-a-row": (4, [(1, 2), (2, 3), (3, 0)], True, None, [], [(1, 2)]),
    "only-arc-of-the-graph": (3, [(2, 1)], True, None, [], [(2, 1)]),
    "into-an-empty-row": (
        5, [(0, 1), (3, 4)], True, None, [(2, 4), (2, 0), (1, 3)], []
    ),
    "empty-row-undirected": (4, [(0, 1)], False, None, [(2, 3), (3, 0)], []),
    "no-arcs": (4, [], True, None, [(3, 0), (0, 3), (1, 2)], []),
    "no-arcs-no-delta": (4, [], False, None, [], []),
    "no-arcs-undirected": (4, [], False, None, [(3, 0), (1, 2)], []),
    "weighted-readds": (
        4,
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        True,
        [4.0, 2.0, 0.5, 3.0],
        [(0, 1), (1, 2), (1, 3), (0, 1)],
        [(1, 2), (3, 0)],
    ),
    "weighted-readds-undirected": (
        5,
        [(0, 1), (1, 2), (3, 4)],
        False,
        [4.0, 2.0, 0.5],
        [(1, 0), (2, 1), (4, 2)],
        [(1, 2)],
    ),
}


class TestRowSearchEdges:
    @pytest.mark.parametrize("row", EDGE_ROWS.values(), ids=EDGE_ROWS.keys())
    def test_matches_builder(self, row):
        n, edges, directed, weights, added, removed = row
        graph = DiGraph.from_edges(n, edges, directed=directed, weights=weights)
        got = graph.with_delta(added, removed)
        assert_same_arrays(got, rebuilt(graph, added, removed))


@st.composite
def temporal_case(draw):
    n = draw(st.integers(2, 6))
    directed = draw(st.booleans())
    labelled = draw(st.booleans())
    node = st.integers(0, n - 1)
    builder = TemporalGraphBuilder(
        n,
        directed=directed,
        node_labels=[f"v{i}" for i in range(n)] if labelled else None,
    )
    # Up to 14 snapshots: more than the 8-entry snapshot LRU holds.
    horizon = draw(st.integers(1, 14))
    builder.push_snapshot(draw(st.lists(st.tuples(node, node), max_size=12)))
    for _ in range(horizon - 1):
        if draw(st.booleans()):
            builder.push_snapshot(
                draw(st.lists(st.tuples(node, node), max_size=12))
            )
        else:
            builder.push_delta(
                added=draw(st.lists(st.tuples(node, node), max_size=3)),
                removed=draw(st.lists(st.tuples(node, node), max_size=3)),
            )
    temporal = builder.build()
    order = draw(
        st.lists(st.integers(0, temporal.num_snapshots - 1), max_size=30)
    )
    return temporal, order


class TestTemporalSnapshotSplice:
    @settings(max_examples=150, deadline=None)
    @given(temporal_case())
    def test_snapshot_matches_rebuild_in_any_order(self, case):
        temporal, order = case
        for index in order + list(range(temporal.num_snapshots)):
            expected = DiGraph.from_edges(
                temporal.num_nodes,
                temporal.edges_at(index),
                directed=temporal.directed,
                node_labels=temporal.node_labels,
            )
            got = temporal.snapshot(index)
            assert_same_arrays(got, expected)
            assert got.node_labels == expected.node_labels
