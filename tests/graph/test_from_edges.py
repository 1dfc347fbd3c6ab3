"""Differential and pin tests for :meth:`DiGraph.from_edges`, the array build.

``from_edges`` masks self-loops, mirrors undirected pairs, collapses arcs
with one ``unique`` over arc keys and leaves the CSR order to the
constructor's lexsort.  ``_reference_from_edges`` below is the earlier
dict-loop build, kept verbatim as the oracle: all six CSR arrays must
match it byte for byte, for every input kind, in both dedup modes, with
and without weights.  The pinned 50k-node fixture's digests must not move.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import powerlaw_fixture
from repro.errors import GraphError
from repro.graph.digraph import DiGraph

CSR_ARRAYS = (
    "_out_indptr",
    "_out_indices",
    "_out_weights",
    "_in_indptr",
    "_in_indices",
    "_in_weights",
)

INPUT_KINDS = {
    "list": list,
    "generator": lambda pairs: (pair for pair in pairs),
    "frozenset": frozenset,
    "ndarray": lambda pairs: np.array(pairs, dtype=np.int64).reshape(-1, 2),
}


def _reference_from_edges(
    num_nodes, edges, *, directed=True, node_labels=None, dedup=True, weights=None
):
    """The dict-loop build: last weight wins per arc, first order kept."""
    edge_list = [(int(s), int(t)) for s, t in edges]
    if weights is not None:
        weight_list = [float(w) for w in weights]
        if len(weight_list) != len(edge_list):
            raise GraphError(
                f"{len(weight_list)} weights supplied for {len(edge_list)} edges"
            )
    else:
        weight_list = None

    weighted_pairs: dict = {}
    ordered: list = []
    for index, (s, t) in enumerate(edge_list):
        if s == t:
            continue
        weight = weight_list[index] if weight_list is not None else 1.0
        arcs = [(s, t)] if directed else [(s, t), (t, s)]
        for arc in arcs:
            if dedup:
                if arc not in weighted_pairs:
                    ordered.append(arc)
                weighted_pairs[arc] = weight
            else:
                ordered.append(arc)
                weighted_pairs[arc] = weight
    pairs = ordered
    if pairs:
        arr = np.array(pairs, dtype=np.int64)
        sources, targets = arr[:, 0], arr[:, 1]
        weight_array = (
            np.array([weighted_pairs[arc] for arc in pairs])
            if weight_list is not None
            else None
        )
    else:
        sources = targets = np.empty(0, dtype=np.int64)
        weight_array = (
            np.empty(0, dtype=np.float64) if weight_list is not None else None
        )
    return DiGraph(
        num_nodes,
        sources,
        targets,
        directed=directed,
        node_labels=node_labels,
        weights=weight_array,
    )


def assert_same_csr(expected: DiGraph, actual: DiGraph) -> None:
    for name in CSR_ARRAYS:
        want, got = getattr(expected, name), getattr(actual, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert actual.num_edges == expected.num_edges
    assert actual.directed == expected.directed


@st.composite
def edge_inputs(draw):
    """Small edge lists rich in self-loops and repeats, with optional weights."""
    n = draw(st.integers(0, 7))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=24)) if n else []
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.5, 1.0, 2.0, 3.25, 1e-3]),
                min_size=len(pairs),
                max_size=len(pairs),
            ),
        )
    )
    return n, pairs, weights


class TestMatchesDictLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        edge_inputs(),
        st.booleans(),
        st.booleans(),
        st.sampled_from(sorted(INPUT_KINDS)),
    )
    def test_random_inputs(self, case, directed, dedup, kind):
        n, pairs, weights = case
        if kind == "frozenset":
            # A set holds each pair once, so weights cannot line up.
            pairs, weights = sorted(set(pairs)), None
        expected = _reference_from_edges(
            n, pairs, directed=directed, dedup=dedup, weights=weights
        )
        actual = DiGraph.from_edges(
            n, INPUT_KINDS[kind](pairs), directed=directed, dedup=dedup,
            weights=weights,
        )
        assert_same_csr(expected, actual)

    @pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_empty_graph(self, kind, directed, dedup):
        for n in (0, 3):
            expected = _reference_from_edges(n, [], directed=directed, dedup=dedup)
            actual = DiGraph.from_edges(
                n, INPUT_KINDS[kind]([]), directed=directed, dedup=dedup
            )
            assert_same_csr(expected, actual)
            assert actual.num_arcs == 0

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("directed", [True, False])
    def test_repeated_arcs_take_the_last_weight(self, directed, dedup):
        pairs = [(0, 1), (2, 2), (1, 0), (0, 1), (1, 2)]
        weights = [1.0, 9.0, 2.0, 3.0, 4.0]
        expected = _reference_from_edges(
            3, pairs, directed=directed, dedup=dedup, weights=weights
        )
        actual = DiGraph.from_edges(
            3, pairs, directed=directed, dedup=dedup, weights=weights
        )
        assert_same_csr(expected, actual)
        # Undirected, the pair (1, 0) also writes the arc 0 -> 1, but the
        # second (0, 1) comes after it either way.
        assert actual.edge_weight(0, 1) == 3.0
        assert actual.edge_weight(1, 0) == (2.0 if directed else 3.0)

    def test_labels_and_weight_arrays_pass_through(self):
        weights = np.array([2.0, 0.5, 1.5])
        graph = DiGraph.from_edges(
            3, np.array([[0, 1], [1, 2], [2, 0]]), node_labels="abc",
            weights=weights,
        )
        assert graph.node_labels == ("a", "b", "c")
        assert graph.edge_weight(1, 2) == 0.5

    def test_input_array_is_not_modified(self):
        pairs = np.array([[0, 1], [1, 1], [1, 0]])
        before = pairs.copy()
        DiGraph.from_edges(2, pairs, directed=False)
        assert np.array_equal(pairs, before)


class TestErrors:
    @pytest.mark.parametrize("kind", ["list", "generator", "ndarray"])
    def test_wrong_weight_count(self, kind):
        with pytest.raises(GraphError, match="2 weights supplied for 3 edges"):
            DiGraph.from_edges(
                3, INPUT_KINDS[kind]([(0, 1), (1, 2), (2, 2)]), weights=[1.0, 2.0]
            )

    def test_non_pair_row_in_an_iterable(self):
        with pytest.raises(ValueError):
            DiGraph.from_edges(3, [(0, 1), (1, 2, 0)])

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 1)])
    def test_non_pair_rows_in_an_array(self, shape):
        with pytest.raises(ValueError):
            DiGraph.from_edges(3, np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("directed", [True, False])
    def test_out_of_range_endpoint(self, directed):
        with pytest.raises(GraphError, match=r"saw values in \[0, 5\]"):
            DiGraph.from_edges(3, np.array([[0, 5], [1, 2]]), directed=directed)

    def test_negative_endpoint_does_not_alias_a_valid_arc(self):
        # -1 * 3 + 4 would share key 1 with the arc (0, 1).
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(0, 1), (-1, 4)])

    def test_negative_node_count(self):
        with pytest.raises(GraphError, match="non-negative"):
            DiGraph.from_edges(-1, [(0, 1)])

    def test_out_of_range_self_loop_is_dropped_like_any_loop(self):
        graph = DiGraph.from_edges(3, [(7, 7), (0, 1)])
        assert sorted(graph.edges()) == [(0, 1)]


class TestFixturePin:
    """The pinned benchmark fixture is built by ``from_edges`` (an ndarray,
    ``dedup=False``); its bytes are part of the benchmark's fingerprint."""

    def test_in_csr_digest(self):
        graph = powerlaw_fixture()
        digest = hashlib.sha256()
        digest.update(graph.in_indptr.tobytes())
        digest.update(graph.in_indices.tobytes())
        assert digest.hexdigest() == (
            "d02c24098f70fa3d60bcdff07614958463098ae3c1bddff8b4f85016cabf3657"
        )

    def test_out_and_in_digest(self):
        graph = powerlaw_fixture()
        digest = hashlib.sha256()
        for array in (
            graph.out_indptr, graph.out_indices, graph.in_indptr, graph.in_indices
        ):
            digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "744d4c1896651303761e97f1e4b4f682db3947840f903571eb6629772ec520cb"
        )
        assert graph.num_arcs == 111_060
