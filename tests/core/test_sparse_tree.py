"""Sparse reverse-reachable trees: bit-for-bit agreement with dense,
incremental updates, fingerprints, gather, and the dense-row fallback.

The contract under test (ISSUE 3): the sparse representation is a pure
re-encoding — every probability, every propagated level, and every score
computed through it is the *same float* the dense path produces.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.core.revreach import (
    DENSITY_THRESHOLD,
    ReverseReachableTree,
    SparseReverseTree,
    revreach_levels,
    revreach_update,
)
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment

settings.register_profile("sparse_tree", max_examples=30, deadline=None)
settings.load_profile("sparse_tree")


@st.composite
def random_graph(draw, weighted=False):
    num_nodes = draw(st.integers(min_value=2, max_value=14))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            min_size=1,
            max_size=50,
        )
    )
    edges = sorted({(s, t) for s, t in pairs if s != t}) or [(0, 1)]
    weights = None
    if weighted:
        weights = draw(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e6),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    graph = DiGraph.from_edges(num_nodes, edges, weights=weights)
    source = draw(st.integers(0, num_nodes - 1))
    l_max = draw(st.integers(0, 7))
    c = draw(st.sampled_from([0.25, 0.6, 0.8]))
    return graph, source, l_max, c


class TestBitForBitAgreement:
    @given(random_graph())
    def test_sparse_equals_dense_corrected(self, case):
        graph, source, l_max, c = case
        sparse = revreach_levels(graph, source, l_max, c, variant="corrected")
        dense = revreach_levels(
            graph, source, l_max, c, variant="corrected", dense=True
        )
        assert isinstance(sparse, SparseReverseTree)
        assert isinstance(dense, ReverseReachableTree)
        assert np.array_equal(sparse.matrix, dense.matrix)

    @given(random_graph())
    def test_sparse_equals_dense_paper(self, case):
        graph, source, l_max, c = case
        sparse = revreach_levels(graph, source, l_max, c, variant="paper")
        dense = revreach_levels(graph, source, l_max, c, variant="paper", dense=True)
        assert np.array_equal(sparse.matrix, dense.matrix)

    @given(random_graph(weighted=True))
    def test_sparse_equals_dense_weighted(self, case):
        graph, source, l_max, c = case
        sparse = revreach_levels(graph, source, l_max, c)
        dense = revreach_levels(graph, source, l_max, c, dense=True)
        assert np.array_equal(sparse.matrix, dense.matrix)

    @given(random_graph())
    def test_round_trip_conversions(self, case):
        graph, source, l_max, c = case
        sparse = revreach_levels(graph, source, l_max, c)
        assert sparse.to_dense().to_sparse().same_as(sparse)
        assert sparse.same_as(sparse.to_dense())
        assert sparse.to_dense().same_as(sparse)

    @given(random_graph())
    def test_gather_matches_dense_fancy_index(self, case):
        graph, source, l_max, c = case
        sparse = revreach_levels(graph, source, l_max, c)
        rng = np.random.default_rng(0)
        positions = rng.integers(0, graph.num_nodes, size=37)
        for step in range(l_max + 1):
            expected = sparse.matrix[step, positions]
            assert np.array_equal(sparse.gather(step, positions), expected)


class TestIncrementalUpdate:
    @given(random_graph(), st.integers(0, 2**31 - 1))
    def test_update_matches_fresh_build(self, case, delta_seed):
        graph, source, l_max, c = case
        tree = revreach_levels(graph, source, l_max, c)
        rng = np.random.default_rng(delta_seed)
        edges = set(map(tuple, graph.edges()))
        removed = set()
        if edges and rng.random() < 0.7:
            removed = {sorted(edges)[int(rng.integers(len(edges)))]}
        added = set()
        for _ in range(int(rng.integers(0, 3))):
            s, t = rng.integers(0, graph.num_nodes, size=2)
            if s != t and (int(s), int(t)) not in edges:
                added.add((int(s), int(t)))
        added -= removed
        new_edges = sorted((edges - removed) | added)
        if not new_edges:
            return
        new_graph = DiGraph.from_edges(graph.num_nodes, new_edges)
        updated = revreach_update(tree, new_graph, added, removed)
        rebuilt = revreach_levels(new_graph, source, l_max, c)
        assert updated.same_as(rebuilt)
        assert np.array_equal(updated.matrix, rebuilt.matrix)

    def test_untouched_delta_returns_same_object(self):
        graph = DiGraph.from_edges(5, [(1, 0), (2, 1), (3, 2), (4, 3)])
        tree = revreach_levels(graph, 0, 2, 0.6)  # occupancy: {0}, {1}, {2}
        # Heads 3 and 4 carry no mass below l_max, so the tree is reused.
        assert revreach_update(tree, graph, [(0, 4)], []) is tree
        assert revreach_update(tree, graph, [], []) is tree

    def test_update_rejects_paper_variant(self):
        graph = DiGraph.from_edges(3, [(1, 0), (2, 1)])
        tree = revreach_levels(graph, 0, 2, 0.6, variant="paper")
        with pytest.raises(ParameterError):
            revreach_update(tree, graph, [(0, 2)], [])


class TestFingerprintsAndSameAs:
    def test_fingerprints_stable_and_discriminating(self):
        graph = preferential_attachment(40, 2, directed=True, seed=3)
        a = revreach_levels(graph, 0, 4, 0.6)
        b = revreach_levels(graph, 0, 4, 0.6)
        assert a.fingerprints() == b.fingerprints()
        other = revreach_levels(graph, 1, 4, 0.6)
        assert a.fingerprints() != other.fingerprints()
        assert a.same_as(b)
        assert not a.same_as(other)

    def test_same_as_metadata_mismatches(self):
        graph = preferential_attachment(30, 2, directed=True, seed=4)
        a = revreach_levels(graph, 0, 4, 0.6)
        assert not a.same_as(revreach_levels(graph, 0, 3, 0.6))
        assert not a.same_as(revreach_levels(graph, 0, 4, 0.6, variant="paper"))

    def test_same_as_with_tolerance_cross_representation(self):
        graph = preferential_attachment(30, 2, directed=True, seed=4)
        a = revreach_levels(graph, 0, 3, 0.6)
        perturbed = np.array(a.matrix)
        nodes, _ = a.level_arrays(1)
        perturbed[1, nodes[0]] += 1e-13
        b = ReverseReachableTree(
            source=a.source, c=a.c, l_max=a.l_max, variant=a.variant,
            matrix=perturbed,
        )
        assert not a.same_as(b)
        assert a.same_as(b, tol=1e-9)


class TestDenseRowFallback:
    def test_dense_rows_materialised_past_threshold(self):
        # A star into node 0: level 1 occupies every other node, so its
        # support fraction ((n-1)/n) exceeds DENSITY_THRESHOLD and gather
        # must take (and cache) the dense-row path.
        n = 16
        graph = DiGraph.from_edges(n, [(i, 0) for i in range(1, n)])
        tree = revreach_levels(graph, 0, 1, 0.6)
        assert tree.level_size(1) == n - 1
        assert tree.level_size(1) >= DENSITY_THRESHOLD * n
        positions = np.arange(n, dtype=np.int64)
        first = tree.gather(1, positions)
        assert 1 in tree._dense_rows
        second = tree.gather(1, positions)
        assert np.array_equal(first, second)
        assert np.array_equal(first, tree.matrix[1, positions])


class TestTreeSurface:
    def test_levels_are_sorted_and_positive(self):
        graph = preferential_attachment(50, 3, directed=True, seed=8)
        tree = revreach_levels(graph, 0, 5, 0.6)
        for step in range(tree.l_max + 1):
            nodes, probs = tree.level_arrays(step)
            assert np.all(np.diff(nodes) > 0)
            assert np.all(probs > 0)

    def test_arrays_read_only(self):
        graph = preferential_attachment(20, 2, directed=True, seed=8)
        tree = revreach_levels(graph, 0, 3, 0.6)
        for array in (tree.level_indptr, tree.nodes, tree.probs):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_first_level_containing(self):
        graph = DiGraph.from_edges(4, [(1, 0), (2, 1), (3, 2)])
        tree = revreach_levels(graph, 0, 3, 0.6)  # levels occupy 0,1,2,3
        assert tree.first_level_containing(np.array([1])) == 1
        assert tree.first_level_containing(np.array([5, 2])) == 2
        # limit excludes levels >= limit: node 3 only appears at level 3.
        assert tree.first_level_containing(np.array([3]), limit=3) is None
        assert tree.first_level_containing(np.array([], dtype=np.int64)) is None

    def test_nnz_and_support(self):
        graph = DiGraph.from_edges(4, [(1, 0), (2, 1), (3, 2)])
        tree = revreach_levels(graph, 0, 3, 0.6)
        assert tree.nnz == 4
        assert tree.support().tolist() == [0, 1, 2, 3]


def first_level_oracle(tree, heads, limit):
    """One ``np.isin`` over the packed ``nodes`` of the levels below ``limit``."""
    limit = tree.l_max if limit is None else min(int(limit), tree.l_max + 1)
    end = int(tree.level_indptr[max(limit, 0)])
    hits = np.flatnonzero(np.isin(tree.nodes[:end], heads))
    if hits.size == 0:
        return None
    return int(np.searchsorted(tree.level_indptr, hits[0], side="right") - 1)


@st.composite
def tree_heads_limit(draw):
    num_nodes = draw(st.integers(1, 12))
    l_max = draw(st.integers(0, 6))
    # Some levels empty, the rest sorted distinct nodes with positive mass.
    levels = []
    for _ in range(l_max + 1):
        nodes = draw(st.sets(st.integers(0, num_nodes - 1), max_size=num_nodes))
        nodes = np.array(sorted(nodes), dtype=np.int64)
        levels.append((nodes, np.full(nodes.size, 0.5)))
    tree = SparseReverseTree.from_levels(0, 0.6, l_max, "corrected", num_nodes, levels)
    # Heads may repeat and may lie outside the support or the node range.
    heads = draw(st.lists(st.integers(0, num_nodes + 2), max_size=6))
    limit = draw(st.sampled_from([None, 0, 1, l_max, l_max + 1]))
    return tree, np.array(heads, dtype=np.int64), limit


class TestFirstLevelContaining:
    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    @given(tree_heads_limit())
    def test_matches_isin_oracle(self, case):
        tree, heads, limit = case
        assert tree.first_level_containing(heads, limit=limit) == first_level_oracle(
            tree, heads, limit
        )


class TestScoresAcrossRepresentations:
    def test_crashsim_byte_identical_dense_vs_sparse(self):
        graph = preferential_attachment(80, 3, directed=True, seed=6)
        params = CrashSimParams(n_r_override=32)
        sparse_tree = revreach_levels(graph, 0, params.l_max, params.c)
        dense_tree = sparse_tree.to_dense()
        by_sparse = crashsim(graph, 0, params=params, tree=sparse_tree, seed=99)
        by_dense = crashsim(graph, 0, params=params, tree=dense_tree, seed=99)
        by_default = crashsim(graph, 0, params=params, seed=99)
        assert np.array_equal(by_sparse.scores, by_dense.scores)
        assert np.array_equal(by_sparse.scores, by_default.scores)
