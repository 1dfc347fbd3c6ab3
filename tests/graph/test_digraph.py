"""Unit and property tests for the CSR DiGraph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph


def edge_list_strategy(max_nodes=12, max_edges=40):
    return st.integers(min_value=2, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=max_edges,
            ),
        )
    )


class TestConstruction:
    def test_from_edges_basic(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.directed

    def test_self_loops_dropped(self):
        graph = DiGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        assert graph.num_edges == 1

    def test_parallel_edges_deduped(self):
        graph = DiGraph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        assert graph.num_edges == 1

    def test_undirected_mirrors_arcs(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)], directed=False)
        assert graph.num_edges == 2
        assert graph.num_arcs == 4
        assert graph.has_edge(1, 0)
        assert graph.has_edge(2, 1)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(2, np.array([0]), np.array([5]))

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(-1, np.array([]), np.array([]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(3, np.array([0, 1]), np.array([1]))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 1)], node_labels=["only-one"])

    def test_empty_graph(self):
        graph = DiGraph.from_edges(0, [])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []


class TestAdjacency:
    def test_in_neighbors_sorted(self, paper_graph):
        for node in paper_graph.nodes():
            neighbors = paper_graph.in_neighbors(node)
            assert np.all(np.diff(neighbors) > 0) or neighbors.size <= 1

    def test_paper_graph_in_degrees(self, paper_graph):
        # The degrees Example 2's arithmetic relies on.
        labels = dict(zip(paper_graph.node_labels, paper_graph.nodes()))
        assert paper_graph.in_degree(labels["A"]) == 2
        assert paper_graph.in_degree(labels["B"]) == 2
        assert paper_graph.in_degree(labels["C"]) == 3
        assert paper_graph.in_degree(labels["D"]) == 2
        assert paper_graph.in_degree(labels["E"]) == 2
        assert paper_graph.in_degree(labels["H"]) == 2

    def test_has_edge(self, paper_graph):
        labels = dict(zip(paper_graph.node_labels, paper_graph.nodes()))
        assert paper_graph.has_edge(labels["B"], labels["A"])
        assert not paper_graph.has_edge(labels["A"], labels["H"])

    def test_unknown_node_raises(self, paper_graph):
        with pytest.raises(NodeNotFoundError):
            paper_graph.in_neighbors(99)
        with pytest.raises(NodeNotFoundError):
            paper_graph.in_degree(-9)

    def test_degree_arrays_match_scalars(self, small_random_graph):
        graph = small_random_graph
        in_degrees = graph.in_degrees()
        out_degrees = graph.out_degrees()
        for node in graph.nodes():
            assert in_degrees[node] == graph.in_degree(node)
            assert out_degrees[node] == graph.out_degree(node)

    def test_degree_sums_equal_arcs(self, small_random_graph):
        graph = small_random_graph
        assert graph.in_degrees().sum() == graph.num_arcs
        assert graph.out_degrees().sum() == graph.num_arcs


class TestDuality:
    @given(edge_list_strategy())
    @settings(max_examples=40, deadline=None)
    def test_in_out_duality(self, data):
        """u -> v stored as out-arc of u iff stored as in-arc of v."""
        n, edges = data
        graph = DiGraph.from_edges(n, edges)
        out_pairs = {
            (s, int(t)) for s in graph.nodes() for t in graph.out_neighbors(s)
        }
        in_pairs = {
            (int(s), t) for t in graph.nodes() for s in graph.in_neighbors(t)
        }
        assert out_pairs == in_pairs
        assert len(out_pairs) == graph.num_arcs

    @given(edge_list_strategy())
    @settings(max_examples=40, deadline=None)
    def test_edges_iterator_matches_has_edge(self, data):
        n, edges = data
        graph = DiGraph.from_edges(n, edges)
        listed = set(graph.edges())
        for source, target in listed:
            assert graph.has_edge(source, target)
        assert len(listed) == graph.num_arcs


class TestDerived:
    def test_reverse_transition_matrix_rows_stochastic(self, small_random_graph):
        matrix = small_random_graph.reverse_transition_matrix()
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        degrees = small_random_graph.in_degrees()
        assert np.allclose(sums[degrees > 0], 1.0)
        assert np.allclose(sums[degrees == 0], 0.0)

    def test_transition_matrix_entries(self, tiny_pair_graph):
        matrix = tiny_pair_graph.reverse_transition_matrix().toarray()
        # nodes 0 and 1 each have the single in-neighbour 2.
        assert matrix[0, 2] == pytest.approx(1.0)
        assert matrix[1, 2] == pytest.approx(1.0)
        assert matrix[2].sum() == 0.0  # node 2 has no in-neighbours

    def test_edge_set_cached_and_correct(self, paper_graph):
        edge_set = paper_graph.edge_set()
        assert edge_set is paper_graph.edge_set()
        assert len(edge_set) == paper_graph.num_arcs
        assert all(paper_graph.has_edge(s, t) for s, t in edge_set)

    def test_arc_sources_aligned(self, small_random_graph):
        graph = small_random_graph
        sources = graph.arc_sources()
        targets = graph.out_indices
        assert sources.shape == targets.shape
        rebuilt = set(zip(sources.tolist(), targets.tolist()))
        assert rebuilt == set(graph.edges())

    def test_same_structure(self, paper_graph):
        other = DiGraph.from_edges(
            paper_graph.num_nodes, list(paper_graph.edges())
        )
        assert paper_graph.same_structure(other)
        different = DiGraph.from_edges(paper_graph.num_nodes, [(0, 1)])
        assert not paper_graph.same_structure(different)


class TestReweightedArcs:
    ARCS = [(0, 1), (1, 2), (2, 0)]

    def test_only_common_arcs_with_new_weights(self):
        old = DiGraph.from_edges(4, self.ARCS, weights=[1.0, 2.0, 3.0])
        new = DiGraph.from_edges(
            4, [(0, 1), (1, 2), (3, 0)], weights=[1.0, 5.0, 3.0]
        )
        assert new.reweighted_arcs(old) == {(1, 2)}
        assert old.reweighted_arcs(new) == {(1, 2)}
        # Disjoint from the arcs either side lacks.
        assert new.arcs_not_in(old) == {(3, 0)}
        assert old.arcs_not_in(new) == {(2, 0)}

    def test_unweighted_graph_weighs_one(self):
        plain = DiGraph.from_edges(3, self.ARCS)
        ones = DiGraph.from_edges(3, self.ARCS, weights=[1.0, 1.0, 1.0])
        heavier = DiGraph.from_edges(3, self.ARCS, weights=[1.0, 1.0, 2.0])
        assert plain.reweighted_arcs(plain) == frozenset()
        assert ones.reweighted_arcs(plain) == frozenset()
        assert heavier.reweighted_arcs(plain) == {(2, 0)}
        assert plain.reweighted_arcs(heavier) == {(2, 0)}

    def test_node_sets_must_match(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, self.ARCS).reweighted_arcs(
                DiGraph.from_edges(4, self.ARCS)
            )


class TestNetworkxInterop:
    def test_round_trip_directed(self, paper_graph):
        nx_graph = paper_graph.to_networkx()
        back = DiGraph.from_networkx(nx_graph)
        assert back.same_structure(paper_graph)
        assert back.node_labels == paper_graph.node_labels

    def test_round_trip_undirected(self, small_undirected_graph):
        nx_graph = small_undirected_graph.to_networkx()
        assert not nx_graph.is_directed()
        back = DiGraph.from_networkx(nx_graph)
        assert back.num_edges == small_undirected_graph.num_edges
        assert back.same_structure(small_undirected_graph)
