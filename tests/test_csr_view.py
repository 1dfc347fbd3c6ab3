"""The test-only :class:`CsrGraphView` walks exactly as a ``DiGraph`` does.

Tests that need graphs ``DiGraph`` refuses (zero-weight in-blocks) run
on the duck-typed view.  Those tests only mean something if, on graphs
``DiGraph`` does accept, the view is indistinguishable from it through
the walk-facing protocol: the same CSR arrays, bit-identical weight
totals and alias tables, and the same walks and scores for a seed.
"""

import numpy as np
import pytest

from repro.core.params import CrashSimParams
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.parallel import parallel_crashsim
from repro.walks.engine import BatchWalkStepper
from tests.csr_view import CsrGraphView


def weighted_graph() -> DiGraph:
    edges = [(0, 1), (2, 1), (1, 3), (3, 0), (2, 3)]
    weights = [0.5, 2.0, 1.0, 4.0, 0.25]
    return DiGraph.from_edges(4, edges, weights=weights)


def view_of(graph: DiGraph) -> CsrGraphView:
    return CsrGraphView(
        graph.num_nodes,
        graph.in_indptr,
        graph.in_indices,
        graph.in_weights if graph.is_weighted else None,
    )


class TestCsrGraphView:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_csr_arrays_identical(self, paper_graph, weighted):
        graph = weighted_graph() if weighted else paper_graph
        view = view_of(graph)
        assert view.num_nodes == graph.num_nodes
        assert np.array_equal(view.in_indptr, graph.in_indptr)
        assert np.array_equal(view.in_indices, graph.in_indices)
        assert np.array_equal(view.in_degrees(), graph.in_degrees())
        assert view.is_weighted == graph.is_weighted
        if weighted:
            assert np.array_equal(view.in_weights, graph.in_weights)
        # Bit-identical totals: the determinism contract depends on it.
        assert np.array_equal(view.in_weight_totals(), graph.in_weight_totals())

    def test_unweighted_view_rejects_weights_access(self, paper_graph):
        with pytest.raises(GraphError):
            view_of(paper_graph).in_weights

    def test_alias_tables_identical(self):
        graph = weighted_graph()
        for ours, theirs in zip(
            view_of(graph).in_alias_tables(), graph.in_alias_tables()
        ):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_walks_identical_through_view(self, paper_graph, weighted):
        graph = weighted_graph() if weighted else paper_graph
        starts = np.arange(graph.num_nodes, dtype=np.int64)
        direct = BatchWalkStepper(graph, 0.6).sample_paths(starts, 8, seed=123)
        viewed = BatchWalkStepper(view_of(graph), 0.6).sample_paths(
            starts, 8, seed=123
        )
        assert np.array_equal(direct, viewed)

    @pytest.mark.parametrize("sampler", ["cdf", "alias"])
    def test_scores_identical_through_view(self, sampler):
        graph = weighted_graph()
        params = CrashSimParams(n_r_override=64)
        direct = parallel_crashsim(
            graph, 1, params=params, seed=5, workers=1, sampler=sampler
        )
        viewed = parallel_crashsim(
            view_of(graph), 1, params=params, seed=5, workers=1,
            sampler=sampler,
        )
        assert np.array_equal(direct.candidates, viewed.candidates)
        assert np.array_equal(direct.scores, viewed.scores)
