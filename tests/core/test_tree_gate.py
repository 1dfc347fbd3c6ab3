"""Tests for the incremental source-tree gate (tree_unaffected_by_delta)."""

import numpy as np
import pytest

from repro.core import streaming
from repro.core.crashsim_t import crashsim_t
from repro.core.params import CrashSimParams
from repro.core.pruning import tree_unaffected_by_delta
from repro.core.queries import ThresholdQuery
from repro.core.revreach import revreach_levels
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import evolve_snapshots, preferential_attachment
from repro.graph.temporal import TemporalGraphBuilder


class TestGateExactness:
    def test_gate_implies_identical_tree(self, small_random_graph):
        """Whenever the gate says 'unaffected', rebuilding on the changed
        graph must reproduce the tree bit-for-bit (exactness, not a
        heuristic)."""
        graph = small_random_graph
        l_max, c = 12, 0.6
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(40):
            source = int(rng.integers(0, graph.num_nodes))
            tree = revreach_levels(graph, source, l_max, c)
            edge = (
                int(rng.integers(0, graph.num_nodes)),
                int(rng.integers(0, graph.num_nodes)),
            )
            if edge[0] == edge[1] or graph.has_edge(*edge):
                continue
            builder = GraphBuilder.from_graph(graph)
            builder.add_edge(edge[0], edge[1])
            changed = builder.build()
            if tree_unaffected_by_delta(tree, [edge], []):
                rebuilt = revreach_levels(changed, source, l_max, c)
                assert rebuilt.same_as(tree), (source, edge)
                checked += 1
        assert checked > 0  # the property was actually exercised

    def test_gate_detects_touching_change(self):
        # Chain 0 <- 1 <- 2: node 1 is occupied at step 1, so an edge into
        # node 1 must trip the gate.
        graph = DiGraph.from_edges(4, [(1, 0), (2, 1)])
        tree = revreach_levels(graph, 0, 3, 0.6)
        assert not tree_unaffected_by_delta(tree, [(3, 1)], [])
        # Node 3 is never occupied: edges into it are invisible.
        assert tree_unaffected_by_delta(tree, [(2, 3)], [])

    def test_removed_edges_checked_too(self):
        graph = DiGraph.from_edges(3, [(1, 0), (2, 1)])
        tree = revreach_levels(graph, 0, 3, 0.6)
        assert not tree_unaffected_by_delta(tree, [], [(2, 1)])

    def test_undirected_checks_both_endpoints(self):
        graph = DiGraph.from_edges(4, [(0, 1)], directed=False)
        tree = revreach_levels(graph, 0, 3, 0.6)
        # Node 1 is occupied; the canonical edge (1, 2) has occupied tail.
        assert not tree_unaffected_by_delta(
            tree, [(1, 2)], [], directed=False
        )
        assert tree_unaffected_by_delta(tree, [(2, 3)], [], directed=False)

    def test_last_level_occupancy_is_irrelevant(self):
        # A node first occupied exactly at step l_max cannot propagate
        # further, so changing its in-edges leaves the truncated tree alone.
        graph = DiGraph.from_edges(5, [(1, 0), (2, 1), (3, 2)])
        tree = revreach_levels(graph, 0, 2, 0.6)  # occupancy: 0,1,2
        assert tree_unaffected_by_delta(tree, [(4, 2)], [])
        rebuilt_graph = DiGraph.from_edges(5, [(1, 0), (2, 1), (3, 2), (4, 2)])
        rebuilt = revreach_levels(rebuilt_graph, 0, 2, 0.6)
        assert rebuilt.same_as(tree)


class TestIncrementalUpdate:
    def test_matches_full_rebuild_on_random_changes(self, small_random_graph):
        from repro.core.revreach import revreach_update

        graph = small_random_graph
        l_max, c = 12, 0.6
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(30):
            source = int(rng.integers(0, graph.num_nodes))
            tree = revreach_levels(graph, source, l_max, c)
            builder = GraphBuilder.from_graph(graph)
            edge = (
                int(rng.integers(0, graph.num_nodes)),
                int(rng.integers(0, graph.num_nodes)),
            )
            if edge[0] == edge[1]:
                continue
            if graph.has_edge(*edge):
                builder.remove_edge(*edge)
                added, removed = [], [edge]
            else:
                builder.add_edge(*edge)
                added, removed = [edge], []
            changed = builder.build()
            updated = revreach_update(tree, changed, added, removed)
            rebuilt = revreach_levels(changed, source, l_max, c)
            assert np.array_equal(updated.matrix, rebuilt.matrix), (
                source,
                edge,
            )
            checked += 1
        assert checked > 10

    def test_untouched_delta_returns_same_object(self):
        from repro.core.revreach import revreach_update

        graph = DiGraph.from_edges(5, [(1, 0), (2, 1)])
        tree = revreach_levels(graph, 0, 4, 0.6)
        new_graph = DiGraph.from_edges(5, [(1, 0), (2, 1), (4, 3)])
        assert revreach_update(tree, new_graph, [(4, 3)], []) is tree

    def test_paper_variant_rejected(self, paper_graph):
        from repro.core.revreach import revreach_update

        tree = revreach_levels(paper_graph, 0, 3, 0.25, variant="paper")
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            revreach_update(tree, paper_graph, [(0, 1)], [])

    def test_undirected_checks_both_endpoints(self):
        from repro.core.revreach import revreach_update

        old = DiGraph.from_edges(4, [(0, 1)], directed=False)
        tree = revreach_levels(old, 0, 3, 0.6)
        new = DiGraph.from_edges(4, [(0, 1), (1, 2)], directed=False)
        updated = revreach_update(
            tree, new, [(1, 2)], [], directed=False
        )
        rebuilt = revreach_levels(new, 0, 3, 0.6)
        assert np.array_equal(updated.matrix, rebuilt.matrix)


class TestGateInCrashSimT:
    def build_quiet_workload(self):
        base = preferential_attachment(300, 2, directed=True, seed=5)
        return evolve_snapshots(base, 6, churn_rate=0.001, seed=6)

    def test_gated_and_ungated_runs_agree(self, monkeypatch):
        temporal = self.build_quiet_workload()
        params = CrashSimParams(c=0.6, epsilon=0.1, n_r_override=200)
        query = ThresholdQuery(theta=0.0)
        gated = crashsim_t(temporal, 50, query, params=params, seed=7)

        def rebuild(tree, new_graph, added, removed, *, directed=True):
            return revreach_levels(new_graph, tree.source, tree.l_max, tree.c)

        # Ungated: every transition rebuilds the source tree from scratch.
        monkeypatch.setattr(streaming, "revreach_update", rebuild)
        ungated = crashsim_t(temporal, 50, query, params=params, seed=7)
        assert gated.stats.source_tree_reused > 0
        assert ungated.stats.source_tree_reused == 0
        assert gated.stats.candidates_carried > 0
        # The gate is exact, so both runs see identical trees, hence make
        # identical pruning decisions and consume identical randomness.
        assert gated.survivors == ungated.survivors
        assert gated.history == ungated.history

    def test_gate_reuses_trees(self):
        builder = TemporalGraphBuilder(6, directed=True)
        base = [(2, 0), (2, 1), (3, 1)]
        builder.push_snapshot(base)
        builder.push_snapshot(base + [(5, 4)])  # far from source 0's tree
        temporal = builder.build()
        result = crashsim_t(
            temporal,
            0,
            ThresholdQuery(theta=0.0),
            params=CrashSimParams(c=0.6, epsilon=0.1, n_r_override=100),
            seed=8,
        )
        assert result.stats.source_tree_reused == 1
