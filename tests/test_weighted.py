"""Weighted SimRank across the stack (extension feature).

Weighted semantics: a reverse √c-walk at ``u`` steps to in-neighbour ``x``
with probability ``w(x, u) / W(u)``.  The weighted SimRank fixed point is
the natural generalisation and must be agreed on by the Power Method,
CrashSim, ProbeSim, and SLING; unit weights must reproduce the unweighted
results exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import single_pair
from repro.baselines.naive_mc import naive_monte_carlo
from repro.baselines.power_method import power_method_all_pairs
from repro.baselines.probesim import probesim
from repro.baselines.reads import ReadsIndex
from repro.baselines.sling import SlingIndex, exact_d_small_graph
from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.core.revreach import revreach_levels, revreach_queue
from repro.errors import GraphError, ParameterError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment
from repro.graph.io import read_edge_list, write_edge_list
from repro.rng import ensure_rng
from repro.walks.engine import BatchWalkStepper
from repro.walks.sqrt_c import sample_sqrt_c_walk


@pytest.fixture
def skewed_pair_graph() -> DiGraph:
    """``I(0) = {2 (w=3), 3 (w=1)}``, ``I(1) = {2 (w=1)}``:
    weighted sim(0, 1) = c · 3/4 (walks meet at 2 with probability 3/4)."""
    return DiGraph.from_edges(
        4,
        [(2, 0), (3, 0), (2, 1)],
        weights=[3.0, 1.0, 1.0],
    )


def random_weighted(num_nodes=60, seed=0):
    base = preferential_attachment(num_nodes, 3, directed=True, seed=seed)
    rng = ensure_rng(seed + 1)
    arcs = list(base.edges())
    weights = rng.uniform(0.5, 4.0, size=len(arcs))
    return DiGraph.from_edges(num_nodes, arcs, weights=weights)


class TestGraphLayer:
    def test_is_weighted_flag(self, skewed_pair_graph, paper_graph):
        assert skewed_pair_graph.is_weighted
        assert not paper_graph.is_weighted

    def test_edge_weight_lookup(self, skewed_pair_graph):
        assert skewed_pair_graph.edge_weight(2, 0) == 3.0
        assert skewed_pair_graph.edge_weight(3, 0) == 1.0

    def test_edge_weight_unweighted_is_one(self, paper_graph):
        assert paper_graph.edge_weight(1, 0) == 1.0

    def test_in_weight_totals(self, skewed_pair_graph):
        totals = skewed_pair_graph.in_weight_totals()
        assert totals[0] == 4.0
        assert totals[1] == 1.0
        assert totals[2] == 0.0

    def test_transition_matrix_weighted(self, skewed_pair_graph):
        matrix = skewed_pair_graph.reverse_transition_matrix().toarray()
        assert matrix[0, 2] == pytest.approx(0.75)
        assert matrix[0, 3] == pytest.approx(0.25)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 1)], weights=[0.0])
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 1)], weights=[-1.0])

    def test_subnormal_weight_rejected(self):
        # Alone on a node, 5e-324 overflows the tree's mass / W transition.
        with pytest.raises(GraphError):
            DiGraph.from_edges(2, [(0, 1)], weights=[5e-324])
        tiny = np.finfo(float).tiny
        graph = DiGraph.from_edges(2, [(0, 1)], weights=[tiny])
        assert graph.in_weight_totals()[1] == tiny

    def test_overflowing_in_weight_total_rejected(self):
        # Two 1e308 in-arcs overflow W(2) to inf, which would empty the level.
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(0, 2), (1, 2)], weights=[1e308, 1e308])
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1e308, 1e308])
        assert np.isfinite(graph.in_weight_totals()).all()

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0])

    def test_weights_access_on_unweighted_rejected(self, paper_graph):
        with pytest.raises(GraphError):
            _ = paper_graph.in_weights


class TestBuilder:
    def test_weighted_builder_round_trip(self):
        builder = GraphBuilder(directed=True, weighted=True)
        builder.add_edge("a", "b", 2.5)
        builder.add_weighted_edges([("c", "b", 0.5)])
        graph = builder.build()
        assert graph.is_weighted
        a, b, c = (builder.node_id(x) for x in "abc")
        assert graph.edge_weight(a, b) == 2.5
        assert graph.edge_weight(c, b) == 0.5

    def test_re_add_updates_weight(self):
        builder = GraphBuilder(weighted=True)
        builder.add_edge(0, 1, 1.0)
        builder.add_edge(0, 1, 7.0)
        assert builder.build().edge_weight(0, 1) == 7.0

    def test_undirected_weight_mirrored(self):
        builder = GraphBuilder(directed=False, weighted=True)
        builder.add_edge(0, 1, 3.0)
        graph = builder.build()
        assert graph.edge_weight(0, 1) == 3.0
        assert graph.edge_weight(1, 0) == 3.0

    def test_invalid_weight_rejected(self):
        builder = GraphBuilder(weighted=True)
        with pytest.raises(GraphError):
            builder.add_edge(0, 1, 0.0)

    def test_from_graph_preserves_weights(self, skewed_pair_graph):
        rebuilt = GraphBuilder.from_graph(skewed_pair_graph).build()
        assert rebuilt.is_weighted
        assert rebuilt.edge_weight(2, 0) == 3.0


class TestWalks:
    def test_scalar_walk_respects_weights(self, skewed_pair_graph, rng):
        picks = [
            sample_sqrt_c_walk(skewed_pair_graph, 0, 0.99, max_length=1, seed=rng)
            for _ in range(4000)
        ]
        steps = [path[1] for path in picks if len(path) > 1]
        fraction_heavy = steps.count(2) / len(steps)
        assert fraction_heavy == pytest.approx(0.75, abs=0.03)

    def test_batch_walk_respects_weights(self, skewed_pair_graph, rng):
        stepper = BatchWalkStepper(skewed_pair_graph, 0.99)
        starts = np.zeros(40000, dtype=np.int64)
        first = next(iter(stepper.walk(starts, 1, seed=rng)))
        fraction_heavy = float(np.mean(first.positions == 2))
        assert fraction_heavy == pytest.approx(0.75, abs=0.01)

    def test_batch_occupancy_matches_weighted_tree(self, rng):
        graph = random_weighted(20, seed=3)
        tree = revreach_levels(graph, 0, 2, 0.64)
        stepper = BatchWalkStepper(graph, 0.64)
        samples = 60000
        counts = np.zeros(graph.num_nodes)
        for batch in stepper.walk(
            np.zeros(samples, dtype=np.int64), 2, seed=rng
        ):
            if batch.step == 2:
                counts += np.bincount(batch.positions, minlength=graph.num_nodes)
        assert np.allclose(counts / samples, tree.matrix[2], atol=0.01)


class TestAlgorithmsAgree:
    def test_power_method_known_value(self, skewed_pair_graph):
        sim = power_method_all_pairs(skewed_pair_graph, 0.6)
        assert sim[0, 1] == pytest.approx(0.6 * 0.75, abs=1e-12)

    def test_crashsim_known_value(self, skewed_pair_graph):
        params = CrashSimParams(c=0.6, epsilon=0.05, n_r_override=5000)
        result = crashsim(skewed_pair_graph, 0, params=params, seed=1)
        assert result.score(1) == pytest.approx(0.45, abs=0.03)

    def test_probesim_known_value(self, skewed_pair_graph):
        scores = probesim(skewed_pair_graph, 0, n_r=5000, seed=2)
        assert scores[1] == pytest.approx(0.45, abs=0.03)

    def test_single_pair_known_value(self, skewed_pair_graph):
        value = single_pair(skewed_pair_graph, 0, 1, num_samples=20000, seed=3)
        assert value == pytest.approx(0.45, abs=0.02)

    def test_sling_exact_d_reproduces_weighted_simrank(self):
        graph = random_weighted(40, seed=5)
        truth = power_method_all_pairs(graph, 0.6)
        d = exact_d_small_graph(graph, 0.6, iterations=120)
        index = SlingIndex(graph, c=0.6, epsilon=0.001, d_values=d)
        scores = index.query(4)
        assert np.abs(truth[4] - scores).max() < 0.005

    def test_crashsim_matches_power_method_on_random_weighted(self):
        graph = random_weighted(80, seed=6)
        truth = power_method_all_pairs(graph, 0.6)
        params = CrashSimParams(c=0.6, epsilon=0.05, n_r_override=1500)
        result = crashsim(graph, 2, params=params, seed=7)
        estimate = np.zeros(graph.num_nodes)
        estimate[result.candidates] = result.scores
        estimate[2] = 1.0
        assert np.abs(truth[2] - estimate).max() < 0.06


class TestUnitWeightEquivalence:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_power_method_identical(self, seed):
        base = preferential_attachment(30, 2, directed=True, seed=seed % 1000)
        arcs = list(base.edges())
        weighted = DiGraph.from_edges(30, arcs, weights=[1.0] * len(arcs))
        assert np.allclose(
            power_method_all_pairs(base, 0.6),
            power_method_all_pairs(weighted, 0.6),
        )

    def test_revreach_identical(self, rng):
        base = preferential_attachment(30, 2, directed=True, seed=4)
        arcs = list(base.edges())
        weighted = DiGraph.from_edges(30, arcs, weights=[2.0] * len(arcs))
        # Uniform weights (any constant) give the uniform walk.
        for source in (0, 7):
            a = revreach_levels(base, source, 6, 0.6)
            b = revreach_levels(weighted, source, 6, 0.6)
            assert np.allclose(a.matrix, b.matrix)


class TestWeightedAxioms:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_weighted_simrank_symmetric_and_bounded(self, seed):
        graph = random_weighted(30, seed=seed % 200)
        sim = power_method_all_pairs(graph, 0.6, iterations=40)
        assert np.allclose(sim, sim.T)
        off_diagonal = sim[~np.eye(30, dtype=bool)]
        assert off_diagonal.min() >= 0.0
        assert off_diagonal.max() <= 0.6 + 1e-9

    def test_scaling_all_weights_is_invariant(self):
        """SimRank only sees weight *ratios*: scaling every weight by a
        constant must not change anything."""
        base = random_weighted(40, seed=3)
        arcs = list(base.edges())
        weights = [base.edge_weight(s, t) for s, t in arcs]
        scaled = DiGraph.from_edges(
            40, arcs, weights=[w * 7.5 for w in weights]
        )
        assert np.allclose(
            power_method_all_pairs(base, 0.6),
            power_method_all_pairs(scaled, 0.6),
        )


class TestUnsupportedCombinations:
    def test_paper_variant_rejected(self, skewed_pair_graph):
        with pytest.raises(ParameterError):
            revreach_levels(skewed_pair_graph, 0, 3, 0.6, variant="paper")
        with pytest.raises(ParameterError):
            revreach_queue(skewed_pair_graph, 0, 3, 0.6, variant="paper")

    def test_naive_mc_rejected(self, skewed_pair_graph):
        with pytest.raises(ParameterError):
            naive_monte_carlo(skewed_pair_graph, 0)

    def test_reads_rejected(self, skewed_pair_graph):
        with pytest.raises(ParameterError):
            ReadsIndex(skewed_pair_graph, r=5)


class TestWeightedIO:
    def test_round_trip(self, tmp_path, skewed_pair_graph):
        path = tmp_path / "weighted.txt"
        write_edge_list(skewed_pair_graph, path)
        loaded = read_edge_list(path, directed=True)
        assert loaded.is_weighted
        labels = {label: i for i, label in enumerate(loaded.node_labels)}
        assert loaded.edge_weight(labels["2"], labels["0"]) == 3.0

    def test_unweighted_files_stay_unweighted(self, tmp_path, paper_graph):
        path = tmp_path / "plain.txt"
        write_edge_list(paper_graph, path)
        assert not read_edge_list(path).is_weighted

    def test_bad_weight_column(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\t1\tnot-a-number\n")
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            read_edge_list(path)
