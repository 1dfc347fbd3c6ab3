"""End-to-end tests for CrashSim-T (Algorithm 3)."""

import numpy as np
import pytest

from repro.baselines.power_method import power_method_all_pairs
from repro.core.crashsim_t import crashsim_t
from repro.core.params import CrashSimParams
from repro.core.queries import ThresholdQuery, TrendQuery
from repro.datasets.example_graph import node_id
from repro.errors import ParameterError, QueryError
from repro.graph.generators import evolve_snapshots, preferential_attachment
from repro.graph.temporal import TemporalGraphBuilder

PARAMS = CrashSimParams(c=0.6, epsilon=0.1, n_r_override=600)


def exact_threshold_survivors(temporal, source, theta, c=0.6):
    """Brute-force oracle: Power Method per snapshot + predicate filter."""
    survivors = None
    for graph in temporal.snapshots():
        scores = power_method_all_pairs(graph, c)[source]
        passing = {
            node
            for node in range(temporal.num_nodes)
            if node != source and scores[node] > theta
        }
        survivors = passing if survivors is None else survivors & passing
    return survivors


class TestThresholdQueries:
    def test_matches_exact_oracle_on_small_temporal(self):
        base = preferential_attachment(40, 2, directed=True, seed=3)
        temporal = evolve_snapshots(base, 4, churn_rate=0.02, seed=4)
        source = 5
        theta = 0.08
        truth = exact_threshold_survivors(temporal, source, theta)
        result = crashsim_t(
            temporal, source, ThresholdQuery(theta=theta), params=PARAMS, seed=9
        )
        got = set(result.survivors)
        # Monte-Carlo boundaries wobble: demand strong overlap, not equality.
        union = truth | got
        if union:
            overlap = len(truth & got) / len(union)
            assert overlap >= 0.6, (truth, got)
        else:
            assert got == truth

    def test_identical_snapshots_reduce_to_static_filter(self):
        builder = TemporalGraphBuilder(3, directed=True)
        edges = [(2, 0), (2, 1)]
        for _ in range(4):
            builder.push_snapshot(edges)
        temporal = builder.build()
        # sim(0, 1) = 0.6 exactly; threshold 0.3 keeps node 1 only.
        result = crashsim_t(
            temporal, 0, ThresholdQuery(theta=0.3), params=PARAMS, seed=2
        )
        assert result.survivors == (1,)

    def test_impossible_threshold_empties_omega(self, paper_temporal):
        result = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.99), params=PARAMS, seed=1
        )
        assert result.survivors == ()
        # Early exit: snapshot 1 and 2 never evaluated once Ω is empty.
        assert result.stats.snapshots_processed == 1


class TestTrendQueries:
    def test_growing_similarity_detected(self):
        # Node 1 is rewired from its own in-neighbour to sharing the
        # source's: sim(0, 1) jumps from 0 to c.
        builder = TemporalGraphBuilder(5, directed=True)
        builder.push_snapshot([(2, 0), (3, 1)])
        builder.push_snapshot([(2, 0), (2, 1)])
        temporal = builder.build()
        result = crashsim_t(
            temporal,
            0,
            TrendQuery(direction="increasing", tolerance=0.02),
            params=PARAMS,
            seed=3,
        )
        assert 1 in result.survivors

    def test_decreasing_trend(self):
        # The reverse rewiring: sim(0, 1) drops from c to 0, so node 1
        # passes a decreasing trend and fails an increasing one.
        builder = TemporalGraphBuilder(5, directed=True)
        builder.push_snapshot([(2, 0), (2, 1)])
        builder.push_snapshot([(2, 0), (3, 1)])
        temporal = builder.build()
        decreasing = crashsim_t(
            temporal,
            0,
            TrendQuery(direction="decreasing", tolerance=0.02),
            params=PARAMS,
            seed=3,
        )
        assert 1 in decreasing.survivors
        increasing = crashsim_t(
            temporal,
            0,
            TrendQuery(direction="increasing", tolerance=0.02),
            params=PARAMS,
            seed=3,
        )
        assert 1 not in increasing.survivors


class TestPruningBehaviour:
    def test_identical_snapshot_carries_everything(self):
        builder = TemporalGraphBuilder(6, directed=True)
        # sim(0, 1) = c/2 · (1 + sim(2, 3)) > 0 keeps node 1 in Ω.
        base = [(2, 0), (2, 1), (3, 1), (4, 3)]
        builder.push_snapshot(base)
        builder.push_snapshot(base)
        temporal = builder.build()
        result = crashsim_t(
            temporal,
            0,
            ThresholdQuery(theta=0.0),
            params=PARAMS,
            seed=5,
        )
        stats = result.stats
        assert stats.source_tree_stable >= 1
        assert stats.delta_pruning_applied >= 1
        # Snapshot 2's candidates were all carried, none recomputed.
        assert stats.candidates_carried >= 1
        # Carried scores equal the previous snapshot's scores exactly.
        assert result.history[1] == {
            node: score
            for node, score in result.history[0].items()
            if node in result.history[1]
        }

    def test_remote_change_prunes_unaffected_candidates(self):
        builder = TemporalGraphBuilder(8, directed=True)
        # Source 0 has positive similarity to node 1; the change (7, 6)
        # lands in a disconnected component, far from Ω's reverse balls.
        base = [(2, 0), (2, 1), (3, 1), (4, 3), (5, 6)]
        builder.push_snapshot(base)
        builder.push_snapshot(base + [(7, 6)])
        temporal = builder.build()
        result = crashsim_t(
            temporal,
            0,
            ThresholdQuery(theta=0.0),
            params=PARAMS,
            seed=5,
        )
        stats = result.stats
        assert stats.source_tree_stable == 1
        assert stats.candidates_carried > 0

    def test_pruned_and_unpruned_agree_on_identical_snapshots(self):
        builder = TemporalGraphBuilder(6, directed=True)
        base = [(2, 0), (2, 1), (3, 1), (4, 3)]
        for _ in range(3):
            builder.push_snapshot(base)
        temporal = builder.build()
        kwargs = dict(params=PARAMS, seed=11)
        pruned = crashsim_t(
            temporal, 0, ThresholdQuery(theta=0.2), **kwargs
        )
        unpruned = crashsim_t(
            temporal,
            0,
            ThresholdQuery(theta=0.2),
            use_delta_pruning=False,
            use_difference_pruning=False,
            **kwargs,
        )
        # With static snapshots the threshold verdicts must coincide (the
        # estimator is well away from the boundary for this graph).
        assert pruned.survivors == unpruned.survivors


class TestInterface:
    def test_interval_subset(self, paper_temporal):
        result = crashsim_t(
            paper_temporal,
            0,
            ThresholdQuery(theta=0.0),
            interval=(1, 3),
            params=PARAMS,
            seed=1,
        )
        assert result.interval == (1, 3)
        assert len(result.history) <= 2

    def test_invalid_interval(self, paper_temporal):
        with pytest.raises(QueryError):
            crashsim_t(
                paper_temporal,
                0,
                ThresholdQuery(theta=0.1),
                interval=(2, 2),
                params=PARAMS,
            )
        with pytest.raises(QueryError):
            crashsim_t(
                paper_temporal,
                0,
                ThresholdQuery(theta=0.1),
                interval=(0, 99),
                params=PARAMS,
            )

    def test_invalid_source(self, paper_temporal):
        with pytest.raises(ParameterError):
            crashsim_t(paper_temporal, 99, ThresholdQuery(theta=0.1), params=PARAMS)

    def test_history_covers_processed_snapshots(self, paper_temporal):
        result = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.0), params=PARAMS, seed=4
        )
        assert len(result.history) == result.stats.snapshots_processed

    def test_survivor_set_property(self, paper_temporal):
        result = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.0), params=PARAMS, seed=4
        )
        assert result.survivor_set == set(result.survivors)

    def test_repeat_run_identical(self, paper_temporal):
        query = TrendQuery("increasing")
        one = crashsim_t(paper_temporal, 1, query, params=PARAMS, seed=3)
        two = crashsim_t(paper_temporal, 1, query, params=PARAMS, seed=3)
        assert one.survivors == two.survivors
        assert one.history == two.history
        assert one.stats.as_dict() == two.stats.as_dict()

    def test_omega_only_shrinks(self, paper_temporal):
        result = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.005), params=PARAMS, seed=1
        )
        alive = [set(snapshot) for snapshot in result.history]
        # history[0] holds all candidates; Ω entering later snapshots only
        # ever loses members.
        for earlier, later in zip(alive[1:], alive[2:]):
            assert later <= earlier
        assert set(result.survivors) <= alive[-1]

    def test_history_first_snapshot_covers_all_candidates(self, paper_temporal):
        result = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.0), params=PARAMS, seed=1
        )
        assert len(result.history[0]) == paper_temporal.num_nodes - 1

    def test_threshold_query_filters(self, paper_temporal):
        strict = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.9), params=PARAMS, seed=2
        )
        lax = crashsim_t(
            paper_temporal, 0, ThresholdQuery(theta=0.0), params=PARAMS, seed=2
        )
        assert len(strict.survivors) <= len(lax.survivors)
