"""Tests for the streaming temporal query session."""

import numpy as np
import pytest

from repro import faults
from repro.core.crashsim import crashsim
from repro.core.crashsim_t import crashsim_t
from repro.core.params import CrashSimParams
from repro.core.queries import CompositeQuery, ThresholdQuery, TrendQuery
from repro.core.streaming import TemporalQuerySession
from repro.errors import EdgeNotFoundError, ParameterError, TemporalError
from repro.faults import InjectedFault
from repro.graph.digraph import DiGraph
from repro.graph.generators import evolve_snapshots, preferential_attachment

PARAMS = CrashSimParams(c=0.6, epsilon=0.1, n_r_override=400)


def pair_snapshots():
    first = DiGraph.from_edges(4, [(2, 0), (2, 1)])
    second = DiGraph.from_edges(4, [(2, 0), (3, 1)])
    return first, second


class TestStreamingBasics:
    def test_matches_batch_driver(self):
        """Streaming the same snapshots must select the same survivors as
        the batch crashsim_t run with the same seed."""
        base = preferential_attachment(40, 2, directed=True, seed=1)
        temporal = evolve_snapshots(base, 4, churn_rate=0.02, seed=2)
        query = ThresholdQuery(theta=0.02)
        batch = crashsim_t(temporal, 3, query, params=PARAMS, seed=5)

        session = TemporalQuerySession(3, query, params=PARAMS, seed=5)
        for graph in temporal.snapshots():
            session.push_snapshot(graph)
        assert session.survivors == batch.survivors
        assert session.snapshots_seen == temporal.num_snapshots
        assert session.stats.as_dict() == batch.stats.as_dict()

    def test_threshold_drop_detected(self):
        first, second = pair_snapshots()
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.3), params=PARAMS, seed=1
        )
        assert session.push_snapshot(first) == (1,)
        assert session.push_snapshot(second) == ()

    def test_push_delta_equivalent_to_full_snapshot(self):
        first, second = pair_snapshots()
        by_snapshot = TemporalQuerySession(
            0, ThresholdQuery(theta=0.3), params=PARAMS, seed=9
        )
        by_snapshot.push_snapshot(first)
        by_snapshot.push_snapshot(second)

        by_delta = TemporalQuerySession(
            0, ThresholdQuery(theta=0.3), params=PARAMS, seed=9
        )
        by_delta.push_snapshot(first)
        by_delta.push_delta(added=[(3, 1)], removed=[(2, 1)])
        assert by_delta.survivors == by_snapshot.survivors

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_push_delta_matches_push_snapshot_on_labelled_graph(self, directed):
        base = preferential_attachment(30, 2, directed=directed, seed=6)
        labels = [f"user-{v}" for v in range(base.num_nodes)]
        edges = sorted(base.edges())
        if not directed:
            edges = [(s, t) for s, t in edges if s < t]
        first = DiGraph.from_edges(
            base.num_nodes, edges, directed=directed, node_labels=labels
        )
        removed = edges[::7]
        added = [(s, t) for s in (4, 9) for t in (17, 23) if (s, t) not in edges]
        kept = [edge for edge in edges if edge not in removed]
        second = DiGraph.from_edges(
            base.num_nodes, kept + added, directed=directed, node_labels=labels
        )

        def started():
            session = TemporalQuerySession(
                2, ThresholdQuery(theta=0.01), params=PARAMS, seed=11
            )
            session.push_snapshot(first)
            return session

        by_delta, by_snapshot = started(), started()
        assert by_delta.push_delta(added, removed) == by_snapshot.push_snapshot(
            second
        )
        assert by_delta.scores == by_snapshot.scores
        assert by_delta._graph.same_structure(second)
        assert by_delta._graph.node_labels == tuple(labels)

    def test_scores_exposed(self):
        first, _ = pair_snapshots()
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.3), params=PARAMS, seed=2
        )
        session.push_snapshot(first)
        scores = session.scores
        assert set(scores) == {1}
        assert scores[1] == pytest.approx(0.6, abs=0.08)

    def test_composite_query(self):
        first, second = pair_snapshots()
        query = CompositeQuery(
            (ThresholdQuery(theta=0.3), TrendQuery(tolerance=0.05)),
            mode="all",
        )
        session = TemporalQuerySession(0, query, params=PARAMS, seed=3)
        session.push_snapshot(first)
        assert 1 in session.survivors
        session.push_snapshot(second)  # similarity collapses to 0
        assert session.survivors == ()

    def test_push_after_omega_empties_is_not_a_transition(self):
        first, second = pair_snapshots()
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.9), params=PARAMS, seed=1
        )
        assert session.push_snapshot(first) == ()
        before = session.stats.as_dict()
        assert before["snapshots_processed"] == 1
        session.push_snapshot(second)
        assert session.snapshots_seen == 2
        assert session.stats.as_dict() == before

    def test_constant_state_across_long_stream(self):
        base = preferential_attachment(30, 2, directed=True, seed=4)
        session = TemporalQuerySession(
            2, ThresholdQuery(theta=0.0), params=PARAMS, seed=4
        )
        for _ in range(12):
            session.push_snapshot(base)  # identical snapshots
        assert session.snapshots_seen == 12
        # Carried forward, never recomputed: scores are stable objects.
        assert len(session.scores) == len(session.survivors)


class TestWeightOnlySnapshots:
    """A snapshot whose arcs stay but whose weights move is a real change.

    Nodes 0 and 1 share in-neighbours 2 and 3.  Moving the weights from
    1,1,1,1 to 100,1,100,1 takes the directed s(0, 1) from 0.3 to about
    0.59; the session must re-estimate the pair rather than carry 0.3
    forward.
    """

    ARCS = [(2, 0), (3, 0), (2, 1), (3, 1)]

    def graphs(self, directed):
        return [
            DiGraph.from_edges(4, self.ARCS, directed=directed, weights=weights)
            for weights in ([1.0, 1.0, 1.0, 1.0], [100.0, 1.0, 100.0, 1.0])
        ]

    @pytest.mark.parametrize("directed", [True, False])
    def test_reweighted_pair_is_recomputed(self, directed):
        params = CrashSimParams(c=0.6, n_r_override=2000)
        old, new = self.graphs(directed)
        # Reference: a fresh CrashSim run on each snapshot (another seed).
        fresh_old, fresh_new = (
            crashsim(graph, 0, params=params, seed=11).as_dict()[1]
            for graph in (old, new)
        )
        assert fresh_new - fresh_old > 0.2
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.01), params=params, seed=3
        )
        session.push_snapshot(old)
        assert session.scores[1] == pytest.approx(fresh_old, abs=0.05)
        session.push_snapshot(new)
        assert session.scores[1] == pytest.approx(fresh_new, abs=0.05)
        assert session.stats.candidates_carried == 0

    def test_unchanged_weights_still_carry(self):
        old, _ = self.graphs(True)
        same = DiGraph.from_edges(4, self.ARCS, weights=[1.0, 1.0, 1.0, 1.0])
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.01), params=PARAMS, seed=3
        )
        session.push_snapshot(old)
        before = session.scores
        recomputed = session.stats.candidates_recomputed
        session.push_snapshot(same)
        assert session.scores == before
        assert session.stats.delta_pruning_applied == 1
        assert session.stats.candidates_carried == len(before)
        assert session.stats.candidates_recomputed == recomputed


class TestOverlappingDeltas:
    """``push_delta`` sees the delta ``push_snapshot`` would see.

    A caller's delta may touch an arc without changing it: removed and
    re-added in one push, or re-added while present.  Counting such arcs
    as added or removed inflates ``num_changed`` and the changed set, and
    with them the delta-pruning decision.
    """

    @staticmethod
    def base(directed, weighted):
        graph = preferential_attachment(40, 2, directed=directed, seed=1)
        edges = sorted(graph.edges())
        if not directed:
            edges = [(s, t) for s, t in edges if s < t]
        weights = [1.0 + 2.0 * (i % 2) for i in range(len(edges))] if weighted else None
        return DiGraph.from_edges(40, edges, directed=directed, weights=weights), edges

    @staticmethod
    def recorded(monkeypatch):
        deltas = []
        advance = TemporalQuerySession._advance

        def spy(self, graph, delta):
            deltas.append(delta)
            return advance(self, graph, delta)

        monkeypatch.setattr(TemporalQuerySession, "_advance", spy)
        return deltas

    def both_ways(self, monkeypatch, first, added, removed):
        deltas = self.recorded(monkeypatch)
        sessions = []
        for by_delta in (True, False):
            session = TemporalQuerySession(
                3, ThresholdQuery(theta=0.01), params=PARAMS, seed=4
            )
            session.push_snapshot(first)
            if by_delta:
                session.push_delta(added, removed)
            else:
                session.push_snapshot(first.with_delta(added, removed))
            sessions.append(session)
        by_delta, by_snapshot = sessions
        assert deltas[0] == deltas[1]
        assert by_delta.stats.as_dict() == by_snapshot.stats.as_dict()
        assert by_delta.survivors == by_snapshot.survivors
        assert by_delta.scores == by_snapshot.scores
        return deltas[0]

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_removed_and_readded_arc_is_unchanged(self, monkeypatch, directed):
        first, edges = self.base(directed, weighted=False)
        same = edges[5]
        new = next(
            (s, t) for s in range(40) for t in range(40)
            if s != t and not first.has_edge(s, t)
        )
        delta = self.both_ways(monkeypatch, first, [same, new], [same, edges[9]])
        assert delta.num_changed == 2
        assert same not in delta.changed

    def test_readding_a_present_arc_adds_nothing(self, monkeypatch):
        first, edges = self.base(True, weighted=False)
        delta = self.both_ways(monkeypatch, first, [edges[2], edges[7]], [])
        assert delta.is_empty()
        assert delta.num_changed == 0

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_weighted_overlap_is_reweighted_or_nothing(self, monkeypatch, directed):
        first, edges = self.base(directed, weighted=True)
        heavy = [edge for i, edge in enumerate(edges) if i % 2]
        light = [edge for i, edge in enumerate(edges) if not i % 2]
        # Re-adding sets the weight to 1.0: a heavy arc is reweighted, a
        # light one unchanged, whether or not it is removed first.
        added = [heavy[0], heavy[1], light[0], light[1]]
        removed = [heavy[0], light[0], heavy[4]]
        delta = self.both_ways(monkeypatch, first, added, removed)
        assert delta.reweighted == {heavy[0], heavy[1]}
        assert delta.removed == {heavy[4]}
        assert not delta.added
        assert delta.num_changed == 3


class TestStreamingValidation:
    def test_delta_before_start_rejected(self):
        session = TemporalQuerySession(0, ThresholdQuery(theta=0.1))
        with pytest.raises(TemporalError):
            session.push_delta(added=[(0, 1)])

    def test_node_count_change_rejected(self):
        first, _ = pair_snapshots()
        session = TemporalQuerySession(
            0, ThresholdQuery(theta=0.1), params=PARAMS
        )
        session.push_snapshot(first)
        with pytest.raises(TemporalError):
            session.push_snapshot(DiGraph.from_edges(9, [(0, 1)]))

    def test_bad_source(self):
        first, _ = pair_snapshots()
        session = TemporalQuerySession(
            99, ThresholdQuery(theta=0.1), params=PARAMS
        )
        with pytest.raises(ParameterError):
            session.push_snapshot(first)

    @pytest.mark.parametrize(
        "added, removed",
        [([(3, 4)], []), ([(-1, 1)], []), ([], [(2, 4)]), ([], [(-1, 0)])],
        ids=["added-id-n", "added-id-minus-1", "removed-id-n", "removed-id-minus-1"],
    )
    def test_out_of_range_delta_rejected_untouched(self, added, removed):
        first, _ = pair_snapshots()

        def started():
            session = TemporalQuerySession(
                0, ThresholdQuery(theta=0.3), params=PARAMS, seed=9
            )
            session.push_snapshot(first)
            return session

        session = started()
        survivors, scores = session.survivors, session.scores
        with pytest.raises(ParameterError):
            session.push_delta(added=added, removed=removed)
        assert session.survivors == survivors
        assert session.scores == scores
        assert session.snapshots_seen == 1
        # The rejected push left no trace: the next delta lands as if it
        # were the session's first.
        untouched = started()
        assert session.push_delta(added=[(3, 1)]) == untouched.push_delta(
            added=[(3, 1)]
        )
        assert session.scores == untouched.scores

    @pytest.mark.parametrize(
        "removed",
        [[(0, 3)], [(2, 2)], [(2, 0), (2, 0)]],
        ids=["absent", "self-loop", "removed-twice"],
    )
    def test_absent_removal_rejected_untouched(self, removed):
        first, _ = pair_snapshots()

        def started():
            session = TemporalQuerySession(
                0, ThresholdQuery(theta=0.3), params=PARAMS, seed=9
            )
            session.push_snapshot(first)
            return session

        session = started()
        survivors, scores = session.survivors, session.scores
        with pytest.raises(EdgeNotFoundError):
            session.push_delta(added=[(3, 1)], removed=removed)
        assert session.survivors == survivors
        assert session.scores == scores
        assert session.snapshots_seen == 1
        untouched = started()
        assert session.push_delta(added=[(3, 1)]) == untouched.push_delta(
            added=[(3, 1)]
        )
        assert session.scores == untouched.scores

    def test_survivors_empty_before_start(self):
        session = TemporalQuerySession(0, ThresholdQuery(theta=0.1))
        assert session.survivors == ()
        assert not session.started


class TestSessionContract:
    """What a caller reads off a session: types, sharing, rollback."""

    @staticmethod
    def shrinking_stream():
        """An undirected graph, then the same graph less a third of its
        edges: at θ = 0.01 the second snapshot drops some survivors."""
        base = preferential_attachment(40, 2, directed=False, seed=1)
        edges = sorted(base.edges())
        thinner = base.with_delta(removed=[e for e in edges[::3] if e[0] < e[1]])
        return base, thinner

    @staticmethod
    def session():
        return TemporalQuerySession(
            3, ThresholdQuery(theta=0.01), params=PARAMS, seed=5
        )

    def test_survivors_and_scores_are_plain_python(self):
        base, thinner = self.shrinking_stream()
        session = self.session()
        for graph in (base, thinner):
            survivors = session.push_snapshot(graph)
            assert survivors == session.survivors
            assert type(survivors) is tuple
            assert all(type(node) is int for node in survivors)
            assert list(survivors) == sorted(set(survivors))
            scores = session.scores
            assert type(scores) is dict
            assert sorted(scores) == list(survivors)
            assert all(type(node) is int for node in scores)
            assert all(type(score) is float for score in scores.values())

    def test_same_tuple_while_omega_unchanged(self):
        base, thinner = self.shrinking_stream()
        session = self.session()
        first = session.push_snapshot(base)
        assert session.push_snapshot(base) is first
        assert session.push_delta() is first
        assert session.survivors is first
        shrunk = session.push_snapshot(thinner)
        assert 0 < len(shrunk) < len(first)
        assert shrunk is not first
        assert session.survivors is shrunk

    def test_history_zero_is_crashsim_bit_for_bit(self):
        base = preferential_attachment(30, 2, directed=True, seed=6)
        temporal = evolve_snapshots(base, 3, churn_rate=0.05, seed=2)
        result = crashsim_t(
            temporal, 4, ThresholdQuery(theta=0.02), params=PARAMS, seed=13
        )
        first = crashsim(temporal.snapshot(0), 4, params=PARAMS, seed=13)
        history = result.history[0]
        assert len(history) == temporal.num_nodes - 1
        as_hex = {node: float.hex(score) for node, score in history.items()}
        assert as_hex == {
            node: float.hex(score) for node, score in first.as_dict().items()
        }

    def test_rollback_restores_survivors_scores_and_rng(self):
        base, thinner = self.shrinking_stream()
        session = self.session()
        session.push_snapshot(base)
        survivors, scores = session.survivors, session.scores
        rng_state = session._rng.bit_generator.state
        with faults.active({"advance": {"2": {"kind": "raise"}}}):
            with pytest.raises(InjectedFault):
                session.push_snapshot(thinner)
        assert session.survivors == survivors
        assert session.scores == scores
        assert session._rng.bit_generator.state == rng_state
        assert session.snapshots_seen == 1
