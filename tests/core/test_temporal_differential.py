"""Differential tests: the three ways into CrashSim-T's transition agree.

``crashsim_t`` over a stored temporal graph, a session fed every snapshot
in full (``push_snapshot``, which diffs the graphs) and a session fed the
deltas (``push_delta``) must select the same survivors, land on the same
history bits and count the same pruning stats — for every combination of
the two pruning switches, on directed and undirected graphs, and for
intervals that start after snapshot 0.  Weighted snapshot chains have no
stored temporal form, so there the two session streams are compared.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crashsim_t import crashsim_t
from repro.core.params import CrashSimParams
from repro.core.queries import ThresholdQuery, TrendQuery
from repro.core.streaming import TemporalQuerySession
from repro.graph.digraph import DiGraph
from repro.graph.temporal import TemporalGraphBuilder

FLAGS = [(True, True), (True, False), (False, True), (False, False)]
FLAG_IDS = ["both", "delta-only", "difference-only", "unpruned"]


def to_hex(history):
    return [{node: float.hex(score) for node, score in snap.items()} for snap in history]


def replay(make, first, pushes):
    """Start a session on ``first``, then apply ``pushes`` while Ω lives."""
    session = make()
    session.push_snapshot(first)
    history = [dict(session._scores)]
    for push in pushes:
        if not session.survivors:
            break
        push(session)
        history.append(dict(session._scores))
    return session.survivors, to_hex(history), session.stats.as_dict()


def outcome(result):
    return result.survivors, to_hex(result.history), result.stats.as_dict()


@st.composite
def temporal_case(draw):
    n = draw(st.integers(2, 10))
    directed = draw(st.booleans())
    node = st.integers(0, n - 1)

    def canonical(s, t):
        return (s, t) if directed or s < t else (t, s)

    pairs = draw(st.lists(st.tuples(node, node), min_size=n, max_size=20))
    edges = {canonical(s, t) for s, t in pairs if s != t}
    everything = sorted(
        {canonical(s, t) for s in range(n) for t in range(n) if s != t}
    )
    horizon = draw(st.integers(3, 5))
    current, deltas = set(edges), []
    for _ in range(horizon - 1):
        present, absent = sorted(current), sorted(set(everything) - current)
        removed = (
            draw(st.lists(st.sampled_from(present), max_size=2, unique=True))
            if present
            else []
        )
        added = (
            draw(st.lists(st.sampled_from(absent), max_size=2, unique=True))
            if absent
            else []
        )
        current = (current - set(removed)) | set(added)
        if not directed:  # push_delta must accept either orientation
            flip = draw(st.booleans())
            added = [(t, s) if flip else (s, t) for s, t in added]
        deltas.append((added, removed))
    start = draw(st.integers(0, horizon - 2))
    stop = draw(st.integers(start + 2, horizon))
    return n, directed, sorted(edges), deltas, (start, stop), draw(node)


QUERY = st.one_of(
    st.sampled_from([0.0, 0.02, 0.1]).map(lambda theta: ThresholdQuery(theta)),
    st.sampled_from([0.0, 0.05]).map(lambda tol: TrendQuery(tolerance=tol)),
)
PARAMS = st.sampled_from([4, 16, 64]).map(lambda n_r: CrashSimParams(n_r_override=n_r))


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
@settings(max_examples=60, deadline=None)
@given(case=temporal_case(), query=QUERY, params=PARAMS, seed=st.integers(0, 99))
def test_batch_snapshot_and_delta_streams_agree(flags, case, query, params, seed):
    n, directed, edges, deltas, interval, source = case
    delta_pruning, difference_pruning = flags
    builder = TemporalGraphBuilder(n, directed=directed)
    builder.push_snapshot(edges)
    for added, removed in deltas:
        builder.push_delta(added, removed)
    temporal = builder.build()
    batch = crashsim_t(
        temporal,
        source,
        query,
        interval=interval,
        params=params,
        use_delta_pruning=delta_pruning,
        use_difference_pruning=difference_pruning,
        seed=seed,
    )

    def make():
        return TemporalQuerySession(
            source,
            query,
            params=params,
            use_delta_pruning=delta_pruning,
            use_difference_pruning=difference_pruning,
            seed=seed,
        )

    start, stop = interval
    first = temporal.snapshot(start)
    by_snapshot = replay(
        make,
        first,
        [
            lambda s, i=i: s.push_snapshot(temporal.snapshot(i))
            for i in range(start + 1, stop)
        ],
    )
    by_delta = replay(
        make,
        first,
        [lambda s, d=deltas[i - 1]: s.push_delta(*d) for i in range(start + 1, stop)],
    )
    assert by_snapshot == outcome(batch)
    assert by_delta == outcome(batch)


@pytest.mark.parametrize("flags", FLAGS, ids=FLAG_IDS)
@settings(max_examples=30, deadline=None)
@given(case=temporal_case(), query=QUERY, params=PARAMS, seed=st.integers(0, 99))
def test_weighted_snapshot_and_delta_streams_agree(flags, case, query, params, seed):
    n, directed, edges, deltas, _, source = case
    delta_pruning, difference_pruning = flags
    weights = [0.5 + (s * 7 + t * 3) % 4 for s, t in edges]
    graphs = [DiGraph.from_edges(n, edges, directed=directed, weights=weights)]
    for added, removed in deltas:
        graphs.append(graphs[-1].with_delta(added, removed))

    def make():
        return TemporalQuerySession(
            source,
            query,
            params=params,
            use_delta_pruning=delta_pruning,
            use_difference_pruning=difference_pruning,
            seed=seed,
        )

    by_snapshot = replay(
        make, graphs[0], [lambda s, g=g: s.push_snapshot(g) for g in graphs[1:]]
    )
    by_delta = replay(
        make, graphs[0], [lambda s, d=d: s.push_delta(*d) for d in deltas]
    )
    assert by_delta == by_snapshot


def test_undirected_delta_counted_once():
    """Swapping one undirected edge for another is |Δ| = 2, not 4.

    Counted per arc, the session's |Δ| doubled and missed the delta-pruning
    trigger ``|Δ| < |Ω| · n_r / |E(Ω)|`` (here 2 < 2.5) that the batch
    driver takes, so it recomputed candidates the batch driver carries.
    An added self-loop, which the snapshot drops, must not count either.
    """
    component_a = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 2)]
    builder = TemporalGraphBuilder(10, directed=False)
    builder.push_snapshot(component_a + [(6, 7), (7, 8)])
    builder.push_snapshot(component_a + [(6, 7), (8, 9)])
    temporal = builder.build()
    query = ThresholdQuery(theta=0.0)
    params = CrashSimParams(n_r_override=5)
    batch = crashsim_t(temporal, 0, query, params=params, seed=5)
    assert batch.stats.delta_pruning_applied == 1
    assert batch.stats.candidates_carried == 5

    pushes = {
        "snapshot": lambda s: s.push_snapshot(temporal.snapshot(1)),
        "delta": lambda s: s.push_delta(added=[(9, 8)], removed=[(8, 7)]),
        "delta with a self-loop": lambda s: s.push_delta(
            added=[(9, 8), (9, 9)], removed=[(8, 7)]
        ),
    }
    for name, push in pushes.items():
        session = TemporalQuerySession(0, query, params=params, seed=5)
        session.push_snapshot(temporal.snapshot(0))
        push(session)
        assert to_hex([session._scores]) == to_hex(batch.history[-1:]), name
        assert session.stats.as_dict() == batch.stats.as_dict(), name
