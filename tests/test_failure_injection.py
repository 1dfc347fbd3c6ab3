"""Failure injection: degenerate inputs and chaos every layer must survive.

DESIGN.md §6 commits to: empty graphs, dead-end nodes, isolated sources,
single-snapshot intervals, Ω = ∅, and deltas touching missing nodes.

The chaos suite (``TestChaos*``) exercises the resilience layer of
docs/internals.md §9 with :mod:`repro.faults`: worker processes killed
mid-query, shards stalled past a deadline, in-shard exceptions, and
mid-push failures in the streaming session — asserting recovery is
bit-exact, degradation is honestly labelled, and the inverted Lemma-3
``achieved_epsilon`` empirically bounds the error against the Power
Method ground truth.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro import faults
from repro.api import single_source
from repro.baselines.power_method import power_method_all_pairs
from repro.baselines.probesim import probesim
from repro.baselines.reads import ReadsIndex
from repro.baselines.sling import SlingIndex
from repro.core.crashsim import crashsim
from repro.core.crashsim_t import crashsim_t
from repro.core.params import CrashSimParams
from repro.core.queries import ThresholdQuery, TrendQuery
from repro.core.revreach import revreach_levels
from repro.core.streaming import TemporalQuerySession
from repro.errors import (
    DeadlineExceededError,
    DegradedResultWarning,
    TemporalError,
)
from repro.faults import InjectedFault
from repro.graph.digraph import DiGraph
from repro.graph.generators import evolve_snapshots, preferential_attachment
from repro.graph.temporal import EdgeDelta, TemporalGraphBuilder
from repro.parallel import ParallelExecutor, parallel_crashsim

PARAMS = CrashSimParams(c=0.6, epsilon=0.1, n_r_override=20)


@pytest.fixture
def edgeless_graph():
    return DiGraph.from_edges(4, [])


class TestEdgelessGraph:
    def test_crashsim_all_zero(self, edgeless_graph):
        result = crashsim(edgeless_graph, 0, params=PARAMS, seed=1)
        assert np.all(result.scores == 0.0)

    def test_power_method_identity(self, edgeless_graph):
        sim = power_method_all_pairs(edgeless_graph, 0.6)
        assert np.array_equal(sim, np.eye(4))

    def test_probesim_all_zero(self, edgeless_graph):
        scores = probesim(edgeless_graph, 0, n_r=10, seed=2)
        assert scores[0] == 1.0
        assert np.all(scores[1:] == 0.0)

    def test_sling_index_and_query(self, edgeless_graph):
        index = SlingIndex(edgeless_graph, num_d_samples=5, seed=3)
        scores = index.query(0)
        assert scores[0] == 1.0
        assert np.all(scores[1:] == 0.0)

    def test_reads_index_and_query(self, edgeless_graph):
        index = ReadsIndex(edgeless_graph, r=5, seed=4)
        scores = index.query(0)
        assert np.all(scores[1:] == 0.0)

    def test_revreach_root_only(self, edgeless_graph):
        tree = revreach_levels(edgeless_graph, 2, 5, 0.6)
        assert tree.total_mass(0) == 1.0
        assert tree.matrix[1:].sum() == 0.0

    @pytest.mark.parametrize(
        "method", ["crashsim", "probesim", "naive-mc", "exact"]
    )
    def test_facade_methods(self, edgeless_graph, method):
        scores = single_source(edgeless_graph, 1, method=method, n_r=10, seed=5)
        assert scores[1] == 1.0


class TestIsolatedSource:
    def test_crashsim_isolated_source(self, dangling_graph):
        # Node 0 has no in-neighbours: sim(0, v) = 0 for every v.
        result = crashsim(dangling_graph, 0, params=PARAMS, seed=1)
        assert np.all(result.scores == 0.0)

    def test_temporal_query_isolated_source(self):
        builder = TemporalGraphBuilder(4, directed=True)
        builder.push_snapshot([(1, 2)])
        builder.push_snapshot([(1, 3)])
        temporal = builder.build()
        result = crashsim_t(
            temporal, 0, ThresholdQuery(theta=0.01), params=PARAMS, seed=2
        )
        assert result.survivors == ()


class TestSingleSnapshotInterval:
    def test_threshold_over_one_snapshot(self, paper_temporal):
        result = crashsim_t(
            paper_temporal,
            0,
            ThresholdQuery(theta=0.0),
            interval=(0, 1),
            params=CrashSimParams(c=0.6, epsilon=0.1, n_r_override=300),
            seed=3,
        )
        assert result.stats.snapshots_processed == 1
        assert len(result.history) == 1

    def test_trend_over_one_snapshot_keeps_everyone(self, paper_temporal):
        result = crashsim_t(
            paper_temporal,
            0,
            TrendQuery(),
            interval=(1, 2),
            params=PARAMS,
            seed=4,
        )
        # A trend needs two observations; one snapshot filters nothing.
        assert len(result.survivors) == paper_temporal.num_nodes - 1


class TestDegenerateCandidates:
    def test_empty_omega(self, paper_graph):
        result = crashsim(paper_graph, 0, candidates=[], params=PARAMS)
        assert result.scores.size == 0
        assert result.top_k(3) == []

    def test_omega_of_only_dangling_nodes(self, dangling_graph):
        result = crashsim(
            dangling_graph, 1, candidates=[0, 2, 3], params=PARAMS, seed=5
        )
        assert np.all(result.scores == 0.0)

    def test_omega_of_only_the_source(self, paper_graph):
        result = crashsim(paper_graph, 4, candidates=[4], params=PARAMS)
        assert result.score(4) == 1.0


class TestBadDeltas:
    def test_delta_removing_missing_edge_rejected(self):
        delta = EdgeDelta(added=frozenset(), removed=frozenset({(0, 1)}))
        with pytest.raises(TemporalError):
            delta.apply(set())

    def test_builder_rejects_out_of_range_delta(self):
        builder = TemporalGraphBuilder(3)
        builder.push_snapshot([(0, 1)])
        with pytest.raises(TemporalError):
            builder.push_delta(added=[(0, 7)])

    def test_reads_delta_on_nodes_without_edges(self):
        # Applying a delta whose head had no in-edges before must not crash.
        graph = DiGraph.from_edges(3, [])
        index = ReadsIndex(graph, r=5, seed=6)
        new_graph = DiGraph.from_edges(3, [(0, 2)])
        index.apply_delta(new_graph, added=[(0, 2)])
        assert np.all(np.isin(index.pointers[:, 2], [0]))


class TestSingleNodeGraph:
    def test_crashsim(self):
        graph = DiGraph.from_edges(1, [])
        result = crashsim(graph, 0, params=PARAMS)
        assert result.candidates.size == 0

    def test_power_method(self):
        sim = power_method_all_pairs(DiGraph.from_edges(1, []), 0.6)
        assert sim.tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# Chaos suite: injected crashes, stalls, and deadlines (docs/internals.md §9)
# ---------------------------------------------------------------------------

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "seed_behaviour.json"
PARAMS64 = CrashSimParams(n_r_override=64)
# The chaos plans name shard indices from the legacy 16-shard layout (4
# trials per shard), so every sharded run below pins shards=16 explicitly —
# the autotuned plan would collapse this small query to a single shard.


def to_hex(values):
    return [float.hex(float(v)) for v in values]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def chaos_graph():
    # Same graph + params + seed as tests/test_seed_behaviour.py, so the
    # pinned fixture bits double as the "undisturbed run" reference here.
    return preferential_attachment(120, 3, directed=True, seed=5)


@pytest.fixture(scope="module")
def ground_truth(chaos_graph):
    return power_method_all_pairs(chaos_graph, PARAMS64.c)[0]


@pytest.fixture(scope="module")
def pool_available():
    probe = ParallelExecutor(2)
    serial = probe.serial
    probe.close()
    if serial:
        pytest.skip("process pools unavailable on this platform")


def _assert_bound_holds(result, ground_truth):
    """The inverted Lemma-3 bound must cover the actual max error."""
    assert result.achieved_epsilon is not None
    assert 0.0 < result.achieved_epsilon <= 1.0
    errors = np.abs(result.scores - ground_truth[result.candidates])
    assert float(errors.max()) <= result.achieved_epsilon


class TestChaosStatic:
    def test_worker_kill_recovers_bit_identical(
        self, pinned, chaos_graph, pool_available
    ):
        # One worker is SIGKILLed the first time shard 3 starts; the pool
        # is rebuilt, the shard retried with its own seed, and the final
        # scores match the pinned undisturbed bits exactly.
        with faults.active({"shard": {"3": {"kind": "kill"}}}) as markers:
            result = parallel_crashsim(
                chaos_graph, 0, params=PARAMS64, seed=123, workers=2,
                shards=16,
            )
            assert (pathlib.Path(markers) / "shard-3-0").exists()
        assert not result.degraded
        assert result.trials_completed == result.n_r
        assert result.candidates.tolist() == pinned["parallel_w1"]["candidates"]
        assert to_hex(result.scores) == pinned["parallel_w1"]["scores"]

    def test_in_shard_exception_retried_to_full_quality(
        self, pinned, chaos_graph, pool_available
    ):
        # Shard 5 raises twice, succeeds on the third attempt (within the
        # default retry budget): full-quality, bit-identical result.
        plan = {"shard": {"5": {"kind": "raise", "times": 2}}}
        with faults.active(plan):
            result = parallel_crashsim(
                chaos_graph, 0, params=PARAMS64, seed=123, workers=2,
                shards=16,
            )
        assert not result.degraded
        assert to_hex(result.scores) == pinned["parallel_w1"]["scores"]

    def test_persistent_shard_failure_degrades(
        self, chaos_graph, ground_truth, pool_available
    ):
        # Shard 5 fails every attempt: its 4 trials are lost, the run is
        # flagged degraded, and the widened bound still covers the error.
        plan = {"shard": {"5": {"kind": "raise", "times": 32}}}
        with faults.active(plan):
            with pytest.warns(DegradedResultWarning):
                result = parallel_crashsim(
                    chaos_graph, 0, params=PARAMS64, seed=123, workers=2,
                    shards=16,
                )
        assert result.degraded
        assert result.trials_completed == 60  # 64 trials over 16 shards
        assert result.achieved_epsilon > PARAMS64.achieved_epsilon(
            chaos_graph.num_nodes, 64
        )
        _assert_bound_holds(result, ground_truth)

    def test_deadline_with_stalled_shard_degrades(
        self, chaos_graph, ground_truth, pool_available
    ):
        # Shard 2 sleeps far past the deadline; the query returns at the
        # deadline with the other shards averaged, not after the stall.
        plan = {"shard": {"2": {"kind": "delay", "seconds": 10}}}
        with faults.active(plan):
            started = time.monotonic()
            with pytest.warns(DegradedResultWarning):
                result = parallel_crashsim(
                    chaos_graph,
                    0,
                    params=PARAMS64,
                    seed=123,
                    workers=2,
                    deadline=4.0,
                    shards=16,
                )
            elapsed = time.monotonic() - started
        assert elapsed < 9.0
        assert result.degraded
        assert 0 < result.trials_completed < result.n_r
        _assert_bound_holds(result, ground_truth)

    def test_single_source_kill_plan_respects_deadline(
        self, chaos_graph, ground_truth, pool_available
    ):
        # The facade acceptance path: a shard that kills its worker on
        # every attempt exhausts the retry/rebuild budgets, and
        # single_source(..., deadline=...) still returns inside the budget
        # with an honestly-labelled ScoreVector.
        plan = {"shard": {"15": {"kind": "kill", "times": 32}}}
        with faults.active(plan):
            started = time.monotonic()
            with pytest.warns(DegradedResultWarning):
                scores = single_source(
                    chaos_graph,
                    0,
                    n_r=64,
                    seed=123,
                    workers=2,
                    deadline=30.0,
                    shards=16,
                )
            elapsed = time.monotonic() - started
        assert elapsed < 30.0
        assert scores.degraded
        assert 0 < scores.trials_completed < 64
        assert 0.0 < scores.achieved_epsilon <= 1.0
        assert float(np.abs(scores - ground_truth).max()) <= scores.achieved_epsilon

    def test_serial_deadline_is_cooperative(self, chaos_graph, ground_truth):
        # workers=1 never starts a pool; the deadline is checked between
        # shards, so a stalled first shard still yields a partial result.
        plan = {"shard": {"0": {"kind": "delay", "seconds": 1.2}}}
        with faults.active(plan):
            with pytest.warns(DegradedResultWarning):
                result = parallel_crashsim(
                    chaos_graph,
                    0,
                    params=PARAMS64,
                    seed=123,
                    workers=1,
                    deadline=1.0,
                    shards=16,
                )
        assert result.degraded
        assert result.trials_completed == 4  # only shard 0 completed
        _assert_bound_holds(result, ground_truth)

    def test_deadline_spent_in_setup_raises(self, chaos_graph):
        with pytest.raises(DeadlineExceededError) as excinfo:
            parallel_crashsim(
                chaos_graph, 0, params=PARAMS64, seed=123, workers=1,
                deadline=1e-6,
            )
        assert excinfo.value.deadline == 1e-6
        assert excinfo.value.elapsed >= 1e-6


class TestSessionRollback:
    def test_mid_push_failure_rolls_back_and_retry_is_bit_exact(
        self, chaos_graph
    ):
        temporal = evolve_snapshots(chaos_graph, 3, churn_rate=0.05, seed=9)
        snapshots = [temporal.snapshot(i) for i in range(3)]
        query = ThresholdQuery(theta=0.001)

        control = TemporalQuerySession(0, query, params=PARAMS64, seed=7)
        for graph in snapshots:
            control.push_snapshot(graph)

        session = TemporalQuerySession(0, query, params=PARAMS64, seed=7)
        session.push_snapshot(snapshots[0])
        before = (session.survivors, session.scores, session.snapshots_seen)
        assert before[0], "chaos setup: Ω must be non-empty after snapshot 0"
        stats_before = session.stats.as_dict()

        with faults.active({"advance": {"2": {"kind": "raise"}}}):
            with pytest.raises(InjectedFault):
                session.push_snapshot(snapshots[1])
            # The failed push left no trace: same Ω, scores, counters.
            assert (
                session.survivors,
                session.scores,
                session.snapshots_seen,
            ) == before
            assert session.stats.as_dict() == stats_before
            # The fault is spent (times=1), so the retry succeeds — still
            # inside the plan — and, thanks to the RNG rollback, lands on
            # the exact bits an undisturbed session produces.
            session.push_snapshot(snapshots[1])
        session.push_snapshot(snapshots[2])

        assert session.survivors == control.survivors
        assert {
            node: float.hex(score) for node, score in session.scores.items()
        } == {
            node: float.hex(score) for node, score in control.scores.items()
        }
