"""One trial loop: what every query shape shares after the merge.

* a fixed one-stream run reports Lemma 3's ``achieved_epsilon`` at its
  trial count, like every sharded run;
* ``crashsim``, ``crashsim_batch`` (solo and coalesced) and the serving
  engine's breaker-open answer agree bit for bit, and on their metadata,
  wherever they draw the same stream;
* a sharded multi-source query sets up its dense input without caching a
  matrix on any source tree, and that input moves no bit.
"""

import numpy as np
import pytest

from repro import faults
from repro.core import BatchQuery, CrashSimParams, crashsim, crashsim_batch
from repro.core.multi_source import crashsim_multi_source
from repro.errors import DeadlineExceededError
from repro.graph.generators import erdos_renyi, preferential_attachment
from repro.parallel import parallel_crashsim, parallel_crashsim_multi_source, runner
from repro.serve import Engine, EngineConfig

GRAPH = preferential_attachment(300, 3, seed=11)
CATALOG = tuple(range(150, 300))
SEED = 52
ENGINE_N_R = 32
BREAKER_N_R = 8


def metadata(result):
    """The result's claims about itself."""
    return (
        result.trials_completed,
        result.degraded,
        result.achieved_epsilon,
        result.stopped_early,
    )


def dense(result, graph=GRAPH):
    """A ``CrashSimResult`` as the engine's dense score vector."""
    scores = np.zeros(graph.num_nodes)
    scores[result.candidates] = result.scores
    scores[int(result.source)] = 1.0
    return scores


class TestFixedRunsReportEpsilon:
    @pytest.mark.parametrize("n_r", [8, 64])
    def test_crashsim(self, n_r):
        params = CrashSimParams(n_r_override=n_r)
        result = crashsim(GRAPH, 0, params=params, seed=3)
        assert result.trials_completed == n_r
        assert result.achieved_epsilon == params.achieved_epsilon(GRAPH.num_nodes, n_r)
        assert not result.degraded and not result.stopped_early

    def test_same_as_the_sharded_run(self):
        params = CrashSimParams(n_r_override=64)
        serial = crashsim(GRAPH, 0, params=params, seed=3)
        sharded = parallel_crashsim(GRAPH, 0, params=params, seed=3, workers=1)
        assert metadata(serial) == metadata(sharded)

    def test_multi_source(self):
        params = CrashSimParams(n_r_override=16)
        expected = params.achieved_epsilon(GRAPH.num_nodes, 16)
        for result in crashsim_multi_source(GRAPH, [0, 1, 2], params=params, seed=4):
            assert metadata(result) == (16, False, expected, False)

    def test_nothing_to_estimate(self):
        # A candidate with no in-neighbours scores exactly 0: no walk runs,
        # and the result still prices the run it stands for.
        params = CrashSimParams(n_r_override=16)
        dangling = int(np.flatnonzero(GRAPH.in_degrees() == 0)[0])
        expected = params.achieved_epsilon(GRAPH.num_nodes, 16)
        for result in (
            crashsim(GRAPH, 0, candidates=[dangling], params=params, seed=1),
            parallel_crashsim(
                GRAPH, 0, candidates=[dangling], params=params, seed=1, workers=1
            ),
        ):
            assert metadata(result) == (16, False, expected, False)
            assert result.scores.tolist() == [0.0]


@pytest.fixture(scope="module")
def breaker_answer():
    """The engine's breaker-open answer for ``(source 0, SEED, CATALOG)``.

    One stalled deadline query opens a one-failure breaker; the long
    cooldown keeps it open for the answer that follows.
    """
    config = EngineConfig(
        n_r=ENGINE_N_R,
        batch_window=0.0,
        seed=1234,
        workers=1,
        breaker_threshold=1,
        breaker_cooldown=600.0,
        breaker_n_r=BREAKER_N_R,
    )
    plan = {"executor_stall": {"0": {"kind": "delay", "seconds": 0.5}}}
    with faults.active(plan), Engine(GRAPH, config) as engine:
        with pytest.raises(DeadlineExceededError):
            engine.query(1, seed=SEED, deadline=0.1)
        assert engine.stats()["breaker_state"] == "open"
        return engine.query(0, seed=SEED, candidates=CATALOG, deadline=30.0)


class TestOneStreamDifferential:
    def run_batch(self, sources, n_r):
        stats = {}
        results = crashsim_batch(
            GRAPH,
            [BatchQuery(source, seed=SEED, candidates=CATALOG) for source in sources],
            params=CrashSimParams(n_r_override=n_r),
            stats=stats,
        )
        return results, stats

    @pytest.mark.parametrize("n_r", [BREAKER_N_R, ENGINE_N_R])
    def test_crashsim_and_batch_share_bits_and_metadata(self, n_r):
        params = CrashSimParams(n_r_override=n_r)
        direct = [
            crashsim(GRAPH, source, candidates=CATALOG, params=params, seed=SEED)
            for source in (0, 1)
        ]
        (solo,), solo_stats = self.run_batch([0], n_r)
        coalesced, stats = self.run_batch([0, 1], n_r)
        assert solo_stats["solo_queries"] == 1
        assert stats["coalesced_queries"] == 2
        for reference, other in [
            (direct[0], solo),
            (direct[0], coalesced[0]),
            (direct[1], coalesced[1]),
        ]:
            assert reference.scores.tobytes() == other.scores.tobytes()
            assert metadata(reference) == metadata(other)
            assert reference.achieved_epsilon == params.achieved_epsilon(
                GRAPH.num_nodes, n_r
            )

    def test_breaker_open_answer_is_the_low_trial_run(self, breaker_answer):
        assert breaker_answer.breaker_state == "open"
        reference = crashsim(
            GRAPH,
            0,
            candidates=CATALOG,
            params=CrashSimParams(n_r_override=BREAKER_N_R),
            seed=SEED,
        )
        scores = breaker_answer.scores
        assert scores.tobytes() == dense(reference).tobytes()
        # Same stream, same claims — except that the breaker always marks
        # its cheap answer degraded.
        trials, _, achieved, stopped_early = metadata(reference)
        assert metadata(scores) == (trials, True, achieved, stopped_early)


class TestMultiSourceSetup:
    PARAMS = CrashSimParams(n_r_override=32)
    SOURCES = [0, 1, 2]

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(2000, 10000, seed=2)

    def run(self, graph, workers):
        return parallel_crashsim_multi_source(
            graph, self.SOURCES, params=self.PARAMS, seed=9, workers=workers
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_tree_caches_a_matrix(self, graph, workers):
        results = self.run(graph, workers)
        assert [result.tree._dense for result in results] == [None] * 3

    def test_dense_input_moves_no_bit(self, graph, monkeypatch):
        fills = []
        fill = runner._fill_matrix

        def spy(tree, matrix):
            fills.append(matrix.shape)
            return fill(tree, matrix)

        monkeypatch.setattr(runner, "_fill_matrix", spy)
        shared = self.run(graph, 2)
        l_max = self.PARAMS.l_max
        assert fills == [(l_max + 1, graph.num_nodes)] * 3
        # One byte short of the three matrices: the shards read the trees.
        matrix_bytes = 3 * (l_max + 1) * graph.num_nodes * 8
        monkeypatch.setattr(runner, "DEFAULT_DENSE_ROW_BUDGET", matrix_bytes - 1)
        sparse = self.run(graph, 2)
        assert len(fills) == 3
        for a, b in zip(shared, sparse):
            assert a.scores.tobytes() == b.scores.tobytes()
            assert metadata(a) == metadata(b)
