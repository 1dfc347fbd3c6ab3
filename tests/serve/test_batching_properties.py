"""Batch-composition invariance: batching must never change an answer.

The engine coalesces whatever happens to share its queue when a batching
window closes — so correctness demands that *no* partition of a set of
requests into batches, and no companion riding in the same batch, can
change any request's scores.  Two layers are pinned:

* :func:`repro.core.batch.crashsim_batch` directly: for a random query
  list and a *random partition* of it into sub-batches, every result is
  byte-identical to the sequential :func:`~repro.core.crashsim.crashsim`
  call — coalesced or solo, shared catalogue or per-query candidates.
* The full :class:`~repro.serve.Engine`: concurrently submitted seeded
  requests (mixed samplers and deadlines, which must not coalesce with
  the plain ones) come back byte-identical to direct
  :func:`repro.api.single_source` calls, whatever batches the window
  produced.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.core import BatchQuery, CrashSimParams, crashsim, crashsim_batch
from repro.core.revreach import revreach_levels
from repro.errors import ParameterError
from repro.graph.generators import preferential_attachment
from repro.serve import Engine, EngineConfig, QueryRequest

pytestmark = pytest.mark.timeout(300)

N_NODES = 120
N_R = 24
PARAMS = CrashSimParams(n_r_override=N_R)
GRAPH = preferential_attachment(N_NODES, 3, seed=5)
CATALOG = tuple(range(60, 120))
SMALL_SET = tuple(range(80, 100))

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _query_strategy():
    source = st.integers(min_value=0, max_value=49)
    seed = st.integers(min_value=0, max_value=2**31)
    candidates = st.sampled_from([None, CATALOG, SMALL_SET])
    return st.builds(
        lambda s, sd, cand: BatchQuery(s, seed=sd, candidates=cand),
        source,
        seed,
        candidates,
    )


def _partition(items, cut_points):
    """Split ``items`` at the (sorted, deduplicated) cut indices."""
    cuts = sorted({c % (len(items) + 1) for c in cut_points})
    pieces, start = [], 0
    for cut in cuts:
        if start < cut:
            pieces.append(items[start:cut])
            start = cut
    if start < len(items):
        pieces.append(items[start:])
    return pieces or [items]


class TestCrashsimBatchInvariance:
    @SETTINGS
    @given(
        queries=st.lists(_query_strategy(), min_size=1, max_size=8),
        cut_points=st.lists(
            st.integers(min_value=0, max_value=8), max_size=4
        ),
    )
    def test_any_partition_matches_sequential(self, queries, cut_points):
        expected = [
            crashsim(
                GRAPH,
                q.source,
                candidates=q.candidates,
                params=PARAMS,
                seed=q.seed,
            )
            for q in queries
        ]
        got = []
        for piece in _partition(queries, cut_points):
            got.extend(crashsim_batch(GRAPH, piece, params=PARAMS))
        assert len(got) == len(expected)
        for solo, batched in zip(expected, got):
            assert batched.scores.tobytes() == solo.scores.tobytes()
            assert np.array_equal(batched.candidates, solo.candidates)

    @SETTINGS
    @given(
        sources=st.lists(
            st.integers(min_value=0, max_value=49),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_shared_catalogue_coalesces_and_matches(self, sources, seed):
        queries = [
            BatchQuery(s, seed=seed, candidates=CATALOG) for s in sources
        ]
        stats = {}
        results = crashsim_batch(GRAPH, queries, params=PARAMS, stats=stats)
        # Identical seed + identical walk targets → one shared walk group.
        assert stats["coalesced_queries"] == len(queries)
        for query, result in zip(queries, results):
            solo = crashsim(
                GRAPH,
                query.source,
                candidates=CATALOG,
                params=PARAMS,
                seed=seed,
            )
            assert result.scores.tobytes() == solo.scores.tobytes()

    @SETTINGS
    @given(
        seed_a=st.integers(min_value=0, max_value=1000),
        seed_b=st.integers(min_value=1001, max_value=2000),
    )
    def test_distinct_seeds_never_coalesce(self, seed_a, seed_b):
        queries = [
            BatchQuery(1, seed=seed_a, candidates=CATALOG),
            BatchQuery(2, seed=seed_b, candidates=CATALOG),
        ]
        stats = {}
        results = crashsim_batch(GRAPH, queries, params=PARAMS, stats=stats)
        assert stats["coalesced_queries"] == 0
        assert stats["solo_queries"] == 2
        for query, result in zip(queries, results):
            solo = crashsim(
                GRAPH,
                query.source,
                candidates=CATALOG,
                params=PARAMS,
                seed=query.seed,
            )
            assert result.scores.tobytes() == solo.scores.tobytes()

    def test_generator_seed_consumed_like_solo_call(self):
        queries = [BatchQuery(3, seed=np.random.default_rng(77))]
        results = crashsim_batch(GRAPH, queries, params=PARAMS)
        solo = crashsim(
            GRAPH, 3, params=PARAMS, seed=np.random.default_rng(77)
        )
        assert results[0].scores.tobytes() == solo.scores.tobytes()

    def test_repeated_source_builds_its_tree_once(self):
        queries = [
            BatchQuery(7, seed=seed, candidates=SMALL_SET) for seed in (1, 2, 3)
        ]
        builds = obs.REGISTRY.get("repro_tree_builds_total")
        before = builds.value
        results = crashsim_batch(GRAPH, queries, params=PARAMS)
        assert builds.value - before == 1
        for query, result in zip(queries, results):
            solo = crashsim(
                GRAPH, 7, candidates=SMALL_SET, params=PARAMS, seed=query.seed
            )
            assert result.scores.tobytes() == solo.scores.tobytes()

    def test_provider_tree_for_another_source_is_rejected(self):
        other = revreach_levels(GRAPH, 5, PARAMS.l_max, PARAMS.c)
        with pytest.raises(ParameterError):
            crashsim_batch(
                GRAPH,
                [BatchQuery(4, seed=1), BatchQuery(3, seed=1)],
                params=PARAMS,
                tree_provider=lambda source: other,
            )


class TestEngineInvariance:
    """The engine end: concurrent submissions vs direct api calls."""

    @SETTINGS
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=49),  # source
                st.integers(min_value=0, max_value=2**31),  # seed
                st.sampled_from([None, CATALOG]),  # candidates
                st.sampled_from(["cdf", "alias"]),  # sampler
            ),
            min_size=1,
            max_size=8,
        ),
        batch_window=st.sampled_from([0.0, 0.005]),
        max_batch=st.integers(min_value=1, max_value=8),
    )
    def test_concurrent_mixed_requests_match_direct_calls(
        self, specs, batch_window, max_batch
    ):
        config = EngineConfig(
            n_r=N_R, batch_window=batch_window, max_batch=max_batch, seed=0
        )
        with Engine(GRAPH, config) as engine:
            futures = [
                engine.submit(
                    QueryRequest.make(
                        source, seed=seed, candidates=cand, sampler=sampler
                    )
                )
                for source, seed, cand, sampler in specs
            ]
            results = [f.result(timeout=60) for f in futures]
        for (source, seed, cand, sampler), result in zip(specs, results):
            direct = api.single_source(
                GRAPH,
                source,
                n_r=N_R,
                seed=seed,
                candidates=cand,
                sampler=sampler,
            )
            assert result.scores.tobytes() == direct.tobytes()

    def test_deadline_requests_do_not_coalesce(self):
        # A deadline request in the same window as coalescible companions
        # is served individually (never batched) and still byte-matches
        # the direct deadline call.
        config = EngineConfig(n_r=N_R, batch_window=0.05, seed=0)
        with Engine(GRAPH, config) as engine:
            futures = [
                engine.submit(
                    QueryRequest.make(s, seed=9, candidates=CATALOG)
                )
                for s in (1, 2, 3)
            ]
            hurried = engine.submit(
                QueryRequest.make(4, seed=9, candidates=CATALOG, deadline=60.0)
            )
            results = [f.result(timeout=60) for f in futures]
            special = hurried.result(timeout=60)
        assert not special.coalesced
        assert special.batch_size == 1
        direct = api.single_source(
            GRAPH, 4, n_r=N_R, seed=9, candidates=CATALOG, deadline=60.0
        )
        assert special.scores.tobytes() == direct.tobytes()
        for source, result in zip((1, 2, 3), results):
            direct = api.single_source(
                GRAPH, source, n_r=N_R, seed=9, candidates=CATALOG
            )
            assert result.scores.tobytes() == direct.tobytes()

    def test_mixed_samplers_in_one_window_stay_separate(self):
        config = EngineConfig(n_r=N_R, batch_window=0.05, seed=0)
        with Engine(GRAPH, config) as engine:
            futures = {
                sampler: engine.submit(
                    QueryRequest.make(5, seed=13, sampler=sampler)
                )
                for sampler in ("cdf", "alias")
            }
            results = {
                sampler: future.result(timeout=60)
                for sampler, future in futures.items()
            }
        for sampler, result in results.items():
            direct = api.single_source(
                GRAPH, 5, n_r=N_R, seed=13, sampler=sampler
            )
            assert result.scores.tobytes() == direct.tobytes()
