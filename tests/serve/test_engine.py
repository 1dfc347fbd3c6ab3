"""Engine unit behaviour: answers, warm state, lifecycle, HTTP front door.

The deeper guarantees — batch-composition invariance and concurrency
safety — live in ``test_batching_properties.py`` and ``test_soak.py``;
this file pins the request/response surface a client programs against.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.errors import (
    DeadlineExceededError,
    EngineClosedError,
    ParameterError,
)
from repro.serve import Engine, EngineConfig, QueryRequest, TreeLRU, create_server

pytestmark = pytest.mark.timeout(120)


class TestAnswers:
    def test_dense_vector_matches_direct_call(self, engine, serve_graph):
        result = engine.query(4, seed=99)
        direct = api.single_source(serve_graph, 4, n_r=32, seed=99)
        assert result.scores.tobytes() == direct.tobytes()
        assert result.scores[4] == 1.0
        assert result.scores.shape == (serve_graph.num_nodes,)

    def test_candidate_restricted_query(self, engine, serve_graph, catalog):
        result = engine.query(7, seed=5, candidates=catalog)
        direct = api.single_source(
            serve_graph, 7, n_r=32, seed=5, candidates=catalog
        )
        assert result.scores.tobytes() == direct.tobytes()
        outside = np.setdiff1d(
            np.arange(serve_graph.num_nodes), np.array(catalog + (7,))
        )
        assert not np.any(result.scores[outside])

    def test_seedless_answer_is_replayable(self, engine, serve_graph):
        result = engine.query(3)
        assert result.seed is not None
        replay = api.single_source(serve_graph, 3, n_r=32, seed=result.seed)
        assert result.scores.tobytes() == replay.tobytes()

    def test_top_k_ranking(self, engine):
        result = engine.query(2, seed=11, top_k=5)
        assert len(result.top) == 5
        nodes = [node for node, _ in result.top]
        assert 2 not in nodes
        scores = [score for _, score in result.top]
        assert scores == sorted(scores, reverse=True)
        dense = np.asarray(result.scores).copy()
        dense[2] = -np.inf
        assert result.top[0][1] == dense.max()

    def test_deadline_request_degrades_not_fails(self, engine, serve_graph):
        # A generous deadline: completes fully and byte-matches the direct
        # deadline call (same seed-shard scheme at any worker count).
        result = engine.query(6, seed=21, deadline=60.0)
        direct = api.single_source(serve_graph, 6, n_r=32, seed=21, deadline=60.0)
        assert result.scores.tobytes() == direct.tobytes()
        assert not result.degraded

    def test_deadline_already_spent_in_queue(self, engine):
        request = QueryRequest.make(1, deadline=1e-9)
        future = engine.submit(request)
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=30)

    def test_bad_source_rejected_at_submit(self, engine, serve_graph):
        with pytest.raises(ParameterError):
            engine.submit(QueryRequest.make(serve_graph.num_nodes + 5))

    def test_bad_request_fails_only_itself(
        self, engine, serve_graph, catalog, monkeypatch
    ):
        # A request that passes submit but fails scoring (here its tree
        # fetch raises) must not fail its batch-mates.
        fetch = engine.trees.get

        def failing_fetch(source):
            if source == 1:
                raise ParameterError("injected tree failure")
            return fetch(source)

        monkeypatch.setattr(engine.trees, "get", failing_fetch)
        bad = engine.submit(QueryRequest.make(1, candidates=catalog, seed=3))
        good = engine.submit(QueryRequest.make(2, candidates=catalog, seed=3))
        with pytest.raises(ParameterError):
            bad.result(timeout=30)
        result = good.result(timeout=30)
        direct = api.single_source(
            serve_graph, 2, n_r=32, seed=3, candidates=catalog
        )
        assert result.scores.tobytes() == direct.tobytes()

    def test_bad_candidate_rejected_at_submit_batch_mates_coalesce(
        self, serve_graph, catalog
    ):
        # A wide window holds all four submissions in one batch; the bad
        # one is refused at the door, so the other three still share walks.
        config = EngineConfig(n_r=32, batch_window=0.5, seed=1234)
        with Engine(serve_graph, config) as engine:
            futures = [
                engine.submit(QueryRequest.make(s, candidates=catalog, seed=3))
                for s in (1, 2)
            ]
            bad = catalog + (serve_graph.num_nodes + 5,)
            with pytest.raises(ParameterError):
                engine.submit(QueryRequest.make(4, candidates=bad, seed=3))
            futures.append(
                engine.submit(QueryRequest.make(3, candidates=catalog, seed=3))
            )
            results = [future.result(timeout=30) for future in futures]
            stats = engine.stats()
        assert [(r.coalesced, r.batch_size) for r in results] == [(True, 3)] * 3
        assert stats["shared_walk_groups"] == 1
        assert stats["coalesced_queries"] == 3
        assert stats["solo_queries"] == 0
        for source, result in zip((1, 2, 3), results):
            direct = api.single_source(
                serve_graph, source, n_r=32, seed=3, candidates=catalog
            )
            assert result.scores.tobytes() == direct.tobytes()


class TestRequestValidation:
    def test_numpy_integers_are_accepted(self):
        request = QueryRequest.make(
            np.int64(3),
            candidates=np.arange(5, 8),
            seed=np.uint32(9),
            deadline=np.float64(1.5),
            top_k=np.int32(2),
        )
        assert request == QueryRequest(3, (5, 6, 7), 9, 1.5, "cdf", 2)
        assert type(request.source) is int and type(request.seed) is int

    @pytest.mark.parametrize(
        "fields",
        [
            {"source": 1.5},
            {"source": True},
            {"source": "3"},
            {"seed": -5},
            {"seed": 2.0},
            {"candidates": "abc"},
            {"candidates": 7},
            {"candidates": [1, False]},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"deadline": 0},
            {"deadline": "1"},
            {"top_k": 0},
            {"top_k": "5"},
            {"sampler": "bogus"},
        ],
    )
    def test_bad_field_is_parameter_error(self, fields):
        fields = {"source": 3, **fields}
        with pytest.raises(ParameterError):
            QueryRequest.make(fields.pop("source"), **fields)


class TestWarmState:
    def test_tree_lru_hits_on_repeat_source(self, engine):
        engine.query(5, seed=1)
        misses = engine.trees.misses
        engine.query(5, seed=2)
        assert engine.trees.misses == misses
        assert engine.trees.hits >= 1

    def test_tree_lru_capacity_bounded(self, serve_graph, engine_config):
        config = EngineConfig(n_r=32, tree_cache_size=4, seed=0)
        with Engine(serve_graph, config) as engine:
            for source in range(10):
                engine.query(source, seed=source)
            assert len(engine.trees) <= 4

    def test_tree_lru_eviction_order(self, serve_graph):
        lru = TreeLRU(serve_graph, 5, 0.6, capacity=2)
        first = lru.get(1)
        lru.get(2)
        lru.get(1)  # refresh 1 → 2 is now the eviction victim
        lru.get(3)
        assert lru.get(1) is first
        assert set() == {2} & {k for k in lru._entries}

    def test_stats_counters(self, engine):
        engine.query(1, seed=1)
        engine.query(2, seed=2, deadline=60.0)
        stats = engine.stats()
        assert stats["queries"] >= 2
        assert stats["deadline_queries"] == 1
        assert stats["tree_cache_size"] >= 1


class TestLifecycle:
    def test_close_is_idempotent(self, serve_graph, engine_config):
        engine = Engine(serve_graph, engine_config)
        engine.query(1, seed=1)
        engine.close()
        engine.close()
        assert engine.closed

    def test_submit_after_close_raises(self, serve_graph, engine_config):
        engine = Engine(serve_graph, engine_config)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(QueryRequest.make(0))

    def test_close_drains_queued_requests(self, serve_graph, engine_config):
        # Admit a burst, close immediately: every admitted future resolves.
        engine = Engine(serve_graph, engine_config)
        futures = [
            engine.submit(QueryRequest.make(source, seed=source))
            for source in range(12)
        ]
        engine.close()
        for source, future in enumerate(futures):
            result = future.result(timeout=30)
            direct = api.single_source(serve_graph, source, n_r=32, seed=source)
            assert result.scores.tobytes() == direct.tobytes()


class TestHttpFrontDoor:
    @pytest.fixture
    def server(self, engine):
        server = create_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()

    def _post(self, server, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def _get(self, server, path):
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30
        ) as response:
            return json.loads(response.read())

    def test_query_roundtrip_matches_direct_call(self, server, serve_graph):
        body = self._post(server, {"source": 3, "seed": 7})
        direct = api.single_source(serve_graph, 3, n_r=32, seed=7)
        assert body["scores"] == [float(s) for s in direct]
        assert body["trials_completed"] == direct.trials_completed

    def test_top_k_response(self, server):
        body = self._post(server, {"source": 1, "seed": 2, "top_k": 4})
        assert len(body["top"]) == 4
        assert "scores" not in body

    def test_healthz_and_stats(self, server):
        assert self._get(server, "/healthz")["status"] == "ok"
        stats = self._get(server, "/stats")
        assert "queries" in stats

    def test_malformed_request_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, {"no_source": True})
        assert excinfo.value.code == 400

    def test_out_of_range_source_is_400(self, server, serve_graph):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, {"source": serve_graph.num_nodes + 1})
        assert excinfo.value.code == 400
