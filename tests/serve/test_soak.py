"""Concurrency soak: many client threads hammering one resident engine.

What a soak can catch that unit tests cannot: cross-request state leakage
(a warm tree or kernel buffer from one request bleeding into another's
answer), lost wakeups in the dispatcher, and shutdown races.  Every request
here carries an explicit seed, so each has exactly one correct answer —
any leakage or reordering shows up as a byte-level mismatch against the
direct :func:`repro.api.single_source` oracle.

The chaos leg reuses :mod:`repro.faults` to fail a trial shard while an
engine query is mid-flight and asserts the answer is still exact — the
executor's retry must be invisible through the serving layer.

The observability leg runs the same soak behind the HTTP front door with
scraper threads hammering ``GET /metrics`` and ``GET /stats`` the whole
time: every scrape must be a valid Prometheus exposition, counters must
never run backwards, and the final totals must reconcile with the work
actually done.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import api, faults, obs
from repro.core import CandidateTreeCache
from repro.errors import EngineClosedError
from repro.serve import Engine, EngineConfig, QueryRequest, create_server

pytestmark = pytest.mark.timeout(300)

N_THREADS = 8
QUERIES_PER_THREAD = 6


def _workload(thread_id, catalog):
    """Thread ``thread_id``'s request specs: mixed candidates and sources."""
    specs = []
    for i in range(QUERIES_PER_THREAD):
        source = (thread_id * 7 + i * 3) % 120
        seed = thread_id * 1000 + i
        candidates = catalog if i % 2 == 0 else None
        specs.append((source, seed, candidates))
    return specs


class TestThreadedSoak:
    def test_soak_deterministic_answers_and_bounded_lru(
        self, serve_graph, catalog
    ):
        config = EngineConfig(
            n_r=32, batch_window=0.002, tree_cache_size=32, seed=7
        )
        answers = [None] * N_THREADS
        errors = []

        with Engine(serve_graph, config) as engine:

            def client(thread_id):
                try:
                    got = []
                    for source, seed, cands in _workload(thread_id, catalog):
                        result = engine.query(
                            source, seed=seed, candidates=cands, timeout=60
                        )
                        got.append(result)
                    answers[thread_id] = got
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(t,), daemon=True)
                for t in range(N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "soak client hung"
            assert not errors, errors
            assert len(engine.trees) <= 32
            stats = engine.stats()
            assert stats["queries"] == N_THREADS * QUERIES_PER_THREAD

        # Every answer byte-matches its solo oracle — no cross-request
        # leakage through the shared kernel, tree LRU, or dispatcher.
        for thread_id in range(N_THREADS):
            for (source, seed, cands), result in zip(
                _workload(thread_id, catalog), answers[thread_id]
            ):
                direct = api.single_source(
                    serve_graph, source, n_r=32, seed=seed, candidates=cands
                )
                assert result.scores.tobytes() == direct.tobytes(), (
                    thread_id,
                    source,
                    seed,
                )

    def test_repeat_soak_same_seeds_same_bytes(self, serve_graph, catalog):
        # Two engines, same workload: identical answers — warm-state history
        # (which sources came earlier, what the LRU held) must not matter.
        def run_once():
            out = {}
            config = EngineConfig(n_r=32, batch_window=0.002, seed=3)
            with Engine(serve_graph, config) as engine:
                for thread_id in (0, 1, 2):
                    for source, seed, cands in _workload(thread_id, catalog):
                        result = engine.query(
                            source, seed=seed, candidates=cands, timeout=60
                        )
                        out[(thread_id, source, seed)] = (
                            result.scores.tobytes()
                        )
            return out

        assert run_once() == run_once()


def _parse_exposition(text):
    """Validate Prometheus text format 0.0.4; return ``{sample: value}``.

    Checks the structural invariants a scraper relies on: every sample
    line is ``name[{le="bound"}] value``, every sample's family carries a
    ``# TYPE`` line, histogram buckets are cumulative (non-decreasing in
    declaration order) with the ``+Inf`` bucket equal to ``_count``.
    """
    typed = {}
    samples = {}
    bucket_runs = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            typed[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        sample, _, raw = line.rpartition(" ")
        value = float(raw)
        samples[sample] = value
        family = sample.split("{")[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in typed:
                base = family[: -len(suffix)]
                assert typed[base] == "histogram", line
                if suffix == "_bucket":
                    bucket_runs.setdefault(base, []).append(value)
                break
        else:
            assert family in typed, f"sample without TYPE: {line!r}"
    for base, run in bucket_runs.items():
        assert run == sorted(run), f"{base} buckets not cumulative: {run}"
        assert run[-1] == samples[f"{base}_count"], base
    assert text.endswith("\n")
    return samples


class TestMetricsScrapeUnderLoad:
    def test_concurrent_scrapes_valid_and_monotonic(
        self, serve_graph, catalog
    ):
        previous = obs.set_enabled(True)
        config = EngineConfig(
            n_r=32, batch_window=0.002, tree_cache_size=32, seed=7
        )
        metrics_scrapes, stats_scrapes, errors = [], [], []
        stop_scraping = threading.Event()
        try:
            with Engine(serve_graph, config) as engine:
                server = create_server(engine, port=0)
                host, port = server.server_address[:2]
                base_url = f"http://{host}:{port}"
                server_thread = threading.Thread(
                    target=server.serve_forever,
                    kwargs={"poll_interval": 0.05},
                    daemon=True,
                )
                server_thread.start()
                try:

                    def scraper(path, out):
                        try:
                            while not stop_scraping.is_set():
                                with urllib.request.urlopen(
                                    base_url + path, timeout=30
                                ) as response:
                                    assert response.status == 200
                                    out.append(
                                        (
                                            response.headers.get(
                                                "Content-Type", ""
                                            ),
                                            response.read().decode("utf-8"),
                                        )
                                    )
                                time.sleep(0.003)
                        except BaseException as exc:  # pragma: no cover
                            errors.append(exc)

                    def client(thread_id):
                        try:
                            for source, seed, cands in _workload(
                                thread_id, catalog
                            ):
                                engine.query(
                                    source,
                                    seed=seed,
                                    candidates=cands,
                                    timeout=60,
                                )
                        except BaseException as exc:  # pragma: no cover
                            errors.append(exc)

                    scrapers = [
                        threading.Thread(
                            target=scraper,
                            args=("/metrics", metrics_scrapes),
                            daemon=True,
                        ),
                        threading.Thread(
                            target=scraper,
                            args=("/stats", stats_scrapes),
                            daemon=True,
                        ),
                    ]
                    clients = [
                        threading.Thread(
                            target=client, args=(t,), daemon=True
                        )
                        for t in range(N_THREADS)
                    ]
                    for thread in scrapers + clients:
                        thread.start()
                    for thread in clients:
                        thread.join(timeout=120)
                        assert not thread.is_alive(), "soak client hung"
                    stop_scraping.set()
                    for thread in scrapers:
                        thread.join(timeout=60)
                        assert not thread.is_alive(), "scraper hung"
                    assert not errors, errors
                    # One quiescent scrape of each endpoint after every
                    # query drained, for the final reconciliation.
                    with urllib.request.urlopen(
                        base_url + "/metrics", timeout=30
                    ) as response:
                        metrics_scrapes.append(
                            (
                                response.headers.get("Content-Type", ""),
                                response.read().decode("utf-8"),
                            )
                        )
                    with urllib.request.urlopen(
                        base_url + "/stats", timeout=30
                    ) as response:
                        stats_scrapes.append(
                            (
                                response.headers.get("Content-Type", ""),
                                response.read().decode("utf-8"),
                            )
                        )
                finally:
                    server.shutdown()
                    server.server_close()
        finally:
            obs.set_enabled(previous)

        # Every /metrics body is a structurally valid exposition with the
        # right content type, covering all four metric families.
        assert len(metrics_scrapes) >= 2
        parsed = []
        for content_type, body in metrics_scrapes:
            assert content_type.startswith("text/plain; version=0.0.4")
            parsed.append(_parse_exposition(body))
        for family in (
            "repro_kernel_walks_total",
            "repro_tree_lru_hits_total",
            "repro_executor_runs_total",
            "repro_engine_queries_total",
            "repro_engine_latency_seconds_count",
        ):
            assert family in parsed[-1], family

        # Counters never run backwards across a scraper's ordered scrapes.
        for name in (
            "repro_engine_queries_total",
            "repro_engine_batches_total",
            "repro_kernel_walks_total",
        ):
            series = [sample[name] for sample in parsed]
            assert series == sorted(series), (name, series)

        # /stats mirrors the same registry: its counters are monotonic
        # too, and both endpoints agree on the final totals.
        payloads = [json.loads(body) for _, body in stats_scrapes]
        queries_series = [payload["queries"] for payload in payloads]
        assert queries_series == sorted(queries_series)
        metric_series = [
            payload["metrics"]["repro_engine_queries_total"]
            for payload in payloads
        ]
        assert metric_series == sorted(metric_series)
        expected = N_THREADS * QUERIES_PER_THREAD
        assert parsed[-1]["repro_engine_queries_total"] == expected
        assert payloads[-1]["queries"] == expected
        assert payloads[-1]["metrics"]["repro_engine_queries_total"] == (
            expected
        )
        # The dispatcher drained everything: the queue-depth gauge is
        # back to zero and latency observations cover every query.
        assert parsed[-1]["repro_engine_queue_depth"] == 0
        assert parsed[-1]["repro_engine_latency_seconds_count"] == expected


class TestShutdownUnderLoad:
    def test_close_with_inflight_requests_drains_all(self, serve_graph):
        config = EngineConfig(n_r=32, batch_window=0.002, seed=5)
        engine = Engine(serve_graph, config)
        admitted = []
        rejected = threading.Event()
        stop_submitting = threading.Event()

        def submitter():
            source = 0
            while not stop_submitting.is_set():
                try:
                    future = engine.submit(
                        QueryRequest.make(source % 100, seed=source)
                    )
                    admitted.append((source % 100, source, future))
                except EngineClosedError:
                    rejected.set()
                    return
                source += 1

        threads = [
            threading.Thread(target=submitter, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # Let a backlog build, then close while submissions are racing in.
        time.sleep(0.1)
        engine.close()
        stop_submitting.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert admitted, "no requests made it in before the close"
        # Every admitted request was answered, exactly.
        for source, seed, future in admitted:
            result = future.result(timeout=60)
            direct = api.single_source(serve_graph, source, n_r=32, seed=seed)
            assert result.scores.tobytes() == direct.tobytes()
        with pytest.raises(EngineClosedError):
            engine.submit(QueryRequest.make(0))


class TestChaosUnderLoad:
    def test_failing_shard_mid_batch_recovers_exactly(self, serve_graph):
        config = EngineConfig(n_r=64, workers=2, batch_window=0.002, seed=9)
        baseline_config = EngineConfig(
            n_r=64, workers=2, batch_window=0.002, seed=9
        )
        with Engine(serve_graph, baseline_config) as engine:
            undisturbed = engine.query(8, seed=17, deadline=120.0, timeout=120)
        assert not undisturbed.degraded
        plan = {"shard": {"1": {"kind": "raise", "times": 2}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                survivor = engine.query(
                    8, seed=17, deadline=120.0, timeout=120
                )
                # The engine (and its pool) outlives the failures: a
                # second query on the same executor still answers.
                follow_up = engine.query(9, seed=18, timeout=120)
        # All shards were retried to completion: the answer is exact, not
        # degraded, and byte-identical to the undisturbed run.
        assert not survivor.degraded
        assert survivor.scores.tobytes() == undisturbed.scores.tobytes()
        direct = api.single_source(serve_graph, 9, n_r=64, seed=18)
        assert follow_up.scores.tobytes() == direct.tobytes()


class TestCandidateTreeCacheThreadSafety:
    def test_concurrent_tree_for_no_leaks_or_corruption(self, serve_graph):
        cache = CandidateTreeCache()
        nodes = list(range(40))
        per_thread_trees = [None] * N_THREADS
        errors = []

        def hammer(slot):
            try:
                local = {}
                for _ in range(3):
                    for node in nodes:
                        tree = cache.tree_for(node, 0, serve_graph, 5, 0.6)
                        assert tree.source == node
                        local[node] = tree
                per_thread_trees[slot] = local
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(s,), daemon=True)
            for s in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors, errors
        # No leakage: one entry per node, never more.
        assert len(cache) == len(nodes)
        # Accounting adds up: every call was either a hit or (at most a
        # handful of racing duplicate) builds; duplicates are discarded,
        # never stored.
        total_calls = N_THREADS * 3 * len(nodes)
        assert cache.hits + cache.builds == total_calls
        assert cache.builds >= len(nodes)
        # All threads converged on the same stored trees by the last round.
        reference = per_thread_trees[0]
        for local in per_thread_trees[1:]:
            for node in nodes:
                assert local[node].same_as(reference[node])

    def test_clone_and_retain_under_concurrent_reads(self, serve_graph):
        cache = CandidateTreeCache()
        for node in range(20):
            cache.tree_for(node, 0, serve_graph, 5, 0.6)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    cache.tree_for(3, 0, serve_graph, 5, 0.6)
                    len(cache)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                clone = cache.clone()
                assert len(clone) <= 20
                cache.retain(range(20))
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors, errors
