"""Overload-resilience suite: admission control, breaker, watchdog, close.

Pins the PR-9 serving contracts:

* a bounded queue sheds deterministically — accepted requests stay
  byte-identical to solo :func:`repro.api.single_source` calls, rejected
  ones raise :class:`~repro.errors.EngineOverloadedError` with a priced
  ``retry_after``;
* the circuit breaker's open → half-open → closed walk is deterministic
  under :mod:`repro.faults` ``executor_stall`` injection, and its cheap
  open-state answers are byte-identical to solo ``breaker_n_r`` runs;
* the watchdog recovers a killed or hung dispatcher without losing any
  queued request, failing only genuinely in-flight ones with
  :class:`~repro.errors.DispatcherError`;
* ``close()`` is idempotent under concurrent callers and leaves the
  queue-depth gauge at zero;
* the HTTP front door maps overload to ``429``/``503``/``504`` and honours
  the ``X-Repro-Deadline`` header.

Fault plans target the engine's own chaos sites, so every test builds its
engine *inside* the :func:`repro.faults.active` block; byte-identity
oracles are computed outside the block so the shared default executor
never trips an ``executor_stall`` index meant for the engine.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api, faults
from repro.errors import (
    DeadlineExceededError,
    DispatcherError,
    EngineClosedError,
    EngineOverloadedError,
    ParameterError,
)
from repro.parallel.executor import ParallelExecutor, RetryBudget, retry_delay
from repro.serve import (
    BreakerState,
    CircuitBreaker,
    Engine,
    EngineConfig,
    QueryRequest,
    create_server,
)

pytestmark = pytest.mark.timeout(120)


def _solo(graph, source, seed, *, n_r=32, deadline=None):
    """The byte-identity oracle for an engine answer."""
    if deadline is None:
        return api.single_source(graph, source, n_r=n_r, seed=seed)
    return api.single_source(
        graph, source, n_r=n_r, seed=seed, deadline=deadline
    )


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreakerUnit:
    def test_disabled_breaker_is_always_closed(self):
        breaker = CircuitBreaker(threshold=0)
        assert not breaker.enabled
        for _ in range(5):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.before_query() is BreakerState.CLOSED
        assert breaker.trips == 0

    def test_trips_after_threshold_consecutive_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_retry_after_counts_down_the_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)
        assert breaker.before_query() is BreakerState.OPEN

    def test_state_peek_does_not_claim_the_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        # Any number of /readyz-style peeks must not consume the probe.
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.probes == 0
        assert breaker.before_query() is BreakerState.HALF_OPEN
        assert breaker.probes == 1
        # While the probe is in flight everybody else routes to OPEN.
        assert breaker.before_query() is BreakerState.OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.before_query() is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CircuitBreaker(threshold=-1)
        with pytest.raises(ParameterError):
            CircuitBreaker(threshold=1, cooldown=0.0)


class TestRetryPolicy:
    def test_retry_delay_deterministic_and_capped(self):
        assert retry_delay(0.0, 1, 0) == 0.0
        assert retry_delay(0.01, 1, 3) == retry_delay(0.01, 1, 3)
        # Jitter factor lives in [1, 2): bounded by twice the exponential.
        for attempt in (1, 2, 3):
            for index in range(8):
                delay = retry_delay(0.01, attempt, index)
                base = 0.01 * 2 ** (attempt - 1)
                assert base <= delay < 2 * base + 1e-12
        assert retry_delay(0.5, 20, 1) == 2.0  # RETRY_BACKOFF_CAP

    def test_retry_budget_semantics(self):
        budget = RetryBudget(ratio=0.5, min_tokens=2, max_tokens=3)
        assert budget.tokens == 2.0
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        budget.deposit(10)  # 5 earned, capped at max_tokens
        assert budget.tokens == 3.0
        with pytest.raises(ParameterError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ParameterError):
            RetryBudget(min_tokens=0)
        with pytest.raises(ParameterError):
            RetryBudget(min_tokens=8, max_tokens=4)

    def test_exhausted_budget_stops_resubmission(self):
        calls = []

        def always_fails(task):
            calls.append(task)
            raise ValueError(f"boom {task}")

        budget = RetryBudget(ratio=0.0, min_tokens=1, max_tokens=1)
        executor = ParallelExecutor(1, retry_budget=budget)
        try:
            outcome = executor.run(always_fails, [0], task_retries=5)
        finally:
            executor.close()
        # One original attempt plus the single budgeted retry — the
        # per-task allowance of 5 never gets a chance to amplify load.
        assert len(calls) == 2
        assert not outcome.completed[0]
        assert isinstance(outcome.errors[0], ValueError)
        assert budget.tokens == 0.0


class TestAdmissionControl:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            EngineConfig(max_queue_depth=0)
        with pytest.raises(ParameterError):
            EngineConfig(shed_policy="drop-newest")
        with pytest.raises(ParameterError):
            EngineConfig(breaker_threshold=-1)
        with pytest.raises(ParameterError):
            EngineConfig(retry_budget=0)
        with pytest.raises(ParameterError):
            EngineConfig(retry_backoff=-0.1)
        # The breaker's cheap mode must run fewer trials than a full answer.
        with pytest.raises(ParameterError):
            EngineConfig(n_r=4, breaker_threshold=1)  # default breaker_n_r=8
        with pytest.raises(ParameterError):
            EngineConfig(n_r=8, breaker_threshold=1, breaker_n_r=8)
        EngineConfig(n_r=9, breaker_threshold=1, breaker_n_r=8)
        EngineConfig(n_r=4, breaker_n_r=8)  # breaker off: never used

    def test_reject_policy_full_queue(self, serve_graph):
        oracles = {
            seed: _solo(serve_graph, 150 + seed, seed) for seed in (11, 12)
        }
        config = EngineConfig(
            n_r=32, batch_window=0.0, seed=1234, max_queue_depth=2
        )
        # Stall the dispatcher at startup so the queue provably fills.
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 0.6}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                futures = {
                    seed: engine.submit(
                        QueryRequest.make(150 + seed, seed=seed)
                    )
                    for seed in (11, 12)
                }
                with pytest.raises(EngineOverloadedError) as excinfo:
                    engine.submit(QueryRequest.make(163, seed=13))
                assert excinfo.value.retry_after > 0
                stats = engine.stats()
                assert stats["overload_rejected"] == 1
                assert stats["queue_depth"] == 2
                for seed, future in futures.items():
                    result = future.result(timeout=30)
                    assert (
                        result.scores.tobytes() == oracles[seed].tobytes()
                    )
        final = engine.stats()
        assert final["queries"] == 2
        assert final["shed"] == 0
        assert engine.registry.snapshot()["repro_engine_queue_depth"] == 0

    def test_shed_oldest_displaces_deadline_less(self, serve_graph):
        oracle_deadline = _solo(serve_graph, 151, 22, deadline=60.0)
        oracle_new = _solo(serve_graph, 152, 23)
        config = EngineConfig(
            n_r=32,
            batch_window=0.0,
            seed=1234,
            max_queue_depth=2,
            shed_policy="shed-oldest",
        )
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 0.6}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                victim = engine.submit(QueryRequest.make(150, seed=21))
                keeper = engine.submit(
                    QueryRequest.make(151, seed=22, deadline=30.0)
                )
                newcomer = engine.submit(QueryRequest.make(152, seed=23))
                with pytest.raises(EngineOverloadedError) as excinfo:
                    victim.result(timeout=5)
                assert excinfo.value.retry_after > 0
                assert keeper.result(
                    timeout=30
                ).scores.tobytes() == oracle_deadline.tobytes()
                assert newcomer.result(
                    timeout=30
                ).scores.tobytes() == oracle_new.tobytes()
        stats = engine.stats()
        assert stats["shed"] == 1
        assert stats["overload_rejected"] == 0

    def test_shed_oldest_rejects_when_everything_has_a_deadline(
        self, serve_graph
    ):
        config = EngineConfig(
            n_r=32,
            batch_window=0.0,
            seed=1234,
            max_queue_depth=2,
            shed_policy="shed-oldest",
        )
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 0.6}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                first = engine.submit(
                    QueryRequest.make(150, seed=31, deadline=30.0)
                )
                second = engine.submit(
                    QueryRequest.make(151, seed=32, deadline=30.0)
                )
                with pytest.raises(EngineOverloadedError):
                    engine.submit(QueryRequest.make(152, seed=33))
                for future in (first, second):
                    assert future.result(timeout=30) is not None
        stats = engine.stats()
        assert stats["shed"] == 0
        assert stats["overload_rejected"] == 1

    def test_queue_delay_burns_the_deadline(self, serve_graph):
        config = EngineConfig(n_r=32, batch_window=0.0, seed=1234)
        plan = {"queue_delay": {"0": {"kind": "delay", "seconds": 0.5}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                future = engine.submit(
                    QueryRequest.make(150, seed=41, deadline=0.2)
                )
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=30)
                assert engine.stats()["expired"] == 1

    def test_saturation_soak_sheds_without_losing_accepted(
        self, serve_graph
    ):
        n_threads, per_thread = 8, 5
        jobs = {}  # (tid, i) -> (source, seed)
        for tid in range(n_threads):
            for i in range(per_thread):
                jobs[(tid, i)] = (
                    150 + (tid * 7 + i * 3) % 150,
                    1000 + tid * 100 + i,
                )
        config = EngineConfig(
            n_r=32, batch_window=0.002, seed=1234, max_queue_depth=4
        )
        accepted, rejected, failures = {}, [], []
        barrier = threading.Barrier(n_threads)
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 0.5}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:

                def client(tid):
                    try:
                        barrier.wait(timeout=30)
                        for i in range(per_thread):
                            source, seed = jobs[(tid, i)]
                            try:
                                future = engine.submit(
                                    QueryRequest.make(source, seed=seed)
                                )
                            except EngineOverloadedError as exc:
                                assert exc.retry_after > 0
                                rejected.append((tid, i))
                            else:
                                accepted[(tid, i)] = future
                    except Exception as exc:  # pragma: no cover
                        failures.append(exc)

                threads = [
                    threading.Thread(target=client, args=(tid,))
                    for tid in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client thread hung"
                assert not failures, failures
                results = {
                    key: future.result(timeout=60)
                    for key, future in accepted.items()
                }
        assert len(accepted) + len(rejected) == n_threads * per_thread
        assert rejected, "saturation never tripped admission control"
        stats = engine.stats()
        assert stats["queries"] == len(accepted)
        assert stats["overload_rejected"] == len(rejected)
        assert stats["queue_depth"] == 0
        assert engine.registry.snapshot()["repro_engine_queue_depth"] == 0
        # Every accepted answer is byte-identical to the solo call.
        for key, result in results.items():
            source, seed = jobs[key]
            oracle = _solo(serve_graph, source, seed)
            assert result.scores.tobytes() == oracle.tobytes()


class TestEngineBreaker:
    def _config(self, **overrides):
        base = dict(
            n_r=32,
            batch_window=0.0,
            seed=1234,
            workers=1,
            breaker_threshold=2,
            breaker_cooldown=0.5,
            breaker_n_r=8,
        )
        base.update(overrides)
        return EngineConfig(**base)

    def test_open_half_open_closed_walk_is_deterministic(self, serve_graph):
        cheap_oracle = _solo(serve_graph, 160, 52, n_r=8)
        probe_oracle = _solo(serve_graph, 161, 53, deadline=60.0)
        plan = {
            "executor_stall": {
                "0": {"kind": "delay", "seconds": 1.0},
                "1": {"kind": "delay", "seconds": 1.0},
            }
        }
        with faults.active(plan):
            with Engine(serve_graph, self._config()) as engine:
                # Two consecutive stalled runs expire their deadlines and
                # trip the breaker.
                for seed in (50, 51):
                    with pytest.raises(DeadlineExceededError):
                        engine.query(150, seed=seed, deadline=0.25)
                stats = engine.stats()
                assert stats["breaker_state"] == "open"
                assert stats["breaker_trips"] == 1
                ready, reason, retry_after = engine.readiness()
                assert not ready and reason == "breaker-open"
                assert retry_after is not None and retry_after > 0

                # Open state: answered from the cheap breaker_n_r mode —
                # degraded, honestly priced, byte-identical to the solo
                # low-trial run, and no executor round-trip (so it does
                # not consume a fault ordinal).
                cheap = engine.query(160, seed=52, deadline=30.0)
                assert cheap.breaker_state == "open"
                assert cheap.degraded
                assert cheap.scores.trials_completed == 8
                assert cheap.scores.achieved_epsilon == pytest.approx(
                    engine.params.achieved_epsilon(
                        max(serve_graph.num_nodes, 2), 8
                    )
                )
                assert cheap.scores.tobytes() == cheap_oracle.tobytes()
                assert engine.stats()["breaker_degraded"] == 1

                # After the cooldown the next query is the half-open
                # probe; fault ordinal 2 is unplanned, so it succeeds at
                # full size and closes the breaker.
                time.sleep(0.6)
                assert engine.stats()["breaker_state"] == "half-open"
                probe = engine.query(161, seed=53, deadline=30.0)
                assert probe.breaker_state == "half-open"
                assert not probe.degraded
                assert probe.scores.tobytes() == probe_oracle.tobytes()
                stats = engine.stats()
                assert stats["breaker_state"] == "closed"
                assert stats["breaker_probes"] == 1
                assert engine.readiness()[0]

                # Back to normal full-size serving.
                after = engine.query(162, seed=54, deadline=30.0)
                assert after.breaker_state == "closed"

    def test_failed_probe_reopens(self, serve_graph):
        plan = {
            "executor_stall": {
                str(i): {"kind": "delay", "seconds": 1.0} for i in range(3)
            }
        }
        with faults.active(plan):
            with Engine(serve_graph, self._config()) as engine:
                for seed in (60, 61):
                    with pytest.raises(DeadlineExceededError):
                        engine.query(150, seed=seed, deadline=0.25)
                assert engine.stats()["breaker_state"] == "open"
                time.sleep(0.6)
                # The probe itself hits the third stall and fails.
                with pytest.raises(DeadlineExceededError):
                    engine.query(151, seed=62, deadline=0.25)
                stats = engine.stats()
                assert stats["breaker_state"] == "open"
                assert stats["breaker_trips"] == 2
                assert stats["breaker_probes"] == 1


class TestWatchdog:
    @pytest.mark.filterwarnings(
        # The injected raise is *supposed* to escape the dispatcher thread.
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dispatcher_kill_loses_no_queued_request(self, serve_graph):
        seeds = {101: 150, 102: 151, 103: 152}
        oracles = {
            seed: _solo(serve_graph, source, seed)
            for seed, source in seeds.items()
        }
        config = EngineConfig(
            n_r=32,
            batch_window=0.0,
            max_batch=1,
            seed=1234,
            watchdog_interval=0.02,
        )
        # Iteration 0 runs at startup; iterations 0 and 1 each serve one
        # request (max_batch=1); the raise at iteration 2 kills the
        # dispatcher *before* it pops the third request.
        plan = {"dispatcher": {"2": {"kind": "raise"}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                futures = {
                    seed: engine.submit(QueryRequest.make(source, seed=seed))
                    for seed, source in seeds.items()
                }
                for seed, future in futures.items():
                    result = future.result(timeout=60)
                    assert result.scores.tobytes() == oracles[seed].tobytes()
        stats = engine.stats()
        assert stats["dispatcher_restarts"] == 1
        assert stats["queries"] == 3

    def test_hung_dispatcher_is_replaced(self, serve_graph):
        oracle = _solo(serve_graph, 151, 112)
        config = EngineConfig(
            n_r=32,
            batch_window=0.0,
            max_batch=1,
            seed=1234,
            watchdog_interval=0.05,
            dispatcher_stall_timeout=0.25,
        )
        plan = {"dispatcher": {"1": {"kind": "delay", "seconds": 3.0}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                engine.query(150, seed=111)  # served by iteration 0
                # Iteration 1 is now sleeping inside the injected delay;
                # this request sits queued until the watchdog declares the
                # dispatcher hung and replaces it.
                started = time.monotonic()
                result = engine.query(151, seed=112, timeout=60)
                elapsed = time.monotonic() - started
                assert result.scores.tobytes() == oracle.tobytes()
                assert elapsed < 2.5, "answer waited for the full hang"
        assert engine.stats()["dispatcher_restarts"] == 1

    def test_stalled_executor_fails_only_the_inflight_request(
        self, serve_graph
    ):
        oracle = _solo(serve_graph, 151, 122)
        config = EngineConfig(
            n_r=32,
            batch_window=0.0,
            seed=1234,
            workers=1,
            watchdog_interval=0.05,
            dispatcher_stall_timeout=0.25,
        )
        plan = {"executor_stall": {"0": {"kind": "delay", "seconds": 2.0}}}
        with faults.active(plan):
            with Engine(serve_graph, config) as engine:
                future = engine.submit(
                    QueryRequest.make(150, seed=121, deadline=30.0)
                )
                with pytest.raises(DispatcherError):
                    future.result(timeout=60)
                # The replacement dispatcher keeps serving.
                result = engine.query(151, seed=122, timeout=60)
                assert result.scores.tobytes() == oracle.tobytes()
                assert engine.stats()["dispatcher_restarts"] == 1


class TestCloseSemantics:
    def test_concurrent_close_drains_once(self, serve_graph):
        config = EngineConfig(n_r=32, batch_window=0.002, seed=1234)
        engine = Engine(serve_graph, config)
        futures = [
            engine.submit(QueryRequest.make(150 + i, seed=200 + i))
            for i in range(6)
        ]
        errors = []

        def closer():
            try:
                engine.close(timeout=60)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "close() caller hung"
        assert not errors, errors
        assert engine.closed
        # Every request admitted before the close was answered.
        for i, future in enumerate(futures):
            result = future.result(timeout=1)
            oracle = _solo(serve_graph, 150 + i, 200 + i)
            assert result.scores.tobytes() == oracle.tobytes()
        stats = engine.stats()
        assert stats["queue_depth"] == 0
        assert stats["dispatcher_restarts"] == 0
        assert engine.registry.snapshot()["repro_engine_queue_depth"] == 0
        # Closing again is a cheap no-op; submitting is a clean rejection.
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(QueryRequest.make(150))
        assert engine.stats()["rejected"] == 1


class TestHttpOverload:
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
            thread.join(timeout=10)

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _post(self, server, payload, headers=None):
        request = urllib.request.Request(
            self._url(server, "/v1/query"),
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_deadline_header_flows_into_the_engine(
        self, server, serve_graph
    ):
        oracle = _solo(serve_graph, 3, 7, deadline=60.0)
        status, body = self._post(
            server,
            {"source": 3, "seed": 7},
            headers={"X-Repro-Deadline": "60"},
        )
        assert status == 200
        assert body["degraded"] is False
        assert body["breaker_state"] == "closed"
        assert body["scores"] == [float(s) for s in oracle]

    def test_expired_deadline_header_is_504_without_engine_work(
        self, server, engine
    ):
        before = engine.stats()["deadline_queries"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                server,
                {"source": 3, "seed": 7},
                headers={"X-Repro-Deadline": "-1"},
            )
        assert excinfo.value.code == 504
        assert engine.stats()["deadline_queries"] == before

    def test_malformed_deadline_header_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                server,
                {"source": 3, "seed": 7},
                headers={"X-Repro-Deadline": "soon"},
            )
        assert excinfo.value.code == 400

    def test_healthz_stays_live_while_readyz_reports_draining(
        self, serve_graph
    ):
        config = EngineConfig(n_r=32, batch_window=0.0, seed=1234)
        engine = Engine(serve_graph, config)
        server = create_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                self._url(server, "/readyz"), timeout=30
            ) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ready"
            engine.close()
            # Liveness survives the drain; readiness flips to 503 so load
            # balancers stop routing.
            with urllib.request.urlopen(
                self._url(server, "/healthz"), timeout=30
            ) as response:
                assert response.status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    self._url(server, "/readyz"), timeout=30
                )
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "draining"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            engine.close()

    def test_full_queue_maps_to_429_with_retry_after(self, serve_graph):
        config = EngineConfig(
            n_r=32, batch_window=0.0, seed=1234, max_queue_depth=1
        )
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 2.0}}}
        with faults.active(plan):
            engine = Engine(serve_graph, config)
            server = create_server(engine, port=0)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                filler = engine.submit(QueryRequest.make(150, seed=301))
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server, {"source": 151, "seed": 302})
                assert excinfo.value.code == 429
                retry_header = excinfo.value.headers.get("Retry-After")
                assert retry_header is not None
                assert int(retry_header) >= 1
                body = json.loads(excinfo.value.read())
                assert body["retry_after"] > 0
                assert filler.result(timeout=30) is not None
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
                engine.close()
        assert engine.stats()["overload_rejected"] == 1


class TestPublicExports:
    def test_overload_symbols_are_exported(self):
        import repro

        assert repro.EngineOverloadedError is EngineOverloadedError
        assert repro.DispatcherError is DispatcherError
        assert repro.BreakerState is BreakerState
        from repro.serve import SHED_POLICIES

        assert SHED_POLICIES == ("reject", "shed-oldest")
