"""Regression tests: one ParallelExecutor shared by many query threads.

PR 3's executor was built for one query at a time; the serving engine keeps
a single executor alive and lets concurrent requests run through it.  These
tests pin the thread-safety contract documented in
``repro/parallel/executor.py``:

* concurrent ``run()`` calls all complete with correct, ordered results;
* ``cancel()`` stops every run in flight and nothing started afterwards;
* a task that fails while several runs are in flight is retried within
  its own run — every run completes and the pool stays up;
* a deadline expiring in one run does not tear down the pool under a
  concurrent run.
"""

import threading
import time

import pytest

from repro.parallel import ParallelExecutor


def _square(x):
    return x * x


def _sleep_then_square(arg):
    delay, x = arg
    time.sleep(delay)
    return x * x


class _FailOnce:
    """Square, but raise the first time the marked task runs."""

    def __init__(self):
        self.failures = 0
        self._lock = threading.Lock()

    def __call__(self, arg):
        marked, x = arg
        if marked:
            with self._lock:
                first = self.failures == 0
                self.failures += 1
            if first:
                raise RuntimeError("injected task failure")
        return x * x


@pytest.fixture
def pool_executor():
    executor = ParallelExecutor(workers=2)
    try:
        yield executor
    finally:
        executor.close()


def _run_many(executor, n_threads, tasks_per_run, fn, make_tasks):
    outcomes = [None] * n_threads
    errors = []

    def worker(slot):
        try:
            outcomes[slot] = executor.run(fn, make_tasks(slot))
        except BaseException as exc:  # pragma: no cover - fail the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "executor run hung"
    assert not errors, errors
    return outcomes


class TestConcurrentRuns:
    def test_concurrent_runs_all_complete_in_order(self, pool_executor):
        n_threads, per_run = 4, 8
        outcomes = _run_many(
            pool_executor,
            n_threads,
            per_run,
            _square,
            lambda slot: [slot * per_run + i for i in range(per_run)],
        )
        for slot, outcome in enumerate(outcomes):
            assert outcome.all_completed
            expected = [(slot * per_run + i) ** 2 for i in range(per_run)]
            assert outcome.results == expected

    def test_concurrent_runs_serial_executor(self):
        with ParallelExecutor(workers=1) as executor:
            outcomes = _run_many(
                executor,
                4,
                4,
                _square,
                lambda slot: [slot * 4 + i for i in range(4)],
            )
        for slot, outcome in enumerate(outcomes):
            assert outcome.all_completed
            assert outcome.results == [(slot * 4 + i) ** 2 for i in range(4)]

    def test_task_failure_under_concurrency_recovers_every_run(
        self, pool_executor
    ):
        fail_once = _FailOnce()

        def make_tasks(slot):
            # Exactly one task in thread 0 fails, once.
            return [(slot == 0 and i == 1, slot * 8 + i) for i in range(8)]

        outcomes = _run_many(pool_executor, 3, 8, fail_once, make_tasks)
        for slot, outcome in enumerate(outcomes):
            assert outcome.all_completed, (slot, outcome.errors)
            assert outcome.results == [(slot * 8 + i) ** 2 for i in range(8)]
        assert fail_once.failures == 2
        assert [outcome.task_retries for outcome in outcomes] == [1, 0, 0]
        # Executor still healthy for the next query.
        assert not pool_executor.serial
        follow_up = pool_executor.run(_square, [5])
        assert follow_up.results == [25]

    def test_cancel_hits_every_inflight_run_but_not_later_ones(
        self, pool_executor
    ):
        started = threading.Barrier(3, timeout=30)

        def run_slow(slot):
            started.wait()
            return pool_executor.run(
                _sleep_then_square, [(0.2, i) for i in range(20)]
            )

        results = [None, None]
        threads = [
            threading.Thread(
                target=lambda s=slot: results.__setitem__(s, run_slow(s)),
                daemon=True,
            )
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        started.wait()  # both runs are dispatching
        time.sleep(0.3)
        pool_executor.cancel()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "cancelled run hung"
        assert all(outcome.cancelled for outcome in results)
        # Cancellation is not sticky: a later run completes normally.
        outcome = pool_executor.run(_square, [3, 4])
        assert not outcome.cancelled
        assert outcome.results == [9, 16]

    def test_deadline_in_one_run_leaves_concurrent_run_alone(
        self, pool_executor
    ):
        slow_outcome = {}

        def slow_run():
            slow_outcome["value"] = pool_executor.run(
                _sleep_then_square, [(0.4, i) for i in range(4)]
            )

        thread = threading.Thread(target=slow_run, daemon=True)
        thread.start()
        time.sleep(0.05)
        # This run's budget expires while the slow run is still in flight.
        hurried = pool_executor.run(
            _sleep_then_square,
            [(5.0, i) for i in range(4)],
            deadline=0.2,
        )
        assert hurried.deadline_hit
        thread.join(timeout=60)
        assert not thread.is_alive()
        outcome = slow_outcome["value"]
        # The deadline cleanup must not have torn down the shared pool:
        # every slow task completed.
        assert outcome.all_completed
        assert outcome.results == [i * i for i in range(4)]
