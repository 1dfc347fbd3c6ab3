"""ParallelExecutor: serial fallback, ordering, lifecycle, resilience."""

import gc
import threading
import time

import pytest

from repro import faults
from repro.errors import ParameterError
from repro.parallel import ParallelExecutor, resolve_workers, shard_sizes


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _sleep_tenth(x):
    time.sleep(0.1)
    return x


class _Recorder:
    """Record which thread ran each task, then hit the ``exec`` fault site."""

    def __init__(self):
        self.runs = []
        self._lock = threading.Lock()

    def __call__(self, index):
        with self._lock:
            self.runs.append((index, threading.current_thread().name))
        faults.inject("exec", index)
        return index

    def executions(self, index):
        return [name for task, name in self.runs if task == index]


class TestResolveWorkers:
    def test_none_uses_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_non_positive_rejected(self):
        with pytest.raises(ParameterError):
            resolve_workers(0)
        with pytest.raises(ParameterError):
            resolve_workers(-2)


class TestShardSizes:
    def test_sums_to_total_and_positive(self):
        for n_trials in (1, 5, 16, 17, 100, 12345):
            plan = shard_sizes(n_trials)
            assert sum(plan) == n_trials
            assert all(size > 0 for size in plan)
            assert len(plan) <= 16

    def test_fewer_trials_than_shards(self):
        assert shard_sizes(3, shards=16) == [1, 1, 1]

    def test_zero_trials(self):
        assert shard_sizes(0) == []

    def test_near_equal_split(self):
        plan = shard_sizes(100, shards=16)
        assert max(plan) - min(plan) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            shard_sizes(-1)
        with pytest.raises(ParameterError):
            shard_sizes(10, shards=0)


class TestSerialFallback:
    def test_workers_one_is_serial(self):
        with ParallelExecutor(1) as executor:
            assert executor.serial
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_map_preserves_order(self):
        with ParallelExecutor(1) as executor:
            assert executor.map(_square, range(20)) == [i * i for i in range(20)]


class TestThreadPool:
    def test_pool_map_ordered(self):
        with ParallelExecutor(2) as executor:
            assert not executor.serial
            assert executor.map(_square, range(10)) == [i * i for i in range(10)]

    def test_close_turns_serial(self):
        executor = ParallelExecutor(2)
        executor.close()
        assert executor.serial
        assert executor.map(_square, [4]) == [16]
        executor.close()  # idempotent

    def test_repr_names_mode(self):
        with ParallelExecutor(1) as executor:
            assert "serial" in repr(executor)

    def test_tasks_run_on_pool_threads(self):
        recorder = _Recorder()
        with ParallelExecutor(2) as executor:
            assert executor.map(recorder, range(6)) == list(range(6))
        names = {name for _, name in recorder.runs}
        assert names and all(name.startswith("repro-exec") for name in names)

    def test_stale_start_method_env_is_ignored(self, monkeypatch):
        # REPRO_START_METHOD chose the start method of the retired process
        # pool; a value left in the environment must not stop a pool.
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with ParallelExecutor(2) as executor:
            assert not executor.serial
            assert executor.map(_square, [3]) == [9]


@pytest.fixture
def pool_executor():
    executor = ParallelExecutor(2)
    yield executor
    executor.close()


class TestPoolRelease:
    def test_finalizer_releases_pool_on_gc(self):
        executor = ParallelExecutor(2)
        pool = executor._pool
        finalizer = executor._finalizer
        assert finalizer.alive
        del executor
        gc.collect()
        assert not finalizer.alive
        assert pool._shutdown  # shutdown() reached the pool

    def test_close_detaches_finalizer(self, pool_executor):
        finalizer = pool_executor._finalizer
        pool_executor.close()
        assert not finalizer.alive
        assert pool_executor.serial


class TestRunSemantics:
    def test_records_error_after_retry_budget(self):
        with ParallelExecutor(1) as executor:
            outcome = executor.run(_fail_on_three, range(5), task_retries=1)
        assert outcome.completed == [True, True, True, False, True]
        assert isinstance(outcome.errors[3], ValueError)
        assert outcome.task_retries == 1
        assert outcome.first_error() is outcome.errors[3]
        assert not outcome.all_completed
        assert outcome.num_completed == 4

    def test_deadline_must_be_positive(self):
        with ParallelExecutor(1) as executor:
            with pytest.raises(ParameterError):
                executor.run(_square, [1], deadline=0)

    def test_serial_deadline_keeps_completed_prefix(self):
        with ParallelExecutor(1) as executor:
            outcome = executor.run(_sleep_tenth, range(50), deadline=0.35)
        assert outcome.deadline_hit
        assert not outcome.all_completed
        assert outcome.num_completed >= 1
        done = outcome.num_completed
        assert outcome.results[:done] == list(range(done))

    def test_cancel_returns_partial_outcome(self):
        with ParallelExecutor(1) as executor:
            timer = threading.Timer(0.25, executor.cancel)
            timer.start()
            try:
                outcome = executor.run(_sleep_tenth, range(100))
            finally:
                timer.cancel()
        assert outcome.cancelled
        assert not outcome.all_completed
        assert outcome.num_completed >= 1


class TestCloseUnderARun:
    def test_close_lets_a_run_in_flight_finish(self, pool_executor):
        timer = threading.Timer(0.15, pool_executor.close)
        timer.start()
        try:
            outcome = pool_executor.run(_sleep_tenth, range(8))
        finally:
            timer.join()
        assert outcome.all_completed
        assert outcome.results == list(range(8))
        assert pool_executor.serial

    def test_map_runs_a_retry_the_closed_pool_refused(self):
        # Task 0 fails once and backs off for at least 0.5s; the executor
        # is closed meanwhile, so no pool can take the retry and map runs
        # it in-process instead of losing it.
        attempts = []

        def flaky(x):
            attempts.append(x)
            if x == 0 and attempts.count(0) == 1:
                raise ValueError("first attempt")
            return x

        executor = ParallelExecutor(2, retry_backoff=0.5)
        timer = threading.Timer(0.2, executor.close)
        timer.start()
        try:
            assert executor.map(flaky, range(4)) == [0, 1, 2, 3]
        finally:
            timer.join()
        assert attempts.count(0) == 2
        assert executor.serial


class TestTaskFailure:
    def test_run_resubmits_only_failed_tasks(self, pool_executor):
        # Task 0 raises once.  It is retried exactly once, on a pool
        # thread; every other task ran once and kept its result.
        recorder = _Recorder()
        with faults.active({"exec": {"0": {"kind": "raise"}}}):
            outcome = pool_executor.run(recorder, range(8))
        assert outcome.all_completed
        assert outcome.results == list(range(8))
        assert outcome.task_retries == 1
        assert len(recorder.executions(0)) == 2
        for index in range(1, 8):
            assert len(recorder.executions(index)) == 1
        assert all(name.startswith("repro-exec") for _, name in recorder.runs)

    def test_map_keeps_completed_results_across_a_failure(self, pool_executor):
        recorder = _Recorder()
        with faults.active({"exec": {"2": {"kind": "raise"}}}):
            assert pool_executor.map(recorder, range(8)) == list(range(8))
        assert len(recorder.executions(2)) == 2
        assert len(recorder.runs) == 9
        assert not pool_executor.serial
