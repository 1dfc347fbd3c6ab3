"""Fault-tolerant pooled execution: a thread pool with a serial fallback.

:class:`ParallelExecutor` is the one place worker pools are created.
Policy:

* ``workers=1`` runs every task in-process, in order — the *same* shard
  decomposition as the pooled path, so results are bit-identical at any
  worker count;
* ``workers > 1`` runs tasks on a ``concurrent.futures.ThreadPoolExecutor``
  in the calling process.  Tasks are plain closures — no pickling, no
  shared-memory shipping, no interpreter startup.  Shard bodies scale
  because most of their time is spent with the GIL released: the numba
  step loops in :mod:`repro.walks._jit` are compiled ``nogil=True``, and
  the NumPy fallback releases the GIL inside its larger array ops.

Two entry points share one future-based engine (:meth:`ParallelExecutor.run`):

* :meth:`ParallelExecutor.map` — the strict, all-or-raise surface.  Task
  exceptions propagate; tasks the pool could not take (it was closed
  under the call) run in-process instead.
* :meth:`ParallelExecutor.run` — the resilient surface the query drivers
  use.  It returns a :class:`MapOutcome` recording, per task, the result or
  the failure; honours a wall-clock ``deadline`` (seconds); retries failed
  tasks up to ``task_retries`` times; and supports cooperative
  cancellation via :meth:`ParallelExecutor.cancel`.  It never raises for a
  lost task — the caller decides whether a partial outcome is acceptable
  (CrashSim's Monte-Carlo structure makes any completed-shard prefix a
  valid, wider-ε estimator; see docs/internals.md §9).

``map``/``run`` always index results in task order; the deterministic
seed-shard scheme in :mod:`repro.parallel.runner` relies on that ordering to
sum shard totals identically regardless of scheduling, retries, or losses.

Pools are released deterministically by ``close()`` / the context manager,
and as a backstop by a ``weakref.finalize`` hook so abandoned executors do
not keep idle worker threads.

Thread safety
-------------
One executor may be shared by many threads issuing :meth:`run` / :meth:`map`
calls concurrently — the query-serving engine keeps a single executor alive
across requests.  The contract:

* every pool-lifecycle transition (build, release, abandon) happens under
  an internal lock;
* each :meth:`run` call owns a private cancellation event;
  :meth:`cancel` cancels every run in flight at that moment and nothing
  else — a later ``run`` starts with a clean slate;
* a run whose deadline expires (or that is cancelled) abandons the shared
  pool only when it is the *sole* run in flight; otherwise it just cancels
  its own pending futures so concurrent runs keep their workers;
* an abandoned pool's threads run on until their shards end, so live
  worker threads are capped at ``2 × workers``: while abandoned threads
  still number more than ``workers``, no new pool is built — a run with
  a deadline waits (inside its budget) for them to end, and a run
  without one runs serially;
* ``close()`` lets the tasks already queued finish, so runs in flight
  on other threads complete; a retry that finds the executor closed is
  recorded as lost (:meth:`ParallelExecutor.map` runs it in-process).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro import faults, obs
from repro.errors import ParameterError

__all__ = [
    "ParallelExecutor",
    "MapOutcome",
    "RetryBudget",
    "resolve_workers",
    "resolve_mode",
    "get_default_executor",
    "reset_default_executors",
]

# Executor accounting flows through MapOutcome already; run() flushes the
# finished outcome into these process-wide counters in one pass, so the
# dispatch/wait loops stay metric-free.
_M_RUNS = obs.REGISTRY.counter(
    "repro_executor_runs_total", "ParallelExecutor.run calls."
)
_M_TASKS = obs.REGISTRY.counter(
    "repro_executor_tasks_total", "Tasks submitted across all runs."
)
_M_TASKS_COMPLETED = obs.REGISTRY.counter(
    "repro_executor_tasks_completed_total", "Tasks that produced a result."
)
_M_TASK_RETRIES = obs.REGISTRY.counter(
    "repro_executor_task_retries_total",
    "Task resubmissions after a failure.",
)
_M_DEADLINE_EXPIRIES = obs.REGISTRY.counter(
    "repro_executor_deadline_expiries_total",
    "Runs cut off by their wall-clock deadline.",
)
_M_CANCELLED = obs.REGISTRY.counter(
    "repro_executor_cancelled_runs_total", "Runs stopped by cancel()."
)

T = TypeVar("T")
R = TypeVar("R")

#: Default number of times a single failed task is resubmitted.
DEFAULT_TASK_RETRIES = 2

#: Hard cap on any single retry-backoff sleep (seconds).
RETRY_BACKOFF_CAP = 2.0

_M_RETRY_BUDGET_EXHAUSTED = obs.REGISTRY.counter(
    "repro_executor_retry_budget_exhausted_total",
    "Resubmissions denied because the retry budget had no tokens.",
)


def retry_delay(base: float, attempt: int, index: int) -> float:
    """Exponential backoff with deterministic jitter for one resubmission.

    ``base * 2**(attempt-1)`` scaled by a jitter factor in ``[1, 2)``
    derived from an integer hash of ``(index, attempt)`` — no RNG, so the
    executor's byte-identity contract is untouched and the same retry
    schedule replays under any scheduling.  Capped at
    :data:`RETRY_BACKOFF_CAP`.
    """
    if base <= 0:
        return 0.0
    jitter = ((index * 2654435761 + attempt * 40503 + 12345) % 1024) / 1024.0
    return min(RETRY_BACKOFF_CAP, base * (2 ** (attempt - 1)) * (1.0 + jitter))


class RetryBudget:
    """A token-style bound on retry amplification across an executor's life.

    Unbounded resubmission turns a sick pool into a retry storm: every
    failing task earns ``task_retries`` more submissions, multiplying load
    exactly when the system can least afford it.  The budget caps the
    *ratio*: each submitted task deposits ``ratio`` tokens (so a healthy
    workload accrues headroom) and each resubmission spends one.  When the
    bucket is empty the task's original error is recorded instead of
    retrying — per-run ``task_retries`` still applies on top.

    Thread-safe; one budget may be shared by every run on an executor
    (that is how :class:`~repro.serve.Engine` uses it).
    """

    def __init__(
        self,
        ratio: float = 0.25,
        min_tokens: int = 16,
        max_tokens: int = 256,
    ):
        if ratio < 0:
            raise ParameterError(f"ratio must be non-negative, got {ratio}")
        if min_tokens < 1:
            raise ParameterError(
                f"min_tokens must be positive, got {min_tokens}"
            )
        if max_tokens < min_tokens:
            raise ParameterError(
                f"max_tokens ({max_tokens}) must be >= min_tokens "
                f"({min_tokens})"
            )
        self.ratio = float(ratio)
        self.min_tokens = int(min_tokens)
        self.max_tokens = int(max_tokens)
        self._tokens = float(min_tokens)
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def deposit(self, submitted_tasks: int) -> None:
        """Earn ``ratio`` tokens per task submitted, up to ``max_tokens``."""
        with self._lock:
            self._tokens = min(
                float(self.max_tokens),
                self._tokens + self.ratio * max(0, submitted_tasks),
            )

    def try_spend(self) -> bool:
        """Consume one token for a resubmission; ``False`` when exhausted."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: ``None`` → CPU count, else ≥ 1."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ParameterError(f"workers must be positive, got {workers}")
    return workers


def resolve_mode(mode: str) -> str:
    """The execution tier that runs sharded queries: always ``"thread"``.

    There is one tier and no option selects it.  This function is kept
    only for the benchmark's machine fingerprint, which records
    ``resolve_mode("auto")``; ``"auto"`` is the one value accepted.
    """
    if mode != "auto":
        raise ParameterError(f"mode must be 'auto'; got {mode!r}")
    return "thread"


class _PoolUnavailable(RuntimeError):
    """A task no pool could take: the executor was closed under the run."""


def _shutdown_pool(pool) -> None:
    """GC-time backstop: release workers without blocking the collector."""
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class MapOutcome:
    """Per-task accounting of one :meth:`ParallelExecutor.run` call.

    ``results[i]`` is meaningful only where ``completed[i]`` is true;
    ``errors[i]`` holds the final exception of a task that exhausted its
    retries (``None`` for tasks that completed or were simply cut off by
    the deadline / cancellation).
    """

    results: List[Any] = field(default_factory=list)
    completed: List[bool] = field(default_factory=list)
    errors: List[Optional[BaseException]] = field(default_factory=list)
    deadline_hit: bool = False
    cancelled: bool = False
    task_retries: int = 0
    elapsed: float = 0.0

    @property
    def all_completed(self) -> bool:
        return all(self.completed)

    @property
    def num_completed(self) -> int:
        return sum(1 for done in self.completed if done)

    def first_error(self) -> Optional[BaseException]:
        """The lowest-indexed recorded task error (deterministic)."""
        for error in self.errors:
            if error is not None:
                return error
        return None


class ParallelExecutor:
    """Run tasks over ``workers`` threads (or serially).

    Parameters
    ----------
    workers:
        Worker count; ``None`` uses the CPU count, ``1`` forces the serial
        in-process path.
    retry_backoff:
        Base (seconds) of the exponential, deterministically-jittered
        sleep before each task resubmission (see :func:`retry_delay`).
        The default ``0.0`` keeps the legacy immediate-retry behaviour.
        Sleeps are clipped to the run's remaining deadline.
    retry_budget:
        Optional shared :class:`RetryBudget` bounding total resubmissions
        across every run on this executor; ``None`` (default) keeps
        retries bounded only by the per-run ``task_retries``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        retry_backoff: float = 0.0,
        retry_budget: Optional[RetryBudget] = None,
    ):
        self.workers = resolve_workers(workers)
        if retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be non-negative, got {retry_backoff}"
            )
        self.retry_backoff = float(retry_backoff)
        self.retry_budget = retry_budget
        self._run_ordinal = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        # Threads of abandoned pools, dropped once they have ended.
        self._abandoned_threads: List[threading.Thread] = []
        self._finalizer: Optional[weakref.finalize] = None
        # Pool lifecycle is shared mutable state; every transition happens
        # under this lock.
        self._lock = threading.RLock()
        self._active_cancel_events: set = set()
        self._active_runs = 0
        self._pool_disabled = self.workers <= 1
        self._ensure_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(
        self, deadline_at: Optional[float] = None
    ) -> Optional[ThreadPoolExecutor]:
        """The live pool, building it (again, after an abandon) if needed.

        ``None`` means run serially: the executor is serial or closed, or
        a new pool would exceed the thread cap and no abandoned thread
        ended before ``deadline_at`` (a run without a deadline does not
        wait).
        """
        if self._pool is None and not self._pool_disabled:
            self._await_thread_headroom(deadline_at)
        with self._lock:
            if (
                self._pool is None
                and not self._pool_disabled
                and self._thread_over_cap() is None
            ):
                pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
                self._pool = pool
                # Backstop for callers that skip the context manager:
                # release the workers when the executor is collected.  The
                # callback must not reference ``self`` or the executor
                # would never be collected.
                self._finalizer = weakref.finalize(self, _shutdown_pool, pool)
            return self._pool

    def _thread_over_cap(self) -> Optional[threading.Thread]:
        """A live abandoned thread, while a fresh pool would take live
        threads past ``2 × workers``; ``None`` once one fits."""
        with self._lock:
            self._abandoned_threads = [
                thread for thread in self._abandoned_threads if thread.is_alive()
            ]
            if len(self._abandoned_threads) > self.workers:
                return self._abandoned_threads[0]
            return None

    def _await_thread_headroom(self, deadline_at: Optional[float]) -> None:
        """Wait for abandoned threads to end until a fresh pool fits under
        the cap, giving up at ``deadline_at`` (at once without one)."""
        while deadline_at is not None:
            blocker = self._thread_over_cap()
            remaining = deadline_at - time.monotonic()
            if blocker is None or remaining <= 0:
                return
            blocker.join(remaining)

    def _release_pool(self, abandon: bool) -> None:
        """Drop the pool.  ``abandon`` returns at once and cancels queued
        tasks; otherwise queued tasks finish and their threads are joined.

        Only the sole run in flight abandons: ``shutdown`` cancels a
        queued future without waking a ``wait`` on it, so another run's
        futures must never be cancelled under it.
        """
        with self._lock:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            pool, self._pool = self._pool, None
            if pool is not None and abandon:
                # ``_threads`` is every thread the pool started; none can
                # start later, since submits happen inside runs and only
                # the sole run abandons.
                self._abandoned_threads.extend(pool._threads)
        if pool is not None:
            pool.shutdown(wait=not abandon, cancel_futures=abandon)

    def _abandon_pool_if_sole(self) -> None:
        """Drop a pool whose workers may still be running (deadline path).

        ``shutdown(wait=False)`` returns immediately; a shard that is
        mid-sleep keeps its thread busy until it ends, but the query
        returns now.  The next ``run``/``map`` builds a fresh pool once
        the abandoned threads still alive number at most ``workers``.  When
        *other* runs share this executor the pool is left alone — their
        shards are still executing in it — and only this run's pending
        futures are cancelled by the caller.
        """
        with self._lock:
            if self._active_runs > 1:
                return
            self._release_pool(abandon=True)

    @property
    def serial(self) -> bool:
        """Whether tasks currently run in-process (no pool)."""
        return self._pool is None

    @property
    def mode_label(self) -> str:
        """The tier executing tasks right now: ``serial`` or ``thread``."""
        return "serial" if self.serial else "thread"

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor turns serial.

        Waits for the tasks already queued, so runs in flight finish.
        """
        with self._lock:
            self._pool_disabled = True
        self._release_pool(abandon=False)

    def cancel(self) -> None:
        """Cooperatively cancel every in-flight :meth:`run` (thread-safe).

        Each running call stops dispatching new work, abandons unfinished
        shards, and returns a partial :class:`MapOutcome` with
        ``cancelled=True``.  Completed task results are kept.  Runs started
        *after* this call are unaffected — cancellation is not sticky.
        """
        with self._lock:
            events = list(self._active_cancel_events)
        for event in events:
            event.set()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every task, returning results in task order.

        Strict surface: a task exception that survives the default retry
        budget is re-raised.  Tasks the pool did not finish — it was closed
        under the call, or the run was cancelled — run in-process instead.
        """
        task_list: Sequence[T] = list(tasks)
        if self._ensure_pool() is None:
            return [fn(task) for task in task_list]
        outcome = self.run(fn, task_list)
        error = outcome.first_error()
        if error is not None and not isinstance(error, _PoolUnavailable):
            raise error
        results = list(outcome.results)
        for index, done in enumerate(outcome.completed):
            if not done:
                results[index] = fn(task_list[index])
        return results

    def run(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        *,
        deadline: Optional[float] = None,
        task_retries: int = DEFAULT_TASK_RETRIES,
    ) -> MapOutcome:
        """Resilient map: per-task futures, bounded retry, wall-clock budget.

        Parameters
        ----------
        fn, tasks:
            As :meth:`map`.
        deadline:
            Wall-clock budget in seconds for the whole call.  When it
            elapses, pending tasks are cancelled, running ones abandoned
            (their pool is dropped and rebuilt lazily, within the thread
            cap), and the outcome reports ``deadline_hit=True`` with
            whatever completed.  The serial path checks the clock
            *between* tasks (cooperative).
        task_retries:
            How many times one task is resubmitted after raising, before
            its error is recorded.

        Never raises for task failures — inspect the returned
        :class:`MapOutcome`.
        """
        if deadline is not None and deadline <= 0:
            raise ParameterError(f"deadline must be positive, got {deadline}")
        task_list: Sequence[T] = list(tasks)
        n = len(task_list)
        outcome = MapOutcome(
            results=[None] * n, completed=[False] * n, errors=[None] * n
        )
        started = time.monotonic()
        deadline_at = None if deadline is None else started + deadline
        with self._lock:
            run_ordinal = self._run_ordinal
            self._run_ordinal += 1
        if self.retry_budget is not None:
            self.retry_budget.deposit(n)
        # Chaos site, indexed by this executor's run ordinal.  The stall is
        # charged against the deadline (deadline_at is already fixed), so a
        # "delay" here deterministically turns the run into a deadline
        # expiry — how the serve suite trips the engine's circuit breaker.
        faults.inject("executor_stall", run_ordinal)
        # Each run owns its cancellation event; cancel() snapshots the set
        # of live runs, so concurrent runs never clear each other's flag.
        cancel_event = threading.Event()
        with self._lock:
            self._active_cancel_events.add(cancel_event)
            self._active_runs += 1

        def out_of_time() -> bool:
            return deadline_at is not None and time.monotonic() >= deadline_at

        serial = self._ensure_pool(deadline_at) is None
        try:
            engine = self._run_serial if serial else self._run_pooled
            engine(
                fn, task_list, outcome, deadline_at, out_of_time,
                task_retries, cancel_event,
            )
        finally:
            with self._lock:
                self._active_cancel_events.discard(cancel_event)
                self._active_runs -= 1
        outcome.elapsed = time.monotonic() - started
        # Flush once, twice per family: the bare parent keeps the total and
        # the mode-labelled child records which tier (serial / thread)
        # served the run.
        mode = "serial" if serial else "thread"
        _M_RUNS.inc()
        _M_RUNS.labels(mode=mode).inc()
        _M_TASKS.inc(n)
        _M_TASKS.labels(mode=mode).inc(n)
        _M_TASKS_COMPLETED.inc(outcome.num_completed)
        _M_TASKS_COMPLETED.labels(mode=mode).inc(outcome.num_completed)
        _M_TASK_RETRIES.inc(outcome.task_retries)
        _M_TASK_RETRIES.labels(mode=mode).inc(outcome.task_retries)
        if outcome.deadline_hit:
            _M_DEADLINE_EXPIRIES.inc()
            _M_DEADLINE_EXPIRIES.labels(mode=mode).inc()
        if outcome.cancelled:
            _M_CANCELLED.inc()
            _M_CANCELLED.labels(mode=mode).inc()
        return outcome

    # -- retry policy ----------------------------------------------------

    def _may_retry(self) -> bool:
        """Charge one resubmission to the shared budget (if any)."""
        if self.retry_budget is None:
            return True
        if self.retry_budget.try_spend():
            return True
        _M_RETRY_BUDGET_EXHAUSTED.inc()
        return False

    def _backoff(self, index: int, attempt: int, deadline_at: Optional[float]) -> None:
        """Sleep the deterministic backoff, clipped to the run's deadline."""
        delay = retry_delay(self.retry_backoff, attempt, index)
        if delay <= 0:
            return
        if deadline_at is not None:
            delay = min(delay, max(0.0, deadline_at - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    # -- serial engine --------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[[T], R],
        task_list: Sequence[T],
        outcome: MapOutcome,
        deadline_at: Optional[float],
        out_of_time: Callable[[], bool],
        task_retries: int,
        cancel_event: threading.Event,
    ) -> None:
        for index, task in enumerate(task_list):
            if cancel_event.is_set():
                outcome.cancelled = True
                return
            if out_of_time():
                outcome.deadline_hit = True
                return
            attempts = 0
            while True:
                try:
                    outcome.results[index] = fn(task)
                    outcome.completed[index] = True
                    break
                except Exception as exc:
                    attempts += 1
                    if attempts > task_retries or not self._may_retry():
                        outcome.errors[index] = exc
                        break
                    outcome.task_retries += 1
                    obs.event("retry", task=index, attempt=attempts)
                    self._backoff(index, attempts, deadline_at)
                    if out_of_time():
                        outcome.errors[index] = exc
                        outcome.deadline_hit = True
                        return

    # -- pooled engine --------------------------------------------------

    def _run_pooled(
        self,
        fn: Callable[[T], R],
        task_list: Sequence[T],
        outcome: MapOutcome,
        deadline_at: Optional[float],
        out_of_time: Callable[[], bool],
        task_retries: int,
        cancel_event: threading.Event,
    ) -> None:
        attempts = [0] * len(task_list)
        pending = {}  # future -> task index

        def submit(index: int) -> None:
            pool = self._ensure_pool()
            try:
                if pool is not None:
                    pending[pool.submit(fn, task_list[index])] = index
                    return
            except RuntimeError:  # shut down between the lookup and submit
                pass
            outcome.errors[index] = _PoolUnavailable(
                f"task {index}: the executor was closed"
            )

        for index in range(len(task_list)):
            submit(index)

        while pending:
            if cancel_event.is_set():
                outcome.cancelled = True
                break
            timeout = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - time.monotonic())
            )
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                outcome.deadline_hit = True
                break
            resubmit: List[int] = []
            for future in done:
                index = pending.pop(future)
                try:
                    outcome.results[index] = future.result()
                    outcome.completed[index] = True
                except Exception as exc:
                    attempts[index] += 1
                    if attempts[index] > task_retries or not self._may_retry():
                        outcome.errors[index] = exc
                    else:
                        outcome.task_retries += 1
                        obs.event("retry", task=index, attempt=attempts[index])
                        resubmit.append(index)
            if resubmit and out_of_time():
                outcome.deadline_hit = True
                break
            for index in sorted(resubmit):
                self._backoff(index, attempts[index], deadline_at)
                if out_of_time():
                    # The budget ran out mid-backoff; whatever was not
                    # resubmitted is simply cut off, like any other
                    # deadline expiry.
                    outcome.deadline_hit = True
                    break
                submit(index)

        if pending or outcome.deadline_hit or outcome.cancelled:
            for future in pending:
                future.cancel()
            # Workers may still be executing abandoned shards; drop the
            # pool without waiting so the caller gets its partial result
            # inside the budget — unless other runs share this executor,
            # in which case their shards keep the pool.  The next run()
            # rebuilds lazily.
            self._abandon_pool_if_sole()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"mode={self.mode_label})"
        )


# ----------------------------------------------------------------------
# Process-wide default executors
# ----------------------------------------------------------------------
#
# ``parallel_crashsim`` and friends used to build a fresh ParallelExecutor
# per call when none was passed in — paying pool startup on every query.
# The default-executor registry amortises that: one lazily-built executor
# per worker count, shared by every driver call in the process.  Teardown
# rides the executors' own ``weakref.finalize`` pool backstops, which the
# interpreter runs at exit for anything still registered here.

_DEFAULT_EXECUTORS: Dict[int, ParallelExecutor] = {}
_DEFAULT_EXECUTORS_LOCK = threading.Lock()


def get_default_executor(workers: Optional[int] = None) -> ParallelExecutor:
    """The process-wide shared executor for ``workers``.

    Built lazily on first use and kept for the life of the process, so
    repeated ``parallel_*`` calls (and ``api.single_source(workers=...)``)
    reuse one warm pool instead of paying pool construction per query.
    Callers must **not** close the returned executor; use
    :func:`reset_default_executors` to drop and rebuild the registry.
    """
    resolved_workers = resolve_workers(workers)
    with _DEFAULT_EXECUTORS_LOCK:
        executor = _DEFAULT_EXECUTORS.get(resolved_workers)
        stale = executor is not None and (
            executor._pool_disabled and resolved_workers > 1
        )
        if executor is None or stale:
            executor = ParallelExecutor(resolved_workers)
            _DEFAULT_EXECUTORS[resolved_workers] = executor
        return executor


def reset_default_executors() -> None:
    """Close and forget every shared default executor (idempotent).

    Closing waits for the pools' threads to finish, so a caller that
    wants no worker left running (a benchmark between workloads, a test
    that counts threads) calls this first.
    """
    with _DEFAULT_EXECUTORS_LOCK:
        executors = list(_DEFAULT_EXECUTORS.values())
        _DEFAULT_EXECUTORS.clear()
    for executor in executors:
        executor.close()
