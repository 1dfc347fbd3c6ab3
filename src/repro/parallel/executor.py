"""Fault-tolerant pooled execution: process tier, thread tier, serial fallback.

:class:`ParallelExecutor` is the one place worker pools are created.
Policy:

* ``workers=1`` (or a platform where process pools cannot start) runs every
  task in-process, in order — the *same* shard decomposition as the
  parallel path, so results are bit-identical at any worker count;
* ``mode="process"`` uses a ``concurrent.futures.ProcessPoolExecutor``,
  preferring the cheap ``fork`` start method where available and falling
  back to ``spawn``.  Worker functions must therefore be importable
  module-level callables with picklable arguments (shard tasks carry
  shared-memory specs, not graphs);
* ``mode="thread"`` uses a ``concurrent.futures.ThreadPoolExecutor`` in the
  calling process.  Tasks are plain closures — no pickling, no
  shared-memory shipping, no interpreter startup — which pays off when the
  task body releases the GIL: the numba step loops in
  :mod:`repro.walks._jit` are compiled ``nogil=True``, and the NumPy
  fallback releases the GIL inside its larger array ops;
* ``mode="auto"`` picks the thread tier when the nogil JIT is importable
  *and* requested (``REPRO_JIT=1``), because then threads scale without
  any process-tier overhead; otherwise it picks processes, which sidestep
  the GIL entirely for the pure-NumPy kernel.  See
  :func:`resolve_mode`.

Two entry points share one future-based engine (:meth:`ParallelExecutor.run`):

* :meth:`ParallelExecutor.map` — the strict, all-or-raise surface.  Task
  exceptions propagate; a pool that breaks mid-run is **rebuilt and only the
  lost tasks resubmitted** — results that already completed are never
  discarded or recomputed — degrading to in-process execution of the
  *remainder* only if no pool can be rebuilt.
* :meth:`ParallelExecutor.run` — the resilient surface the query drivers
  use.  It returns a :class:`MapOutcome` recording, per task, the result or
  the failure; honours a wall-clock ``deadline`` (seconds); retries failed
  tasks up to ``task_retries`` times; survives up to ``pool_rebuilds`` pool
  breakages (worker death); and supports cooperative cancellation via
  :meth:`ParallelExecutor.cancel`.  It never raises for a lost task — the
  caller decides whether a partial outcome is acceptable (CrashSim's
  Monte-Carlo structure makes any completed-shard prefix a valid, wider-ε
  estimator; see docs/internals.md §9).

``map``/``run`` always index results in task order; the deterministic
seed-shard scheme in :mod:`repro.parallel.runner` relies on that ordering to
sum shard totals identically regardless of scheduling, retries, or losses.

Pools are released deterministically by ``close()`` / the context manager,
and as a backstop by a ``weakref.finalize`` hook so abandoned executors do
not leak worker processes.

Thread safety
-------------
One executor may be shared by many threads issuing :meth:`run` / :meth:`map`
calls concurrently — the query-serving engine keeps a single executor alive
across requests.  The contract:

* every pool-lifecycle transition (build, release, abandon) happens under an
  internal lock, tagged with a monotonically increasing *generation*; a
  breakage observed by several runs at once rebuilds the pool exactly once
  (the run that arrives second sees the newer generation and simply
  resubmits its lost tasks to the already-rebuilt pool);
* each :meth:`run` call owns a private cancellation event;
  :meth:`cancel` cancels every run in flight at that moment and nothing
  else — a later ``run`` starts with a clean slate;
* a run whose deadline expires (or that is cancelled) abandons the shared
  pool only when it is the *sole* run in flight; otherwise it just cancels
  its own pending futures so concurrent runs keep their workers;
* a future orphaned by another thread's ``close()`` surfaces as
  ``CancelledError`` and is treated like a lost task — retried on a fresh
  pool when one is allowed, recorded as an error otherwise.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
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

#: Accepted values for the ``mode`` parameter.
EXECUTOR_MODES = ("process", "thread", "auto")

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
    "Task resubmissions after a failure or a lost worker.",
)
_M_POOL_REBUILDS = obs.REGISTRY.counter(
    "repro_executor_pool_rebuilds_total",
    "Process-pool rebuilds after worker death.",
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

#: Default number of times a single failed/lost task is resubmitted.
DEFAULT_TASK_RETRIES = 2

#: Default number of times a broken pool is rebuilt within one run.
DEFAULT_POOL_REBUILDS = 2

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
    """Resolve ``"auto"`` to a concrete tier; validate explicit choices.

    ``auto`` prefers threads exactly when the nogil JIT step loops are both
    importable and requested (``REPRO_JIT``): compiled ``nogil=True`` shard
    bodies scale across threads with none of the process tier's pickling /
    shared-memory / startup overhead.  Without the JIT the pure-NumPy
    kernel holds the GIL for part of each step, so processes remain the
    safer default for CPU-bound scaling.
    """
    if mode not in EXECUTOR_MODES:
        raise ParameterError(
            f"mode must be one of {', '.join(EXECUTOR_MODES)}; got {mode!r}"
        )
    if mode != "auto":
        return mode
    from repro.walks import _jit

    if _jit.jit_requested() and _jit.available():
        return "thread"
    return "process"


def _preferred_context() -> Optional[multiprocessing.context.BaseContext]:
    # REPRO_START_METHOD forces a specific start method (CI runs the parallel
    # suite under both fork and spawn this way); otherwise prefer fork.
    forced = os.environ.get("REPRO_START_METHOD")
    methods = multiprocessing.get_all_start_methods()
    if forced:
        if forced not in methods:
            raise ParameterError(
                f"REPRO_START_METHOD={forced!r} is not a valid multiprocessing "
                f"start method on this platform; allowed: {', '.join(methods)}"
            )
        return multiprocessing.get_context(forced)
    for method in ("fork", "spawn", "forkserver"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None  # pragma: no cover - every CPython platform has one


#: glibc ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _init_worker() -> None:
    """Let a pool worker's heap keep freed shard scratch for the next shard.

    Every process-tier shard builds a fresh walk kernel whose step buffers
    take tens of megabytes.  Under glibc's default, dynamic thresholds a
    worker hands them back to the OS after each shard and faults them in
    again on the next — unless it inherited raised thresholds from a
    parent that happened to free a large array before the pool started.
    Fixed thresholds make a shard cost the same whatever the start method
    or the moment of the fork.  A no-op where there is no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


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
    pool_rebuilds: int = 0
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
    """Run tasks over ``workers`` processes or threads (or serially).

    Parameters
    ----------
    workers:
        Worker count; ``None`` uses the CPU count, ``1`` forces the serial
        in-process path.
    start_method:
        Optional multiprocessing start-method override (``"fork"``,
        ``"spawn"``, ``"forkserver"``); default honours the
        ``REPRO_START_METHOD`` environment variable, then prefers ``fork``.
        Ignored by the thread tier.
    mode:
        ``"process"`` (default, pickling worker functions into a process
        pool), ``"thread"`` (a thread pool in this process; tasks may be
        plain closures and should release the GIL to scale), or ``"auto"``
        (see :func:`resolve_mode`).
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
        start_method: Optional[str] = None,
        mode: str = "process",
        retry_backoff: float = 0.0,
        retry_budget: Optional[RetryBudget] = None,
    ):
        self.workers = resolve_workers(workers)
        self.mode = resolve_mode(mode)
        if retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be non-negative, got {retry_backoff}"
            )
        self.retry_backoff = float(retry_backoff)
        self.retry_budget = retry_budget
        self._run_ordinal = 0
        self._start_method = start_method
        self._pool = None  # ProcessPoolExecutor | ThreadPoolExecutor | None
        self._finalizer: Optional[weakref.finalize] = None
        # Pool lifecycle is shared mutable state; every transition happens
        # under this lock and bumps the generation so concurrent runs can
        # tell "the pool I submitted to broke" from "someone already
        # rebuilt it for me".
        self._lock = threading.RLock()
        self._generation = 0
        self._active_cancel_events: set = set()
        self._active_runs = 0
        self._pool_disabled = self.workers <= 1
        self._context = None
        if not self._pool_disabled:
            if self.mode == "process":
                # Context resolution validates REPRO_START_METHOD /
                # start_method eagerly — a typo must surface as
                # ParameterError, not silently degrade to serial execution.
                self._context = (
                    multiprocessing.get_context(start_method)
                    if start_method
                    else _preferred_context()
                )
            self._build_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _build_pool(self) -> bool:
        """(Re)create the worker pool; returns whether one is available."""
        with self._lock:
            if self._pool_disabled:
                return False
            if self.mode == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
            else:
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=self._context,
                        initializer=_init_worker,
                    )
                except (OSError, ValueError, ImportError):  # pragma: no cover
                    self._pool_disabled = True  # sandboxed platform: go serial
                    self._pool = None
                    return False
            self._pool = pool
            self._generation += 1
            # Backstop for callers that skip the context manager: release
            # the workers when the executor is collected.  The callback must
            # not reference ``self`` or the executor would never be
            # collected.
            self._finalizer = weakref.finalize(self, _shutdown_pool, pool)
            return True

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The live pool, rebuilding a previously abandoned one if needed."""
        with self._lock:
            if self._pool is None and not self._pool_disabled:
                self._build_pool()
            return self._pool

    def _pool_and_generation(self):
        with self._lock:
            self._ensure_pool()
            return self._pool, self._generation

    def _release_pool(self, wait_for_workers: bool) -> None:
        with self._lock:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            pool, self._pool = self._pool, None
            self._generation += 1
        if pool is not None:
            pool.shutdown(wait=wait_for_workers, cancel_futures=True)

    def _handle_breakage(self, seen_generation: int) -> None:
        """Rebuild the pool after a breakage, at most once per generation.

        Several concurrent runs may observe the same broken pool; the first
        one through releases and rebuilds it, later arrivals see a newer
        generation and leave the fresh pool alone.
        """
        with self._lock:
            if self._generation != seen_generation:
                return  # somebody already replaced (or closed) that pool
            self._release_pool(wait_for_workers=False)
            self._build_pool()

    def _abandon_pool_if_sole(self) -> None:
        """Drop a pool whose workers may still be running (deadline path).

        ``shutdown(wait=False)`` signals the workers and returns
        immediately; a shard that is mid-sleep keeps its doomed process
        alive briefly but the query returns now.  The next ``run``/``map``
        builds a fresh pool.  When *other* runs share this executor the
        pool is left alone — their shards are still executing in it — and
        only this run's pending futures are cancelled by the caller.
        """
        with self._lock:
            if self._active_runs > 1:
                return
            self._release_pool(wait_for_workers=False)

    @property
    def serial(self) -> bool:
        """Whether tasks currently run in-process (no pool)."""
        return self._pool is None

    @property
    def uses_processes(self) -> bool:
        """True when tasks cross a process boundary (must be picklable).

        Judged by the tier, not by whether a pool is up right now: a pool
        dropped after a deadline is rebuilt by the next :meth:`run`, whose
        tasks must already be picklable.
        """
        return not self._pool_disabled and self.mode == "process"

    @property
    def uses_threads(self) -> bool:
        """True when tasks run on a thread pool in this process."""
        return not self._pool_disabled and self.mode == "thread"

    @property
    def mode_label(self) -> str:
        """The tier actually executing tasks: serial, thread, or process."""
        return "serial" if self.serial else self.mode

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor turns serial."""
        with self._lock:
            self._pool_disabled = True
        self._release_pool(wait_for_workers=True)

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
        budget is re-raised.  A pool breakage triggers a rebuild and
        resubmission of **only** the lost tasks; completed results are
        never discarded or recomputed.  If no pool can be rebuilt, just
        the unfinished remainder runs serially in-process.
        """
        task_list: Sequence[T] = list(tasks)
        if self._ensure_pool() is None:
            return [fn(task) for task in task_list]
        outcome = self.run(fn, task_list)
        error = outcome.first_error()
        if error is not None and not isinstance(error, BrokenProcessPool):
            raise error
        if outcome.all_completed:
            return outcome.results
        # Pool irrecoverably broken: finish the remainder in-process.
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
        pool_rebuilds: int = DEFAULT_POOL_REBUILDS,
    ) -> MapOutcome:
        """Resilient map: per-task futures, bounded retry, wall-clock budget.

        Parameters
        ----------
        fn, tasks:
            As :meth:`map`; ``fn`` must be a module-level callable with
            picklable arguments when a pool is used.
        deadline:
            Wall-clock budget in seconds for the whole call.  When it
            elapses, pending tasks are cancelled, running ones abandoned
            (their pool is dropped and rebuilt lazily), and the outcome
            reports ``deadline_hit=True`` with whatever completed.  The
            serial path checks the clock *between* tasks (cooperative).
        task_retries:
            How many times one task is resubmitted after raising or being
            lost to a broken pool, before its error is recorded.
        pool_rebuilds:
            How many pool breakages (worker death) one call survives.
            Each breakage rebuilds the pool and resubmits only the tasks
            that were in flight or queued; completed results are kept.

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

        try:
            pool = self._ensure_pool()
            if pool is None:
                self._run_serial(
                    fn, task_list, outcome, deadline_at, out_of_time,
                    task_retries, cancel_event,
                )
            else:
                self._run_pooled(
                    fn,
                    task_list,
                    outcome,
                    deadline_at,
                    out_of_time,
                    task_retries,
                    pool_rebuilds,
                    cancel_event,
                )
        finally:
            with self._lock:
                self._active_cancel_events.discard(cancel_event)
                self._active_runs -= 1
        outcome.elapsed = time.monotonic() - started
        # Flush once, twice per family: the bare parent keeps the
        # cross-tier total and the mode-labelled child records which tier
        # (serial / thread / process) actually served the run.
        mode = self.mode_label
        _M_RUNS.inc()
        _M_RUNS.labels(mode=mode).inc()
        _M_TASKS.inc(n)
        _M_TASKS.labels(mode=mode).inc(n)
        _M_TASKS_COMPLETED.inc(outcome.num_completed)
        _M_TASKS_COMPLETED.labels(mode=mode).inc(outcome.num_completed)
        _M_TASK_RETRIES.inc(outcome.task_retries)
        _M_TASK_RETRIES.labels(mode=mode).inc(outcome.task_retries)
        _M_POOL_REBUILDS.inc(outcome.pool_rebuilds)
        _M_POOL_REBUILDS.labels(mode=mode).inc(outcome.pool_rebuilds)
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
        pool_rebuilds: int,
        cancel_event: threading.Event,
    ) -> None:
        attempts = [0] * len(task_list)
        pending = {}  # future -> (task index, pool generation at submit)

        def submit(index: int) -> bool:
            pool, generation = self._pool_and_generation()
            if pool is None:
                return False
            try:
                pending[pool.submit(fn, task_list[index])] = (index, generation)
                return True
            except (BrokenProcessPool, RuntimeError):
                return False

        submitted = 0
        for index in range(len(task_list)):
            if not submit(index):
                # Pool died before dispatch finished; the wait loop below
                # will account for whatever made it in.
                break
            submitted += 1
        if submitted < len(task_list):
            for index in range(submitted, len(task_list)):
                outcome.errors[index] = BrokenProcessPool(
                    "process pool unavailable at submission"
                )

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
            broken_generations: List[int] = []
            resubmit: List[int] = []
            lost: List[int] = []
            for future in done:
                index, generation = pending.pop(future)
                try:
                    outcome.results[index] = future.result()
                    outcome.completed[index] = True
                except (BrokenProcessPool, CancelledError):
                    # CancelledError: another thread closed or abandoned
                    # the pool under us — same recovery as a breakage.
                    broken_generations.append(generation)
                    lost.append(index)
                except Exception as exc:
                    attempts[index] += 1
                    if attempts[index] > task_retries or not self._may_retry():
                        outcome.errors[index] = exc
                    else:
                        outcome.task_retries += 1
                        obs.event("retry", task=index, attempt=attempts[index])
                        resubmit.append(index)
            if broken_generations:
                # Every sibling future submitted to the same pool is doomed
                # with it; fold those into the lost set so one breakage is
                # handled once.  Futures already resubmitted to a *newer*
                # pool are left pending.
                doomed = set(broken_generations)
                for future, (index, generation) in list(pending.items()):
                    if generation in doomed:
                        lost.append(index)
                        del pending[future]
                for generation in sorted(doomed):
                    self._handle_breakage(generation)
                outcome.pool_rebuilds += 1
                if (
                    outcome.pool_rebuilds > pool_rebuilds
                    or self._ensure_pool() is None
                ):
                    for index in sorted(lost + resubmit):
                        outcome.errors[index] = BrokenProcessPool(
                            "process pool broke and the rebuild budget "
                            f"({pool_rebuilds}) is exhausted"
                        )
                    break
                # A lost task is charged an attempt: a shard that kills its
                # worker every time must not break pools forever.
                for index in sorted(lost):
                    attempts[index] += 1
                    if attempts[index] > task_retries or not self._may_retry():
                        outcome.errors[index] = BrokenProcessPool(
                            f"task {index} lost to {attempts[index]} pool breakages"
                        )
                    else:
                        resubmit.append(index)
            if (pending or resubmit) and out_of_time():
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
                if not submit(index):
                    outcome.errors[index] = BrokenProcessPool(
                        "process pool unavailable for retry"
                    )

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
# per call when none was passed in — paying pool startup (tens to hundreds
# of milliseconds for processes) on every query.  The default-executor
# registry amortises that: one lazily-built executor per
# (workers, resolved mode, start-method) key, shared by every driver call
# in the process.  Teardown rides the executors' own ``weakref.finalize``
# pool backstops, which the interpreter runs at exit for anything still
# registered here.

_DEFAULT_EXECUTORS: Dict[tuple, ParallelExecutor] = {}
_DEFAULT_EXECUTORS_LOCK = threading.Lock()


def get_default_executor(
    workers: Optional[int] = None, *, mode: str = "auto"
) -> ParallelExecutor:
    """The process-wide shared executor for ``(workers, mode)``.

    Built lazily on first use and kept for the life of the process, so
    repeated ``parallel_*`` calls (and ``api.single_source(workers=...)``)
    reuse one warm pool instead of paying pool construction per query.
    Callers must **not** close the returned executor; use
    :func:`reset_default_executors` (tests, fault plans) to drop and
    rebuild the registry.

    The cache key includes the *resolved* mode (``auto`` collapses to
    thread/process via :func:`resolve_mode`) and the current
    ``REPRO_START_METHOD``, so flipping either in the environment yields a
    fresh, matching executor rather than a stale cached one.
    """
    resolved_workers = resolve_workers(workers)
    resolved_mode = resolve_mode(mode)
    key = (
        resolved_workers,
        resolved_mode,
        os.environ.get("REPRO_START_METHOD"),
    )
    with _DEFAULT_EXECUTORS_LOCK:
        executor = _DEFAULT_EXECUTORS.get(key)
        stale = executor is not None and (
            executor._pool_disabled and resolved_workers > 1
        )
        if executor is None or stale:
            executor = ParallelExecutor(resolved_workers, mode=resolved_mode)
            _DEFAULT_EXECUTORS[key] = executor
        return executor


def reset_default_executors() -> None:
    """Close and forget every shared default executor (idempotent).

    Needed wherever pool inheritance matters: fault-injection plans set
    environment variables that **forked/spawned workers read at pool
    creation**, so a pool that predates the plan would never see it.
    :func:`repro.faults.active` calls this on entry and exit.
    """
    with _DEFAULT_EXECUTORS_LOCK:
        executors = list(_DEFAULT_EXECUTORS.values())
        _DEFAULT_EXECUTORS.clear()
    for executor in executors:
        executor.close()
