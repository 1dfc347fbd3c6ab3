"""The resident query engine: warm state, batching window, graceful load.

One :class:`Engine` owns everything a single-source CrashSim query needs —
the graph, per-sampler :class:`~repro.walks.kernel.WalkCrashKernel` buffers,
an LRU of source reverse trees, and a persistent
:class:`~repro.parallel.ParallelExecutor` — and answers concurrent requests
from many client threads.

Architecture
------------
Client threads :meth:`~Engine.submit` requests onto a FIFO queue and get a
future back; **one dispatcher thread** drains the queue.  Funnelling all
scoring through a single thread is what makes the warm kernels safe to
reuse (their scratch buffers are single-threaded by design) and it gives
the engine its batching point for free: after the first request arrives the
dispatcher keeps collecting for ``batch_window`` seconds (or until
``max_batch``), then serves the whole batch:

* requests with a ``deadline`` are served first and individually — their
  remaining budget (measured from *arrival*, so queue wait counts) flows
  into the query driver on the persistent executor, so an overloaded
  engine degrades those answers (fewer trials, honest wider
  ``achieved_epsilon``) instead of failing them; a request whose
  deadline already elapsed in the queue is failed *before* any kernel
  time is spent on it;
* the rest are partitioned by ``sampler`` and scored through
  :func:`~repro.core.batch.crashsim_batch`, which coalesces same-seed /
  same-candidate-set requests into one shared walk stream and serves the
  remainder solo on warm state.

Both call the one query driver (:mod:`repro.parallel.runner`); every
answer served alone goes through :meth:`Engine._serve_solo`.

Seedless requests are assigned engine-drawn integer seeds; seedless
requests in the same batch that share an explicit candidate set are given
*one* drawn seed so they coalesce.  Explicitly seeded requests are never
re-seeded — their answers stay byte-identical to direct
:func:`repro.api.single_source` calls no matter how they were batched.

Overload resilience
-------------------
The queue is bounded when ``EngineConfig.max_queue_depth`` is set.  At
capacity, :meth:`~Engine.submit` applies the configured ``shed_policy``:
``"reject"`` raises :class:`~repro.errors.EngineOverloadedError` (carrying
a ``retry_after`` estimate from the engine's measured service rate), while
``"shed-oldest"`` displaces the oldest queued *deadline-less* request —
failing its future with the same error — to make room for the newcomer.

A :class:`~repro.serve.breaker.CircuitBreaker` watches the deadline path:
after ``breaker_threshold`` consecutive deadline-exceeded/degraded
outcomes it opens, and further deadline queries are answered from a cheap
``breaker_n_r``-trial degraded mode (microseconds of kernel time, honest
``achieved_epsilon`` against the engine's real parameters, annotated via
``QueryResult.breaker_state``) until a half-open probe succeeds.

A watchdog thread restarts a dead dispatcher (and, when
``dispatcher_stall_timeout`` is set, a hung one), failing only the
requests that were actually in flight with
:class:`~repro.errors.DispatcherError`; queued requests survive the
restart untouched.  Chaos sites for all of this live in
:mod:`repro.faults`: ``"queue_delay"`` (per-submission ordinal, fires in
the submitting thread before admission), ``"dispatcher"`` (per dispatch
iteration, fires in the dispatcher thread — ``"raise"`` kills it,
``"delay"`` hangs it), and ``"executor_stall"`` (per
:meth:`~repro.parallel.ParallelExecutor.run` call).

Shutdown drains: :meth:`~Engine.close` stops admissions (later submissions
raise :class:`~repro.errors.EngineClosedError`), lets the dispatcher finish
every request already queued, then tears down the executor.  ``close`` is
idempotent and safe to call concurrently — exactly one caller drains and
the rest wait for it.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
import threading
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro.api import ScoreVector
from repro.core.batch import BatchQuery, crashsim_batch
from repro.core.params import CrashSimParams
from repro.core.revreach import revreach_levels
from repro.errors import (
    DeadlineExceededError,
    DegradedResultWarning,
    DispatcherError,
    EngineClosedError,
    EngineOverloadedError,
    ParameterError,
)
from repro.graph.digraph import DiGraph
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.walks.kernel import SAMPLERS, WalkCrashKernel

__all__ = [
    "Engine",
    "EngineConfig",
    "QueryRequest",
    "QueryResult",
    "TreeLRU",
    "SHED_POLICIES",
]

logger = logging.getLogger(__name__)

#: Accepted values for ``EngineConfig.shed_policy``.
SHED_POLICIES = ("reject", "shed-oldest")

#: Fallback per-request service-time estimate (seconds) used for
#: ``Retry-After`` before the engine has served anything.
_DEFAULT_SERVICE_ESTIMATE = 0.05

# Process-wide tree-LRU counters (every TreeLRU in the process folds in);
# the per-instance hits/misses/evictions attributes stay the API that
# Engine.stats() reports per engine.
_M_LRU_HITS = obs.REGISTRY.counter(
    "repro_tree_lru_hits_total", "Source-tree LRU lookups served from cache."
)
_M_LRU_MISSES = obs.REGISTRY.counter(
    "repro_tree_lru_misses_total", "Source-tree LRU lookups that built a tree."
)
_M_LRU_EVICTIONS = obs.REGISTRY.counter(
    "repro_tree_lru_evictions_total", "Source trees evicted by LRU pressure."
)

#: Legacy Engine._stats keys mirrored onto per-engine registry counters —
#: one entry per externally visible stats() key.
_ENGINE_COUNTER_HELP = {
    "queries": "Requests served (every admitted request ends up here).",
    "batches": "Dispatcher batches formed.",
    "deadline_queries": "Requests served on the deadline path.",
    "degraded": "Answers averaging fewer trials than planned.",
    "rejected": "Submissions refused because the engine was closed.",
    "overload_rejected": "Submissions refused because the queue was full.",
    "shed": "Queued deadline-less requests displaced by shed-oldest.",
    "expired": "Deadline requests that expired while still queued.",
    "breaker_trips": "Circuit-breaker transitions into the open state.",
    "breaker_degraded": "Queries answered from the breaker's cheap mode.",
    "breaker_probes": "Half-open probe queries issued at full size.",
    "dispatcher_restarts": "Dispatcher threads restarted by the watchdog.",
    "shared_walk_groups": "Coalesced groups scored on one walk stream.",
    "coalesced_queries": "Queries that rode a shared walk stream.",
    "solo_queries": "Queries scored individually on warm state.",
}

#: Numeric encoding of the breaker state for the gauge.
_BREAKER_GAUGE_VALUE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


def _fail_future(future: Future, exc: BaseException) -> None:
    """Set an exception, tolerating a future someone already resolved."""
    try:
        future.set_exception(exc)
    except InvalidStateError:  # watchdog/dispatcher race: first writer wins
        pass


def _resolve_future(future: Future, value) -> None:
    try:
        future.set_result(value)
    except InvalidStateError:
        pass


class TreeLRU:
    """Thread-safe LRU of source reverse reachable trees.

    Keyed by source node; one engine fixes ``(c, l_max, variant)`` so they
    are not part of the key.  Trees are immutable, so a tree handed to one
    request stays valid after eviction.  Builds run outside the lock —
    concurrent misses on different sources overlap; racing builds of the
    same source produce deterministic duplicates and the first stored wins.
    """

    def __init__(
        self,
        graph: DiGraph,
        l_max: int,
        c: float,
        *,
        variant: str = "corrected",
        capacity: int = 256,
    ):
        if capacity < 1:
            raise ParameterError(f"capacity must be positive, got {capacity}")
        self._graph = graph
        self._l_max = l_max
        self._c = c
        self._variant = variant
        self._capacity = capacity
        self._entries: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __call__(self, source: int):
        return self.get(source)

    def get(self, source: int):
        source = int(source)
        with self._lock:
            tree = self._entries.get(source)
            if tree is not None:
                self.hits += 1
                self._entries.move_to_end(source)
                _M_LRU_HITS.inc()
                return tree
        built = revreach_levels(
            self._graph, source, self._l_max, self._c, variant=self._variant
        )
        evicted = 0
        with self._lock:
            tree = self._entries.get(source)
            if tree is not None:
                self.hits += 1
                self._entries.move_to_end(source)
                _M_LRU_HITS.inc()
                return tree
            self.misses += 1
            self._entries[source] = built
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        _M_LRU_MISSES.inc()
        if evicted:
            _M_LRU_EVICTIONS.inc(evicted)
        return built


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide knobs; one config covers every query the engine answers.

    ``c``/``epsilon``/``delta``/``n_r`` mirror
    :func:`repro.api.single_source`.  ``batch_window`` is how long the
    dispatcher waits for companions after the first request of a batch
    arrives (0 serves whatever is already queued, never sleeping);
    ``max_batch`` caps a batch.  ``tree_cache_size`` bounds the source-tree
    LRU.  ``workers`` is the persistent executor's worker count for
    deadline queries (``None`` → CPU count).

    Overload knobs:

    ``max_queue_depth``
        Bound on queued (admitted, not yet dispatched) requests; ``None``
        keeps the legacy unbounded queue.
    ``shed_policy``
        What :meth:`Engine.submit` does at capacity — ``"reject"`` the
        newcomer, or ``"shed-oldest"`` queued deadline-less request (falls
        back to rejecting when everything queued carries a deadline).
    ``breaker_threshold`` / ``breaker_cooldown`` / ``breaker_n_r``
        Circuit breaker for the deadline path: trip after this many
        consecutive deadline-exceeded/degraded outcomes, stay open this
        many seconds before a half-open probe, and serve open-state
        queries with this many Monte-Carlo trials — fewer than ``n_r``
        when that is set.  ``breaker_threshold=0`` (default) disables the
        breaker.
    ``watchdog_interval`` / ``dispatcher_stall_timeout``
        How often the watchdog thread checks the dispatcher (0 disables
        the watchdog), and how long a busy dispatcher may go without a
        heartbeat before it is declared hung and replaced (``None``
        disables stall detection; death detection stays on).
    ``retry_budget`` / ``retry_backoff``
        Executor retry policy for deadline queries: a token-style budget
        bounding total resubmissions across the executor's lifetime
        (``None`` = unbounded, the legacy behaviour) and the base of the
        exponential, deterministically-jittered backoff slept before each
        resubmission.
    ``adaptive``
        Serve every query with empirical-Bernstein early stopping
        (:mod:`repro.core.adaptive`): trials run in geometrically growing
        rounds and stop as soon as the estimated error is within ε.  Every
        query is served alone through the query driver instead of
        ``crashsim_batch`` (adaptive rounds cannot share a coalesced walk
        stream across different sources' stopping decisions): deadline
        queries sharded on the executor, the rest on ``workers=1``.
        Answers carry ``ScoreVector.stopped_early`` plus the honest
        ``trials_completed`` / ``achieved_epsilon``.
    """

    c: float = 0.6
    epsilon: float = 0.025
    delta: float = 0.01
    n_r: Optional[int] = None
    tree_variant: str = "corrected"
    batch_window: float = 0.002
    max_batch: int = 64
    tree_cache_size: int = 256
    workers: Optional[int] = None
    seed: Optional[int] = None
    max_queue_depth: Optional[int] = None
    shed_policy: str = "reject"
    breaker_threshold: int = 0
    breaker_cooldown: float = 1.0
    breaker_n_r: int = 8
    watchdog_interval: float = 0.05
    dispatcher_stall_timeout: Optional[float] = None
    retry_budget: Optional[int] = 64
    retry_backoff: float = 0.01
    adaptive: bool = False

    def __post_init__(self):
        if self.batch_window < 0:
            raise ParameterError(
                f"batch_window must be non-negative, got {self.batch_window}"
            )
        if self.max_batch < 1:
            raise ParameterError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ParameterError(
                f"shed_policy must be one of {', '.join(SHED_POLICIES)}; "
                f"got {self.shed_policy!r}"
            )
        if self.breaker_threshold < 0:
            raise ParameterError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ParameterError(
                f"breaker_cooldown must be positive, got {self.breaker_cooldown}"
            )
        if self.breaker_n_r < 1:
            raise ParameterError(
                f"breaker_n_r must be positive, got {self.breaker_n_r}"
            )
        if self.breaker_threshold and self.n_r and self.breaker_n_r >= self.n_r:
            raise ParameterError(
                f"breaker_n_r ({self.breaker_n_r}) must be below n_r "
                f"({self.n_r}): the breaker's cheap mode would cost more than "
                "a full answer"
            )
        if self.watchdog_interval < 0:
            raise ParameterError(
                "watchdog_interval must be non-negative, got "
                f"{self.watchdog_interval}"
            )
        if (
            self.dispatcher_stall_timeout is not None
            and self.dispatcher_stall_timeout <= 0
        ):
            raise ParameterError(
                "dispatcher_stall_timeout must be positive, got "
                f"{self.dispatcher_stall_timeout}"
            )
        if self.retry_budget is not None and self.retry_budget < 1:
            raise ParameterError(
                f"retry_budget must be positive, got {self.retry_budget}"
            )
        if self.retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be non-negative, got {self.retry_backoff}"
            )


@dataclass(frozen=True)
class QueryRequest:
    """One admitted request.

    ``seed`` follows :func:`repro.api.single_source` (an explicit seed
    makes the answer deterministic and byte-identical to the direct call);
    ``deadline`` is a wall-clock budget in seconds measured from
    *submission*; ``top_k`` additionally extracts the k best non-source
    nodes from the dense vector.
    """

    source: int
    candidates: Optional[Tuple[int, ...]] = None
    seed: Optional[int] = None
    deadline: Optional[float] = None
    sampler: str = "cdf"
    top_k: Optional[int] = None

    @staticmethod
    def make(
        source: int,
        *,
        candidates: Optional[Iterable[int]] = None,
        seed: Optional[int] = None,
        deadline: Optional[float] = None,
        sampler: str = "cdf",
        top_k: Optional[int] = None,
    ) -> "QueryRequest":
        """Validate and normalise one request's fields.

        Every field may come straight off the wire (decoded JSON), so
        types are checked rather than coerced: ``1.5``, ``"3"`` and
        ``True`` are not node ids.  Any bad field raises
        :class:`~repro.errors.ParameterError`.
        """
        if candidates is not None:
            try:
                nodes = tuple(candidates)
            except TypeError:
                raise ParameterError(
                    f"candidates must be a list of node ids, got {candidates!r}"
                ) from None
            # One cheap pass accepts decoded JSON; anything else (NumPy
            # integers, bad entries) goes through the per-node check.
            if not all(type(node) is int and node >= 0 for node in nodes):
                nodes = tuple(_check_index("candidate", node) for node in nodes)
            candidates = nodes
        if deadline is not None:
            deadline = _check_deadline(deadline)
        if sampler not in SAMPLERS:
            raise ParameterError(
                f"unknown sampler {sampler!r}; expected one of {SAMPLERS}"
            )
        if top_k is not None:
            top_k = _check_index("top_k", top_k)
            if top_k < 1:
                raise ParameterError(f"top_k must be positive, got {top_k}")
        return QueryRequest(
            source=_check_index("source", source),
            candidates=candidates,
            seed=None if seed is None else _check_index("seed", seed),
            deadline=deadline,
            sampler=sampler,
            top_k=top_k,
        )


def _check_index(name: str, value: object) -> int:
    """``value`` as a non-negative int; bools and floats are rejected."""
    try:
        index = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ParameterError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return index


def _check_deadline(value: object) -> float:
    """``value`` as a deadline budget: a positive, finite number of seconds."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ParameterError(
            f"deadline must be a positive, finite number of seconds, got {value!r}"
        )
    return float(value)


@dataclass
class QueryResult:
    """An engine answer: the dense vector plus serving metadata.

    ``scores`` is the same :class:`~repro.api.ScoreVector` the direct API
    returns (resilience metadata included); ``top`` is the optional
    ``(node, score)`` ranking for ``top_k`` requests; ``batch_size``,
    ``coalesced``, and ``trace`` (the :class:`repro.obs.Trace` recorded
    while the request was served) describe how the request was served
    (diagnostics only — they carry no information about the scores
    themselves).  ``breaker_state`` records how the circuit breaker routed
    the request: ``"closed"`` (normal full-size serving), ``"half-open"``
    (this request was the probe), or ``"open"`` (answered from the cheap
    ``breaker_n_r`` degraded mode).
    """

    scores: ScoreVector
    source: int
    seed: Optional[int]
    elapsed: float
    top: Optional[List[Tuple[int, float]]] = None
    batch_size: int = 1
    coalesced: bool = False
    trace: Optional[object] = None
    breaker_state: str = "closed"

    @property
    def degraded(self) -> bool:
        return bool(self.scores.degraded)


@dataclass
class _Pending:
    request: QueryRequest
    future: Future
    arrival: float
    seed: Optional[int] = None
    coalesce_key: Optional[Tuple] = field(default=None, compare=False)


class Engine:
    """A long-lived single-source SimRank engine over one graph.

    Thread-safe: any number of client threads may call :meth:`submit` /
    :meth:`query` concurrently.  Use as a context manager or call
    :meth:`close` to shut down (queued requests are drained, not dropped).
    """

    def __init__(self, graph: DiGraph, config: Optional[EngineConfig] = None):
        self.graph = graph
        self.config = config or EngineConfig()
        self.params = CrashSimParams(
            c=self.config.c,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            n_r_override=self.config.n_r,
        )
        self.trees = TreeLRU(
            graph,
            self.params.l_max,
            self.params.c,
            variant=self.config.tree_variant,
            capacity=self.config.tree_cache_size,
        )
        self._kernels: Dict[str, WalkCrashKernel] = {}
        self._executor = None
        self._lock = threading.RLock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: Deque[_Pending] = deque()
        self._inflight: List[_Pending] = []
        self._serving_since: Optional[float] = None
        self._heartbeat = time.monotonic()
        self._closed = False
        self._drained = threading.Event()
        self._submit_ordinal = 0
        self._dispatch_iterations = 0
        self._service_ewma: Optional[float] = None
        self._seed_source = np.random.default_rng(self.config.seed)
        self._breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown
        )
        # Same c/ε/δ (hence the same l_max, so warm trees and kernels are
        # shared), just far fewer trials — the breaker's cheap mode.
        self._breaker_params = CrashSimParams(
            c=self.config.c,
            epsilon=self.config.epsilon,
            delta=self.config.delta,
            n_r_override=self.config.breaker_n_r,
        )
        self._stats: Dict[str, int] = {key: 0 for key in _ENGINE_COUNTER_HELP}
        # Per-engine registry: `_stats` stays the legacy API; every bump is
        # mirrored onto these at event time so /metrics sees the same story.
        self.registry = obs.MetricsRegistry()
        self._counters = {
            key: self.registry.counter(f"repro_engine_{key}_total", help_text)
            for key, help_text in _ENGINE_COUNTER_HELP.items()
        }
        self._queue_depth = self.registry.gauge(
            "repro_engine_queue_depth",
            "Requests admitted but not yet picked into a batch.",
        )
        self._breaker_gauge = self.registry.gauge(
            "repro_engine_breaker_state",
            "Circuit-breaker state: 0 closed, 1 half-open, 2 open.",
        )
        self._batch_size_hist = self.registry.histogram(
            "repro_engine_batch_size",
            "Requests per dispatcher batch.",
            buckets=obs.DEFAULT_SIZE_BUCKETS,
        )
        self._latency_hist = self.registry.histogram(
            "repro_engine_latency_seconds",
            "End-to-end request latency (submission to answer).",
            buckets=obs.DEFAULT_LATENCY_BUCKETS,
        )
        self._queue_wait_hist = self.registry.histogram(
            "repro_engine_queue_wait_seconds",
            "Time a request spent queued before its batch was formed.",
            buckets=obs.DEFAULT_LATENCY_BUCKETS,
        )
        self._dispatcher: Optional[threading.Thread] = None
        self._dispatcher_gen = 0
        with self._lock:
            self._start_dispatcher_locked()
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        if self.config.watchdog_interval > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    # ------------------------------------------------------------------ admission

    def submit(self, request: QueryRequest) -> Future:
        """Admit a request; returns a future resolving to a :class:`QueryResult`.

        Raises :class:`~repro.errors.EngineClosedError` once :meth:`close`
        has begun — admission and shutdown are serialised on one lock, so a
        request either makes it into the drain or is rejected, never lost.
        With ``max_queue_depth`` set, a full queue additionally raises
        :class:`~repro.errors.EngineOverloadedError` (``shed_policy
        ="reject"``) or displaces the oldest queued deadline-less request
        (``"shed-oldest"``) — its future fails with the same error.
        """
        if not 0 <= request.source < self.graph.num_nodes:
            raise ParameterError(
                f"source {request.source} outside the graph's node range "
                f"[0, {self.graph.num_nodes})"
            )
        # Checked here, not at scoring time, so one bad candidate set cannot
        # fail the batch it would have joined.
        candidates = request.candidates or (0,)
        if not 0 <= min(candidates) <= max(candidates) < self.graph.num_nodes:
            raise ParameterError(
                "candidate node outside the graph's node range "
                f"[0, {self.graph.num_nodes})"
            )
        with self._lock:
            ordinal = self._submit_ordinal
            self._submit_ordinal += 1
        pending = _Pending(request, Future(), arrival=time.monotonic())
        # Chaos site: stalls *this submitting thread* before admission, so
        # the injected delay burns the request's deadline the way a slow
        # client or saturated accept loop would.
        faults.inject("queue_delay", ordinal)
        with self._lock:
            if self._closed:
                self._bump("rejected")
                raise EngineClosedError("engine is shut down; no new queries")
            depth_cap = self.config.max_queue_depth
            if depth_cap is not None and len(self._pending) >= depth_cap:
                self._make_room_locked()  # sheds one or raises
            self._pending.append(pending)
            self._queue_depth.inc()
            self._not_empty.notify()
        return pending.future

    def _make_room_locked(self) -> None:
        """Apply the shed policy to a full queue (caller holds the lock)."""
        if self.config.shed_policy == "shed-oldest":
            for index, victim in enumerate(self._pending):
                if victim.request.deadline is not None:
                    continue  # deadline requests are never silently shed
                del self._pending[index]
                self._queue_depth.dec()
                self._bump("shed")
                _fail_future(
                    victim.future,
                    EngineOverloadedError(
                        "request shed from a full queue "
                        f"(max_queue_depth={self.config.max_queue_depth}) to "
                        "admit a newer one",
                        retry_after=self._retry_after_locked(),
                    ),
                )
                return
        self._bump("overload_rejected")
        raise EngineOverloadedError(
            f"admission queue is full ({len(self._pending)} queued, "
            f"max_queue_depth={self.config.max_queue_depth})",
            retry_after=self._retry_after_locked(),
        )

    def _retry_after_locked(self) -> float:
        """Seconds until the queue likely has room, from measured service rate."""
        estimate = self._service_ewma or _DEFAULT_SERVICE_ESTIMATE
        return max(0.001, estimate * (len(self._pending) + 1))

    def query(
        self,
        source: int,
        *,
        candidates: Optional[Iterable[int]] = None,
        seed: Optional[int] = None,
        deadline: Optional[float] = None,
        sampler: str = "cdf",
        top_k: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Blocking convenience wrapper: submit and wait for the answer."""
        request = QueryRequest.make(
            source,
            candidates=candidates,
            seed=seed,
            deadline=deadline,
            sampler=sampler,
            top_k=top_k,
        )
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> Dict[str, object]:
        """A snapshot of serving counters (plus tree-LRU hit rates)."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self._stats)
            snapshot["queue_depth"] = len(self._pending)
        snapshot["breaker_state"] = self._breaker.state.value
        snapshot["tree_cache_hits"] = self.trees.hits
        snapshot["tree_cache_misses"] = self.trees.misses
        snapshot["tree_cache_evictions"] = self.trees.evictions
        snapshot["tree_cache_size"] = len(self.trees)
        return snapshot

    def readiness(self) -> Tuple[bool, str, Optional[float]]:
        """Readiness for load balancers: ``(ready, reason, retry_after)``.

        Not ready while the engine is draining (``close`` begun) or the
        circuit breaker is open; ``retry_after`` is the breaker's remaining
        cooldown in the latter case.  Liveness is a different question —
        a draining engine is still alive.
        """
        if self.closed:
            return False, "draining", None
        if self._breaker.state is BreakerState.OPEN:
            return False, "breaker-open", self._breaker.retry_after()
        return True, "ready", None

    def registries(self) -> Tuple[obs.MetricsRegistry, ...]:
        """The registries describing this engine: global + per-engine."""
        return (obs.REGISTRY, self.registry)

    def metrics_snapshot(self) -> Dict[str, dict]:
        """One merged name→metric snapshot across :meth:`registries`."""
        merged: Dict[str, dict] = {}
        for registry in self.registries():
            merged.update(registry.snapshot())
        return merged

    # ------------------------------------------------------------------ lifecycle

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, drain queued requests, release the executor.

        Idempotent and safe under concurrent callers (e.g. a signal
        handler racing a ``with`` block): the first caller performs the
        single drain, later callers wait for it to finish.  Every request
        admitted before the close is answered (or failed with its own
        error) before this returns; the queue-depth gauge ends at 0.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            self._not_empty.notify_all()
        if not first:
            self._drained.wait(timeout=timeout)
            return
        deadline_at = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                thread = self._dispatcher
            if thread is None:
                break
            join_timeout = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - time.monotonic())
            )
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                break  # caller's wait budget spent; drain continues async
            with self._lock:
                if self._dispatcher is not thread:
                    continue  # the watchdog replaced it; join the new one
                if self._pending or self._inflight:
                    # Died mid-drain with the watchdog off: revive it so
                    # the admitted requests still get answered.
                    self._recover_dispatcher_locked("died during drain")
                    continue
                self._dispatcher = None
                break
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(
                timeout=None
                if deadline_at is None
                else max(0.0, deadline_at - time.monotonic())
            )
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()
        self._drained.set()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ dispatch

    def _start_dispatcher_locked(self) -> None:
        """Spawn a dispatcher under a fresh generation (caller holds lock).

        Bumping the generation makes any previous dispatcher thread exit
        at its next check instead of racing the new one for the queue.
        """
        self._dispatcher_gen += 1
        self._heartbeat = time.monotonic()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(self._dispatcher_gen,),
            name="repro-serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def _dispatch_loop(self, gen: int) -> None:
        while True:
            with self._lock:
                if self._dispatcher_gen != gen:
                    return  # superseded by a watchdog restart
                iteration = self._dispatch_iterations
                self._dispatch_iterations += 1
                self._heartbeat = time.monotonic()
            # Chaos site, indexed by dispatch iteration (a counter that
            # survives restarts, so a plan targets one specific iteration):
            # "raise" kills this thread before it picks up any request —
            # the watchdog restarts it and nothing admitted is lost;
            # "delay" hangs it for stall detection.  Fires outside the lock.
            faults.inject("dispatcher", iteration)
            batch = self._next_batch(gen)
            if batch is None:
                return
            try:
                self._serve_batch(batch)
            finally:
                with self._lock:
                    if self._dispatcher_gen == gen:
                        self._inflight = []
                        self._serving_since = None
                        self._heartbeat = time.monotonic()

    def _next_batch(self, gen: int) -> Optional[List[_Pending]]:
        """Pop the next batch, or ``None`` when this dispatcher should exit."""
        with self._lock:
            while True:
                if self._dispatcher_gen != gen:
                    return None
                if self._pending:
                    break
                if self._closed:
                    return None
                # Refresh the heartbeat on every wakeup so an *idle*
                # dispatcher is never mistaken for a hung one the moment
                # work arrives.
                self._heartbeat = time.monotonic()
                self._not_empty.wait(timeout=0.5)
            batch = [self._pending.popleft()]
            self._queue_depth.dec()
            window_end = time.monotonic() + self.config.batch_window
            while len(batch) < self.config.max_batch:
                if self._pending:
                    batch.append(self._pending.popleft())
                    self._queue_depth.dec()
                    continue
                remaining = window_end - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._heartbeat = time.monotonic()
                self._not_empty.wait(timeout=remaining)
                if self._dispatcher_gen != gen:
                    # Superseded mid-collection: hand the batch back intact.
                    for item in reversed(batch):
                        self._pending.appendleft(item)
                        self._queue_depth.inc()
                    return None
            now = time.monotonic()
            self._heartbeat = now
            for item in batch:
                self._queue_wait_hist.observe(now - item.arrival)
            self._inflight = list(batch)
            self._serving_since = now
            return batch

    def _serve_batch(self, batch: List[_Pending]) -> None:
        with self._lock:
            self._stats["queries"] += len(batch)
            self._stats["batches"] += 1
        self._counters["queries"].inc(len(batch))
        self._counters["batches"].inc()
        self._batch_size_hist.observe(len(batch))
        served_at = time.monotonic()
        deadline_items = [p for p in batch if p.request.deadline is not None]
        coalescible = [p for p in batch if p.request.deadline is None]
        # Latency-bounded requests go first: their budget is already burning.
        for pending in deadline_items:
            self._serve_deadline(pending)
        by_sampler: Dict[str, List[_Pending]] = {}
        for pending in coalescible:
            by_sampler.setdefault(pending.request.sampler, []).append(pending)
        for sampler, group in by_sampler.items():
            if self.config.adaptive:
                # Adaptive rounds stop per-query; a coalesced walk stream
                # would hold every batch-mate to the slowest stopper.
                self._assign_seeds(group)
                for pending in group:
                    self._serve_solo(pending, batch_size=len(group))
            else:
                self._serve_coalesced(sampler, group)
        # Feed the measured per-request service time into the EWMA that
        # prices Retry-After for shed/rejected submissions.
        per_request = (time.monotonic() - served_at) / len(batch)
        with self._lock:
            if self._service_ewma is None:
                self._service_ewma = per_request
            else:
                self._service_ewma += 0.2 * (per_request - self._service_ewma)

    def _assign_seeds(self, group: List[_Pending]) -> None:
        """Give every seedless request a drawn seed; share one per catalogue.

        Seedless requests over the same explicit candidate set get a single
        drawn seed so ``crashsim_batch`` coalesces them into one shared
        walk stream.  ``candidates=None`` requests keep individual seeds —
        their walk-target sets differ per source, so sharing gains nothing.
        Explicit seeds are never touched.
        """
        shared: Dict[Tuple, int] = {}
        for pending in group:
            request = pending.request
            if request.seed is not None:
                pending.seed = request.seed
                continue
            if request.candidates is None:
                pending.seed = int(self._seed_source.integers(0, 2**63))
                continue
            key = request.candidates
            if key not in shared:
                shared[key] = int(self._seed_source.integers(0, 2**63))
            pending.seed = shared[key]

    def _serve_coalesced(self, sampler: str, group: List[_Pending]) -> None:
        self._assign_seeds(group)
        queries = [
            BatchQuery(
                p.request.source, seed=p.seed, candidates=p.request.candidates
            )
            for p in group
        ]
        batch_stats: Dict[str, int] = {}
        trace = obs.Trace("batch", {"sampler": sampler, "size": len(group)})
        try:
            with trace.activate():
                results = crashsim_batch(
                    self.graph,
                    queries,
                    params=self.params,
                    tree_variant=self.config.tree_variant,
                    sampler=sampler,
                    kernel=self._kernel(sampler),
                    tree_provider=self.trees,
                    stats=batch_stats,
                )
        except Exception:
            if len(group) == 1:
                _fail_future(group[0].future, _current_exception())
                return
            # One bad request must not fail its batch-mates: retry solo so
            # only the offender errors.
            for pending in group:
                self._serve_coalesced(sampler, [pending])
            return
        with self._lock:
            for key, value in batch_stats.items():
                self._stats[key] += value
        for key, value in batch_stats.items():
            self._counters[key].inc(value)
        coalesced = batch_stats.get("coalesced_queries", 0) > 0
        for pending, result in zip(group, results):
            self._finish(
                pending,
                result,
                batch_size=len(group),
                coalesced=coalesced,
                trace=trace,
            )

    def _serve_deadline(self, pending: _Pending) -> None:
        request = pending.request
        self._assign_seeds([pending])
        self._bump("deadline_queries")
        remaining = request.deadline - (time.monotonic() - pending.arrival)
        if remaining <= 0:
            # Expired while queued: reject before burning any kernel time.
            # This is a pure overload signal, so the breaker hears it too.
            self._bump("expired")
            self._record_breaker(ok=False)
            _fail_future(
                pending.future,
                DeadlineExceededError(
                    f"deadline of {request.deadline}s elapsed while the "
                    "request waited for dispatch",
                    deadline=request.deadline,
                    elapsed=time.monotonic() - pending.arrival,
                ),
            )
            return
        route = self._breaker.before_query()
        if route is BreakerState.HALF_OPEN:
            self._bump("breaker_probes")
        elif route is BreakerState.OPEN:
            self._bump("breaker_degraded")
        self._sync_breaker_gauge()
        self._serve_solo(pending, deadline=remaining, route=route)

    def _serve_solo(
        self,
        pending: _Pending,
        *,
        batch_size: int = 1,
        deadline: Optional[float] = None,
        route: BreakerState = BreakerState.CLOSED,
    ) -> None:
        """One request through the query driver, on its warm LRU tree.

        A ``deadline`` (the budget left since arrival) runs on the
        persistent executor and feeds the breaker; ``route=OPEN`` is the
        breaker's cheap mode — ``breaker_n_r`` one-stream trials on the warm
        kernel, forced ``degraded``; no deadline (adaptive engines) is the
        serial adaptive run ``single_source(..., adaptive=True)`` makes.
        """
        from repro.parallel.runner import drive_single

        request = pending.request
        cheap = route is BreakerState.OPEN
        feeds_breaker = deadline is not None and not cheap
        if deadline is None:
            info = {"source": request.source, "adaptive": True}
        else:
            info = {"source": request.source, "deadline": request.deadline}
            if cheap:
                info["breaker"] = "open"
        trace = obs.Trace("query", info)
        try:
            if cheap:
                kernel = self._kernel(request.sampler)
                run = dict(params=self._breaker_params, one_stream=True, kernel=kernel)
            elif deadline is None:
                run = dict(params=self.params, adaptive=True, workers=1)
            else:
                run = dict(
                    params=self.params,
                    adaptive=self.config.adaptive,
                    workers=self.config.workers,
                    executor=self._ensure_executor(),
                    deadline=deadline,
                )
            with trace.activate():
                tree = self.trees.get(request.source)
                with warnings.catch_warnings():
                    # The degradation signal reaches the caller through the
                    # ScoreVector metadata; the warning would only spam the
                    # server log once per overloaded request.
                    warnings.simplefilter("ignore", DegradedResultWarning)
                    result = drive_single(
                        self.graph,
                        request.source,
                        candidates=request.candidates,
                        tree=tree,
                        tree_variant=self.config.tree_variant,
                        seed=pending.seed,
                        sampler=request.sampler,
                        **run,
                    )
        except Exception:
            exc = _current_exception()
            if feeds_breaker:
                # Only overload-shaped outcomes count against the breaker; a
                # malformed request is no reason to stop trusting the executor.
                self._record_breaker(ok=not isinstance(exc, DeadlineExceededError))
            _fail_future(pending.future, exc)
            return
        if feeds_breaker:
            self._record_breaker(ok=not result.degraded)
        self._finish(
            pending,
            result,
            batch_size=batch_size,
            coalesced=False,
            trace=trace,
            breaker_state=route.value,
            force_degraded=cheap,
        )

    # ------------------------------------------------------------------ watchdog

    def _watchdog_loop(self) -> None:
        interval = max(self.config.watchdog_interval, 0.01)
        while not self._watchdog_stop.wait(interval):
            with self._lock:
                thread = self._dispatcher
                if thread is None:
                    continue
                dead = not thread.is_alive()
                work = bool(self._pending) or bool(self._inflight)
                stall = self.config.dispatcher_stall_timeout
                hung = (
                    not dead
                    and stall is not None
                    and work
                    and time.monotonic() - self._heartbeat > stall
                )
                if dead and self._closed and not work:
                    continue  # normal drain exit, nothing to revive
                if dead or hung:
                    self._recover_dispatcher_locked(
                        "died"
                        if dead
                        else f"went {stall}s without a heartbeat"
                    )

    def _recover_dispatcher_locked(self, reason: str) -> None:
        """Fail in-flight futures, restart the dispatcher (lock held).

        Requests still in the queue are *not* failed — the fresh
        dispatcher serves them exactly as if nothing happened; only the
        batch the dead/hung thread had already popped is unrecoverable
        (its per-request state lives on that thread's stack).
        """
        self._bump("dispatcher_restarts")
        victims = [p for p in self._inflight if not p.future.done()]
        self._inflight = []
        self._serving_since = None
        logger.error(
            "dispatcher %s; failing %d in-flight request(s), "
            "%d queued request(s) survive the restart",
            reason,
            len(victims),
            len(self._pending),
        )
        for victim in victims:
            _fail_future(
                victim.future,
                DispatcherError(
                    f"dispatcher thread {reason} while this request was "
                    "being served; the engine restarted it — resubmit if "
                    "the answer is still wanted"
                ),
            )
        self._start_dispatcher_locked()
        self._not_empty.notify_all()

    # ------------------------------------------------------------------ helpers

    def _bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._stats[key] += n
        self._counters[key].inc(n)

    def _record_breaker(self, ok: bool) -> None:
        """Feed a full-size deadline outcome into the breaker; mirror metrics."""
        if not self._breaker.enabled:
            return
        trips_before = self._breaker.trips
        if ok:
            self._breaker.record_success()
        else:
            state = self._breaker.record_failure()
            if self._breaker.trips > trips_before:
                self._bump("breaker_trips")
                logger.warning(
                    "circuit breaker opened (state=%s) after %d consecutive "
                    "deadline/degraded outcomes; deadline queries now served "
                    "at n_r=%d until a probe succeeds",
                    state.value,
                    self.config.breaker_threshold,
                    self.config.breaker_n_r,
                )
        self._sync_breaker_gauge()

    def _sync_breaker_gauge(self) -> None:
        if self._breaker.enabled:
            self._breaker_gauge.set(_BREAKER_GAUGE_VALUE[self._breaker.state])

    def _kernel(self, sampler: str) -> WalkCrashKernel:
        kernel = self._kernels.get(sampler)
        if kernel is None:
            kernel = WalkCrashKernel(self.graph, self.params.c, sampler=sampler)
            self._kernels[sampler] = kernel
        return kernel

    def _ensure_executor(self):
        from repro.parallel import ParallelExecutor, RetryBudget

        with self._lock:
            if self._executor is None:
                budget = None
                if self.config.retry_budget is not None:
                    budget = RetryBudget(
                        min_tokens=self.config.retry_budget,
                        max_tokens=max(256, self.config.retry_budget),
                    )
                self._executor = ParallelExecutor(
                    self.config.workers,
                    retry_backoff=self.config.retry_backoff,
                    retry_budget=budget,
                )
            return self._executor

    def _finish(
        self,
        pending: _Pending,
        result,
        *,
        batch_size: int,
        coalesced: bool,
        trace=None,
        breaker_state: str = "closed",
        force_degraded: bool = False,
    ) -> None:
        # Exactly api.single_source's assembly, so engine vectors are
        # byte-identical to the direct call's.
        scores = np.zeros(self.graph.num_nodes)
        scores[result.candidates] = result.scores
        scores[int(result.source)] = 1.0
        degraded = bool(result.degraded) or force_degraded
        achieved = result.achieved_epsilon
        if force_degraded and achieved is None:
            # Breaker mode: the run *completed* at breaker_n_r trials, so
            # price the honest ε against the engine's real parameters.
            achieved = self.params.achieved_epsilon(
                max(self.graph.num_nodes, 2), result.trials_completed
            )
        vector = ScoreVector.wrap(
            scores,
            degraded=degraded,
            trials_completed=result.trials_completed,
            achieved_epsilon=achieved,
            stopped_early=getattr(result, "stopped_early", False),
            trace=trace,
        )
        if degraded:
            self._bump("degraded")
            if not force_degraded:
                logger.warning(
                    "degraded engine answer: source=%d seed=%s "
                    "trials_completed=%s achieved_epsilon=%s",
                    int(result.source),
                    pending.seed,
                    result.trials_completed,
                    result.achieved_epsilon,
                )
        elapsed = time.monotonic() - pending.arrival
        self._latency_hist.observe(elapsed)
        top = None
        if pending.request.top_k is not None:
            top = _top_k(vector, int(result.source), pending.request.top_k)
        _resolve_future(
            pending.future,
            QueryResult(
                scores=vector,
                source=int(result.source),
                seed=pending.seed,
                elapsed=elapsed,
                top=top,
                batch_size=batch_size,
                coalesced=coalesced,
                trace=trace,
                breaker_state=breaker_state,
            ),
        )


def _top_k(scores: np.ndarray, source: int, k: int) -> List[Tuple[int, float]]:
    """The k best non-source nodes, score-descending, node id as tiebreak."""
    values = np.asarray(scores, dtype=np.float64).copy()
    values[source] = -np.inf
    k = min(k, values.size - 1)
    if k <= 0:
        return []
    top = np.argpartition(-values, k - 1)[:k]
    order = np.lexsort((top, -values[top]))
    ranked = top[order]
    return [(int(node), float(values[node])) for node in ranked]


def _current_exception() -> BaseException:
    import sys

    return sys.exc_info()[1]
