"""The CrashSim trial driver: one sequence for serial, thread and process.

Algorithm 1's ``n_r`` Monte-Carlo trials are mutually independent, so every
query — serial or sharded, fixed ``n_r`` or adaptive — runs the same five
steps, and each is written here once:

1. **validate** — one prologue and epilogue per query shape
   (:func:`_prologue` / :func:`_epilogue` for a single source, shared by
   :func:`drive_single` and :func:`~repro.core.batch.crashsim_batch`;
   :func:`drive_multi`): source and candidate checks, the prebuilt-tree
   check, the walk-target filter, and score assembly;
2. **plan** — a fixed shard plan (autotuned by :func:`plan_shards`, a pure
   function of the query shape, never of the worker count or the clock),
   each shard seeded by its own ``spawn`` child of the master
   :class:`~numpy.random.SeedSequence`;
3. **run** — one shard body (:func:`_shard_body`) for the process worker
   and the in-process closure alike, with the kernel ``accumulate*``
   method chosen in one place (:func:`_accumulate`);
4. **fold** — shard totals summed, or shard moments fed to the adaptive
   stopper, in shard order;
5. **settle** — one fault rule (:func:`_settle`): a run with no completed
   trial raises, a partial one returns ``degraded`` with a warning.

Because neither the shard boundaries nor the seed derivation depend on how
many workers run them, **any** worker count — including ``workers=1`` —
produces byte-identical scores for the same master seed (and the same
``shards`` argument).  The serial entry points are cases of this driver:
adaptive :func:`~repro.core.crashsim.crashsim` and
:func:`~repro.core.multi_source.crashsim_multi_source` run on the
``workers=1`` inline executor, and their fixed-``n_r`` runs are the classic
one-stream case — every trial drawn from the caller's generator as one
shard, the layout the pinned seed fixtures define.

Two execution tiers share the plan (see
:class:`~repro.parallel.executor.ParallelExecutor`):

* **process** — workers receive a :class:`_ShardTask` carrying only
  shared-memory specs (graph CSR, the source tree's sparse level arrays,
  walk targets) plus the query's :class:`_Job`, a trial count and a seed —
  a few hundred bytes per task; the megabyte-scale arrays are attached
  zero-copy via :mod:`repro.parallel.shared_graph`;
* **thread** (and the serial ``workers=1`` executor) — shards run as
  in-process closures over the original graph, each pool thread scoring
  through its own preallocated :class:`~repro.walks.kernel.WalkCrashKernel`
  from a :class:`~repro.walks.kernel.KernelPool` (kernels are not
  thread-safe); no pickling, no shared memory, no interpreter startup.

When no executor is passed in, drivers share the process-wide persistent
default executor (:func:`~repro.parallel.executor.get_default_executor`)
instead of paying pool construction per query.

:func:`parallel_crashsim_multi_source` shards the same way but keeps the
multi-source walk-sharing amortisation: every shard scores its walks against
*all* sources' trees (stacked into one shared 3-D array), so the dominant
walk-generation cost is still paid once per trial, not once per source.
"""

from __future__ import annotations

import contextlib
import logging
import math
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import faults, obs
from repro.core.adaptive import (
    AdaptiveOutcome,
    AdaptiveStopper,
    HubCache,
    build_hub_cache,
    drive_adaptive_rounds,
    plan_rounds,
    walk_value_bound,
)
from repro.core.crashsim import (
    CrashSimResult,
    _accumulate_crashes_dp,
    resolve_candidates,
)
from repro.core.params import CrashSimParams
from repro.core.revreach import revreach_levels
from repro.errors import (
    DeadlineExceededError,
    DegradedResultWarning,
    ParameterError,
)
from repro.graph.digraph import DiGraph
from repro.parallel.executor import (
    MapOutcome,
    ParallelExecutor,
    get_default_executor,
)
from repro.parallel.shared_graph import (
    ArraySpec,
    SharedArray,
    SharedGraph,
    SharedGraphSpec,
    SharedTree,
    SharedTreeSpec,
    attach_array,
    attach_graph,
    attach_tree,
)
from repro.rng import RngLike, as_seed_sequence, ensure_rng
from repro.walks.kernel import DEFAULT_DENSE_ROW_BUDGET, KernelPool, WalkCrashKernel

__all__ = [
    "DEFAULT_SHARDS",
    "MAX_SHARDS",
    "shard_sizes",
    "plan_shards",
    "parallel_crashsim",
    "parallel_crashsim_multi_source",
]

#: The legacy fixed shard count.  Kept as the explicit-``shards=``
#: reference layout (the pinned seed fixtures and the chaos suite use it);
#: the drivers' default is now the autotuned :func:`plan_shards`.
DEFAULT_SHARDS = 16

#: Upper bound on an autotuned plan.  Determinism requires the plan to be
#: a pure function of the query shape, so load balancing cannot adapt to
#: the machine — 64 shards keep ≥ 2 shards per worker up to 32 workers
#: while bounding per-shard dispatch overhead.
MAX_SHARDS = 64

#: Nominal wall-clock target per shard (seconds).  Below ~20ms a shard's
#: dispatch cost (submit, pickle or closure call, future wake-up) is no
#: longer negligible against its compute, which is exactly what made the
#: fixed 16-shard plan *slower* than serial on small queries.
TARGET_SHARD_SECONDS = 0.02

#: Nominal cost of one trial-walk per target (seconds), calibrated from
#: the recorded kernel benchmarks (~20ms per 50k-target trial).  A fixed
#: constant — **never** a measured probe — so the shard plan, and with it
#: the RNG stream layout and every score bit, is identical on every
#: machine and every run.
NOMINAL_TARGET_TRIAL_SECONDS = 4e-7

logger = logging.getLogger(__name__)

_M_DEGRADED = obs.REGISTRY.counter(
    "repro_queries_degraded_total",
    "Queries answered from a partial trial-shard set (widened epsilon).",
)
_M_SHARDS_LOST = obs.REGISTRY.counter(
    "repro_shards_lost_total",
    "Trial shards that never produced a total (deadline, cancel, failure).",
)
_M_SHARD_PLAN = obs.REGISTRY.gauge(
    "repro_shard_plan_size",
    "Shard count of the most recent parallel query's trial plan.",
)


def shard_sizes(n_trials: int, shards: int = DEFAULT_SHARDS) -> List[int]:
    """Split ``n_trials`` into at most ``shards`` near-equal positive parts.

    ``sum(shard_sizes(n, s)) == n`` always; fewer shards come back when
    ``n_trials < shards`` so no shard is ever empty.
    """
    if n_trials < 0:
        raise ParameterError(f"n_trials must be non-negative, got {n_trials}")
    if shards < 1:
        raise ParameterError(f"shards must be positive, got {shards}")
    count = min(shards, n_trials)
    if count == 0:
        return []
    base, remainder = divmod(n_trials, count)
    return [base + 1] * remainder + [base] * (count - remainder)


def plan_shards(
    n_trials: int, num_targets: int, *, n_r: Optional[int] = None
) -> List[int]:
    """Autotuned trial-shard plan: each shard worth ≥ ~20ms of walking.

    A **pure function** of the query shape ``(n_trials, num_targets,
    n_r)`` — never of the worker count, the CPU count, or a wall-clock
    probe — because the shard boundaries define the per-shard RNG streams:
    any machine-dependence here would break the byte-identical-at-any-
    worker-count contract and make results irreproducible across hosts.

    The estimate is nominal, not measured: one trial walks every target
    for ~``1/(1-√c)`` steps, costed at
    :data:`NOMINAL_TARGET_TRIAL_SECONDS` per target.  Small queries (the
    120-node test graphs, single-candidate scoring) collapse to one shard
    — parallel dispatch cannot win there — while big ones split until
    either every shard meets :data:`TARGET_SHARD_SECONDS` or the
    :data:`MAX_SHARDS` cap is hit.

    ``n_r`` (the planned full-quality trial count, defaulting to
    ``n_trials``) keeps the *shard size* stable if a caller ever plans a
    partial re-run: sizing from the full run means a resumed remainder
    splits on the same ≥ 20ms granularity.
    """
    if n_trials < 0:
        raise ParameterError(f"n_trials must be non-negative, got {n_trials}")
    if n_trials == 0:
        return []
    planned = n_trials if n_r is None else max(int(n_r), 1)
    per_trial = max(int(num_targets), 1) * NOMINAL_TARGET_TRIAL_SECONDS
    trials_per_shard = max(1, int(TARGET_SHARD_SECONDS / per_trial))
    count = min(MAX_SHARDS, math.ceil(planned / trials_per_shard), n_trials)
    return shard_sizes(n_trials, max(count, 1))


class _Estimate(NamedTuple):
    """A finished trial run, as the epilogue needs it."""

    totals: np.ndarray
    trials: int
    degraded: bool = False
    achieved_epsilon: Optional[float] = None
    stopped_early: bool = False


@dataclass(frozen=True)
class _Job:
    """What every shard of one query runs, apart from its size and seed.

    ``multi`` scores each walk against a stack of source trees; ``moments``
    returns per-candidate ``(totals, sumsq)`` for the adaptive stopper,
    retiring walks through ``hub_cache`` when one is set.
    """

    c: float
    l_max: int
    sampler: str
    multi: bool
    moments: bool = False
    hub_cache: Optional[HubCache] = None


def _accumulate(kernel, job: _Job, tree, targets, trials, rng) -> np.ndarray:
    """Run ``trials`` trials on ``kernel``: the one kernel-method choice.

    Moments come back stacked as one ``(2, ...)`` array of
    ``(totals, sumsq)``, so every shard result is a single ndarray.
    """
    if job.multi:
        trees = list(tree)
        if job.moments:
            return np.stack(
                kernel.accumulate_multi_moments(
                    trees, targets, trials, l_max=job.l_max, rng=rng
                )
            )
        return kernel.accumulate_multi(
            trees, targets, trials, l_max=job.l_max, rng=rng
        )
    if job.moments:
        return np.stack(
            kernel.accumulate_moments(
                tree, targets, trials, l_max=job.l_max, rng=rng,
                hub_cache=job.hub_cache,
            )
        )
    return kernel.accumulate(tree, targets, trials, l_max=job.l_max, rng=rng)


def _shard_body(kernel, job: _Job, tree, targets, index, trials, seed):
    """One trial shard on its own RNG stream, in any tier."""
    faults.inject("shard", index)
    return _accumulate(
        kernel, job, tree, targets, trials, np.random.default_rng(seed)
    )


class _Published(NamedTuple):
    """Shared-memory specs of one query's arrays (process tier only)."""

    graph: SharedGraphSpec
    tree: Union[SharedTreeSpec, ArraySpec]
    targets: ArraySpec


class _Inputs(NamedTuple):
    """What every round and shard of one query reads, set up once.

    ``tree`` is the sparse source tree, the query's dense ``U`` matrix
    (:func:`_fill_matrix`), or a multi-source job's stacked
    ``(q, l_max + 1, n)`` array.  On the process tier ``published``
    carries the specs the shards read instead — one publication serves
    every round, retry and pool rebuild of the query.
    """

    graph: object
    tree: object
    targets: np.ndarray
    published: Optional[_Published] = None


@dataclass(frozen=True)
class _ShardTask:
    """A process-tier shard: shared-memory specs, the job, and the shard.

    The hub cache rides along by value inside ``job`` — kilobytes of
    tails, not worth a segment.
    """

    published: _Published
    job: _Job
    index: int
    trials: int
    seed: np.random.SeedSequence


def _run_shard(task: _ShardTask) -> np.ndarray:
    """Process-tier worker entry point: attach the arrays, run the shard."""
    published = task.published
    view = attach_graph(published.graph)
    if isinstance(published.tree, ArraySpec):
        tree, handle = attach_array(published.tree)
        tree_handles = (handle,)
    else:
        tree, tree_handles = attach_tree(published.tree)
    targets, targets_handle = attach_array(published.targets)
    try:
        kernel = WalkCrashKernel(view, task.job.c, sampler=task.job.sampler)
        return _shard_body(
            kernel, task.job, tree, targets, task.index, task.trials, task.seed
        )
    finally:
        view.close()
        for handle in tree_handles:
            handle.close()
        targets_handle.close()


def _fill_matrix(tree, matrix: np.ndarray) -> np.ndarray:
    """Write the sparse tree's levels into the zero ``matrix``; return it.

    Every shard of a query reads the same rows.  Built once, the matrix
    replaces a lazy row cache per shard, and on the process tier it is
    written straight into the one segment every worker maps.  Built from
    the level arrays, not ``SparseReverseTree.matrix``: that caches on the
    tree, which a serving engine's LRU keeps long after the query.
    """
    for step in range(matrix.shape[0]):
        nodes, probs = tree.level_arrays(step)
        matrix[step, nodes] = probs
    return matrix


def _publish(
    stack: contextlib.ExitStack,
    graph,
    tree,
    targets: np.ndarray,
    job: _Job,
    *,
    dense: bool,
) -> _Published:
    """Copy the query's arrays into shared memory once.

    ``dense`` publishes the sparse ``tree`` as the query's dense ``U``
    matrix, filled in place.  ``stack`` unlinks every segment when the
    query ends — normally or by any exception — after the executor has
    drained its workers.
    """
    publish_alias = job.sampler == "alias" and getattr(graph, "is_weighted", False)
    shared_graph = stack.enter_context(SharedGraph(graph, publish_alias=publish_alias))
    if dense:
        shape = (job.l_max + 1, graph.num_nodes)
        matrix = stack.enter_context(SharedArray.zeros(shape))
        _fill_matrix(tree, matrix.array())
        tree_spec = matrix.spec
    elif isinstance(tree, np.ndarray):
        tree_spec = stack.enter_context(SharedArray(tree)).spec
    else:
        tree_spec = stack.enter_context(SharedTree(tree)).spec()
    targets_spec = stack.enter_context(SharedArray(targets)).spec
    return _Published(shared_graph.spec(), tree_spec, targets_spec)


# KernelPools are cached on the DiGraph itself (a dedicated slot), keyed by
# (c, sampler, jit) — the graph's lifetime bounds the pools', and a
# persistent executor's threads keep their warm kernel buffers across
# queries on the same graph.  The lock only guards pool registration.
_KERNEL_POOL_LOCK = threading.Lock()


def _kernel_pool(graph, *, c: float, sampler: str) -> KernelPool:
    """The per-thread kernel pool for ``graph`` under this configuration.

    Kernels resolve the JIT toggle at construction, so the cache key folds
    the current effective setting in — flipping ``REPRO_JIT`` mid-process
    yields fresh kernels instead of stale ones.  Graphs that cannot carry
    the cache slot (foreign protocol objects) get an uncached pool, which
    still provides the per-thread isolation the thread tier needs.
    """
    from repro.walks import _jit

    key = (float(c), sampler, _jit.jit_requested() and _jit.available())

    def factory():
        return WalkCrashKernel(graph, c, sampler=sampler)

    with _KERNEL_POOL_LOCK:
        pools = getattr(graph, "_kernel_pools", None)
        if pools is None:
            pools = {}
            try:
                graph._kernel_pools = pools
            except AttributeError:
                return KernelPool(factory)
        pool = pools.get(key)
        if pool is None:
            pool = KernelPool(factory)
            pools[key] = pool
        return pool


def _map_shards(
    executor: ParallelExecutor,
    inputs: _Inputs,
    job: _Job,
    sizes: Sequence[int],
    seeds: Sequence[np.random.SeedSequence],
    *,
    deadline: Optional[float],
    index_offset: int = 0,
) -> MapOutcome:
    """Run a slice of the shard plan on ``executor``'s tier, in shard order.

    The serial and thread tiers run shards as closures over the query's
    arrays, each thread through its own :class:`KernelPool` kernel; the
    process tier ships :class:`_ShardTask` s over the query's published
    specs to :func:`_run_shard`.  ``index_offset`` keeps global shard
    indices (the fault-injection identity) stable when the adaptive loop
    maps one round at a time.  Lost or failed shards were retried per the
    executor's policy; :func:`_settle` judges what is left.
    """
    indices = range(index_offset, index_offset + len(sizes))
    if inputs.published is None:
        kernels = _kernel_pool(inputs.graph, c=job.c, sampler=job.sampler)

        def run_local_shard(item):
            return _shard_body(
                kernels.get(), job, inputs.tree, inputs.targets, *item
            )

        items = list(zip(indices, sizes, seeds))
        return _dispatch(executor, run_local_shard, items, deadline)
    tasks = [
        _ShardTask(inputs.published, job, index, trials, seed)
        for index, trials, seed in zip(indices, sizes, seeds)
    ]
    return _dispatch(executor, _run_shard, tasks, deadline)


def _dispatch(executor: ParallelExecutor, fn, items, deadline) -> MapOutcome:
    """``executor.run`` in a ``shard_dispatch`` span, logging any recovery.

    The executor already absorbed retries and pool rebuilds; the structured
    record makes them visible to operators, who otherwise only see the
    run's wall-clock stretch.
    """
    with obs.span("shard_dispatch", shards=len(items), mode=executor.mode_label):
        outcome = executor.run(fn, items, deadline=deadline)
    if outcome.task_retries or outcome.pool_rebuilds:
        logger.warning(
            "shard execution recovered: task_retries=%d pool_rebuilds=%d "
            "shards=%d completed=%d elapsed=%.3fs",
            outcome.task_retries,
            outcome.pool_rebuilds,
            len(items),
            outcome.num_completed,
            outcome.elapsed,
        )
    return outcome


def _remaining_budget(deadline: Optional[float], started: float) -> Optional[float]:
    """Deadline minus setup time already spent; raises once it is gone.

    The tree build (and shared-memory publication) happen before any trial
    shard runs; a deadline that cannot even cover setup has nothing partial
    to return.
    """
    if deadline is None:
        return None
    remaining = deadline - (time.monotonic() - started)
    if remaining <= 0:
        raise DeadlineExceededError(
            f"deadline of {deadline}s elapsed during query setup, before any "
            "trial shard could run",
            deadline=deadline,
            elapsed=time.monotonic() - started,
        )
    return remaining


def _settle(
    outcome: MapOutcome,
    trials: int,
    *,
    degraded: bool,
    achieved: float,
    planned: int,
    n_r: int,
    params: CrashSimParams,
    deadline: Optional[float],
    log_context: dict,
) -> None:
    """The one fault rule: raise on no trials, warn on a partial estimate.

    ``outcome`` covers every shard the run attempted and ``trials`` counts
    the completed ones.  Zero completed trials leave no estimator to
    degrade to: the run raises :class:`DeadlineExceededError` after a
    deadline or cancellation (or when no shard recorded an error), else the
    first shard error.  A ``degraded`` run returns its estimate with the
    honest ``achieved`` bound, and emits a :class:`DegradedResultWarning`
    plus a structured log record carrying ``log_context`` (query source,
    master seed), so quality loss is never silent.
    """
    context = " ".join(f"{key}={value}" for key, value in log_context.items())
    if trials == 0 and planned:
        error = outcome.first_error()
        if error is not None and not (outcome.deadline_hit or outcome.cancelled):
            raise error
        reason = "cancelled" if outcome.cancelled else "deadline"
        logger.error(
            "query lost every trial shard: cause=%s shards_planned=%d "
            "elapsed=%.3fs %s",
            reason,
            planned,
            outcome.elapsed,
            context,
        )
        raise DeadlineExceededError(
            f"no trial shard completed before the {reason} "
            f"({outcome.elapsed:.3f}s elapsed, {planned} shards "
            "planned); no estimate exists to degrade to",
            deadline=deadline,
            elapsed=outcome.elapsed,
        )
    if not degraded:
        return
    lost = len(outcome.completed) - outcome.num_completed
    cause = (
        "deadline"
        if outcome.deadline_hit
        else "cancellation"
        if outcome.cancelled
        else "shard failures"
    )
    _M_DEGRADED.inc()
    _M_SHARDS_LOST.inc(lost)
    obs.event("degrade", cause=cause, shards_lost=lost, trials_completed=trials)
    logger.warning(
        "degraded CrashSim estimate: cause=%s shards_lost=%d/%d "
        "trials_completed=%d/%d achieved_epsilon=%.4g target_epsilon=%g %s",
        cause,
        lost,
        planned,
        trials,
        n_r,
        achieved,
        params.epsilon,
        context,
    )
    warnings.warn(
        f"degraded CrashSim estimate: {lost} of {planned} trial shards lost "
        f"to {cause}; {trials}/{n_r} trials give the honest bound "
        f"ε={achieved:.4g} (target ε={params.epsilon})",
        DegradedResultWarning,
        stacklevel=6,
    )


def _plan(n_r: int, num_targets: int, shards: Optional[int]) -> List[int]:
    """The query's shard plan: autotuned, or ``shards`` near-equal parts.

    ``num_targets`` counts walk targets times sources: a multi-source walk
    is scored against all ``q`` trees, so its trial costs ~q× the
    single-source nominal.
    """
    if shards is None:
        plan = plan_shards(n_r, num_targets, n_r=n_r)
    else:
        plan = shard_sizes(n_r, shards)
    _M_SHARD_PLAN.set(len(plan))
    return plan


def _run_fixed(
    executor: ParallelExecutor,
    inputs: _Inputs,
    job: _Job,
    params: CrashSimParams,
    *,
    plan: Sequence[int],
    seed_seq: np.random.SeedSequence,
    num_nodes: int,
    shape: tuple,
    deadline: Optional[float],
    started: float,
    log_context: dict,
) -> _Estimate:
    """All ``n_r`` trials in one sharded map, summed in shard order."""
    n_r = sum(plan)
    outcome = _map_shards(
        executor,
        inputs,
        job,
        plan,
        seed_seq.spawn(len(plan)),
        deadline=_remaining_budget(deadline, started),
    )
    trials = sum(size for size, done in zip(plan, outcome.completed) if done)
    achieved = params.achieved_epsilon(num_nodes, max(trials, 1))
    _settle(
        outcome, trials, degraded=trials < n_r, achieved=achieved,
        planned=len(plan), n_r=n_r, params=params, deadline=deadline,
        log_context=log_context,
    )
    # Sum in shard order: float addition order is part of the
    # worker-count-independence contract.  Lost shards are skipped, not
    # zero-filled — the divisor shrinks with them.
    totals = np.zeros(shape, dtype=np.float64)
    for shard_total, done in zip(outcome.results, outcome.completed):
        if done:
            totals += shard_total
    return _Estimate(totals, trials, trials < n_r, achieved)


def _run_adaptive(
    executor: ParallelExecutor,
    inputs: _Inputs,
    job: _Job,
    params: CrashSimParams,
    *,
    plan: Sequence[int],
    seed_seq: np.random.SeedSequence,
    num_nodes: int,
    num_estimates: int,
    value_bound,
    deadline: Optional[float],
    started: float,
    log_context: dict,
) -> AdaptiveOutcome:
    """Adaptive rounds over the shard plan, on any tier.

    One deterministic plan + seed spawn covers the whole potential run;
    rounds are plan *slices* mapped through :func:`_map_shards`, the
    stopper folds completed shard moments in shard order, and the stop
    decision happens between rounds — so the result is byte-identical at
    any worker count, on any tier, ``workers=1`` included.  The deadline
    budget is re-measured before every round; an expiry mid-run keeps
    whatever rounds completed.
    """
    n_r = params.n_r(num_nodes)
    seeds = seed_seq.spawn(len(plan))
    stopper = AdaptiveStopper(
        params, num_estimates, value_bound, len(plan_rounds(len(plan)))
    )
    attempted = MapOutcome()

    def run_round(start, sizes, round_seeds):
        try:
            remaining = _remaining_budget(deadline, started)
        except DeadlineExceededError:
            if stopper.trials == 0:
                raise
            attempted.completed.extend([False] * len(sizes))
            attempted.deadline_hit = True
            return [None] * len(sizes), True
        outcome = _map_shards(
            executor, inputs, job, sizes, round_seeds,
            deadline=remaining, index_offset=start,
        )
        attempted.completed.extend(outcome.completed)
        attempted.errors.extend(outcome.errors)
        attempted.deadline_hit |= outcome.deadline_hit
        attempted.cancelled |= outcome.cancelled
        results = [
            moments if done else None
            for moments, done in zip(outcome.results, outcome.completed)
        ]
        return results, outcome.deadline_hit or outcome.cancelled

    result = drive_adaptive_rounds(
        plan, seeds, stopper, run_round, num_nodes=num_nodes, n_r=n_r
    )
    attempted.elapsed = time.monotonic() - started
    _settle(
        attempted, result.trials_used, degraded=result.degraded,
        achieved=result.achieved_epsilon, planned=len(plan), n_r=n_r,
        params=params, deadline=deadline, log_context=log_context,
    )
    return result


def _run_trials(
    graph,
    tree,
    targets: np.ndarray,
    params: CrashSimParams,
    *,
    multi: bool,
    seed: RngLike,
    sampler: str,
    adaptive: bool = False,
    one_stream: bool = False,
    first_meeting: str = "none",
    workers: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    shards: Optional[int] = None,
    deadline: Optional[float] = None,
    mode: str = "auto",
    started: float = 0.0,
    log_context: Optional[dict] = None,
    kernel: Optional[WalkCrashKernel] = None,
) -> _Estimate:
    """Plan, run, fold and settle one query's trials.

    ``tree`` is the source's tree, or the list of source trees when
    ``multi``.  ``one_stream`` runs a fixed-``n_r`` query as the classic
    serial estimator — every trial on the caller's generator, no executor,
    on ``kernel`` when one is passed warm; adaptive queries always shard.
    ``started`` and ``log_context`` are read only by sharded runs.

    A sharded query sets up once what all its rounds and shards read: the
    hub cache, the dense ``U`` matrix (:func:`_fill_matrix`; for an
    adaptive query, or a fixed one split over more than one shard, when it
    fits the budget) and, on the process tier, one shared-memory
    publication — the matrix written straight into its segment — that is
    unlinked when the query ends.
    """
    if deadline is not None and deadline <= 0:
        raise ParameterError(f"deadline must be positive, got {deadline}")
    num_nodes = max(graph.num_nodes, 2)
    n_r = params.n_r(num_nodes)
    job = _Job(params.c, params.l_max, sampler, multi)
    num_sources = len(tree) if multi else 1
    shape = (num_sources, targets.size) if multi else (targets.size,)
    if one_stream and not adaptive:
        rng = ensure_rng(seed)
        if first_meeting == "dp":
            totals = _accumulate_crashes_dp(graph, tree, targets, n_r, params, rng)
        else:
            if kernel is None:
                kernel = WalkCrashKernel(graph, params.c, sampler=sampler)
            totals = _accumulate(kernel, job, tree, targets, n_r, rng)
        return _Estimate(totals, n_r)
    if executor is None:
        executor = get_default_executor(workers, mode=mode)
    seed_seq = as_seed_sequence(seed)
    sparse_trees = tree if multi else [tree]
    if multi:
        tree = np.stack([t.matrix for t in sparse_trees])
    num_estimates = targets.size * num_sources
    if not num_estimates:
        if not adaptive:
            achieved = params.achieved_epsilon(num_nodes, n_r)
            return _Estimate(np.zeros(shape), n_r, False, achieved)
        outcome = drive_adaptive_rounds(
            [], [], AdaptiveStopper(params, 0, 0.0, 1), lambda *_: ([], False),
            num_nodes=num_nodes, n_r=n_r,
        )
        return _Estimate(
            outcome.totals.reshape(shape), 0, False, outcome.achieved_epsilon
        )
    plan = _plan(n_r, num_estimates, shards)
    if adaptive:
        job = replace(job, moments=True)
        if not multi:
            job = replace(
                job,
                hub_cache=build_hub_cache(graph, tree, l_max=job.l_max, c=job.c),
            )
    # The dense matrix must fit the kernel's dense-row budget beside the
    # hub cache: the rule under which a shard would not cache rows either.
    matrix_bytes = (job.l_max + 1) * graph.num_nodes * 8
    reserved = job.hub_cache.nbytes if job.hub_cache is not None else 0
    dense = (
        not multi
        and hasattr(tree, "level_arrays")
        and (adaptive or len(plan) > 1)
        and matrix_bytes + reserved <= DEFAULT_DENSE_ROW_BUDGET
    )
    with contextlib.ExitStack() as stack:
        published = None
        if executor.uses_processes:
            published = _publish(stack, graph, tree, targets, job, dense=dense)
        elif dense:
            matrix = np.zeros((job.l_max + 1, graph.num_nodes), dtype=np.float64)
            tree = _fill_matrix(tree, matrix)
        inputs = _Inputs(graph, tree, targets, published)
        if not adaptive:
            return _run_fixed(
                executor, inputs, job, params,
                plan=plan,
                seed_seq=seed_seq,
                num_nodes=num_nodes,
                shape=shape,
                deadline=deadline,
                started=started,
                log_context=log_context,
            )
        # Per-walk ranges sum each sparse tree's level maxima in order; a
        # numpy sum over the stacked rows may round differently.
        bounds = [walk_value_bound(t, params.l_max) for t in sparse_trees]
        outcome = _run_adaptive(
            executor, inputs, job, params,
            plan=plan,
            seed_seq=seed_seq,
            num_nodes=num_nodes,
            num_estimates=num_estimates,
            value_bound=np.repeat(bounds, targets.size) if multi else bounds[0],
            deadline=deadline,
            started=started,
            log_context=log_context,
        )
    return _Estimate(
        outcome.totals.reshape(shape),
        outcome.trials_used,
        outcome.degraded,
        outcome.achieved_epsilon,
        outcome.stopped_early,
    )


def _check_source(graph, source) -> int:
    if not 0 <= int(source) < graph.num_nodes:
        raise ParameterError(
            f"source {source} outside the graph's node range [0, {graph.num_nodes})"
        )
    return int(source)


class _Query(NamedTuple):
    """A checked single-source query: what the trials and epilogue need."""

    source: int
    candidates: np.ndarray
    targets: np.ndarray
    tree: object


def _prologue(
    graph,
    source: int,
    *,
    candidates: Optional[Iterable[int]],
    params: CrashSimParams,
    tree_variant: str,
    tree_provider: Optional[Callable[[int], object]] = None,
) -> _Query:
    """Check the source, resolve candidates, get the tree, filter targets.

    ``tree_provider`` is asked only for an in-range source, and its tree
    must match the query; without one the tree is built.
    """
    source = _check_source(graph, source)
    candidate_array = resolve_candidates(graph, source, candidates)
    if tree_provider is None:
        tree = revreach_levels(
            graph, source, params.l_max, params.c, variant=tree_variant
        )
    else:
        tree = tree_provider(source)
        if (
            tree.source != source
            or tree.l_max != params.l_max
            or tree.variant != tree_variant
            or not math.isclose(tree.c, params.c)
        ):
            raise ParameterError(
                "provided tree does not match the query's source/c/l_max/variant"
            )
    walk_targets = candidate_array[candidate_array != source]
    # A candidate with no in-neighbours cannot take a single walk step, so
    # its estimator is exactly 0 — drop it before paying n_r walks for it.
    walk_targets = walk_targets[graph.in_degrees()[walk_targets] > 0]
    return _Query(source, candidate_array, walk_targets, tree)


def _epilogue(
    graph, query: _Query, estimate: _Estimate, params: CrashSimParams
) -> CrashSimResult:
    """Assemble one query's scores from its trial totals."""
    scores = np.zeros(query.candidates.size, dtype=np.float64)
    walk_positions = np.searchsorted(query.candidates, query.targets)
    scores[walk_positions] = estimate.totals / max(estimate.trials, 1)
    scores[query.candidates == query.source] = 1.0
    return CrashSimResult(
        source=query.source,
        candidates=query.candidates,
        scores=np.clip(scores, 0.0, 1.0),
        n_r=params.n_r(max(graph.num_nodes, 2)),
        params=params,
        tree=query.tree,
        trials_completed=estimate.trials,
        degraded=estimate.degraded,
        achieved_epsilon=estimate.achieved_epsilon,
        stopped_early=estimate.stopped_early,
    )


def drive_single(
    graph: DiGraph,
    source: int,
    *,
    candidates: Optional[Iterable[int]],
    params: Optional[CrashSimParams],
    tree,
    tree_variant: str,
    seed: RngLike,
    sampler: str,
    adaptive: bool = False,
    one_stream: bool = False,
    first_meeting: str = "none",
    workers: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    shards: Optional[int] = None,
    deadline: Optional[float] = None,
    mode: str = "auto",
    kernel: Optional[WalkCrashKernel] = None,
) -> CrashSimResult:
    """One single-source query: prologue, trials, epilogue.

    The body of :func:`~repro.core.crashsim.crashsim` (``workers=1``,
    ``one_stream=True``), of :func:`parallel_crashsim` and of the serving
    engine's solo answers; ``kernel`` is reused by one-stream runs only.
    """
    params = params or CrashSimParams()
    started = time.monotonic()
    query = _prologue(
        graph,
        source,
        candidates=candidates,
        params=params,
        tree_variant=tree_variant,
        tree_provider=None if tree is None else lambda _: tree,
    )
    estimate = _run_trials(
        graph,
        query.tree,
        query.targets,
        params,
        multi=False,
        seed=seed,
        sampler=sampler,
        adaptive=adaptive,
        one_stream=one_stream,
        first_meeting=first_meeting,
        workers=workers,
        executor=executor,
        shards=shards,
        deadline=deadline,
        mode=mode,
        started=started,
        log_context={"source": query.source, "seed": seed},
        kernel=kernel,
    )
    return _epilogue(graph, query, estimate, params)


def drive_multi(
    graph: DiGraph,
    sources: Sequence[int],
    *,
    candidates: Optional[Iterable[int]],
    params: Optional[CrashSimParams],
    tree_variant: str,
    seed: RngLike,
    sampler: str,
    adaptive: bool,
    one_stream: bool = False,
    workers: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    shards: Optional[int] = None,
    deadline: Optional[float] = None,
    mode: str = "auto",
) -> List[CrashSimResult]:
    """One multi-source query: prologue, shared-walk trials, epilogue.

    The body of :func:`~repro.core.multi_source.crashsim_multi_source`
    (``workers=1``, ``one_stream=True``) and of
    :func:`parallel_crashsim_multi_source`.
    """
    params = params or CrashSimParams()
    started = time.monotonic()
    source_list = [_check_source(graph, source) for source in sources]
    if not source_list:
        return []
    # No node is -1, so ``None`` keeps every node; each result drops its
    # own source below.
    candidate_array = resolve_candidates(graph, -1, candidates)
    trees = [
        revreach_levels(graph, source, params.l_max, params.c, variant=tree_variant)
        for source in source_list
    ]
    # Walk once for every candidate that can walk at all.
    walk_targets = candidate_array[graph.in_degrees()[candidate_array] > 0]

    estimate = _run_trials(
        graph,
        trees,
        walk_targets,
        params,
        multi=True,
        seed=seed,
        sampler=sampler,
        adaptive=adaptive,
        one_stream=one_stream,
        workers=workers,
        executor=executor,
        shards=shards,
        deadline=deadline,
        mode=mode,
        started=started,
        log_context={"sources": source_list, "seed": seed},
    )
    # Each source's answer drops the source itself from the shared layout.
    results: List[CrashSimResult] = []
    for row, (source, tree) in enumerate(zip(source_list, trees)):
        keep = walk_targets != source
        query = _Query(
            source, candidate_array[candidate_array != source], walk_targets[keep], tree
        )
        row_estimate = estimate._replace(totals=estimate.totals[row][keep])
        results.append(_epilogue(graph, query, row_estimate, params))
    return results


def parallel_crashsim(
    graph: DiGraph,
    source: int,
    *,
    candidates: Optional[Iterable[int]] = None,
    params: Optional[CrashSimParams] = None,
    tree_variant: str = "corrected",
    seed: RngLike = None,
    workers: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    shards: Optional[int] = None,
    deadline: Optional[float] = None,
    sampler: str = "cdf",
    tree=None,
    mode: str = "auto",
    adaptive: bool = False,
) -> CrashSimResult:
    """Single-source CrashSim with the ``n_r`` trials sharded over workers.

    Parameters mirror :func:`repro.core.crashsim.crashsim`, plus:

    workers:
        Worker count (``None`` → CPU count, ``1`` → serial in-process).
    executor:
        Reuse an existing :class:`ParallelExecutor` across queries; the
        caller keeps ownership.  When omitted, the process-wide persistent
        default executor for ``(workers, mode)`` is shared — pool start-up
        is paid once per process, not once per query.
    mode:
        Execution tier when no ``executor`` is passed: ``"process"``,
        ``"thread"``, or ``"auto"`` (default — threads when the nogil JIT
        is active, processes otherwise; see
        :func:`~repro.parallel.executor.resolve_mode`).  The tier never
        affects scores, only where shards run.
    tree:
        A prebuilt :class:`~repro.core.revreach.SparseReverseTree` for
        ``source`` (e.g. from a serving engine's LRU), validated against
        the query's ``source``/``c``/``l_max``/``variant``; built fresh
        when omitted.  Supplying one moves the tree build out of the
        ``deadline`` budget, since the budget clock only meters work done
        inside this call.
    shards:
        Trial-shard count; ``None`` (default) autotunes via
        :func:`plan_shards` (each shard worth ≥ ~20ms of walking, capped
        at :data:`MAX_SHARDS`).  Results depend on the shard plan (it
        defines the RNG stream layout) but **not** on ``workers`` or
        ``mode`` — the determinism contract is: same master seed + same
        plan ⇒ identical scores at any worker count, on any tier.  Pass
        ``shards=DEFAULT_SHARDS`` (16) to reproduce the legacy layout the
        pinned fixtures use.
    deadline:
        Wall-clock budget in seconds for the whole query (tree build
        included).  On expiry the estimate averages whichever trial shards
        completed — still unbiased, flagged ``degraded=True`` with the
        honest wider bound in ``achieved_epsilon`` — and a
        :class:`~repro.errors.DeadlineExceededError` is raised only if
        *nothing* completed.  ``None`` (default) never times out.
    sampler:
        Weighted neighbour-sampling strategy (``"cdf"`` default /
        ``"alias"`` opt-in), forwarded to every shard's fused kernel; with
        ``"alias"`` the per-node alias tables are published zero-copy
        through the shared graph so workers skip the O(m) rebuild.
    adaptive:
        Run the trials in geometrically growing rounds with empirical-
        Bernstein early stopping (:mod:`repro.core.adaptive`): rounds are
        slices of the same deterministic shard plan, the stop decision
        happens between rounds, and shard moments are folded in shard
        order — byte-identical to the serial ``crashsim(adaptive=True)``
        at any worker count, on any tier.  Composes with ``deadline``: an
        expiry mid-run keeps completed rounds and reports whichever bound
        is better (inverted Lemma 3 or empirical Bernstein) — adaptive
        metadata is never worse than the fixed-path equivalent.

    Lost shards (worker death, in-shard exceptions) are retried with a
    rebuilt pool before being given up on; a run in which every shard
    eventually completed — retried or not — is byte-identical to an
    undisturbed one, because shard totals are summed in shard order from
    per-shard RNG streams that never depend on scheduling.

    The estimator is exactly Algorithm 1's; only the trial execution order
    across RNG streams differs from the serial :func:`crashsim`, so the
    Theorem-1 ``(ε, δ)`` guarantee carries over unchanged when all shards
    complete, and degrades to the inverted Lemma-3 bound when they don't.
    """
    return drive_single(
        graph,
        source,
        candidates=candidates,
        params=params,
        tree=tree,
        tree_variant=tree_variant,
        seed=seed,
        sampler=sampler,
        adaptive=adaptive,
        workers=workers,
        executor=executor,
        shards=shards,
        deadline=deadline,
        mode=mode,
    )


def parallel_crashsim_multi_source(
    graph: DiGraph,
    sources: Sequence[int],
    *,
    candidates: Optional[Iterable[int]] = None,
    params: Optional[CrashSimParams] = None,
    tree_variant: str = "corrected",
    seed: RngLike = None,
    workers: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    shards: Optional[int] = None,
    deadline: Optional[float] = None,
    sampler: str = "cdf",
    mode: str = "auto",
    adaptive: bool = False,
) -> List[CrashSimResult]:
    """Multi-source CrashSim with trial shards fanned out over workers.

    Keeps :func:`~repro.core.multi_source.crashsim_multi_source`'s
    amortisation — each sampled walk is scored against every source's tree —
    while splitting the trials exactly like :func:`parallel_crashsim`,
    including its ``deadline`` / graceful-degradation contract.  A shard
    carries the same trials for every source, so a partial run degrades all
    sources uniformly: every returned result shares one
    ``trials_completed`` / ``achieved_epsilon``.
    Returns one :class:`CrashSimResult` per source, in input order.

    ``adaptive=True`` adds empirical-Bernstein early stopping over the same
    rounds-of-shards layout as :func:`parallel_crashsim`; the shared walk
    stream is the common-random-number design, so one walk budget serves
    every source's stop decision (the run stops when the worst
    ``(source, candidate)`` half-width is within ε).
    """
    return drive_multi(
        graph,
        sources,
        candidates=candidates,
        params=params,
        tree_variant=tree_variant,
        seed=seed,
        sampler=sampler,
        adaptive=adaptive,
        workers=workers,
        executor=executor,
        shards=shards,
        deadline=deadline,
        mode=mode,
    )
