"""The CrashSim trial driver: one trial loop for every query.

Algorithm 1's ``n_r`` Monte-Carlo trials are mutually independent, so every
query — serial or sharded, one source or many, fixed ``n_r`` or adaptive —
runs the same steps in one body (:func:`_run_trials`), each written once:

1. **validate** — one prologue and epilogue per query shape
   (:func:`_prologue` / :func:`_epilogue` for a single source, shared by
   :func:`drive_single` and :func:`~repro.core.batch.crashsim_batch`;
   :func:`drive_multi`): source and candidate checks, the prebuilt-tree
   check, the walk-target filter, and score assembly;
2. **plan** — a fixed shard plan (autotuned by :func:`plan_shards`, a pure
   function of the query shape, never of the worker count or the clock),
   each shard seeded by its own ``spawn`` child of the master
   :class:`~numpy.random.SeedSequence`.  A one-stream run is the
   one-shard plan whose stream is the caller's generator;
3. **set up** — one rule (:func:`_setup`) decides the dense ``U`` input
   every round and shard reads, all trees and the hub cache charged
   against one dense-row budget;
4. **run** — one ``run_round`` per slice of the plan, each shard on its
   own RNG stream, with the kernel method chosen in one place
   (:func:`_accumulate`, which also picks the ``first_meeting="dp"``
   program);
5. **fold** — in shard order: a fixed run is one round whose shard totals
   are summed, an adaptive run feeds round slices to the stopper through
   :func:`~repro.core.adaptive.drive_adaptive_rounds`;
6. **settle** — one fault rule (:func:`_settle`): a run with no completed
   trial raises, a partial one returns ``degraded`` with a warning.

Every run comes out as one record, an
:class:`~repro.core.adaptive.AdaptiveOutcome`, so every result carries
``trials_completed`` and ``achieved_epsilon``.

Because neither the shard boundaries nor the seed derivation depend on how
many workers run them, **any** worker count — including ``workers=1`` —
produces byte-identical scores for the same master seed (and the same
``shards`` argument).  The serial entry points are cases of this driver:
adaptive :func:`~repro.core.crashsim.crashsim` and
:func:`~repro.core.multi_source.crashsim_multi_source` run on the
``workers=1`` inline executor, and their fixed-``n_r`` runs are the classic
one-stream case — every trial drawn from the caller's generator as one
shard, the layout the pinned seed fixtures define.  That shard runs on the
caller's thread and kernel: no executor, no retry, no fault site.

Sharded runs execute as in-process closures over the query's arrays on a
:class:`~repro.parallel.executor.ParallelExecutor` thread pool (or inline on
the serial ``workers=1`` executor), each thread scoring through its own
preallocated :class:`~repro.walks.kernel.WalkCrashKernel` from a
:class:`~repro.walks.kernel.KernelPool` (kernels are not thread-safe).

When no executor is passed in, drivers share the process-wide persistent
default executor (:func:`~repro.parallel.executor.get_default_executor`)
instead of paying pool construction per query.

:func:`parallel_crashsim_multi_source` shards the same way but keeps the
multi-source walk-sharing amortisation: every shard scores its walks against
*all* sources' trees (one shared 3-D array when they fit the budget), so
the dominant walk-generation cost is still paid once per trial, not once
per source.
"""

from __future__ import annotations

import logging
import math
import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence

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
#: dispatch cost (submit, closure call, future wake-up) is no
#: longer negligible against its compute, which is exactly what made the
#: fixed 16-shard plan *slower* than serial on small queries.
TARGET_SHARD_SECONDS = 0.02

#: Nominal cost of one trial-walk per target (seconds).  Derived from the
#: walk kernel as a sharded query runs it (dense ``U`` matrix, NumPy
#: path, no numba): the pinned power-law fixture's top in-degree source
#: scored against all 19,190 walk targets takes 300-310 ms for 128 trials
#: on a 2-vCPU x86 runner with numpy 2.4.6, i.e. ~1.26e-7 s per
#: target-trial, rounded to 1.3e-7.  That query plans 16 shards of 8
#: trials (~24 ms each).  A fixed constant — **never** a measured probe —
#: so the shard plan, and with it the RNG stream layout and every score
#: bit, is identical on every machine and every run.
NOMINAL_TARGET_TRIAL_SECONDS = 1.3e-7

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


def plan_shards(n_trials: int, num_targets: int) -> List[int]:
    """Autotuned trial-shard plan: each shard worth ≥ ~20ms of walking.

    A **pure function** of the query shape ``(n_trials, num_targets)`` —
    never of the worker count, the CPU count, or a wall-clock probe —
    because the shard boundaries define the per-shard RNG streams: any
    machine-dependence here would break the byte-identical-at-any-worker-
    count contract and make results irreproducible across hosts.

    The estimate is nominal, not measured: one trial walks every target
    for ~``1/(1-√c)`` steps, costed at
    :data:`NOMINAL_TARGET_TRIAL_SECONDS` per target.  Small queries (the
    120-node test graphs, single-candidate scoring) collapse to one shard
    — parallel dispatch cannot win there — while big ones split until
    either every shard meets :data:`TARGET_SHARD_SECONDS` or the
    :data:`MAX_SHARDS` cap is hit.
    """
    if n_trials < 0:
        raise ParameterError(f"n_trials must be non-negative, got {n_trials}")
    if n_trials == 0:
        return []
    per_trial = max(int(num_targets), 1) * NOMINAL_TARGET_TRIAL_SECONDS
    trials_per_shard = max(1, int(TARGET_SHARD_SECONDS / per_trial))
    count = min(MAX_SHARDS, math.ceil(n_trials / trials_per_shard))
    return shard_sizes(n_trials, max(count, 1))


@dataclass(frozen=True)
class _Job:
    """What every shard of one query runs, apart from its size and stream.

    ``multi`` scores each walk against a stack of source trees; ``moments``
    returns per-candidate ``(totals, sumsq)`` for the adaptive stopper,
    retiring walks through ``hub_cache`` when one is set; ``first_meeting``
    ``"dp"`` swaps the kernel for the exact first-meeting program.
    """

    c: float
    l_max: int
    sampler: str
    multi: bool
    moments: bool = False
    hub_cache: Optional[HubCache] = None
    first_meeting: str = "none"


def _accumulate(kernel, job: _Job, tree, targets, trials, rng) -> np.ndarray:
    """Run ``trials`` trials on ``kernel``: the one kernel-method choice.

    Moments come back stacked as one ``(2, ...)`` array of
    ``(totals, sumsq)``, so every shard result is a single ndarray.
    """
    if job.first_meeting == "dp":
        return _accumulate_crashes_dp(
            kernel.graph, tree, targets, trials, c=job.c, l_max=job.l_max, rng=rng
        )
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


class _Inputs(NamedTuple):
    """What every round and shard of one query reads, set up once.

    ``tree`` is the source tree or, for a multi-source job, the sequence
    of source trees; either may be the query's dense ``U`` matrix
    (:func:`_setup`), ``(l_max + 1, n)`` or ``(q, l_max + 1, n)``.
    """

    graph: object
    tree: object
    targets: np.ndarray


def _fill_matrix(tree, matrix: np.ndarray) -> np.ndarray:
    """Write the sparse tree's levels into the zero ``matrix``; return it.

    Built from the level arrays, not ``SparseReverseTree.matrix``: that
    caches on the tree, which a serving engine's LRU keeps long after the
    query.
    """
    for step in range(matrix.shape[0]):
        nodes, probs = tree.level_arrays(step)
        matrix[step, nodes] = probs
    return matrix


def _setup(
    graph, trees: Sequence, targets: np.ndarray, job: _Job, *, shared: bool
) -> _Inputs:
    """The query's dense input: one rule for single and multi runs.

    A query whose tree rows are read by more than one kernel call
    (``shared``: several shards, or adaptive rounds) gets one dense ``U``
    matrix for all of them, in place of a lazy row cache per call — when
    every tree has level arrays and all ``q`` matrices fit
    :data:`~repro.walks.kernel.DEFAULT_DENSE_ROW_BUDGET` beside the hub
    cache, the rule under which a kernel call would not cache rows either.
    Otherwise the trees go to the kernel as they are.
    """
    matrix_bytes = len(trees) * (job.l_max + 1) * graph.num_nodes * 8
    reserved = job.hub_cache.nbytes if job.hub_cache is not None else 0
    if (
        shared
        and all(hasattr(tree, "level_arrays") for tree in trees)
        and matrix_bytes + reserved <= DEFAULT_DENSE_ROW_BUDGET
    ):
        matrix = np.zeros((len(trees), job.l_max + 1, graph.num_nodes))
        for tree, rows in zip(trees, matrix):
            _fill_matrix(tree, rows)
        trees = matrix
    return _Inputs(graph, trees if job.multi else trees[0], targets)


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
    still provides the per-thread isolation the pool threads need.
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
    index_offset: int,
) -> MapOutcome:
    """Run a slice of the shard plan on ``executor``, in shard order.

    Shards are closures over the query's arrays, each thread scoring
    through its own :class:`KernelPool` kernel.  ``index_offset`` keeps
    global shard indices (the fault-injection identity) stable when the
    adaptive loop maps one round at a time.  Failed shards were retried
    per the executor's policy; :func:`_settle` judges what is left.
    """
    indices = range(index_offset, index_offset + len(sizes))
    kernels = _kernel_pool(inputs.graph, c=job.c, sampler=job.sampler)

    def run_shard(item):
        index, trials, seed = item
        faults.inject("shard", index)
        return _accumulate(
            kernels.get(), job, inputs.tree, inputs.targets, trials,
            np.random.default_rng(seed),
        )

    items = list(zip(indices, sizes, seeds))
    return _dispatch(executor, run_shard, items, deadline)


def _dispatch(executor: ParallelExecutor, fn, items, deadline) -> MapOutcome:
    """``executor.run`` in a ``shard_dispatch`` span, logging any recovery.

    The executor already absorbed retries; the structured record makes them
    visible to operators, who otherwise only see the run's wall-clock
    stretch.
    """
    with obs.span("shard_dispatch", shards=len(items), mode=executor.mode_label):
        outcome = executor.run(fn, items, deadline=deadline)
    if outcome.task_retries:
        logger.warning(
            "shard execution recovered: task_retries=%d "
            "shards=%d completed=%d elapsed=%.3fs",
            outcome.task_retries,
            len(items),
            outcome.num_completed,
            outcome.elapsed,
        )
    return outcome


def _remaining_budget(deadline: Optional[float], started: float) -> Optional[float]:
    """Deadline minus setup time already spent; raises once it is gone.

    The tree build (and the dense matrix) happen before any trial shard
    runs; a deadline that cannot even cover setup has nothing partial
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
        stacklevel=5,
    )


def _plan(n_r: int, num_estimates: int, shards: Optional[int]) -> List[int]:
    """A sharded query's plan: autotuned, or ``shards`` near-equal parts.

    ``num_estimates`` counts walk targets times sources: a multi-source
    walk is scored against all ``q`` trees, so its trial costs ~q× the
    single-source nominal.  A query with nothing to estimate plans no
    shard.
    """
    if not num_estimates:
        return []
    if shards is None:
        plan = plan_shards(n_r, num_estimates)
    else:
        plan = shard_sizes(n_r, shards)
    _M_SHARD_PLAN.set(len(plan))
    return plan


def _sum_round(
    plan: Sequence[int], streams: Sequence, run_round, *, num_estimates: int,
    n_r: int, num_nodes: int, params: CrashSimParams,
) -> AdaptiveOutcome:
    """A fixed run: one round holding the whole plan, summed in shard order.

    Float addition order is part of the worker-count-independence
    contract.  Lost shards are skipped, not zero-filled, and their trials
    come off ``n_r``: the divisor shrinks with them.
    """
    # An empty plan (nothing to estimate) runs no round, as in the
    # adaptive loop.
    results, _ = run_round(0, plan, streams) if plan else ([], False)
    totals = np.zeros(num_estimates, dtype=np.float64)
    trials = n_r
    for size, result in zip(plan, results):
        if result is None:
            trials -= size
        else:
            totals += result.ravel()
    return AdaptiveOutcome(
        totals=totals,
        trials_used=trials,
        n_r=n_r,
        rounds_run=1,
        stopped_early=False,
        converged=False,
        degraded=trials < n_r,
        achieved_epsilon=params.achieved_epsilon(num_nodes, max(trials, 1)),
        shards_lost=sum(result is None for result in results),
    )


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
    started: float = 0.0,
    log_context: Optional[dict] = None,
    kernel: Optional[WalkCrashKernel] = None,
) -> AdaptiveOutcome:
    """Plan, set up, run, fold and settle one query's trials.

    ``tree`` is the source's tree, or the list of source trees when
    ``multi``.  Every query runs the same body:

    * **streams** — ``one_stream`` (fixed ``n_r`` only; adaptive queries
      always shard) is a one-shard plan whose stream is the caller's
      generator; it runs inline on ``kernel`` (or a fresh one), never on
      an executor or a pooled kernel, with no retry (a retry would redraw
      from a consumed generator) and no fault site.  A sharded plan draws
      one ``spawn`` child per shard and runs on ``executor``;
    * **setup** — the hub cache (adaptive single-source) and the dense
      input (:func:`_setup`), once for every round and shard;
    * **run and fold** — ``run_round`` maps one slice of the plan; a fixed
      run is one round summed in shard order (:func:`_sum_round`), an
      adaptive run feeds :func:`~repro.core.adaptive.plan_rounds` slices
      through :func:`~repro.core.adaptive.drive_adaptive_rounds`;
    * **settle** — :func:`_settle`, once.

    ``started`` and ``log_context`` are read only by sharded runs.
    Returns the run's one record, its ``totals`` flat over ``(q·k,)``.
    """
    if deadline is not None and deadline <= 0:
        raise ParameterError(f"deadline must be positive, got {deadline}")
    num_nodes = max(graph.num_nodes, 2)
    n_r = params.n_r(num_nodes)
    trees = list(tree) if multi else [tree]
    num_estimates = targets.size * len(trees)
    job = _Job(
        params.c, params.l_max, sampler, multi, moments=adaptive,
        first_meeting=first_meeting,
    )
    inline = one_stream and not adaptive
    if inline:
        plan, streams = [n_r], [ensure_rng(seed)]
        if kernel is None:
            kernel = WalkCrashKernel(graph, params.c, sampler=sampler)
    else:
        plan = _plan(n_r, num_estimates, shards)
        streams = as_seed_sequence(seed).spawn(len(plan))
        if executor is None:
            executor = get_default_executor(workers)
    if adaptive and not multi:
        job = replace(
            job,
            hub_cache=build_hub_cache(graph, trees[0], l_max=job.l_max, c=job.c),
        )
    inputs = _setup(graph, trees, targets, job, shared=adaptive or len(plan) > 1)
    attempted = MapOutcome()

    def run_round(start, sizes, round_streams):
        if inline:
            results = [
                _accumulate(kernel, job, inputs.tree, targets, trials, rng)
                for trials, rng in zip(sizes, round_streams)
            ]
            attempted.completed.extend([True] * len(results))
            return results, False
        try:
            remaining = _remaining_budget(deadline, started)
        except DeadlineExceededError:
            if not any(attempted.completed):
                raise
            attempted.completed.extend([False] * len(sizes))
            attempted.deadline_hit = True
            return [None] * len(sizes), True
        outcome = _map_shards(
            executor, inputs, job, sizes, round_streams,
            deadline=remaining, index_offset=start,
        )
        attempted.completed.extend(outcome.completed)
        attempted.errors.extend(outcome.errors)
        attempted.deadline_hit |= outcome.deadline_hit
        attempted.cancelled |= outcome.cancelled
        results = [
            result if done else None
            for result, done in zip(outcome.results, outcome.completed)
        ]
        return results, outcome.deadline_hit or outcome.cancelled

    if adaptive:
        # Per-walk ranges sum each sparse tree's level maxima in order; a
        # numpy sum over the stacked rows may round differently.
        bounds = [walk_value_bound(t, params.l_max) for t in trees]
        stopper = AdaptiveStopper(
            params,
            num_estimates,
            np.repeat(bounds, targets.size) if multi else bounds[0],
            len(plan_rounds(len(plan))),
        )
        result = drive_adaptive_rounds(
            plan, streams, stopper, run_round, num_nodes=num_nodes, n_r=n_r
        )
    else:
        result = _sum_round(
            plan, streams, run_round, num_estimates=num_estimates, n_r=n_r,
            num_nodes=num_nodes, params=params,
        )
    attempted.elapsed = time.monotonic() - started
    _settle(
        attempted, result.trials_used, degraded=result.degraded,
        achieved=result.achieved_epsilon, planned=len(plan), n_r=n_r,
        params=params, deadline=deadline, log_context=log_context or {},
    )
    return result


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
    graph,
    query: _Query,
    estimate: AdaptiveOutcome,
    totals: np.ndarray,
    params: CrashSimParams,
) -> CrashSimResult:
    """Assemble one query's scores from its trial ``totals``.

    ``estimate`` is the run's record; ``totals`` are this query's walk
    targets' share of it (a multi-tree run's row).
    """
    scores = np.zeros(query.candidates.size, dtype=np.float64)
    walk_positions = np.searchsorted(query.candidates, query.targets)
    scores[walk_positions] = totals / max(estimate.trials_used, 1)
    scores[query.candidates == query.source] = 1.0
    return CrashSimResult(
        source=query.source,
        candidates=query.candidates,
        scores=np.clip(scores, 0.0, 1.0),
        n_r=params.n_r(max(graph.num_nodes, 2)),
        params=params,
        tree=query.tree,
        trials_completed=estimate.trials_used,
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
        started=started,
        log_context={"source": query.source, "seed": seed},
        kernel=kernel,
    )
    return _epilogue(graph, query, estimate, estimate.totals, params)


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
        started=started,
        log_context={"sources": source_list, "seed": seed},
    )
    # Each source's answer drops the source itself from the shared layout.
    rows = estimate.totals.reshape(len(trees), walk_targets.size)
    results: List[CrashSimResult] = []
    for totals, source, tree in zip(rows, source_list, trees):
        keep = walk_targets != source
        query = _Query(
            source, candidate_array[candidate_array != source], walk_targets[keep], tree
        )
        results.append(_epilogue(graph, query, estimate, totals[keep], params))
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
    adaptive: bool = False,
) -> CrashSimResult:
    """Single-source CrashSim with the ``n_r`` trials sharded over workers.

    Parameters mirror :func:`repro.core.crashsim.crashsim`, plus:

    workers:
        Worker count (``None`` → CPU count, ``1`` → serial in-process).
    executor:
        Reuse an existing :class:`ParallelExecutor` across queries; the
        caller keeps ownership.  When omitted, the process-wide persistent
        default executor for ``workers`` is shared — pool start-up is paid
        once per process, not once per query.
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
        defines the RNG stream layout) but **not** on ``workers`` — the
        determinism contract is: same master seed + same plan ⇒ identical
        scores at any worker count.  Pass
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
        ``"alias"`` opt-in), forwarded to every shard's fused kernel.
    adaptive:
        Run the trials in geometrically growing rounds with empirical-
        Bernstein early stopping (:mod:`repro.core.adaptive`): rounds are
        slices of the same deterministic shard plan, the stop decision
        happens between rounds, and shard moments are folded in shard
        order — byte-identical to the serial ``crashsim(adaptive=True)``
        at any worker count.  Composes with ``deadline``: an
        expiry mid-run keeps completed rounds and reports whichever bound
        is better (inverted Lemma 3 or empirical Bernstein) — adaptive
        metadata is never worse than the fixed-path equivalent.

    Failed shards (in-shard exceptions) are retried before being given up
    on; a run in which every shard
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
    )
