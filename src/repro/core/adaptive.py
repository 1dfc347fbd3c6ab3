"""Adaptive trial control: stop Monte-Carlo trials once the data says stop.

Lemma 3's ``n_r`` is a *worst-case* Chernoff count: it assumes nothing about
the variance of the per-walk crash totals, so CrashSim runs tens of
thousands of trials even when the running estimate converged after a few
hundred.  This module runs the confidence bound *forward during the trial
loop* instead:

* Trials execute in **geometrically growing rounds** (:func:`plan_rounds`)
  mapped onto the deterministic shard plan
  (:func:`repro.parallel.plan_shards`), so early stopping composes with the
  parallel tiers — the stop decision happens between rounds, shard totals
  are still summed in shard order, and an adaptive run is byte-identical at
  any worker count and on any execution tier.
* After every round an :class:`AdaptiveStopper` folds the new per-candidate
  first and second moments into running Welford-style aggregates
  (vectorised across candidates) and evaluates the **empirical-Bernstein**
  half-width (Maurer & Pontil 2009).  Once the half-width plus the Lemma-2
  truncation slack is ≤ ε for every candidate, remaining rounds are
  skipped.
* The per-walk crash total is bounded by ``b = Σ_step max_x U[step, x]``
  (:func:`walk_value_bound`) — the range the Bernstein term needs — and
  the per-round union bound ``δ' = δ / (k · R)`` keeps the simultaneous
  guarantee over all ``k`` candidates and all ``R`` possible stopping
  points at the configured δ.
* Hub-contribution caching (:class:`HubCache`): on power-law graphs walks
  concentrate through a few high-in-degree hubs.  A backward recursion
  over the in-CSR precomputes, for every step ``t`` and hub ``h``, the
  *exact expected remainder* ``g_t(h) = E[Σ_{s>t} U[s, X_s] | X_t = h]``;
  a walk arriving at a hub retires immediately, folding the cached tail
  instead of walking on.  This is Rao-Blackwellisation: the estimator
  stays unbiased and its per-walk variance can only shrink, so the
  stopper converges *sooner* on exactly the graphs where walks are most
  expensive.  The cache's bytes are accounted against the kernel's
  ``dense_row_budget``.

Common-random-numbers (CRN) in the multi-source path: ``accumulate_multi``
already scores *one* shared walk stream against every source's tree, so
the per-source estimates are positively correlated by construction.  The
stopper's variance estimate is computed per ``(source, candidate)`` on that
shared stream — the correlation cancels out of each marginal variance, and
the shared stream means the stop decision (the max half-width over all
sources) is reached with one walk budget instead of ``q``.

The honest quality report: an adaptive result's ``achieved_epsilon`` is the
*better* (smaller) of the inverted Lemma-3 bound at the trials actually
used and the final empirical-Bernstein bound — so an early-stopped result
never reports worse metadata than a fixed run of the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.params import CrashSimParams
from repro.errors import ParameterError

__all__ = [
    "AdaptiveOutcome",
    "AdaptiveStopper",
    "HubCache",
    "build_hub_cache",
    "exact_expectation",
    "plan_rounds",
    "walk_value_bound",
    "drive_adaptive_rounds",
    "record_adaptive_stop",
    "DEFAULT_HUB_COUNT",
]

#: Default hub-cache size (top-K in-degree nodes).  Tails cost
#: ``(l_max + 1) · K`` floats plus a dense ``n``-entry lookup, so the cache
#: is cheap; 64 hubs already cover the landing mass on Zipf-like graphs.
DEFAULT_HUB_COUNT = 64

_M_ROUNDS = obs.REGISTRY.counter(
    "repro_adaptive_rounds_total",
    "Adaptive trial rounds executed across all adaptive queries.",
)
_M_TRIALS_SAVED = obs.REGISTRY.counter(
    "repro_adaptive_trials_saved_total",
    "Monte-Carlo trials skipped by empirical-Bernstein early stopping.",
)
_M_STOPS = obs.REGISTRY.counter(
    "repro_adaptive_stops_total",
    "Adaptive runs finished, by stop reason (converged/exhausted/deadline).",
)


def record_adaptive_stop(
    reason: str, rounds_run: int, trials_used: int, n_r: int
) -> None:
    """Flush one adaptive run's counters (shared by serial and parallel)."""
    _M_ROUNDS.inc(rounds_run)
    saved = max(0, int(n_r) - int(trials_used))
    if saved:
        _M_TRIALS_SAVED.inc(saved)
    _M_STOPS.inc()
    _M_STOPS.labels(reason=reason).inc()


def plan_rounds(num_shards: int) -> List[int]:
    """Group ``num_shards`` shards into geometrically growing rounds.

    Returns per-round shard counts ``[1, 1, 2, 4, 8, ...]`` summing to
    ``num_shards`` (the last round absorbs the remainder).  Geometric
    growth bounds the overshoot past the true stopping point at 2x while
    keeping the number of stop checks — and hence the union-bound penalty
    ``R`` in ``δ' = δ/(k·R)`` — logarithmic in the shard count.  A pure
    function of the shard plan's length, so serial and parallel adaptive
    runs agree on every round boundary.
    """
    if num_shards < 0:
        raise ParameterError(f"num_shards must be non-negative, got {num_shards}")
    rounds: List[int] = []
    size = 1
    remaining = num_shards
    while remaining > 0:
        take = min(size, remaining)
        rounds.append(take)
        remaining -= take
        size *= 2
    return rounds


def walk_value_bound(tree, l_max: int) -> float:
    """``b = Σ_{step=1..l_max} max_x U[step, x]`` — the per-walk value range.

    Every per-trial crash total (one walk's summed reads, hub tails
    included — a tail is an expectation of exactly such remainders) lies in
    ``[0, b]``, which is the range the empirical-Bernstein bound needs.
    Accepts a sparse tree, a dense tree, or a raw ``(l_max + 1, n)`` matrix.
    """
    if isinstance(tree, np.ndarray):
        top = min(l_max, tree.shape[0] - 1)
        if top < 1:
            return 0.0
        return float(tree[1 : top + 1].max(axis=1, initial=0.0).sum())
    if hasattr(tree, "level_arrays"):
        bound = 0.0
        for step in range(1, l_max + 1):
            _, probs = tree.level_arrays(step)
            if probs.size:
                bound += float(probs.max())
        return bound
    return walk_value_bound(tree.matrix, l_max)


class AdaptiveStopper:
    """Running moments + empirical-Bernstein stop rule over ``k`` estimates.

    Per-round first/second moments are merged into running sums (the
    vectorised Chan/Welford form: with raw sums and sum-of-squares the
    merge is plain addition, so shard order — not round shape — determines
    the float result, which is what makes serial and parallel adaptive
    runs byte-identical).

    The stop rule is Maurer & Pontil's empirical-Bernstein bound for
    variables in ``[0, b]``: with probability ≥ 1 − δ',

        |mean_t − E| ≤ √(2 V_t ln(2/δ') / t) + 7 b ln(2/δ') / (3 (t − 1))

    where ``V_t`` is the unbiased sample variance.  ``δ' = δ / (k · R)``
    union-bounds over the ``k`` tracked estimates and the ``R`` possible
    stopping points, so the simultaneous guarantee holds at δ.  The run
    stops when ``max_i halfwidth_i + p·ε_t ≤ ε``.
    """

    def __init__(
        self,
        params: CrashSimParams,
        num_estimates: int,
        value_bound: Union[float, np.ndarray],
        max_rounds: int,
    ):
        if num_estimates < 0:
            raise ParameterError(
                f"num_estimates must be non-negative, got {num_estimates}"
            )
        if max_rounds < 1:
            max_rounds = 1
        self.params = params
        self.num_estimates = int(num_estimates)
        self.value_bound = np.asarray(value_bound, dtype=np.float64)
        if np.any(self.value_bound < 0.0):
            raise ParameterError("value_bound must be non-negative")
        self.max_rounds = int(max_rounds)
        self.delta_prime = params.delta / max(self.num_estimates * self.max_rounds, 1)
        self.trials = 0
        self.rounds_seen = 0
        self.total = np.zeros(self.num_estimates, dtype=np.float64)
        self.sumsq = np.zeros(self.num_estimates, dtype=np.float64)

    def update(self, totals: np.ndarray, sumsq: np.ndarray, trials: int) -> None:
        """Fold one shard's (sum, sum-of-squares, count) into the aggregate."""
        if trials < 0:
            raise ParameterError(f"trials must be non-negative, got {trials}")
        flat_totals = np.asarray(totals, dtype=np.float64).ravel()
        flat_sumsq = np.asarray(sumsq, dtype=np.float64).ravel()
        if flat_totals.size != self.num_estimates or flat_sumsq.size != self.num_estimates:
            raise ParameterError(
                f"moment update of size {flat_totals.size} does not match "
                f"{self.num_estimates} tracked estimates"
            )
        self.total += flat_totals
        self.sumsq += flat_sumsq
        self.trials += int(trials)

    def half_widths(self) -> np.ndarray:
        """Per-estimate empirical-Bernstein half-width at the current count."""
        t = self.trials
        if self.num_estimates == 0:
            return np.zeros(0, dtype=np.float64)
        if t < 2:
            return np.full(self.num_estimates, np.inf)
        mean = self.total / t
        variance = np.maximum(self.sumsq / t - mean * mean, 0.0) * (t / (t - 1.0))
        log_term = math.log(2.0 / self.delta_prime)
        return np.sqrt(2.0 * variance * log_term / t) + (
            7.0 * self.value_bound * log_term / (3.0 * (t - 1.0))
        )

    def bound_epsilon(self) -> float:
        """Worst half-width plus the Lemma-2 truncation slack."""
        if self.num_estimates == 0:
            return self.params.truncation_slack
        return float(self.half_widths().max()) + self.params.truncation_slack

    def converged(self) -> bool:
        """True once every tracked estimate is within ε (at this round)."""
        if self.num_estimates == 0:
            return True
        if self.trials < 2:
            return False
        return self.bound_epsilon() <= self.params.epsilon

    def achieved_epsilon(self, num_nodes: int) -> float:
        """The honest ε: better of inverted Lemma 3 and the EB bound.

        An adaptive result never reports *worse* metadata than a fixed run
        of the same trial count would — the Chernoff inversion is always
        available as the fallback bound.
        """
        if self.num_estimates == 0:
            # Nothing was estimated (every candidate's score is exact).
            return float(self.params.epsilon)
        if self.trials < 1:
            return 1.0
        chernoff = self.params.achieved_epsilon(num_nodes, self.trials)
        return float(min(1.0, chernoff, self.bound_epsilon()))


# ----------------------------------------------------------------------
# Hub-contribution cache
# ----------------------------------------------------------------------


@dataclass
class HubCache:
    """Exact expected walk remainders through the top-K in-degree hubs.

    ``tails[t, j]`` is ``g_t(hubs[j]) = E[Σ_{s=t+1..l_max} U[s, X_s] |
    X_t = hubs[j]]`` — the expected crash mass a walk sitting at hub ``j``
    at step ``t`` would still collect.  A walk that arrives at a hub folds
    the tail and retires; the estimator's expectation is unchanged
    (conditional expectation) and its variance can only drop.
    """

    hubs: np.ndarray  # (K,) int64 hub node ids, deterministic order
    tails: np.ndarray  # (l_max + 1, K) float64 expected remainders
    num_nodes: int
    _lookup: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def lookup(self) -> np.ndarray:
        """Dense ``node -> hub index`` map (−1 for non-hubs), built lazily."""
        if self._lookup is None:
            lookup = np.full(self.num_nodes, -1, dtype=np.int64)
            lookup[self.hubs] = np.arange(self.hubs.size, dtype=np.int64)
            self._lookup = lookup
        return self._lookup

    @property
    def nbytes(self) -> int:
        """Bytes the cache holds resident, charged against the kernel's
        ``dense_row_budget`` (tails + hub ids + the dense lookup)."""
        return int(self.tails.nbytes + self.hubs.nbytes + self.num_nodes * 8)


def _expected_remainders(
    graph, tree, l_max: int, c: float, hubs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward recursion ``g_t(x) = √c · E_y[U[t+1, y] + g_{t+1}(y)]``.

    ``y`` ranges over the in-neighbours of ``x`` with the walk's sampling
    weights; nodes where the walk dies (no in-neighbours, or zero in-weight
    total on weighted graphs — mirroring the kernel's ``dead`` handling)
    have ``g_t = 0``.  ``tree`` is a sparse tree or a raw ``(l_max + 1,
    n)`` matrix.  Only two length-``n`` rows are live at a time: returns
    the ``(l_max + 1, K)`` columns of ``hubs`` and the row ``g_0``.
    """
    n = int(graph.num_nodes)
    indptr = np.asarray(graph.in_indptr, dtype=np.int64)
    # intp up front: np.take would convert int32 indices on every level.
    indices = np.asarray(graph.in_indices, dtype=np.intp)
    tails = np.zeros((l_max + 1, hubs.size), dtype=np.float64)
    g = np.zeros(n, dtype=np.float64)
    m = indices.size
    if m == 0:
        return tails, g
    # Sum over non-empty in-blocks only: each reduceat segment then ends
    # exactly where its block does.  A block with a zero in-weight total
    # still bounds its own segment; it is dropped after the sum.
    blocks = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[blocks]
    weights = None
    keep = None
    if getattr(graph, "is_weighted", False):
        weights = np.asarray(graph.in_weights, dtype=np.float64)
        denom = np.asarray(graph.in_weight_totals(), dtype=np.float64)[blocks]
        if not (denom > 0.0).all():
            keep = denom > 0.0
            blocks, denom = blocks[keep], denom[keep]
    else:
        denom = (indptr[blocks + 1] - starts).astype(np.float64)
    dense = isinstance(tree, np.ndarray)
    sqrt_c = math.sqrt(c)
    values = np.empty(n, dtype=np.float64)
    gathered = np.empty(m, dtype=np.float64)
    for step in range(l_max - 1, -1, -1):
        # values = U[step + 1] + g_{step + 1}
        if dense:
            if step + 1 < tree.shape[0]:
                np.add(tree[step + 1], g, out=values)
            else:
                values[:] = g
        else:
            values[:] = g
            nodes, probs = tree.level_arrays(step + 1)
            values[nodes] += probs
        # In range: CSR in-neighbours lie in [0, n).
        np.take(values, indices, out=gathered, mode="clip")
        if weights is not None:
            gathered *= weights
        sums = np.add.reduceat(gathered, starts)
        if keep is not None:
            sums = sums[keep]
        sums /= denom
        sums *= sqrt_c
        # Nodes outside ``blocks`` are dead and stay 0 at every step.
        g[blocks] = sums
        tails[step] = g[hubs]
    return tails, g


def build_hub_cache(
    graph,
    tree,
    *,
    l_max: int,
    c: float,
    num_hubs: int = DEFAULT_HUB_COUNT,
) -> Optional[HubCache]:
    """Precompute crash-contribution tails through the top-K in-degree hubs.

    Hub selection is deterministic: highest in-degree first, ties broken by
    lower node id, nodes with zero in-degree excluded (a walk dies there —
    its tail is trivially 0).  Returns ``None`` when no hub qualifies or
    ``num_hubs <= 0``; the one ``O(l_max · m)`` recursion is shared by
    every round and shard of the query.
    """
    if num_hubs <= 0:
        return None
    in_degrees = np.asarray(graph.in_degrees(), dtype=np.int64)
    eligible = int(np.count_nonzero(in_degrees > 0))
    if eligible == 0:
        return None
    count = min(int(num_hubs), eligible)
    order = np.lexsort((np.arange(in_degrees.size), -in_degrees))
    hubs = np.sort(order[:count].astype(np.int64))
    tails, _ = _expected_remainders(graph, tree, l_max, c, hubs)
    return HubCache(hubs=hubs, tails=tails, num_nodes=int(graph.num_nodes))


def exact_expectation(graph, tree, *, l_max: int, c: float) -> np.ndarray:
    """The estimator's exact per-candidate expectation ``E[Σ_t U[t, X_t]]``.

    This is ``g_0`` of the hub recursion evaluated at every node: for the
    corrected tree variant it equals the truncated meeting-probability
    series ``Σ_{l≥1} ⟨U_source[l, ·], U_candidate[l, ·]⟩`` — the same
    quantity the guarantee suite's ``crash_expectation`` computes by
    stacking every candidate's tree, but in ``O(l_max · m)`` instead of
    ``O(n)`` tree builds.  Benchmarks use it to measure empirical adaptive
    error at scales where the einsum oracle is unaffordable.
    """
    _, g0 = _expected_remainders(
        graph, tree, l_max, c, np.empty(0, dtype=np.int64)
    )
    return g0


# ----------------------------------------------------------------------
# Round loop
# ----------------------------------------------------------------------


@dataclass
class AdaptiveOutcome:
    """What a trial run produced, before score assembly.

    ``totals`` carries the summed per-candidate crash totals over
    ``trials_used`` trials (flattened ``(q·k,)`` for multi-source).
    ``degraded`` is only set when the run was *interrupted* (deadline,
    lost shards) before the stopper converged — an early stop with the
    bound met is a full-quality answer.  A fixed-``n_r`` run produces the
    same record as one round with no stopper: never ``converged`` or
    ``stopped_early``, ``degraded`` when shards were lost.
    """

    totals: np.ndarray
    trials_used: int
    n_r: int
    rounds_run: int
    stopped_early: bool
    converged: bool
    degraded: bool
    achieved_epsilon: float
    shards_lost: int = 0

    @property
    def stop_reason(self) -> str:
        if self.converged and self.stopped_early:
            return "converged"
        if self.degraded:
            return "deadline"
        return "exhausted"


RoundRunner = Callable[
    [int, Sequence[int], Sequence[np.random.SeedSequence]],
    Tuple[List[Optional[Tuple[np.ndarray, np.ndarray]]], bool],
]


def drive_adaptive_rounds(
    shard_plan: Sequence[int],
    shard_seeds: Sequence[np.random.SeedSequence],
    stopper: AdaptiveStopper,
    run_round: RoundRunner,
    *,
    num_nodes: int,
    n_r: int,
) -> AdaptiveOutcome:
    """The adaptive round loop every adaptive query runs, at any tier.

    ``run_round(start_index, sizes, seeds)`` executes one round's shards
    and returns ``(results, interrupted)`` where ``results[i]`` is the
    shard's ``(totals, sumsq)`` pair or ``None`` if it was lost, and
    ``interrupted`` means no further rounds should run (deadline hit).
    Results are folded into the stopper **in shard order**, shard by shard
    — the float-addition order is the cross-tier byte-identity contract.
    """
    rounds = plan_rounds(len(shard_plan))
    cursor = 0
    rounds_run = 0
    trials_used = 0
    shards_lost = 0
    interrupted = False
    for size in rounds:
        sizes = list(shard_plan[cursor : cursor + size])
        seeds = list(shard_seeds[cursor : cursor + size])
        results, round_interrupted = run_round(cursor, sizes, seeds)
        for trials, result in zip(sizes, results):
            if result is None:
                shards_lost += 1
            else:
                stopper.update(result[0], result[1], trials)
                trials_used += trials
        cursor += size
        rounds_run += 1
        if round_interrupted:
            interrupted = True
            break
        if stopper.converged():
            break
    converged = stopper.converged()
    # "Early" means rounds were actually skipped: an empty plan (nothing to
    # estimate) or a full sweep that converged on the last round is not an
    # early stop.
    stopped_early = converged and cursor < len(shard_plan)
    degraded = (not converged) and trials_used < n_r
    if interrupted and not converged:
        degraded = True
    achieved = stopper.achieved_epsilon(num_nodes)
    outcome = AdaptiveOutcome(
        totals=stopper.total.copy(),
        trials_used=trials_used,
        n_r=n_r,
        rounds_run=rounds_run,
        stopped_early=stopped_early,
        converged=converged,
        degraded=degraded,
        achieved_epsilon=achieved,
        shards_lost=shards_lost,
    )
    record_adaptive_stop(outcome.stop_reason, rounds_run, trials_used, n_r)
    return outcome
