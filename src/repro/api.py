"""High-level convenience API: one entry point over every algorithm.

:func:`single_source` dispatches a single-source SimRank computation to any
implemented algorithm by name, returning a uniform dense score vector —
the surface a downstream user (or the experiment harness) programs against
without learning five call signatures.  :func:`single_pair` answers the
classic single-pair query ``sim(u, v)`` with a vectorised Monte-Carlo
estimator or the exact oracle.

The ``crashsim`` method returns a :class:`ScoreVector` — an ``ndarray``
subclass that behaves exactly like the dense vector it always returned,
plus resilience metadata (``degraded``, ``trials_completed``,
``achieved_epsilon``) so callers using ``deadline=`` can tell a full-quality
answer from a gracefully degraded one without a second channel.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.baselines.naive_mc import naive_monte_carlo
from repro.baselines.power_method import power_method_all_pairs
from repro.baselines.probesim import probesim
from repro.baselines.reads import ReadsIndex
from repro.baselines.sling import SlingIndex
from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.rng import RngLike, ensure_rng

__all__ = ["SINGLE_SOURCE_METHODS", "ScoreVector", "single_source", "single_pair"]


class ScoreVector(np.ndarray):
    """A dense score vector carrying query-resilience metadata.

    Behaves exactly like the plain ``ndarray`` it subclasses (same values,
    same operations); the extra attributes travel through views and copies:

    * ``degraded`` — whether the estimate averages fewer trials than
      planned (deadline hit, shards lost);
    * ``trials_completed`` — Monte-Carlo trials actually averaged
      (``None`` for non-Monte-Carlo methods);
    * ``achieved_epsilon`` — the honest Lemma-3 bound at that trial count,
      set on every CrashSim answer (``None`` for non-Monte-Carlo methods,
      e.g. the exact oracle); for adaptive runs the better of that bound
      and the empirical-Bernstein bound;
    * ``stopped_early`` — adaptive runs only: the empirical-Bernstein
      stopper converged before ``n_r`` trials, a *full-quality* early stop
      (not a degradation);
    * ``trace`` — the :class:`repro.obs.Trace` recorded while the query
      ran (``None`` unless a trace was active — the serving engine and
      ``repro stats --trace`` activate one).
    """

    degraded: bool
    trials_completed: Optional[int]
    achieved_epsilon: Optional[float]
    stopped_early: bool
    trace: Optional[object]

    @classmethod
    def wrap(
        cls,
        scores: np.ndarray,
        *,
        degraded: bool = False,
        trials_completed: Optional[int] = None,
        achieved_epsilon: Optional[float] = None,
        stopped_early: bool = False,
        trace: Optional[object] = None,
    ) -> "ScoreVector":
        vector = np.asarray(scores).view(cls)
        vector.degraded = degraded
        vector.trials_completed = trials_completed
        vector.achieved_epsilon = achieved_epsilon
        vector.stopped_early = stopped_early
        vector.trace = trace
        return vector

    def __array_finalize__(self, source):
        if source is None:
            return
        self.degraded = getattr(source, "degraded", False)
        self.trials_completed = getattr(source, "trials_completed", None)
        self.achieved_epsilon = getattr(source, "achieved_epsilon", None)
        self.stopped_early = getattr(source, "stopped_early", False)
        self.trace = getattr(source, "trace", None)

SINGLE_SOURCE_METHODS = (
    "crashsim",
    "probesim",
    "sling",
    "reads",
    "naive-mc",
    "exact",
)


def single_source(
    graph: DiGraph,
    source: int,
    *,
    method: str = "crashsim",
    c: float = 0.6,
    epsilon: float = 0.025,
    delta: float = 0.01,
    n_r: Optional[int] = None,
    seed: RngLike = None,
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
    sampler: str = "cdf",
    candidates: Optional[Iterable[int]] = None,
    shards: Optional[int] = None,
    adaptive: bool = False,
) -> np.ndarray:
    """Single-source SimRank ``s(source, ·)`` by any implemented method.

    Parameters
    ----------
    graph, source:
        Query graph and source node.
    method:
        One of :data:`SINGLE_SOURCE_METHODS`.  ``"exact"`` is the Power
        Method (55 iterations); the index-based methods build their index
        per call — use their classes directly to amortise.
    c, epsilon, delta:
        SimRank decay and, for the Monte-Carlo methods, the (ε, δ) target.
    n_r:
        Trial-count override for ``crashsim`` / ``probesim`` / ``naive-mc``
        (the theoretical counts are expensive; see DESIGN.md §2.3).
    seed:
        Anything :func:`repro.rng.ensure_rng` accepts.
    workers:
        ``crashsim`` only: shard the Monte-Carlo trials over this many
        workers via :mod:`repro.parallel` (``None`` keeps the classic
        serial estimator; any explicit count — including 1 — routes through
        the deterministic seed-sharded scheme, whose scores are identical
        for the same seed at every worker count).  Repeated calls share
        the process-wide persistent executor — the pool is paid for once
        per process, not once per query.
    shards:
        ``crashsim`` only: trial-shard count override for the sharded
        path.  ``None`` (default) autotunes via
        :func:`repro.parallel.plan_shards`; the shard plan defines the RNG
        stream layout, so fixing it (e.g. 16, the legacy layout) pins the
        exact score bits across releases.
    deadline:
        ``crashsim`` only: wall-clock budget in seconds.  Routes through
        the resilient parallel driver (all CPUs unless ``workers`` says
        otherwise — so scores follow the seed-sharded scheme, not the
        classic serial stream); on expiry the returned vector averages the
        completed trial shards, with ``degraded=True`` and the honest
        wider bound in ``achieved_epsilon``.  Raises
        :class:`~repro.errors.DeadlineExceededError` only when nothing
        completed in time.
    sampler:
        ``crashsim`` only: weighted neighbour-sampling strategy.  The
        default ``"cdf"`` keeps the classic RNG stream (bit-identical
        scores for a given seed); ``"alias"`` opts into O(1) alias-method
        sampling on weighted graphs (see docs/api.md).
    candidates:
        ``crashsim`` only: restrict scoring to this candidate set Ω (the
        partial-SimRank form of Algorithm 1).  Nodes outside Ω score 0 in
        the returned vector (except the source itself, which is always 1).
        A fixed candidate set is also what makes engine-side cross-query
        walk sharing possible — see :func:`repro.core.batch.crashsim_batch`.
    adaptive:
        ``crashsim`` only: run the trials in geometrically growing rounds
        with empirical-Bernstein early stopping
        (:mod:`repro.core.adaptive`).  The returned vector's
        ``trials_completed`` / ``achieved_epsilon`` / ``stopped_early``
        report the honest outcome; scores are deterministic per seed and
        identical at any worker count, but use a different RNG
        stream than the fixed-``n_r`` path.  Composes with ``deadline=``:
        whichever bound is better is reported, never worse metadata.

    Returns
    -------
    numpy.ndarray
        Dense vector of length ``n`` with ``result[source] == 1``; for
        ``method="crashsim"`` specifically a :class:`ScoreVector` with
        resilience metadata attached.
    """
    rng = ensure_rng(seed)
    if workers is not None and method != "crashsim":
        raise ParameterError(
            f"workers= is only supported for method='crashsim', got {method!r}"
        )
    if deadline is not None and method != "crashsim":
        raise ParameterError(
            f"deadline= is only supported for method='crashsim', got {method!r}"
        )
    if sampler != "cdf" and method != "crashsim":
        raise ParameterError(
            f"sampler= is only supported for method='crashsim', got {method!r}"
        )
    if candidates is not None and method != "crashsim":
        raise ParameterError(
            f"candidates= is only supported for method='crashsim', got {method!r}"
        )
    if shards is not None and method != "crashsim":
        raise ParameterError(
            f"shards= is only supported for method='crashsim', got {method!r}"
        )
    if adaptive and method != "crashsim":
        raise ParameterError(
            f"adaptive= is only supported for method='crashsim', got {method!r}"
        )
    if method == "crashsim":
        params = CrashSimParams(
            c=c, epsilon=epsilon, delta=delta, n_r_override=n_r
        )
        if workers is None and deadline is None:
            result = crashsim(
                graph,
                source,
                candidates=candidates,
                params=params,
                seed=rng,
                sampler=sampler,
                adaptive=adaptive,
            )
        else:
            from repro.parallel import parallel_crashsim

            result = parallel_crashsim(
                graph,
                source,
                candidates=candidates,
                params=params,
                seed=rng,
                workers=workers,
                deadline=deadline,
                sampler=sampler,
                shards=shards,
                adaptive=adaptive,
            )
        scores = np.zeros(graph.num_nodes)
        scores[result.candidates] = result.scores
        scores[int(source)] = 1.0
        return ScoreVector.wrap(
            scores,
            degraded=result.degraded,
            trials_completed=result.trials_completed,
            achieved_epsilon=result.achieved_epsilon,
            stopped_early=result.stopped_early,
            trace=obs.current_trace(),
        )
    if method == "probesim":
        return probesim(
            graph, source, c=c, epsilon=epsilon, delta=delta, n_r=n_r, seed=rng
        )
    if method == "sling":
        index = SlingIndex(graph, c=c, epsilon=epsilon, seed=rng)
        return index.query(source)
    if method == "reads":
        index = ReadsIndex(graph, c=c, seed=rng)
        return index.query(source)
    if method == "naive-mc":
        samples = n_r if n_r is not None else 1000
        return naive_monte_carlo(
            graph, source, c=c, num_samples=samples, seed=rng
        )
    if method == "exact":
        return power_method_all_pairs(graph, c)[int(source)].copy()
    raise ParameterError(
        f"unknown method {method!r}; expected one of {SINGLE_SOURCE_METHODS}"
    )


def single_pair(
    graph: DiGraph,
    u: int,
    v: int,
    *,
    method: str = "monte-carlo",
    c: float = 0.6,
    num_samples: int = 10_000,
    max_steps: int = 40,
    seed: RngLike = None,
) -> float:
    """The classic single-pair query ``sim(u, v)``.

    ``method="monte-carlo"`` runs all coupled walk pairs simultaneously
    (one vectorised pass of ``num_samples`` pairs, unbiased up to the
    ``max_steps`` truncation — tail mass ≤ ``c^max_steps``);
    ``method="exact"`` delegates to the Power Method.
    """
    n = graph.num_nodes
    for node in (u, v):
        if not 0 <= int(node) < n:
            raise ParameterError(f"node {node} outside the node range [0, {n})")
    u, v = int(u), int(v)
    if u == v:
        return 1.0
    if method == "exact":
        return float(power_method_all_pairs(graph, c)[u, v])
    if method != "monte-carlo":
        raise ParameterError(
            f"unknown method {method!r}; expected 'monte-carlo' or 'exact'"
        )
    if num_samples < 1:
        raise ParameterError(f"num_samples must be positive, got {num_samples}")
    rng = ensure_rng(seed)
    # Both walks advance through the batch stepper (weight-aware) with the
    # pair's survival factored analytically as c^step.
    from repro.walks.engine import BatchWalkStepper

    stepper = BatchWalkStepper(graph, c)
    walker_u = stepper.walk(
        np.full(num_samples, u, dtype=np.int64),
        max_steps,
        seed=rng,
        survival="always",
    )
    walker_v = stepper.walk(
        np.full(num_samples, v, dtype=np.int64),
        max_steps,
        seed=rng,
        survival="always",
    )
    resolved = np.zeros(num_samples, dtype=bool)
    total = 0.0
    for batch_u, batch_v in zip(walker_u, walker_v):
        pos_u = batch_u.scatter_positions(num_samples, fill=-1)
        pos_v = batch_v.scatter_positions(num_samples, fill=-2)
        met = ~resolved & (pos_u == pos_v)
        count = int(np.count_nonzero(met))
        if count:
            total += count * c**batch_u.step
            resolved |= met
        if resolved.all():
            break
    return total / num_samples
