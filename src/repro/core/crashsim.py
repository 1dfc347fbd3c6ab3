"""CrashSim (paper Algorithm 1): single-source / partial SimRank.

The algorithm:

1. derive ``l_max`` and ``n_r`` from ``(c, ε, δ)`` (:class:`CrashSimParams`);
2. build the source's reverse reachable tree ``U`` once (Algorithm 2);
3. for each of ``n_r`` trials, sample one truncated √c-walk from every
   candidate ``v ∈ Ω`` and accumulate the probability that it *crashes*
   into ``W(u)`` — read off as ``U[step, position]`` at every step;
4. average the trials.

The trial loop is the shared driver in :mod:`repro.parallel.runner`: a
fixed-``n_r`` run is its one-shard plan on the caller's generator (every
trial drawn through one fused :class:`~repro.walks.kernel.WalkCrashKernel`
pass — the classic one-stream layout), and ``adaptive=True`` runs its
sharded rounds on the ``workers=1`` inline executor.

Estimator switches (DESIGN.md §2):

* ``tree_variant`` — ``"corrected"`` (unbiased occupancy; default) or
  ``"paper"`` (literal Algorithm 2 arithmetic).
* ``first_meeting`` — ``"none"`` (paper literal: sum every meeting
  opportunity; default) or ``"dp"`` (exact per-walk first-meeting dynamic
  program; unbiased for the first-meeting series but ``O(l·m)`` per walk —
  an accuracy-ablation mode for small graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Literal, Optional, Tuple

import numpy as np

from repro.core.params import CrashSimParams
from repro.core.revreach import ReverseReachableTree
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.rng import RngLike
from repro.walks.engine import BatchWalkStepper

__all__ = [
    "CrashSimResult",
    "crashsim",
    "accumulate_crash_totals_reference",
    "resolve_candidates",
]

FirstMeeting = Literal["none", "dp"]


@dataclass(frozen=True)
class CrashSimResult:
    """SimRank estimators ``s(u, v)`` for every candidate ``v ∈ Ω``.

    Attributes
    ----------
    source:
        The query source ``u``.
    candidates:
        Candidate node ids, sorted ascending, ``shape (k,)``.
    scores:
        Estimated SimRank per candidate, aligned with ``candidates``.
    n_r:
        Number of Monte-Carlo trials the run *planned*.
    params:
        The parameter object the run used.
    tree:
        The source's reverse reachable tree (reusable by CrashSim-T).
    trials_completed:
        Trials that actually finished; ``n_r`` unless shards were lost to
        a deadline, cancellation, or in-shard errors (sharded runs only,
        which includes serial adaptive ones — a fixed-``n_r`` serial run
        is one stream and always completes).
    degraded:
        Whether the estimate averages fewer than ``n_r`` trials.  Degraded
        scores are still unbiased, just with the wider Lemma-3 bound below.
    achieved_epsilon:
        Lemma 3 inverted at ``trials_completed``
        (:meth:`CrashSimParams.achieved_epsilon`); for adaptive runs the
        *better* of that bound and the final empirical-Bernstein bound.
        Every run of the query drivers sets it, the fixed-``n_r`` serial
        :func:`crashsim` included; ``None`` only on a result built by
        hand.
    stopped_early:
        Adaptive runs only: the empirical-Bernstein stopper converged
        before ``n_r`` trials, so the run skipped the rest.  Unlike
        ``degraded`` this is a *full-quality* outcome — the ε guarantee is
        met by the data, not cut short by a deadline.
    """

    source: int
    candidates: np.ndarray
    scores: np.ndarray
    n_r: int
    params: CrashSimParams
    tree: ReverseReachableTree
    trials_completed: Optional[int] = None
    degraded: bool = False
    achieved_epsilon: Optional[float] = None
    stopped_early: bool = False

    def __post_init__(self):
        if self.trials_completed is None:
            object.__setattr__(self, "trials_completed", self.n_r)

    def score(self, node: int) -> float:
        """``s(u, node)``; raises if ``node`` was not a candidate."""
        position = np.searchsorted(self.candidates, node)
        if position >= self.candidates.size or self.candidates[position] != node:
            raise ParameterError(f"node {node} was not in the candidate set")
        return float(self.scores[position])

    def as_dict(self) -> Dict[int, float]:
        """``{candidate: score}`` mapping."""
        return {
            int(node): float(value)
            for node, value in zip(self.candidates, self.scores)
        }

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` highest-scoring candidates as ``(node, score)`` pairs.

        The order is deterministic: score **descending**, ties broken by
        node id **ascending** — so equal-scoring candidates always come out
        lowest-id first, independent of the candidate array's layout.  A
        ``k`` larger than the candidate set returns every candidate; an
        empty candidate set returns ``[]`` for any ``k``.
        """
        if k < 0:
            raise ParameterError(f"k must be non-negative, got {k}")
        order = np.lexsort((self.candidates, -self.scores))
        return [
            (int(self.candidates[i]), float(self.scores[i])) for i in order[:k]
        ]


def resolve_candidates(
    graph: DiGraph, source: int, candidates: Optional[Iterable[int]]
) -> np.ndarray:
    """Normalise a candidate spec to a sorted unique id array (``Ω``).

    ``None`` means every node except the source.  Shared by the serial
    estimator and the parallel drivers so both agree on candidate layout.
    """
    if candidates is None:
        others = np.arange(graph.num_nodes, dtype=np.int64)
        return others[others != source]
    arr = np.unique(np.asarray(list(candidates), dtype=np.int64))
    if arr.size and (arr.min() < 0 or arr.max() >= graph.num_nodes):
        raise ParameterError("candidate node outside the graph's node range")
    return arr


def crashsim(
    graph: DiGraph,
    source: int,
    *,
    candidates: Optional[Iterable[int]] = None,
    params: Optional[CrashSimParams] = None,
    tree: Optional[ReverseReachableTree] = None,
    tree_variant: str = "corrected",
    first_meeting: FirstMeeting = "none",
    seed: RngLike = None,
    sampler: str = "cdf",
    adaptive: bool = False,
) -> CrashSimResult:
    """Run CrashSim from ``source`` over candidate set ``Ω`` (Algorithm 1).

    Parameters
    ----------
    graph:
        Snapshot graph ``G(V, E)``.
    source:
        Query source ``u``.
    candidates:
        Candidate set ``Ω``; ``None`` means all nodes except the source
        (single-source mode).  If ``source`` is included its score is the
        SimRank base case 1.0.
    params:
        :class:`CrashSimParams`; defaults to the paper's ``c = 0.6``,
        ``ε = 0.025``, ``δ = 0.01``.
    tree:
        A precomputed reverse reachable tree for ``source`` (CrashSim-T
        reuses the tree it built for the pruning gate); must match
        ``source``, ``c``, ``l_max``, and ``tree_variant``.
    tree_variant, first_meeting:
        Estimator switches, see module docstring.
    seed:
        Anything :func:`repro.rng.ensure_rng` accepts.
    sampler:
        Weighted neighbour-sampling strategy: ``"cdf"`` (default; byte-
        identical to the pinned fixtures) or ``"alias"`` (O(1) per sample
        via per-node alias tables; opt-in, different RNG-variate use so
        scores differ bit-wise while the estimator stays exact).  Ignored
        for unweighted graphs.  Incompatible with ``first_meeting="dp"``,
        which walks through the generator engine.
    adaptive:
        Run trials in geometrically growing rounds and stop as soon as the
        empirical-Bernstein half-width plus the truncation slack is ≤ ε
        for every candidate (:mod:`repro.core.adaptive`).  Deterministic
        for a fixed seed and byte-identical to the parallel adaptive
        drivers at any worker count, but a *different* RNG-stream use than
        the fixed-``n_r`` path, so adaptive scores are not bit-comparable
        to non-adaptive runs.  The result carries honest
        ``trials_completed`` / ``achieved_epsilon`` / ``stopped_early``
        metadata.  The rounds run on the ``workers=1`` inline executor, so
        the sharded drivers' fault contract applies: a failing shard is
        retried a bounded number of times, one that keeps failing is
        dropped and the result comes back ``degraded`` with the honest
        wider bound (and a :class:`~repro.errors.DegradedResultWarning`),
        and a run with no completed trial raises.  Requires
        ``first_meeting="none"``.

    Returns
    -------
    CrashSimResult
        Scores satisfying Theorem 1's guarantee when ``params`` uses the
        theoretical ``n_r``.
    """
    if first_meeting not in ("none", "dp"):
        raise ParameterError(f"unknown first_meeting mode {first_meeting!r}")
    if first_meeting == "dp" and adaptive:
        raise ParameterError(
            'adaptive=True supports only first_meeting="none", got "dp"'
        )
    if first_meeting == "dp" and sampler != "cdf":
        raise ParameterError(
            'first_meeting="dp" samples paths through the generator '
            f"engine and supports only sampler=\"cdf\", got {sampler!r}"
        )
    from repro.parallel.runner import drive_single

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
        one_stream=True,
        first_meeting=first_meeting,
        workers=1,
    )


_WALK_CHUNK = 1 << 20  # max simultaneous walks per batched pass


def accumulate_crash_totals_reference(
    graph: DiGraph,
    tree,
    targets: np.ndarray,
    n_trials: int,
    *,
    c: float,
    l_max: int,
    rng: np.random.Generator,
    walk_chunk: int = _WALK_CHUNK,
) -> np.ndarray:
    """The pre-kernel generator-driven accumulation, kept as the oracle.

    Byte-identity tests and the kernel benchmark compare the fused kernel
    against this implementation; production paths call
    :meth:`~repro.walks.kernel.WalkCrashKernel.accumulate`.
    """
    totals = np.zeros(targets.size, dtype=np.float64)
    if targets.size == 0 or n_trials <= 0:
        return totals
    if isinstance(tree, np.ndarray):
        matrix = tree
        gather = lambda step, positions: matrix[step, positions]  # noqa: E731
    else:
        gather = tree.gather
    stepper = BatchWalkStepper(graph, c)
    trials_per_chunk = max(1, walk_chunk // targets.size)
    candidate_index = np.arange(targets.size, dtype=np.int64)
    remaining = n_trials
    while remaining > 0:
        trials = min(trials_per_chunk, remaining)
        remaining -= trials
        starts = np.tile(targets, trials)
        walk_owner = np.tile(candidate_index, trials)
        for batch in stepper.walk(starts, l_max, seed=rng):
            contributions = gather(batch.step, batch.positions)
            totals += np.bincount(
                walk_owner[batch.walk_ids],
                weights=contributions,
                minlength=targets.size,
            )
    return totals


def _accumulate_crashes_dp(
    graph: DiGraph,
    tree: ReverseReachableTree,
    targets: np.ndarray,
    n_trials: int,
    *,
    c: float,
    l_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact first-meeting accumulation.

    For each sampled candidate walk ``(v_1, v_2, ...)`` the contribution of
    step ``i`` must be ``Pr[W(u)_i = v_i ∧ ∀j<i: W(u)_j ≠ v_j]``.  We
    re-propagate the source's occupancy ``D_j`` along the walk, zeroing the
    entry at ``v_j`` after harvesting it — a per-walk dynamic program over
    the corrected transition.  ``O(l · m)`` per walk: an accuracy-ablation
    mode, not a performance path.
    """
    totals = np.zeros(targets.size, dtype=np.float64)
    if targets.size == 0:
        return totals
    transition = graph.reverse_transition_matrix()  # rows: current, cols: next
    sqrt_c = math.sqrt(c)
    stepper = BatchWalkStepper(graph, c)
    n = graph.num_nodes
    for _ in range(n_trials):
        paths = stepper.sample_paths(targets, l_max, seed=rng)
        for index in range(targets.size):
            path = paths[index]
            occupancy = np.zeros(n, dtype=np.float64)
            occupancy[tree.source] = 1.0
            for step in range(1, l_max + 1):
                position = path[step]
                if position < 0:
                    break
                occupancy = sqrt_c * (occupancy @ transition)
                totals[index] += occupancy[position]
                occupancy[position] = 0.0
    return totals
