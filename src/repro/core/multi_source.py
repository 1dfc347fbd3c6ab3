"""Multi-source CrashSim: amortise candidate walks across sources.

Algorithm 1's Monte-Carlo randomness lives entirely in the *candidate*
walks — the source only contributes its (deterministic) reverse reachable
tree ``U``.  A walk sampled from candidate ``v`` is therefore valid for
scoring against *every* source's tree simultaneously:

    s_k(u_j, v) += U_j[step, position]      for each source u_j

So for ``q`` sources, :func:`crashsim_multi_source` pays the walk
generation (the dominant cost) once instead of ``q`` times, plus one
gather+scatter per source per step.  Each per-source estimator is exactly
the single-source CrashSim estimator — unbiased with the same Theorem-1
trial math — but estimates *across* sources are positively correlated
(they share walks).  That is irrelevant for per-source results and for
averaged benchmarks like Fig. 5; it only matters if one needed independent
errors across sources, which nothing in the paper does.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.crashsim import CrashSimResult
from repro.core.params import CrashSimParams
from repro.graph.digraph import DiGraph
from repro.rng import RngLike

__all__ = ["crashsim_multi_source"]


def crashsim_multi_source(
    graph: DiGraph,
    sources: Sequence[int],
    *,
    candidates: Optional[Iterable[int]] = None,
    params: Optional[CrashSimParams] = None,
    tree_variant: str = "corrected",
    seed: RngLike = None,
    sampler: str = "cdf",
    adaptive: bool = False,
) -> List[CrashSimResult]:
    """Single-source CrashSim for several sources, sharing candidate walks.

    Parameters mirror :func:`repro.core.crashsim.crashsim`; ``candidates``
    defaults to *all* nodes (each result then drops its own source).
    Returns one :class:`CrashSimResult` per source, in input order.

    The accumulation runs through the fused
    :class:`~repro.walks.kernel.WalkCrashKernel`: the per-step cost is one
    walk advance plus a *single* segmented bincount over combined
    ``(source, candidate)`` keys instead of ``q`` separate bincounts.

    ``adaptive=True`` runs the trials in geometrically growing rounds with
    empirical-Bernstein early stopping (:mod:`repro.core.adaptive`).  The
    shared walk stream *is* a common-random-number design — all ``q``
    per-source estimates are driven by the same walks — so the stopper
    watches every ``(source, candidate)`` marginal variance on one walk
    budget and stops when the worst half-width is within ε.  All results
    share one honest ``trials_completed`` / ``achieved_epsilon`` /
    ``stopped_early``.  As in :func:`~repro.core.crashsim.crashsim`, the
    rounds run on the ``workers=1`` inline executor under the sharded
    drivers' fault contract.
    """
    from repro.parallel.runner import drive_multi

    return drive_multi(
        graph,
        sources,
        candidates=candidates,
        params=params,
        tree_variant=tree_variant,
        seed=seed,
        sampler=sampler,
        adaptive=adaptive,
        one_stream=True,
        workers=1,
    )
