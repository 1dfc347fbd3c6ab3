"""Cross-query batch scoring: many single-source queries, one kernel pass.

A long-lived query server collects concurrent single-source requests into
small batches (see :mod:`repro.serve`).  This module is the *deterministic
core* of that batching: :func:`crashsim_batch` scores a list of
:class:`BatchQuery` objects and returns, for each, a
:class:`~repro.core.crashsim.CrashSimResult` that is **byte-identical** to
what a sequential :func:`~repro.core.crashsim.crashsim` call with the same
``(source, candidates, seed, sampler)`` would produce — no matter how the
queries are partitioned into batches.  That *batch-composition invariance*
is what lets a server coalesce whatever happens to be in its queue without
changing any caller-visible bit (pinned by the Hypothesis suite in
``tests/serve/test_batching_properties.py``).

Where the speedup comes from
----------------------------
Walk draws are the dominant cost, and CrashSim's randomness lives entirely
in the *candidate* walks — the source only contributes its deterministic
reverse reachable tree.  Two queries can therefore share one walk stream
iff they would consume **identical draws**: same replayable seed and same
walk-target array.  Queries in a batch are grouped by that coalescing key:

* a group of ``q ≥ 2`` compatible queries runs through
  :meth:`~repro.walks.kernel.WalkCrashKernel.accumulate_multi` — one shared
  walk stream scored against all ``q`` trees at once (the 3.1x multi-source
  path), and because ``accumulate_multi`` consumes the RNG exactly like
  ``q`` identically-seeded ``accumulate`` calls would, every row is
  bit-equal to its query's solo run;
* everything else (distinct seeds, live ``Generator`` seeds, ``None``
  seeds, distinct target sets) is scored individually — but still through
  one shared kernel with warm buffers, and with trees supplied by the
  caller's cache instead of rebuilt per query.

The practical coalescing case is a fixed candidate *catalogue* that query
sources are not members of (similarity search over an item corpus): every
query then shares one walk-target array, and a server that assigns one
replayable seed per batching window gets the shared-stream path for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.crashsim import CrashSimResult
from repro.core.params import CrashSimParams
from repro.core.revreach import revreach_levels
from repro.graph.digraph import DiGraph
from repro.rng import RngLike
from repro.walks.kernel import WalkCrashKernel

__all__ = ["BatchQuery", "crashsim_batch", "coalesce_seed_key"]


@dataclass(frozen=True)
class BatchQuery:
    """One single-source query inside a batch.

    Parameters mirror :func:`~repro.core.crashsim.crashsim`:

    source:
        Query source node.
    seed:
        Anything :func:`repro.rng.ensure_rng` accepts.  Only *replayable*
        seeds (``int`` / :class:`numpy.random.SeedSequence`) can coalesce
        with other queries; a live ``Generator`` or ``None`` is consumed
        exactly as a solo :func:`crashsim` call would consume it.
    candidates:
        Candidate set Ω, or ``None`` for all nodes except the source.
    """

    source: int
    seed: RngLike = None
    candidates: Optional[Iterable[int]] = None


def coalesce_seed_key(seed: RngLike) -> Optional[Tuple]:
    """A hashable replay key for ``seed``, or ``None`` if not replayable.

    Two queries may share one walk stream only when re-seeding would
    reproduce identical draws for each of them individually: plain integers
    and :class:`~numpy.random.SeedSequence` qualify; ``None`` (OS entropy)
    and live generators (stateful, single-use) never do.
    """
    if isinstance(seed, (int, np.integer)):
        return ("int", int(seed))
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = tuple(int(e) for e in entropy)
        elif entropy is not None:
            entropy = int(entropy)
        return (
            "seq",
            entropy,
            tuple(int(k) for k in seed.spawn_key),
            int(seed.pool_size),
        )
    return None


def crashsim_batch(
    graph: DiGraph,
    queries: Sequence[BatchQuery],
    *,
    params: Optional[CrashSimParams] = None,
    tree_variant: str = "corrected",
    sampler: str = "cdf",
    kernel: Optional[WalkCrashKernel] = None,
    tree_provider: Optional[Callable[[int], object]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> List[CrashSimResult]:
    """Score a batch of single-source queries, coalescing shared walks.

    Parameters
    ----------
    graph, params, tree_variant, sampler:
        As :func:`~repro.core.crashsim.crashsim`; one parameter set covers
        the whole batch (a server partitions incompatible requests into
        separate batches *before* calling this).
    kernel:
        A warm :class:`~repro.walks.kernel.WalkCrashKernel` to reuse across
        batches (its ``sampler`` takes precedence); built fresh when
        omitted.
    tree_provider:
        ``source -> tree`` callable (a server's LRU cache); without one
        each distinct source builds its tree once with
        :func:`revreach_levels`, shared by its queries.  Returned
        trees are validated against the query's ``source``/``c``/
        ``l_max``/``variant``.
    stats:
        Optional dict; when given, ``coalesced_queries``,
        ``shared_walk_groups``, and ``solo_queries`` counters are
        accumulated into it.

    Returns
    -------
    list of CrashSimResult
        One per query, in input order, each byte-identical to the
        corresponding sequential ``crashsim`` call.
    """
    from repro.parallel.runner import _epilogue, _prologue, _run_trials

    params = params or CrashSimParams()
    if kernel is None:
        kernel = WalkCrashKernel(graph, params.c, sampler=sampler)
    if tree_provider is None:
        # A source repeated within the batch builds its tree once.
        built: Dict[int, object] = {}

        def tree_provider(source: int):
            if source not in built:
                built[source] = revreach_levels(
                    graph, source, params.l_max, params.c, variant=tree_variant
                )
            return built[source]

    prologue = partial(
        _prologue, graph, params=params, tree_variant=tree_variant,
        tree_provider=tree_provider,
    )
    trials = partial(
        _run_trials, graph, params=params, sampler=sampler, one_stream=True,
        kernel=kernel,
    )
    # Every query is checked (and its tree fetched) before any walk runs.
    prepared = [prologue(q.source, candidates=q.candidates) for q in queries]
    groups: Dict[Tuple, List[int]] = {}
    for index, (query, item) in enumerate(zip(queries, prepared)):
        seed_key = coalesce_seed_key(query.seed)
        if seed_key is not None and item.targets.size:
            groups.setdefault((seed_key, item.targets.tobytes()), []).append(index)

    counts = dict.fromkeys(("shared_walk_groups", "coalesced_queries", "solo_queries"), 0)
    estimates = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        # Shared walk stream: one multi-tree run over the group's trees.
        # Every member consumes the same draws its solo run would, so each
        # row is bit-equal to that member's individual run.
        with obs.span("batch_coalesce", queries=len(members)):
            shared = trials(
                [prepared[index].tree for index in members],
                prepared[members[0]].targets,
                multi=True,
                seed=queries[members[0]].seed,
            )
        rows = shared.totals.reshape(len(members), -1)
        for totals, index in zip(rows, members):
            estimates[index] = (shared, totals)
        counts["shared_walk_groups"] += 1
        counts["coalesced_queries"] += len(members)

    results: List[CrashSimResult] = []
    for index, (query, item) in enumerate(zip(queries, prepared)):
        if index not in estimates:
            solo = trials(item.tree, item.targets, multi=False, seed=query.seed)
            estimates[index] = (solo, solo.totals)
            counts["solo_queries"] += 1
        results.append(_epilogue(graph, item, *estimates[index], params))
    if stats is not None:
        for key, value in counts.items():
            stats[key] = stats.get(key, 0) + value
    return results
