"""Fused walk–crash kernel: CrashSim's inner loop without the generator.

CrashSim's trial loop historically drove
:class:`~repro.walks.engine.BatchWalkStepper.walk`, a Python generator that
allocates fresh ``walk_ids``/``positions``/``draws`` arrays at every step and
re-``np.tile``\\ s a megawalk-sized start array per chunk.  The per-walk maths
is right, but the constant factor is dominated by allocation and by boolean
indexing (each ``array[mask]`` re-scans the mask).

:class:`WalkCrashKernel` fuses the whole loop: one call advances a chunk of
walks through all ``l_max`` steps and folds the ``U[step, position]`` crash
contributions straight into per-candidate totals, using preallocated
ping-pong buffers that are compacted in place and **reused across chunks,
trials, and calls** — no tile, no per-step slicing garbage, one
``mask.nonzero()`` scan per step feeding ``np.take(..., out=...,
mode="clip")`` gathers.  The four ``accumulate*`` entry points are one
chunk/step/fold loop (``_trials``) with four result shapes.

Gathers without a bounds check
------------------------------
With the default ``mode="raise"`` numpy buffers every ``take`` into an
``out`` array (gather into a temporary, then copy); ``mode="clip"``
writes straight through, about twice as fast per element.  Clipping
would silently clamp a bad index, so nothing from outside the kernel
reaches a gather unchecked: each entry point range-checks ``targets``
against ``[0, num_nodes)`` and :class:`_TreeRows` refuses a dense tree
whose rows are not ``num_nodes`` long, both raising ``IndexError``
before any buffer is touched.  Every other index is in range by
construction (CSR in-neighbours, ``nonzero()`` positions, offsets
clamped into a non-empty block); each gather site says which.

Byte-identity contract
----------------------
With the default ``sampler="cdf"`` the kernel consumes the RNG stream in
exactly the order the generator path did — one ``rng.random(out=...)`` of
the pre-compaction live count per step, same chunk boundaries
(``trials_per_chunk = max(1, walk_chunk // k)``), same float-op order
(``draw · (1/√c)`` then ``· degree``), same truncating cast, same
``np.bincount``-then-add accumulation — so scores are **bit-for-bit**
identical to the pre-kernel implementation and to the pinned seed fixtures.

Samplers
--------
* ``"cdf"`` (default) — weighted neighbour choice by inverse CDF over the
  global cumulative-weight array (``searchsorted`` + clip), byte-identical
  to the stepper.  Unweighted graphs always use the O(1) uniform gather.
* ``"alias"`` — per-node Vose alias tables (cached on the graph): O(1)
  per weighted sample instead of
  O(log m).  Statistically exact but a *different* (still uniform) use of
  the same draws, so scores differ bit-wise from the cdf path — opt-in.

Both weighted samplers reuse the survival coin: the walk survives iff
``draw < √c``, and conditioned on survival ``draw/√c`` is again uniform —
the alias path further splits that one variate into a uniform cell index
and the dart fraction (the "one-draw alias trick"), so the draw count per
step is identical across samplers.

JIT
---
When numba is importable and requested (``REPRO_JIT=1`` or
``use_jit=True``), the per-step compact+move+fold loop runs as an
``@njit``-compiled scalar loop (see :mod:`repro.walks._jit`) that replays
the vectorised float-op order element for element — asserted bit-identical
by the test suite.  Without numba the kernel silently uses the pure-NumPy
path; nothing in the default install imports numba.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graph.digraph import build_alias_tables
from repro.rng import ensure_rng
from repro.walks import _jit

__all__ = [
    "WalkCrashKernel",
    "KernelPool",
    "DEFAULT_WALK_CHUNK",
    "DEFAULT_DENSE_ROW_BUDGET",
    "SAMPLERS",
]

DEFAULT_WALK_CHUNK = 1 << 20  # max simultaneous walks per batched pass
DEFAULT_DENSE_ROW_BUDGET = 256 << 20  # bytes of dense U rows worth caching
SAMPLERS = ("cdf", "alias")

# Registry metrics, shared by every kernel instance in the process.  The
# hot loop never touches these: each accumulate call counts into plain
# local integers and flushes once on the way out.
_M_WALKS = obs.REGISTRY.counter(
    "repro_kernel_walks_total",
    "Root walks started by the fused kernel (trials x candidates).",
)
_M_STEPS = obs.REGISTRY.counter(
    "repro_kernel_steps_total",
    "Live-walk step advances performed by the fused kernel.",
)
_M_CRASH_READS = obs.REGISTRY.counter(
    "repro_kernel_crash_reads_total",
    "Crash-probability reads folded into candidate totals.",
)
_M_ROW_HITS = obs.REGISTRY.counter(
    "repro_kernel_dense_row_hits_total",
    "Per-step tree reads served from a dense cached U row.",
)
_M_ROW_MISSES = obs.REGISTRY.counter(
    "repro_kernel_dense_row_misses_total",
    "Per-step tree reads that fell back to the sparse gather path.",
)


class _TreeRows:
    """Per-step dense read access to a reverse reachable tree ``U``.

    Materialising level ``step`` into a length-``n`` float row turns the
    crash gather into one ``np.take`` — and the row's floats are identical
    to what ``tree.gather`` produces, so scores don't depend on the path
    taken.  Rows are cached lazily (each chunk revisits every step) unless
    the full cache would exceed ``budget`` bytes, in which case ``row()``
    returns ``None`` and the caller falls back to ``tree.gather``.
    ``nbytes`` is what the cache may grow to: the share of the budget it
    takes (dense trees' rows are views, and take none).
    """

    def __init__(self, tree, num_nodes: int, l_max: int, budget: int):
        self._gather: Callable[[int, np.ndarray], np.ndarray]
        self._rows: Optional[list] = None
        self._level_arrays = None
        self._num_nodes = num_nodes
        self.nbytes = 0
        if isinstance(tree, np.ndarray):
            matrix = tree
            self._gather = lambda step, positions: matrix[step, positions]
        else:
            self._gather = tree.gather
            if hasattr(tree, "level_arrays"):
                if (l_max + 1) * num_nodes * 8 <= budget:
                    self._rows = [None] * (l_max + 1)
                    self._level_arrays = tree.level_arrays
                    self.nbytes = (l_max + 1) * num_nodes * 8
                return
            if not hasattr(tree, "matrix"):
                return
            # Legacy dense tree: the matrix already exists, rows are free.
            matrix = tree.matrix
        # The kernel's row gathers skip numpy's bounds check, so a dense
        # row must span exactly the node range the walk positions live in.
        if matrix.ndim != 2 or matrix.shape[1] != num_nodes:
            raise IndexError(
                f"dense tree of shape {matrix.shape} does not have one "
                f"column per node of a {num_nodes}-node graph"
            )
        top = min(l_max, matrix.shape[0] - 1)
        self._rows = [np.ascontiguousarray(matrix[s]) for s in range(top + 1)]

    def row(self, step: int) -> Optional[np.ndarray]:
        if self._rows is None or step >= len(self._rows):
            return None
        row = self._rows[step]
        if row is None and self._level_arrays is not None:
            nodes, probs = self._level_arrays(step)
            row = np.zeros(self._num_nodes, dtype=np.float64)
            row[nodes] = probs
            self._rows[step] = row
        return row

    def gather(self, step: int, positions: np.ndarray) -> np.ndarray:
        return self._gather(step, positions)


# Buffer indices into WalkCrashKernel._buffers, by role.
_N_BUFFERS = 14


class WalkCrashKernel:
    """Fused √c-walk advancement + crash accumulation over a fixed graph.

    Parameters
    ----------
    graph:
        Anything with the walk-facing protocol (``num_nodes``,
        ``in_indptr``, ``in_indices``, ``in_degrees()``, ``is_weighted`` /
        ``in_weights``, ``in_weight_totals()``) — a
        :class:`~repro.graph.digraph.DiGraph` or any object with the same
        in-CSR arrays.
    c:
        SimRank decay factor; per-step continuation probability is √c.
    sampler:
        ``"cdf"`` (default, byte-identical to the generator path) or
        ``"alias"`` (O(1) weighted sampling).  Ignored for unweighted
        graphs, whose uniform gather is already O(1).
    use_jit:
        ``True`` forces the numba path (raises if numba is missing),
        ``False`` forces pure NumPy, ``None`` (default) follows the
        ``REPRO_JIT`` environment toggle with automatic NumPy fallback.
    dense_row_budget:
        Max bytes of dense ``U`` rows to cache per accumulate call, every
        tree's rows and the hub cache together; a tree whose rows do not
        fit reads through ``tree.gather`` (same bits, slower).
    """

    def __init__(
        self,
        graph,
        c: float,
        *,
        sampler: str = "cdf",
        use_jit: Optional[bool] = None,
        dense_row_budget: int = DEFAULT_DENSE_ROW_BUDGET,
    ):
        if not 0.0 < c < 1.0:
            raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
        if sampler not in SAMPLERS:
            raise ParameterError(
                f"unknown sampler {sampler!r}; expected one of {SAMPLERS}"
            )
        self.graph = graph
        self.c = float(c)
        self.sqrt_c = math.sqrt(c)
        self.inv_sqrt_c = 1.0 / self.sqrt_c
        self.sampler = sampler
        self.dense_row_budget = int(dense_row_budget)
        self._indptr = np.ascontiguousarray(graph.in_indptr, dtype=np.int64)
        self._indices = graph.in_indices
        degrees64 = getattr(graph, "in_degrees64", None)
        degrees = (
            degrees64()
            if degrees64 is not None
            else graph.in_degrees().astype(np.int64)
        )
        self._weighted = bool(getattr(graph, "is_weighted", False))
        self._cumulative = None
        self._weight_base = None
        self._weight_totals = None
        self._alias_prob = None
        self._alias_alias = None
        if self._weighted:
            totals = graph.in_weight_totals()
            # Zero in-weight totals make the CDF inversion degenerate (the
            # target lands exactly on base[u] and the clamp picks the first
            # neighbour): such nodes are dangling — the walk dies there.
            dead = (totals <= 0.0) & (degrees > 0)
            if dead.any():
                degrees = degrees.copy()
                degrees[dead] = 0
            self._weight_totals = totals
            if sampler == "cdf":
                self._cumulative = np.cumsum(graph.in_weights)
                base = np.zeros(graph.num_nodes, dtype=np.float64)
                starts = self._indptr[:-1]
                has_block = degrees > 0
                nonzero_starts = starts[has_block]
                base[has_block] = np.where(
                    nonzero_starts > 0, self._cumulative[nonzero_starts - 1], 0.0
                )
                self._weight_base = base
            else:
                tables = getattr(graph, "in_alias_tables", None)
                if tables is not None:
                    prob, alias = tables()
                else:
                    prob, alias = build_alias_tables(
                        self._indptr, graph.in_weights, totals
                    )
                self._alias_prob = prob
                self._alias_alias = alias
        self._degrees = degrees
        # JIT resolution: explicit use_jit wins, else the env toggle; the
        # numba-less fallback is silent unless the caller *forced* JIT.
        if use_jit is None:
            use_jit = _jit.jit_requested() and _jit.available()
        elif use_jit and not _jit.available():
            raise ParameterError(
                "use_jit=True but numba is not installed; "
                "install the [jit] extra or drop the flag"
            )
        self.use_jit = bool(use_jit)
        self._jit_step = self._bind_jit_step() if self.use_jit else None
        # Reusable buffers, grown on demand and kept across calls.  One
        # kernel serves one thread at a time: buffers are shared mutable
        # state, so concurrent accumulate()/accumulate_multi() calls on the
        # same instance corrupt each other.  Long-lived callers (the serving
        # engine) funnel all scoring through a single dispatcher thread.
        self._cap = 0
        self._buffers: tuple = ()
        self._multi_cap = 0
        self._multi_scratch: tuple = ()
        self._moments_ids_cap = 0
        self._moments_ids: Optional[np.ndarray] = None
        self._moments_tot_cap = 0
        self._moments_tot: Optional[np.ndarray] = None
        self.steps_processed = 0  # cumulative live-walk step advances

    # ------------------------------------------------------------------
    # Buffer lifecycle
    # ------------------------------------------------------------------

    def _ensure_capacity(self, cap: int) -> None:
        if cap <= self._cap:
            return
        self._cap = cap
        self._buffers = (
            np.empty(cap, dtype=np.int64),  # 0 pos_a: current positions
            np.empty(cap, dtype=np.int64),  # 1 pos_b: compacted pre-move
            np.empty(cap, dtype=np.int64),  # 2 own_a: walk owners
            np.empty(cap, dtype=np.int64),  # 3 own_b: ping-pong partner
            np.empty(cap, dtype=np.float64),  # 4 draws: step uniforms
            np.empty(cap, dtype=np.float64),  # 5 draws_b: compacted draws
            np.empty(cap, dtype=np.int64),  # 6 int scratch (degrees, flat)
            np.empty(cap, dtype=np.int64),  # 7 int scratch (compacted deg, lo)
            np.empty(cap, dtype=np.int64),  # 8 int scratch (hi, alias)
            np.empty(cap, dtype=bool),  # 9 mask
            np.empty(cap, dtype=np.float64),  # 10 float scratch
            np.empty(cap, dtype=np.float64),  # 11 float scratch
            np.empty(cap, dtype=self._indices.dtype),  # 12 gathered nbrs
            np.empty(cap, dtype=np.float64),  # 13 contributions
        )

    def _ensure_multi_scratch(self, cap: int):
        """Combined-key / crash-weight scratch for ``accumulate_multi``.

        Grown on demand and kept across calls, like the step buffers: a
        serving engine scoring batch after batch must not allocate a fresh
        ``q·cap`` pair per batch.
        """
        if cap > self._multi_cap:
            self._multi_cap = cap
            self._multi_scratch = (
                np.empty(cap, dtype=np.int64),
                np.empty(cap, dtype=np.float64),
            )
        return self._multi_scratch

    def _ensure_moments_scratch(self, ids_cap: int, tot_cap: int):
        """Walk-id owners + per-walk running totals for the moments paths.

        ``ids`` is just ``arange`` — the adaptive paths tag each walk with
        its own id (instead of its candidate index) so per-walk totals can
        be recovered for the second moment; ``tot`` holds one running float
        per live walk (per source in the multi path).  Kept across calls
        like every other kernel buffer.
        """
        if ids_cap > self._moments_ids_cap:
            self._moments_ids_cap = ids_cap
            self._moments_ids = np.arange(ids_cap, dtype=np.int64)
        if tot_cap > self._moments_tot_cap:
            self._moments_tot_cap = tot_cap
            self._moments_tot = np.empty(tot_cap, dtype=np.float64)
        return self._moments_ids, self._moments_tot

    # ------------------------------------------------------------------
    # The four entry points: one trial loop, four result shapes
    # ------------------------------------------------------------------

    def accumulate(
        self,
        tree,
        targets: np.ndarray,
        n_trials: int,
        *,
        l_max: int,
        rng,
        walk_chunk: int = DEFAULT_WALK_CHUNK,
    ) -> np.ndarray:
        """``totals[i] = Σ_trials Σ_step U[step, W(targets[i])_step]``.

        CrashSim Algorithm 1 step 3 for one source tree.  Drop-in
        replacement for the generator-driven
        ``accumulate_crash_totals_reference``: identical RNG stream
        consumption, bit-identical totals on the default sampler.  The only
        entry point that may step through the JIT fold.
        """
        return self._trials(
            (tree,), targets, n_trials, l_max, rng, walk_chunk,
            multi=False, moments=False,
        )

    def accumulate_multi(
        self,
        trees: Sequence,
        targets: np.ndarray,
        n_trials: int,
        *,
        l_max: int,
        rng,
        walk_chunk: int = DEFAULT_WALK_CHUNK,
    ) -> np.ndarray:
        """``(q, k)`` crash totals for ``q`` source trees over one walk set.

        The per-step cost is one fused walk advance plus a single segmented
        ``bincount`` over combined ``source · k + candidate`` keys — bit-
        identical to ``q`` per-row bincounts (each bin's occurrence order is
        preserved; bins are independent), but one pass instead of ``q``.
        Row ``i`` equals :meth:`accumulate` on ``trees[i]`` with the same
        seed.
        """
        return self._trials(
            trees, targets, n_trials, l_max, rng, walk_chunk,
            multi=True, moments=False,
        )

    def accumulate_moments(
        self,
        tree,
        targets: np.ndarray,
        n_trials: int,
        *,
        l_max: int,
        rng,
        walk_chunk: int = DEFAULT_WALK_CHUNK,
        hub_cache=None,
    ):
        """``(totals, sumsq)`` per candidate — first two moments per trial.

        The round-granular entry point for adaptive sampling: same warm
        ping-pong buffers as :meth:`accumulate` (calling it round after
        round reallocates nothing), but walks are tagged with per-chunk
        walk ids instead of candidate indices so each walk's crash total is
        individually recoverable; the chunk epilogue folds them into
        per-candidate ``Σ x`` and ``Σ x²``, which is all the
        empirical-Bernstein stopper needs.

        Draw counts depend on live-walk counts, so this consumes the RNG
        stream differently from :meth:`accumulate` — adaptive results are
        deterministic for a seed but deliberately not bit-comparable to
        fixed-``n_r`` runs.  Always steps through the NumPy path (never the
        JIT fold, which accumulates into candidate totals directly), so
        adaptive results are identical with and without ``REPRO_JIT``.

        ``hub_cache`` (a :class:`repro.core.adaptive.HubCache`) retires
        walks at cached hubs; its resident bytes are charged against
        ``dense_row_budget`` before the dense ``U``-row cache sizes itself.
        """
        return self._trials(
            (tree,), targets, n_trials, l_max, rng, walk_chunk,
            multi=False, moments=True, hub_cache=hub_cache,
        )

    def accumulate_multi_moments(
        self,
        trees: Sequence,
        targets: np.ndarray,
        n_trials: int,
        *,
        l_max: int,
        rng,
        walk_chunk: int = DEFAULT_WALK_CHUNK,
    ):
        """``(q, k)`` first and second moments over one shared walk stream.

        The multi-source adaptive entry point.  One walk set is scored
        against every source's tree (the ``accumulate_multi`` design) —
        that shared stream *is* the common-random-number coupling the
        adaptive stopper exploits: per-source estimates move together, and
        the stopper's per-``(source, candidate)`` variances are measured on
        the same walks, so one walk budget serves all ``q`` stop decisions.
        Row ``i`` equals :meth:`accumulate_moments` on ``trees[i]`` without
        a hub cache.  No hub cache here: tails are per-tree, and ``q``
        dense tail tables would crowd out the dense-row budget that serves
        all trees.
        """
        return self._trials(
            trees, targets, n_trials, l_max, rng, walk_chunk,
            multi=True, moments=True,
        )

    def _trials(
        self, trees, targets, n_trials, l_max, rng, walk_chunk,
        *, multi: bool, moments: bool, hub_cache=None,
    ):
        """The chunk/step/fold loop behind every ``accumulate*`` name.

        Walks ``n_trials`` √c-walks from every target in chunks of
        ``trials_per_chunk = max(1, walk_chunk // k)`` trials and folds each
        step's crash reads ``U_i[step, position]`` for every tree ``i``:

        * plain (``moments=False``): walks are tagged with their candidate
          and each step folds by ``bincount`` — over combined
          ``i · k + candidate`` keys when there are several trees;
        * ``moments=True``: walks are tagged with per-chunk walk ids, each
          walk's running total is kept per tree, and the chunk epilogue
          folds ``Σ x`` and ``Σ x²`` per candidate.

        ``multi`` picks the ``(q, k)`` result shape and the span's
        ``sources`` tag; only the single-tree plain call may use the JIT
        fold.  :meth:`_fold_trials` range-checks every target, and
        :class:`_TreeRows` every dense tree, before any buffer is touched:
        the gathers run unchecked.
        """
        rng = ensure_rng(rng)
        targets = np.asarray(targets, dtype=np.int64)
        k = targets.size
        q = len(trees)
        totals = np.zeros(q * k, dtype=np.float64)
        sumsq = np.zeros(q * k, dtype=np.float64) if moments else None
        if k and n_trials > 0 and q:
            self._fold_trials(
                trees, targets, n_trials, l_max, rng, walk_chunk,
                totals, sumsq, multi, hub_cache,
            )
        if multi:
            totals = totals.reshape(q, k)
            sumsq = sumsq.reshape(q, k) if moments else None
        return (totals, sumsq) if moments else totals

    def _fold_trials(
        self, trees, targets, n_trials, l_max, rng, walk_chunk,
        totals, sumsq, multi, hub_cache,
    ) -> None:
        """Add the trials' folds into flat ``q·k`` ``totals`` (and ``sumsq``)."""
        num_nodes = self.graph.num_nodes
        low, high = int(targets.min()), int(targets.max())
        if low < 0 or high >= num_nodes:
            bad = low if low < 0 else high
            raise IndexError(
                f"target {bad} is out of bounds for a {num_nodes}-node graph"
            )
        # One budget for the call: the hub cache, then each tree's rows in
        # turn; a tree whose rows no longer fit reads through its gather.
        budget = self.dense_row_budget
        if hub_cache is not None:
            budget = max(0, budget - hub_cache.nbytes)
        all_rows = []
        for tree in trees:
            all_rows.append(_TreeRows(tree, num_nodes, l_max, budget))
            budget -= all_rows[-1].nbytes
        moments = sumsq is not None
        k = targets.size
        q = len(trees)
        trials_per_chunk = max(1, walk_chunk // k)
        cap = min(trials_per_chunk, n_trials) * k
        self._ensure_capacity(cap)
        buffers = self._buffers
        pos_a, own_a, own_b, draws = buffers[0], buffers[2], buffers[3], buffers[4]
        # One tree's crash reads at a time land in the contributions buffer;
        # a plain multi-tree fold stages all q before its one bincount.
        keys = None
        crash_buf = buffers[13]
        if moments:
            walk_ids, walk_tot = self._ensure_moments_scratch(cap, q * cap)
        elif q > 1:
            keys, crash_buf = self._ensure_multi_scratch(q * cap)
        cand = np.arange(k, dtype=np.int64)
        jit_step = None if multi or moments else self._jit_step
        scratch = np.empty(k, dtype=np.float64) if jit_step is not None else None
        steps_local = 0
        crash_local = 0
        row_hits = 0
        row_misses = 0
        remaining = n_trials
        span = "walk_kernel_moments" if moments else "walk_kernel"
        meta = {"sources": q} if multi else {}
        with obs.span(span, trials=n_trials, candidates=k, **meta):
            while remaining > 0:
                trials = min(trials_per_chunk, remaining)
                remaining -= trials
                chunk = trials * k
                alive = chunk
                pos_a[:chunk].reshape(trials, k)[:] = targets
                if moments:
                    own_a[:chunk] = walk_ids[:chunk]
                    walk_tot[: q * chunk] = 0.0
                else:
                    own_a[:chunk].reshape(trials, k)[:] = cand
                cur_own, alt_own = own_a, own_b
                if hub_cache is not None:
                    # Candidates that *are* hubs retire at step 0 with the
                    # exact expectation — zero-variance estimates.
                    alive = self._retire_hubs(hub_cache, 0, cur_own, alive, walk_tot)
                for step in range(1, l_max + 1):
                    if alive == 0:
                        break
                    rng.random(out=draws[:alive])
                    self.steps_processed += alive
                    steps_local += alive
                    if jit_step is not None:
                        row = all_rows[0].row(step)
                        if row is not None:
                            row_hits += 1
                            alive = jit_step(
                                pos_a, cur_own, draws, alive, row, scratch, totals
                            )
                            crash_local += alive
                            continue
                    alive = self._step_numpy(cur_own, alt_own, alive)
                    if alive == 0:
                        break
                    cur_own, alt_own = alt_own, cur_own
                    crash_local += q * alive
                    positions = pos_a[:alive]
                    owners = cur_own[:alive]
                    for index, rows in enumerate(all_rows):
                        lo = 0 if moments else index * alive
                        crash = crash_buf[lo : lo + alive]
                        # Counted at the read site so the counters reconcile
                        # exactly with the crash reads actually performed.
                        row = rows.row(step)
                        if row is not None:
                            row_hits += 1
                            # In range: positions are CSR in-neighbours in
                            # [0, n) and _TreeRows holds rows of length n.
                            np.take(row, positions, out=crash, mode="clip")
                        else:
                            row_misses += 1
                            crash[:] = rows.gather(step, positions)
                        if moments:
                            tot = walk_tot[index * chunk : (index + 1) * chunk]
                            tot[owners] += crash
                        elif keys is not None:
                            np.add(owners, index * k, out=keys[lo : lo + alive])
                    if moments:
                        if hub_cache is not None and step < l_max:
                            alive = self._retire_hubs(
                                hub_cache, step, cur_own, alive, walk_tot
                            )
                    elif keys is None:
                        totals += np.bincount(
                            owners, weights=crash_buf[:alive], minlength=k
                        )
                    else:
                        totals += np.bincount(
                            keys[: q * alive],
                            weights=crash_buf[: q * alive],
                            minlength=q * k,
                        )
                if moments:
                    for index in range(q):
                        wt = walk_tot[index * chunk : (index + 1) * chunk]
                        wt = wt.reshape(trials, k)
                        totals[index * k : (index + 1) * k] += wt.sum(axis=0)
                        sumsq[index * k : (index + 1) * k] += np.square(wt).sum(axis=0)
        _M_WALKS.inc(n_trials * k)
        _M_STEPS.inc(steps_local)
        _M_CRASH_READS.inc(crash_local)
        _M_ROW_HITS.inc(row_hits)
        _M_ROW_MISSES.inc(row_misses)

    # ------------------------------------------------------------------
    # Hub retirement (adaptive sampling)
    # ------------------------------------------------------------------

    def _retire_hubs(
        self, hub_cache, step: int, cur_own: np.ndarray, alive: int,
        walk_tot: np.ndarray,
    ) -> int:
        """Retire walks sitting on a cached hub; returns the survivor count.

        A walk whose current position is one of ``hub_cache.hubs`` folds the
        precomputed expected remainder ``tails[step, hub]`` into its running
        total and stops walking — unbiased (the tail is the conditional
        expectation of exactly what the walk would have collected), strictly
        variance-reducing, and it shrinks the live set on the graphs where
        walks pile onto hubs.  ``U[step, position]`` for the current step
        must already be folded before calling.  Owners are per-chunk-unique
        walk ids, so the fold is a plain fancy-indexed add.
        """
        pos_a = self._buffers[0]
        hub_idx = hub_cache.lookup[pos_a[:alive]]
        at_hub = hub_idx >= 0
        hit = at_hub.nonzero()[0]
        if hit.size == 0:
            return alive
        tails = hub_cache.tails[step, hub_idx[hit]]
        owners = cur_own[:alive]
        walk_tot[owners[hit]] += tails
        keep = (~at_hub).nonzero()[0]
        n_new = keep.size
        if n_new:
            pos_a[:n_new] = pos_a[:alive][keep]
            cur_own[:n_new] = owners[keep]
        return n_new

    # ------------------------------------------------------------------
    # One fused step (NumPy): coin + compact + move, in place
    # ------------------------------------------------------------------

    def _step_numpy(self, cur_own: np.ndarray, alt_own: np.ndarray, alive: int) -> int:
        """Advance ``alive`` walks one step; returns the survivor count.

        Current positions live in buffer 0 on entry and exit; surviving
        owners are compacted into ``alt_own`` (the caller ping-pongs).
        Replays the generator path's arithmetic exactly: one uniform per
        live walk, survive iff ``draw < √c``, then ``draw/√c`` picks the
        neighbour.
        """
        b = self._buffers
        pos_a, pos_b = b[0], b[1]
        draws, draws_b = b[4], b[5]
        ints, ints2, ints3 = b[6], b[7], b[8]
        mask = b[9]
        floats, floats2 = b[10], b[11]
        idx = b[12]
        # Every gather below is unbuffered (mode="clip"): with the default
        # "raise", numpy gathers into a temporary and copies it out.  Each
        # site notes why its index is already in range.  Positions are
        # entry-checked targets or CSR in-neighbours, all in [0, n).
        d = draws[:alive]
        np.less(d, self.sqrt_c, out=mask[:alive])
        # In range: positions in [0, n); degrees has n entries.
        np.take(self._degrees, pos_a[:alive], out=ints[:alive], mode="clip")
        m = mask[:alive]
        m &= ints[:alive] > 0
        keep = m.nonzero()[0]
        n_new = keep.size
        if n_new == 0:
            return 0
        # One nonzero scan feeds all four gathers (boolean indexing would
        # re-scan the mask once per array).  In range: keep comes from
        # nonzero() over the first ``alive`` slots.  Degrees compact into a
        # separate buffer: numpy copies an overlapping gather in any mode.
        np.take(pos_a, keep, out=pos_b[:n_new], mode="clip")
        np.take(cur_own, keep, out=alt_own[:n_new], mode="clip")
        np.take(d, keep, out=draws_b[:n_new], mode="clip")
        np.take(ints[:alive], keep, out=ints2[:n_new], mode="clip")
        alive = n_new
        db = draws_b[:alive]
        db *= self.inv_sqrt_c
        deg = ints2[:alive]
        flat = ints[:alive]
        # Every walk left has degree > 0, so its block
        # [indptr[p], indptr[p + 1]) is non-empty; ``flat`` lands inside it.
        if self._cumulative is None and self._alias_prob is None:
            # Uniform: indices[indptr[p] + floor(r · deg)]
            np.multiply(db, deg, out=floats[:alive])
            flat[:] = floats[:alive]  # truncating cast == astype(int64)
            np.subtract(deg, 1, out=deg)
            np.minimum(flat, deg, out=flat)
            # In range: positions in [0, n); indptr has n + 1 entries.
            np.take(self._indptr, pos_b[:alive], out=deg, mode="clip")
            flat += deg
        elif self._cumulative is not None:
            # Weighted CDF: searchsorted the global cumulative, clip into
            # the node's block — exactly the stepper's arithmetic.  In
            # range: positions in [0, n) index the length-n per-node arrays.
            np.take(self._weight_totals, pos_b[:alive], out=floats[:alive], mode="clip")
            np.multiply(db, floats[:alive], out=floats[:alive])
            np.take(self._weight_base, pos_b[:alive], out=floats2[:alive], mode="clip")
            floats2[:alive] += floats[:alive]  # base + draw·W(u)
            found = np.searchsorted(self._cumulative, floats2[:alive], side="right")
            # In range: p in [0, n) and p + 1 <= n index indptr's n + 1.
            np.take(self._indptr, pos_b[:alive], out=deg, mode="clip")  # block lo
            np.add(pos_b[:alive], 1, out=ints3[:alive])
            hi = pos_a[:alive]  # free as scratch until the final move
            np.take(self._indptr, ints3[:alive], out=hi, mode="clip")
            hi -= 1  # block hi (inclusive)
            np.clip(found, deg, hi, out=flat)
        else:
            # Alias: split the surviving variate r into a uniform cell
            # index u = r · deg (trunc -> j) and the dart fraction u - j;
            # keep cell j iff the dart clears prob[j], else take alias[j].
            np.multiply(db, deg, out=floats[:alive])
            flat[:] = floats[:alive]  # j = trunc(u)
            np.subtract(deg, 1, out=deg)
            np.minimum(flat, deg, out=flat)
            frac = floats[:alive]
            frac -= flat  # u - j, uniform on [0, 1)
            # In range: positions in [0, n); indptr has n + 1 entries.
            np.take(self._indptr, pos_b[:alive], out=deg, mode="clip")  # block lo
            cell = ints3[:alive]
            np.add(deg, flat, out=cell)  # absolute table cell
            # In range: cell = lo + j with 0 <= j < deg lies in the block,
            # and the alias tables are aligned with ``indices``.
            np.take(self._alias_prob, cell, out=floats2[:alive], mode="clip")
            reject = mask[:alive]
            np.greater_equal(frac, floats2[:alive], out=reject)
            alias_local = pos_a[:alive]  # free as scratch until the move
            np.take(self._alias_alias, cell, out=alias_local, mode="clip")
            np.copyto(flat, alias_local, where=reject)  # alias[j] in [0, deg)
            flat += deg
        # In range: ``flat`` lies in a non-empty block of ``indices``.
        np.take(self._indices, flat, out=idx[:alive], mode="clip")
        pos_a[:alive] = idx[:alive]
        return alive

    # ------------------------------------------------------------------
    # JIT binding
    # ------------------------------------------------------------------

    def _bind_jit_step(self):
        """Close the graph arrays over the compiled step for this sampler."""
        steps = _jit.get_step_functions()
        if steps is None:
            return None
        indptr, indices, degrees = self._indptr, self._indices, self._degrees
        sqrt_c, inv_sqrt_c = self.sqrt_c, self.inv_sqrt_c
        if self._cumulative is not None:
            base_fn = steps["cdf"]
            cumulative = self._cumulative
            wbase, wtotals = self._weight_base, self._weight_totals

            def step(pos, own, draws, alive, row, scratch, totals):
                return base_fn(
                    pos, own, draws, alive, sqrt_c, inv_sqrt_c,
                    indptr, indices, degrees, cumulative, wbase, wtotals,
                    row, scratch, totals,
                )

        elif self._alias_prob is not None:
            base_fn = steps["alias"]
            prob, alias = self._alias_prob, self._alias_alias

            def step(pos, own, draws, alive, row, scratch, totals):
                return base_fn(
                    pos, own, draws, alive, sqrt_c, inv_sqrt_c,
                    indptr, indices, degrees, prob, alias,
                    row, scratch, totals,
                )

        else:
            base_fn = steps["uniform"]

            def step(pos, own, draws, alive, row, scratch, totals):
                return base_fn(
                    pos, own, draws, alive, sqrt_c, inv_sqrt_c,
                    indptr, indices, degrees, row, scratch, totals,
                )

        return step


class KernelPool:
    """Per-thread :class:`WalkCrashKernel` instances for one graph.

    A kernel's preallocated buffers are shared mutable state — one kernel
    serves one thread at a time.  The executor's thread tier runs shards
    concurrently in one process, so each pool thread needs its own buffer
    set: :meth:`get` returns a kernel owned by the *calling* thread,
    building it through ``factory`` on first use.  Construction is
    serialised under the pool lock, so lazily cached graph state (int64
    degrees, weight totals, alias tables) is materialised by exactly one
    thread; after warm-up ``get()`` is a single dict hit.

    Kernels are keyed by thread ident and kept for the pool's lifetime —
    a persistent executor's worker threads reuse warm buffers across
    queries instead of reallocating per shard.
    """

    def __init__(self, factory: Callable[[], "WalkCrashKernel"]):
        self._factory = factory
        self._lock = threading.Lock()
        self._kernels: Dict[int, "WalkCrashKernel"] = {}

    def get(self) -> "WalkCrashKernel":
        ident = threading.get_ident()
        kernel = self._kernels.get(ident)
        if kernel is None:
            with self._lock:
                kernel = self._kernels.get(ident)
                if kernel is None:
                    kernel = self._factory()
                    self._kernels[ident] = kernel
        return kernel

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)
