"""CrashSim-T (paper Algorithm 3) as an online session over a snapshot stream.

:class:`TemporalQuerySession` holds the one implementation of Algorithm 3's
transition: push a snapshot (or just its delta), read the surviving
candidate set ``Ω``.  Per transition it:

1. rebases the source's reverse reachable tree over the delta
   (:func:`~repro.core.revreach.revreach_update`, exact: untouched levels
   are reused, and a delta outside the tree's support returns the same
   object); if the tree changed, every candidate is recomputed;
2. otherwise applies **delta pruning** when
   ``|E(Δ)| < |Ω| · n_r / |E(Ω)|`` — candidates outside the affected area
   of the changed edges keep their previous estimate.  The affected area is
   computed on *both* snapshots and unioned, so removed edges (whose paths
   exist only in the older snapshot) are covered — a conservative
   strengthening of Theorem 2;
3. and **difference pruning** when ``|E(Ω)| < n_r`` — candidates whose own
   reverse reachable tree is unchanged keep their previous estimate (the
   trees are compared on the full snapshots, not the paper's Ω-induced
   subgraph, which is unsound — DESIGN.md §2.6).  Candidate trees come out
   of a :class:`~repro.core.pruning.CandidateTreeCache`, reused across
   pushes and advanced incrementally over each delta;
4. runs CrashSim only on the residual set ``Ω'``, merges carried and fresh
   scores, and filters ``Ω`` through the query predicate.

:func:`~repro.core.crashsim_t.crashsim_t` is a replay of one session over a
stored :class:`~repro.graph.temporal.TemporalGraph`.

    session = TemporalQuerySession(source, ThresholdQuery(theta=0.05))
    session.push_snapshot(graph_t0)
    session.push_delta(added=[(3, 7)], removed=[])
    session.survivors            # Ω after the latest snapshot

The session holds O(n) state (previous scores, the source's tree, the last
snapshot) regardless of how many snapshots have streamed through.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.core.pruning import (
    CandidateTreeCache,
    affected_area,
    count_candidate_edges,
)
from repro.core.queries import TemporalQuery
from repro.core.revreach import revreach_update
from repro.errors import ParameterError, TemporalError
from repro.graph.digraph import DiGraph
from repro.graph.temporal import EdgeDelta
from repro.rng import RngLike, ensure_rng

__all__ = ["CrashSimTStats", "ScoreMap", "TemporalQuerySession"]

Edge = Tuple[int, int]


@dataclass
class CrashSimTStats:
    """Instrumentation of one CrashSim-T run (for the pruning ablation)."""

    snapshots_processed: int = 0
    source_tree_stable: int = 0
    source_tree_reused: int = 0
    delta_pruning_applied: int = 0
    difference_pruning_applied: int = 0
    candidates_carried: int = 0
    candidates_recomputed: int = 0
    candidate_trees_built: int = 0
    candidate_trees_cached: int = 0
    candidate_trees_advanced: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "snapshots_processed": self.snapshots_processed,
            "source_tree_stable": self.source_tree_stable,
            "source_tree_reused": self.source_tree_reused,
            "delta_pruning_applied": self.delta_pruning_applied,
            "difference_pruning_applied": self.difference_pruning_applied,
            "candidates_carried": self.candidates_carried,
            "candidates_recomputed": self.candidates_recomputed,
            "candidate_trees_built": self.candidate_trees_built,
            "candidate_trees_cached": self.candidate_trees_cached,
            "candidate_trees_advanced": self.candidate_trees_advanced,
        }


class ScoreMap(Mapping):
    """``{node: score}`` over two aligned vectors, built on first read.

    ``nodes`` is a sorted int64 array and ``values`` the float64 scores
    aligned with it; both are made read-only.  The session keeps its
    scores this way, and :func:`~repro.core.crashsim_t.crashsim_t`'s
    ``history`` holds one per snapshot, so a transition never builds a
    dict; the first lookup or iteration builds one from Python ``int``
    keys and ``float`` values, and later reads reuse it.
    """

    __slots__ = ("nodes", "values", "_dict")

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        nodes.setflags(write=False)
        values.setflags(write=False)
        self.nodes = nodes
        self.values = values
        self._dict: Optional[Dict[int, float]] = None

    def _mapping(self) -> Dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self.nodes.tolist(), self.values.tolist()))
        return self._dict

    def __getitem__(self, node: int) -> float:
        return self._mapping()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return int(self.nodes.size)

    def __repr__(self) -> str:
        return f"ScoreMap({self._mapping()!r})"


def _canonical_arcs(arcs: Iterable[Edge], directed: bool) -> frozenset:
    """``EdgeDelta``'s arc form: no self-loops; undirected pairs smaller id first."""
    if directed:
        return frozenset((s, t) for s, t in arcs if s != t)
    return frozenset((min(s, t), max(s, t)) for s, t in arcs if s != t)


def _touched_delta(old: DiGraph, new: DiGraph, touched: Iterable[Edge]) -> EdgeDelta:
    """The delta from ``old`` to ``new``, judging only the ``touched`` arcs.

    Every arc that changed was touched, but a touched arc need not have
    changed: one removed and re-added in the same delta, or added while
    already present.  So each touched arc is classified by its state in
    both graphs — what :meth:`TemporalQuerySession.push_snapshot`'s full
    diff would find — in O(|touched| log d) lookups, not O(m).
    """
    added, removed, reweighted = set(), set(), set()
    for s, t in _canonical_arcs(touched, new.directed):
        before, after = old.has_edge(s, t), new.has_edge(s, t)
        if before and after:
            if old.edge_weight(s, t) != new.edge_weight(s, t):
                reweighted.add((s, t))
        elif after:
            added.add((s, t))
        elif before:
            removed.add((s, t))
    return EdgeDelta(frozenset(added), frozenset(removed), frozenset(reweighted))


class TemporalQuerySession:
    """Online CrashSim-T over a snapshot stream.

    Parameters
    ----------
    source:
        Query source ``u``.
    query:
        Any :class:`~repro.core.queries.TemporalQuery` (threshold, trend,
        composite, ...).
    params:
        CrashSim parameters (defaults match the paper's temporal setting).
    use_delta_pruning, use_difference_pruning:
        Ablation switches for Properties 1 and 2.
    seed:
        Drives all Monte-Carlo trials of the session.
    sampler:
        Weighted neighbour-sampling strategy forwarded to every CrashSim
        run of the session (``"cdf"`` default / ``"alias"`` opt-in).

    Attributes
    ----------
    stats:
        :class:`CrashSimTStats` over every snapshot the transition ran on.
        A push arriving after ``Ω`` emptied only records the snapshot, so
        it counts in :attr:`snapshots_seen` but not in the stats.
    """

    def __init__(
        self,
        source: int,
        query: TemporalQuery,
        *,
        params: Optional[CrashSimParams] = None,
        use_delta_pruning: bool = True,
        use_difference_pruning: bool = True,
        seed: RngLike = None,
        sampler: str = "cdf",
    ):
        self.source = int(source)
        self.query = query
        self.params = params or CrashSimParams()
        self.use_delta_pruning = use_delta_pruning
        self.use_difference_pruning = use_difference_pruning
        self.sampler = sampler
        self._rng = ensure_rng(seed)
        self._graph: Optional[DiGraph] = None
        self._tree = None
        # The last transition's scores over the Ω it entered with (every
        # candidate after the first snapshot), and the mask of that Ω
        # which survived it: the current Ω is ``_scores.nodes[_alive]``.
        self._scores = ScoreMap(np.empty(0, np.int64), np.empty(0, np.float64))
        self._alive = np.empty(0, dtype=bool)
        self._survivors: Tuple[int, ...] = ()
        self._candidate_trees = CandidateTreeCache()
        self.snapshots_seen = 0
        self.stats = CrashSimTStats()

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._graph is not None

    @property
    def survivors(self) -> Tuple[int, ...]:
        """Ω after the most recent snapshot (empty before the first).

        A sorted tuple of ``int``, built once per snapshot that changes Ω:
        while pushes leave Ω as it is, the same tuple object comes back.
        """
        return self._survivors

    @property
    def scores(self) -> Dict[int, float]:
        """Latest SimRank estimates of the still-alive candidates."""
        nodes = self._scores.nodes[self._alive]
        values = self._scores.values[self._alive]
        return dict(zip(nodes.tolist(), values.tolist()))

    # ------------------------------------------------------------------
    # Feeding the stream
    # ------------------------------------------------------------------

    def push_snapshot(self, graph: DiGraph) -> Tuple[int, ...]:
        """Process the next snapshot given in full; returns the new Ω."""
        if self._graph is None:
            return self._start(graph)
        if graph.num_nodes != self._graph.num_nodes:
            raise TemporalError("snapshot streams share one node set")
        directed = graph.directed
        delta = EdgeDelta(
            added=_canonical_arcs(graph.arcs_not_in(self._graph), directed),
            removed=_canonical_arcs(self._graph.arcs_not_in(graph), directed),
            reweighted=_canonical_arcs(graph.reweighted_arcs(self._graph), directed),
        )
        return self._advance(graph, delta)

    def push_delta(
        self, added: Iterable[Edge] = (), removed: Iterable[Edge] = ()
    ) -> Tuple[int, ...]:
        """Process the next snapshot expressed as a delta; returns Ω.

        :meth:`DiGraph.with_delta` splices the next snapshot, raising on a
        bad delta before any session state changes.  The transition sees
        the same delta as :meth:`push_snapshot` of that snapshot: an arc
        both removed and added is reweighted or unchanged, and re-adding a
        present arc adds nothing.
        """
        if self._graph is None:
            raise TemporalError("push an initial snapshot before any delta")
        added = [(int(s), int(t)) for s, t in added]
        removed = [(int(s), int(t)) for s, t in removed]
        graph = self._graph.with_delta(added, removed)
        delta = _touched_delta(self._graph, graph, added + removed)
        return self._advance(graph, delta)

    # ------------------------------------------------------------------
    # Internals (the Algorithm 3 loop body)
    # ------------------------------------------------------------------

    def _start(self, graph: DiGraph) -> Tuple[int, ...]:
        if not 0 <= self.source < graph.num_nodes:
            raise ParameterError(
                f"source {self.source} outside the node range "
                f"[0, {graph.num_nodes})"
            )
        result = crashsim(
            graph,
            self.source,
            params=self.params,
            seed=self._rng,
            sampler=self.sampler,
        )
        alive = np.asarray(self.query.initial_mask(result.scores), dtype=bool)
        self._graph = graph
        self._tree = result.tree
        self._scores = ScoreMap(result.candidates, result.scores)
        self._alive = alive
        self._survivors = tuple(result.candidates[alive].tolist())
        self.snapshots_seen = 1
        self.stats.snapshots_processed += 1
        self.stats.candidates_recomputed += result.candidates.size
        return self._survivors

    def _advance(self, graph: DiGraph, delta: EdgeDelta) -> Tuple[int, ...]:
        """Process one transition **transactionally**.

        ``delta`` takes the current snapshot to ``graph`` in canonical arcs.
        Everything — the advanced source tree, pruning decisions, candidate
        -tree cache mutations, Monte-Carlo scores, the new Ω, the stats —
        is computed into locals (and a cloned cache) first; session state
        is assigned only in the commit block at the end.  If anything
        raises mid-push (a worker crash surfacing as an exception, a fault
        injection, a keyboard interrupt), the session stays exactly in its
        pre-push state — including the RNG, whose bit-generator state is
        restored so a retried push reproduces the same trial bits.
        """
        rng_state = self._rng.bit_generator.state
        try:
            return self._advance_or_raise(graph, delta)
        except BaseException:
            self._rng.bit_generator.state = rng_state
            raise

    def _advance_or_raise(self, graph: DiGraph, delta: EdgeDelta) -> Tuple[int, ...]:
        next_seen = self.snapshots_seen + 1
        if not self._survivors:
            self._graph = graph
            self.snapshots_seen = next_seen
            return self._survivors
        omega = self._scores.nodes[self._alive]
        previous = self._scores.values[self._alive]
        # A reweighted arc changes its head's in-block as an added one does:
        # both reach the tree updates as changed heads.
        grown = delta.added | delta.reweighted
        tree_cur = revreach_update(
            self._tree,
            graph,
            grown,
            delta.removed,
            directed=graph.directed,
        )
        reused = tree_cur is self._tree
        stable = reused or tree_cur.same_as(self._tree)
        n_r = self.params.n_r(max(graph.num_nodes, 2))

        candidate_trees = self._candidate_trees.clone()
        # Over Ω: the candidates to recompute; the rest carry their score.
        residual = np.ones(omega.size, dtype=bool)
        delta_pruned = difference_pruned = False
        if stable:
            edge_count = max(count_candidate_edges(graph, omega), 1)
            if (
                self.use_delta_pruning
                and not delta.is_empty()
                and delta.num_changed < omega.size * n_r / edge_count
            ):
                delta_pruned = True
                changed = delta.changed
                affected = affected_area(
                    graph, changed, self.params.l_max
                ) | affected_area(self._graph, changed, self.params.l_max)
                residual = np.isin(
                    omega, np.fromiter(affected, np.int64, len(affected))
                )
            elif self.use_delta_pruning and delta.is_empty():
                # Identical snapshots: every candidate's estimate carries.
                delta_pruned = True
                residual[:] = False
            if self.use_difference_pruning and residual.any() and edge_count < n_r:
                # Full-graph tree comparison; the paper's E_Ω restriction
                # is unsound (DESIGN.md §2.6).  Candidate trees come from
                # the cloned cache: reused across pushes, advanced
                # incrementally over the delta, committed below.
                difference_pruned = True
                for index in np.flatnonzero(residual).tolist():
                    node = int(omega[index])
                    prev_tree = candidate_trees.tree_for(
                        node,
                        next_seen - 1,
                        self._graph,
                        self.params.l_max,
                        self.params.c,
                    )
                    cur_tree = candidate_trees.advance(
                        node,
                        prev_tree,
                        next_seen,
                        graph,
                        grown,
                        delta.removed,
                        directed=graph.directed,
                    )
                    if cur_tree is prev_tree or cur_tree.same_as(prev_tree):
                        residual[index] = False

        faults.inject("advance", next_seen)
        values = previous.copy()
        recomputed = int(np.count_nonzero(residual))
        if recomputed:
            partial = crashsim(
                graph,
                self.source,
                candidates=omega[residual],
                params=self.params,
                tree=tree_cur,
                seed=self._rng,
                sampler=self.sampler,
            )
            values[residual] = partial.scores

        alive = np.asarray(self.query.step_mask(previous, values), dtype=bool)
        survivors = self._survivors
        if not alive.all():
            survivors = tuple(omega[alive].tolist())
        candidate_trees.retain(omega[alive])

        # --- Commit: the push can no longer fail past this point.
        stats = self.stats
        stats.snapshots_processed += 1
        stats.source_tree_reused += int(reused)
        stats.source_tree_stable += int(stable)
        stats.delta_pruning_applied += int(delta_pruned)
        stats.difference_pruning_applied += int(difference_pruned)
        stats.candidates_carried += omega.size - recomputed
        stats.candidates_recomputed += recomputed
        stats.candidate_trees_built = candidate_trees.builds
        stats.candidate_trees_cached = candidate_trees.hits
        stats.candidate_trees_advanced = candidate_trees.advances
        self._scores = ScoreMap(omega, values)
        self._alive = alive
        self._survivors = survivors
        self._candidate_trees = candidate_trees
        self._graph = graph
        self._tree = tree_cur
        self.snapshots_seen = next_seen
        return survivors
