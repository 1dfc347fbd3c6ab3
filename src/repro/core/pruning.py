"""Delta and difference pruning primitives (paper Theorem 2, Props. 1–2).

Both pruning rules of CrashSim-T reduce to deciding, per candidate, whether
its SimRank estimate can possibly have changed between adjacent snapshots:

* **Delta pruning** (Property 1) walks *forward* from the head ``y`` of each
  changed edge ``x → y``: every node reachable from ``y`` via out-edges
  within ``l_max - 1`` steps might route a reverse √c-walk through the
  changed edge (Theorem 2); everything else is exempt.  Worth paying when
  ``|E(Δ)| < |Ω|·n_r / |E(Ω)|``.
* **Difference pruning** (Property 2) compares each candidate's own reverse
  reachable tree between the two snapshots (on the ``Ω``-induced subgraph,
  as Algorithm 3 lines 16–17 prescribe); an unchanged tree means an
  unchanged estimate.  Worth paying when ``|E(Ω)| < n_r``.

Soundness of both rules is pinned by property tests
(``tests/core/test_pruning.py``): pruned and unpruned CrashSim-T runs must
select the same nodes when fed identical walk randomness.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core.revreach import (
    SparseReverseTree,
    _changed_heads,
    revreach_levels,
    revreach_update,
)
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph

__all__ = [
    "CandidateTreeCache",
    "affected_area",
    "edge_subgraph",
    "tree_unchanged",
    "tree_unaffected_by_delta",
    "count_candidate_edges",
]

Edge = Tuple[int, int]

# Registry mirrors of the per-instance CandidateTreeCache counters: the
# instance attributes stay the externally visible API (CrashSimTStats reads
# them), the registry aggregates across every cache in the process.
# Increments happen at event time, so clone() copying the instance counters
# never double-counts here.
_M_CTC_HITS = obs.REGISTRY.counter(
    "repro_candidate_tree_cache_hits_total",
    "Candidate-tree cache lookups served from a stamped entry.",
)
_M_CTC_BUILDS = obs.REGISTRY.counter(
    "repro_candidate_tree_cache_builds_total",
    "Candidate trees built from scratch on a cache miss or rebuild.",
)
_M_CTC_ADVANCES = obs.REGISTRY.counter(
    "repro_candidate_tree_cache_advances_total",
    "Candidate trees advanced incrementally across a snapshot transition.",
)
_M_CTC_EVICTIONS = obs.REGISTRY.counter(
    "repro_candidate_tree_cache_evictions_total",
    "Candidate-tree cache entries dropped because their node left Omega.",
)


def affected_area(
    graph: DiGraph,
    changed_edges: Iterable[Edge],
    l_max: int,
    *,
    include_tails: bool = True,
) -> Set[int]:
    """Nodes whose SimRank to the source may change (Theorem 2 part ii).

    For each changed edge ``x → y``, collects ``y`` and every node
    forward-reachable from ``y`` within ``l_max - 1`` out-steps on
    ``graph``.  ``include_tails`` additionally marks ``x`` itself: a
    removed edge leaves ``x`` with a changed in-neighbour *sharing* at ``y``
    only, but ``x``'s own estimate is affected when walks from other nodes
    pass through it — including the tail is the conservative choice our
    soundness tests require for undirected graphs (where a changed edge
    touches both endpoints' neighbourhoods).
    """
    if l_max < 1:
        raise ParameterError(f"l_max must be at least 1, got {l_max}")
    seeds: Set[int] = set()
    for x, y in changed_edges:
        x, y = int(x), int(y)
        seeds.add(y)
        if include_tails:
            seeds.add(x)
    affected: Set[int] = set(seeds)
    frontier = deque((node, 0) for node in seeds)
    limit = l_max - 1
    while frontier:
        node, depth = frontier.popleft()
        if depth >= limit:
            continue
        for successor in graph.out_neighbors(node):
            successor = int(successor)
            if successor not in affected:
                affected.add(successor)
                frontier.append((successor, depth + 1))
    return affected


def edge_subgraph(graph: DiGraph, nodes: Sequence[int]) -> DiGraph:
    """Subgraph ``G(V, E_Ω)``: same node-id space, only edges within ``Ω``.

    Algorithm 3 evaluates revReach on this restriction for the
    difference-pruning comparisons; keeping the full id space means trees of
    different snapshots stay directly comparable.
    """
    mask = np.zeros(graph.num_nodes, dtype=bool)
    node_array = np.asarray(list(nodes), dtype=np.int64)
    if node_array.size and (node_array.min() < 0 or node_array.max() >= graph.num_nodes):
        raise ParameterError("candidate node outside the graph's node range")
    mask[node_array] = True
    sources = graph.arc_sources()
    targets = graph.out_indices
    keep = mask[sources] & mask[targets]
    return DiGraph(
        graph.num_nodes,
        sources[keep].astype(np.int64),
        targets[keep].astype(np.int64),
        directed=graph.directed,
        node_labels=graph.node_labels,
    )


def count_candidate_edges(graph: DiGraph, nodes: Sequence[int]) -> int:
    """``|E(Ω)|`` — arcs with both endpoints in the candidate set.

    ``nodes`` holds Ω's distinct ids, as an array or any int sequence.
    Only Ω's own out-CSR rows are read: a cumulative sum of their
    out-degrees lays their arc segments end to end, so the count costs
    O(|Ω| + Σ out-degree over Ω), not a pass over every arc.
    """
    node_array = np.asarray(nodes, dtype=np.int64)
    if node_array.size == 0:
        return 0
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[node_array] = True
    starts = graph.out_indptr[node_array]
    degrees = graph.out_indptr[node_array + 1] - starts
    # Entry j of the rows laid end to end is arc starts[r] + j - offsets[r]
    # of the CSR, r being the row it falls in.
    offsets = np.cumsum(degrees) - degrees
    arcs = np.repeat(starts - offsets, degrees) + np.arange(int(degrees.sum()))
    return int(np.count_nonzero(mask[graph.out_indices[arcs]]))


def tree_unaffected_by_delta(
    tree,
    added: Iterable[Edge],
    removed: Iterable[Edge],
    *,
    directed: bool = True,
) -> bool:
    """Exact gate: does the snapshot delta leave ``tree`` intact?

    A changed arc ``x → y`` alters the source's reverse reachable tree iff
    ``y`` carries occupancy mass at some step ``< l_max`` — only then does
    the walk's transition out of ``y`` (whose in-neighbour set changed)
    participate in any propagated level.  A sparse tree binary-searches
    the changed heads in each sorted level, O(l_max · |heads| · log
    support), instead of the O(l_max · m) rebuild, which is what makes
    per-snapshot tree reuse in CrashSim-T essentially free on low-churn
    horizons.

    For undirected graphs each edge is two arcs, so both endpoints are
    checked.
    """
    heads = _changed_heads(added, removed, directed)
    if heads.size == 0:
        return True
    if isinstance(tree, SparseReverseTree):
        return tree.first_level_containing(heads, limit=tree.l_max) is None
    occupancy = tree.matrix[: tree.l_max][:, heads]
    return not bool(np.any(occupancy > 0.0))


def tree_unchanged(
    previous_graph: DiGraph,
    current_graph: DiGraph,
    node: int,
    l_max: int,
    c: float,
    *,
    variant: str = "corrected",
    tol: float = 0.0,
) -> bool:
    """Whether ``node``'s reverse reachable tree matches across snapshots.

    The literal Algorithm 3 check (lines 16–18): build both trees and
    compare.  Used by difference pruning; delta pruning's forward BFS is
    the cheaper sufficient test.
    """
    previous_tree = revreach_levels(previous_graph, node, l_max, c, variant=variant)
    current_tree = revreach_levels(current_graph, node, l_max, c, variant=variant)
    return previous_tree.same_as(current_tree, tol=tol)


class CandidateTreeCache:
    """Per-candidate reverse-tree cache across snapshot transitions.

    Difference pruning (Property 2) compares each residual candidate's
    reverse reachable tree between adjacent snapshots.  Rebuilding *both*
    trees from scratch per candidate per transition — as Algorithm 3
    literally prescribes — costs ``O(|Ω| · l_max · m)`` per snapshot.  This
    cache keeps each candidate's most recent tree stamped with the snapshot
    index it is valid for, so a transition ``t → t+1`` needs at most one
    fresh build per candidate (the first time it is compared) and afterwards
    only an :func:`~repro.core.revreach.revreach_update` advance, whose cost
    is proportional to the delta's reach into the tree.

    Entries are exact: a cached tree is bit-identical to a fresh
    ``revreach_levels`` on its stamped snapshot (``revreach_update`` is
    bit-exact — pinned by tests), so pruning decisions are unchanged.

    The cache is thread-safe: lookups, advances, clones, and retention all
    run under one re-entrant lock, so a serving engine can share a single
    instance across concurrent request threads.  Trees themselves are
    immutable, so a tree returned to one thread stays valid even if another
    thread replaces or drops its cache entry.

    Attributes
    ----------
    hits, builds, advances:
        Running counters, mirrored into ``CrashSimTStats``.
    """

    def __init__(self):
        self._entries: Dict[int, Tuple[int, object]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.builds = 0
        self.advances = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def tree_for(
        self,
        node: int,
        stamp: int,
        graph: DiGraph,
        l_max: int,
        c: float,
        *,
        variant: str = "corrected",
    ):
        """The candidate's tree on the snapshot stamped ``stamp``.

        Returns the cached tree when its stamp matches; otherwise builds
        fresh on ``graph`` (which must be that snapshot) and records it.
        The build itself runs outside the lock so concurrent misses on
        different candidates overlap; racing builds of the *same* candidate
        are deterministic duplicates, and the first recorded entry wins.
        """
        with self._lock:
            entry = self._entries.get(int(node))
            if entry is not None and entry[0] == stamp:
                self.hits += 1
                _M_CTC_HITS.inc()
                return entry[1]
        tree = revreach_levels(graph, int(node), l_max, c, variant=variant)
        with self._lock:
            entry = self._entries.get(int(node))
            if entry is not None and entry[0] == stamp:
                self.hits += 1
                _M_CTC_HITS.inc()
                return entry[1]
            self.builds += 1
            self._entries[int(node)] = (stamp, tree)
        _M_CTC_BUILDS.inc()
        return tree

    def advance(
        self,
        node: int,
        prev_tree,
        new_stamp: int,
        new_graph: DiGraph,
        added: Iterable[Edge],
        removed: Iterable[Edge],
        *,
        directed: bool = True,
    ):
        """Advance ``prev_tree`` one transition and cache it at ``new_stamp``.

        Corrected-variant trees are rebased incrementally; the literal
        "paper" variant (whose transition depends on the child's in-degree)
        is rebuilt in full.
        """
        if prev_tree.variant == "corrected":
            tree = revreach_update(
                prev_tree, new_graph, added, removed, directed=directed
            )
            advanced = tree is not prev_tree
            rebuilt = False
        else:
            tree = revreach_levels(
                new_graph,
                int(node),
                prev_tree.l_max,
                prev_tree.c,
                variant=prev_tree.variant,
            )
            advanced = False
            rebuilt = True
        with self._lock:
            if advanced:
                self.advances += 1
            if rebuilt:
                self.builds += 1
            self._entries[int(node)] = (new_stamp, tree)
        if advanced:
            _M_CTC_ADVANCES.inc()
        if rebuilt:
            _M_CTC_BUILDS.inc()
        return tree

    def clone(self) -> "CandidateTreeCache":
        """A shallow copy safe to mutate speculatively.

        Trees are immutable (``revreach_update`` returns new objects), so
        copying the entry dict is enough.  The streaming session advances a
        clone during each push and commits it only on success, keeping the
        published cache consistent when a push fails mid-flight.
        """
        other = CandidateTreeCache()
        with self._lock:
            other._entries = dict(self._entries)
            other.hits = self.hits
            other.builds = self.builds
            other.advances = self.advances
        return other

    def retain(self, nodes: Iterable[int]) -> None:
        """Drop entries for candidates no longer alive (Ω only shrinks)."""
        with self._lock:
            if not self._entries:
                return
        alive = set(np.asarray(nodes, dtype=np.int64).tolist())
        dropped = 0
        with self._lock:
            for node in list(self._entries):
                if node not in alive:
                    del self._entries[node]
                    dropped += 1
        if dropped:
            _M_CTC_EVICTIONS.inc(dropped)
