"""Temporal graphs as snapshot sequences with edge deltas (paper Def. 2).

A temporal graph ``G = {G_1, ..., G_T}`` shares one node set across all
snapshots; only edges appear and disappear.  Storing ``T`` full CSR graphs
is wasteful when adjacent snapshots differ by a handful of edges (the regime
in which the paper's pruning rules pay off), so :class:`TemporalGraph` keeps
the first snapshot plus an :class:`EdgeDelta` per transition and materialises
:class:`~repro.graph.DiGraph` snapshots lazily, each spliced from an earlier
one by :meth:`~repro.graph.DiGraph.with_delta`, with a small LRU cache.

The delta between adjacent snapshots is exactly the ``Δ = G_{t+1} - G_t``
set that delta pruning (paper Property 1) consumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SnapshotIndexError, TemporalError
from repro.graph.digraph import DiGraph

__all__ = ["EdgeDelta", "TemporalGraph", "TemporalGraphBuilder"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class EdgeDelta:
    """The edge difference between two adjacent snapshots.

    ``added``, ``removed`` and ``reweighted`` are disjoint sets of
    canonical arcs (for undirected graphs, the pair with the smaller id
    first).  ``reweighted`` holds arcs present in both snapshots whose
    weight changed; edge-set deltas leave it empty.
    """

    added: frozenset
    removed: frozenset
    reweighted: frozenset = frozenset()

    @property
    def num_changed(self) -> int:
        """``|E(Δ)|`` — total changed edges, as used by delta pruning."""
        return len(self.added) + len(self.removed) + len(self.reweighted)

    @property
    def changed(self) -> frozenset:
        """Every arc whose presence or weight changed."""
        return self.added | self.removed | self.reweighted

    def is_empty(self) -> bool:
        return not self.added and not self.removed and not self.reweighted

    @classmethod
    def between(cls, old_edges: Set[Edge], new_edges: Set[Edge]) -> "EdgeDelta":
        """Compute the delta taking ``old_edges`` to ``new_edges``."""
        return cls(
            added=frozenset(new_edges - old_edges),
            removed=frozenset(old_edges - new_edges),
        )

    def apply(self, edges: Set[Edge]) -> Set[Edge]:
        """Apply this delta to an edge set, returning a new set."""
        missing = self.removed - edges
        if missing:
            raise TemporalError(
                f"delta removes {len(missing)} edges absent from the snapshot"
            )
        overlap = self.added & edges
        if overlap:
            raise TemporalError(
                f"delta adds {len(overlap)} edges already present in the snapshot"
            )
        return (edges - self.removed) | self.added


class TemporalGraph:
    """An immutable sequence of snapshots over a fixed node set.

    Parameters
    ----------
    num_nodes:
        Shared node count of all snapshots.
    initial_edges:
        Canonical edge set of snapshot 0.
    deltas:
        One :class:`EdgeDelta` per transition; the horizon is
        ``len(deltas) + 1`` snapshots.
    directed:
        Directedness shared by every snapshot.
    node_labels:
        Optional external labels propagated to every materialised snapshot.
    name:
        Optional dataset name (used by experiment reports).
    """

    _CACHE_SIZE = 8

    def __init__(
        self,
        num_nodes: int,
        initial_edges: Iterable[Edge],
        deltas: Sequence[EdgeDelta],
        *,
        directed: bool = True,
        node_labels: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ):
        self.num_nodes = int(num_nodes)
        self.directed = bool(directed)
        self.node_labels = tuple(node_labels) if node_labels is not None else None
        self.name = name
        self._initial_edges = frozenset(
            self._canonical(int(s), int(t)) for s, t in initial_edges if s != t
        )
        self._deltas: Tuple[EdgeDelta, ...] = tuple(deltas)
        self._snapshot_cache: "OrderedDict[int, DiGraph]" = OrderedDict()
        self._edge_cache: "OrderedDict[int, frozenset]" = OrderedDict()

    def _canonical(self, source: int, target: int) -> Edge:
        if not self.directed and source > target:
            return target, source
        return source, target

    # ------------------------------------------------------------------
    # Horizon / indexing
    # ------------------------------------------------------------------

    @property
    def num_snapshots(self) -> int:
        return len(self._deltas) + 1

    def __len__(self) -> int:
        return self.num_snapshots

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"TemporalGraph({kind}{label}, n={self.num_nodes}, "
            f"t={self.num_snapshots})"
        )

    def _check_index(self, index: int) -> int:
        index = int(index)
        if index < 0:
            index += self.num_snapshots
        if not 0 <= index < self.num_snapshots:
            raise SnapshotIndexError(index, self.num_snapshots)
        return index

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------

    def edges_at(self, index: int) -> frozenset:
        """Canonical edge set of snapshot ``index`` (cached, O(Δ) amortised)."""
        index = self._check_index(index)
        cached = self._edge_cache.get(index)
        if cached is not None:
            self._edge_cache.move_to_end(index)
            return cached
        # Walk forward from the nearest earlier cached state (or snapshot 0).
        base = max((i for i in self._edge_cache if i < index), default=0)
        edges = set(self._edge_cache[base] if base else self._initial_edges)
        for delta in self._deltas[base:index]:
            edges = delta.apply(edges)
        result = frozenset(edges)
        self._edge_cache[index] = result
        if len(self._edge_cache) > self._CACHE_SIZE:
            self._edge_cache.popitem(last=False)
        return result

    @cached_property
    def _first(self) -> DiGraph:
        """Snapshot 0: the one snapshot built from an edge list, kept."""
        return DiGraph.from_edges(
            self.num_nodes,
            self._initial_edges,
            directed=self.directed,
            node_labels=self.node_labels,
        )

    def snapshot(self, index: int) -> DiGraph:
        """Materialise snapshot ``index`` as a frozen :class:`DiGraph`.

        Splices the stored deltas with :meth:`DiGraph.with_delta` onto the
        nearest cached snapshot before ``index``, else onto snapshot 0.
        """
        index = self._check_index(index)
        cached = self._snapshot_cache.get(index)
        if cached is not None:
            self._snapshot_cache.move_to_end(index)
            return cached
        base = max((i for i in self._snapshot_cache if i < index), default=0)
        graph = self._snapshot_cache[base] if base else self._first
        for delta in self._deltas[base:index]:
            graph = graph.with_delta(delta.added, delta.removed)
        self._snapshot_cache[index] = graph
        if len(self._snapshot_cache) > self._CACHE_SIZE:
            self._snapshot_cache.popitem(last=False)
        return graph

    def __getitem__(self, index: int) -> DiGraph:
        return self.snapshot(index)

    def snapshots(self) -> Iterator[DiGraph]:
        """Iterate every snapshot in order (materialising lazily)."""
        for index in range(self.num_snapshots):
            yield self.snapshot(index)

    def delta(self, index: int) -> EdgeDelta:
        """``Δ = G_{index} - G_{index-1}`` for ``index ≥ 1``."""
        index = self._check_index(index)
        if index == 0:
            raise TemporalError("snapshot 0 has no predecessor delta")
        return self._deltas[index - 1]

    def window(self, start: int, stop: int) -> "TemporalGraph":
        """Sub-horizon ``[start, stop)`` as a new temporal graph."""
        start = self._check_index(start)
        if stop <= start or stop > self.num_snapshots:
            raise TemporalError(
                f"invalid window [{start}, {stop}) for horizon {self.num_snapshots}"
            )
        return TemporalGraph(
            self.num_nodes,
            self.edges_at(start),
            self._deltas[start : stop - 1],
            directed=self.directed,
            node_labels=self.node_labels,
            name=self.name,
        )

    def edge_counts(self) -> List[int]:
        """Logical edge count per snapshot (for dataset summaries)."""
        counts = []
        edges = len(self._initial_edges)
        counts.append(edges)
        for delta in self._deltas:
            edges += len(delta.added) - len(delta.removed)
            counts.append(edges)
        return counts


class TemporalGraphBuilder:
    """Assemble a :class:`TemporalGraph` one snapshot at a time.

    ``push_snapshot`` accepts the *full* edge set of the next snapshot and
    computes the delta internally; ``push_delta`` accepts explicit add /
    remove sets (for streams that arrive as deltas).
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        directed: bool = True,
        node_labels: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ):
        self.num_nodes = int(num_nodes)
        self.directed = bool(directed)
        self.node_labels = node_labels
        self.name = name
        self._initial: Optional[frozenset] = None
        self._current: Set[Edge] = set()
        self._deltas: List[EdgeDelta] = []

    def _canonical_set(self, edges: Iterable[Edge]) -> Set[Edge]:
        out: Set[Edge] = set()
        for source, target in edges:
            source, target = int(source), int(target)
            if source == target:
                continue
            if source >= self.num_nodes or target >= self.num_nodes or source < 0 or target < 0:
                raise TemporalError(
                    f"edge ({source}, {target}) outside node range [0, {self.num_nodes})"
                )
            if not self.directed and source > target:
                source, target = target, source
            out.add((source, target))
        return out

    def push_snapshot(self, edges: Iterable[Edge]) -> None:
        """Append a snapshot given its complete edge set."""
        canonical = self._canonical_set(edges)
        if self._initial is None:
            self._initial = frozenset(canonical)
        else:
            self._deltas.append(EdgeDelta.between(self._current, canonical))
        self._current = canonical

    def push_delta(
        self, added: Iterable[Edge] = (), removed: Iterable[Edge] = ()
    ) -> None:
        """Append a snapshot expressed as a delta over the previous one."""
        if self._initial is None:
            raise TemporalError("push an initial snapshot before any delta")
        add_set = self._canonical_set(added)
        remove_set = self._canonical_set(removed)
        delta = EdgeDelta(
            added=frozenset(add_set - self._current),
            removed=frozenset(remove_set & self._current),
        )
        self._current = delta.apply(self._current)
        self._deltas.append(delta)

    @property
    def num_snapshots(self) -> int:
        return 0 if self._initial is None else len(self._deltas) + 1

    def build(self) -> TemporalGraph:
        if self._initial is None:
            raise TemporalError("temporal graph needs at least one snapshot")
        return TemporalGraph(
            self.num_nodes,
            self._initial,
            self._deltas,
            directed=self.directed,
            node_labels=self.node_labels,
            name=self.name,
        )
