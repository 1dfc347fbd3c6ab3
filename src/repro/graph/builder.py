"""Mutable construction of :class:`~repro.graph.DiGraph` instances.

:class:`GraphBuilder` accepts arbitrary hashable node labels, interns them to
dense integer ids, supports edge insertion and removal, and produces a frozen
:class:`DiGraph` via :meth:`GraphBuilder.build`.  A builder can be primed
``from_graph`` and perturbed, but snapshot synthesis no longer goes through
it: the next snapshot of a temporal stream is spliced from the current
one's CSR arrays by :meth:`DiGraph.with_delta`, which matches this round
trip bit for bit without its O(m) Python loop.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.digraph import DiGraph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Incrementally assemble a graph, then :meth:`build` a frozen snapshot.

    Parameters
    ----------
    directed:
        Logical directedness of the result.  An undirected builder treats
        ``add_edge(u, v)`` and ``add_edge(v, u)`` as the same edge.
    weighted:
        When true, edges carry weights (``add_edge(..., weight=...)``,
        default 1.0) and the built graph samples reverse walks
        proportionally to them.

    Examples
    --------
    >>> builder = GraphBuilder(directed=True)
    >>> builder.add_edge("b", "a")
    >>> builder.add_edge("c", "a")
    >>> graph = builder.build()
    >>> graph.in_degree(builder.node_id("a"))
    2
    """

    def __init__(self, directed: bool = True, weighted: bool = False):
        self.directed = bool(directed)
        self.weighted = bool(weighted)
        self._labels: list[Hashable] = []
        self._ids: dict[Hashable, int] = {}
        self._edges: dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def add_node(self, label: Hashable) -> int:
        """Intern ``label`` (idempotent) and return its dense id."""
        node_id = self._ids.get(label)
        if node_id is None:
            node_id = len(self._labels)
            self._ids[label] = node_id
            self._labels.append(label)
        return node_id

    def node_id(self, label: Hashable) -> int:
        """Return the dense id of ``label``; raises if never added."""
        try:
            return self._ids[label]
        except KeyError:
            raise GraphError(f"node {label!r} was never added") from None

    def has_node(self, label: Hashable) -> bool:
        return label in self._ids

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def _canonical(self, source: int, target: int) -> Tuple[int, int]:
        if not self.directed and source > target:
            return target, source
        return source, target

    def add_edge(
        self, source: Hashable, target: Hashable, weight: float = 1.0
    ) -> None:
        """Add the edge; endpoints are interned on first sight.

        Self-loops are ignored (consistent with :meth:`DiGraph.from_edges`)
        and re-adding an existing edge updates its weight (a no-op for
        unweighted builders).
        """
        if self.weighted:
            weight = float(weight)
            if not weight > 0:
                raise GraphError(f"edge weight must be positive, got {weight}")
        source_id = self.add_node(source)
        target_id = self.add_node(target)
        if source_id == target_id:
            return
        self._edges[self._canonical(source_id, target_id)] = weight

    def add_edges(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        for source, target in edges:
            self.add_edge(source, target)

    def add_weighted_edges(
        self, edges: Iterable[Tuple[Hashable, Hashable, float]]
    ) -> None:
        """Add ``(source, target, weight)`` triples (weighted builders)."""
        for source, target, weight in edges:
            self.add_edge(source, target, weight)

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        """Remove the edge; raises :class:`EdgeNotFoundError` if absent."""
        if source not in self._ids or target not in self._ids:
            raise EdgeNotFoundError(source, target)
        key = self._canonical(self._ids[source], self._ids[target])
        try:
            del self._edges[key]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        if source not in self._ids or target not in self._ids:
            return False
        return self._canonical(self._ids[source], self._ids[target]) in self._edges

    def edge_ids(self) -> set[Tuple[int, int]]:
        """The current edge set in canonical dense-id form (a copy)."""
        return set(self._edges)

    # ------------------------------------------------------------------
    # Round-trips
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: DiGraph) -> "GraphBuilder":
        """Prime a builder with an existing graph's nodes, edges, weights."""
        builder = cls(directed=graph.directed, weighted=graph.is_weighted)
        labels = graph.node_labels or list(range(graph.num_nodes))
        for label in labels:
            builder.add_node(label)
        label_of = list(labels)
        for source, target in graph.edges():
            if not graph.directed and source > target:
                continue
            weight = graph.edge_weight(source, target) if graph.is_weighted else 1.0
            builder.add_edge(label_of[source], label_of[target], weight)
        return builder

    def build(self) -> DiGraph:
        """Freeze the current state into a :class:`DiGraph`."""
        if self._edges:
            ordered = sorted(self._edges)
            arr = np.array(ordered, dtype=np.int64)
            sources, targets = arr[:, 0], arr[:, 1]
            weight_array = (
                np.array([self._edges[edge] for edge in ordered])
                if self.weighted
                else None
            )
            if not self.directed:
                sources = np.concatenate([arr[:, 0], arr[:, 1]])
                targets = np.concatenate([arr[:, 1], arr[:, 0]])
                if weight_array is not None:
                    weight_array = np.concatenate([weight_array, weight_array])
        else:
            sources = targets = np.empty(0, dtype=np.int64)
            weight_array = np.empty(0, dtype=np.float64) if self.weighted else None
        labels = self._labels if self._labels else None
        return DiGraph(
            self.num_nodes,
            sources,
            targets,
            directed=self.directed,
            node_labels=labels,
            weights=weight_array,
        )
