"""Immutable directed graph stored in compressed-sparse-row (CSR) form.

SimRank computation is dominated by two access patterns:

* enumerating the **in-neighbours** ``I(u)`` of a node (every reverse
  √c-walk step, the revReach propagation, and the Power Method all consume
  them), and
* enumerating the **out-neighbours** (ProbeSim's probe phase and the
  affected-area computation of delta pruning walk *forwards*).

:class:`DiGraph` therefore stores both directions as CSR index arrays.  The
structure is frozen after construction: algorithms can cache derived data
(transition matrices, degree arrays) keyed by the graph object without
invalidation logic, and temporal snapshots can share node identity.

Undirected graphs are represented by storing each edge as two opposite arcs,
exactly as the paper treats its undirected datasets: ``I(u)`` is then the
ordinary neighbour set.  :attr:`DiGraph.num_edges` reports logical edges
(undirected edges counted once) to match the paper's Table III convention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    ParameterError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    import networkx
    import scipy.sparse

__all__ = ["DiGraph", "build_alias_tables"]

#: Smallest accepted arc weight: the smallest normal float.
_MIN_WEIGHT = float(np.finfo(np.float64).tiny)


def build_alias_tables(
    indptr: np.ndarray,
    weights: np.ndarray,
    totals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node Vose alias tables over CSR-blocked neighbour weights.

    For each node ``u`` whose block ``indptr[u]:indptr[u+1]`` carries
    weights ``w_0..w_{d-1}`` with positive total ``W``, the returned
    ``(prob, alias)`` arrays (aligned with the CSR ``indices`` layout)
    satisfy the alias-method invariant: throwing a uniform dart at cell
    ``j`` and keeping it with probability ``prob[j]`` (else redirecting to
    local neighbour ``alias[j]``) selects neighbour ``i`` with probability
    exactly ``w_i / W`` — O(1) per sample instead of an O(log d) CDF
    search.  Construction is O(d) per node and fully deterministic (the
    small/large worklists are filled in ascending local index), so tables
    built from equal inputs are bit-identical.

    Nodes whose weight total is zero or negative are skipped: their cells
    keep the ``prob = 1, alias = 0`` filler, and the walk engines treat
    such nodes as dangling so the filler is never sampled.
    """
    m = int(weights.size)
    prob = np.ones(m, dtype=np.float64)
    alias = np.zeros(m, dtype=np.int64)
    num_nodes = int(indptr.size) - 1
    for u in range(num_nodes):
        lo = int(indptr[u])
        hi = int(indptr[u + 1])
        degree = hi - lo
        if degree <= 1:
            continue  # 0 neighbours: dangling; 1 neighbour: filler is exact
        total = float(totals[u])
        if total <= 0.0:
            continue  # zero in-weight: dangling by weight (never sampled)
        scaled = weights[lo:hi] * (degree / total)
        small = [j for j in range(degree) if scaled[j] < 1.0]
        large = [j for j in range(degree) if scaled[j] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[lo + s] = scaled[s]
            alias[lo + s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # Leftovers (numerically ~1.0) keep prob 1: the dart always lands.
    prob.setflags(write=False)
    alias.setflags(write=False)
    return prob, alias


def _csr_from_pairs(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    values: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Build (indptr, indices[, values]) grouping ``targets`` by ``sources``.

    ``sources``/``targets`` must be parallel int arrays with values in
    ``[0, n)``.  Neighbour lists come out sorted, which makes membership
    checks binary-searchable and equality checks canonical; ``values``
    (e.g. edge weights) are permuted along.
    """
    order = np.lexsort((targets, sources))
    sorted_sources = sources[order]
    sorted_targets = targets[order]
    counts = np.bincount(sorted_sources, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    sorted_values = values[order] if values is not None else None
    return indptr, sorted_targets.astype(np.int32, copy=False), sorted_values


def _pair_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``edges`` as an int64 array of shape ``(k, 2)``."""
    pairs = [(int(s), int(t)) for s, t in edges]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _csr_keys(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Key ``row * n + col`` of every CSR entry; ascending, as CSR is sorted.

    Indices are int32, so ``n < 2**31`` and every key fits in an int64.
    """
    rows = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    return rows + indices


def _arc_weights(graph: "DiGraph") -> np.ndarray:
    """Weights aligned with the out-CSR; 1.0 per arc on an unweighted graph."""
    if graph._out_weights is None:
        return np.ones(graph._out_indices.size, dtype=np.float64)
    return graph._out_weights


def _transpose_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """Sorted keys of the reversed arcs (``s * n + t`` becomes ``t * n + s``)."""
    rows, cols = np.divmod(keys, n)
    return np.sort(cols * n + rows)


def _contains(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership mask of ``queries`` in the ascending ``sorted_keys``."""
    at = np.searchsorted(sorted_keys, queries)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == queries[found]
    return found


def _splice(
    n: int,
    keys: np.ndarray,
    weights: Optional[np.ndarray],
    remove: np.ndarray,
    insert: np.ndarray,
    reset: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(indptr, indices, weights) of a CSR after an arc-key splice.

    ``keys`` are the CSR's ascending entry keys; ``remove`` (present keys)
    are deleted, then the ascending new keys ``insert`` go in with weight
    1.0, and surviving keys in ``reset`` get weight 1.0.  The arrays match
    what :func:`_csr_from_pairs` builds from the resulting arc list.
    """
    drop = np.searchsorted(keys, remove)
    keys = np.delete(keys, drop)
    at = np.searchsorted(keys, insert)
    keys = np.insert(keys, at, insert)
    if weights is not None:
        weights = np.insert(np.delete(weights, drop), at, 1.0)
        weights[np.searchsorted(keys, reset)] = 1.0
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, (keys - rows * n).astype(np.int32), weights


class DiGraph:
    """A frozen directed graph over nodes ``0..n-1`` with CSR adjacency.

    Instances are normally produced by :class:`repro.graph.GraphBuilder`,
    :meth:`DiGraph.from_edges`, :meth:`DiGraph.with_delta` (the next
    snapshot of an existing graph), or a dataset loader; the constructor
    below is the low-level entry point taking pre-validated edge arrays.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are the integers ``0..num_nodes-1``.
    sources, targets:
        Parallel arrays of arc endpoints (``sources[i] -> targets[i]``).  For
        an undirected graph these must already contain both directions of
        every edge (use :meth:`from_edges` with ``directed=False`` to get
        that for free).
    directed:
        Whether the graph is logically directed.  Affects only
        :attr:`num_edges` accounting and I/O round-trips; adjacency is always
        stored as arcs.
    node_labels:
        Optional external labels (e.g. original SNAP ids), one per node.
    weights:
        Optional positive arc weights, parallel to ``sources``/``targets``.
        A weighted graph's reverse walks pick in-neighbours with probability
        proportional to the incoming arc's weight (weighted SimRank); an
        unweighted graph stores no weight arrays at all.
    """

    __slots__ = (
        "num_nodes",
        "directed",
        "node_labels",
        "_out_indptr",
        "_out_indices",
        "_out_weights",
        "_in_indptr",
        "_in_indices",
        "_in_weights",
        "_num_arcs",
        "_edge_set",
        "_in_degrees64",
        "_alias_tables",
        # Lazily attached by repro.parallel.runner: per-(c, sampler, jit)
        # KernelPools so the executor's thread tier reuses warm per-thread
        # kernel buffers across queries on the same graph.
        "_kernel_pools",
    )

    def __init__(
        self,
        num_nodes: int,
        sources: np.ndarray,
        targets: np.ndarray,
        *,
        directed: bool = True,
        node_labels: Optional[Sequence[object]] = None,
        weights: Optional[np.ndarray] = None,
    ):
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise GraphError("sources and targets must be parallel 1-D arrays")
        if sources.size:
            low = min(sources.min(), targets.min())
            high = max(sources.max(), targets.max())
            if low < 0 or high >= num_nodes:
                raise GraphError(
                    f"edge endpoint out of range [0, {num_nodes}): "
                    f"saw values in [{low}, {high}]"
                )
        if node_labels is not None and len(node_labels) != num_nodes:
            raise GraphError(
                f"node_labels has {len(node_labels)} entries for {num_nodes} nodes"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != sources.shape:
                raise GraphError(
                    "weights must be parallel to sources/targets "
                    f"(got {weights.shape} for {sources.shape})"
                )
            # A subnormal weight overflows sqrt(c) * mass / W when it is a
            # node's whole in-weight, and an infinite W empties the level,
            # so both are refused here rather than corrupting the tree.
            if weights.size and (
                not np.isfinite(weights).all() or weights.min() < _MIN_WEIGHT
            ):
                raise GraphError(
                    "arc weights must be finite and at least the smallest "
                    f"normal float {_MIN_WEIGHT}"
                )
            in_totals = np.bincount(targets, weights=weights, minlength=num_nodes)
            if not np.isfinite(in_totals).all():
                raise GraphError("a node's total in-arc weight overflows to inf")

        self._assign(
            num_nodes,
            directed,
            tuple(node_labels) if node_labels is not None else None,
            _csr_from_pairs(num_nodes, sources, targets, weights),
            _csr_from_pairs(num_nodes, targets, sources, weights),
        )

    def _assign(
        self,
        num_nodes: int,
        directed: bool,
        node_labels: Optional[tuple],
        out_csr: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
        in_csr: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    ) -> None:
        """Set every slot from finished ``(indptr, indices, weights)`` CSRs.

        The one place a graph's state is written: :meth:`__init__` reaches
        it after sorting edge arrays, :meth:`with_delta` after splicing an
        existing graph's arrays.
        """
        self.num_nodes = int(num_nodes)
        self.directed = bool(directed)
        self.node_labels = node_labels
        self._out_indptr, self._out_indices, self._out_weights = out_csr
        self._in_indptr, self._in_indices, self._in_weights = in_csr
        self._num_arcs = int(self._out_indices.size)
        self._edge_set: Optional[frozenset] = None
        self._in_degrees64: Optional[np.ndarray] = None
        self._alias_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._kernel_pools: Optional[dict] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        *,
        directed: bool = True,
        node_labels: Optional[Sequence[object]] = None,
        dedup: bool = True,
        weights: Optional[Iterable[float]] = None,
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(source, target)`` pairs.

        Self-loops are dropped (SimRank's ``sim(u, u) = 1`` base case makes
        them meaningless) and, when ``dedup`` is true, parallel edges are
        collapsed (last weight wins).  With ``directed=False`` each pair is
        mirrored, carrying its weight to both arcs.
        """
        edge_list = [(int(s), int(t)) for s, t in edges]
        if weights is not None:
            weight_list = [float(w) for w in weights]
            if len(weight_list) != len(edge_list):
                raise GraphError(
                    f"{len(weight_list)} weights supplied for {len(edge_list)} edges"
                )
        else:
            weight_list = None

        weighted_pairs: dict = {}
        ordered: list = []
        for index, (s, t) in enumerate(edge_list):
            if s == t:
                continue
            weight = weight_list[index] if weight_list is not None else 1.0
            arcs = [(s, t)] if directed else [(s, t), (t, s)]
            for arc in arcs:
                if dedup:
                    if arc not in weighted_pairs:
                        ordered.append(arc)
                    weighted_pairs[arc] = weight
                else:
                    ordered.append(arc)
                    weighted_pairs[arc] = weight
        pairs = ordered
        if pairs:
            arr = np.array(pairs, dtype=np.int64)
            sources, targets = arr[:, 0], arr[:, 1]
            weight_array = (
                np.array([weighted_pairs[arc] for arc in pairs])
                if weight_list is not None
                else None
            )
        else:
            sources = targets = np.empty(0, dtype=np.int64)
            weight_array = (
                np.empty(0, dtype=np.float64) if weight_list is not None else None
            )
        return cls(
            num_nodes,
            sources,
            targets,
            directed=directed,
            node_labels=node_labels,
            weights=weight_array,
        )

    @classmethod
    def from_networkx(cls, nx_graph: "networkx.Graph") -> "DiGraph":
        """Convert a networkx (Di)Graph; node order follows ``nx_graph.nodes``."""
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        directed = nx_graph.is_directed()
        edges = ((index[s], index[t]) for s, t in nx_graph.edges())
        return cls.from_edges(
            len(nodes), edges, directed=directed, node_labels=nodes
        )

    def with_delta(
        self,
        added: Iterable[Tuple[int, int]] = (),
        removed: Iterable[Tuple[int, int]] = (),
    ) -> "DiGraph":
        """The next snapshot: this graph with ``removed``, then ``added``.

        Both CSR directions (and the weights) are spliced by arc key
        ``row * n + col``: a binary search over the already-sorted arrays,
        one delete and one insert — O(m + Δ log m) array work and no sort
        over ``m``.  The result is bit-identical to rebuilding the graph
        through :class:`~repro.graph.GraphBuilder` with every removal
        applied before any addition:

        * an endpoint outside ``[0, n)`` raises :class:`ParameterError`;
        * removing an absent arc (a self-loop, or one already removed
          earlier in ``removed``) raises :class:`EdgeNotFoundError`;
        * added self-loops and repeated additions are dropped; re-adding a
          present arc is a no-op on unweighted graphs and sets its weight
          to 1.0 on weighted ones;
        * an undirected graph changes both arcs of each edge;
        * ``node_labels`` carry over unchanged.

        >>> graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        >>> sorted(graph.with_delta(added=[(2, 0)], removed=[(0, 1)]).edges())
        [(1, 2), (2, 0)]
        """
        n = self.num_nodes
        removed = _pair_array(removed)
        added = _pair_array(added)
        both = np.concatenate([removed, added])
        outside = ((both < 0) | (both >= n)).any(axis=1)
        if outside.any():
            s, t = both[int(np.argmax(outside))]
            raise ParameterError(
                f"delta edge ({s}, {t}) has an endpoint outside [0, {n})"
            )
        old_keys = _csr_keys(n, self._out_indptr, self._out_indices)

        # Removals, in order: each must name a present, not yet removed edge.
        edge_keys = self._edge_keys(removed)
        first = np.zeros(edge_keys.size, dtype=bool)
        first[np.unique(edge_keys, return_index=True)[1]] = True
        present = first & _contains(old_keys, edge_keys)
        if not present.all():
            s, t = removed[int(np.argmin(present))]
            raise EdgeNotFoundError(int(s), int(t))
        remove_keys = self._arc_keys_of(removed)

        # Additions without self-loops or repeats, split into new arcs and
        # re-adds of arcs that outlive the removals.
        add_keys = self._arc_keys_of(added[added[:, 0] != added[:, 1]])
        kept = _contains(old_keys, add_keys) & ~_contains(remove_keys, add_keys)
        changes = (remove_keys, add_keys[~kept], add_keys[kept])

        out_csr = _splice(n, old_keys, self._out_weights, *changes)
        in_csr = _splice(
            n,
            _csr_keys(n, self._in_indptr, self._in_indices),
            self._in_weights,
            *(_transpose_keys(n, keys) for keys in changes),
        )
        graph = object.__new__(type(self))
        graph._assign(n, self.directed, self.node_labels, out_csr, in_csr)
        return graph

    def _edge_keys(self, pairs: np.ndarray) -> np.ndarray:
        """One key per edge: undirected pairs are keyed smaller id first."""
        if not self.directed:
            pairs = np.sort(pairs, axis=1)
        return pairs[:, 0] * self.num_nodes + pairs[:, 1]

    def _arc_keys_of(self, pairs: np.ndarray) -> np.ndarray:
        """Sorted unique out-arc keys of ``pairs`` (both arcs if undirected)."""
        keys = pairs[:, 0] * self.num_nodes + pairs[:, 1]
        if not self.directed:
            keys = np.concatenate([keys, pairs[:, 1] * self.num_nodes + pairs[:, 0]])
        return np.unique(keys)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (directed edge slots)."""
        return self._num_arcs

    @property
    def num_edges(self) -> int:
        """Logical edge count — undirected edges counted once (Table III)."""
        if self.directed:
            return self._num_arcs
        return self._num_arcs // 2

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"DiGraph({kind}, n={self.num_nodes}, m={self.num_edges})"
        )

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(node)
        return node

    def nodes(self) -> range:
        """Iterate node ids ``0..n-1``."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate arcs as ``(source, target)`` pairs, grouped by source."""
        for source in range(self.num_nodes):
            start, stop = self._out_indptr[source], self._out_indptr[source + 1]
            for target in self._out_indices[start:stop]:
                yield source, int(target)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def in_neighbors(self, node: int) -> np.ndarray:
        """``I(node)`` — the sorted array of in-neighbours (read-only view)."""
        node = self._check_node(node)
        view = self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]
        return view

    def out_neighbors(self, node: int) -> np.ndarray:
        """Sorted array of out-neighbours (read-only view)."""
        node = self._check_node(node)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_degree(self, node: int) -> int:
        """``|I(node)|``."""
        node = self._check_node(node)
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def out_degree(self, node: int) -> int:
        node = self._check_node(node)
        return int(self._out_indptr[node + 1] - self._out_indptr[node])

    def in_degrees(self) -> np.ndarray:
        """Array of all in-degrees, ``shape (n,)``."""
        return np.diff(self._in_indptr)

    def out_degrees(self) -> np.ndarray:
        """Array of all out-degrees, ``shape (n,)``."""
        return np.diff(self._out_indptr)

    def in_degrees64(self) -> np.ndarray:
        """Cached read-only int64 in-degree array.

        Walk steppers and the fused kernel index this array per step; the
        graph is frozen, so one shared copy serves every construction (the
        CrashSim-T snapshot loop builds a stepper per snapshot query).
        """
        if self._in_degrees64 is None:
            degrees = np.diff(self._in_indptr).astype(np.int64, copy=False)
            degrees.setflags(write=False)
            self._in_degrees64 = degrees
        return self._in_degrees64

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the arc ``source -> target`` exists (binary search)."""
        source = self._check_node(source)
        target = self._check_node(target)
        row = self._out_indices[
            self._out_indptr[source] : self._out_indptr[source + 1]
        ]
        pos = np.searchsorted(row, target)
        return bool(pos < row.size and row[pos] == target)

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer for in-adjacency (for vectorised walk engines)."""
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """CSR column indices for in-adjacency."""
        return self._in_indices

    @property
    def out_indptr(self) -> np.ndarray:
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        return self._out_indices

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    @property
    def is_weighted(self) -> bool:
        """Whether arcs carry explicit weights (reverse walks then pick
        in-neighbours proportionally to weight — weighted SimRank)."""
        return self._in_weights is not None

    @property
    def in_weights(self) -> np.ndarray:
        """Arc weights aligned with :attr:`in_indices` (weighted graphs)."""
        if self._in_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        return self._in_weights

    @property
    def out_weights(self) -> np.ndarray:
        """Arc weights aligned with :attr:`out_indices` (weighted graphs)."""
        if self._out_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        return self._out_weights

    def in_weight_totals(self) -> np.ndarray:
        """Per-node total incoming weight ``W(u) = Σ_{x∈I(u)} w(x, u)``.

        For unweighted graphs this equals :meth:`in_degrees` (every arc
        counts 1), so callers can use it uniformly.
        """
        if self._in_weights is None:
            return self.in_degrees().astype(np.float64)
        totals = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(
            totals,
            np.repeat(np.arange(self.num_nodes), np.diff(self._in_indptr)),
            self._in_weights,
        )
        return totals

    def in_alias_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(prob, alias)`` Vose tables for weighted in-sampling.

        Aligned with :attr:`in_indices`; built once on first request (O(m))
        and reused by every stepper/kernel.  Only meaningful for weighted
        graphs.
        """
        if self._in_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        if self._alias_tables is None:
            self._alias_tables = build_alias_tables(
                self._in_indptr, self._in_weights, self.in_weight_totals()
            )
        return self._alias_tables

    def edge_weight(self, source: int, target: int) -> float:
        """Weight of the arc ``source -> target`` (1.0 when unweighted)."""
        source = self._check_node(source)
        target = self._check_node(target)
        start, stop = self._out_indptr[source], self._out_indptr[source + 1]
        row = self._out_indices[start:stop]
        pos = np.searchsorted(row, target)
        if pos >= row.size or row[pos] != target:
            raise EdgeNotFoundError(source, target)
        if self._out_weights is None:
            return 1.0
        return float(self._out_weights[start + pos])

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def edge_set(self) -> frozenset:
        """Frozen set of arcs as ``(source, target)`` tuples; cached.

        O(m) Python tuples: snapshot diffing uses :meth:`arcs_not_in` instead.
        """
        if self._edge_set is None:
            self._edge_set = frozenset(
                zip(self.arc_sources().tolist(), self._out_indices.tolist())
            )
        return self._edge_set

    def arcs_not_in(self, other: "DiGraph") -> frozenset:
        """Arcs of this graph that ``other`` (same node set) lacks.

        A sorted-key difference, O(m) array work plus O(|result|) tuples:
        two snapshots diff as ``new.arcs_not_in(old)`` (added arcs) and
        ``old.arcs_not_in(new)`` (removed arcs).
        """
        n = self.num_nodes
        if other.num_nodes != n:
            raise GraphError("arcs_not_in compares graphs over one node set")
        keys = np.setdiff1d(
            _csr_keys(n, self._out_indptr, self._out_indices),
            _csr_keys(n, other._out_indptr, other._out_indices),
            assume_unique=True,
        )
        sources, targets = np.divmod(keys, n)
        return frozenset(zip(sources.tolist(), targets.tolist()))

    def reweighted_arcs(self, other: "DiGraph") -> frozenset:
        """Arcs present in both graphs whose weight differs.

        An unweighted graph weighs every arc 1.0.  Together with
        :meth:`arcs_not_in` in both directions this is the whole
        difference between two weighted snapshots.

        >>> old = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 2.0])
        >>> new = DiGraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 5.0])
        >>> sorted(new.reweighted_arcs(old))
        [(1, 2)]
        """
        n = self.num_nodes
        if other.num_nodes != n:
            raise GraphError("reweighted_arcs compares graphs over one node set")
        if self._out_weights is None and other._out_weights is None:
            return frozenset()
        keys, mine, theirs = np.intersect1d(
            _csr_keys(n, self._out_indptr, self._out_indices),
            _csr_keys(n, other._out_indptr, other._out_indices),
            assume_unique=True,
            return_indices=True,
        )
        changed = keys[_arc_weights(self)[mine] != _arc_weights(other)[theirs]]
        sources, targets = np.divmod(changed, n)
        return frozenset(zip(sources.tolist(), targets.tolist()))

    def arc_sources(self) -> np.ndarray:
        """Source node of every stored arc, aligned with ``out_indices``."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int32), np.diff(self._out_indptr)
        )

    def reverse_transition_matrix(self) -> "scipy.sparse.csr_matrix":
        """Row-stochastic matrix ``P`` of the reverse walk.

        Unweighted: ``P[x, y] = 1/|I(x)|`` for ``y ∈ I(x)``; weighted:
        ``P[x, y] = w(y, x) / W(x)``.  Rows of nodes with no in-neighbours
        are zero (the walk dies there).  A √c-walk's one-step occupancy
        update is ``next = sqrt(c) * (cur @ P)``.
        """
        import scipy.sparse

        totals = self.in_weight_totals()
        with np.errstate(divide="ignore"):
            inv = np.where(totals > 0, 1.0 / totals, 0.0)
        if self._in_weights is None:
            data = np.repeat(inv, self.in_degrees())
        else:
            data = self._in_weights * np.repeat(inv, self.in_degrees())
        return scipy.sparse.csr_matrix(
            (data, self._in_indices, self._in_indptr),
            shape=(self.num_nodes, self.num_nodes),
        )

    def to_networkx(self) -> "networkx.Graph":
        """Export to networkx, preserving directedness and node labels."""
        import networkx

        nx_graph = networkx.DiGraph() if self.directed else networkx.Graph()
        labels = self.node_labels or range(self.num_nodes)
        nx_graph.add_nodes_from(labels)
        label = list(labels)
        for source, target in self.edges():
            if not self.directed and source > target:
                continue
            nx_graph.add_edge(label[source], label[target])
        return nx_graph

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------

    def same_structure(self, other: "DiGraph") -> bool:
        """Whether two graphs have identical node count and arc sets."""
        return (
            self.num_nodes == other.num_nodes
            and self._num_arcs == other._num_arcs
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )
