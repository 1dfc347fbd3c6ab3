"""revReach (paper Algorithm 2): the reverse reachable tree of a source.

The tree ``U`` describes the source's √c-walk ``W(u)``: ``U[step, x]`` is
the occupancy mass of node ``x`` at distance ``step``.  Two transition
variants are supported (DESIGN.md §2.1):

* ``"corrected"`` (default) — ``U[step+1, v] += √c / |I(tu)| · U[step, tu]``
  for ``v ∈ I(tu)``: the exact occupancy distribution of ``W(u)``, which
  makes CrashSim's crash estimator unbiased for the meeting probability.
* ``"paper"`` — ``U[step+1, v] += √c / |I(v)| · U[step, tu]``: the literal
  Algorithm 2 / Example 2 arithmetic.

Representations
---------------

√c-walk occupancy is geometrically sparse — level ``step`` carries total
mass ``(√c)^step`` spread over at most ``min(m, Δ^step)`` nodes — so the
default representation is :class:`SparseReverseTree`: per-level sorted
``(nodes, probs)`` arrays packed CSR-style, built in ``O(touched)`` by
frontier propagation.  Construction allocates a length-``n`` row only for
a level that flattens to at least ``n / 8`` children, where one ``O(n)``
scan is cheaper than sorting them (:func:`_propagate_sparse`); equality
tests (:meth:`SparseReverseTree.same_as`) fast-reject
through per-level content fingerprints; and the crash-accumulation gather
(:meth:`SparseReverseTree.gather`) binary-searches each level's support,
falling back to a lazily materialised dense row only for levels whose
support exceeds :data:`DENSITY_THRESHOLD` of ``n``.

The legacy dense matrix form lives on as :class:`ReverseReachableTree`
(``revreach_levels(..., dense=True)``, and :func:`revreach_queue` output);
both classes expose ``.matrix`` / ``probability()`` / ``same_as`` so every
consumer works with either.  Sparse and dense construction are bit-for-bit
identical (property-tested): both the sort and the scatter aggregation
add each node's mass in the same order.

Traversals
----------

* :func:`revreach_levels` — level-synchronous frontier propagation,
  ``O(l_max · m)`` worst case but ``O(touched)`` in practice (default);
* :func:`revreach_update` — incremental rebase onto a changed graph,
  re-propagating only below the shallowest occupied head of a changed arc;
* :func:`revreach_queue` — the literal queue/BFS of Algorithm 2, including
  its parent-exclusion rule, kept for fidelity tests (the parent exclusion
  drops some cyclic mass, so its ``U`` can differ on graphs with 2-cycles —
  tests pin exactly where).
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Literal, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph

__all__ = [
    "DENSITY_THRESHOLD",
    "ReverseReachableTree",
    "SparseReverseTree",
    "revreach_levels",
    "revreach_queue",
    "revreach_update",
]

TreeVariant = Literal["corrected", "paper"]

#: Fraction of ``n`` above which a level's support is considered dense:
#: :meth:`SparseReverseTree.gather` materialises (and caches) a full
#: length-``n`` row for such levels instead of binary-searching, because a
#: direct index costs ``O(walks)`` while searchsorted costs
#: ``O(walks · log support)`` without saving meaningful memory.
DENSITY_THRESHOLD = 0.25

#: A level whose flattened child count is at least ``n / _SCATTER_DIVISOR``
#: sums its duplicate children by scattering into a length-``n`` row
#: (``O(total + n)``) instead of sorting them (``O(total log total)``);
#: see :func:`_propagate_sparse`.  A pure function of sizes, so the branch
#: a level takes never depends on its values — and never shows in them.
_SCATTER_DIVISOR = 8

_FINGERPRINT_BYTES = 16

# Every full tree construction in the process funnels through
# revreach_levels, so one counter here covers api, serve, parallel, and
# temporal call sites alike; incremental rebases count separately.
_M_TREE_BUILDS = obs.REGISTRY.counter(
    "repro_tree_builds_total",
    "Full reverse reachable tree constructions (revreach_levels).",
)
_M_TREE_UPDATES = obs.REGISTRY.counter(
    "repro_tree_updates_total",
    "Incremental tree rebases that re-propagated at least one level.",
)
_M_TREE_UPDATE_SKIPS = obs.REGISTRY.counter(
    "repro_tree_update_skips_total",
    "Incremental rebases returned unchanged (no occupied changed head).",
)


def _level_fingerprint(nodes: np.ndarray, probs: np.ndarray) -> bytes:
    """Content hash of one level — the ``same_as`` fast-reject token."""
    digest = hashlib.blake2b(digest_size=_FINGERPRINT_BYTES)
    digest.update(nodes.tobytes())
    digest.update(probs.tobytes())
    return digest.digest()


class SparseReverseTree:
    """Sparse per-level reverse reachable tree (the default representation).

    Levels are packed CSR-style: ``nodes[level_indptr[s]:level_indptr[s+1]]``
    holds the sorted node ids occupied at step ``s`` and ``probs`` the
    aligned occupancy masses (strictly positive — zero entries are never
    stored).  All arrays are read-only so trees can be shared safely.

    Attributes
    ----------
    source, c, l_max, variant:
        Provenance, as for :class:`ReverseReachableTree`.
    num_nodes:
        ``n`` of the graph the tree was built on (needed to densify).
    level_indptr:
        ``int64 (l_max + 2,)`` — level boundaries into ``nodes``/``probs``.
    nodes:
        ``int64 (nnz,)`` — occupied node ids, sorted within each level.
    probs:
        ``float64 (nnz,)`` — occupancy masses aligned with ``nodes``.
    """

    def __init__(
        self,
        source: int,
        c: float,
        l_max: int,
        variant: str,
        num_nodes: int,
        level_indptr: np.ndarray,
        nodes: np.ndarray,
        probs: np.ndarray,
    ):
        self.source = int(source)
        self.c = float(c)
        self.l_max = int(l_max)
        self.variant = str(variant)
        self.num_nodes = int(num_nodes)
        self.level_indptr = np.ascontiguousarray(level_indptr, dtype=np.int64)
        self.nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        self.probs = np.ascontiguousarray(probs, dtype=np.float64)
        if self.level_indptr.shape != (self.l_max + 2,):
            raise ParameterError(
                f"level_indptr must have shape ({self.l_max + 2},), "
                f"got {self.level_indptr.shape}"
            )
        if self.nodes.shape != self.probs.shape:
            raise ParameterError("nodes and probs must be aligned")
        for array in (self.level_indptr, self.nodes, self.probs):
            array.setflags(write=False)
        self._fingerprints: Optional[Tuple[bytes, ...]] = None
        self._dense: Optional[np.ndarray] = None
        self._dense_rows: Dict[int, np.ndarray] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_levels(
        cls,
        source: int,
        c: float,
        l_max: int,
        variant: str,
        num_nodes: int,
        levels: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> "SparseReverseTree":
        """Pack per-level ``(nodes, probs)`` pairs; missing levels are empty."""
        level_indptr = np.zeros(l_max + 2, dtype=np.int64)
        for step, (nodes, _) in enumerate(levels):
            level_indptr[step + 1] = level_indptr[step] + nodes.size
        level_indptr[len(levels) + 1 :] = level_indptr[len(levels)]
        if levels:
            nodes = np.concatenate([nodes for nodes, _ in levels])
            probs = np.concatenate([probs for _, probs in levels])
        else:
            nodes = np.empty(0, dtype=np.int64)
            probs = np.empty(0, dtype=np.float64)
        return cls(source, c, l_max, variant, num_nodes, level_indptr, nodes, probs)

    @classmethod
    def from_dense(cls, tree: "ReverseReachableTree", num_nodes: Optional[int] = None) -> "SparseReverseTree":
        """Sparsify a dense tree (exact: keeps every non-zero entry)."""
        matrix = tree.matrix
        levels = []
        for step in range(tree.l_max + 1):
            row = matrix[step]
            nodes = np.nonzero(row)[0].astype(np.int64)
            levels.append((nodes, row[nodes].astype(np.float64)))
        return cls.from_levels(
            tree.source,
            tree.c,
            tree.l_max,
            tree.variant,
            num_nodes if num_nodes is not None else matrix.shape[1],
            levels,
        )

    # -- level access ---------------------------------------------------

    def level_arrays(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes, probs)`` of one level — zero-copy slices."""
        if not 0 <= step <= self.l_max:
            raise ParameterError(f"step {step} outside [0, {self.l_max}]")
        lo, hi = int(self.level_indptr[step]), int(self.level_indptr[step + 1])
        return self.nodes[lo:hi], self.probs[lo:hi]

    def level_size(self, step: int) -> int:
        """Support size of one level."""
        if not 0 <= step <= self.l_max:
            raise ParameterError(f"step {step} outside [0, {self.l_max}]")
        return int(self.level_indptr[step + 1] - self.level_indptr[step])

    @property
    def nnz(self) -> int:
        """Total stored entries across all levels."""
        return int(self.nodes.size)

    def probability(self, step: int, node: int) -> float:
        """``U[step, node]`` with bounds checking."""
        nodes, probs = self.level_arrays(step)
        index = int(np.searchsorted(nodes, node))
        if index < nodes.size and nodes[index] == node:
            return float(probs[index])
        return 0.0

    def level(self, step: int) -> Dict[int, float]:
        """Sparse view of one level as ``{node: probability}``."""
        nodes, probs = self.level_arrays(step)
        return {
            int(node): float(prob)
            for node, prob in zip(nodes.tolist(), probs.tolist())
        }

    def support(self) -> np.ndarray:
        """Nodes with non-zero probability at any level (sorted ids)."""
        return np.unique(self.nodes)

    def total_mass(self, step: int) -> float:
        """Σ_x U[step, x] — equals ``(√c)^step`` for the corrected variant
        on graphs with no dangling nodes."""
        _, probs = self.level_arrays(step)
        return float(probs.sum())

    # -- dense compatibility surface ------------------------------------

    def to_dense(self) -> "ReverseReachableTree":
        """The equivalent dense :class:`ReverseReachableTree`."""
        return ReverseReachableTree(
            source=self.source,
            c=self.c,
            l_max=self.l_max,
            variant=self.variant,
            matrix=self.matrix,
        )

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``(l_max + 1, n)`` view, materialised lazily and cached.

        Compatibility surface only — hot paths (crash accumulation, tree
        comparison, incremental update) never touch it.
        """
        if self._dense is None:
            dense = np.zeros((self.l_max + 1, self.num_nodes), dtype=np.float64)
            for step in range(self.l_max + 1):
                nodes, probs = self.level_arrays(step)
                dense[step, nodes] = probs
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    # -- hot-path operations --------------------------------------------

    def gather(self, step: int, positions: np.ndarray) -> np.ndarray:
        """``U[step, positions]`` — the crash-accumulation read.

        Binary-searches the level's sorted support (``O(log support)`` per
        walk); levels denser than :data:`DENSITY_THRESHOLD` · ``n`` are
        materialised once into a cached dense row and indexed directly.
        """
        nodes, probs = self.level_arrays(step)
        if nodes.size == 0:
            return np.zeros(np.shape(positions), dtype=np.float64)
        if nodes.size >= DENSITY_THRESHOLD * self.num_nodes:
            row = self._dense_rows.get(step)
            if row is None:
                row = np.zeros(self.num_nodes, dtype=np.float64)
                row[nodes] = probs
                self._dense_rows[step] = row
            return row[positions]
        index = np.searchsorted(nodes, positions)
        np.minimum(index, nodes.size - 1, out=index)
        return np.where(nodes[index] == positions, probs[index], 0.0)

    def first_level_containing(
        self, heads: np.ndarray, *, limit: Optional[int] = None
    ) -> Optional[int]:
        """Shallowest level ``< limit`` occupying any of ``heads`` (or None).

        Binary-searches the heads in each level's sorted nodes, shallowest
        first: O(levels · |heads| · log support), never a pass over the
        packed array.  The head-occupancy scan of :func:`revreach_update`
        and the ``tree_unaffected_by_delta`` gate.
        """
        limit = self.l_max if limit is None else min(int(limit), self.l_max + 1)
        heads = np.asarray(heads, dtype=np.int64)
        if heads.size == 0:
            return None
        bounds = self.level_indptr.tolist()
        for step in range(max(limit, 0)):
            nodes = self.nodes[bounds[step] : bounds[step + 1]]
            if nodes.size == 0:
                continue
            at = np.searchsorted(nodes, heads)
            np.minimum(at, nodes.size - 1, out=at)
            if (nodes[at] == heads).any():
                return step
        return None

    # -- equality -------------------------------------------------------

    def fingerprints(self) -> Tuple[bytes, ...]:
        """Per-level content hashes, computed once and cached."""
        if self._fingerprints is None:
            self._fingerprints = tuple(
                _level_fingerprint(*self.level_arrays(step))
                for step in range(self.l_max + 1)
            )
        return self._fingerprints

    def same_as(self, other, *, tol: float = 0.0) -> bool:
        """Whether two trees are (numerically) identical — the comparison
        both pruning gates of Algorithm 3 perform.

        Sparse-vs-sparse exact comparison fast-rejects through level sizes
        and fingerprints before touching the payload arrays; a full array
        comparison confirms fingerprint agreement, so the answer never
        depends on hash collisions.
        """
        if self is other:
            return True
        if (
            self.source != getattr(other, "source", None)
            or self.l_max != getattr(other, "l_max", None)
            or self.variant != getattr(other, "variant", None)
        ):
            return False
        if isinstance(other, SparseReverseTree) and tol == 0.0:
            if self.num_nodes != other.num_nodes:
                return False
            if not np.array_equal(self.level_indptr, other.level_indptr):
                return False
            if self.fingerprints() != other.fingerprints():
                return False
            return bool(
                np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.probs, other.probs)
            )
        # Cross-representation or tolerant comparison: fall back to the
        # dense surface (cold path — ablation/test tooling only).
        if self.matrix.shape != other.matrix.shape:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.matrix, other.matrix))
        return bool(np.allclose(self.matrix, other.matrix, atol=tol, rtol=0.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SparseReverseTree(source={self.source}, l_max={self.l_max}, "
            f"variant={self.variant!r}, nnz={self.nnz}, n={self.num_nodes})"
        )


@dataclass(frozen=True)
class ReverseReachableTree:
    """Dense ``U`` matrix of Algorithm 2 plus its provenance (legacy form).

    Attributes
    ----------
    source:
        The source node ``u``.
    c:
        Decay factor the tree was built with.
    l_max:
        Number of propagated levels; ``matrix`` has ``l_max + 1`` rows.
    variant:
        Transition variant (see module docstring).
    matrix:
        Dense float64 array, ``shape (l_max + 1, n)``; row ``step`` holds
        ``U[step, ·]``.  Marked read-only so trees can be shared safely.
    """

    source: int
    c: float
    l_max: int
    variant: str
    matrix: np.ndarray

    def probability(self, step: int, node: int) -> float:
        """``U[step, node]`` with bounds checking."""
        if not 0 <= step <= self.l_max:
            raise ParameterError(f"step {step} outside [0, {self.l_max}]")
        return float(self.matrix[step, node])

    def level(self, step: int) -> Dict[int, float]:
        """Sparse view of one level as ``{node: probability}``."""
        row = self.matrix[step]
        nonzero = np.nonzero(row)[0]
        return {int(node): float(row[node]) for node in nonzero}

    def support(self) -> np.ndarray:
        """Nodes with non-zero probability at any level (sorted ids)."""
        return np.nonzero(self.matrix.any(axis=0))[0]

    def total_mass(self, step: int) -> float:
        """Σ_x U[step, x] — equals ``(√c)^step`` for the corrected variant
        on graphs with no dangling nodes."""
        return float(self.matrix[step].sum())

    def gather(self, step: int, positions: np.ndarray) -> np.ndarray:
        """``U[step, positions]`` — dense fancy-indexing read."""
        return self.matrix[step, positions]

    def to_sparse(self) -> SparseReverseTree:
        """The equivalent :class:`SparseReverseTree`."""
        return SparseReverseTree.from_dense(self)

    def same_as(self, other, *, tol: float = 0.0) -> bool:
        """Whether two trees are (numerically) identical — the comparison
        both pruning gates of Algorithm 3 perform."""
        if (
            self.source != getattr(other, "source", None)
            or self.l_max != getattr(other, "l_max", None)
            or self.variant != getattr(other, "variant", None)
            or self.matrix.shape != other.matrix.shape
        ):
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.matrix, other.matrix))
        return bool(np.allclose(self.matrix, other.matrix, atol=tol, rtol=0.0))


def _validate(graph: DiGraph, source: int, l_max: int, c: float) -> None:
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    if l_max < 0:
        raise ParameterError(f"l_max must be non-negative, got {l_max}")
    if not 0 <= source < graph.num_nodes:
        raise ParameterError(
            f"source {source} outside the graph's node range [0, {graph.num_nodes})"
        )


def revreach_levels(
    graph: DiGraph,
    source: int,
    l_max: int,
    c: float,
    *,
    variant: TreeVariant = "corrected",
    prune_below: float = 0.0,
    dense: bool = False,
):
    """Level-synchronous revReach: exact ``U`` in ``O(touched)``.

    Returns a :class:`SparseReverseTree` by default; ``dense=True`` keeps
    the legacy :class:`ReverseReachableTree` (same values bit-for-bit —
    property-tested).  ``prune_below`` optionally drops per-level entries
    smaller than the given mass before propagating — a speed knob for huge
    graphs; 0 keeps the computation exact.
    """
    _validate(graph, source, l_max, c)
    if variant not in ("corrected", "paper"):
        raise ParameterError(f"unknown tree variant {variant!r}")
    if variant == "paper" and graph.is_weighted:
        raise ParameterError(
            "the literal Algorithm-2 variant is defined for unweighted "
            "graphs only; use variant='corrected'"
        )
    with obs.span("tree_build", source=int(source), l_max=int(l_max)):
        root_nodes = np.array([source], dtype=np.int64)
        root_probs = np.array([1.0], dtype=np.float64)
        levels = [(root_nodes, root_probs)]
        levels.extend(
            _propagate_sparse(
                graph, root_nodes, root_probs, l_max, math.sqrt(c), variant, prune_below
            )
        )
        tree = SparseReverseTree.from_levels(
            int(source), float(c), int(l_max), variant, graph.num_nodes, levels
        )
    _M_TREE_BUILDS.inc()
    return tree.to_dense() if dense else tree


class _InEdgeBlock(NamedTuple):
    """A frontier's in-edge CSR blocks, flattened in frontier order.

    Everything here depends on the frontier's nodes only, never on its
    probs, so a level whose frontier repeats the previous one reuses it.
    """

    frontier: np.ndarray  # the frontier nodes the block was built from
    keep: np.ndarray  # mask of frontier nodes with at least one in-edge
    counts: np.ndarray  # in-degree of each kept node
    owner: np.ndarray  # kept-node index of each flattened arc
    children: np.ndarray  # in-neighbour at the end of each flattened arc
    denominators: Optional[np.ndarray]  # weighted: W(node) per kept node
    arc_weights: Optional[np.ndarray]  # weighted: w(child, node) per arc
    child_degrees: Optional[np.ndarray]  # "paper": |I(child)| per arc


def _flatten_in_edges(
    graph: DiGraph,
    frontier_nodes: np.ndarray,
    in_degrees: Optional[np.ndarray],
    weight_totals: Optional[np.ndarray],
) -> _InEdgeBlock:
    indptr = graph.in_indptr
    counts = (indptr[frontier_nodes + 1] - indptr[frontier_nodes]).astype(np.int64)
    keep = counts > 0
    nodes = frontier_nodes[keep]
    counts = counts[keep]
    total = int(counts.sum())
    owner = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    cum = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    flat = np.take(indptr[nodes] - cum, owner) + np.arange(total, dtype=np.int64)
    children = graph.in_indices[flat].astype(np.int64)
    weighted = weight_totals is not None
    return _InEdgeBlock(
        frontier=frontier_nodes,
        keep=keep,
        counts=counts,
        owner=owner,
        children=children,
        denominators=weight_totals[nodes] if weighted else None,
        arc_weights=graph.in_weights[flat] if weighted else None,
        child_degrees=None if in_degrees is None else in_degrees[children],
    )


def _propagate_sparse(
    graph: DiGraph,
    frontier_nodes: np.ndarray,
    frontier_probs: np.ndarray,
    steps: int,
    sqrt_c: float,
    variant: str,
    prune_below: float = 0.0,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Propagate ``steps`` levels from a frontier; returns one
    ``(nodes, probs)`` pair per level (possibly empty).

    Each level flattens the frontier's in-edge CSR blocks into one
    ``children`` array with a weight per arc, then sums the weights of
    duplicate children in flattening order.  The sum is taken one of two
    ways, switched on sizes alone (:data:`_SCATTER_DIVISOR`):

    * big levels scatter into a length-``n`` row,
      ``bincount(children, weights, minlength=n)``, and keep its non-zero
      bins — ``O(total + n)``, no sort;
    * small levels sort instead: ``unique(children)`` plus a ``bincount``
      over the inverse index — ``O(total log total)``, nothing of size
      ``n``.

    Both add each node's weights one by one in the same order, starting
    from ``0.0``, so they give the same floats, the same sorted nodes and
    drop the same zero bins: the branch a level takes never shows in its
    result, and the dense :class:`ReverseReachableTree` built from it
    matches too.  A level whose frontier equals the previous one — every
    level once the support saturates at the source's reverse closure —
    reuses the previous flattened block (:class:`_InEdgeBlock`) and
    recomputes only the arc weights from the new probs.
    """
    n = graph.num_nodes
    in_degrees = graph.in_degrees().astype(np.float64) if variant == "paper" else None
    weight_totals = (
        graph.in_weight_totals()
        if graph.is_weighted and variant == "corrected"
        else None
    )

    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    block: Optional[_InEdgeBlock] = None
    for _ in range(steps):
        if frontier_nodes.size == 0:
            levels.append(empty)
            continue
        if block is None or not np.array_equal(frontier_nodes, block.frontier):
            block = _flatten_in_edges(graph, frontier_nodes, in_degrees, weight_totals)
        if block.counts.size == 0:
            frontier_nodes, frontier_probs = empty
            levels.append(empty)
            continue
        probs = frontier_probs[block.keep]
        if variant == "paper":
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(
                    block.child_degrees > 0,
                    sqrt_c * np.take(probs, block.owner) / block.child_degrees,
                    0.0,
                )
        elif weight_totals is None:
            weights = np.take(sqrt_c * probs / block.counts, block.owner)
        else:
            # Weighted walk: arc (child -> node) is taken with
            # probability w / W(node).
            weights = (
                np.take(sqrt_c * probs / block.denominators, block.owner)
                * block.arc_weights
            )
        if block.children.size * _SCATTER_DIVISOR >= n:
            row = np.bincount(block.children, weights=weights, minlength=n)
            if prune_below > 0.0:
                level_nodes = np.flatnonzero(row >= prune_below)
            else:
                level_nodes = np.flatnonzero(row != 0.0)
            level_probs = row[level_nodes]
        else:
            level_nodes, inverse = np.unique(block.children, return_inverse=True)
            level_probs = np.bincount(
                inverse, weights=weights, minlength=level_nodes.size
            )
            occupied = level_probs != 0.0
            if prune_below > 0.0:
                occupied &= level_probs >= prune_below
            if not occupied.all():
                level_nodes = level_nodes[occupied]
                level_probs = level_probs[occupied]
        frontier_nodes = level_nodes
        frontier_probs = level_probs
        levels.append((level_nodes, level_probs))
    return levels


def _changed_heads(added, removed, directed: bool) -> np.ndarray:
    """Sorted unique heads (and tails when undirected) of a delta."""
    heads = set()
    for collection in (added, removed):
        for x, y in collection:
            heads.add(int(y))
            if not directed:
                heads.add(int(x))
    return np.fromiter(sorted(heads), dtype=np.int64, count=len(heads))


def revreach_update(
    tree,
    new_graph: DiGraph,
    added,
    removed,
    *,
    directed: bool = True,
):
    """Incrementally rebase a reverse reachable tree onto a changed graph.

    A changed arc ``x → y`` first takes effect at the *shallowest* step
    ``t₀`` at which ``y`` carries occupancy mass: levels ``0..t₀`` of the
    old tree are still exact on ``new_graph``, so only levels
    ``t₀+1..l_max`` are re-propagated.  When no changed head is occupied
    at all, the old tree object is returned untouched (the
    :func:`~repro.core.pruning.tree_unaffected_by_delta` case).

    Accepts either representation and returns the same kind it was given.
    The result is bit-identical to a full :func:`revreach_levels` on
    ``new_graph`` (tests pin this); the saving grows with how deep the
    change sits relative to the source.
    """
    if tree.variant != "corrected":
        # The literal variant divides by the *child's* in-degree, so a
        # changed arc perturbs transitions wherever any parent of its head
        # is occupied — the shallowest-occupied-head analysis below does
        # not apply.
        raise ParameterError(
            "revreach_update supports the corrected variant only"
        )
    heads = _changed_heads(added, removed, directed)
    if heads.size == 0:
        _M_TREE_UPDATE_SKIPS.inc()
        return tree

    if isinstance(tree, SparseReverseTree):
        first_affected = tree.first_level_containing(heads, limit=tree.l_max)
        if first_affected is None:
            _M_TREE_UPDATE_SKIPS.inc()
            return tree
        with obs.span("tree_build", source=tree.source, rebase_from=first_affected):
            levels = [tree.level_arrays(step) for step in range(first_affected + 1)]
            frontier_nodes, frontier_probs = levels[-1]
            levels.extend(
                _propagate_sparse(
                    new_graph,
                    frontier_nodes,
                    frontier_probs,
                    tree.l_max - first_affected,
                    math.sqrt(tree.c),
                    tree.variant,
                )
            )
            rebased = SparseReverseTree.from_levels(
                tree.source, tree.c, tree.l_max, tree.variant, tree.num_nodes, levels
            )
        _M_TREE_UPDATES.inc()
        return rebased

    # Dense tree: one vectorised reduction over the heads' columns finds
    # the shallowest occupied head (no per-step Python loop).
    occupied = tree.matrix[: tree.l_max][:, heads] > 0.0
    affected_rows = np.nonzero(occupied.any(axis=1))[0]
    if affected_rows.size == 0:
        _M_TREE_UPDATE_SKIPS.inc()
        return tree
    first_affected = int(affected_rows[0])
    frontier = tree.matrix[first_affected]
    frontier_nodes = np.nonzero(frontier)[0].astype(np.int64)
    levels = _propagate_sparse(
        new_graph,
        frontier_nodes,
        frontier[frontier_nodes],
        tree.l_max - first_affected,
        math.sqrt(tree.c),
        tree.variant,
    )
    matrix = tree.matrix.copy()
    matrix.setflags(write=True)
    for offset, (nodes, probs) in enumerate(levels):
        row = matrix[first_affected + 1 + offset]
        row[:] = 0.0
        row[nodes] = probs
    matrix.setflags(write=False)
    _M_TREE_UPDATES.inc()
    return ReverseReachableTree(
        source=tree.source,
        c=tree.c,
        l_max=tree.l_max,
        variant=tree.variant,
        matrix=matrix,
    )


def revreach_queue(
    graph: DiGraph,
    source: int,
    l_max: int,
    c: float,
    *,
    variant: TreeVariant = "paper",
) -> ReverseReachableTree:
    """Literal Algorithm 2: queue traversal with parent exclusion.

    Kept for fidelity testing and the Example-2 arithmetic; the parent
    exclusion (line 9, ``v ≠ tpr``) prevents an item from re-entering via
    the node it came from, so on graphs with 2-cycles this under-counts
    relative to :func:`revreach_levels`.  Cost is proportional to the number
    of tree paths, which can be exponential in ``l_max`` — use only on small
    graphs.
    """
    _validate(graph, source, l_max, c)
    if variant not in ("corrected", "paper"):
        raise ParameterError(f"unknown tree variant {variant!r}")
    if variant == "paper" and graph.is_weighted:
        raise ParameterError(
            "the literal Algorithm-2 variant is defined for unweighted "
            "graphs only; use variant='corrected'"
        )
    n = graph.num_nodes
    sqrt_c = math.sqrt(c)
    weight_totals = graph.in_weight_totals() if graph.is_weighted else None
    matrix = np.zeros((l_max + 1, n), dtype=np.float64)
    matrix[0, source] = 1.0

    # Queue items are (level, node, probability-of-this-tree-path); PR of
    # Algorithm 2 rides along as the parent entry of each item.
    queue: deque = deque([(0, int(source), 1.0)])
    parents: deque = deque([-1])
    while queue:
        level, node, prob = queue.popleft()
        parent = parents.popleft()
        if level >= l_max:
            continue
        in_neighbors = graph.in_neighbors(node)
        for child in in_neighbors:
            child = int(child)
            if child == parent:
                continue
            if variant == "paper":
                degree = graph.in_degree(child)
                contribution = sqrt_c / degree * prob if degree else 0.0
            elif weight_totals is not None:
                contribution = (
                    sqrt_c
                    * graph.edge_weight(child, node)
                    / weight_totals[node]
                    * prob
                )
            else:
                contribution = sqrt_c / in_neighbors.size * prob
            if contribution == 0.0:
                continue
            matrix[level + 1, child] += contribution
            queue.append((level + 1, child, contribution))
            parents.append(node)

    matrix.setflags(write=False)
    return ReverseReachableTree(
        source=int(source), c=float(c), l_max=int(l_max), variant=variant, matrix=matrix
    )
