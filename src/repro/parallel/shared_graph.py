"""Zero-copy graph publication over ``multiprocessing.shared_memory``.

Shipping a 50k-node graph to a process pool by pickling it per task costs
more than the task itself: the CSR arrays are megabytes and every worker
re-deserialises them.  :class:`SharedGraph` instead copies the in-CSR arrays
(**once**) into named shared-memory segments; workers attach by name and map
the same physical pages, so per-task transfer shrinks to a few strings.

Two layers:

* :class:`SharedArray` — one NumPy array in one shared-memory segment, with
  a picklable :class:`ArraySpec` handle that any process can
  :func:`attach_array` to.
* :class:`SharedGraph` — the walk-facing arrays of a :class:`DiGraph`
  (``in_indptr``, ``in_indices``, and ``in_weights`` when present)
  published together; :func:`attach_graph` reconstructs a
  :class:`CsrGraphView` that quacks like a ``DiGraph`` for everything the
  walk engine and revReach touch.
* :class:`SharedTree` — the three packed arrays of a
  :class:`~repro.core.revreach.SparseReverseTree` (``level_indptr``,
  ``nodes``, ``probs``) published the same way; :func:`attach_tree`
  reconstructs a real ``SparseReverseTree`` over the shared pages, so a
  trial shard ships ``O(touched)`` bytes instead of the dense
  ``O(l_max · n)`` matrix.

Lifetime rules (see docs/internals.md):

* the **creator** owns the segments — ``close()`` (or the context manager)
  unlinks them; nothing is cleaned up implicitly while workers may still be
  attached, so close only after the pool has drained;
* **attachers** must keep their handle alive while NumPy views exist
  (:class:`CsrGraphView` holds them) and ``close()`` without unlinking;
* pool workers share the parent's resource tracker (multiprocessing passes
  the tracker fd down), so the attach-side registration CPython performs on
  POSIX is idempotent here and the creator's ``unlink()`` settles the
  books.  Attaching from a *foreign* process tree (not one of this
  process's workers) is outside the contract — its own tracker would
  unlink the segment when that process exits (CPython issue bpo-38119).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from repro.core.revreach import SparseReverseTree
from repro.errors import GraphError
from repro.graph.digraph import DiGraph, build_alias_tables

__all__ = [
    "ArraySpec",
    "SharedArray",
    "SharedGraphSpec",
    "SharedGraph",
    "SharedTreeSpec",
    "SharedTree",
    "CsrGraphView",
    "attach_array",
    "attach_graph",
    "attach_tree",
]


@dataclass(frozen=True)
class ArraySpec:
    """Picklable handle for one shared array: segment name, dtype, shape."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


class SharedArray:
    """A NumPy array copied once into a named shared-memory segment.

    Created by the publishing process; ``spec`` travels to workers (it is a
    tiny picklable dataclass) and :func:`attach_array` maps the same pages.
    """

    def __init__(self, array: np.ndarray, *, name: Optional[str] = None):
        array = np.ascontiguousarray(array)
        self._create(array.shape, array.dtype, name)
        self.array()[...] = array

    @classmethod
    def zeros(cls, shape: Tuple[int, ...], dtype=np.float64) -> "SharedArray":
        """A zero-filled segment, to be written in place through :meth:`array`.

        Saves the private array and the copy.  The zeros are written out
        rather than left to the fresh segment: a page its creator never
        touches stays a hole, which every attaching worker then faults in
        one page at a time, where present pages map many per fault.
        """
        shared = cls.__new__(cls)
        shared._create(tuple(shape), np.dtype(dtype), None)
        shared.array().fill(0)
        return shared

    def _create(self, shape, dtype: np.dtype, name: Optional[str]) -> None:
        # shared_memory rejects zero-byte segments; keep a one-byte
        # placeholder so empty graphs round-trip uniformly.
        nbytes = max(int(np.prod(shape)) * dtype.itemsize, 1)
        name = name or f"repro-{secrets.token_hex(8)}"
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        self.spec = ArraySpec(name=self._shm.name, dtype=dtype.str, shape=tuple(shape))
        self._closed = False

    def array(self) -> np.ndarray:
        """The creator-side view of the shared buffer."""
        if self._closed:
            raise GraphError("shared array already closed")
        return np.ndarray(
            self.spec.shape, dtype=np.dtype(self.spec.dtype), buffer=self._shm.buf
        )

    def close(self) -> None:
        """Release and unlink the segment (creator side, idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def attach_array(spec: ArraySpec) -> Tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map a published array; returns ``(view, handle)``.

    The caller must keep ``handle`` alive while ``view`` is used and call
    ``handle.close()`` afterwards (never ``unlink`` — the creator owns the
    segment).
    """
    handle = shared_memory.SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=handle.buf)
    return view, handle


@dataclass(frozen=True)
class SharedGraphSpec:
    """Everything a worker needs to reattach a published graph."""

    num_nodes: int
    in_indptr: ArraySpec
    in_indices: ArraySpec
    in_weights: Optional[ArraySpec]
    alias_prob: Optional[ArraySpec] = None
    alias_alias: Optional[ArraySpec] = None


class CsrGraphView:
    """Walk-facing stand-in for :class:`DiGraph` over attached CSR arrays.

    Implements exactly the protocol the batch walk engine, revReach, and
    the crash accumulator consume: ``num_nodes``, ``in_indptr``,
    ``in_indices``, ``in_degrees()``, ``is_weighted`` / ``in_weights``, and
    ``in_weight_totals()``.  Out-adjacency is deliberately absent — no
    Monte-Carlo path reads it, and publishing it would double the shared
    footprint for nothing.
    """

    def __init__(
        self,
        num_nodes: int,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_weights: Optional[np.ndarray] = None,
        handles: Tuple[shared_memory.SharedMemory, ...] = (),
        alias_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        self.num_nodes = int(num_nodes)
        self._in_indptr = in_indptr
        self._in_indices = in_indices
        self._in_weights = in_weights
        self._handles = tuple(handles)
        self._closed = False
        self._in_degrees64: Optional[np.ndarray] = None
        self._alias_tables = alias_tables

    @property
    def in_indptr(self) -> np.ndarray:
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        return self._in_indices

    @property
    def is_weighted(self) -> bool:
        return self._in_weights is not None

    @property
    def in_weights(self) -> np.ndarray:
        if self._in_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        return self._in_weights

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._in_indptr)

    def in_degrees64(self) -> np.ndarray:
        """Cached int64 in-degrees, mirroring ``DiGraph.in_degrees64``."""
        if self._in_degrees64 is None:
            degrees = np.diff(self._in_indptr).astype(np.int64, copy=False)
            degrees.setflags(write=False)
            self._in_degrees64 = degrees
        return self._in_degrees64

    def in_alias_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Alias tables: the zero-copy published pair when the creator
        shipped one, otherwise built locally (bit-identical either way —
        :func:`~repro.graph.digraph.build_alias_tables` is deterministic)."""
        if self._in_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        if self._alias_tables is None:
            self._alias_tables = build_alias_tables(
                self._in_indptr, self._in_weights, self.in_weight_totals()
            )
        return self._alias_tables

    def in_degree(self, node: int) -> int:
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def in_neighbors(self, node: int) -> np.ndarray:
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def in_weight_totals(self) -> np.ndarray:
        # Mirrors DiGraph.in_weight_totals operation-for-operation so the
        # floating-point results are bit-identical to the original graph's —
        # the parallel determinism guarantee depends on it.
        if self._in_weights is None:
            return self.in_degrees().astype(np.float64)
        totals = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(
            totals,
            np.repeat(np.arange(self.num_nodes), np.diff(self._in_indptr)),
            self._in_weights,
        )
        return totals

    def __len__(self) -> int:
        return self.num_nodes

    def close(self) -> None:
        """Detach from the shared segments (attacher side, idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.close()
            except Exception:  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "CsrGraphView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SharedGraph:
    """Publish a :class:`DiGraph`'s in-CSR arrays for worker processes.

    Usage::

        with SharedGraph(graph) as shared:
            tasks = [make_task(shared.spec(), ...) for ...]
            results = executor.map(worker, tasks)   # workers attach_graph()
        # segments unlinked here, after the pool drained
    """

    def __init__(self, graph: DiGraph, *, publish_alias: bool = False):
        self.num_nodes = graph.num_nodes
        self._arrays: List[SharedArray] = []
        try:
            indptr = SharedArray(graph.in_indptr)
            self._arrays.append(indptr)
            indices = SharedArray(graph.in_indices)
            self._arrays.append(indices)
            weights: Optional[SharedArray] = None
            if graph.is_weighted:
                weights = SharedArray(graph.in_weights)
                self._arrays.append(weights)
            alias_prob: Optional[SharedArray] = None
            alias_alias: Optional[SharedArray] = None
            if publish_alias and graph.is_weighted:
                # Build (or reuse the graph's cached) tables once on the
                # creator; workers map the same pages instead of each
                # re-running the O(m) Vose construction.
                prob, alias = graph.in_alias_tables()
                alias_prob = SharedArray(prob)
                self._arrays.append(alias_prob)
                alias_alias = SharedArray(alias)
                self._arrays.append(alias_alias)
        except Exception:
            self.close()
            raise
        self._spec = SharedGraphSpec(
            num_nodes=graph.num_nodes,
            in_indptr=indptr.spec,
            in_indices=indices.spec,
            in_weights=weights.spec if weights is not None else None,
            alias_prob=alias_prob.spec if alias_prob is not None else None,
            alias_alias=alias_alias.spec if alias_alias is not None else None,
        )

    def spec(self) -> SharedGraphSpec:
        """The picklable attach handle to ship with each task."""
        return self._spec

    def view(self) -> CsrGraphView:
        """A creator-side view over the published arrays (no extra handles)."""
        weights = None
        if self._spec.in_weights is not None:
            weights = self._arrays[2].array()
        alias_tables = None
        if self._spec.alias_prob is not None:
            alias_tables = (self._arrays[3].array(), self._arrays[4].array())
        return CsrGraphView(
            self.num_nodes,
            self._arrays[0].array(),
            self._arrays[1].array(),
            weights,
            alias_tables=alias_tables,
        )

    def close(self) -> None:
        """Unlink every segment (idempotent).  Call after workers finish."""
        for array in self._arrays:
            array.close()

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class SharedTreeSpec:
    """Everything a worker needs to reattach a published sparse tree."""

    source: int
    c: float
    l_max: int
    variant: str
    num_nodes: int
    level_indptr: ArraySpec
    nodes: ArraySpec
    probs: ArraySpec


class SharedTree:
    """Publish a :class:`SparseReverseTree`'s packed arrays for workers.

    Same lifetime rules as :class:`SharedGraph`: the creator owns the
    segments and must ``close()`` only after the pool has drained; workers
    :func:`attach_tree` and close their view when done.
    """

    def __init__(self, tree: SparseReverseTree):
        self._meta = (tree.source, tree.c, tree.l_max, tree.variant, tree.num_nodes)
        self._arrays: List[SharedArray] = []
        try:
            for array in (tree.level_indptr, tree.nodes, tree.probs):
                self._arrays.append(SharedArray(array))
        except Exception:
            self.close()
            raise
        self._spec = SharedTreeSpec(
            source=tree.source,
            c=tree.c,
            l_max=tree.l_max,
            variant=tree.variant,
            num_nodes=tree.num_nodes,
            level_indptr=self._arrays[0].spec,
            nodes=self._arrays[1].spec,
            probs=self._arrays[2].spec,
        )

    def spec(self) -> SharedTreeSpec:
        """The picklable attach handle to ship with each task."""
        return self._spec

    def close(self) -> None:
        """Unlink every segment (idempotent).  Call after workers finish."""
        for array in self._arrays:
            array.close()

    def __enter__(self) -> "SharedTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_tree(
    spec: SharedTreeSpec,
) -> Tuple[SparseReverseTree, Tuple[shared_memory.SharedMemory, ...]]:
    """Attach to a published tree; returns ``(tree, handles)``.

    The caller must keep ``handles`` alive while the tree is used and close
    them afterwards (never ``unlink`` — the creator owns the segments).
    The reconstructed tree's fingerprints and dense caches start empty;
    shard workers only ever call ``gather``, which touches neither.
    """
    views = []
    handles = []
    try:
        for array_spec in (spec.level_indptr, spec.nodes, spec.probs):
            view, handle = attach_array(array_spec)
            views.append(view)
            handles.append(handle)
    except Exception:
        for handle in handles:
            handle.close()
        raise
    tree = SparseReverseTree(
        source=spec.source,
        c=spec.c,
        l_max=spec.l_max,
        variant=spec.variant,
        num_nodes=spec.num_nodes,
        level_indptr=views[0],
        nodes=views[1],
        probs=views[2],
    )
    return tree, tuple(handles)


def attach_graph(spec: SharedGraphSpec) -> CsrGraphView:
    """Attach to a published graph; the view owns (and closes) the handles."""
    views = []
    handles = []
    try:
        for array_spec in (spec.in_indptr, spec.in_indices):
            view, handle = attach_array(array_spec)
            views.append(view)
            handles.append(handle)
        weights = None
        if spec.in_weights is not None:
            weights, handle = attach_array(spec.in_weights)
            handles.append(handle)
        alias_tables = None
        if spec.alias_prob is not None and spec.alias_alias is not None:
            prob_view, handle = attach_array(spec.alias_prob)
            handles.append(handle)
            alias_view, handle = attach_array(spec.alias_alias)
            handles.append(handle)
            alias_tables = (prob_view, alias_view)
    except Exception:
        for handle in handles:
            handle.close()
        raise
    return CsrGraphView(
        spec.num_nodes,
        views[0],
        views[1],
        weights,
        handles=tuple(handles),
        alias_tables=alias_tables,
    )
