"""A duck-typed CSR graph for tests that need what ``DiGraph`` refuses.

``DiGraph`` validation rejects non-positive weights, so graphs with
zero-weight in-blocks are only reachable through the walk-facing protocol
the kernel, stepper and revReach consume: ``num_nodes``, ``in_indptr``,
``in_indices``, ``in_degrees()``, ``is_weighted`` / ``in_weights`` and
``in_weight_totals()``.
"""

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import build_alias_tables


class CsrGraphView:
    """Walk-facing stand-in for :class:`~repro.graph.digraph.DiGraph`."""

    def __init__(
        self,
        num_nodes: int,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_weights: Optional[np.ndarray] = None,
    ):
        self.num_nodes = int(num_nodes)
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self._in_weights = in_weights
        self._alias_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def is_weighted(self) -> bool:
        return self._in_weights is not None

    @property
    def in_weights(self) -> np.ndarray:
        if self._in_weights is None:
            raise GraphError("graph is unweighted; check is_weighted first")
        return self._in_weights

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def in_degrees64(self) -> np.ndarray:
        return np.diff(self.in_indptr).astype(np.int64, copy=False)

    def in_degree(self, node: int) -> int:
        return int(self.in_indptr[node + 1] - self.in_indptr[node])

    def in_neighbors(self, node: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[node] : self.in_indptr[node + 1]]

    def in_weight_totals(self) -> np.ndarray:
        # Mirrors DiGraph.in_weight_totals operation for operation, so the
        # floating-point totals are bit-identical to a DiGraph's.
        if self._in_weights is None:
            return self.in_degrees().astype(np.float64)
        totals = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(
            totals,
            np.repeat(np.arange(self.num_nodes), np.diff(self.in_indptr)),
            self._in_weights,
        )
        return totals

    def in_alias_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._alias_tables is None:
            self._alias_tables = build_alias_tables(
                self.in_indptr, self.in_weights, self.in_weight_totals()
            )
        return self._alias_tables

    def __len__(self) -> int:
        return self.num_nodes
