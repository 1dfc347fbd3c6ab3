"""Jeh & Widom's iterative SimRank — the paper's ground truth.

The fixed point of

    S = max(c · Wᵀ S W, I)        (element-wise max with the identity)

where ``W[x, u] = 1/|I(u)|`` for ``x ∈ I(u)`` is the column-normalised
in-adjacency matrix, is the SimRank matrix.  Iterating from ``S₀ = I``
converges geometrically: ``|S_k - S| ≤ c^(k+1)`` entrywise, so the paper's
55 iterations at ``c = 0.6`` give ≤ 6.5e-13 error (their stated 1e-5 needs
only ~22).

The all-pairs matrix is dense ``n × n``; with the scaled-down synthetic
datasets (n ≤ a few thousand) this is the cheapest *exact* oracle.  A
single-source slice helper avoids re-deriving it at every call site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ParameterError
from repro.graph.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - scipy loads only when a matrix is built
    import scipy.sparse

__all__ = [
    "power_method_all_pairs",
    "power_method_single_source",
    "DEFAULT_ITERATIONS",
]

DEFAULT_ITERATIONS = 55


def _column_normalised_in_adjacency(graph: DiGraph) -> "scipy.sparse.csr_matrix":
    """``W`` with ``W[x, u] = 1/|I(u)|`` (or ``w(x,u)/W(u)`` when weighted)
    for ``x ∈ I(u)``; zero columns for nodes with no in-neighbours (their
    SimRank to anything else is 0)."""
    import scipy.sparse

    n = graph.num_nodes
    totals = graph.in_weight_totals()
    # Entry per arc x -> u contributes W[x, u]; arcs grouped by u in the
    # in-CSR, so rows of the transpose build directly.
    cols = np.repeat(np.arange(n, dtype=np.int64), graph.in_degrees())
    rows = graph.in_indices.astype(np.int64)
    with np.errstate(divide="ignore"):
        inv = np.where(totals > 0, 1.0 / totals, 0.0)
    data = inv[cols]
    if graph.is_weighted:
        data = data * graph.in_weights
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def power_method_all_pairs(
    graph: DiGraph,
    c: float = 0.6,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    tolerance: Optional[float] = None,
) -> np.ndarray:
    """All-pairs SimRank by power iteration; returns a dense ``(n, n)`` array.

    Parameters
    ----------
    graph:
        Input graph; ``I(u)`` means in-neighbours (directed) or neighbours
        (undirected).
    c:
        Decay factor in (0, 1).
    iterations:
        Fixed iteration count (paper: 55).
    tolerance:
        If set, stop early once the max entry change drops below it.
    """
    if not 0.0 < c < 1.0:
        raise ParameterError(f"decay factor c must be in (0, 1), got {c}")
    if iterations < 0:
        raise ParameterError(f"iterations must be non-negative, got {iterations}")
    n = graph.num_nodes
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    weight = _column_normalised_in_adjacency(graph)
    sim = np.eye(n, dtype=np.float64)
    identity_diag = np.arange(n)
    for _ in range(iterations):
        updated = c * (weight.T @ sim @ weight)
        updated = np.asarray(updated)
        updated[identity_diag, identity_diag] = 1.0
        if tolerance is not None:
            change = float(np.max(np.abs(updated - sim)))
            sim = updated
            if change < tolerance:
                break
        else:
            sim = updated
    return sim


def power_method_single_source(
    graph: DiGraph,
    source: int,
    c: float = 0.6,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    all_pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``sim(source, ·)`` as a length-``n`` vector.

    Pass a precomputed ``all_pairs`` matrix to slice without recomputing
    (the experiment harness computes the matrix once per snapshot and
    queries many sources).
    """
    if not 0 <= int(source) < graph.num_nodes:
        raise ParameterError(
            f"source {source} outside the graph's node range [0, {graph.num_nodes})"
        )
    if all_pairs is None:
        all_pairs = power_method_all_pairs(graph, c, iterations=iterations)
    if all_pairs.shape != (graph.num_nodes, graph.num_nodes):
        raise ParameterError(
            f"all_pairs shape {all_pairs.shape} does not match graph size {graph.num_nodes}"
        )
    return all_pairs[int(source)].copy()
