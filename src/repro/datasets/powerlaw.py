"""Deterministic Zipf-skewed power-law graphs for the adaptive benchmarks.

The adaptive sampler's hub-contribution cache (:mod:`repro.core.adaptive`)
pays off exactly when a few nodes absorb a large fraction of all √c-walk
traffic.  The generators here produce that regime on demand: both edge
endpoints are drawn from the *same* Zipf ranking, so the heavy in-degree
nodes (where the reverse-tree mass concentrates and the hub cache stores
its tails) are also heavy out-degree nodes (where forward walks land).

Everything is vectorised and deterministic for a fixed seed — the pinned
50k-node fixture backs the adaptive gate of ``benchmarks/perf_smoke.py``,
so its byte layout must never drift.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.rng import RngLike, ensure_rng

__all__ = ["zipf_powerlaw", "powerlaw_fixture", "POWERLAW_FIXTURE_SEED"]

#: Seed of the pinned benchmark fixture.  Changing it invalidates the
#: recorded adaptive baseline in ``benchmarks/baselines/perf_smoke.json``
#: — treat it as frozen.
POWERLAW_FIXTURE_SEED = 1207


def zipf_powerlaw(
    num_nodes: int,
    num_edges: int,
    *,
    exponent: float = 1.2,
    seed: RngLike = None,
) -> DiGraph:
    """Directed graph with Zipf-distributed endpoints on both sides.

    ``num_edges`` edge draws are sampled with both endpoints independently
    Zipf(``exponent``)-distributed over node ids (node 0 is the heaviest);
    self-loops are dropped and duplicate draws collapse, so the realised
    edge count is at most ``num_edges``.  Deterministic for a fixed seed:
    the same ``(num_nodes, num_edges, exponent, seed)`` always yields a
    byte-identical graph.
    """
    if num_nodes < 2:
        raise GraphError(f"need at least two nodes, got {num_nodes}")
    if num_edges < 1:
        raise GraphError(f"num_edges must be positive, got {num_edges}")
    if exponent <= 0:
        raise GraphError(f"exponent must be positive, got {exponent}")
    rng = ensure_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-exponent)
    cdf /= cdf[-1]
    src = np.searchsorted(cdf, rng.random(num_edges), side="right")
    dst = np.searchsorted(cdf, rng.random(num_edges), side="right")
    keep = src != dst
    # Collapse duplicates on a packed (src, dst) key; np.unique sorts, so
    # the edge order fed to from_edges is canonical regardless of draw
    # order — part of the byte-determinism contract.
    keys = np.unique(src[keep] * np.int64(num_nodes) + dst[keep])
    edges = np.stack([keys // num_nodes, keys % num_nodes], axis=1)
    return DiGraph.from_edges(num_nodes, edges, dedup=False)


@lru_cache(maxsize=4)
def powerlaw_fixture(
    num_nodes: int = 50_000, num_edges: int = 300_000
) -> DiGraph:
    """The pinned power-law benchmark fixture (cached per process).

    50k nodes / 300k requested edges at the frozen
    :data:`POWERLAW_FIXTURE_SEED` — the graph the adaptive trials-saved
    numbers in ``BENCH_adaptive.json`` and ``baselines/perf_smoke.json``
    are measured on.
    """
    return zipf_powerlaw(num_nodes, num_edges, seed=POWERLAW_FIXTURE_SEED)
