"""Deterministic workload inputs: a pure function of ``(graph, seed)``.

Every generator draws from its own stream ``default_rng([seed, stream])``
so adding draws to one workload never shifts another's inputs.  Sources
come from the *walkable pool*: the nodes with in-degree ≥ 1 (19,191 of
the fixture's 50,000).  The rest have no in-links, so every query from
them answers all zeros without touching the interesting code.

A query's cost depends strongly on the in-structure of its source: an
adaptive query from an in-degree-1 node whose one in-neighbour is a hub
runs ~30x the trials of one whose in-neighbour has no in-links.  Drawn
uniformly, a run's ~20 sources would carry a different mix of such
nodes on every seed, and a run's median latency would jump between the
modes of a bimodal cost distribution.  So sources are drawn
*stratified*: the pool is ordered by the stratum key
``(in-degree, in-degree sum of the in-neighbours)``, nodes within a
stratum in seeded order, and op i takes the node at quantile
``frac(1/2 + i·φ⁻¹)`` of that order.  Any prefix of this sequence covers
the order evenly, so every run, whatever its length and seed, draws the
same strata in the same proportions; the seed picks the node inside
each stratum.  An in-degree-1 node's stratum is fixed by its
in-neighbour's in-degree, which is what sets its adaptive trial count.
About a quarter of the pool sits in strata of one node, which every
seed then draws alike.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "walkable_pool",
    "two_hop_in",
    "fresh_sources",
    "catalog",
    "hot_sources",
    "zipf_stream",
    "query_seed",
    "churn_deltas",
]

Edge = Tuple[int, int]

# One stream id per input kind.
_SOURCES, _CATALOG, _HOT, _ZIPF, _CHURN, _QUERY_SEED = range(1, 7)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def walkable_pool(in_degrees: np.ndarray) -> np.ndarray:
    """Sorted ids of the nodes with at least one in-link."""
    return np.flatnonzero(np.asarray(in_degrees) >= 1)


def two_hop_in(in_degrees, in_indptr, in_indices) -> np.ndarray:
    """Per node: the summed in-degree of its in-neighbours."""
    in_degrees = np.asarray(in_degrees)
    owner = np.repeat(np.arange(in_degrees.size), np.diff(in_indptr))
    return np.bincount(
        owner, weights=in_degrees[in_indices], minlength=in_degrees.size
    ).astype(np.int64)


#: Golden-ratio conjugate: consecutive multiples mod 1 spread evenly.
_GOLDEN = (5**0.5 - 1) / 2


def fresh_sources(
    pool: np.ndarray,
    seed: int,
    count: int,
    in_degrees: np.ndarray,
    two_hop: np.ndarray,
    stream: int = _SOURCES,
) -> np.ndarray:
    """``count`` distinct pool nodes, stratified over in-structure.

    See the module docstring.  No node repeats.
    """
    count = min(int(count), pool.size)
    rng = _rng(seed, stream)
    order = pool[
        np.lexsort((rng.random(pool.size), np.asarray(two_hop)[pool], np.asarray(in_degrees)[pool]))
    ]
    positions: List[int] = []
    taken = set()
    for step in range(count):
        position = int((0.5 + step * _GOLDEN) % 1.0 * pool.size)
        while position in taken:  # a repeat moves on to the next free node
            position = (position + 1) % pool.size
        taken.add(position)
        positions.append(position)
    return order[positions]


def catalog(pool: np.ndarray, seed: int, size: int) -> np.ndarray:
    """A fixed, sorted candidate catalog of ``size`` pool nodes."""
    return np.sort(_rng(seed, _CATALOG).choice(pool, size, replace=False))


def hot_sources(pool, seed, in_degrees, two_hop, count: int = 64) -> np.ndarray:
    """The hot set, hottest first, stratified like :func:`fresh_sources`."""
    return fresh_sources(pool, seed, count, in_degrees, two_hop, stream=_HOT)


def zipf_stream(
    hot: np.ndarray, seed: int, count: int, exponent: float = 1.1
) -> np.ndarray:
    """``count`` requests over ``hot``, rank r drawn with weight r^-exponent."""
    weights = np.arange(1, hot.size + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, _rng(seed, _ZIPF).random(int(count)), side="right")
    return hot[np.minimum(ranks, hot.size - 1)]


def query_seed(seed: int) -> int:
    """The explicit seed every request of a run carries."""
    return int(_rng(seed, _QUERY_SEED).integers(0, 2**31))


def churn_deltas(
    edges: Sequence[Edge],
    num_nodes: int,
    seed: int,
    session: int,
    shape: Sequence[Tuple[str, int]],
    source: int,
) -> List[Tuple[List[Edge], List[Edge]]]:
    """One valid ``(added, removed)`` delta per ``(kind, size)`` in ``shape``.

    Starting from ``edges`` (the first snapshot), each delta removes
    ``size`` present edges and adds ``size`` absent non-loop edges, so the
    deltas apply in order with no failing operation and the edge count
    stays constant.

    ``"random"`` picks the edges anywhere.  ``"peripheral"`` picks them
    among dangling nodes: it removes edges ``x → y`` where ``y`` has no
    out-edge and ``x`` no other, and adds edges between nodes with no
    out-edge.  Neither endpoint can then reach ``source``, so the
    source's reverse tree stays as it is, and nothing but the endpoints
    is forward-reachable from them.
    """
    rng = np.random.default_rng([int(seed), _CHURN, int(session)])
    current = list(edges)
    position = {edge: i for i, edge in enumerate(current)}
    out_degree = np.bincount(
        np.fromiter((u for u, _ in current), dtype=np.int64, count=len(current)),
        minlength=num_nodes,
    )

    def remove(edge):
        # Swap-remove keeps `current` dense and `position` exact.
        index = position.pop(edge)
        last = current.pop()
        if index < len(current):
            current[index] = last
            position[last] = index
        out_degree[edge[0]] -= 1

    def add(edge):
        position[edge] = len(current)
        current.append(edge)
        out_degree[edge[0]] += 1

    deltas = []
    for kind, size in shape:
        if kind == "random":
            picks = rng.choice(len(current), size, replace=False)
            removed = [current[i] for i in sorted(picks.tolist())]
        elif kind == "peripheral":
            removed = []
            for _ in range(100 * len(current)):
                if len(removed) == size:
                    break
                x, y = current[int(rng.integers(len(current)))]
                if (
                    out_degree[y] == 0
                    and out_degree[x] == 1
                    and source not in (x, y)
                    and (x, y) not in removed
                ):
                    removed.append((x, y))
            if len(removed) < size:
                raise ValueError(f"fewer than {size} peripheral edges to remove")
            removed.sort()
            dangling = np.flatnonzero(out_degree == 0)
        else:
            raise ValueError(f"unknown delta kind {kind!r}")
        for edge in removed:
            remove(edge)
        added: List[Edge] = []
        removed_set = set(removed)
        used = {source}
        while len(added) < size:
            if kind == "random":
                u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
            else:
                u, v = (int(x) for x in rng.choice(dangling, 2))
                if u in used or v in used:
                    continue
            edge = (u, v)
            if u == v or edge in position or edge in removed_set:
                continue
            if kind == "peripheral":
                used.add(u)
            add(edge)
            added.append(edge)
        deltas.append((added, removed))
    return deltas
