"""ProbeSim (Liu et al., VLDB 2017) — the paper's primary static baseline.

Per trial, ProbeSim samples one √c-walk ``W(u) = (u, w_1, ..., w_l)`` from
the source and then *probes* from every position ``w_i``: a reverse dynamic
program computes, for all nodes ``v`` simultaneously, the first-meeting
probability

    P(v, W(u, i)) = Pr[v_i = w_i ∧ v_j ≠ w_j ∀ 1 ≤ j < i]

of a √c-walk from ``v``.  The probe runs ``i`` propagation levels — from
``w_i`` back towards every ``v`` — zeroing the entry at ``w_j`` whenever a
level lands on walk position ``j ≥ 1`` (paths through an earlier position
belong to an earlier first meeting).

Two probe implementations are provided:

* ``probe_mode="dense"`` (default) — each level is a sparse matrix-vector
  product with ``M[x, y] = √c / |I(x)|`` for ``y ∈ I(x)``; probe ``i``
  costs ``O(i · m)`` in vectorised NumPy.  This is *stronger* than the
  published ProbeSim (which samples at high-degree nodes); EXPERIMENTS.md
  discusses how that strength shifts the Fig. 5 comparison.
* ``probe_mode="sparse"`` — the published traversal: hash-map level sets
  expanded edge by edge, cost proportional to the probe tree actually
  touched.  Faithful to the paper's cost profile, but pure-Python
  constants dominate; kept for fidelity benchmarking.

Either way the redundancy CrashSim's single reverse reachable tree
eliminates (paper §III-A) is the repeated per-position probing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional

import numpy as np

from repro.errors import ParameterError
from repro.graph.digraph import DiGraph
from repro.rng import RngLike, ensure_rng
from repro.walks.sqrt_c import sample_sqrt_c_walk

if TYPE_CHECKING:  # pragma: no cover - scipy loads only when a matrix is built
    import scipy.sparse

__all__ = ["probesim", "probesim_trial_count"]


def probesim_trial_count(
    num_nodes: int, c: float, epsilon: float, delta: float
) -> int:
    """ProbeSim's Chernoff trial count ``⌈3c/ε² · ln(n/δ)⌉`` ([10], §4)."""
    from repro.core.bounds import chernoff_trial_count

    return chernoff_trial_count(num_nodes, c, epsilon, delta)


def _probe_operator(graph: DiGraph, sqrt_c: float) -> "scipy.sparse.csr_matrix":
    """``M = √c · P`` (the reverse-walk transition scaled by √c): one probe
    level is ``R ← M @ R``.  Weight-aware via the graph's transition."""
    return (sqrt_c * graph.reverse_transition_matrix()).tocsr()


def _probe_sparse(
    graph: DiGraph,
    walk: List[int],
    position: int,
    sqrt_c: float,
    totals: np.ndarray,
) -> None:
    """The published probe: expand hash-map level sets from ``walk[i]``
    backwards to every candidate, excluding earlier walk positions."""
    in_totals = None
    level = {walk[position]: 1.0}
    for j in range(position, 0, -1):
        next_level: dict = {}
        for node, value in level.items():
            for successor in graph.out_neighbors(node):
                successor = int(successor)
                if graph.is_weighted:
                    if in_totals is None:
                        in_totals = graph.in_weight_totals()
                    share = (
                        sqrt_c
                        * graph.edge_weight(node, successor)
                        / in_totals[successor]
                    )
                else:
                    share = sqrt_c / graph.in_degree(successor)
                next_level[successor] = next_level.get(successor, 0.0) + value * share
        v_step = j - 1
        if v_step >= 1:
            next_level.pop(walk[v_step], None)
        level = next_level
    for node, value in level.items():
        totals[node] += value


def probesim(
    graph: DiGraph,
    source: int,
    *,
    c: float = 0.6,
    epsilon: float = 0.025,
    delta: float = 0.01,
    n_r: Optional[int] = None,
    max_walk_length: Optional[int] = None,
    candidates: Optional[Iterable[int]] = None,
    probe_mode: str = "dense",
    seed: RngLike = None,
) -> np.ndarray:
    """Single-source ProbeSim; returns ``s(source, ·)`` for all nodes.

    Parameters
    ----------
    graph, source:
        Query graph and source node.
    c, epsilon, delta:
        SimRank decay and the (ε, δ) guarantee; ``n_r`` defaults to the
        theoretical :func:`probesim_trial_count` and can be overridden for
        the practical regimes the experiments run in.
    max_walk_length:
        Optional hard cap on the sampled walk length (ProbeSim proper does
        not truncate; the cap is a safety valve for tests).
    candidates:
        If given, only these nodes' scores are meaningful in the returned
        vector (probe work is identical — ProbeSim has no partial mode,
        which is one of CrashSim-T's advantages; see paper §IV-A).
    probe_mode:
        ``"dense"`` (vectorised mat-vec probes, default) or ``"sparse"``
        (the published hash-map traversal) — identical estimators,
        different cost profiles; see the module docstring.

    Returns
    -------
    numpy.ndarray
        Length-``n`` vector with ``s(source, source) = 1``.
    """
    n = graph.num_nodes
    if not 0 <= int(source) < n:
        raise ParameterError(f"source {source} outside the node range [0, {n})")
    if probe_mode not in ("dense", "sparse"):
        raise ParameterError(f"unknown probe_mode {probe_mode!r}")
    source = int(source)
    rng = ensure_rng(seed)
    trials = n_r if n_r is not None else probesim_trial_count(n, c, epsilon, delta)
    if trials < 1:
        raise ParameterError(f"n_r must be positive, got {trials}")
    sqrt_c = math.sqrt(c)
    operator = _probe_operator(graph, sqrt_c) if probe_mode == "dense" else None

    totals = np.zeros(n, dtype=np.float64)
    for _ in range(trials):
        walk = sample_sqrt_c_walk(
            graph, source, c, max_length=max_walk_length, seed=rng
        )
        # walk[i] is W(u) at step i; probe every step i ≥ 1.
        for i in range(1, len(walk)):
            if probe_mode == "sparse":
                _probe_sparse(graph, walk, i, sqrt_c, totals)
                continue
            scores = np.zeros(n, dtype=np.float64)
            scores[walk[i]] = 1.0
            for j in range(i, 0, -1):
                scores = operator @ scores
                v_step = j - 1
                if v_step >= 1:
                    # First-meeting exclusion: a v-walk sitting on w_{v_step}
                    # at step v_step met the source walk earlier.
                    scores[walk[v_step]] = 0.0
            totals += scores
    totals /= trials
    totals[source] = 1.0
    return np.clip(totals, 0.0, 1.0)
