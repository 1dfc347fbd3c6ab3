"""Correctness checkers: each returns ``None`` when an answer holds, else why not.

They take plain arrays and tuples, so the tests can hand them a
deliberately corrupted answer without running the program.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "within_bound",
    "zero_where_expected_zero",
    "sum_within_bernstein",
    "top_k",
    "same_top_k",
    "same_survivors",
]


def within_bound(
    scores: np.ndarray,
    expectation: np.ndarray,
    nodes: np.ndarray,
    epsilon: float,
) -> Optional[str]:
    """``|score − E| ≤ ε`` on every checked node (the result's own claim)."""
    if epsilon is None or not np.isfinite(epsilon):
        return f"no finite achieved_epsilon ({epsilon!r})"
    nodes = np.asarray(nodes, dtype=np.int64)
    error = np.abs(np.asarray(scores)[nodes] - np.asarray(expectation)[nodes])
    worst = int(np.argmax(error)) if error.size else 0
    if error.size and error[worst] > epsilon:
        return (
            f"node {int(nodes[worst])}: |score - E| = {error[worst]:.6g} "
            f"> achieved_epsilon {epsilon:.6g}"
        )
    return None


def zero_where_expected_zero(
    scores: np.ndarray, expectation: np.ndarray, nodes: np.ndarray
) -> Optional[str]:
    """A node with exact expectation 0 scores exactly 0.

    Every per-trial value is ≥ 0, so an expectation of 0 means no walk
    from the node can add anything.  Scores moved onto the wrong nodes
    (a permuted vector) fail here.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    wrong = nodes[
        (np.asarray(expectation)[nodes] == 0) & (np.asarray(scores)[nodes] != 0)
    ]
    if wrong.size:
        return (
            f"{wrong.size} nodes with expectation 0 score above 0 "
            f"(node {int(wrong[0])} first)"
        )
    return None


def sum_within_bernstein(
    scores: np.ndarray,
    expectation: np.ndarray,
    nodes: np.ndarray,
    value_bound: float,
    trials: int,
    delta: float,
) -> Optional[str]:
    """``Σ (score − E)`` over the nodes lies within its Bernstein bound.

    Each score is the mean of ``trials`` independent per-trial values in
    ``[0, b]`` (``b = value_bound``), and walks from different nodes are
    independent.  A value in ``[0, b]`` with mean ``μ`` has variance at
    most ``μ(b − μ)``, so the sum ``S`` of the errors is a sum of
    independent centred terms, each within ``b/trials``, with variance
    ``V ≤ Σ μ(b − μ)/trials``.  Bernstein's inequality puts ``|S|`` below
    ``x = M·L/3 + sqrt((M·L/3)² + 2·L·V)`` (``M = b/trials``,
    ``L = ln(2/δ)``) except with probability ``δ``.

    Unlike the per-node ε a few dozen trials buy, this fails on an
    answer that is systematically off: one zeroed, scaled or shifted.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    mean = np.asarray(expectation, dtype=np.float64)[nodes]
    error = float(np.sum(np.asarray(scores, dtype=np.float64)[nodes] - mean))
    variance = float(np.sum(mean * np.clip(value_bound - mean, 0.0, None))) / trials
    spread = value_bound / trials * np.log(2.0 / delta) / 3.0
    allowed = spread + np.sqrt(spread**2 + 2.0 * np.log(2.0 / delta) * variance)
    if abs(error) > allowed:
        return (
            f"sum of errors over {nodes.size} nodes is {error:.6g}, "
            f"outside its Bernstein bound {allowed:.6g} (delta {delta:g})"
        )
    return None


def top_k(scores: np.ndarray, source: int, k: int) -> List[Tuple[int, float]]:
    """The k best non-source nodes, score-descending, node id as tiebreak.

    The same selection the serving engine applies to a ``top_k`` request,
    so equal vectors give equal rankings even among tied scores.
    """
    values = np.asarray(scores, dtype=np.float64).copy()
    values[int(source)] = -np.inf
    k = min(int(k), values.size - 1)
    if k <= 0:
        return []
    top = np.argpartition(-values, k - 1)[:k]
    ranked = top[np.lexsort((top, -values[top]))]
    return [(int(node), float(values[node])) for node in ranked]


def same_top_k(
    answered: Sequence[Sequence], expected: Sequence[Tuple[int, float]]
) -> Optional[str]:
    """The served ranking equals the expected one, node and score bits."""
    answered = [(int(node), float(score)) for node, score in answered]
    if len(answered) != len(expected):
        return f"{len(answered)} ranked nodes, expected {len(expected)}"
    for rank, (got, want) in enumerate(zip(answered, expected)):
        if got[0] != want[0] or got[1].hex() != float(want[1]).hex():
            return f"rank {rank}: got {got}, expected {tuple(want)}"
    return None


def same_survivors(
    streamed: Sequence[Tuple[int, ...]], replayed: Sequence[Tuple[int, ...]]
) -> Optional[str]:
    """Ω after every push of the stream equals Ω of the replay."""
    if len(streamed) != len(replayed):
        return f"{len(streamed)} pushes streamed, {len(replayed)} replayed"
    for push, (got, want) in enumerate(zip(streamed, replayed)):
        if tuple(got) != tuple(want):
            return (
                f"push {push}: {len(got)} survivors streamed, "
                f"{len(want)} replayed, {len(set(got) ^ set(want))} differ"
            )
    return None
