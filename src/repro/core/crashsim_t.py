"""CrashSim-T (paper Algorithm 3): temporal SimRank queries with pruning.

:func:`crashsim_t` answers a query over a stored
:class:`~repro.graph.temporal.TemporalGraph` by replaying one
:class:`~repro.core.streaming.TemporalQuerySession` over the interval: the
first snapshot is scored in full, then each later snapshot is pushed with
its stored delta until the candidate set ``Ω`` empties.  The session holds
the transition itself — source-tree rebase, delta pruning (Property 1),
difference pruning (Property 2), the partial recompute and the Ω step — so
the batch and the streaming forms cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Set, Tuple

from repro.core.params import CrashSimParams
from repro.core.queries import TemporalQuery
from repro.core.streaming import CrashSimTStats, ScoreMap, TemporalQuerySession
from repro.errors import ParameterError, QueryError
from repro.graph.temporal import TemporalGraph
from repro.rng import RngLike

__all__ = ["CrashSimTStats", "TemporalQueryResult", "crashsim_t"]


@dataclass(frozen=True)
class TemporalQueryResult:
    """Outcome of a temporal SimRank query.

    Attributes
    ----------
    source:
        Query source ``u``.
    interval:
        The processed ``[start, stop)`` snapshot range.
    survivors:
        Node ids in the final ``Ω`` (sorted).
    history:
        Per processed snapshot, the ``{node: score}`` mapping of candidates
        still alive *entering* that snapshot (every candidate for the
        first).  Each is a read-only :class:`~repro.core.streaming.ScoreMap`
        that builds its dict when first read.
    stats:
        Pruning instrumentation.
    """

    source: int
    interval: Tuple[int, int]
    survivors: Tuple[int, ...]
    history: Tuple[Mapping[int, float], ...]
    stats: CrashSimTStats

    @property
    def survivor_set(self) -> Set[int]:
        return set(self.survivors)


def crashsim_t(
    temporal: TemporalGraph,
    source: int,
    query: TemporalQuery,
    *,
    interval: Optional[Tuple[int, int]] = None,
    params: Optional[CrashSimParams] = None,
    use_delta_pruning: bool = True,
    use_difference_pruning: bool = True,
    seed: RngLike = None,
    sampler: str = "cdf",
) -> TemporalQueryResult:
    """Answer a temporal SimRank query with CrashSim-T (Algorithm 3).

    Parameters
    ----------
    temporal:
        The temporal graph ``G = {G_1, ..., G_T}``.
    source:
        Query source ``u``.
    query:
        A :class:`~repro.core.queries.TemporalQuery`
        (:class:`ThresholdQuery` or :class:`TrendQuery`).
    interval:
        Half-open snapshot range ``[start, stop)``; defaults to the full
        horizon.
    params:
        CrashSim parameters; defaults match the paper's temporal setting
        (``c = 0.6``, ``ε = 0.025``).
    use_delta_pruning, use_difference_pruning:
        Ablation switches for Properties 1 and 2.
    seed:
        Anything :func:`repro.rng.ensure_rng` accepts.
    sampler:
        Weighted neighbour-sampling strategy forwarded to every
        per-snapshot CrashSim run (``"cdf"`` default / ``"alias"`` opt-in).
    """
    start, stop = interval if interval is not None else (0, temporal.num_snapshots)
    if not 0 <= start < stop <= temporal.num_snapshots:
        raise QueryError(
            f"invalid interval [{start}, {stop}) for horizon {temporal.num_snapshots}"
        )
    if not 0 <= int(source) < temporal.num_nodes:
        raise ParameterError(
            f"source {source} outside the node range [0, {temporal.num_nodes})"
        )
    session = TemporalQuerySession(
        source,
        query,
        params=params,
        use_delta_pruning=use_delta_pruning,
        use_difference_pruning=use_difference_pruning,
        seed=seed,
        sampler=sampler,
    )
    session.push_snapshot(temporal.snapshot(start))
    history: List[ScoreMap] = [session._scores]
    for index in range(start + 1, stop):
        if not session.survivors:
            break
        # The stored delta is already canonical: no O(m) re-diff.
        session._advance(temporal.snapshot(index), temporal.delta(index))
        history.append(session._scores)
    return TemporalQueryResult(
        source=session.source,
        interval=(start, stop),
        survivors=session.survivors,
        history=tuple(history),
        stats=session.stats,
    )
