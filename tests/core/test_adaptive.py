"""Adaptive sampling: stopper math, hub cache, and cross-tier identity.

Covers the contract of :mod:`repro.core.adaptive`:

* :func:`plan_rounds` — geometric round grouping, a pure function of the
  shard count shared by the serial and parallel drivers;
* :class:`AdaptiveStopper` — empirical-Bernstein half-widths, convergence,
  and the "never worse metadata" rule for ``achieved_epsilon``;
* :func:`build_hub_cache` / :func:`exact_expectation` — the backward
  recursion must agree with the guarantee suite's einsum oracle, and hub
  tails must be the estimator's exact conditional expectations;
* end-to-end: an adaptive run is byte-identical across serial / thread /
  process execution and any worker count, stops genuinely early on easy
  instances, stays within ε of the exact expectation, and degrades with
  honest metadata when shards are lost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.api import single_source
from repro.core.adaptive import (
    AdaptiveStopper,
    build_hub_cache,
    exact_expectation,
    plan_rounds,
    walk_value_bound,
)
from repro.core.crashsim import crashsim
from repro.core.multi_source import crashsim_multi_source
from repro.core.params import CrashSimParams
from repro.core.revreach import SparseReverseTree, revreach_levels
from repro.datasets.example_graph import example_graph
from repro.errors import DegradedResultWarning, ParameterError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.parallel import parallel_crashsim, parallel_crashsim_multi_source
from repro.parallel.shared_graph import CsrGraphView
from repro.walks.kernel import WalkCrashKernel

EPS = 0.1
PARAMS = CrashSimParams(epsilon=EPS)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 1500, seed=5)


@pytest.fixture(scope="module")
def tree(graph):
    return revreach_levels(graph, 3, PARAMS.l_max, PARAMS.c)


class TestPlanRounds:
    def test_geometric_growth(self):
        assert plan_rounds(63) == [1, 2, 4, 8, 16, 32]

    def test_last_round_absorbs_remainder(self):
        assert plan_rounds(10) == [1, 2, 4, 3]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65, 1000])
    def test_sums_to_shard_count(self, n):
        rounds = plan_rounds(n)
        assert sum(rounds) == n
        assert all(size >= 1 for size in rounds) or n == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            plan_rounds(-1)


class TestAdaptiveStopper:
    def test_zero_estimates_trivially_converged(self):
        stopper = AdaptiveStopper(PARAMS, 0, 0.0, 1)
        assert stopper.converged()
        assert stopper.achieved_epsilon(100) == PARAMS.epsilon

    def test_needs_two_trials(self):
        stopper = AdaptiveStopper(PARAMS, 3, 1.0, 4)
        assert not stopper.converged()
        stopper.update(np.zeros(3), np.zeros(3), 1)
        assert not stopper.converged()
        assert np.all(np.isinf(stopper.half_widths()))

    def test_zero_variance_converges_fast(self):
        stopper = AdaptiveStopper(PARAMS, 2, 1.0, 4)
        # A constant stream: variance 0, only the 7b·ln/(3(t−1)) term left.
        value = 0.25
        t = 2000
        stopper.update(
            np.full(2, value * t), np.full(2, value * value * t), t
        )
        assert stopper.converged()
        assert stopper.bound_epsilon() < EPS

    def test_mismatched_update_rejected(self):
        stopper = AdaptiveStopper(PARAMS, 3, 1.0, 1)
        with pytest.raises(ParameterError):
            stopper.update(np.zeros(2), np.zeros(2), 1)

    def test_negative_trials_rejected(self):
        stopper = AdaptiveStopper(PARAMS, 1, 1.0, 1)
        with pytest.raises(ParameterError):
            stopper.update(np.zeros(1), np.zeros(1), -1)

    def test_achieved_never_worse_than_chernoff(self):
        # Adversarially noisy stream: the EB bound is useless, so the
        # inverted Lemma-3 bound must cap the reported ε.
        stopper = AdaptiveStopper(PARAMS, 1, 5.0, 4)
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 5.0, size=50)
        stopper.update(
            np.array([values.sum()]), np.array([(values**2).sum()]), 50
        )
        chernoff = PARAMS.achieved_epsilon(300, 50)
        assert stopper.achieved_epsilon(300) <= chernoff

    def test_no_trials_reports_range(self):
        stopper = AdaptiveStopper(PARAMS, 2, 1.0, 1)
        assert stopper.achieved_epsilon(300) == 1.0


class TestExactExpectationAndHubs:
    def test_exact_expectation_matches_einsum_oracle(self):
        # The O(l_max·m) backward recursion vs the guarantee suite's
        # stacked-tree einsum, off-diagonal (the l=0 term is source-only).
        g = example_graph()
        params = CrashSimParams()
        trees = [
            revreach_levels(g, s, params.l_max, params.c).matrix
            for s in range(g.num_nodes)
        ]
        stacked = np.stack(trees)
        oracle = np.einsum("ulk,vlk->uv", stacked, stacked)
        for source in range(g.num_nodes):
            tree = revreach_levels(g, source, params.l_max, params.c)
            exact = exact_expectation(
                g, tree, l_max=params.l_max, c=params.c
            )
            others = np.arange(g.num_nodes) != source
            np.testing.assert_allclose(
                exact[others], oracle[source][others], atol=1e-12
            )

    def test_hub_tails_are_exact_step0_expectations(self, graph, tree):
        cache = build_hub_cache(
            graph, tree, l_max=PARAMS.l_max, c=PARAMS.c, num_hubs=16
        )
        exact = exact_expectation(graph, tree, l_max=PARAMS.l_max, c=PARAMS.c)
        np.testing.assert_allclose(cache.tails[0], exact[cache.hubs])

    def test_hub_selection_deterministic_with_ties(self):
        # in-degrees: node 3 → 2, nodes 0,1 → 1 each (tie broken low id).
        g = DiGraph.from_edges(5, [(1, 3), (2, 3), (3, 0), (4, 1)])
        cache = build_hub_cache(g, np.zeros((3, 5)), l_max=2, c=0.6, num_hubs=2)
        assert cache.hubs.tolist() == [0, 3]

    def test_no_eligible_hubs_returns_none(self):
        g = DiGraph.from_edges(4, [])
        assert build_hub_cache(g, np.zeros((3, 4)), l_max=2, c=0.6) is None
        g2 = DiGraph.from_edges(4, [(0, 1)])
        assert (
            build_hub_cache(g2, np.zeros((3, 4)), l_max=2, c=0.6, num_hubs=0)
            is None
        )

    def test_value_bound_sparse_matches_dense(self, tree):
        sparse_bound = walk_value_bound(tree, PARAMS.l_max)
        dense_bound = walk_value_bound(tree.matrix, PARAMS.l_max)
        assert sparse_bound == pytest.approx(dense_bound)
        assert sparse_bound >= 0.0

    def test_hub_cache_preserves_the_estimate(self, graph, tree):
        # Rao-Blackwellisation must not move the estimator's target: with
        # and without the hub cache, the moment means stay within ε of the
        # exact expectation, and retiring walks at hubs can only shrink the
        # per-walk variance (deterministic at pinned seeds).
        targets = np.flatnonzero(graph.in_degrees() > 0)
        targets = targets[targets != 3]
        exact = exact_expectation(graph, tree, l_max=PARAMS.l_max, c=PARAMS.c)
        trials = 256
        variances = []
        for num_hubs in (0, 64):
            cache = build_hub_cache(
                graph, tree, l_max=PARAMS.l_max, c=PARAMS.c, num_hubs=num_hubs
            )
            assert (cache is None) == (num_hubs == 0)
            totals, sumsq = WalkCrashKernel(graph, PARAMS.c).accumulate_moments(
                tree,
                targets,
                trials,
                l_max=PARAMS.l_max,
                rng=np.random.default_rng(17),
                hub_cache=cache,
            )
            mean = totals / trials
            assert np.abs(mean - exact[targets]).max() <= EPS
            variances.append((sumsq / trials - mean * mean).mean())
        assert variances[1] < variances[0]


def oracle_remainders(graph, tree, l_max, c):
    """The hub recursion as it stood before its rolling two-row form.

    It holds the full ``(l_max + 1, n)`` table, builds a dense row per
    level, and divides and zeroes over all ``n`` nodes.  One fault is
    mended: it summed in-blocks with one ``reduceat`` over block starts
    clipped to ``m - 1``, which cut the last non-empty block short by its
    final arc whenever in-degree-0 nodes trail it.  Here each block is
    reduced on its own, with the same ``reduceat`` arithmetic.
    """
    n = int(graph.num_nodes)
    indptr = np.asarray(graph.in_indptr, dtype=np.int64)
    indices = np.asarray(graph.in_indices, dtype=np.int64)
    degrees = (indptr[1:] - indptr[:-1]).astype(np.float64)
    weighted = bool(getattr(graph, "is_weighted", False))
    if weighted:
        weights = np.asarray(graph.in_weights, dtype=np.float64)
        denom = np.asarray(graph.in_weight_totals(), dtype=np.float64)
        live = (degrees > 0) & (denom > 0.0)
    else:
        denom = degrees
        live = degrees > 0

    def level_row(step):
        if isinstance(tree, np.ndarray):
            return np.asarray(tree[step], dtype=np.float64)
        nodes, probs = tree.level_arrays(step)
        row = np.zeros(n, dtype=np.float64)
        row[nodes] = probs
        return row

    table = np.zeros((l_max + 1, n), dtype=np.float64)
    for step in range(l_max - 1, -1, -1):
        values = level_row(step + 1) + table[step + 1]
        gathered = values[indices]
        if weighted:
            gathered = gathered * weights
        sums = np.array(
            [
                np.add.reduceat(gathered[lo:hi], [0])[0] if hi > lo else 0.0
                for lo, hi in zip(indptr[:-1], indptr[1:])
            ]
        )
        g = np.zeros(n, dtype=np.float64)
        np.divide(sums, denom, out=g, where=live)
        g *= math.sqrt(c)
        g[~live] = 0.0
        table[step] = g
    return table


@st.composite
def recursion_cases(draw):
    """A graph in two disconnected parts plus trailing isolated nodes.

    Arcs may be self-loops; a node without in-arcs is dangling.  Weighted
    cases draw zero weights often, so whole in-blocks weigh zero (the
    graph is a :class:`CsrGraphView`: ``DiGraph`` refuses zero weights).
    The tree is a random sparse-ish ``U`` matrix, given dense or sparse.
    """
    sizes = (draw(st.integers(1, 6)), draw(st.integers(0, 6)))
    n = sizes[0] + sizes[1] + draw(st.integers(0, 3))
    arcs = set()
    offset = 0
    for size in sizes:
        if size:
            pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
            for s, t in draw(st.lists(pairs, max_size=3 * size)):
                arcs.add((offset + s, offset + t))
        offset += size
    arcs = sorted(arcs, key=lambda arc: (arc[1], arc[0]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([t for _, t in arcs], minlength=n), out=indptr[1:])
    indices = np.array([s for s, _ in arcs], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]),
                    min_size=len(arcs),
                    max_size=len(arcs),
                )
            ),
            dtype=np.float64,
        )
    l_max = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.random((l_max + 1, n)) * (rng.random((l_max + 1, n)) < 0.6)
    c = draw(st.sampled_from([0.36, 0.6, 0.8]))
    return CsrGraphView(n, indptr, indices, weights), matrix, l_max, c


def sparse_tree(matrix, l_max):
    levels = [(np.flatnonzero(row), row[np.flatnonzero(row)]) for row in matrix]
    return SparseReverseTree.from_levels(0, 0.6, l_max, "corrected", matrix.shape[1], levels)


class TestHubRecursionOracle:
    """The rolling recursion gives the oracle's bits, hub tails and ``g_0``."""

    @settings(max_examples=150, deadline=None)
    @given(recursion_cases(), st.booleans())
    def test_bit_equal_to_oracle(self, case, dense):
        graph, matrix, l_max, c = case
        tree = matrix if dense else sparse_tree(matrix, l_max)
        table = oracle_remainders(graph, tree, l_max, c)
        exact = exact_expectation(graph, tree, l_max=l_max, c=c)
        assert np.array_equal(exact, table[0])
        cache = build_hub_cache(
            graph, tree, l_max=l_max, c=c, num_hubs=graph.num_nodes
        )
        if cache is None:
            assert not graph.in_indices.size
            return
        assert np.array_equal(cache.tails, table[:, cache.hubs])

    def test_last_in_block_before_dangling_nodes_is_whole(self):
        # Node 2's in-block {0, 1} is the last non-empty one, and nodes 3
        # and 4 trail it with no in-arcs: its last arc (from 1) must count.
        g = DiGraph.from_edges(5, [(0, 2), (1, 2), (2, 0), (2, 1)])
        params = CrashSimParams()
        trees = [
            revreach_levels(g, s, params.l_max, params.c).matrix
            for s in range(g.num_nodes)
        ]
        stacked = np.stack(trees)
        oracle = np.einsum("ulk,vlk->uv", stacked, stacked)
        tree = revreach_levels(g, 0, params.l_max, params.c)
        exact = exact_expectation(g, tree, l_max=params.l_max, c=params.c)
        np.testing.assert_allclose(exact[1:], oracle[0][1:], atol=1e-12)


class TestAdaptiveEndToEnd:
    def test_stops_early_within_epsilon(self, graph, tree):
        result = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        assert result.stopped_early
        assert not result.degraded
        assert result.trials_completed < result.n_r // 2
        assert result.achieved_epsilon <= EPS
        exact = exact_expectation(graph, tree, l_max=PARAMS.l_max, c=PARAMS.c)
        dense = np.zeros(graph.num_nodes)
        dense[result.candidates] = result.scores
        walkable = np.flatnonzero(graph.in_degrees() > 0)
        walkable = walkable[walkable != 3]
        assert np.abs(dense[walkable] - exact[walkable]).max() <= EPS

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_across_tiers(self, graph, mode, workers):
        serial = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        parallel = parallel_crashsim(
            graph, 3, params=PARAMS, seed=42, workers=workers, mode=mode,
            adaptive=True,
        )
        assert np.array_equal(serial.scores, parallel.scores)
        assert serial.trials_completed == parallel.trials_completed
        assert serial.stopped_early == parallel.stopped_early
        assert serial.achieved_epsilon == parallel.achieved_epsilon

    def test_jit_toggle_does_not_change_bits(self, graph, monkeypatch):
        baseline = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        monkeypatch.setenv("REPRO_JIT", "1")
        toggled = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        assert np.array_equal(baseline.scores, toggled.scores)
        assert baseline.trials_completed == toggled.trials_completed

    def test_multi_source_identical_serial_vs_parallel(self, graph):
        sources = [3, 7, 11]
        serial = crashsim_multi_source(
            graph, sources, params=PARAMS, seed=99, adaptive=True
        )
        for mode in ("thread", "process"):
            parallel = parallel_crashsim_multi_source(
                graph, sources, params=PARAMS, seed=99, workers=2, mode=mode,
                adaptive=True,
            )
            for a, b in zip(serial, parallel):
                assert np.array_equal(a.scores, b.scores)
                assert a.trials_completed == b.trials_completed
                assert a.stopped_early == b.stopped_early

    def test_multi_source_crn_shares_one_trial_budget(self, graph):
        # CRN design: all sources stop together on the shared walk stream,
        # so every per-source result reports the same trial count.
        results = crashsim_multi_source(
            graph, [3, 7, 11], params=PARAMS, seed=99, adaptive=True
        )
        counts = {r.trials_completed for r in results}
        assert len(counts) == 1
        assert counts.pop() < results[0].n_r

    def test_non_adaptive_path_untouched(self, graph):
        fixed = crashsim(graph, 3, params=PARAMS, seed=42)
        again = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=False)
        assert np.array_equal(fixed.scores, again.scores)
        assert fixed.trials_completed == fixed.n_r
        assert not fixed.stopped_early

    def test_first_meeting_not_supported(self, graph):
        with pytest.raises(ParameterError):
            crashsim(
                graph, 3, params=PARAMS, seed=1, adaptive=True,
                first_meeting="reset",
            )

    def test_api_guard_non_crashsim_method(self, graph):
        with pytest.raises(ParameterError):
            single_source(graph, 3, method="naive-mc", adaptive=True)

    def test_api_carries_stopped_early(self, graph):
        scores = single_source(
            graph, 3, epsilon=EPS, seed=42, adaptive=True
        )
        assert scores.stopped_early
        assert not scores.degraded
        assert scores.achieved_epsilon <= EPS
        direct = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        dense = np.zeros(graph.num_nodes)
        dense[direct.candidates] = direct.scores
        dense[3] = 1.0
        assert np.array_equal(np.asarray(scores), dense)

    def test_deadline_composes_without_changing_bits(self, graph):
        # A generous deadline must not perturb the adaptive plan: the run
        # converges before the budget matters and returns full quality.
        plain = parallel_crashsim(
            graph, 3, params=PARAMS, seed=42, workers=2, mode="thread",
            adaptive=True,
        )
        bounded = parallel_crashsim(
            graph, 3, params=PARAMS, seed=42, workers=2, mode="thread",
            adaptive=True, deadline=60.0,
        )
        assert np.array_equal(plain.scores, bounded.scores)
        assert bounded.stopped_early and not bounded.degraded
        assert bounded.trials_completed == plain.trials_completed


class TestAdaptiveDegradation:
    def test_lost_shards_degrade_with_honest_metadata(self, graph):
        # ε far below what 64 trials can certify → the stopper never
        # converges; one persistently failing shard loses 4 trials and the
        # result must say so, with the Chernoff-capped honest ε.
        params = CrashSimParams(epsilon=0.025, n_r_override=64)
        with faults.active({"shard": {"1": {"kind": "raise", "times": 99}}}):
            with pytest.warns(DegradedResultWarning):
                result = parallel_crashsim(
                    graph, 3, params=params, seed=123, workers=2,
                    mode="thread", shards=16, adaptive=True,
                )
        assert result.degraded
        assert not result.stopped_early
        assert result.trials_completed == 60
        assert (
            result.achieved_epsilon
            <= params.achieved_epsilon(graph.num_nodes, 60)
        )

    def test_serial_adaptive_degrades_like_the_sharded_driver(self, graph):
        # Serial adaptive is the workers=1 case of the sharded driver, so a
        # persistently failing shard degrades it the same way.  ε is too
        # tight for 2,000 trials (12 autotuned shards) to converge.
        params = CrashSimParams(epsilon=0.005, n_r_override=2000)
        with faults.active({"shard": {"1": {"kind": "raise", "times": 99}}}):
            with pytest.warns(DegradedResultWarning):
                serial = crashsim(graph, 3, params=params, seed=42, adaptive=True)
            with pytest.warns(DegradedResultWarning):
                sharded = parallel_crashsim(
                    graph, 3, params=params, seed=42, workers=2,
                    mode="thread", adaptive=True,
                )
        assert serial.degraded and not serial.stopped_early
        assert serial.trials_completed == 2000 - 167
        assert np.array_equal(serial.scores, sharded.scores)
        assert serial.achieved_epsilon == sharded.achieved_epsilon

    def test_serial_adaptive_with_no_completed_trial_raises(self, graph):
        # One shard (n_r=64 on 300 nodes) that never completes: nothing to
        # degrade to, so the shard's error surfaces.
        params = CrashSimParams(epsilon=0.025, n_r_override=64)
        with faults.active({"shard": {"0": {"kind": "raise", "times": 99}}}):
            with pytest.raises(faults.InjectedFault):
                crashsim(graph, 3, params=params, seed=42, adaptive=True)

    def test_exhausted_run_not_degraded(self, graph):
        # Too few trials to converge, but none lost: the run is honest
        # about the wider ε yet is NOT degraded — it did everything asked.
        params = CrashSimParams(epsilon=0.025, n_r_override=64)
        result = parallel_crashsim(
            graph, 3, params=params, seed=123, workers=2, mode="thread",
            shards=16, adaptive=True,
        )
        assert not result.degraded
        assert not result.stopped_early
        assert result.trials_completed == 64
        assert result.achieved_epsilon > params.epsilon


class TestAdaptiveMetrics:
    def test_stop_counters_advance(self, graph):
        from repro import obs

        rounds = obs.REGISTRY.counter("repro_adaptive_rounds_total")
        saved = obs.REGISTRY.counter("repro_adaptive_trials_saved_total")
        stops = obs.REGISTRY.counter("repro_adaptive_stops_total")
        before = (rounds.value, saved.value, stops.value)
        result = crashsim(graph, 3, params=PARAMS, seed=42, adaptive=True)
        assert rounds.value > before[0]
        assert saved.value - before[1] == result.n_r - result.trials_completed
        assert stops.value == before[2] + 1
        assert (
            stops.labels(reason="converged").value > 0
        )


class TestEngineAdaptive:
    # Deadline-less queries run the serial adaptive driver; a generous
    # deadline runs it sharded on the engine's executor.  Both must equal
    # the direct call bit for bit.
    @pytest.mark.parametrize("deadline", [None, 60.0])
    def test_engine_matches_direct_call(self, graph, deadline):
        from repro.serve import Engine, EngineConfig

        config = EngineConfig(epsilon=EPS, seed=11, adaptive=True, workers=2)
        engine = Engine(graph, config)
        try:
            answer = engine.query(3, seed=42, deadline=deadline)
        finally:
            engine.close()
        direct = single_source(graph, 3, epsilon=EPS, seed=42, adaptive=True)
        assert np.array_equal(np.asarray(answer.scores), np.asarray(direct))
        assert answer.scores.stopped_early
        assert answer.scores.trials_completed == direct.trials_completed
