"""Fused walk–crash kernel: bit-identity, alias sampling, regressions.

The kernel's contract has two halves:

* with the default ``sampler="cdf"`` it must reproduce the historical
  generator-driven accumulation (`accumulate_crash_totals_reference`)
  **bit for bit** — same RNG draw order, same float operation order;
* with ``sampler="alias"`` it draws neighbours through per-node alias
  tables — a *different* (but exactly distributed) stream, checked here
  by exact pmf reconstruction, a chi-square test, and end-to-end accuracy
  against the Power Method oracle.
"""

import math

import numpy as np
import pytest
import scipy.stats

from repro.baselines.power_method import power_method_all_pairs
from repro.core.crashsim import accumulate_crash_totals_reference, crashsim
from repro.core.params import CrashSimParams
from repro.core.revreach import revreach_levels
from repro.errors import ParameterError
from repro.graph.digraph import DiGraph, build_alias_tables
from repro.graph.generators import preferential_attachment
from repro.parallel.shared_graph import CsrGraphView
from repro.rng import ensure_rng
from repro.walks import _jit
from repro.walks.engine import BatchWalkStepper
from repro.walks.kernel import WalkCrashKernel

C = 0.6
L_MAX = 11


def weighted_graph(num_nodes=80, seed=6):
    base = preferential_attachment(num_nodes, 3, directed=True, seed=seed)
    rng = ensure_rng(seed + 1)
    arcs = list(base.edges())
    weights = rng.uniform(0.5, 4.0, size=len(arcs))
    return DiGraph.from_edges(num_nodes, arcs, weights=weights)


def walkable_targets(graph):
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    return nodes[graph.in_degrees()[nodes] > 0]


@pytest.fixture(scope="module")
def unweighted():
    return preferential_attachment(120, 3, directed=True, seed=5)


@pytest.fixture(scope="module")
def weighted():
    return weighted_graph()


def run_reference(graph, seed=42, walk_chunk=1 << 20, trials=48):
    tree = revreach_levels(graph, 0, L_MAX, C)
    targets = walkable_targets(graph)
    return accumulate_crash_totals_reference(
        graph,
        tree,
        targets,
        trials,
        c=C,
        l_max=L_MAX,
        rng=ensure_rng(seed),
        walk_chunk=walk_chunk,
    )


def run_kernel(graph, seed=42, walk_chunk=1 << 20, trials=48, **kernel_kwargs):
    tree = revreach_levels(graph, 0, L_MAX, C)
    targets = walkable_targets(graph)
    kernel = WalkCrashKernel(graph, C, **kernel_kwargs)
    return kernel.accumulate(
        tree,
        targets,
        trials,
        l_max=L_MAX,
        rng=ensure_rng(seed),
        walk_chunk=walk_chunk,
    )


class TestBitIdentity:
    """Default sampler must replay the generator path's exact bits."""

    def test_unweighted_matches_reference(self, unweighted):
        ref = run_reference(unweighted)
        fused = run_kernel(unweighted)
        assert np.array_equal(ref, fused)
        assert ref.sum() > 0  # non-degenerate run

    def test_weighted_cdf_matches_reference(self, weighted):
        ref = run_reference(weighted)
        fused = run_kernel(weighted, sampler="cdf")
        assert np.array_equal(ref, fused)
        assert ref.sum() > 0

    @pytest.mark.parametrize("walk_chunk", [64, 257, 1 << 20])
    def test_chunk_boundaries_preserve_stream(self, unweighted, walk_chunk):
        # The chunk layout (trials_per_chunk = max(1, walk_chunk // k)) is
        # part of the RNG-stream contract: both sides must chunk the same
        # way and stay identical at every boundary.
        ref = run_reference(unweighted, walk_chunk=walk_chunk)
        fused = run_kernel(unweighted, walk_chunk=walk_chunk)
        assert np.array_equal(ref, fused)

    def test_gather_fallback_bit_identical(self, weighted):
        # Budget 0 forces reads through tree.gather instead of cached dense
        # rows — the floats must be the very same bits either way.
        dense = run_kernel(weighted)
        sparse = run_kernel(weighted, dense_row_budget=0)
        assert np.array_equal(dense, sparse)

    def test_kernel_buffer_reuse_across_calls(self, unweighted):
        # A second accumulate on the same kernel (warm buffers) must match
        # a fresh kernel bit for bit — no state leaks between calls.
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        targets = walkable_targets(unweighted)
        kernel = WalkCrashKernel(unweighted, C)
        first = kernel.accumulate(
            tree, targets, 48, l_max=L_MAX, rng=ensure_rng(42)
        )
        warm = kernel.accumulate(
            tree, targets, 48, l_max=L_MAX, rng=ensure_rng(42)
        )
        assert np.array_equal(first, warm)
        assert np.array_equal(first, run_kernel(unweighted))

    def test_steps_processed_counts_live_steps(self, unweighted):
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        targets = walkable_targets(unweighted)
        kernel = WalkCrashKernel(unweighted, C)
        kernel.accumulate(tree, targets, 8, l_max=L_MAX, rng=ensure_rng(0))
        walks = 8 * targets.size
        assert walks <= kernel.steps_processed <= walks * L_MAX


class TestMultiSource:
    def test_single_tree_matches_accumulate(self, unweighted):
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        targets = walkable_targets(unweighted)
        single = WalkCrashKernel(unweighted, C).accumulate(
            tree, targets, 32, l_max=L_MAX, rng=ensure_rng(7)
        )
        multi = WalkCrashKernel(unweighted, C).accumulate_multi(
            [tree], targets, 32, l_max=L_MAX, rng=ensure_rng(7)
        )
        assert multi.shape == (1, targets.size)
        assert np.array_equal(single, multi[0])

    @pytest.mark.parametrize("graph_name", ["unweighted", "weighted"])
    def test_matches_shared_walk_reference(self, graph_name, request):
        # Reference: ONE walk stream (the generator path) scored against
        # every tree — the combined-key bincount must reproduce the
        # per-tree bincounts bit for bit.
        graph = request.getfixturevalue(graph_name)
        sources = [0, 3, 11]
        trees = [revreach_levels(graph, s, L_MAX, C) for s in sources]
        targets = walkable_targets(graph)
        trials = 24

        rng = ensure_rng(99)
        expected = np.zeros((len(trees), targets.size))
        stepper = BatchWalkStepper(graph, C)
        starts = np.tile(targets, trials)
        owner = np.tile(np.arange(targets.size, dtype=np.int64), trials)
        for batch in stepper.walk(starts, L_MAX, seed=rng):
            for row, tree in enumerate(trees):
                expected[row] += np.bincount(
                    owner[batch.walk_ids],
                    weights=tree.gather(batch.step, batch.positions),
                    minlength=targets.size,
                )

        got = WalkCrashKernel(graph, C).accumulate_multi(
            trees, targets, trials, l_max=L_MAX, rng=ensure_rng(99)
        )
        assert np.array_equal(expected, got)


ENTRY_POINTS = (
    "accumulate",
    "accumulate_multi",
    "accumulate_moments",
    "accumulate_multi_moments",
)


def call_entry(kernel, name, tree, targets, seed=42):
    """One call of entry point ``name``, its result flattened to one array."""
    trees = [tree] if "multi" in name else tree
    result = getattr(kernel, name)(
        trees, targets, 16, l_max=L_MAX, rng=ensure_rng(seed)
    )
    return np.stack(result) if isinstance(result, tuple) else result


class TestEntryGuard:
    """The gathers run unchecked, so bad input is refused at entry.

    Targets are range-checked against ``[0, num_nodes)`` and dense trees
    must carry one column per node; both raise ``IndexError`` before any
    buffer is touched, so the kernel's next call is unaffected.
    """

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("where", ["negative", "num_nodes"])
    def test_out_of_range_target_raises(self, unweighted, name, where):
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        targets = walkable_targets(unweighted)
        kernel = WalkCrashKernel(unweighted, C)
        before = call_entry(kernel, name, tree, targets)
        bad = targets.copy()
        bad[bad.size // 2] = -1 if where == "negative" else unweighted.num_nodes
        with pytest.raises(IndexError, match="out of bounds"):
            call_entry(kernel, name, tree, bad)
        after = call_entry(kernel, name, tree, targets)
        assert np.array_equal(before, after)
        assert before.sum() > 0

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("extra_columns", [-1, 1])
    def test_dense_tree_of_wrong_width_refused(self, unweighted, name, extra_columns):
        matrix = revreach_levels(unweighted, 0, L_MAX, C).matrix
        n = unweighted.num_nodes
        if extra_columns < 0:
            wrong = np.ascontiguousarray(matrix[:, : n - 1])
        else:
            wrong = np.hstack([matrix, np.zeros((matrix.shape[0], 1))])
        targets = walkable_targets(unweighted)
        kernel = WalkCrashKernel(unweighted, C)
        with pytest.raises(IndexError, match="column per node"):
            call_entry(kernel, name, wrong, targets)
        # The right width is accepted and scores like the sparse tree.
        sparse = revreach_levels(unweighted, 0, L_MAX, C)
        assert np.array_equal(
            call_entry(kernel, name, np.array(matrix), targets),
            call_entry(kernel, name, sparse, targets),
        )


class TestEntryPointsAgree:
    """The four entry points are one loop: their rows agree bit for bit.

    Row ``i`` of ``accumulate_multi`` is ``accumulate(trees[i])`` and row
    ``i`` of ``accumulate_multi_moments`` is ``accumulate_moments(trees[i])``
    under one seed, across chunk boundaries and on every sampler.
    """

    @pytest.mark.parametrize(
        "graph_name, sampler",
        [("unweighted", "cdf"), ("weighted", "cdf"), ("weighted", "alias")],
    )
    def test_multi_rows_match_single_tree_calls(self, graph_name, sampler, request):
        graph = request.getfixturevalue(graph_name)
        trees = [revreach_levels(graph, s, L_MAX, C) for s in (0, 3, 20)]
        targets = walkable_targets(graph)
        trials = 24
        walk_chunk = 5 * targets.size  # five trials a chunk: five chunks
        kernel = WalkCrashKernel(graph, C, sampler=sampler)

        def run(name, tree_or_trees, **extra):
            return getattr(kernel, name)(
                tree_or_trees,
                targets,
                trials,
                l_max=L_MAX,
                rng=ensure_rng(31),
                walk_chunk=walk_chunk,
                **extra,
            )

        multi = run("accumulate_multi", trees)
        multi_totals, multi_sumsq = run("accumulate_multi_moments", trees)
        assert multi.shape == multi_totals.shape == (len(trees), targets.size)
        for index, tree in enumerate(trees):
            assert np.array_equal(multi[index], run("accumulate", tree))
            totals, sumsq = run("accumulate_moments", tree, hub_cache=None)
            assert np.array_equal(multi_totals[index], totals)
            assert np.array_equal(multi_sumsq[index], sumsq)
            assert totals.sum() > 0


class TestAliasSampler:
    def test_tables_reconstruct_exact_pmf(self, weighted):
        # P(pick local neighbour i at node u) =
        #   (prob[i] + Σ_{j : alias[j] == i} (1 - prob[j])) / deg(u)
        # must equal w_i / W(u) for every node — the alias construction is
        # exact, not approximate.
        prob, alias = weighted.in_alias_tables()
        indptr = weighted.in_indptr
        weights = weighted.in_weights
        totals = weighted.in_weight_totals()
        for node in range(weighted.num_nodes):
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            degree = hi - lo
            if degree == 0:
                continue
            pmf = prob[lo:hi].copy()
            for j in range(degree):
                pmf[alias[lo + j]] += 1.0 - prob[lo + j]
            pmf /= degree
            assert np.allclose(pmf, weights[lo:hi] / totals[node], atol=1e-12)

    def test_table_invariants(self, weighted):
        prob, alias = weighted.in_alias_tables()
        indptr = weighted.in_indptr
        assert np.all((prob >= 0.0) & (prob <= 1.0 + 1e-12))
        for node in range(weighted.num_nodes):
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            if hi > lo:
                assert np.all(alias[lo:hi] >= 0)
                assert np.all(alias[lo:hi] < hi - lo)

    def test_tables_cached_and_readonly(self, weighted):
        first = weighted.in_alias_tables()
        second = weighted.in_alias_tables()
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable

    def test_one_draw_trick_chi_square(self):
        # Replay the kernel's one-draw sampling rule against a skewed
        # 5-neighbour node and chi-square the empirical counts.
        weights = np.array([5.0, 1.0, 0.25, 2.75, 1.0])
        indptr = np.array([0, weights.size], dtype=np.int64)
        prob, alias = build_alias_tables(
            indptr, weights, np.array([weights.sum()])
        )
        rng = ensure_rng(2024)
        draws = rng.random(200_000)
        u = draws * weights.size
        cell = u.astype(np.int64)
        np.minimum(cell, weights.size - 1, out=cell)
        frac = u - cell
        reject = frac >= prob[cell]
        cell[reject] = alias[cell[reject]]
        counts = np.bincount(cell, minlength=weights.size)
        expected = weights / weights.sum() * draws.size
        result = scipy.stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3

    def test_crashsim_alias_known_value(self):
        # sim(0, 1) = c · 3/4 on the skewed two-candidate graph.
        graph = DiGraph.from_edges(
            4, [(2, 0), (3, 0), (2, 1)], weights=[3.0, 1.0, 1.0]
        )
        params = CrashSimParams(c=0.6, epsilon=0.05, n_r_override=5000)
        result = crashsim(graph, 0, params=params, seed=1, sampler="alias")
        assert result.score(1) == pytest.approx(0.45, abs=0.03)

    def test_alias_matches_power_method(self, weighted):
        # Theorem-1 style end-to-end accuracy with the alias stream.
        truth = power_method_all_pairs(weighted, C)
        params = CrashSimParams(c=C, epsilon=0.05, n_r_override=1500)
        result = crashsim(weighted, 2, params=params, seed=7, sampler="alias")
        estimate = np.zeros(weighted.num_nodes)
        estimate[result.candidates] = result.scores
        estimate[2] = 1.0
        assert np.abs(truth[2] - estimate).max() < 0.06

    def test_alias_ignored_on_unweighted(self, unweighted):
        # Unweighted sampling is already O(1); alias must be a no-op there
        # and keep the default stream's exact bits.
        assert np.array_equal(
            run_kernel(unweighted),
            run_kernel(unweighted, sampler="alias"),
        )

    def test_unknown_sampler_rejected(self, unweighted):
        with pytest.raises(ParameterError):
            WalkCrashKernel(unweighted, C, sampler="bogus")

    def test_alias_tables_on_unweighted_graph_rejected(self, unweighted):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            unweighted.in_alias_tables()


class TestZeroWeightTotals:
    """A node whose in-weights sum to zero must behave as dangling.

    ``DiGraph`` validation rejects non-positive weights, so the regression
    is only reachable through the duck-typed CSR protocol (attached shared
    memory, external loaders) — exactly where the old CDF clamp silently
    collapsed the choice onto the block's first neighbour.
    """

    @staticmethod
    def zero_total_view():
        # Node 0 has two in-neighbours but zero total weight; node 1 has a
        # normal weighted block.
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        indices = np.array([1, 2, 2], dtype=np.int64)
        weights = np.array([0.0, 0.0, 2.0])
        return CsrGraphView(3, indptr, indices, weights)

    def test_stepper_kills_walks(self):
        stepper = BatchWalkStepper(self.zero_total_view(), C)
        batches = list(
            stepper.walk(np.zeros(64, dtype=np.int64), 5, seed=ensure_rng(0))
        )
        assert batches == []

    @pytest.mark.parametrize("sampler", ["cdf", "alias"])
    def test_kernel_accumulates_nothing(self, sampler):
        view = self.zero_total_view()
        kernel = WalkCrashKernel(view, C, sampler=sampler)
        tree = np.full((6, 3), 0.5)  # every crash would score if reached
        totals = kernel.accumulate(
            tree,
            np.zeros(1, dtype=np.int64),
            64,
            l_max=5,
            rng=ensure_rng(0),
        )
        assert np.array_equal(totals, np.zeros(1))

    @pytest.mark.parametrize("sampler", ["cdf", "alias"])
    def test_healthy_node_unaffected(self, sampler):
        # Node 1's positive-weight block keeps walking: one step from 1
        # always reaches 2 (its only in-neighbour) when the coin survives.
        view = self.zero_total_view()
        kernel = WalkCrashKernel(view, C, sampler=sampler)
        tree = np.zeros((6, 3))
        tree[1, 2] = 1.0  # crash value only at node 2, step 1
        totals = kernel.accumulate(
            tree,
            np.ones(1, dtype=np.int64),
            512,
            l_max=5,
            rng=ensure_rng(0),
        )
        # ≈ √c of 512 trials survive the first coin and land on node 2.
        assert totals[0] == pytest.approx(512 * math.sqrt(C), rel=0.1)


class TestDegreeCache:
    def test_in_degrees64_cached_and_readonly(self, unweighted):
        degrees = unweighted.in_degrees64()
        assert degrees is unweighted.in_degrees64()
        assert degrees.dtype == np.int64
        assert not degrees.flags.writeable
        assert np.array_equal(degrees, unweighted.in_degrees())

    def test_stepper_reuses_cached_degrees(self, unweighted):
        stepper = BatchWalkStepper(unweighted, C)
        assert stepper._degrees is unweighted.in_degrees64()

    def test_kernel_reuses_cached_degrees(self, unweighted):
        kernel = WalkCrashKernel(unweighted, C)
        assert kernel._degrees is unweighted.in_degrees64()

    def test_weighted_zero_fix_copies_before_writing(self):
        # The dangling fix must not mutate the shared cached array.
        view = TestZeroWeightTotals.zero_total_view()
        cached = view.in_degrees64()
        before = cached.copy()
        BatchWalkStepper(view, C)
        WalkCrashKernel(view, C)
        assert np.array_equal(cached, before)


class TestJitGating:
    def test_forced_jit_without_numba_raises(self, unweighted):
        if _jit.available():
            pytest.skip("numba installed; force-failure leg not applicable")
        with pytest.raises(ParameterError):
            WalkCrashKernel(unweighted, C, use_jit=True)

    def test_env_toggle_falls_back_silently(self, unweighted, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        kernel = WalkCrashKernel(unweighted, C)
        if not _jit.available():
            assert not kernel.use_jit
        ref = run_kernel(unweighted, use_jit=False)
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        targets = walkable_targets(unweighted)
        out = kernel.accumulate(
            tree, targets, 48, l_max=L_MAX, rng=ensure_rng(42)
        )
        assert np.array_equal(ref, out)

    @pytest.mark.skipif(not _jit.available(), reason="numba not installed")
    @pytest.mark.parametrize(
        "graph_name,sampler",
        [("unweighted", "cdf"), ("weighted", "cdf"), ("weighted", "alias")],
    )
    def test_jit_bit_identical(self, graph_name, sampler, request):
        graph = request.getfixturevalue(graph_name)
        pure = run_kernel(graph, sampler=sampler, use_jit=False)
        jitted = run_kernel(graph, sampler=sampler, use_jit=True)
        assert np.array_equal(pure, jitted)


class _CountingTree:
    """Delegating tree proxy that counts ``gather`` calls."""

    def __init__(self, tree):
        self._tree = tree
        self.gather_calls = 0

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def gather(self, step, positions):
        self.gather_calls += 1
        return self._tree.gather(step, positions)


class TestDenseRowBudget:
    """The dense U-row cache is all-or-nothing at ``dense_row_budget``.

    ``(l_max + 1) · n · 8`` bytes buys every level row; one byte less and
    every crash read falls back to ``tree.gather``.  The
    ``repro_kernel_dense_row_{hits,misses}_total`` counters must reconcile
    exactly with the gather calls actually made.
    """

    def _run(self, graph, budget):
        from repro import obs

        hits = obs.REGISTRY.counter("repro_kernel_dense_row_hits_total")
        misses = obs.REGISTRY.counter("repro_kernel_dense_row_misses_total")
        tree = _CountingTree(revreach_levels(graph, 0, L_MAX, C))
        targets = walkable_targets(graph)
        kernel = WalkCrashKernel(graph, C, dense_row_budget=budget)
        before = (hits.value, misses.value)
        totals = kernel.accumulate(
            tree, targets, 48, l_max=L_MAX, rng=ensure_rng(42)
        )
        return (
            totals,
            hits.value - before[0],
            misses.value - before[1],
            tree.gather_calls,
        )

    def test_exact_budget_caches_every_row(self, unweighted):
        budget = (L_MAX + 1) * unweighted.num_nodes * 8
        totals, hits, misses, gathers = self._run(unweighted, budget)
        assert hits > 0
        assert misses == 0
        assert gathers == 0

    def test_one_byte_short_falls_back_to_gather(self, unweighted):
        budget = (L_MAX + 1) * unweighted.num_nodes * 8 - 1
        totals, hits, misses, gathers = self._run(unweighted, budget)
        assert hits == 0
        assert misses > 0
        assert misses == gathers

    def test_budget_boundary_preserves_bits(self, unweighted):
        full = (L_MAX + 1) * unweighted.num_nodes * 8
        cached, *_ = self._run(unweighted, full)
        fallback, *_ = self._run(unweighted, full - 1)
        assert np.array_equal(cached, fallback)

    def test_hub_cache_bytes_charged_against_budget(self, unweighted):
        # accumulate_moments deducts the hub cache's bytes first: a budget
        # that exactly fits rows + hub cache keeps the dense rows; one
        # byte less evicts them (misses), without changing the answer.
        from repro import obs
        from repro.core.adaptive import build_hub_cache

        hits_c = obs.REGISTRY.counter("repro_kernel_dense_row_hits_total")
        miss_c = obs.REGISTRY.counter("repro_kernel_dense_row_misses_total")
        tree = revreach_levels(unweighted, 0, L_MAX, C)
        hub_cache = build_hub_cache(
            unweighted, tree, l_max=L_MAX, c=C, num_hubs=8
        )
        targets = walkable_targets(unweighted)
        rows_bytes = (L_MAX + 1) * unweighted.num_nodes * 8
        outputs = []
        deltas = []
        for budget in (
            rows_bytes + hub_cache.nbytes,
            rows_bytes + hub_cache.nbytes - 1,
        ):
            kernel = WalkCrashKernel(unweighted, C, dense_row_budget=budget)
            before = (hits_c.value, miss_c.value)
            outputs.append(
                kernel.accumulate_moments(
                    tree,
                    targets,
                    48,
                    l_max=L_MAX,
                    rng=ensure_rng(42),
                    hub_cache=hub_cache,
                )
            )
            deltas.append((hits_c.value - before[0], miss_c.value - before[1]))
        assert deltas[0][0] > 0 and deltas[0][1] == 0
        assert deltas[1][0] == 0 and deltas[1][1] > 0
        assert np.array_equal(outputs[0][0], outputs[1][0])
        assert np.array_equal(outputs[0][1], outputs[1][1])
