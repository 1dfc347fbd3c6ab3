"""Thread-tier execution: byte-identity, fault recovery, pools, autotuning.

The determinism contract (docs/internals.md §13) says the execution tier
can never touch a score bit: the shard plan defines the per-shard RNG
streams, totals are summed in shard order, so serial / thread / process
runs of the same plan are byte-identical.  This suite pins that for the
thread tier specifically, plus the machinery that makes threads worth
having: per-thread kernel pools, the persistent default executor, the
autotuned shard planner, and the mode-labelled executor metrics.

Thread-tier fault injection uses ``raise`` / ``delay`` kinds only — a
``kill`` fault SIGKILLs the *calling* process on the thread tier, which is
exactly why ``resolve_mode`` documentation steers chaos plans at processes.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.core.crashsim import crashsim
from repro.core.params import CrashSimParams
from repro.errors import DegradedResultWarning, ParameterError
from repro.graph.generators import erdos_renyi
from repro.parallel import (
    MAX_SHARDS,
    ParallelExecutor,
    get_default_executor,
    parallel_crashsim,
    parallel_crashsim_multi_source,
    plan_shards,
    reset_default_executors,
    resolve_mode,
)
from repro.walks.kernel import KernelPool, WalkCrashKernel

PARAMS = CrashSimParams(n_r_override=300)


@pytest.fixture(scope="module")
def random_graph():
    return erdos_renyi(120, 600, seed=5)


def to_hex(values):
    return [float.hex(float(v)) for v in values]


# ---------------------------------------------------------------------------
# Byte-identity: serial vs thread tier at several worker counts
# ---------------------------------------------------------------------------


class TestThreadTierIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_single_source_matches_serial(self, random_graph, workers):
        serial = parallel_crashsim(
            random_graph, 3, params=PARAMS, seed=42, workers=1
        )
        threaded = parallel_crashsim(
            random_graph, 3, params=PARAMS, seed=42, workers=workers,
            mode="thread",
        )
        assert to_hex(threaded.scores) == to_hex(serial.scores)
        assert np.array_equal(threaded.candidates, serial.candidates)

    def test_thread_matches_process_plan(self, random_graph):
        # Same explicit plan on both tiers ⇒ same bits (the tier only
        # decides *where* shards run, never which RNG stream they get).
        threaded = parallel_crashsim(
            random_graph, 0, params=PARAMS, seed=7, workers=2, mode="thread",
            shards=16,
        )
        with ParallelExecutor(2, mode="process") as executor:
            reference = parallel_crashsim(
                random_graph, 0, params=PARAMS, seed=7, executor=executor,
                shards=16,
            )
        assert to_hex(threaded.scores) == to_hex(reference.scores)

    def test_matches_classic_serial_estimator_layout(self, random_graph):
        # workers=1 and the thread tier share the shard decomposition, and
        # both differ from the unsharded crashsim() stream — the sharded
        # scheme is its own (documented) RNG layout.
        sharded = parallel_crashsim(
            random_graph, 5, params=PARAMS, seed=11, workers=2, mode="thread"
        )
        unsharded = crashsim(random_graph, 5, params=PARAMS, seed=11)
        assert sharded.scores.shape == unsharded.scores.shape
        # Statistically equivalent estimators: same walk targets, and both
        # within a loose tolerance of one another on a 300-trial run.
        assert np.allclose(sharded.scores, unsharded.scores, atol=0.12)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_source_matches_serial(self, random_graph, workers):
        serial = parallel_crashsim_multi_source(
            random_graph, [0, 3, 9], params=PARAMS, seed=13, workers=1
        )
        threaded = parallel_crashsim_multi_source(
            random_graph, [0, 3, 9], params=PARAMS, seed=13, workers=workers,
            mode="thread",
        )
        assert len(threaded) == len(serial)
        for ours, theirs in zip(threaded, serial):
            assert to_hex(ours.scores) == to_hex(theirs.scores)

    def test_jit_env_leg_matches_serial(self, random_graph, monkeypatch):
        # With REPRO_JIT=1, auto resolves to threads when numba is
        # importable and to processes otherwise; either way the bits match
        # the serial reference.  (The dedicated numba CI leg runs this with
        # the compiled stepper actually active.)
        serial = parallel_crashsim(
            random_graph, 3, params=PARAMS, seed=21, workers=1
        )
        monkeypatch.setenv("REPRO_JIT", "1")
        result = parallel_crashsim(
            random_graph, 3, params=PARAMS, seed=21, workers=2, mode="thread"
        )
        assert to_hex(result.scores) == to_hex(serial.scores)


# ---------------------------------------------------------------------------
# Fault injection on the thread tier (raise / delay kinds)
# ---------------------------------------------------------------------------


class TestThreadTierFaults:
    def test_in_shard_exception_retried_to_identity(self, random_graph):
        reference = parallel_crashsim(
            random_graph, 0, params=PARAMS, seed=42, workers=1, shards=16
        )
        plan = {"shard": {"5": {"kind": "raise", "times": 2}}}
        with faults.active(plan):
            result = parallel_crashsim(
                random_graph, 0, params=PARAMS, seed=42, workers=2,
                mode="thread", shards=16,
            )
        assert not result.degraded
        assert to_hex(result.scores) == to_hex(reference.scores)

    def test_persistent_shard_failure_degrades(self, random_graph):
        plan = {"shard": {"5": {"kind": "raise", "times": 32}}}
        with faults.active(plan):
            with pytest.warns(DegradedResultWarning):
                result = parallel_crashsim(
                    random_graph, 0, params=PARAMS, seed=42, workers=2,
                    mode="thread", shards=16,
                )
        assert result.degraded
        assert 0 < result.trials_completed < result.n_r


# ---------------------------------------------------------------------------
# Executor surface: mode resolution, properties, persistent defaults
# ---------------------------------------------------------------------------


class TestExecutorModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError):
            ParallelExecutor(2, mode="fibers")
        with pytest.raises(ParameterError):
            resolve_mode("fibers")

    def test_auto_resolves_to_concrete_tier(self):
        assert resolve_mode("auto") in ("thread", "process")
        assert resolve_mode("thread") == "thread"
        assert resolve_mode("process") == "process"

    def test_auto_prefers_threads_only_with_jit(self, monkeypatch):
        from repro.walks import _jit

        monkeypatch.setenv("REPRO_JIT", "1")
        expected = "thread" if _jit.available() else "process"
        assert resolve_mode("auto") == expected
        monkeypatch.delenv("REPRO_JIT", raising=False)
        assert resolve_mode("auto") == "process"

    def test_thread_executor_properties(self):
        with ParallelExecutor(2, mode="thread") as executor:
            assert executor.uses_threads
            assert not executor.uses_processes
            assert not executor.serial
            assert executor.mode_label == "thread"
            assert "thread" in repr(executor)

    def test_serial_executor_properties(self):
        executor = ParallelExecutor(1, mode="thread")
        assert executor.serial
        assert not executor.uses_threads
        assert not executor.uses_processes
        assert executor.mode_label == "serial"

    def test_thread_pool_actually_runs_tasks(self):
        with ParallelExecutor(2, mode="thread") as executor:
            idents = executor.map(lambda _: threading.get_ident(), range(8))
        assert len(idents) == 8

    def test_run_flushes_mode_labelled_metrics(self):
        with ParallelExecutor(2, mode="thread") as executor:
            executor.run(lambda x: x, [1, 2, 3])
        snapshot = obs.REGISTRY.snapshot()
        assert snapshot['repro_executor_runs_total{mode="thread"}'] >= 1
        assert snapshot['repro_executor_tasks_total{mode="thread"}'] >= 3


class TestDefaultExecutors:
    def test_same_key_returns_same_instance(self):
        reset_default_executors()
        try:
            first = get_default_executor(2, mode="thread")
            second = get_default_executor(2, mode="thread")
            assert first is second
            assert get_default_executor(2, mode="process") is not first
        finally:
            reset_default_executors()

    def test_reset_closes_and_forgets(self):
        executor = get_default_executor(2, mode="thread")
        reset_default_executors()
        assert executor.serial  # closed ⇒ pool gone
        assert get_default_executor(2, mode="thread") is not executor
        reset_default_executors()

    def test_drivers_share_the_default_executor(self, random_graph):
        reset_default_executors()
        try:
            parallel_crashsim(
                random_graph, 0, params=PARAMS, seed=1, workers=2,
                mode="thread",
            )
            executor = get_default_executor(2, mode="thread")
            assert not executor.serial  # still open: drivers never close it
            parallel_crashsim(
                random_graph, 0, params=PARAMS, seed=2, workers=2,
                mode="thread",
            )
            assert get_default_executor(2, mode="thread") is executor
        finally:
            reset_default_executors()


# ---------------------------------------------------------------------------
# Kernel pool
# ---------------------------------------------------------------------------


class TestKernelPool:
    def test_one_kernel_per_thread(self, random_graph):
        pool = KernelPool(lambda: WalkCrashKernel(random_graph, 0.6))
        seen = {}
        # All four threads must be alive at once: thread idents (the pool
        # key) are recycled by the OS after a thread exits.
        barrier = threading.Barrier(4)

        def grab():
            kernel = pool.get()
            barrier.wait(timeout=10)
            seen[threading.get_ident()] = kernel

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        kernels = list(seen.values())
        assert len(kernels) == 4
        assert len({id(kernel) for kernel in kernels}) == 4
        assert len(pool) == 4

    def test_same_thread_reuses_its_kernel(self, random_graph):
        pool = KernelPool(lambda: WalkCrashKernel(random_graph, 0.6))
        assert pool.get() is pool.get()
        assert len(pool) == 1


# ---------------------------------------------------------------------------
# Shard autotuning
# ---------------------------------------------------------------------------


class TestPlanShards:
    def test_small_query_collapses_to_one_shard(self):
        # The 120-node fixture query: parallel dispatch cannot win, so the
        # plan must not force 16 dispatches of ~1ms each.
        assert plan_shards(64, 119) == [64]

    def test_large_query_splits_to_cap(self):
        plan = plan_shards(512, 50_000)
        assert len(plan) == MAX_SHARDS
        assert sum(plan) == 512

    def test_plan_is_pure(self):
        assert plan_shards(512, 50_000) == plan_shards(512, 50_000)

    def test_zero_and_negative(self):
        assert plan_shards(0, 100) == []
        with pytest.raises(ParameterError):
            plan_shards(-1, 100)

    @given(
        n_trials=st.integers(min_value=0, max_value=100_000),
        num_targets=st.integers(min_value=0, max_value=1_000_000),
        n_r=st.one_of(st.none(), st.integers(min_value=1, max_value=100_000)),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_invariants(self, n_trials, num_targets, n_r):
        plan = plan_shards(n_trials, num_targets, n_r=n_r)
        # Conservation: every trial lands in exactly one shard.
        assert sum(plan) == n_trials
        # No empty shards, bounded count.
        assert all(size > 0 for size in plan)
        assert len(plan) <= min(MAX_SHARDS, max(n_trials, 1))
        # Near-equal split: the plan's RNG streams stay balanced.
        if plan:
            assert max(plan) - min(plan) <= 1
        # Purity / worker-count independence: the plan takes no worker or
        # machine input at all, so re-planning must reproduce it exactly.
        assert plan == plan_shards(n_trials, num_targets, n_r=n_r)

    def test_shard_plan_gauge_updates(self, random_graph):
        parallel_crashsim(
            random_graph, 0, params=PARAMS, seed=3, workers=1, shards=16
        )
        assert obs.REGISTRY.snapshot()["repro_shard_plan_size"] == 16


# ---------------------------------------------------------------------------
# Metrics registry labels (the mode= label machinery itself)
# ---------------------------------------------------------------------------


class TestMetricLabels:
    def test_labelled_child_renders_and_snapshots(self):
        from repro.obs.registry import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        counter = registry.counter("test_total", "help text")
        counter.inc(2)
        counter.labels(mode="thread").inc(3)
        counter.labels(mode="process").inc()
        snapshot = registry.snapshot()
        assert snapshot["test_total"] == 2
        assert snapshot['test_total{mode="thread"}'] == 3
        assert snapshot['test_total{mode="process"}'] == 1
        exposition = render_prometheus(registry)
        assert 'test_total{mode="thread"} 3' in exposition

    def test_labels_are_cached_children(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        gauge = registry.gauge("test_gauge", "help")
        child = gauge.labels(mode="thread")
        assert gauge.labels(mode="thread") is child
        child.set(4.5)
        assert registry.snapshot()['test_gauge{mode="thread"}'] == 4.5

    def test_invalid_label_values_rejected(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("test_bad", "help")
        with pytest.raises(ValueError):
            counter.labels(**{"bad name": "x"})
        with pytest.raises(ValueError):
            counter.labels(mode='quo"te')
