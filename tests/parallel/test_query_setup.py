"""One query, one setup: the dense ``U`` matrix, and clean query ends.

A sharded single-source query builds its dense ``U`` matrix once and
shares it with every round and shard.  That may not move a score bit:

* the matrix path gives the bits of the sparse path (the budget fallback)
  and the bits recorded before the matrix existed, at every worker count,
  for adaptive and fixed queries, on unweighted and weighted (cdf and
  alias) graphs;
* one matrix serves every round of an adaptive query;
* a query leaves no pool thread behind once its executor is closed,
  whether it ends normally, through a raising shard, or at a deadline; a query cut off by its deadline
  leaves its executor fit for the next query, which still gets the
  pinned bits;
* an interpreter that ran pooled queries exits without a
  ``resource_tracker`` complaint about leaked or missing segments.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

from repro import faults
from repro.core.params import CrashSimParams
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.core.revreach import revreach_levels
from repro.parallel import (
    ParallelExecutor,
    parallel_crashsim,
    reset_default_executors,
    runner,
)

ADAPTIVE = CrashSimParams(epsilon=0.05)
FIXED = CrashSimParams(n_r_override=96)
SHARDS = 64
#: Node 9 stops early after four rounds of the 64-shard plan.
SOURCE = 9

#: sha256 prefixes of ``scores.tobytes()`` for each (graph, query), as
#: recorded before queries built a dense matrix.  The worker count never
#: changes them.
PINNED = {
    ("unweighted", "adaptive"): "4bbbe722e842b906",
    ("unweighted", "fixed"): "3340e557d9f33550",
    ("weighted-cdf", "adaptive"): "ed5b8413831299bd",
    ("weighted-cdf", "fixed"): "30797c2fb16597f6",
    ("weighted-alias", "adaptive"): "4b100cc4430b1605",
    ("weighted-alias", "fixed"): "e67ab0792be49de0",
}

WORKERS = [1, 2, 4]


def make_graph(kind):
    base = erdos_renyi(300, 1500, seed=5)
    if kind == "unweighted":
        return base
    edges = [(int(s), int(t)) for s, t in base.edges()]
    weights = np.random.default_rng(8).uniform(0.1, 5.0, size=len(edges))
    return DiGraph.from_edges(300, edges, weights=weights)


@pytest.fixture(scope="module")
def graphs():
    weighted = make_graph("weighted")
    return {
        "unweighted": make_graph("unweighted"),
        "weighted-cdf": weighted,
        "weighted-alias": weighted,
    }


@pytest.fixture(scope="class")
def executors():
    pool = {workers: ParallelExecutor(workers) for workers in WORKERS}
    yield pool
    for executor in pool.values():
        executor.close()


def query(graph, kind, adaptive, executor):
    return parallel_crashsim(
        graph,
        SOURCE,
        params=ADAPTIVE if adaptive else FIXED,
        adaptive=adaptive,
        seed=17,
        executor=executor,
        shards=SHARDS,
        sampler="alias" if kind == "weighted-alias" else "cdf",
    )


def digest(result):
    return hashlib.sha256(result.scores.tobytes()).hexdigest()[:16]


@pytest.fixture
def fills(monkeypatch):
    """Count the dense matrices the queries build."""
    calls = []
    fill = runner._fill_matrix

    def spy(tree, matrix):
        calls.append(matrix.shape)
        return fill(tree, matrix)

    monkeypatch.setattr(runner, "_fill_matrix", spy)
    return calls


class TestSharedMatrixIdentity:
    @pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"w{w}")
    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("kind", ["unweighted", "weighted-cdf", "weighted-alias"])
    def test_matrix_path_bits_match_sparse_path_and_pinned(
        self, graphs, executors, monkeypatch, fills, kind, adaptive, workers
    ):
        graph = graphs[kind]
        l_max = (ADAPTIVE if adaptive else FIXED).l_max
        shared = query(graph, kind, adaptive, executors[workers])
        assert fills == [(l_max + 1, graph.num_nodes)]
        # A budget one byte short of the matrix keeps the sparse tree.
        matrix_bytes = (l_max + 1) * graph.num_nodes * 8
        monkeypatch.setattr(runner, "DEFAULT_DENSE_ROW_BUDGET", matrix_bytes - 1)
        sparse = query(graph, kind, adaptive, executors[workers])
        assert len(fills) == 1
        assert np.array_equal(shared.scores, sparse.scores)
        assert shared.trials_completed == sparse.trials_completed
        label = "adaptive" if adaptive else "fixed"
        assert digest(shared) == PINNED[(kind, label)]

    def test_single_shard_fixed_query_keeps_the_sparse_tree(self, graphs, fills):
        result = parallel_crashsim(
            graphs["unweighted"], SOURCE, params=FIXED, seed=17, workers=1, shards=1
        )
        assert fills == []
        assert result.trials_completed == FIXED.n_r(300)

    def test_hub_cache_bytes_count_against_the_budget(
        self, graphs, monkeypatch, fills
    ):
        # The adaptive matrix must fit beside the hub cache, as dense rows
        # had to in the kernel: a budget that fits the matrix alone is
        # not enough.
        graph = graphs["unweighted"]
        matrix_bytes = (ADAPTIVE.l_max + 1) * graph.num_nodes * 8
        monkeypatch.setattr(runner, "DEFAULT_DENSE_ROW_BUDGET", matrix_bytes)
        query(graph, "unweighted", True, None)
        assert fills == []

    def test_engine_lru_tree_gets_no_cached_matrix(self, graphs):
        graph = graphs["unweighted"]
        tree = revreach_levels(graph, SOURCE, ADAPTIVE.l_max, ADAPTIVE.c)
        parallel_crashsim(
            graph, SOURCE, params=ADAPTIVE, adaptive=True, seed=1, workers=1,
            shards=SHARDS, tree=tree,
        )
        assert tree._dense is None

    @pytest.mark.parametrize("kind", ["unweighted", "weighted-cdf"])
    def test_matrix_rows_match_the_tree_gather(self, graphs, kind):
        # Every shard reads U[step, node] from the matrix where it used to
        # gather from the sparse tree: the two reads must agree bit for
        # bit at every level and node.
        graph = graphs[kind]
        tree = revreach_levels(graph, SOURCE, ADAPTIVE.l_max, ADAPTIVE.c)
        matrix = np.zeros((ADAPTIVE.l_max + 1, graph.num_nodes))
        filled = runner._fill_matrix(tree, matrix)
        assert filled is matrix
        positions = np.arange(graph.num_nodes, dtype=np.int64)
        for step in range(ADAPTIVE.l_max + 1):
            assert np.array_equal(matrix[step], tree.gather(step, positions))
        assert tree._dense is None


# ----------------------------------------------------------------------
# Clean query ends
# ----------------------------------------------------------------------


def pool_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-exec")
    }


@pytest.fixture
def query_ends_clean():
    """Fail if a pool thread started here outlives the test.

    Pool threads end once ``reset_default_executors()`` closes their
    executor; one abandoned at a deadline ends when its stalled shard
    does, so the check polls briefly.
    """
    threads = pool_threads()
    yield
    reset_default_executors()
    give_up = time.monotonic() + 15.0
    while pool_threads() - threads and time.monotonic() < give_up:
        time.sleep(0.05)
    assert pool_threads() - threads == set()


def adaptive_query(graph, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parallel_crashsim(
            graph, SOURCE, params=ADAPTIVE, adaptive=True, seed=17, workers=2,
            shards=SHARDS, **kwargs,
        )


@pytest.mark.usefixtures("query_ends_clean")
class TestQueryEnds:
    def test_one_matrix_serves_every_round(self, graphs, monkeypatch, fills):
        dispatches = []
        dispatch = runner._dispatch

        def count(*args):
            dispatches.append(len(args[2]))
            return dispatch(*args)

        monkeypatch.setattr(runner, "_dispatch", count)
        graph = graphs["unweighted"]
        result = adaptive_query(graph)
        assert fills == [(ADAPTIVE.l_max + 1, graph.num_nodes)]
        assert len(dispatches) >= 2
        assert sum(dispatches) <= SHARDS
        assert result.trials_completed > 0
        assert digest(result) == PINNED[("unweighted", "adaptive")]

    def test_normal_query(self, graphs):
        result = adaptive_query(graphs["weighted-cdf"])
        assert not result.degraded
        assert digest(result) == PINNED[("weighted-cdf", "adaptive")]

    def test_raising_shard(self, graphs):
        plan = {"shard": {"1": {"kind": "raise", "times": 32}}}
        with faults.active(plan) as markers:
            adaptive_query(graphs["unweighted"])
            assert (pathlib.Path(markers) / "shard-1-0").exists()

    def test_deadline_expiry_then_a_query_on_the_same_executor(self, graphs):
        # Shard 2 (round 2) stalls past the deadline, so the pool is
        # dropped with a thread still running it.  The next query on the
        # executor gets a fresh pool and the undisturbed bits.
        graph = graphs["unweighted"]
        plan = {"shard": {"2": {"kind": "delay", "seconds": 3.0}}}
        with faults.active(plan), ParallelExecutor(2) as executor:
            first = adaptive_query(graph, deadline=1.0, executor=executor)
            assert first.degraded
            again = adaptive_query(graph, executor=executor)
        assert digest(again) == PINNED[("unweighted", "adaptive")]

    def test_pooled_queries_leave_no_resource_tracker_warning(self):
        # A warmed pool, sixteen adaptive two-worker queries in a fresh
        # interpreter, then a normal exit: nothing may be reported leaked
        # or missing.  (Process workers that attached per-query segments
        # left hundreds of such lines here.)
        script = textwrap.dedent(
            """
            import warnings
            from repro import api
            from repro.graph.generators import erdos_renyi
            from repro.parallel import get_default_executor

            warnings.simplefilter("ignore")
            graph = erdos_renyi(300, 1500, seed=5)
            get_default_executor(2).map(abs, [-1, -2])
            for source in range(16):
                api.single_source(
                    graph, source, adaptive=True, epsilon=0.05, workers=2,
                    seed=source,
                )
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
