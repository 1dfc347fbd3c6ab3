"""One query, one setup: the dense ``U`` matrix and shared-memory hygiene.

A sharded single-source query builds its dense ``U`` matrix once and
shares it with every round and shard; on the process tier it publishes
graph, tree and targets once for the whole query.  Neither may move a
score bit:

* the matrix path gives the bits of the sparse path (the budget fallback)
  and the bits recorded before the matrix existed, on every tier and
  worker count, for adaptive and fixed queries, on unweighted and
  weighted (cdf and alias) graphs;
* a process-tier query creates one set of segments over all its rounds,
  and no ``repro-*`` segment outlives it, whether it ends normally, at a
  deadline, through a raising shard, or after a worker kill;
* no worker process outlives ``reset_default_executors()``.
"""

import hashlib
import multiprocessing
import pathlib
import time
import warnings

import numpy as np
import pytest

from repro import faults
from repro.core.params import CrashSimParams
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.parallel import (
    ParallelExecutor,
    parallel_crashsim,
    reset_default_executors,
    runner,
    shared_graph,
)

ADAPTIVE = CrashSimParams(epsilon=0.05)
FIXED = CrashSimParams(n_r_override=96)
SHARDS = 64
#: Node 9 stops early after four rounds of the 64-shard plan.
SOURCE = 9

#: sha256 prefixes of ``scores.tobytes()`` for each (graph, query), as
#: recorded before queries built a dense matrix.  Tier and worker count
#: never change them.
PINNED = {
    ("unweighted", "adaptive"): "4bbbe722e842b906",
    ("unweighted", "fixed"): "3340e557d9f33550",
    ("weighted-cdf", "adaptive"): "ed5b8413831299bd",
    ("weighted-cdf", "fixed"): "30797c2fb16597f6",
    ("weighted-alias", "adaptive"): "4b100cc4430b1605",
    ("weighted-alias", "fixed"): "e67ab0792be49de0",
}

TIERS = [("thread", 1), ("thread", 2), ("process", 1), ("process", 2)]


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
    pool = {tier: ParallelExecutor(tier[1], mode=tier[0]) for tier in TIERS}
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
    @pytest.mark.parametrize("tier", TIERS, ids=lambda t: f"{t[0]}-w{t[1]}")
    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("kind", ["unweighted", "weighted-cdf", "weighted-alias"])
    def test_matrix_path_bits_match_sparse_path_and_pinned(
        self, graphs, executors, monkeypatch, fills, kind, adaptive, tier
    ):
        graph = graphs[kind]
        l_max = (ADAPTIVE if adaptive else FIXED).l_max
        shared = query(graph, kind, adaptive, executors[tier])
        assert fills == [(l_max + 1, graph.num_nodes)]
        # A budget one byte short of the matrix keeps the sparse tree.
        matrix_bytes = (l_max + 1) * graph.num_nodes * 8
        monkeypatch.setattr(runner, "DEFAULT_DENSE_ROW_BUDGET", matrix_bytes - 1)
        sparse = query(graph, kind, adaptive, executors[tier])
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
        from repro.core.revreach import revreach_levels

        graph = graphs["unweighted"]
        tree = revreach_levels(graph, SOURCE, ADAPTIVE.l_max, ADAPTIVE.c)
        parallel_crashsim(
            graph, SOURCE, params=ADAPTIVE, adaptive=True, seed=1, workers=1,
            shards=SHARDS, tree=tree,
        )
        assert tree._dense is None


# ----------------------------------------------------------------------
# Shared-memory and process hygiene (process tier)
# ----------------------------------------------------------------------

SHM = pathlib.Path("/dev/shm")


def segments():
    return {path.name for path in SHM.glob("repro-*")}


@pytest.fixture
def shm_clean():
    """Fail if any ``repro-*`` segment made during the test survives it."""
    if not SHM.is_dir():
        pytest.skip("no /dev/shm on this platform")
    before = segments()
    yield
    assert segments() - before == set()


@pytest.fixture(scope="module")
def pool_available():
    probe = ParallelExecutor(2)
    serial = probe.serial
    probe.close()
    if serial:
        pytest.skip("process pools unavailable on this platform")


def workers_gone():
    """``reset_default_executors()`` leaves no worker process behind.

    A worker abandoned at a deadline exits once its stalled shard ends,
    so the check polls briefly.
    """
    reset_default_executors()
    give_up = time.monotonic() + 15.0
    while multiprocessing.active_children() and time.monotonic() < give_up:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def adaptive_query(graph, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parallel_crashsim(
            graph, SOURCE, params=ADAPTIVE, adaptive=True, seed=17, workers=2,
            mode="process", shards=SHARDS, **kwargs,
        )


@pytest.mark.usefixtures("pool_available", "shm_clean")
class TestSharedMemoryHygiene:
    def test_one_publication_serves_every_round(self, graphs, monkeypatch):
        created = []
        create = shared_graph.SharedArray._create

        def spy(self, *args):
            create(self, *args)
            created.append(self.spec.name)

        dispatches = []
        dispatch = runner._dispatch

        def count(*args):
            dispatches.append(args[1])
            return dispatch(*args)

        monkeypatch.setattr(shared_graph.SharedArray, "_create", spy)
        monkeypatch.setattr(runner, "_dispatch", count)
        result = adaptive_query(graphs["unweighted"])
        # Graph in-CSR (indptr, indices), the dense matrix, the targets.
        assert len(created) == 4
        assert len(dispatches) >= 2
        assert all(fn is runner._run_shard for fn in dispatches)
        assert result.trials_completed > 0
        workers_gone()

    def test_normal_query(self, graphs):
        adaptive_query(graphs["weighted-cdf"])
        workers_gone()

    def test_deadline_expiry_then_a_query_on_the_same_executor(self, graphs):
        # Shard 2 (round 2) stalls past the deadline, so the pool is
        # dropped with a worker still attached.  The next query on the
        # executor must still ship picklable tasks to the rebuilt pool, not
        # lose a shard to a closure it cannot pickle.
        graph = graphs["unweighted"]
        plan = {"shard": {"2": {"kind": "delay", "seconds": 3.0}}}
        with faults.active(plan), ParallelExecutor(2, mode="process") as executor:
            executor.map(abs, [-1, -2])  # start the workers before the clock
            first = adaptive_query(graph, deadline=1.0, executor=executor)
            assert first.degraded
            again = adaptive_query(graph, executor=executor)
        assert digest(again) == PINNED[("unweighted", "adaptive")]
        workers_gone()

    def test_raising_shard(self, graphs):
        plan = {"shard": {"1": {"kind": "raise", "times": 32}}}
        with faults.active(plan) as markers:
            adaptive_query(graphs["unweighted"])
            assert (pathlib.Path(markers) / "shard-1-0").exists()
        workers_gone()

    def test_worker_kill_and_pool_rebuild(self, graphs):
        plan = {"shard": {"1": {"kind": "kill"}}}
        with faults.active(plan) as markers:
            result = adaptive_query(graphs["unweighted"])
            assert (pathlib.Path(markers) / "shard-1-0").exists()
        assert not result.degraded
        workers_gone()
