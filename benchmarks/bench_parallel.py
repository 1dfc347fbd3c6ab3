"""Parallel-executor benches: per-tier speedup and determinism vs. workers.

Two entry points:

* ``pytest benchmarks/bench_parallel.py --benchmark-only`` — records one
  single-source parallel CrashSim query per (mode, worker count) on a
  50k-node generated graph (the quantity the speedup claim is about);
* ``python benchmarks/bench_parallel.py [--label NAME]`` — runs the
  fixed-``n_r`` sweep once, prints a speedup table per execution tier,
  verifies that every (mode, worker count) produced byte-identical scores
  for the same master seed, then runs the adaptive sweep.  The adaptive
  sweep has the shape of perfbench's adaptive-w2 workload: the pinned
  50k-node power-law fixture, ε = 0.05, a 1,000-node catalog and
  in-degree-1 sources, timed on the serial, thread and process tiers at
  2 workers.  Both sweeps are stored in ``BENCH_parallel.json`` as run
  ``--label`` with the machine they ran on (effective CPUs, JIT on/off,
  numpy version); other labels are kept, so one file holds a
  before/after pair.

Speedup is bounded by the CPUs this process may actually use —
``os.sched_getaffinity`` where available (cgroup/affinity-limited CI
runners often expose fewer cores than ``os.cpu_count`` reports), falling
back to ``os.cpu_count``.  On a single-core runner the parallel rows only
measure pool + dispatch overhead, so the scaling assertions below *skip*
(never fail) under 2 effective CPUs; the byte-identity assertions always
run — determinism holds at any core count.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro import api
from repro.core.params import CrashSimParams
from repro.datasets import powerlaw_fixture
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.parallel import parallel_crashsim, reset_default_executors
from repro.walks.kernel import WalkCrashKernel

BENCH_NODES = 50_000
BENCH_EDGES = 150_000
BENCH_N_R = 512
BENCH_SEED = 0
WORKER_COUNTS = (1, 2, 4)
MODES = ("process", "thread")
OUTPUT = pathlib.Path(__file__).with_name("BENCH_parallel.json")

ADAPTIVE_EPSILON = 0.05
ADAPTIVE_CATALOG = 1000
ADAPTIVE_SOURCES = 12
ADAPTIVE_SEED = 23
#: (row label, executor mode, workers); one worker always runs serially.
ADAPTIVE_TIERS = (
    ("serial", "auto", 1),
    ("thread", "thread", 2),
    ("process", "process", 2),
)


def effective_cpus() -> int:
    """CPUs this process may run on (affinity-aware, ≥ 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def make_bench_graph(
    num_nodes: int = BENCH_NODES, num_edges: int = BENCH_EDGES
) -> DiGraph:
    return erdos_renyi(num_nodes, num_edges, seed=BENCH_SEED)


def run_sweep(
    graph: DiGraph,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    modes: Sequence[str] = MODES,
    *,
    n_r: int = BENCH_N_R,
    source: int = 0,
    seed: int = 1,
) -> List[Dict[str, object]]:
    """Time one query per (mode, worker count); speedup vs. ``workers=1``.

    ``workers=1`` short-circuits to the serial in-process path on every
    tier, so it is timed once (reported as ``mode="serial"``) and shared
    as the baseline of both tiers' speedup columns.  Every row records
    whether its scores are byte-identical to that baseline — the
    determinism contract says the tier and the worker count never touch a
    score bit.
    """
    params = CrashSimParams(n_r_override=n_r)
    rows: List[Dict[str, object]] = []

    def timed(workers: int, mode: str):
        started = time.perf_counter()
        result = parallel_crashsim(
            graph, source, params=params, seed=seed, workers=workers,
            mode=mode,
        )
        return result, time.perf_counter() - started

    baseline, baseline_seconds = timed(1, "process")
    rows.append(
        {
            "mode": "serial",
            "workers": 1,
            "seconds": round(baseline_seconds, 4),
            "speedup": 1.0,
            "identical_to_w1": True,
        }
    )
    for mode in modes:
        for workers in worker_counts:
            if workers == 1:
                continue
            result, seconds = timed(workers, mode)
            rows.append(
                {
                    "mode": mode,
                    "workers": workers,
                    "seconds": round(seconds, 4),
                    "speedup": round(baseline_seconds / seconds, 3),
                    "identical_to_w1": bool(
                        np.array_equal(baseline.scores, result.scores)
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_graph():
    return make_bench_graph()


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("workers", list(WORKER_COUNTS))
def test_parallel_crashsim_workers(benchmark, parallel_graph, workers, mode):
    params = CrashSimParams(n_r_override=BENCH_N_R)
    result = benchmark.pedantic(
        lambda: parallel_crashsim(
            parallel_graph, 0, params=params, seed=1, workers=workers,
            mode=mode,
        ),
        iterations=1,
        rounds=1,
    )
    assert result.n_r == BENCH_N_R


@pytest.mark.parametrize("mode", list(MODES))
def test_scores_identical_across_worker_counts(parallel_graph, mode):
    # Identity is not a scaling property: it must hold on any runner,
    # including single-core containers where the pool is pure overhead.
    params = CrashSimParams(n_r_override=64)
    reference = parallel_crashsim(
        parallel_graph, 0, params=params, seed=7, workers=1
    )
    for workers in (2, 4):
        other = parallel_crashsim(
            parallel_graph, 0, params=params, seed=7, workers=workers,
            mode=mode,
        )
        assert np.array_equal(reference.scores, other.scores)


def test_speedup_at_four_workers(parallel_graph):
    if effective_cpus() < 4:
        pytest.skip(
            f"speedup needs >= 4 effective CPUs (have {effective_cpus()}); "
            "fewer cores only measure overhead"
        )
    rows = run_sweep(parallel_graph, worker_counts=(1, 4))
    assert all(row["identical_to_w1"] for row in rows)
    best = max(row["speedup"] for row in rows if row["workers"] == 4)
    assert best >= 2.0, rows


def machine() -> Dict[str, object]:
    """What a timing row depends on beyond the code: CPUs, JIT, numpy."""
    return {
        "effective_cpus": effective_cpus(),
        "jit_active": WalkCrashKernel(make_bench_graph(64, 128), 0.6).use_jit,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def adaptive_inputs(graph: DiGraph):
    """The catalog and sources of the adaptive sweep, fixed by the seed.

    Sources are in-degree-1 nodes, the adaptive-w2 mix; the catalog is
    drawn from the nodes with an in-link, which are the ones that walk.
    """
    rng = np.random.default_rng(ADAPTIVE_SEED)
    in_degrees = graph.in_degrees()
    walkable = np.flatnonzero(in_degrees >= 1)
    catalog = np.sort(rng.choice(walkable, ADAPTIVE_CATALOG, replace=False))
    sources = rng.choice(
        np.flatnonzero(in_degrees == 1), ADAPTIVE_SOURCES, replace=False
    )
    return catalog, sources


def run_adaptive_sweep(graph: DiGraph) -> List[Dict[str, object]]:
    """Per-query latency of adaptive queries on each tier, tree build included.

    Each tier answers every source once untimed (pool start, warm
    kernels), then once timed.  Scores must match the serial tier's bit
    for bit.
    """
    catalog, sources = adaptive_inputs(graph)
    reference = {}
    tiers = []
    for label, mode, workers in ADAPTIVE_TIERS:

        def answer(index, source):
            return api.single_source(
                graph, int(source), adaptive=True, epsilon=ADAPTIVE_EPSILON,
                workers=workers, mode=mode, candidates=catalog, seed=index,
            )

        for index, source in enumerate(sources):
            answer(index, source)
        seconds = []
        identical = True
        for index, source in enumerate(sources):
            started = time.perf_counter()
            scores = np.asarray(answer(index, source))
            seconds.append(time.perf_counter() - started)
            expected = reference.setdefault(index, scores)
            identical &= bool(np.array_equal(expected, scores))
        reset_default_executors()
        quartiles = np.percentile(np.array(seconds) * 1e3, [25, 50, 75])
        tiers.append(
            {
                "mode": label,
                "workers": workers,
                "median_ms": round(float(quartiles[1]), 1),
                "p25_ms": round(float(quartiles[0]), 1),
                "p75_ms": round(float(quartiles[2]), 1),
                "identical_to_serial": identical,
            }
        )
    return tiers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="current", help="run name in BENCH_parallel.json"
    )
    args = parser.parse_args(argv)
    cpus = effective_cpus()
    print(
        f"generating graph: n={BENCH_NODES} m={BENCH_EDGES} "
        f"(seed {BENCH_SEED}), n_r={BENCH_N_R}, cpus={cpus}"
    )
    rows = run_sweep(make_bench_graph())
    header = (
        f"{'mode':>8} {'workers':>8} {'seconds':>10} {'speedup':>9} "
        f"{'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['mode']:>8} {row['workers']:>8} {row['seconds']:>10} "
            f"{row['speedup']:>9} {str(row['identical_to_w1']):>10}"
        )
    print(
        f"adaptive sweep: powerlaw fixture, epsilon={ADAPTIVE_EPSILON}, "
        f"{ADAPTIVE_CATALOG}-node catalog, {ADAPTIVE_SOURCES} in-degree-1 sources"
    )
    tiers = run_adaptive_sweep(powerlaw_fixture())
    for tier in tiers:
        print(
            f"{tier['mode']:>8} w{tier['workers']}: median {tier['median_ms']} ms "
            f"(p25 {tier['p25_ms']}, p75 {tier['p75_ms']}) "
            f"identical={tier['identical_to_serial']}"
        )
    document = {
        "fixed": {
            "graph": {
                "generator": "erdos_renyi",
                "num_nodes": BENCH_NODES,
                "num_edges": BENCH_EDGES,
                "seed": BENCH_SEED,
            },
            "n_r": BENCH_N_R,
        },
        "adaptive_w2": {
            "graph": "powerlaw_fixture",
            "epsilon": ADAPTIVE_EPSILON,
            "catalog": ADAPTIVE_CATALOG,
            "sources": f"{ADAPTIVE_SOURCES} in-degree-1 nodes",
            "seed": ADAPTIVE_SEED,
        },
        "runs": {},
    }
    if OUTPUT.exists():
        previous = json.loads(OUTPUT.read_text())
        if {key: previous.get(key) for key in ("fixed", "adaptive_w2")} == {
            key: document[key] for key in ("fixed", "adaptive_w2")
        }:
            document["runs"] = previous.get("runs", {})
    document["runs"][args.label] = {
        "machine": machine(),
        "fixed": rows,
        "adaptive_w2": tiers,
    }
    OUTPUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} of {OUTPUT}")
    ok = True
    if not all(row["identical_to_w1"] for row in rows):
        print("FAIL: scores drifted across modes / worker counts")
        ok = False
    if not all(tier["identical_to_serial"] for tier in tiers):
        print("FAIL: adaptive scores drifted across tiers")
        ok = False
    if cpus < 2:
        print("single effective CPU: scaling not assessable, identity ok")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
