"""Parallel-executor benches: speedup and determinism vs. worker count.

Two entry points:

* ``pytest benchmarks/bench_parallel.py --benchmark-only`` — records one
  single-source parallel CrashSim query per worker count on a 50k-node
  generated graph (the quantity the speedup claim is about);
* ``python benchmarks/bench_parallel.py [--label NAME]`` — runs three
  sweeps.  The fixed-``n_r`` sweep prints a speedup table and verifies
  that every worker count produced byte-identical scores for the same
  master seed.  The adaptive sweep has the shape of perfbench's
  adaptive-w2 workload: the pinned 50k-node power-law fixture, ε = 0.05,
  a 1,000-node catalog and in-degree-1 sources, timed serially and at 2
  workers.  The fixture sweep times fixed all-node queries from the
  fixture's top in-degree source at ``n_r`` = 64 and 128, the classic
  serial estimator against ``workers=2``.  All sweeps are stored in
  ``BENCH_parallel.json`` as run ``--label`` with the machine they ran
  on (effective CPUs, JIT on/off, numpy version); other labels are kept,
  so one file holds a before/after pair.

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
import statistics
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
#: Queries timed per sweep row; the row reports their median.
SWEEP_REPEATS = 3
OUTPUT = pathlib.Path(__file__).with_name("BENCH_parallel.json")

ADAPTIVE_EPSILON = 0.05
ADAPTIVE_CATALOG = 1000
ADAPTIVE_SOURCES = 12
ADAPTIVE_SEED = 23
#: (row label, workers); one worker always runs serially.
ADAPTIVE_TIERS = (("serial", 1), ("thread", 2))

FIXTURE_N_RS = (64, 128)
FIXTURE_REPEATS = 5
#: (row label, ``api.single_source`` keyword arguments).  ``serial`` is
#: the classic one-stream estimator a caller gets without ``workers=``.
FIXTURE_TIERS = (("serial", {}), ("thread", {"workers": 2}))


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
    *,
    n_r: int = BENCH_N_R,
    source: int = 0,
    seed: int = 1,
) -> List[Dict[str, object]]:
    """Time each worker count as the median of :data:`SWEEP_REPEATS`
    queries; speedup vs. ``workers=1``.

    The repeats are interleaved (every worker count once per pass), so
    drift in machine load reaches all rows alike.  ``workers=1`` runs the
    serial in-process path (reported as ``mode="serial"``) and is the
    baseline of the speedup column.  Every row records whether all its
    repeats' scores are byte-identical to that baseline — the
    determinism contract says the worker count never touches a score bit.
    """
    params = CrashSimParams(n_r_override=n_r)
    counts = [1] + [workers for workers in worker_counts if workers != 1]
    seconds: Dict[int, List[float]] = {workers: [] for workers in counts}
    scores: Dict[int, List[np.ndarray]] = {workers: [] for workers in counts}
    for _ in range(SWEEP_REPEATS):
        for workers in counts:
            started = time.perf_counter()
            result = parallel_crashsim(
                graph, source, params=params, seed=seed, workers=workers
            )
            seconds[workers].append(time.perf_counter() - started)
            scores[workers].append(result.scores)
    medians = {workers: statistics.median(seconds[workers]) for workers in counts}
    reference = scores[1][0]
    return [
        {
            "mode": "serial" if workers == 1 else "thread",
            "workers": workers,
            "seconds": round(medians[workers], 4),
            "speedup": round(medians[1] / medians[workers], 3),
            "identical_to_w1": all(
                np.array_equal(reference, other) for other in scores[workers]
            ),
        }
        for workers in counts
    ]


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_graph():
    return make_bench_graph()


@pytest.mark.parametrize("workers", list(WORKER_COUNTS))
def test_parallel_crashsim_workers(benchmark, parallel_graph, workers):
    params = CrashSimParams(n_r_override=BENCH_N_R)
    result = benchmark.pedantic(
        lambda: parallel_crashsim(
            parallel_graph, 0, params=params, seed=1, workers=workers
        ),
        iterations=1,
        rounds=1,
    )
    assert result.n_r == BENCH_N_R


def test_scores_identical_across_worker_counts(parallel_graph):
    # Identity is not a scaling property: it must hold on any runner,
    # including single-core containers where the pool is pure overhead.
    params = CrashSimParams(n_r_override=64)
    reference = parallel_crashsim(
        parallel_graph, 0, params=params, seed=7, workers=1
    )
    for workers in (2, 4):
        other = parallel_crashsim(
            parallel_graph, 0, params=params, seed=7, workers=workers
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
    """Per-query latency of adaptive queries per worker count, tree build included.

    Each row answers every source once untimed (pool start, warm
    kernels), then once timed.  Scores must match the serial row's bit
    for bit.
    """
    catalog, sources = adaptive_inputs(graph)
    reference = {}
    tiers = []
    for label, workers in ADAPTIVE_TIERS:

        def answer(index, source):
            return api.single_source(
                graph, int(source), adaptive=True, epsilon=ADAPTIVE_EPSILON,
                workers=workers, candidates=catalog, seed=index,
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


def run_fixture_sweep(graph: DiGraph) -> List[Dict[str, object]]:
    """Latency of fixed all-node queries from the top in-degree source.

    ``FIXTURE_TIERS`` pairs a row label with the ``api.single_source``
    keyword arguments that select it.  Each row answers once untimed (pool
    start, warm kernels), then ``FIXTURE_REPEATS`` times timed, tree build
    included.
    """
    source = int(np.argmax(graph.in_degrees()))
    rows = []
    for n_r in FIXTURE_N_RS:
        for label, options in FIXTURE_TIERS:

            def answer():
                return api.single_source(graph, source, n_r=n_r, seed=1, **options)

            answer()
            seconds = []
            for _ in range(FIXTURE_REPEATS):
                started = time.perf_counter()
                answer()
                seconds.append(time.perf_counter() - started)
            reset_default_executors()
            quartiles = np.percentile(np.array(seconds) * 1e3, [25, 50, 75])
            rows.append(
                {
                    "n_r": n_r,
                    "mode": label,
                    "workers": options.get("workers", 1),
                    "median_ms": round(float(quartiles[1]), 1),
                    "p25_ms": round(float(quartiles[0]), 1),
                    "p75_ms": round(float(quartiles[2]), 1),
                }
            )
    return rows


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
    fixture = powerlaw_fixture()
    tiers = run_adaptive_sweep(fixture)
    for tier in tiers:
        print(
            f"{tier['mode']:>8} w{tier['workers']}: median {tier['median_ms']} ms "
            f"(p25 {tier['p25_ms']}, p75 {tier['p75_ms']}) "
            f"identical={tier['identical_to_serial']}"
        )
    print(
        "fixture sweep: powerlaw fixture, top in-degree source, all nodes, "
        f"n_r in {FIXTURE_N_RS}, median of {FIXTURE_REPEATS}"
    )
    fixture_rows = run_fixture_sweep(fixture)
    for row in fixture_rows:
        print(
            f"n_r={row['n_r']:>4} {row['mode']:>8} w{row['workers']}: "
            f"median {row['median_ms']} ms "
            f"(p25 {row['p25_ms']}, p75 {row['p75_ms']})"
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
        "fixture": {
            "graph": "powerlaw_fixture",
            "source": "top in-degree node",
            "candidates": "all nodes",
            "n_r": list(FIXTURE_N_RS),
            "repeats": FIXTURE_REPEATS,
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
        "fixture": fixture_rows,
    }
    OUTPUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} of {OUTPUT}")
    ok = True
    if not all(row["identical_to_w1"] for row in rows):
        print("FAIL: scores drifted across worker counts")
        ok = False
    if not all(tier["identical_to_serial"] for tier in tiers):
        print("FAIL: adaptive scores drifted across worker counts")
        ok = False
    if cpus < 2:
        print("single effective CPU: scaling not assessable, identity ok")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
