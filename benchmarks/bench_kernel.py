"""Fused walk–crash kernel benches: fused kernel vs generator accumulation.

Three entry points:

* ``pytest benchmarks/bench_kernel.py --benchmark-only`` — records the
  fused and generator accumulators on the 50k-node power-law graph;
* ``python benchmarks/bench_kernel.py [--label NAME]`` — runs the full
  sweep once, prints tables, stores it as row ``NAME`` (default
  ``"current"``) of machine-readable ``BENCH_kernel.json`` next to this
  file, keeping the file's other rows, and exits non-zero if the
  acceptance targets are missed (fused ≥ 2× the generator path
  unweighted, alias sampling ≥ 1.5× on the weighted graph).  Each row
  records the machine it ran on (effective CPUs, JIT on/off, numpy
  version).  A before/after pair runs this one script twice on one
  machine, once with ``PYTHONPATH`` at the older source tree;
* ``run_all()`` — the JSON payload, for the CI perf-smoke harness.

The baseline is :func:`accumulate_crash_totals_reference` — the seed's
generator-driven accumulation preserved verbatim in ``core/crashsim.py``
— so the comparison measures the kernel change itself.  The default-CDF
legs are verified **bit-identical** before timing; the alias leg draws a
different (exactly distributed) stream and is verified statistically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import time
from typing import Dict

import numpy as np
import pytest

from repro.core.crashsim import accumulate_crash_totals_reference
from repro.core.revreach import revreach_levels
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment
from repro.rng import ensure_rng
from repro.walks.engine import BatchWalkStepper
from repro.walks.kernel import WalkCrashKernel

BENCH_NODES = 50_000
BENCH_M = 3
BENCH_SEED = 0
BENCH_L_MAX = 11
BENCH_C = 0.6
N_TRIALS = 96
SOURCE = 0
MULTI_SOURCES = (0, 3, 11, 42)
REPEATS = 3

OUTPUT = pathlib.Path(__file__).with_name("BENCH_kernel.json")


def make_bench_graph(num_nodes: int = BENCH_NODES, *, weighted: bool = False):
    graph = preferential_attachment(
        num_nodes, BENCH_M, directed=True, seed=BENCH_SEED
    )
    if not weighted:
        return graph
    arcs = list(graph.edges())
    weights = ensure_rng(BENCH_SEED + 1).uniform(0.5, 4.0, size=len(arcs))
    return DiGraph.from_edges(num_nodes, arcs, weights=weights)


def walkable_targets(graph) -> np.ndarray:
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    return nodes[graph.in_degrees()[nodes] > 0]


def bench_accumulate(
    graph, *, sampler: str, n_trials: int = N_TRIALS, repeats: int = REPEATS
) -> Dict[str, object]:
    """Best-of-``repeats`` timing of reference vs fused accumulation.

    The kernel instance is shared across repeats — the steady state of
    CrashSim-T loops, where buffers stay warm — while every run replays
    the same seed so the comparison is draw-for-draw fair.
    """
    tree = revreach_levels(graph, SOURCE, BENCH_L_MAX, BENCH_C)
    targets = walkable_targets(graph)

    reference_seconds = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        reference = accumulate_crash_totals_reference(
            graph,
            tree,
            targets,
            n_trials,
            c=BENCH_C,
            l_max=BENCH_L_MAX,
            rng=ensure_rng(42),
        )
        reference_seconds = min(reference_seconds, time.perf_counter() - started)

    kernel = WalkCrashKernel(graph, BENCH_C, sampler=sampler)
    fused_seconds = math.inf
    steps = 0
    for _ in range(repeats):
        kernel.steps_processed = 0
        started = time.perf_counter()
        fused = kernel.accumulate(
            tree, targets, n_trials, l_max=BENCH_L_MAX, rng=ensure_rng(42)
        )
        fused_seconds = min(fused_seconds, time.perf_counter() - started)
        steps = kernel.steps_processed

    if sampler == "cdf":
        assert np.array_equal(reference, fused), "fused kernel diverged"
    else:
        # Different (exactly distributed) stream: the per-candidate score
        # estimates must agree within Monte-Carlo noise.
        drift = np.abs(reference - fused).max() / n_trials
        assert drift < 0.05, f"alias estimates drifted by {drift}"

    return {
        "num_targets": int(targets.size),
        "n_trials": int(n_trials),
        "l_max": BENCH_L_MAX,
        "sampler": sampler,
        "weighted": bool(graph.is_weighted),
        "reference_seconds": round(reference_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "speedup": round(reference_seconds / fused_seconds, 2),
        "steps_processed": int(steps),
        "steps_per_second": int(steps / fused_seconds),
    }


def bench_multi_source(
    graph, *, n_trials: int = N_TRIALS // 2, repeats: int = REPEATS
) -> Dict[str, object]:
    """Shared-walk multi-source: combined-key fold vs per-tree bincounts.

    The reference walks once through the generator path and folds each
    tree with its own ``np.bincount`` — ``q`` scatters per step.  The
    fused kernel does the same walk with one segmented bincount over
    combined ``(source, candidate)`` keys; both sides are bit-compared.
    """
    sources = [s for s in MULTI_SOURCES if s < graph.num_nodes]
    trees = [revreach_levels(graph, s, BENCH_L_MAX, BENCH_C) for s in sources]
    targets = walkable_targets(graph)
    owner = np.tile(np.arange(targets.size, dtype=np.int64), n_trials)
    starts = np.tile(targets, n_trials)

    reference_seconds = math.inf
    for _ in range(repeats):
        stepper = BatchWalkStepper(graph, BENCH_C)
        expected = np.zeros((len(trees), targets.size))
        started = time.perf_counter()
        for batch in stepper.walk(starts, BENCH_L_MAX, seed=ensure_rng(99)):
            for row, tree in enumerate(trees):
                expected[row] += np.bincount(
                    owner[batch.walk_ids],
                    weights=tree.gather(batch.step, batch.positions),
                    minlength=targets.size,
                )
        reference_seconds = min(reference_seconds, time.perf_counter() - started)

    kernel = WalkCrashKernel(graph, BENCH_C)
    fused_seconds = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fused = kernel.accumulate_multi(
            trees, targets, n_trials, l_max=BENCH_L_MAX, rng=ensure_rng(99)
        )
        fused_seconds = min(fused_seconds, time.perf_counter() - started)

    assert np.array_equal(expected, fused), "multi-source fold diverged"
    return {
        "num_sources": len(sources),
        "num_targets": int(targets.size),
        "n_trials": int(n_trials),
        "reference_seconds": round(reference_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "speedup": round(reference_seconds / fused_seconds, 2),
    }


def run_all(
    *,
    num_nodes: int = BENCH_NODES,
    n_trials: int = N_TRIALS,
) -> Dict[str, object]:
    unweighted = make_bench_graph(num_nodes)
    weighted = make_bench_graph(num_nodes, weighted=True)
    return {
        "graph": {
            "generator": "preferential_attachment",
            "num_nodes": unweighted.num_nodes,
            "num_edges": int(unweighted.in_indices.size),
            "edges_per_node": BENCH_M,
            "seed": BENCH_SEED,
        },
        "unweighted": bench_accumulate(
            unweighted, sampler="cdf", n_trials=n_trials
        ),
        "weighted_cdf": bench_accumulate(
            weighted, sampler="cdf", n_trials=n_trials
        ),
        "weighted_alias": bench_accumulate(
            weighted, sampler="alias", n_trials=n_trials
        ),
        "multi_source": bench_multi_source(unweighted, n_trials=n_trials // 2),
    }


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_graph():
    return make_bench_graph()


def test_bench_fused_accumulate(benchmark, kernel_graph):
    tree = revreach_levels(kernel_graph, SOURCE, BENCH_L_MAX, BENCH_C)
    targets = walkable_targets(kernel_graph)
    kernel = WalkCrashKernel(kernel_graph, BENCH_C)
    benchmark.pedantic(
        lambda: kernel.accumulate(
            tree, targets, N_TRIALS, l_max=BENCH_L_MAX, rng=ensure_rng(42)
        ),
        iterations=1,
        rounds=3,
    )


def test_bench_reference_accumulate(benchmark, kernel_graph):
    tree = revreach_levels(kernel_graph, SOURCE, BENCH_L_MAX, BENCH_C)
    targets = walkable_targets(kernel_graph)
    benchmark.pedantic(
        lambda: accumulate_crash_totals_reference(
            kernel_graph,
            tree,
            targets,
            N_TRIALS,
            c=BENCH_C,
            l_max=BENCH_L_MAX,
            rng=ensure_rng(42),
        ),
        iterations=1,
        rounds=3,
    )


def machine() -> Dict[str, object]:
    """What a timing row depends on beyond the code: CPUs, JIT, numpy."""
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "jit_active": WalkCrashKernel(make_bench_graph(64), BENCH_C).use_jit,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def store_row(label: str, payload: Dict[str, object]) -> None:
    """Write ``payload`` as row ``label``, keeping rows on the same graph."""
    rows = {}
    if OUTPUT.exists():
        previous = json.loads(OUTPUT.read_text())
        if previous.get("graph") == payload["graph"]:
            rows = previous.get("rows", {})
    rows[label] = {key: value for key, value in payload.items() if key != "graph"}
    document = {"graph": payload["graph"], "rows": rows}
    OUTPUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="current", help="row name in BENCH_kernel.json"
    )
    args = parser.parse_args(argv)
    print(
        f"graph: preferential_attachment(n={BENCH_NODES}, m={BENCH_M}, "
        f"seed={BENCH_SEED}); l_max={BENCH_L_MAX}, {N_TRIALS} trials"
    )
    payload = run_all()
    payload["machine"] = machine()
    print(f"machine: {payload['machine']}")
    for label in ("unweighted", "weighted_cdf", "weighted_alias"):
        row = payload[label]
        print(
            f"{label}: reference {row['reference_seconds']}s  "
            f"fused {row['fused_seconds']}s  ({row['speedup']}x, "
            f"{row['steps_per_second']:,} steps/s)"
        )
    multi = payload["multi_source"]
    print(
        f"multi_source ({multi['num_sources']} trees): "
        f"reference {multi['reference_seconds']}s  "
        f"fused {multi['fused_seconds']}s  ({multi['speedup']}x)"
    )
    store_row(args.label, payload)
    print(f"wrote row {args.label!r} of {OUTPUT}")

    failures = []
    if payload["unweighted"]["speedup"] < 2.0:
        failures.append(
            f"unweighted fused speedup {payload['unweighted']['speedup']}x "
            f"< 2x target"
        )
    if payload["weighted_alias"]["speedup"] < 1.5:
        failures.append(
            f"weighted alias speedup {payload['weighted_alias']['speedup']}x "
            f"< 1.5x target"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
