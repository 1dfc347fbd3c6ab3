"""CI perf-smoke: catch order-of-magnitude regressions cheaply.

Runs the bench_tree, bench_kernel, bench_serve, bench_obs, bench_overload,
and bench_parallel sweeps on CI-sized graphs and compares wall-clock against
the recorded baselines in ``benchmarks/baselines/``.  Wall-clock gates are deliberately generous —
a timing fails only past ``PERF_SMOKE_MULTIPLIER`` (default 10×) of its
recorded value — so shared runners' jitter never breaks the build, while
a representation regression that reintroduces O(n)-per-level work still
trips it.  The structural ratios are machine-independent and gated
tightly: sparse-vs-dense and pruning keep their floors, and the fused
kernel's speedup over the generator accumulator fails on a **>30%
regression** from its recorded baseline ratio.

Usage:
    python benchmarks/perf_smoke.py            # gate against the baselines
    python benchmarks/perf_smoke.py --record   # re-record the baselines
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

from bench_adaptive import BENCH_EPSILON, run_all as run_adaptive
from bench_kernel import run_all as run_kernel
from bench_obs import MAX_OVERHEAD_FRACTION, run_all as run_obs
from bench_overload import (
    MIN_GOODPUT_FRACTION,
    check as check_overload,
    run_all as run_overload,
)
from bench_parallel import effective_cpus, make_bench_graph, run_sweep
from bench_serve import run_all as run_serve
from bench_tree import run_all

BASELINE = pathlib.Path(__file__).parent / "baselines" / "tree_smoke.json"
KERNEL_BASELINE = pathlib.Path(__file__).parent / "baselines" / "kernel_smoke.json"
SERVE_BASELINE = pathlib.Path(__file__).parent / "baselines" / "serve_smoke.json"
OBS_BASELINE = pathlib.Path(__file__).parent / "baselines" / "obs_smoke.json"
PARALLEL_BASELINE = (
    pathlib.Path(__file__).parent / "baselines" / "parallel_smoke.json"
)
OVERLOAD_BASELINE = (
    pathlib.Path(__file__).parent / "baselines" / "overload_smoke.json"
)
ADAPTIVE_BASELINE = (
    pathlib.Path(__file__).parent / "baselines" / "adaptive_smoke.json"
)
SMOKE_NODES = 30_000
SMOKE_SOURCES = 32
KERNEL_SMOKE_NODES = 20_000
KERNEL_SMOKE_TRIALS = 32
SERVE_SMOKE_NODES = 15_000
SERVE_SMOKE_CLIENTS = 8
SERVE_SMOKE_QUERIES = 4
SERVE_SMOKE_CATALOG = 2_000
SERVE_SMOKE_N_R = 48
GATED_TIMINGS = (
    "sparse_build_seconds",
    "sparse_same_as_cold_seconds",
)
KERNEL_LEGS = ("unweighted", "weighted_alias")
MIN_COMBINED_SPEEDUP = 3.0  # headroom below the 5x full-size target
MIN_PRUNING_SPEEDUP = 0.8
KERNEL_REGRESSION_FRACTION = 0.7  # fail below 70% of the recorded speedup
# Batched dispatch must beat sequential even at smoke size; the full-size
# bench_serve gate demands 1.5x, the smoke leg keeps a reduced floor so
# runner jitter on a tiny workload cannot flake the build.
MIN_SERVE_SPEEDUP = 1.2
SERVE_REGRESSION_FRACTION = 0.5  # fail below half the recorded speedup
OBS_SMOKE_NODES = 20_000
OBS_SMOKE_PAIRS = 60
PARALLEL_SMOKE_NODES = 12_000
PARALLEL_SMOKE_EDGES = 36_000
PARALLEL_SMOKE_N_R = 128
# Overload smoke: tiny graph, short open-loop window.  The goodput-ratio
# and queue-bound gates come from bench_overload.check() and are
# machine-independent; only the capacity phase's wall-clock is gated
# against the recorded baseline (with the usual generous multiplier).
OVERLOAD_SMOKE_NODES = 10_000
OVERLOAD_SMOKE_CLIENTS = 8
OVERLOAD_SMOKE_CAPACITY_QUERIES = 4
OVERLOAD_SMOKE_CATALOG = 1_000
OVERLOAD_SMOKE_N_R = 32
OVERLOAD_SMOKE_DURATION = 2.5
OVERLOAD_SMOKE_QUEUE_DEPTH = 16
# Parallel dispatch must actually win on a multi-core runner: the thread
# tier at 4 workers ≥ 1.5x over serial when ≥ 4 effective CPUs are
# available, a reduced floor on 2–3 CPUs, and the scaling gate *skips*
# (identity still gated) below 2 — a single core can only measure pool
# overhead.
MIN_PARALLEL_SPEEDUP_4CPU = 1.5
MIN_PARALLEL_SPEEDUP_2CPU = 1.1
# Adaptive smoke: the pinned power-law fixture with the candidate set cut
# to 2000 nodes (n_r stays priced for the full 50k graph, the exact regime
# early stopping exploits).  The trials-saved ratio and the exact max
# error are fully deterministic for the pinned seeds, so both gate
# unconditionally; only the adaptive leg's wall-clock uses the generous
# baseline multiplier.
ADAPTIVE_SMOKE_CANDIDATES = 2_000
MIN_TRIALS_SAVED = 1.5


def gate_tree(payload, argv):
    tree = payload["tree"]
    pruning = payload["difference_pruning"]

    if "--record" in argv:
        record = {key: tree[key] for key in GATED_TIMINGS}
        record["nodes"] = SMOKE_NODES
        record["sources"] = SMOKE_SOURCES
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"recorded baseline: {BASELINE}")
        return []

    baseline = json.loads(BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    failures = []
    for key in GATED_TIMINGS:
        allowed = baseline[key] * multiplier
        print(
            f"{key}: {tree[key]}s (baseline {baseline[key]}s, "
            f"allowed {allowed:.4f}s)"
        )
        if tree[key] > allowed:
            failures.append(f"{key} {tree[key]}s > {allowed:.4f}s allowed")
    print(f"combined_speedup: {tree['combined_speedup']}x")
    if tree["combined_speedup"] < MIN_COMBINED_SPEEDUP:
        failures.append(
            f"combined sparse speedup {tree['combined_speedup']}x "
            f"< {MIN_COMBINED_SPEEDUP}x floor"
        )
    print(f"difference pruning sweep: {pruning['speedup']}x")
    if pruning["speedup"] < MIN_PRUNING_SPEEDUP:
        failures.append(
            f"difference pruning sweep {pruning['speedup']}x "
            f"< {MIN_PRUNING_SPEEDUP}x floor"
        )
    return failures


def gate_kernel(payload, argv):
    if "--record" in argv:
        record = {
            "nodes": KERNEL_SMOKE_NODES,
            "trials": KERNEL_SMOKE_TRIALS,
        }
        for leg in KERNEL_LEGS:
            record[leg] = {
                "fused_seconds": payload[leg]["fused_seconds"],
                "speedup": payload[leg]["speedup"],
            }
        KERNEL_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {KERNEL_BASELINE}")
        return []

    baseline = json.loads(KERNEL_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    failures = []
    for leg in KERNEL_LEGS:
        seconds = payload[leg]["fused_seconds"]
        speedup = payload[leg]["speedup"]
        allowed_seconds = baseline[leg]["fused_seconds"] * multiplier
        # The speedup ratio is machine-independent: >30% below the
        # recorded baseline means the fused path itself regressed.
        floor = round(baseline[leg]["speedup"] * KERNEL_REGRESSION_FRACTION, 2)
        print(
            f"kernel {leg}: {seconds}s fused, {speedup}x vs generator "
            f"(allowed {allowed_seconds:.4f}s, speedup floor {floor}x)"
        )
        if seconds > allowed_seconds:
            failures.append(
                f"kernel {leg} {seconds}s > {allowed_seconds:.4f}s allowed"
            )
        if speedup < floor:
            failures.append(
                f"kernel {leg} speedup {speedup}x regressed >30% below "
                f"the recorded {baseline[leg]['speedup']}x"
            )
    return failures


def gate_serve(payload, argv):
    speedup = payload["speedup"]
    batched_seconds = payload["batched"]["total_seconds"]

    if "--record" in argv:
        record = {
            "nodes": SERVE_SMOKE_NODES,
            "clients": SERVE_SMOKE_CLIENTS,
            "queries_per_client": SERVE_SMOKE_QUERIES,
            "batched_total_seconds": batched_seconds,
            "speedup": speedup,
        }
        SERVE_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {SERVE_BASELINE}")
        return []

    baseline = json.loads(SERVE_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    allowed_seconds = baseline["batched_total_seconds"] * multiplier
    floor = max(
        MIN_SERVE_SPEEDUP,
        round(baseline["speedup"] * SERVE_REGRESSION_FRACTION, 2),
    )
    failures = []
    print(
        f"serve: batched {payload['batched']['qps']} q/s vs sequential "
        f"{payload['sequential']['qps']} q/s, speedup {speedup}x "
        f"(floor {floor}x, allowed {allowed_seconds:.4f}s batched)"
    )
    if batched_seconds > allowed_seconds:
        failures.append(
            f"serve batched {batched_seconds}s > "
            f"{allowed_seconds:.4f}s allowed"
        )
    if speedup < floor:
        failures.append(
            f"serve batched dispatch {speedup}x < {floor}x floor "
            f"(recorded {baseline['speedup']}x)"
        )
    return failures


def gate_obs(payload, argv):
    overhead = payload["overhead_fraction"]

    if "--record" in argv:
        record = {
            "nodes": OBS_SMOKE_NODES,
            "pairs": OBS_SMOKE_PAIRS,
            "plain_seconds": payload["plain_seconds"],
            "overhead_fraction": overhead,
        }
        OBS_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {OBS_BASELINE}")
        return []

    baseline = json.loads(OBS_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    allowed_seconds = baseline["plain_seconds"] * multiplier
    failures = []
    print(
        f"obs: overhead {overhead * 100:+.2f}% "
        f"(bound {MAX_OVERHEAD_FRACTION * 100:.0f}%), plain "
        f"{payload['plain_seconds']}s (allowed {allowed_seconds:.4f}s)"
    )
    # The overhead bound is absolute, not baseline-relative: the
    # observability layer's contract is "<3% on the kernel bench", full
    # stop, and the paired-median estimator is machine-independent enough
    # to hold it on shared runners.
    if overhead > MAX_OVERHEAD_FRACTION:
        failures.append(
            f"observability overhead {overhead * 100:.2f}% > "
            f"{MAX_OVERHEAD_FRACTION * 100:.0f}% bound"
        )
    if payload["plain_seconds"] > allowed_seconds:
        failures.append(
            f"obs plain leg {payload['plain_seconds']}s > "
            f"{allowed_seconds:.4f}s allowed"
        )
    return failures


def gate_overload(payload, argv):
    capacity = payload["capacity"]
    shed = payload["shed"]
    unbounded = payload["unbounded"]

    if "--record" in argv:
        record = {
            "nodes": OVERLOAD_SMOKE_NODES,
            "clients": OVERLOAD_SMOKE_CLIENTS,
            "capacity_seconds": capacity["total_seconds"],
            "capacity_qps": capacity["goodput_qps"],
            "shed_goodput_ratio": payload["shed_goodput_ratio"],
        }
        OVERLOAD_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {OVERLOAD_BASELINE}")
        return []

    baseline = json.loads(OVERLOAD_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    allowed_seconds = baseline["capacity_seconds"] * multiplier
    print(
        f"overload: capacity {capacity['goodput_qps']} q/s "
        f"({capacity['total_seconds']}s, allowed {allowed_seconds:.4f}s); "
        f"shed goodput {shed['goodput_qps']} q/s "
        f"(ratio {payload['shed_goodput_ratio']}x, floor "
        f"{MIN_GOODPUT_FRACTION}x), p99 {shed['p99_ms']}ms, "
        f"rejected {shed['rejected']}; unbounded p99 "
        f"{unbounded['p99_ms']}ms, max queue {unbounded['max_queue_depth_seen']}"
    )
    failures = check_overload(payload)
    if capacity["total_seconds"] > allowed_seconds:
        failures.append(
            f"overload capacity phase {capacity['total_seconds']}s > "
            f"{allowed_seconds:.4f}s allowed"
        )
    return failures


def run_parallel():
    graph = make_bench_graph(PARALLEL_SMOKE_NODES, PARALLEL_SMOKE_EDGES)
    rows = run_sweep(graph, worker_counts=(1, 4), n_r=PARALLEL_SMOKE_N_R)
    return {"rows": rows, "cpus": effective_cpus()}


def gate_parallel(payload, argv):
    rows = payload["rows"]
    cpus = payload["cpus"]
    w1_seconds = next(
        row["seconds"] for row in rows if row["mode"] == "serial"
    )

    if "--record" in argv:
        record = {
            "nodes": PARALLEL_SMOKE_NODES,
            "edges": PARALLEL_SMOKE_EDGES,
            "n_r": PARALLEL_SMOKE_N_R,
            "w1_seconds": w1_seconds,
            "cpus_at_record": cpus,
        }
        PARALLEL_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {PARALLEL_BASELINE}")
        return []

    baseline = json.loads(PARALLEL_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    allowed_seconds = baseline["w1_seconds"] * multiplier
    failures = []
    for row in rows:
        print(
            f"parallel {row['mode']} w{row['workers']}: {row['seconds']}s, "
            f"speedup {row['speedup']}x, identical={row['identical_to_w1']}"
        )
    # Identity is machine-independent and gated unconditionally: the tier
    # and worker count must never touch a score bit.
    for row in rows:
        if not row["identical_to_w1"]:
            failures.append(
                f"parallel {row['mode']} w{row['workers']} scores drifted "
                "from the workers=1 reference"
            )
    if w1_seconds > allowed_seconds:
        failures.append(
            f"parallel w1 {w1_seconds}s > {allowed_seconds:.4f}s allowed"
        )
    # Scaling is machine-dependent: gate by the CPUs actually available.
    best = max(row["speedup"] for row in rows if row["workers"] == 4)
    if cpus >= 4:
        floor = MIN_PARALLEL_SPEEDUP_4CPU
    elif cpus >= 2:
        floor = MIN_PARALLEL_SPEEDUP_2CPU
    else:
        print(
            f"parallel scaling: SKIPPED (only {cpus} effective CPU; "
            "identity still gated)"
        )
        return failures
    print(
        f"parallel scaling: best {best}x at 4 workers "
        f"(floor {floor}x on {cpus} CPUs)"
    )
    if best < floor:
        failures.append(
            f"parallel best speedup {best}x at 4 workers < {floor}x floor "
            f"on {cpus} effective CPUs"
        )
    return failures


def gate_adaptive(payload, argv):
    saved = payload["trials_saved_ratio"]
    error = payload["adaptive_max_error"]
    seconds = payload["adaptive_seconds"]

    if "--record" in argv:
        record = {
            "num_candidates": ADAPTIVE_SMOKE_CANDIDATES,
            "epsilon": payload["epsilon"],
            "adaptive_seconds": seconds,
            "trials_saved_ratio": saved,
        }
        ADAPTIVE_BASELINE.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded baseline: {ADAPTIVE_BASELINE}")
        return []

    baseline = json.loads(ADAPTIVE_BASELINE.read_text())
    multiplier = float(os.environ.get("PERF_SMOKE_MULTIPLIER", "10"))
    allowed_seconds = baseline["adaptive_seconds"] * multiplier
    failures = []
    print(
        f"adaptive: {payload['trials_used']}/{payload['n_r']} trials "
        f"({saved}x saved, floor {MIN_TRIALS_SAVED}x), max error {error} "
        f"(bound {BENCH_EPSILON}), {seconds}s (allowed {allowed_seconds:.4f}s)"
    )
    if saved < MIN_TRIALS_SAVED:
        failures.append(
            f"adaptive trials saved {saved}x < {MIN_TRIALS_SAVED}x floor "
            f"(recorded {baseline['trials_saved_ratio']}x)"
        )
    if error > BENCH_EPSILON:
        failures.append(
            f"adaptive max error {error} > ε={BENCH_EPSILON} bound"
        )
    if seconds > allowed_seconds:
        failures.append(
            f"adaptive leg {seconds}s > {allowed_seconds:.4f}s allowed"
        )
    return failures


def main(argv) -> int:
    BASELINE.parent.mkdir(parents=True, exist_ok=True)
    failures = gate_tree(
        run_all(num_nodes=SMOKE_NODES, num_sources=SMOKE_SOURCES), argv
    )
    failures += gate_kernel(
        run_kernel(num_nodes=KERNEL_SMOKE_NODES, n_trials=KERNEL_SMOKE_TRIALS),
        argv,
    )
    failures += gate_serve(
        run_serve(
            num_nodes=SERVE_SMOKE_NODES,
            n_clients=SERVE_SMOKE_CLIENTS,
            queries_per_client=SERVE_SMOKE_QUERIES,
            catalog_size=SERVE_SMOKE_CATALOG,
            n_r=SERVE_SMOKE_N_R,
        ),
        argv,
    )
    failures += gate_obs(
        run_obs(num_nodes=OBS_SMOKE_NODES, pairs=OBS_SMOKE_PAIRS), argv
    )
    failures += gate_overload(
        run_overload(
            num_nodes=OVERLOAD_SMOKE_NODES,
            n_clients=OVERLOAD_SMOKE_CLIENTS,
            capacity_queries_per_client=OVERLOAD_SMOKE_CAPACITY_QUERIES,
            catalog_size=OVERLOAD_SMOKE_CATALOG,
            n_r=OVERLOAD_SMOKE_N_R,
            duration=OVERLOAD_SMOKE_DURATION,
            max_queue_depth=OVERLOAD_SMOKE_QUEUE_DEPTH,
        ),
        argv,
    )
    failures += gate_parallel(run_parallel(), argv)
    failures += gate_adaptive(
        run_adaptive(num_candidates=ADAPTIVE_SMOKE_CANDIDATES), argv
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if "--record" in argv:
        return 0
    if not failures:
        print("perf-smoke ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
