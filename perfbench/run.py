"""The repository benchmark: one workload on the pinned power-law fixture.

    python3 perfbench/run.py --workload cold-fixed --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (it needs ``src/repro``).  Each
run starts ``perfbench/workload.py`` in fresh processes: two (one for
hot-serve) that only set up, skipped by traced runs, which do not report
set-up; then one that sets up, runs ops for ``--seconds``, and checks
the answers.  ``setup_s`` is the median of the set-up times, each at
the reference machine speed of the probes run at its two ends (see
``perfbench/speed.py``).

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The line before it is the full record (machine fingerprint,
correctness and sanity checks, every number measured), also written to
``.perfbench/<workload>-s<seed>-t<trace>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.speed import factor  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cold-fixed", "hot-serve", "adaptive-w2", "temporal-churn")

#: Fresh processes whose set-up time is measured; setup_s is their median.
#: hot-serve's set-up builds 64 cold trees to fill the server's tree LRU
#: (~15 s), so it is measured twice, which keeps a full pass of
#: 4 + 22 x 4 runs within its time budget.
SETUP_RUNS = {"hot-serve": 2}
DEFAULT_SETUP_RUNS = 3

#: A run must end within this many seconds.
RUN_BUDGET_S = 170

END_TO_END = {
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "graph.fixture_build_s": "s",
    "revreach.builds_per_op": "count",
    "kernel.steps_per_op": "count",
    "parallel.shards_per_op": "count",
    "parallel.task_retries": "count",
    "engine.batch_size_mean": "count",
    "engine.refused": "count",
    "http.request_bytes_mean": "bytes",
    "http.response_bytes_mean": "bytes",
    "temporal.omega_mean": "count",
    "adaptive.rounds_per_op": "count",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms" if "ms" in name.replace(".", "_").split("_") else "ratio"


def _run_workload(args, out_path, *, setup_only, deadline) -> dict:
    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "workload.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        out_path,
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    spawn_t = time.perf_counter()
    process = subprocess.Popen(
        command + ["--spawn-t", repr(spawn_t)], cwd=ROOT, env=env, stdout=sys.stderr
    )
    try:
        code = process.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise SystemExit(f"perfbench: {args.workload} ran past its time budget")
    if code != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited with code {code}")
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")

    setups = [
        _run_workload(args, f"{stem}-setup{i}.json", setup_only=True, deadline=deadline)
        for i in range(0 if args.trace else SETUP_RUNS.get(args.workload, DEFAULT_SETUP_RUNS) - 1)
    ]
    record = _run_workload(args, f"{stem}-run.json", setup_only=False, deadline=deadline)
    setups.append(record)
    record["raw_setup_runs_s"] = [setup["setup_s"] for setup in setups]
    record["setup_runs_s"] = [
        setup["setup_s"] * factor(setup["setup_probes_ms"]) for setup in setups
    ]
    record["raw_setup_s"] = statistics.median(record["raw_setup_runs_s"])
    record["setup_s"] = statistics.median(record["setup_runs_s"])

    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in record["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": record[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": bool(record["correct"]),
                "attempted": int(record["attempted"]),
                "failed": int(record["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
