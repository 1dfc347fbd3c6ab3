"""Command-line entry point: ``python -m repro <command> [options]``.

Examples
--------
::

    python -m repro table2
    python -m repro table3 --profile default
    python -m repro fig5 --profile quick --dataset hepth
    python -m repro fig6
    python -m repro fig7 --profile default
    python -m repro ablation
    python -m repro ablation-estimator
    python -m repro scalability
    python -m repro all --profile quick
    python -m repro export-dataset --dataset hepth --out /tmp/hepth --snapshots 10
    python -m repro serve --dataset hepth --port 8321
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.experiments import (
    get_profile,
    print_table,
    run_estimator_ablation,
    run_figure5,
    run_figure6,
    run_figure7,
    run_pruning_ablation,
    run_c_sensitivity,
    run_scalability,
    run_table2,
    run_table3,
    run_theta_sensitivity,
)

__all__ = ["main", "build_parser"]

EXPERIMENTS = [
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "ablation",
    "ablation-estimator",
    "scalability",
    "sensitivity-c",
    "sensitivity-theta",
    "all",
    "report",
    "export-dataset",
    "check",
    "selftest",
    "query",
    "serve",
    "stats",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the CrashSim paper.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS,
        help="which paper artefact to regenerate (or export-dataset)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="sizing profile: quick (default), default, or full "
        "(also via REPRO_PROFILE)",
    )
    parser.add_argument(
        "--dataset",
        action="append",
        default=None,
        help="restrict to one dataset (repeatable; fig5/fig6/export-dataset)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (export-dataset: directory; report: .md file)",
    )
    parser.add_argument(
        "--snapshots",
        type=int,
        default=None,
        help="snapshot count override (export-dataset only)",
    )
    parser.add_argument(
        "--save",
        default=None,
        help="also write the result rows as JSON to this path "
        "(directory when running 'all')",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="directory of saved result JSONs to regress against "
        "('check' only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread count for parallel execution ('query' only; "
        "default: serial estimator, 0 = all CPUs)",
    )
    parser.add_argument(
        "--source",
        type=int,
        default=None,
        help="query source node id ('query' only; default: max in-degree node)",
    )
    parser.add_argument(
        "--method",
        default="crashsim",
        help="single-source algorithm for 'query' (default: crashsim)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="number of top-scoring nodes 'query' prints (default: 10)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for 'query' (crashsim only); "
        "on expiry the completed trial shards are averaged and the "
        "degraded, wider-ε result is labelled as such",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="adaptive sampling for 'query'/'serve' (crashsim only): run "
        "trials in geometrically growing rounds and stop early once the "
        "empirical-Bernstein error bound is within ε; prints/reports the "
        "trials actually used and the honest achieved ε",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve' (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port for 'serve' (default: 8321; 0 = ephemeral)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds 'serve' waits for companion requests after the first "
        "of a batch arrives (default: 0.002; 0 = no waiting)",
    )
    parser.add_argument(
        "--tree-cache",
        type=int,
        default=256,
        help="source reverse-tree LRU capacity for 'serve' (default: 256)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bound on queued requests for 'serve'; at capacity the shed "
        "policy applies (default: unbounded)",
    )
    parser.add_argument(
        "--shed-policy",
        choices=["reject", "shed-oldest"],
        default="reject",
        help="what 'serve' does when the queue is full: reject the "
        "newcomer with HTTP 429, or shed the oldest queued deadline-less "
        "request (default: reject)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        help="consecutive deadline-exceeded/degraded outcomes that trip "
        "'serve's circuit breaker into cheap degraded mode (default: 0 = "
        "disabled)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        help="seconds the tripped breaker stays open before a half-open "
        "probe (default: 1.0)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request ('serve' only)",
    )
    parser.add_argument(
        "--stats-out",
        default=None,
        help="write the final metrics-registry snapshot as JSON to this "
        "path ('serve': on shutdown; 'stats': after the probe query)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also print the per-query span tree ('stats' only)",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="scrape a running server's /metrics instead of probing "
        "locally ('stats' only; e.g. http://127.0.0.1:8321)",
    )
    return parser


def _export_dataset(args, profile) -> None:
    from repro.datasets.registry import load_dataset
    from repro.graph.io import write_snapshot_directory

    if not args.out:
        raise SystemExit("export-dataset requires --out <directory>")
    names = args.dataset or ["hepth"]
    for name in names:
        temporal = load_dataset(
            name,
            scale=profile.scale,
            num_snapshots=args.snapshots,
            seed=profile.seed,
        )
        paths = write_snapshot_directory(
            temporal, f"{args.out}/{name}", prefix=name
        )
        print(f"wrote {len(paths)} snapshot files to {args.out}/{name}")


def _run_query(args, profile) -> int:
    """One single-source query against a profile-sized dataset graph.

    ``--workers N`` routes CrashSim through the parallel executor
    (``--workers 0`` means "all CPUs"); any worker count returns identical
    scores for the same profile seed.
    """
    import time

    import numpy as np

    from repro.api import single_source
    from repro.datasets.registry import load_static_dataset
    from repro.errors import DeadlineExceededError

    name = (args.dataset or ["hepth"])[0]
    graph = load_static_dataset(name, scale=profile.scale, seed=profile.seed)
    source = (
        int(np.argmax(graph.in_degrees())) if args.source is None else args.source
    )
    workers = args.workers
    if workers == 0:
        workers = None if args.method != "crashsim" else __import__("os").cpu_count()
    started = time.perf_counter()
    try:
        scores = single_source(
            graph,
            source,
            method=args.method,
            c=profile.c,
            delta=profile.delta,
            n_r=profile.n_r_cap,
            seed=profile.seed,
            workers=workers,
            deadline=args.deadline,
            adaptive=args.adaptive,
        )
    except DeadlineExceededError as exc:
        print(f"deadline exceeded with nothing to salvage: {exc}")
        return 2
    elapsed = time.perf_counter() - started
    mode = f"workers={workers}" if workers is not None else "serial"
    if args.deadline is not None:
        mode += f", deadline={args.deadline}s"
    if args.adaptive:
        mode += ", adaptive"
    print(
        f"{args.method} on {name} (n={graph.num_nodes}, m={graph.num_edges}): "
        f"source {source}, {mode}, {elapsed:.3f}s"
    )
    if getattr(scores, "degraded", False):
        print(
            f"  DEGRADED result: {scores.trials_completed} trials completed; "
            f"achieved ε={scores.achieved_epsilon:.4g} (wider than the target "
            "bound; scores remain unbiased)"
        )
    elif getattr(scores, "stopped_early", False):
        print(
            f"  stopped early: {scores.trials_completed} trials sufficed; "
            f"achieved ε={scores.achieved_epsilon:.4g} (within the target "
            "bound)"
        )
    order = np.lexsort((np.arange(scores.size), -scores))
    shown = 0
    for node in order:
        if node == source:
            continue
        print(f"  s({source}, {int(node)}) = {scores[node]:.6f}")
        shown += 1
        if shown >= max(0, args.top):
            break
    return 0


def _run_stats(args, profile) -> int:
    """Print an observability snapshot: scrape a server or probe locally.

    ``--url`` fetches a running server's ``/metrics`` exposition verbatim.
    Without it, one representative single-source query runs against the
    profile-sized dataset graph with a trace active, then the global
    registry snapshot is printed (``--trace`` adds the span tree;
    ``--stats-out`` also writes the snapshot JSON to a file).
    """
    from repro import obs

    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url.rstrip("/") + "/metrics") as response:
            print(response.read().decode("utf-8"), end="")
        return 0

    import numpy as np

    from repro.api import single_source
    from repro.datasets.registry import load_static_dataset

    name = (args.dataset or ["hepth"])[0]
    graph = load_static_dataset(name, scale=profile.scale, seed=profile.seed)
    source = (
        int(np.argmax(graph.in_degrees())) if args.source is None else args.source
    )
    trace = obs.Trace("query", {"source": source, "dataset": name})
    with trace.activate():
        single_source(
            graph,
            source,
            c=profile.c,
            delta=profile.delta,
            n_r=profile.n_r_cap,
            seed=profile.seed,
        )
    print(
        f"probe query: {name} (n={graph.num_nodes}, m={graph.num_edges}), "
        f"source {source}, {trace.elapsed:.3f}s"
    )
    if args.trace:
        print()
        print(trace.render())
    print()
    print(obs.REGISTRY.dump_json())
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            handle.write(obs.REGISTRY.dump_json())
        print(f"wrote registry snapshot to {args.stats_out}")
    return 0


def _run_serve(args, profile) -> int:
    """Run the long-lived query engine behind an HTTP front door.

    Loads the profile-sized dataset graph, builds one
    :class:`~repro.serve.Engine`, and serves ``POST /v1/query`` until
    interrupted; Ctrl-C drains in-flight requests before exiting.
    """
    from repro.datasets.registry import load_static_dataset
    from repro.serve import Engine, EngineConfig, create_server
    from repro.serve.http import serve_forever

    name = (args.dataset or ["hepth"])[0]
    graph = load_static_dataset(name, scale=profile.scale, seed=profile.seed)
    config = EngineConfig(
        c=profile.c,
        delta=profile.delta,
        n_r=profile.n_r_cap,
        batch_window=args.batch_window,
        tree_cache_size=args.tree_cache,
        workers=args.workers if args.workers else None,
        seed=profile.seed,
        max_queue_depth=args.max_queue_depth,
        shed_policy=args.shed_policy,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        adaptive=args.adaptive,
    )
    engine = Engine(graph, config)
    server = create_server(
        engine, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"serving {name} (n={graph.num_nodes}, m={graph.num_edges}) on "
        f"http://{host}:{port} — POST /v1/query, GET /healthz, GET /readyz, "
        "GET /stats, GET /metrics; Ctrl-C to stop"
    )
    serve_forever(server)
    print("drained; engine stats:", engine.stats())
    _print_serve_percentiles(engine)
    if args.stats_out:
        import json

        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(engine.metrics_snapshot(), handle, indent=1)
        print(f"wrote metrics snapshot to {args.stats_out}")
    return 0


def _print_serve_percentiles(engine) -> None:
    """Shutdown summary: batch-size and latency percentiles, if any."""
    snapshot = engine.registry.snapshot()
    latency = snapshot.get("repro_engine_latency_seconds", {})
    sizes = snapshot.get("repro_engine_batch_size", {})
    if latency.get("count"):
        print(
            f"latency: p50={latency['p50'] * 1000:.1f}ms "
            f"p90={latency['p90'] * 1000:.1f}ms "
            f"p99={latency['p99'] * 1000:.1f}ms "
            f"over {latency['count']} queries"
        )
    if sizes.get("count"):
        print(
            f"batch size: p50={sizes['p50']:.1f} p90={sizes['p90']:.1f} "
            f"p99={sizes['p99']:.1f} over {sizes['count']} batches"
        )


def _check_baselines(args, runners) -> int:
    """Re-run every experiment with a saved baseline and report drift."""
    from pathlib import Path

    from repro.experiments.serialization import load_rows, rows_differ

    if not args.baseline:
        raise SystemExit("check requires --baseline <directory>")
    baseline_dir = Path(args.baseline)
    files = sorted(baseline_dir.glob("*.json"))
    if not files:
        raise SystemExit(f"no baseline JSON files in {baseline_dir}")
    failures = 0
    for path in files:
        saved_rows, meta = load_rows(path)
        name = meta.get("experiment")
        if name not in runners:
            print(f"{path.name}: unknown experiment {name!r}, skipping")
            continue
        _, runner = runners[name]
        problems = rows_differ(saved_rows, runner())
        if problems:
            failures += 1
            print(f"{name}: DRIFT ({len(problems)} differences)")
            for problem in problems[:10]:
                print(f"  {problem}")
        else:
            print(f"{name}: ok ({len(saved_rows)} rows)")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile = get_profile(args.profile)
    datasets = args.dataset

    runners: Dict[str, tuple] = {
        "table2": (
            "Table II — SimRank w.r.t. A (c=0.25)",
            lambda: run_table2(),
        ),
        "table3": (
            "Table III — datasets (paper vs synthetic)",
            lambda: run_table3(profile),
        ),
        "fig5": (
            f"Figure 5 — static response time and ME [{profile.name}]",
            lambda: run_figure5(profile, datasets=datasets),
        ),
        "fig6": (
            f"Figure 6 — temporal query precision [{profile.name}]",
            lambda: run_figure6(profile, datasets=datasets),
        ),
        "fig7": (
            f"Figure 7 — time vs interval length [{profile.name}]",
            lambda: run_figure7(profile),
        ),
        "ablation": (
            f"Pruning ablation [{profile.name}]",
            lambda: run_pruning_ablation(profile),
        ),
        "ablation-estimator": (
            f"Estimator ablation [{profile.name}]",
            lambda: run_estimator_ablation(profile),
        ),
        "scalability": (
            f"Scalability — time vs graph size [{profile.name}]",
            lambda: run_scalability(profile),
        ),
        "sensitivity-c": (
            f"Sensitivity — decay factor c [{profile.name}]",
            lambda: run_c_sensitivity(profile),
        ),
        "sensitivity-theta": (
            f"Sensitivity — threshold θ [{profile.name}]",
            lambda: run_theta_sensitivity(profile),
        ),
    }

    def run_one(name: str, save_path: Optional[str]) -> None:
        title, runner = runners[name]
        rows = runner()
        print_table(rows, title=title)
        if name == "fig7" and rows and "snapshots" in rows[0]:
            from repro.experiments.report import print_series

            print_series(
                rows,
                x="snapshots",
                y="total_time_s",
                group="algorithm",
                title="total time by interval length (taller = slower)",
            )
        elif name == "scalability" and rows and "n" in rows[0]:
            from repro.experiments.report import print_series

            print_series(
                rows,
                x="n",
                y="mean_time_s",
                group="algorithm",
                title="query time by graph size (taller = slower)",
            )
        if save_path:
            from repro.experiments.serialization import save_rows

            written = save_rows(
                rows, save_path, experiment=name, profile=profile.name
            )
            print(f"saved {len(rows)} rows to {written}")

    if args.experiment == "report":
        from repro.experiments.full_report import write_report

        if not args.out:
            raise SystemExit("report requires --out <file.md>")
        written = write_report(args.out, profile)
        print(f"wrote report to {written}")
        return 0
    if args.experiment == "selftest":
        from repro.selftest import run_selftest

        return 0 if run_selftest() else 1
    if args.experiment == "query":
        return _run_query(args, profile)
    if args.experiment == "serve":
        return _run_serve(args, profile)
    if args.experiment == "stats":
        return _run_stats(args, profile)
    if args.experiment == "export-dataset":
        _export_dataset(args, profile)
    elif args.experiment == "check":
        return _check_baselines(args, runners)
    elif args.experiment == "all":
        for name in runners:
            save_path = (
                f"{args.save}/{name}.json" if args.save else None
            )
            run_one(name, save_path)
    else:
        run_one(args.experiment, args.save)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
