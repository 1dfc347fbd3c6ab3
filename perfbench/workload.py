"""One workload in a fresh process: set up, time ops, check answers, report.

Run by ``perfbench/run.py``; not meant to be started by hand (it needs
the spawn time of its own process, ``--spawn-t``, to measure set-up)::

    python3 perfbench/workload.py --workload cold-fixed --seed 1 \\
        --seconds 10 --trace 0 --spawn-t <perf_counter> --out result.json

The process imports the program, builds the pinned fixture, sets the
workload up (warm-up included), and then runs ops back to back for
``--seconds``.  Set-up time is the span from the parent's ``Popen`` to the
first timed op, less the speed probes at its two ends.  With
``--setup-only`` it stops there.  With ``--trace 0`` a speed probe also
runs between ops every ``speed.PROBE_EVERY_S``, and times are reported
as measured and at the reference speed (``speed.py``).

With ``--trace 1`` the window is split: ops ``0..K-1`` run untraced for
half the time, then the same K ops run again with every layer wrapped in
spans.  Their ``ops_per_s`` ratio is the tracing overhead; the spans give
the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from perfbench import checks, inputs, server, speed  # noqa: E402
from perfbench.layers import LAYERS, install, read_counters  # noqa: E402
from perfbench.spans import (  # noqa: E402
    OP,
    from_dict,
    layer_spans,
    op_breakdown,
    write_chrome_trace,
)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


#: Fresh sources drawn per run: more than any window reaches.  Warm-up
#: takes its sources from the end, so no timed op repeats one.
SOURCES_PER_RUN = 2048

#: Untimed ops before the window, on sources no timed op uses.
WARMUP_OPS = 3


class Workload:
    """Shared plumbing: one caller, in-process counters, no extra layers."""

    connections = 1
    #: A window ends only at a multiple of this many ops.
    ops_per_unit = 1
    #: Op indices whose full answers are kept for the correctness check.
    sample_ops = range(3)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.query_seed = inputs.query_seed(seed)
        self.notes = {}

    def prestart(self) -> None:
        """Start helper processes; runs before the fixture is built."""

    def load(self, graph) -> None:
        """Derive the workload's inputs from the fixture and the seed."""
        self.graph = graph
        in_degrees = graph.in_degrees64()
        self.pool = inputs.walkable_pool(in_degrees)
        self.structure = (
            in_degrees,
            inputs.two_hop_in(in_degrees, graph.in_indptr, graph.in_indices),
        )

    def setup(self, seconds: float) -> None:
        """Warm-up before the first timed op."""

    def open_connection(self):
        return None

    def op(self, index: int, conn):
        raise NotImplementedError

    def note(self, index: int, result) -> None:
        """Keep what the per-layer metrics need from one op's answer."""

    def scaled_latency(self, index: int, latency: float, factor: float) -> float:
        """One op's latency at the reference machine speed.

        ``factor`` is ``speed.factor`` of the window's probes.  An op here
        is compute in this process or its pool, so all of it scales.
        """
        return latency * factor

    def counters(self):
        from repro import obs

        return read_counters(obs.REGISTRY.snapshot())

    def begin_traced(self) -> None:
        self._undo = install()

    def end_traced(self) -> None:
        self._undo()

    def check(self, samples) -> list:
        return []

    def sanity(self, delta, attempted: int) -> dict:
        return {}

    def layer_metrics(self, records, roots, delta) -> dict:
        """This workload's own per-layer metrics; ``roots`` maps each
        traced op that succeeded to its span tree."""
        return {}

    def link_remote_spans(self, roots) -> None:
        """Attach the spans other processes recorded to the ops' trees."""

    def close(self) -> None:
        """Stop anything the workload started."""


class ColdFixed(Workload):
    """Serial classic CrashSim: a cold tree build and n_r=32 walks per op."""

    name = "cold-fixed"
    n_r = 32

    def load(self, graph):
        super().load(graph)
        self.sources = inputs.fresh_sources(
            self._source_pool(), self.seed, SOURCES_PER_RUN, *self.structure
        )

    def _source_pool(self):
        return self.pool

    def _query(self, source: int, seed: int):
        from repro import api

        return api.single_source(self.graph, source, n_r=self.n_r, seed=seed)

    def setup(self, seconds):
        # Sources from the tail of the sequence, which no timed op reaches:
        # kernel buffers, the process pool and numpy's lazy paths settle.
        for k in range(1, WARMUP_OPS + 1):
            self._query(int(self.sources[-k]), self.query_seed - k)

    def op(self, index, conn):
        return self._query(int(self.sources[index]), self.query_seed + index)

    def _params(self):
        from repro.core.params import CrashSimParams

        return CrashSimParams(n_r_override=self.n_r)

    def _epsilon(self, result, params):
        if result.achieved_epsilon is not None:
            return result.achieved_epsilon
        return params.achieved_epsilon(max(self.graph.num_nodes, 2), result.trials_completed)

    def _checked_nodes(self, source):
        nodes = np.arange(self.graph.num_nodes)
        return nodes[nodes != source]

    #: Chance that a correct answer fails the sum check.
    check_delta = 1e-6

    def _sum_check_delta(self, result):
        return self.check_delta

    def check(self, samples):
        """Each sampled answer against the estimator's exact expectation.

        Three checks: the answer's own per-node ε claim, which at n_r=32
        is too wide (≈0.93) to catch much; zero scores where the
        expectation is zero; and the sum of the errors within its
        Bernstein bound, which catches a zeroed, scaled or shifted vector.
        """
        from repro.core.adaptive import exact_expectation, walk_value_bound
        from repro.core.revreach import revreach_levels

        params = self._params()
        failures = []
        for index, result in sorted(samples.items()):
            source = int(self.sources[index])
            tree = revreach_levels(self.graph, source, params.l_max, params.c)
            expectation = exact_expectation(self.graph, tree, l_max=params.l_max, c=params.c)
            nodes = self._checked_nodes(source)
            for problem in (
                checks.within_bound(result, expectation, nodes, self._epsilon(result, params)),
                checks.zero_where_expected_zero(result, expectation, nodes),
                checks.sum_within_bernstein(
                    result,
                    expectation,
                    nodes,
                    walk_value_bound(tree, params.l_max),
                    int(result.trials_completed),
                    self._sum_check_delta(result),
                ),
            ):
                if problem:
                    failures.append(f"op {index} (source {source}): {problem}")
        return failures

    def sanity(self, delta, attempted):
        builds = delta["repro_tree_builds_total"]
        return {
            "tree_builds_equal_ops": {
                "holds": builds == attempted,
                "tree_builds": builds,
                "ops": attempted,
            }
        }


class AdaptiveW2(ColdFixed):
    """Adaptive stopping on 2 workers (auto tier), in-degree-1 sources, 1,000-node catalog."""

    name = "adaptive-w2"
    epsilon = 0.05
    catalog_size = 1000

    def load(self, graph):
        super().load(graph)
        self.catalog = inputs.catalog(self.pool, self.seed, self.catalog_size)

    def _query(self, source, seed):
        from repro import api

        return api.single_source(
            self.graph,
            source,
            adaptive=True,
            epsilon=self.epsilon,
            workers=2,
            candidates=self.catalog,
            seed=seed,
        )

    def _params(self):
        from repro.core.params import CrashSimParams

        return CrashSimParams(epsilon=self.epsilon)

    def _source_pool(self):
        # An adaptive query stops after one of a few geometric rounds, so op
        # latencies form clusters (≈0.45 s at 1,225 trials, ≈0.9 s at the
        # 5,423 cap).  Over the whole pool about half the sources stop by
        # 1,225 trials, which puts the median op in the gap between two
        # clusters, where it jumps by 40% on a one-op change in the mix.
        # Among in-degree-1 sources (57% of the pool) about 65% run to the
        # cap, so the median falls inside that cluster; the rest still stop
        # early at 525-2,625 trials.
        return self.pool[self.structure[0][self.pool] == 1]

    def _checked_nodes(self, source):
        return self.catalog[self.catalog != source]

    def _sum_check_delta(self, result):
        # The stopper may stop after any of its rounds (a few; 64 bounds
        # them), so the bound at the stopping round takes a union over all.
        return self.check_delta / 64

    def note(self, index, result):
        self.notes[index] = (int(result.trials_completed), bool(result.stopped_early))

    def sanity(self, delta, attempted):
        return {
            "executor_retries": {
                "holds": True,
                "task_retries": delta["repro_executor_task_retries_total"],
                "pool_rebuilds": delta["repro_executor_pool_rebuilds_total"],
            }
        }

    def layer_metrics(self, records, roots, delta):
        n_r = self._params().n_r(max(self.graph.num_nodes, 2))
        notes = [self.notes[i] for i in roots]
        count = max(len(records), 1)
        return {
            "adaptive.trials_used_ratio": _mean([t / n_r for t, _ in notes]),
            "adaptive.stopped_early_ratio": _mean([float(s) for _, s in notes]),
            "adaptive.rounds_per_op": delta["repro_adaptive_rounds_total"] / count,
        }

    def close(self):
        from repro.parallel import reset_default_executors

        reset_default_executors()


class TemporalChurn(Workload):
    """CrashSim-T sessions: one snapshot push, then four delta pushes."""

    name = "temporal-churn"
    theta = 0.005
    n_r = 32
    #: The deltas of a session, after its snapshot push.  ±50 random edges
    #: change the source's reverse tree, so every survivor is recomputed;
    #: ±2 peripheral edges leave it as it is, so delta pruning carries the
    #: survivors out of the changed edges' reach.  Difference pruning
    #: needs fewer edges inside Ω than n_r, and at θ=0.005 Ω holds
    #: thousands, so the candidate-tree cache is not reached.  Three of
    #: five pushes are peripheral, so the median push is one of them
    #: rather than the mean of two pushes of different kinds.
    session_shape = (
        ("random", 50),
        ("peripheral", 2),
        ("peripheral", 2),
        ("peripheral", 2),
    )
    #: The check replays session 0 from ``notes``, not from kept answers.
    sample_ops = ()

    def load(self, graph):
        super().load(graph)
        self.sources = inputs.fresh_sources(
            self.pool, self.seed, SOURCES_PER_RUN, *self.structure
        )
        self.edges = sorted(graph.edge_set())
        self.deltas = {}
        self.sessions = {}

    @property
    def ops_per_session(self):
        return 1 + len(self.session_shape)

    #: A window ends only between sessions, so every run has the same mix
    #: of push kinds.
    @property
    def ops_per_unit(self):
        return self.ops_per_session

    def _deltas(self, session):
        if session not in self.deltas:
            self.deltas[session] = inputs.churn_deltas(
                self.edges,
                self.graph.num_nodes,
                self.seed,
                session,
                self.session_shape,
                int(self.sources[session]),
            )
        return self.deltas[session]

    def _session(self, session):
        from repro.core.params import CrashSimParams
        from repro.core.queries import ThresholdQuery
        from repro.core.streaming import TemporalQuerySession

        return TemporalQuerySession(
            int(self.sources[session]),
            ThresholdQuery(self.theta),
            params=CrashSimParams(n_r_override=self.n_r),
            seed=self.query_seed + session,
        )

    def setup(self, seconds):
        # Inputs for every session a window can reach (a session takes
        # ≥ 1 s), so no op pays for generating them; then a warm-up
        # session on a source no op uses.
        for session in range(int(seconds) + 2):
            self._deltas(session)
        last = len(self.sources) - 1
        warm = self._session(last)
        warm.push_snapshot(self.graph)
        for added, removed in self._deltas(last)[:2]:
            warm.push_delta(added, removed)

    def op(self, index, conn):
        session, step = divmod(index, self.ops_per_session)
        if step == 0:
            state = self.sessions[session] = self._session(session)
            omega_before = 0
            survivors = state.push_snapshot(self.graph)
        else:
            state = self.sessions[session]
            omega_before = len(state.survivors)
            added, removed = self._deltas(session)[step - 1]
            survivors = state.push_delta(added, removed)
        if step == self.ops_per_session - 1:
            del self.sessions[session]
        return session, step, omega_before, survivors

    def note(self, index, result):
        self.notes[index] = result

    def check(self, samples):
        from repro.graph.digraph import DiGraph

        streamed = [
            self.notes[i][3] for i in range(self.ops_per_session) if i in self.notes
        ]
        if not streamed:
            return ["no push of session 0 completed"]
        replay = self._session(0)
        edges = set(self.edges)
        replayed = [replay.push_snapshot(self.graph)]
        for added, removed in self._deltas(0)[: len(streamed) - 1]:
            edges.difference_update(removed)
            edges.update(added)
            snapshot = DiGraph.from_edges(self.graph.num_nodes, sorted(edges))
            replayed.append(replay.push_snapshot(snapshot))
        problem = checks.same_survivors(streamed, replayed)
        return [f"session 0: {problem}"] if problem else []

    def layer_metrics(self, records, roots, delta):
        recomputed = considered = 0
        for index, root in roots.items():
            _, step, omega_before, _ = self.notes[index]
            if step:
                considered += omega_before
                recomputed += sum(
                    (span.meta or {}).get("candidates", 0)
                    for span in layer_spans(root, LAYERS)
                    if span.name == "crashsim"
                )
        return {
            "temporal.recompute_ratio": _ratio(recomputed, considered),
            "temporal.omega_mean": _mean([len(self.notes[i][3]) for i in roots]),
        }


class HotServe(Workload):
    """``POST /v1/query`` over 2 keep-alive connections to a warm server."""

    name = "hot-serve"
    connections = 2
    n_r = server.N_R
    catalog_size = 4000
    top_k = 10
    sample_ops = range(32)
    checked_answers = 4

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.report_path = os.path.join(out_dir, f"server-{os.getpid()}.json")
        self.server = None
        self.server_report = None
        self._post = self._post_untraced

    def prestart(self):
        # The server imports and builds its fixture while this process
        # builds its own, on the other CPU.
        self.server = subprocess.Popen(
            [
                sys.executable,
                os.path.join(ROOT, "perfbench", "server.py"),
                "--report",
                self.report_path,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def load(self, graph):
        super().load(graph)
        self.catalog = inputs.catalog(self.pool, self.seed, self.catalog_size)
        self.hot = inputs.hot_sources(self.pool, self.seed, *self.structure)
        self.stream = inputs.zipf_stream(self.hot, self.seed, 200_000)
        self.bodies = self._bodies([int(node) for node in self.catalog])
        self.fill_bodies = self._bodies([int(self.catalog[0])])

    def _bodies(self, candidates):
        return {
            int(source): json.dumps(
                {
                    "source": int(source),
                    "candidates": candidates,
                    "seed": self.query_seed,
                    "top_k": self.top_k,
                }
            ).encode("utf-8")
            for source in self.hot
        }

    def open_connection(self):
        import http.client

        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def setup(self, seconds):
        line = self.server.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        self.control = self.open_connection()
        # One request per hot source fills the tree LRU; a one-node
        # catalog keeps the walks of the fill cheap, since trees are keyed
        # by source alone.  Two connections overlap one request's HTTP
        # round trip with the other's tree build.  Two full requests then
        # warm the timed path.
        def fill(sources):
            conn = self.open_connection()
            try:
                for source in sources:
                    self._post_untraced(conn, -1, int(source), self.fill_bodies[int(source)])
            finally:
                conn.close()

        with ThreadPoolExecutor(2) as pool:
            list(pool.map(fill, (self.hot[0::2], self.hot[1::2])))
        for source in self.hot[:2]:
            self._post_untraced(self.control, -1, int(source))

    def _post_untraced(self, conn, index, source, body=None):
        body = self.bodies[source] if body is None else body
        conn.request(
            "POST",
            "/v1/query",
            body,
            {"Content-Type": "application/json", "X-Bench-Op": str(index)},
        )
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        payload = json.loads(data)
        payload["request_bytes"] = len(body)
        payload["response_bytes"] = len(data)
        return payload

    def op(self, index, conn):
        return self._post(conn, index, int(self.stream[index]))

    def note(self, index, result):
        self.notes[index] = (
            result["elapsed"],
            result["request_bytes"],
            result["response_bytes"],
        )

    def scaled_latency(self, index, latency, factor):
        # The engine's ``elapsed`` (queue wait, batch window, walks) is
        # compute and waiting behind compute, so it scales with the
        # machine.  The rest is HTTP, about 40% of the p50, and mostly the
        # TCP delayed-ACK timer, which does not.
        elapsed = min(self.notes[index][0], latency)
        return latency - elapsed + elapsed * factor

    def stats(self):
        self.control.request("GET", "/stats")
        response = self.control.getresponse()
        return json.loads(response.read())

    def counters(self):
        stats = self.stats()
        values = read_counters(stats["metrics"])
        for key in ("queries", "batches", "coalesced_queries", "overload_rejected", "rejected", "tree_cache_hits", "tree_cache_misses"):
            values["engine." + key] = int(stats[key])
        return values

    def begin_traced(self):
        self.server.stdin.write("trace\n")
        self.server.stdin.flush()
        if self.server.stdout.readline().strip() != "tracing":
            raise RuntimeError("server did not start tracing")
        self._post = self._post_traced

    def _post_traced(self, conn, index, source):
        from repro import obs

        with obs.span("http.client"):
            return self._post_untraced(conn, index, source)

    def end_traced(self):
        self._post = self._post_untraced

    def check(self, samples):
        from repro import api

        failures = []
        seen = set()
        for index, result in sorted(samples.items()):
            source = int(result["source"])
            if source in seen:
                continue
            seen.add(source)
            vector = api.single_source(
                self.graph, source, candidates=self.catalog, n_r=self.n_r, seed=self.query_seed
            )
            problem = checks.same_top_k(result["top"], checks.top_k(vector, source, self.top_k))
            if problem:
                failures.append(f"op {index} (source {source}): {problem}")
            if len(seen) == self.checked_answers:
                break
        return failures

    def sanity(self, delta, attempted):
        misses = delta["repro_tree_lru_misses_total"]
        return {"tree_lru_misses_zero": {"holds": misses == 0, "tree_lru_misses": misses}}

    def close(self):
        if self.server is None:
            return
        try:
            self.server.stdin.close()
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        if os.path.exists(self.report_path):
            with open(self.report_path, encoding="utf-8") as handle:
                self.server_report = json.load(handle)
            os.remove(self.report_path)
        self.server = None

    def link_remote_spans(self, roots):
        """Hang each op's ``http.server`` tree under its ``http.client`` span."""
        client = {
            (root.meta or {}).get("op"): root.children[0]
            for root in roots
            if root.children and root.children[0].name == "http.client"
        }
        for payload in self.server_report["spans"]:
            span = from_dict(payload)
            parent = client.get((span.meta or {}).get("op"))
            if parent is not None:
                parent.children.append(span)

    def layer_metrics(self, records, roots, delta):
        queries = delta["engine.queries"]
        hits, misses = delta["engine.tree_cache_hits"], delta["engine.tree_cache_misses"]
        queue_wait, service = [], []
        for root in roots.values():
            for span in layer_spans(root, LAYERS):
                if span.name != "engine.query":
                    continue
                for batch in span.children:
                    if batch.name == "batch":
                        queue_wait.append(batch.started - span.started)
                        service.append(batch.elapsed)
        latency = {index: latency for index, latency, _, error, _ in records if error is None}
        notes = [self.notes[i] for i in latency]
        overhead = [latency[i] - self.notes[i][0] for i in latency]
        return {
            "engine.queue_wait_ms_p50": _p50(queue_wait) * 1e3,
            "engine.service_ms_p50": _p50(service) * 1e3,
            "engine.batch_size_mean": _ratio(queries, delta["engine.batches"]),
            "engine.coalesced_ratio": _ratio(delta["engine.coalesced_queries"], queries),
            "engine.tree_lru_hit_ratio": _ratio(hits, hits + misses),
            "engine.refused": float(delta["engine.overload_rejected"] + delta["engine.rejected"]),
            "http.overhead_ms_p50": _p50(overhead) * 1e3,
            "http.request_bytes_mean": _mean([n[1] for n in notes]),
            "http.response_bytes_mean": _mean([n[2] for n in notes]),
        }


WORKLOADS = {cls.name: cls for cls in (ColdFixed, HotServe, AdaptiveW2, TemporalChurn)}


# --------------------------------------------------------------------------
# Timing
# --------------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _p50(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def run_ops(workload, *, conns, seconds=None, count=None, traced=False, probe=None):
    """Closed-loop ops, one caller per connection in ``conns``.

    Stops after ``seconds`` (no new unit of ``workload.ops_per_unit`` ops
    starts past it) or after exactly ``count`` ops.  With ``probe``, a
    caller that finds ``speed.PROBE_EVERY_S`` passed since the last probe
    holds the others back, waits until no op is in flight, and runs it.
    Returns ``(records, samples, window_s, roots, probes)``: each record
    is ``(index, latency_s, cpu_s, error, start_s)``, with the calling
    thread's CPU time and the op's start from the window's; each probe
    is ``(at_s, ms)``; ``window_s`` leaves out the time spent probing;
    with ``traced``, ``roots`` maps each op to the root span of the
    ``repro.obs.Trace`` it ran in.
    """
    from repro import obs

    cond = threading.Condition()
    state = {"next": 0, "in_flight": 0, "probing": False}
    records, samples, roots, probes = [], {}, {}, []
    start = time.perf_counter()
    stop_at = None if seconds is None else start + seconds
    probe_due = [start]

    def maybe_probe():
        # Called holding ``cond``; other callers wait while it probes.
        if probe is None or time.perf_counter() < probe_due[0]:
            return
        state["probing"] = True
        while state["in_flight"]:
            cond.wait()
        at = time.perf_counter() - start
        probes.append((at, probe() * 1e3))
        probe_due[0] = time.perf_counter() + speed.PROBE_EVERY_S
        state["probing"] = False
        cond.notify_all()

    def caller(conn):
        while True:
            with cond:
                while state["probing"]:
                    cond.wait()
                maybe_probe()
                index = state["next"]
                if count is not None and index >= count:
                    return
                if (
                    stop_at is not None
                    and index % workload.ops_per_unit == 0
                    and time.perf_counter() >= stop_at
                ):
                    return
                state["next"] = index + 1
                state["in_flight"] += 1
            trace = obs.Trace(OP, {"op": index, "thread": threading.get_ident()}) if traced else None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            error = None
            try:
                if trace is None:
                    result = workload.op(index, conn)
                else:
                    with trace.activate():
                        result = workload.op(index, conn)
            except Exception as exc:  # a failed op counts, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            cpu = time.thread_time() - c0
            with cond:
                state["in_flight"] -= 1
                cond.notify_all()
                records.append((index, latency, cpu, error, t0 - start))
                if trace is not None:
                    roots[index] = trace.root
                if error is None:
                    workload.note(index, result)
                    if index in workload.sample_ops:
                        samples[index] = result

    if len(conns) == 1:
        caller(conns[0])
    else:
        threads = [threading.Thread(target=caller, args=(conn,)) for conn in conns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window = time.perf_counter() - start - sum(ms for _, ms in probes) / 1e3
    records.sort()
    return records, samples, window, roots, probes


def _delta(before, after):
    return {key: after[key] - before[key] for key in before}


def steal_seconds() -> float:
    """CPU time the hypervisor gave other guests, summed over CPUs.

    The ``steal`` column of ``/proc/stat``; 0 where it is unavailable.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _per_layer(workload, records, roots, delta, untraced_rate, traced_rate, fixture_s):
    """Every per-layer metric; layers a workload does not reach read 0.

    ``roots`` maps each traced op to its span tree.
    """
    count = max(len(records), 1)
    ok = {index: roots[index] for index, _, _, error, _ in records if error is None}
    self_ms = {}
    calls = {}
    shards = 0
    wall = unattributed = 0.0
    for root in roots.values():
        entry = op_breakdown(root, LAYERS)
        wall += entry["wall"]
        unattributed += entry["unattributed"]
        for layer, seconds in entry["layers"].items():
            self_ms[layer] = self_ms.get(layer, 0.0) + seconds * 1e3
        for span in layer_spans(root, LAYERS):
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.name == "parallel.dispatch":
                shards += (span.meta or {}).get("shards", 0)
    row_hits = delta["repro_kernel_dense_row_hits_total"]
    row_misses = delta["repro_kernel_dense_row_misses_total"]
    skips = delta["repro_tree_update_skips_total"]
    rebases = delta["repro_tree_updates_total"] + skips
    metrics = {
        "graph.fixture_build_s": fixture_s,
        "graph.builder_ms_per_op": self_ms.get("graph.builder", 0.0) / count,
        "revreach.build_ms_per_op": self_ms.get("revreach.build", 0.0) / count,
        "revreach.builds_per_op": calls.get("revreach.build", 0) / count,
        "revreach.update_ms_per_op": self_ms.get("revreach.update", 0.0) / count,
        "revreach.update_skip_ratio": _ratio(skips, rebases),
        "kernel.ms_per_op": self_ms.get("kernel", 0.0) / count,
        "kernel.steps_per_op": delta["repro_kernel_steps_total"] / count,
        "kernel.dense_row_hit_ratio": _ratio(row_hits, row_hits + row_misses),
        "adaptive.trials_used_ratio": 0.0,
        "adaptive.stopped_early_ratio": 0.0,
        "adaptive.rounds_per_op": 0.0,
        "parallel.dispatch_ms_per_op": self_ms.get("parallel.dispatch", 0.0) / count,
        "parallel.shards_per_op": shards / count,
        "parallel.task_retries": float(delta["repro_executor_task_retries_total"]),
        "engine.queue_wait_ms_p50": 0.0,
        "engine.service_ms_p50": 0.0,
        "engine.batch_size_mean": 0.0,
        "engine.coalesced_ratio": 0.0,
        "engine.tree_lru_hit_ratio": 0.0,
        "engine.refused": 0.0,
        "http.overhead_ms_p50": 0.0,
        "http.request_bytes_mean": 0.0,
        "http.response_bytes_mean": 0.0,
        "temporal.recompute_ratio": 0.0,
        "temporal.pruning_ms_per_op": self_ms.get("temporal.pruning", 0.0) / count,
        "temporal.omega_mean": 0.0,
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate) - 1.0,
        "trace.unattributed_ratio": _ratio(unattributed, wall),
    }
    metrics.update(workload.layer_metrics(records, ok, delta))
    layer_ms = {layer: ms / count for layer, ms in sorted(self_ms.items())}
    return metrics, layer_ms


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def fingerprint(graph) -> dict:
    import hashlib
    import platform

    from repro.parallel import resolve_mode
    from repro.walks.kernel import WalkCrashKernel

    digest = hashlib.sha256()
    digest.update(graph.in_indptr.tobytes())
    digest.update(graph.in_indices.tobytes())
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "jit_active": WalkCrashKernel(graph, 0.6).use_jit,
        "auto_mode": resolve_mode("auto"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "fixture_edges": int(graph.num_edges),
        "fixture_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.out))

    from repro.datasets.powerlaw import powerlaw_fixture

    workload = WORKLOADS[args.workload](args.seed, out_dir)
    result = {"workload": args.workload, "seed": args.seed}
    try:
        # Probes at both ends of set-up; their time is not set-up time.
        t0 = time.perf_counter()
        probe = speed.Probe()
        setup_probes = probe.block(speed.SETUP_PROBES)
        probing = time.perf_counter() - t0
        workload.prestart()
        t0 = time.perf_counter()
        graph = powerlaw_fixture()
        result["fixture_build_s"] = time.perf_counter() - t0
        workload.load(graph)
        workload.setup(args.seconds)
        conns = [workload.open_connection() for _ in range(workload.connections)]
        result["setup_s"] = time.perf_counter() - args.spawn_t - probing
        result["setup_probes_ms"] = setup_probes + probe.block(speed.SETUP_PROBES)
        if args.setup_only:
            return _write(args.out, result)

        before = workload.counters()
        steal_before = steal_seconds()
        if args.trace:
            records, samples, window, _, _ = run_ops(
                workload, seconds=args.seconds / 2, conns=conns
            )
            untraced_rate = len(records) / window
            mid = workload.counters()
            workload.begin_traced()
            traced, _, traced_window, roots, _ = run_ops(
                workload, count=len(records), traced=True, conns=conns
            )
            workload.end_traced()
            after = workload.counters()
            window += traced_window
            records = records + traced
            traced_rate = len(traced) / traced_window
        else:
            records, samples, window, _, probes = run_ops(
                workload, seconds=args.seconds, conns=conns, probe=probe
            )
            after = workload.counters()
        steal = steal_seconds() - steal_before
        delta = _delta(before, after)
        attempted = len(records)
        errors = [error for _, _, _, error, _ in records if error is not None]
        failures = workload.check(samples)
        sanity = workload.sanity(delta, attempted)
        workload.close()
        for conn in conns:
            if conn is not None:
                conn.close()

        latencies = sorted(latency for _, latency, _, error, _ in records if error is None)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(
            attempted=attempted,
            failed=len(errors) + len(failures),
            correct=not failures and all(s["holds"] for s in sanity.values()),
            errors=errors[:5],
            check_failures=failures,
            sanity=sanity,
            fingerprint=fingerprint(graph),
            counters_delta=delta,
            # Machine-drift diagnostics: host CPU steal over the window (as
            # a share of the CPUs' time) and the callers' own CPU per op.
            steal_share=steal / (window * len(os.sched_getaffinity(0))),
            caller_cpu_ms_p50=_p50(cpu for _, _, cpu, _, _ in records) * 1e3,
        )
        if not args.trace:
            # Times as measured (raw_*) and at the reference machine speed
            # of the probes that ran between the ops (see speed.py).
            probe_ms = [ms for _, ms in probes]
            factor = speed.factor(probe_ms)
            scaled = sorted(
                workload.scaled_latency(index, latency, factor)
                for index, latency, _, error, _ in records
                if error is None
            )
            result["probes"] = probes
            result["probe_ms_p50"] = _p50(probe_ms)
            result["raw_latency_p50_ms"] = _p50(latencies) * 1e3
            result["latency_p50_ms"] = _p50(scaled) * 1e3
            beyond = len(latencies) - int(np.ceil(0.9 * len(latencies)))
            if beyond >= 10:
                result["raw_latency_p90_ms"] = float(np.percentile(latencies, 90)) * 1e3
                result["latency_p90_ms"] = float(np.percentile(scaled, 90)) * 1e3
            result["ops"] = len(latencies)
            result["ops_timeline"] = [
                (round(start, 4), round(latency * 1e3, 3)) for _, latency, _, _, start in records
            ]
            result["raw_ops_per_s"] = len(latencies) / window
            # The window scales as its ops do on the whole.
            result["ops_per_s"] = result["raw_ops_per_s"] * _ratio(sum(latencies), sum(scaled))
            result["peak_rss_mb"] = peak_kb / 1024.0
        else:
            workload.link_remote_spans(roots.values())
            per_layer, layer_ms = _per_layer(
                workload,
                traced,
                roots,
                _delta(mid, after),
                untraced_rate,
                traced_rate,
                result["fixture_build_s"],
            )
            result["per_layer"] = per_layer
            result["layer_self_ms_per_op"] = layer_ms
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json")
            write_chrome_trace(
                trace_path, roots.values(), {"workload": args.workload, "seed": args.seed}
            )
            result["chrome_trace"] = os.path.relpath(trace_path, ROOT)
        return _write(args.out, result)
    finally:
        workload.close()


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
