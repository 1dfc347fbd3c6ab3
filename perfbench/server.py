"""The hot-serve server process: ``serve.http`` over one warm ``Engine``.

Started by the hot-serve workload, which reads ``port <n>`` from this
process's standard output and drives it over HTTP.  Commands arrive on
standard input, one per line:

``trace``
    wrap the layers in spans from now on (answers ``tracing``);
EOF
    shut down, then write the spans to the ``--report`` file.

With tracing on, each ``POST /v1/query`` runs in its own
:class:`repro.obs.Trace`, rooted at an ``http.server`` span that carries
the op id from the ``X-Bench-Op`` header.  The engine records each batch
in a trace of its own on its dispatcher thread, and hands it back on
``QueryResult.trace``; the ``engine.query`` span of every op the batch
answered takes that trace's root as a child.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

#: Trials per query of the served engine (``EngineConfig.n_r``).
N_R = 64


def _attach_batch(span, args, kwargs, result) -> None:
    if result.trace is not None:
        span.children.append(result.trace.root)


def _trace_handler(handler_cls, roots) -> None:
    """Run each ``do_POST`` inside an ``http.server`` trace of its op.

    Patched on the class, so keep-alive connections opened before tracing
    began (their handler objects already exist) are traced too.
    """
    from repro import obs

    original = handler_cls.do_POST

    def do_post(self):
        op = self.headers.get("X-Bench-Op")
        trace = obs.Trace("http.server", {"op": None if op is None else int(op)})
        with trace.activate():
            original(self)
        roots.append(trace.root)

    handler_cls.do_POST = do_post


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    from repro.datasets.powerlaw import powerlaw_fixture
    from repro.serve.engine import Engine, EngineConfig
    from repro.serve.http import create_server

    from perfbench.layers import install
    from perfbench.spans import to_dict

    graph = powerlaw_fixture()
    engine = Engine(graph, EngineConfig(n_r=N_R))
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)

    roots = []
    tracing = False
    for line in sys.stdin:
        if line.strip() == "trace" and not tracing:
            install(
                extra_methods=(
                    ("repro.serve.engine", "Engine", ("query",), "engine.query", _attach_batch),
                )
            )
            _trace_handler(server.RequestHandlerClass, roots)
            tracing = True
            print("tracing", flush=True)

    server.shutdown()
    server.server_close()
    engine.close()
    thread.join(timeout=10)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump({"spans": [to_dict(root) for root in roots]}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
