"""A threaded HTTP front door over one :class:`~repro.serve.engine.Engine`.

Deliberately dependency-free (``http.server`` from the standard library):
each connection gets a handler thread, every handler funnels into the
engine's queue, and the engine's single dispatcher does the actual scoring
— so the batching window naturally coalesces whatever concurrent HTTP
clients send.  This is the process behind ``repro serve``.

Every response — status line, headers and body — leaves in one socket
write on a ``TCP_NODELAY`` connection, so no part of it waits on the
client's delayed ACK (``_Handler._send``).

Endpoints
---------
``POST /v1/query``
    Body: ``{"source": 3, "candidates": [..]?, "seed": 42?,
    "deadline": 0.5?, "sampler": "cdf"?, "top_k": 10?}``.
    The ``X-Repro-Deadline`` request header (seconds, float) is an
    alternative way to carry the end-to-end budget — proxies can stamp it
    without parsing the body; when both are present the *tighter* budget
    wins.  Response carries the resilience metadata and either the dense
    ``scores`` list (small graphs / explicit ``"dense": true``) or the
    ``top`` ranking.  Requests without ``top_k`` on graphs larger than
    ``DENSE_RESPONSE_LIMIT`` nodes default to ``top_k=100`` rather than
    shipping a multi-megabyte vector.

    Status codes: ``200`` answered (possibly degraded — check the body);
    ``400`` malformed — bad JSON, a bad ``Content-Length``, ``source`` /
    ``seed`` not a non-negative integer, ``candidates`` not a list of
    them, ``top_k`` not a positive integer, an unknown ``sampler``,
    ``dense`` not a JSON boolean, or a body or header deadline that is
    not a finite number; ``408`` the body stalled for
    ``BODY_READ_TIMEOUT``; ``413`` a ``Content-Length`` over
    ``MAX_BODY_BYTES``; ``429`` shed by admission control, with a
    ``Retry-After`` header from the engine's measured service rate;
    ``503`` engine shut down; ``504`` deadline expired with nothing to
    salvage.  After a ``400`` for the ``Content-Length``, a ``408`` or a
    ``413`` the connection closes: the rest of its byte stream cannot be
    framed into requests.
``GET /healthz``
    Liveness only: ``200 {"status": "ok"}`` whenever the process can
    answer HTTP at all — even while draining.  Restart-deciders watch
    this; routing-deciders watch ``/readyz``.
``GET /readyz``
    Readiness: ``200 {"status": "ready"}`` while the engine accepts and
    serves at full quality; ``503`` (with ``Retry-After`` when known)
    while the engine is draining in ``close()`` or the circuit breaker is
    open — so load balancers stop routing before shutdown drops requests.
``GET /stats``
    The engine's serving counters, plus a ``metrics`` object carrying the
    merged registry snapshot (counters, gauges, histogram percentiles).
``GET /metrics``
    Prometheus text exposition (format 0.0.4) over the global registry and
    the engine's per-engine registry — kernel, tree, executor, and engine
    metric families in one scrape.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro import obs
from repro import parallel as _parallel  # noqa: F401 - registers the
# executor/runner metric families so a /metrics scrape covers them even
# before the engine's first deadline query forces the lazy import.
from repro.errors import (
    DeadlineExceededError,
    DispatcherError,
    EngineClosedError,
    EngineOverloadedError,
    ReproError,
)
from repro.serve.engine import Engine, _check_deadline

__all__ = [
    "create_server",
    "serve_forever",
    "BODY_READ_TIMEOUT",
    "DENSE_RESPONSE_LIMIT",
    "DEADLINE_HEADER",
    "MAX_BODY_BYTES",
]

#: Request header carrying the end-to-end deadline budget in seconds.
DEADLINE_HEADER = "X-Repro-Deadline"

#: Above this node count, responses default to a top-k ranking instead of
#: the dense vector (which would be ~1 MB of JSON per 50k-node query).
DENSE_RESPONSE_LIMIT = 10_000

#: Largest request body accepted, in bytes; a longer ``Content-Length`` is
#: answered 413 before anything is read.  A whole-graph candidate list on
#: the 50k-node benchmark fixture is ~350 KB, so this leaves ~45x room.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a request body may stall (no bytes arriving) before the handler
#: answers 408 and closes.  It applies only while the body is read, so an
#: idle keep-alive connection between requests is not timed out.
BODY_READ_TIMEOUT = 10.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  Each response below is
    # already one write; this keeps any future multi-write reply from
    # waiting on the client's delayed ACK.
    disable_nagle_algorithm = True

    # The engine rides on the server object (see create_server).
    @property
    def engine(self) -> Engine:
        return self.server.engine

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after: Optional[float] = None,
    ) -> None:
        """Write the status line, headers and body as one socket write.

        The stdlib's ``end_headers`` + ``wfile.write`` pair is two sends:
        under Nagle's algorithm the small body then waits for the client's
        delayed ACK of the headers, ~40 ms per response on Linux.
        """
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if retry_after is not None:
            # Retry-After is whole seconds on the wire; round up so a
            # compliant client never comes back before capacity frees.
            lines.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def _reply(
        self,
        status: int,
        payload: dict,
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", retry_after)

    def send_error(self, code, message=None, explain=None):
        # The stdlib's own rejections (bad request line, unsupported
        # method, oversized headers): a JSON error in one write, and the
        # connection closes, as the stdlib would.
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            # Liveness: this handler running *is* the health signal.  A
            # draining engine still answers 200 here — /readyz is what
            # tells the load balancer to stop routing.
            self._reply(200, {"status": "ok"})
            return
        if self.path == "/readyz":
            ready, reason, retry_after = self.engine.readiness()
            if ready:
                self._reply(200, {"status": "ready"})
            else:
                self._reply(
                    503, {"status": reason}, retry_after=retry_after
                )
            return
        if self.path == "/stats":
            payload = self.engine.stats()
            payload["metrics"] = self.engine.metrics_snapshot()
            self._reply(200, payload)
            return
        if self.path == "/metrics":
            body = obs.render_prometheus(*self.engine.registries()).encode(
                "utf-8"
            )
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
            return
        self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        # Each early answer below leaves the body unread (or half read),
        # so the connection cannot carry another request.
        if length < 0:
            self.close_connection = True
            self._reply(
                400, {"error": f"malformed Content-Length {raw_length!r}"}
            )
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._reply(
                413,
                {"error": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"},
            )
            return
        # Read the body even for an unknown path: left unread, it would
        # be parsed as the connection's next request.
        previous_timeout = self.connection.gettimeout()
        self.connection.settimeout(BODY_READ_TIMEOUT)
        try:
            body = self.rfile.read(length)
        except socket.timeout:
            self.close_connection = True
            self._reply(
                408,
                {"error": f"request body stalled for {BODY_READ_TIMEOUT} s"},
            )
            return
        finally:
            self.connection.settimeout(previous_timeout)
        if self.path != "/v1/query":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:  # bad JSON or bad UTF-8
            self._reply(400, {"error": f"malformed request body: {exc}"})
            return
        if not isinstance(payload, dict) or "source" not in payload:
            self._reply(400, {"error": "body must be an object with 'source'"})
            return
        top_k = payload.get("top_k")
        dense = payload.get("dense", False)
        if not isinstance(dense, bool):
            self._reply(400, {"error": f"'dense' must be true or false, got {dense!r}"})
            return
        if (
            top_k is None
            and not dense
            and self.engine.graph.num_nodes > DENSE_RESPONSE_LIMIT
        ):
            top_k = 100
        header_deadline = self.headers.get(DEADLINE_HEADER)
        if header_deadline is not None:
            try:
                header_budget = float(header_deadline)
            except ValueError:
                header_budget = math.nan
            if not math.isfinite(header_budget):
                self._reply(
                    400,
                    {
                        "error": f"malformed {DEADLINE_HEADER} header: "
                        f"{header_deadline!r} is not a finite number"
                    },
                )
                return
            if header_budget <= 0:
                # The proxy says the budget is already gone: answer like
                # any other expired deadline, without engine round-trip.
                self._reply(
                    504,
                    {
                        "error": f"{DEADLINE_HEADER} budget already expired",
                        "deadline": header_budget,
                    },
                )
                return
        try:
            deadline = payload.get("deadline")
            if header_deadline is not None:
                deadline = (
                    header_budget
                    if deadline is None
                    else min(_check_deadline(deadline), header_budget)
                )
            result = self.engine.query(
                payload["source"],
                candidates=payload.get("candidates"),
                seed=payload.get("seed"),
                deadline=deadline,
                sampler=payload.get("sampler", "cdf"),
                top_k=top_k,
            )
        except EngineOverloadedError as exc:
            self._reply(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                retry_after=exc.retry_after or 1.0,
            )
            return
        except EngineClosedError as exc:
            self._reply(503, {"error": str(exc)})
            return
        except DeadlineExceededError as exc:
            self._reply(504, {"error": str(exc), "deadline": exc.deadline})
            return
        except DispatcherError as exc:
            # Server-side failure, not the client's: resubmittable.
            self._reply(500, {"error": str(exc)})
            return
        except (ReproError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        response = {
            "source": result.source,
            "seed": result.seed,
            "elapsed": result.elapsed,
            "degraded": result.degraded,
            "trials_completed": result.scores.trials_completed,
            "achieved_epsilon": result.scores.achieved_epsilon,
            "batch_size": result.batch_size,
            "coalesced": result.coalesced,
            "breaker_state": result.breaker_state,
        }
        if result.top is not None:
            response["top"] = [[node, score] for node, score in result.top]
        else:
            response["scores"] = [float(s) for s in result.scores]
        self._reply(200, response)


def create_server(
    engine: Engine,
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build the threaded HTTP server (not yet serving) over ``engine``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — how the tests run a real client/server
    pair without port collisions.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.engine = engine
    server.verbose = verbose
    server.daemon_threads = True
    return server


def serve_forever(
    server: ThreadingHTTPServer, *, poll_interval: float = 0.5
) -> None:
    """Serve until interrupted, then drain the engine before returning."""
    try:
        server.serve_forever(poll_interval=poll_interval)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown_requested = True
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.engine.close()
        server.server_close()
