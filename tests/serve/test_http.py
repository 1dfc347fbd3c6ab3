"""The HTTP front door on the wire.

Every response leaves the server in one socket write on a TCP_NODELAY
connection; split into headers-then-body, the body waits for the client's
delayed ACK (>= 40 ms per response on Linux).  Malformed requests get a
4xx JSON error on a connection that keeps answering — never a 5xx, a
dropped connection, or a silent coercion.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro import faults
from repro.graph.generators import preferential_attachment
from repro.serve import Engine, EngineConfig, QueryRequest
from repro.serve import http as serve_http
from repro.serve.http import DEADLINE_HEADER, create_server


class _RecordingSocket:
    """A socket proxy that logs every payload handed to ``send``/``sendall``."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _Wire:
    """Socket writes and TCP_NODELAY of every connection the server accepts."""

    def __init__(self):
        self.writes = []
        self.nodelay = []


@pytest.fixture
def wire(monkeypatch):
    recorded = _Wire()
    setup = serve_http._Handler.setup

    def recording_setup(handler):
        handler.request = _RecordingSocket(handler.request, recorded.writes)
        setup(handler)
        recorded.nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(serve_http._Handler, "setup", recording_setup)
    return recorded


def _serving(engine):
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def server(engine):
    server, thread = _serving(engine)
    try:
        yield server
    finally:
        _stop(server, thread)


def _connect(server):
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def _request(conn, method, path, body=None, headers=None):
    conn.request(method, path, body, headers or {})
    response = conn.getresponse()
    return response, response.read()


def _query(source=3, **fields):
    return json.dumps({"source": source, **fields}).encode()


#: (label, method, path, body, extra headers, expected status)
ONE_WRITE_CASES = [
    ("query-200", "POST", "/v1/query", _query(seed=7), {}, 200),
    ("malformed-400", "POST", "/v1/query", b'{"no_source": 1}', {}, 400),
    ("unknown-get-404", "GET", "/nope", None, {}, 404),
    ("unknown-post-404", "POST", "/nope", b"{}", {}, 404),
    ("expired-504", "POST", "/v1/query", _query(seed=7), {DEADLINE_HEADER: "-1"}, 504),
    ("healthz", "GET", "/healthz", None, {}, 200),
    ("readyz", "GET", "/readyz", None, {}, 200),
    ("stats", "GET", "/stats", None, {}, 200),
    ("metrics", "GET", "/metrics", None, {}, 200),
    ("stdlib-501", "PUT", "/v1/query", b"{}", {}, 501),
    (
        "too-large-413",
        "POST",
        "/v1/query",
        b"",
        {"Content-Length": str(serve_http.MAX_BODY_BYTES + 1)},
        413,
    ),
]


class TestOneWritePerResponse:
    @pytest.mark.parametrize(
        "method,path,body,headers,status",
        [case[1:] for case in ONE_WRITE_CASES],
        ids=[case[0] for case in ONE_WRITE_CASES],
    )
    def test_response_is_one_write(
        self, wire, server, method, path, body, headers, status
    ):
        conn = _connect(server)
        try:
            response, data = _request(conn, method, path, body, headers)
        finally:
            conn.close()
        assert response.status == status
        assert len(wire.writes) == 1
        (write,) = wire.writes
        assert write.startswith(f"HTTP/1.1 {status} ".encode())
        assert write.endswith(b"\r\n\r\n" + data)
        assert wire.nodelay and all(wire.nodelay)

    def test_keep_alive_responses_are_one_write_each(self, wire, server):
        conn = _connect(server)
        try:
            for seed in range(5):
                response, _ = _request(
                    conn, "POST", "/v1/query", _query(seed=seed)
                )
                assert response.status == 200
                assert len(wire.writes) == seed + 1
        finally:
            conn.close()
        # One accepted connection carried all five, with Nagle off.
        assert len(wire.nodelay) == 1 and wire.nodelay[0]

    def test_429_with_retry_after_is_one_write(self, wire, serve_graph):
        config = EngineConfig(
            n_r=32, batch_window=0.0, seed=1234, max_queue_depth=1
        )
        plan = {"dispatcher": {"0": {"kind": "delay", "seconds": 2.0}}}
        with faults.active(plan):
            engine = Engine(serve_graph, config)
            server, thread = _serving(engine)
            try:
                filler = engine.submit(QueryRequest.make(150, seed=301))
                conn = _connect(server)
                try:
                    response, data = _request(
                        conn, "POST", "/v1/query", _query(151, seed=302)
                    )
                finally:
                    conn.close()
                assert filler.result(timeout=30) is not None
            finally:
                _stop(server, thread)
                engine.close()
        assert response.status == 429
        assert int(response.getheader("Retry-After")) >= 1
        (write,) = wire.writes
        assert b"\r\nRetry-After: " in write
        assert write.endswith(b"\r\n\r\n" + data)

    @pytest.mark.timeout(60)
    def test_keep_alive_round_trip_has_no_delayed_ack_stall(self):
        # Headers and body in two sends cost >= 40 ms per round trip on
        # Linux (Nagle holds the body for the client's delayed ACK); one
        # write on a tiny graph is a few milliseconds.
        graph = preferential_attachment(40, 2, seed=5)
        config = EngineConfig(n_r=8, batch_window=0.0, seed=1)
        with Engine(graph, config) as engine:
            server, thread = _serving(engine)
            conn = _connect(server)
            try:
                _request(conn, "POST", "/v1/query", _query(seed=0))
                rounds = []
                for seed in range(30):
                    start = time.perf_counter()
                    response, _ = _request(
                        conn, "POST", "/v1/query", _query(seed=seed)
                    )
                    rounds.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
                _stop(server, thread)
        assert statistics.median(rounds) < 0.025


def _deadline_body(literal):
    # NaN / Infinity are not JSON, but Python's decoder accepts them.
    return b'{"source": 3, "seed": 7, "deadline": ' + literal + b"}"


#: (label, body, extra headers) — each must be answered 4xx with JSON.
MALFORMED_CASES = [
    ("source-string", _query("abc"), {}),
    ("source-float", _query(1.5), {}),
    ("source-bool", _query(True), {}),
    ("source-negative", _query(-1), {}),
    ("source-out-of-range", _query(10**6), {}),
    ("seed-string", _query(seed="x"), {}),
    ("seed-negative", _query(seed=-5), {}),
    ("seed-float", _query(seed=2.5), {}),
    ("candidates-string", _query(candidates="abc"), {}),
    ("candidates-int", _query(candidates=7), {}),
    ("candidates-mixed", _query(candidates=[151, "152"]), {}),
    ("candidate-negative", _query(candidates=[-1]), {}),
    ("candidate-out-of-range", _query(candidates=[10**6]), {}),
    # The serve graph has 300 nodes: id 300 is the first one past the end.
    ("candidate-one-past-range", _query(candidates=[151, 300]), {}),
    ("top-k-zero", _query(top_k=0), {}),
    ("top-k-string", _query(top_k="5"), {}),
    ("sampler-unknown", _query(sampler="bogus"), {}),
    ("sampler-list", _query(sampler=["cdf"]), {}),
    ("deadline-string-with-header", _query(deadline="soon"), {DEADLINE_HEADER: "5"}),
    ("deadline-string", _query(deadline="soon"), {}),
    ("deadline-nan", _deadline_body(b"NaN"), {}),
    ("deadline-infinity", _deadline_body(b"Infinity"), {}),
    ("deadline-nan-with-header", _deadline_body(b"NaN"), {DEADLINE_HEADER: "5"}),
    ("header-nan", _query(seed=7), {DEADLINE_HEADER: "nan"}),
    ("header-infinity", _query(seed=7), {DEADLINE_HEADER: "inf"}),
    ("header-not-a-number", _query(seed=7), {DEADLINE_HEADER: "soon"}),
    ("json-malformed", b'{"source": ', {}),
    ("json-not-an-object", b"[3]", {}),
    ("body-not-utf8", b"\xff\xfe\xfd", {}),
    ("body-empty", b"", {}),
    ("dense-string-false", _query(dense="false"), {}),
    ("dense-zero", _query(dense=0), {}),
    ("dense-list", _query(dense=[]), {}),
    ("dense-null", _query(dense=None), {}),
]


def _head(content_length):
    return (
        "POST /v1/query HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n\r\n"
    ).encode()


#: (label, raw request bytes, expected status) — requests whose body cannot
#: be framed: each is answered 4xx JSON with ``Connection: close``.
CLOSING_CASES = [
    ("body-shorter-than-length", _head(100) + b'{"source": 3}', 408),
    ("length-over-cap", _head(serve_http.MAX_BODY_BYTES + 1), 413),
    ("length-huge", _head(10**18), 413),
]


def _raw_exchange(server, data):
    """Send raw bytes, read until the server closes; (status, headers, body)."""
    with socket.create_connection(server.server_address[:2], timeout=30) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body


class TestFrontDoorFuzz:
    @pytest.mark.parametrize(
        "body,headers",
        [case[1:] for case in MALFORMED_CASES],
        ids=[case[0] for case in MALFORMED_CASES],
    )
    def test_malformed_query_is_4xx_json_and_connection_survives(
        self, server, body, headers
    ):
        conn = _connect(server)
        try:
            response, data = _request(conn, "POST", "/v1/query", body, headers)
            assert 400 <= response.status < 500
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(data)["error"]
            # The body was read in full, so the connection still serves.
            response, data = _request(conn, "POST", "/v1/query", _query(seed=7))
            assert response.status == 200
            assert json.loads(data)["source"] == 3
        finally:
            conn.close()

    def test_unknown_post_path_is_404_and_connection_survives(self, server):
        conn = _connect(server)
        try:
            response, data = _request(conn, "POST", "/v2/query", _query(seed=7))
            assert response.status == 404
            assert json.loads(data)["error"]
            # The unread body would otherwise be parsed as the next request.
            response, _ = _request(conn, "POST", "/v1/query", _query(seed=7))
            assert response.status == 200
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_bad_content_length_is_400_then_close(self, server, length):
        conn = _connect(server)
        try:
            conn.putrequest("POST", "/v1/query")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert json.loads(data)["error"]
        # The body's extent is unknown: the server says so and closes.
        assert response.getheader("Connection") == "close"
        conn = _connect(server)
        try:
            response, _ = _request(conn, "GET", "/healthz")
            assert response.status == 200
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "data,status",
        [case[1:] for case in CLOSING_CASES],
        ids=[case[0] for case in CLOSING_CASES],
    )
    def test_unframeable_body_is_4xx_then_close(
        self, monkeypatch, server, data, status
    ):
        monkeypatch.setattr(serve_http, "BODY_READ_TIMEOUT", 0.3)
        started = time.monotonic()
        got, headers, body = _raw_exchange(server, data)
        assert time.monotonic() - started < 10
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]
        # No handler is left parked: the next connection is served.
        conn = _connect(server)
        try:
            response, _ = _request(conn, "POST", "/v1/query", _query(seed=7))
            assert response.status == 200
        finally:
            conn.close()

    def test_body_timeout_spares_idle_keep_alive(self, monkeypatch, server):
        monkeypatch.setattr(serve_http, "BODY_READ_TIMEOUT", 0.2)
        conn = _connect(server)
        try:
            response, _ = _request(conn, "POST", "/v1/query", _query(seed=7))
            assert response.status == 200
            time.sleep(0.6)  # idle three body timeouts between requests
            response, _ = _request(conn, "POST", "/v1/query", _query(seed=8))
            assert response.status == 200
        finally:
            conn.close()

    @pytest.mark.parametrize("dense", [True, False])
    def test_boolean_dense_answers(self, server, dense):
        conn = _connect(server)
        try:
            response, data = _request(
                conn, "POST", "/v1/query", _query(seed=7, dense=dense)
            )
        finally:
            conn.close()
        assert response.status == 200
        # The 300-node test graph is under DENSE_RESPONSE_LIMIT, so both
        # answer the dense vector; the flag only matters on big graphs.
        assert len(json.loads(data)["scores"]) == 300

    def test_every_valid_field_still_answers(self, server, catalog):
        conn = _connect(server)
        try:
            response, data = _request(
                conn,
                "POST",
                "/v1/query",
                _query(
                    seed=7,
                    candidates=list(catalog[:10]),
                    deadline=30,
                    top_k=3,
                    sampler="alias",
                ),
                {DEADLINE_HEADER: "60"},
            )
        finally:
            conn.close()
        assert response.status == 200
        assert len(json.loads(data)["top"]) == 3
