import gc
import gzip
import json
import os
import socket
import ssl
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import zlib
from contextlib import ExitStack, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from rposcan.httpclient import (
    HttpRequest,
    HttpResponse,
    NetworkError,
    RateLimitedClient,
    RecordingClient,
    RequestsClient,
)
from rposcan.httpclient import MAX_IDLE_ORIGINS, _read_response
from rposcan.urls import WebUrl, parse_url

DELAY = 0.020


def test_requests_and_responses_are_immutable_and_share_one_empty_mapping():
    first, second = HttpRequest(parse_url("http://a.test/")), HttpRequest(parse_url("http://a.test/"))
    assert first.cookies is second.cookies
    with pytest.raises(TypeError):
        first.cookies["sid"] = "1"
    assert second.cookies == {} and second.referer is None
    assert second.method == "GET"
    response = HttpResponse(200, {"Content-Type": "text/css"}, b"")
    for obj, name, value in [
        (first, "web_url", parse_url("http://b.test/")),
        (first, "url", "http://b.test/"),
        (first, "referer", "http://a.test/x"),
        (response, "status", 404),
        (response, "body", b"x"),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert response.header("content-type") == "text/css"
    assert first.url == "http://a.test/"  # the string form, derived from web_url


class _FailingClient:
    def fetch(self, request: HttpRequest) -> HttpResponse:
        raise NetworkError("connection refused")


def test_recording_client_records_a_failed_fetch_without_response():
    recording = RecordingClient(_FailingClient())
    request = HttpRequest(parse_url("http://a.test/"))
    with pytest.raises(NetworkError):
        recording.fetch(request)
    [exchange] = recording.exchanges
    assert exchange.request == request and exchange.status is None


class _NotFoundClient:
    def fetch(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(404, {}, b"not found")


def test_recording_client_logs_the_status_and_no_body():
    recording = RecordingClient(_NotFoundClient())
    request = HttpRequest(parse_url("http://a.test/"))
    assert recording.fetch(request).body == b"not found"
    [exchange] = recording.exchanges
    assert exchange.request == request and exchange.status == 404
    assert exchange._fields == ("request", "status", "timestamp")


OVERSLEEP = 0.005


class FakeClock:
    """Monotonic clock whose sleep always overshoots by OVERSLEEP."""

    def __init__(self) -> None:
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + OVERSLEEP


class TimedClient:
    """Records the fake send time of each request, then takes `cost` seconds."""

    def __init__(self, clock: FakeClock, costs: list[float]) -> None:
        self._clock = clock
        self._costs = iter(costs)
        self.sends: list[float] = []

    def fetch(self, request: HttpRequest) -> HttpResponse:
        self.sends.append(self._clock.now)
        self._clock.now += next(self._costs)
        return HttpResponse(200, {}, b"")


def test_rate_limiter_spaces_actual_sends_despite_oversleep(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("rposcan.httpclient.time.monotonic", clock.monotonic)
    monkeypatch.setattr("rposcan.httpclient.time.sleep", clock.sleep)
    # Fetch costs just under the delay: after one oversleep the next request
    # arrives past a slot booked from the planned (not actual) send time.
    costs = [0.0, 0.018, 0.003, 0.017, 0.019, 0.0, 0.016, 0.018, 0.019, 0.001]
    inner = TimedClient(clock, costs)
    client = RateLimitedClient(inner, DELAY)
    for i in range(len(costs)):
        client.fetch(HttpRequest(parse_url(f"http://one.test/page{i}")))
    gaps = [after - before for before, after in zip(inner.sends, inner.sends[1:])]
    assert len(gaps) == len(costs) - 1
    assert min(gaps) >= DELAY - 1e-9, gaps


def test_rate_limiter_paces_by_the_host_the_client_connects_to(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("rposcan.httpclient.time.monotonic", clock.monotonic)
    monkeypatch.setattr("rposcan.httpclient.time.sleep", clock.sleep)
    inner = TimedClient(clock, [0.0, 0.0, 0.0])
    client = RateLimitedClient(inner, 0.200)
    # case, a fragment and the default port written out do not change the
    # host these reach
    for url in ("http://h.test/b", "http://H.test#x/c", "http://h.test:80/d"):
        client.fetch(HttpRequest(parse_url(url)))
    gaps = [after - before for before, after in zip(inner.sends, inner.sends[1:])]
    assert len(gaps) == 2
    assert min(gaps) >= 0.200 - 1e-9, gaps


# --- RequestsClient against test-local loopback servers ---


class RecordingHandler(BaseHTTPRequestHandler):
    """Answers every GET with ``respond`` and records what arrived."""

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self.server.seen.append((self.requestline, list(self.headers.items())))
        status, headers, body = self.server.respond(self)
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


class HangUpHandler(BaseHTTPRequestHandler):
    """Closes each connection without reading or answering."""

    def handle(self) -> None:
        pass


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts and those it has closed."""

    connections = 0
    closed = 0

    def process_request(self, request, client_address) -> None:
        self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1


@contextmanager
def local_server(handler=RecordingHandler, respond=lambda h: (200, [], b"ok")):
    server = CountingServer(("127.0.0.1", 0), handler)
    server.lock = threading.Lock()
    server.seen = []
    server.respond = respond
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def url_of(server, path: str = "/") -> WebUrl:
    return parse_url(f"http://127.0.0.1:{server.server_address[1]}{path}")


def test_client_hang_up_is_one_connection_and_network_error():
    with local_server(HangUpHandler) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(url_of(server, "/page")))
        assert server.connections == 1


def test_client_hands_a_redirect_back_unfollowed():
    respond = lambda h: (302, [("Location", "/next")], b"moved")  # noqa: E731
    with local_server(respond=respond) as server:
        response = RequestsClient(timeout=5).fetch(HttpRequest(url_of(server, "/start")))
        assert (response.status, response.header("Location"), response.body) == (302, "/next", b"moved")
        assert [line for line, _ in server.seen] == ["GET /start HTTP/1.1"]


def test_client_does_not_replay_set_cookie():
    respond = lambda h: (200, [("Set-Cookie", "session=1; Path=/")], b"")  # noqa: E731
    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url_of(server, "/first")))
        client.fetch(HttpRequest(url_of(server, "/second"), cookies={"a": "1"}))
        client.fetch(HttpRequest(url_of(server, "/third")))
        cookies = [dict(headers).get("Cookie") for _, headers in server.seen]
        assert cookies == [None, "a=1", None]


def test_client_ignores_proxy_variables_and_connects_direct(monkeypatch):
    # a bound socket that never listens: a connect to it is refused
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        proxy = f"http://127.0.0.1:{closed.getsockname()[1]}"
        for name in ("http_proxy", "HTTPS_PROXY", "all_proxy"):
            monkeypatch.setenv(name, proxy)
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        with local_server() as server:
            response = RequestsClient(timeout=5).fetch(HttpRequest(url_of(server, "/page")))
            assert response.body == b"ok"
            assert [line for line, _ in server.seen] == ["GET /page HTTP/1.1"]


def test_client_refuses_non_get_before_connecting():
    with local_server() as server:
        client = RequestsClient(timeout=5)
        for method in ("POST", "HEAD", "PUT"):
            with pytest.raises(NetworkError):
                client.fetch(HttpRequest(url_of(server, "/form"), method=method))
        assert server.connections == 0
        client.fetch(HttpRequest(url_of(server, "/after")))
        assert server.connections == 1
        assert [line for line, _ in server.seen] == ["GET /after HTTP/1.1"]


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def open_connections(server) -> int:
    return server.connections - server.closed


@pytest.mark.parametrize("path, on_the_wire", [
    # a lone "%": urllib3 sent /100%25/page.php/%250A%257B%257D//
    ("/100%/page.php/%0A%7B%7D//", "/100%/page.php/%0A%7B%7D//"),
    ("/app/page.php/%0a%7b%7d//?q=%0a", "/app/page.php/%0a%7b%7d//?q=%0a"),
    ("/app/page.php?x=1#frag", "/app/page.php?x=1"),
    ("/app/page.php#frag?x=1", "/app/page.php"),
])
def test_client_sends_the_target_as_written_without_fragment(path, on_the_wire):
    with local_server() as server:
        RequestsClient(timeout=5).fetch(HttpRequest(url_of(server, path)))
        assert [line for line, _ in server.seen] == [f"GET {on_the_wire} HTTP/1.1"]


def test_client_pool_closes_least_recently_used_origin_past_the_limit():
    assert MAX_IDLE_ORIGINS == 10
    with ExitStack() as stack:
        servers = [stack.enter_context(local_server()) for _ in range(MAX_IDLE_ORIGINS + 2)]
        client = RequestsClient(timeout=5)
        for server in servers:
            client.fetch(HttpRequest(url_of(server, "/")))
        # the two least recently used origins lose their idle connection
        assert wait_until(lambda: [open_connections(s) for s in servers] == [0, 0] + [1] * 10)
        client.fetch(HttpRequest(url_of(servers[2], "/again")))  # reused: now the newest
        client.fetch(HttpRequest(url_of(servers[0], "/again")))  # new: closes servers[3]'s
        assert [s.connections for s in servers] == [2, 1] + [1] * 10
        expected = [1, 0, 1, 0] + [1] * 8
        assert wait_until(lambda: [open_connections(s) for s in servers] == expected)


def test_client_replaces_an_idle_connection_the_peer_closed():
    def respond(handler):
        handler.close_connection = True  # closes after answering, without saying so
        return 200, [], b"ok"

    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url_of(server, "/first")))
        assert wait_until(lambda: server.closed == 1)
        assert client.fetch(HttpRequest(url_of(server, "/second"))).body == b"ok"
        assert server.connections == 2
        assert [line for line, _ in server.seen] == ["GET /first HTTP/1.1", "GET /second HTTP/1.1"]


def test_dropped_client_closes_its_idle_connections():
    with local_server() as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url_of(server, "/")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del client
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert wait_until(lambda: server.closed == 1)


class AnswerOnceHandler(RecordingHandler):
    """Answers the first request of each connection, then hangs up on the next."""

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self.server.seen.append((self.requestline, list(self.headers.items())))
        if getattr(self, "answered", False):
            self.close_connection = True
            return
        self.answered = True
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"ok")


def test_client_does_not_retry_a_kept_alive_connection_that_fails():
    with local_server(AnswerOnceHandler) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url_of(server, "/first")))
        with pytest.raises(NetworkError):
            client.fetch(HttpRequest(url_of(server, "/second")))
        assert server.connections == 1
        assert len(server.seen) == 2


def test_client_shares_its_pool_between_threads():
    # each request holds its connection alone: the server answers only once
    # all four have arrived, so four connections must be open at once
    barrier = threading.Barrier(4, timeout=5)

    def respond(handler):
        if len(handler.server.seen) <= 4:
            barrier.wait()
        return 200, [], handler.path.encode()

    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        bodies = {}

        def fetch(i: int) -> None:
            bodies[i] = client.fetch(HttpRequest(url_of(server, f"/t{i}"))).body

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert bodies == {i: f"/t{i}".encode() for i in range(4)}
        assert server.connections == 4
        # one idle connection is kept for the origin, the other three closed
        assert wait_until(lambda: open_connections(server) == 1)
        client.fetch(HttpRequest(url_of(server, "/after")))
        assert server.connections == 4


def test_client_pool_under_thread_contention():
    respond = lambda h: (200, [], h.path.encode())  # noqa: E731
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExitStack() as stack:
            servers = [stack.enter_context(local_server(respond=respond)) for _ in range(3)]
            client = RequestsClient(timeout=5)
            wrong = []

            def work(worker: int) -> None:
                for i in range(20):
                    path = f"/w{worker}/r{i}"
                    body = client.fetch(HttpRequest(url_of(servers[i % 3], path))).body
                    if body != path.encode():
                        wrong.append((path, body))

            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert sum(len(s.seen) for s in servers) == 120
            # no more than one idle connection per origin outlives the run
            assert wait_until(lambda: [open_connections(s) for s in servers] == [1, 1, 1])
    finally:
        sys.setswitchinterval(interval)


# --- the transport against scripted raw bytes ---
#
# Where a case names http.client, the transport differs from the
# http.client-based client it replaced on purpose; every other case holds
# for both.

HANG_UP = object()
OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
FIXTURES = Path(__file__).parent / "fixtures"
TLS_LOCALHOST = str(FIXTURES / "tls_localhost.pem")  # localhost and 127.0.0.1
TLS_OTHER = str(FIXTURES / "tls_other.pem")  # other.test only


class ScriptedServer:
    """A loopback server that answers the n-th request head it reads, on
    whichever connection, with ``replies[n]`` (the last reply once they run
    out). A reply is bytes, or a list of steps: bytes to send, a pause in
    seconds, or ``HANG_UP``. It records each request head, the connections
    it accepted and which of them (by accept order) the client closed. With
    ``tls``, a certificate and key file, it serves TLS and counts failed
    handshakes."""

    def __init__(self, replies, tls: str | None = None) -> None:
        self.replies = [reply if isinstance(reply, list) else [reply] for reply in replies]
        self.heads: list[bytes] = []
        self.connections = self.failed_handshakes = 0
        self.client_closed: list[int] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._tls = None
        if tls:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self._tls.load_cert_chain(tls)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.01)
        self.port = self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept)]
        self._threads[0].start()

    def url(self, path: str = "/", scheme: str = "http") -> WebUrl:
        return parse_url(f"{scheme}://127.0.0.1:{self.port}{path}")

    @property
    def lines(self) -> list[str]:
        return [head.split(b"\r\n")[0].decode("latin-1") for head in self.heads]

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self._count("connections")
            thread = threading.Thread(target=self._serve, args=(conn, self.connections - 1))
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn, index: int) -> None:
        if self._tls:
            conn.settimeout(5)
            try:
                conn = self._tls.wrap_socket(conn, server_side=True)
            except OSError:
                self._count("failed_handshakes")
                conn.close()
                return
        conn.settimeout(0.05)  # a short wait, so that close() need not wait long
        with conn:
            buf, idle = b"", 0
            while True:
                while b"\r\n\r\n" not in buf:
                    try:
                        data = conn.recv(65536)
                    except TimeoutError:
                        idle += 1
                        if self._stop.is_set() or idle > 100:
                            return
                        continue
                    except OSError:
                        return
                    if not data:
                        self.client_closed.append(index)
                        return
                    buf, idle = buf + data, 0
                head, _, buf = buf.partition(b"\r\n\r\n")
                with self._lock:
                    n = len(self.heads)
                    self.heads.append(head)
                for step in self.replies[min(n, len(self.replies) - 1)]:
                    if step is HANG_UP:
                        return
                    if isinstance(step, float):
                        if self._stop.wait(step):
                            return
                        continue
                    try:
                        conn.sendall(step)
                    except OSError:
                        return

    def close(self) -> None:
        self._stop.set()
        for thread in self._threads:  # the accept thread first: no thread joins after
            thread.join(timeout=10)
        self._listener.close()
        assert not any(thread.is_alive() for thread in self._threads)


@contextmanager
def scripted_server(*replies, tls: str | None = None):
    server = ScriptedServer(replies, tls)
    try:
        yield server
    finally:
        server.close()


def pieces(data: bytes, *cuts: int) -> list:
    """``data`` sent in pieces cut at ``cuts``, with a pause between them."""
    bounds = [0, *cuts, len(data)]
    steps: list = []
    for start, end in zip(bounds, bounds[1:]):
        steps += [0.02, data[start:end]]
    return steps[1:]


def fetch_twice(server, *, timeout: float = 5):
    """The first fetch's response and the second fetch's body, on one client."""
    client = RequestsClient(timeout=timeout)
    response = client.fetch(HttpRequest(server.url("/first")))
    return response, client.fetch(HttpRequest(server.url("/second"))).body


CHUNKED = (
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"4;name=value\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: 1\r\n\r\n"
)


@pytest.mark.parametrize("cuts", [(), (50,), (52, 60, 75), (len(CHUNKED) - 3,)])
def test_client_reads_a_chunked_body_with_extension_and_trailer_and_keeps_the_connection(cuts):
    with scripted_server(pieces(CHUNKED, *cuts), OK) as server:
        response, second = fetch_twice(server)
        assert (response.status, response.body, second) == (200, b"Wikipedia", b"ok")
        assert "X-Trailer" not in response.headers
        assert server.connections == 1


@pytest.mark.parametrize("reply, pooled", [
    ([b"HTTP/1.0 200 OK\r\nContent-Type: text/css\r\n\r\nhello", HANG_UP], False),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello", False),
    (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 5\r\n\r\nhello", True),
    (b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello", False),
    (b"HTTP/1.1 200 OK\r\nconnection: Close\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", False),
    ([b"HTTP/1.1 200 OK\r\n\r\nhel", 0.02, b"lo", HANG_UP], False),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", True),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 50\r\n\r\n5\r\nhello\r\n0\r\n\r\n", False),
], ids=["1.0-to-close", "1.0-length", "1.0-keep-alive", "1.1-close", "1.1-chunked-close", "1.1-to-close", "1.1",
        "1.1-chunked-and-length"])
def test_client_pools_a_connection_only_when_the_response_allows_it(reply, pooled):
    with scripted_server(reply, OK) as server:
        response, second = fetch_twice(server)
        assert (response.body, second) == (b"hello", b"ok")
        assert server.connections == (1 if pooled else 2)
        if not pooled and reply[-1] is not HANG_UP:  # the client closed it
            assert wait_until(lambda: 0 in server.client_closed)


def test_client_skips_100_continue():
    with scripted_server(b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" + OK) as server:
        response, second = fetch_twice(server)
        assert (response.status, response.body, second) == (200, b"ok", b"ok")
        assert "X-Interim" not in response.headers
        assert server.connections == 1


def test_client_skips_every_interim_response_where_http_client_returned_a_103():
    early_hints = b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>; rel=preload\r\n\r\n"
    with scripted_server(b"HTTP/1.1 100 Continue\r\n\r\n" + early_hints + OK) as server:
        response, second = fetch_twice(server)
        assert (response.status, response.body, second) == (200, b"ok", b"ok")
        assert "Link" not in response.headers


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 204 No Content\r\n\r\n",
    b"HTTP/1.1 304 Not Modified\r\nContent-Length: 20\r\n\r\n",
], ids=["204", "304"])
def test_client_reads_no_body_after_204_and_304(reply):
    with scripted_server(reply, OK) as server:
        response, second = fetch_twice(server)
        assert (response.body, second) == (b"", b"ok")
        assert server.connections == 1


@pytest.mark.parametrize("status_line, status", [
    (b"HTTP/1.1 200", 200),
    (b"HTTP/1.1 404 ", 404),
    (b"HTTP/1.1 500 Internal  Server Error", 500),
])
def test_client_reads_a_status_line_with_or_without_reason(status_line, status):
    with scripted_server(status_line + b"\r\nContent-Length: 2\r\n\r\nok") as server:
        response, _ = fetch_twice(server)
        assert (response.status, response.body) == (status, b"ok")


def test_client_joins_a_folded_header_onto_the_previous_value_and_merges_repeats():
    reply = (
        b"HTTP/1.1 200 OK\r\nX-Folded: first  \r\n  second\r\n\tthird\r\n"
        b"Set-Cookie: a=1\r\nset-cookie: b=2\r\nContent-Length: 2\r\n\r\nok"
    )
    with scripted_server(reply) as server:
        response, _ = fetch_twice(server)
        assert response.headers == {
            "X-Folded": "first  \r\n  second\r\n\tthird",
            "Set-Cookie": "a=1, b=2",
            "Content-Length": "2",
        }


def test_client_skips_a_header_line_without_colon_where_http_client_dropped_the_rest():
    reply = b"HTTP/1.1 200 OK\r\nX-Before: 1\r\nno colon\r\nContent-Length: 2\r\nX-After: 2\r\n\r\nok"
    with scripted_server([reply, HANG_UP]) as server:  # http.client read this to close
        response = RequestsClient(timeout=5).fetch(HttpRequest(server.url()))
        assert response.body == b"ok"
        assert response.headers == {"X-Before": "1", "Content-Length": "2", "X-After": "2"}


@pytest.mark.parametrize("reply", [
    [b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", HANG_UP],
    [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel", HANG_UP],
    [b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", 5.0],
], ids=["length-then-close", "chunked-then-close", "length-then-silence"])
def test_client_fails_a_body_cut_short_and_drops_the_connection(reply):
    with scripted_server(reply, OK) as server:
        client = RequestsClient(timeout=0.5)
        with pytest.raises(NetworkError):
            client.fetch(HttpRequest(server.url("/first")))
        assert client.fetch(HttpRequest(server.url("/second"))).body == b"ok"
        assert server.connections == 2


def test_client_does_not_reuse_a_connection_with_bytes_past_the_body():
    # bytes that arrive after the response was read: the idle socket polls readable
    with scripted_server([OK, 0.05, b"EXTRA"], OK) as server:
        client = RequestsClient(timeout=5)
        assert client.fetch(HttpRequest(server.url("/first"))).body == b"ok"
        time.sleep(0.2)
        assert client.fetch(HttpRequest(server.url("/second"))).body == b"ok"
        assert server.connections == 2


def test_client_does_not_reuse_a_connection_with_bytes_past_the_body_where_http_client_did():
    # bytes that arrive with the response: http.client's read buffer took them
    # and the connection went back to the pool
    with scripted_server(OK + b"EXTRA", OK) as server:
        response, second = fetch_twice(server)
        assert (response.body, second) == (b"ok", b"ok")
        assert server.connections == 2


def test_client_accepts_repeated_equal_content_lengths():
    with scripted_server(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok") as server:
        response, _ = fetch_twice(server)
        assert response.body == b"ok"


def test_client_refuses_conflicting_content_lengths_where_http_client_took_the_first():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nokX"
    with scripted_server(reply) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(server.url()))


def many_headers(count: int) -> bytes:
    lines = b"".join(b"X-%d: v\r\n" % i for i in range(count - 1))
    return b"HTTP/1.1 200 OK\r\n" + lines + b"Content-Length: 2\r\n\r\nok"


def long_header(line_bytes: int) -> bytes:
    # a header line of ``line_bytes`` bytes with its CRLF
    return b"HTTP/1.1 200 OK\r\nX-Long: " + b"v" * (line_bytes - 10) + b"\r\nContent-Length: 2\r\n\r\nok"


@pytest.mark.parametrize("reply, ok", [
    (b"garbage\r\n\r\n", False),
    (b"HTTP/1.1 OK\r\n\r\n", False),
    (b"HTTP/1.1 2000 OK\r\n\r\n", False),
    (b"HTTP/2 200\r\n\r\n", False),
    # http.client counts the blank line that ends the head: 99 headers pass
    (many_headers(99), True),
    (many_headers(100), False),
    (long_header(65536), True),
    (long_header(65537), False),
], ids=["garbage", "no-code", "four-digits", "http-2", "99-headers", "100-headers", "65536-byte-line", "65537-byte-line"])
def test_client_enforces_the_status_line_and_head_limits(reply, ok):
    with scripted_server(reply) as server:
        client = RequestsClient(timeout=5)
        if ok:
            assert client.fetch(HttpRequest(server.url())).body == b"ok"
        else:
            with pytest.raises(NetworkError):
                client.fetch(HttpRequest(server.url()))
            assert wait_until(lambda: 0 in server.client_closed)


def test_client_sends_default_headers_then_request_headers_then_cookie():
    with scripted_server(OK) as server:
        response = RequestsClient(timeout=5).fetch(HttpRequest(
            server.url("/app/page.php/%0A%7B%7D//?q=%0A#frag"),
            referer="http://ref.test/a?b=%0A",
            cookies={"sid": "abc 123", "lang": '"en"', "empty": ""},
        ))
        assert (response.status, response.body) == (200, b"ok")
        assert server.heads == [
            b"GET /app/page.php/%0A%7B%7D//?q=%0A HTTP/1.1\r\n"
            + f"Host: 127.0.0.1:{server.port}\r\n".encode()
            + b"Accept-Encoding: identity\r\n"
            b"User-Agent: rposcan/0.1\r\n"
            b"Accept: */*\r\n"
            b"Connection: keep-alive\r\n"
            b"Referer: http://ref.test/a?b=%0A\r\n"
            b'Cookie: sid=abc 123; lang="en"; empty='
        ]


def _refused_before_connecting(path: str, **fields) -> None:
    """A request for ``path``, its ``WebUrl`` built by hand since no parser
    gives one with such a path, with ``fields`` fails and sends nothing; the
    client then fetches on one new connection."""
    with scripted_server(OK) as server:
        client = RequestsClient(timeout=5)
        url = WebUrl("http", "127.0.0.1", server.port, tuple(path.split("/")[1:]))
        with pytest.raises(NetworkError):
            client.fetch(HttpRequest(url, **fields))
        assert client.fetch(HttpRequest(server.url("/after"))).body == b"ok"
        assert server.lines == ["GET /after HTTP/1.1"]
        assert server.connections == 1


@pytest.mark.parametrize("path, headers", [
    ("/a b", {}),
    ("/a\x00b", {}),
    ("/", {"referer": "http://a.test/\r\nX-Injected: 1"}),
    ("/", {"referer": "http://a.test/\nx"}),
    ("/", {"referer": "http://a.test/Ā"}),
])
def test_client_refuses_a_request_it_cannot_send_before_connecting(path, headers):
    _refused_before_connecting(path, **headers)


@pytest.mark.parametrize("cookies", [
    {"sid": "1\r\nX-Injected: 1"},
    {"sid\n": "1"},
    {"sid": "Ā"},
], ids=["crlf-in-value", "lf-in-name", "not-latin-1"])
def test_client_refuses_cookies_it_cannot_send_before_connecting(cookies):
    _refused_before_connecting("/", cookies=cookies)


@pytest.mark.parametrize("url", [
    WebUrl("http", "a b.test", None, ("",)),
    WebUrl("http", "a\x7f.test", None, ("",)),
    WebUrl("https", "bücher.test", None, ("",)),
    WebUrl("http", "a.test", None, ("é",)),
    WebUrl("http", "a.test", None, ("",), "q=a\tb"),
    WebUrl("http", "a.test", None, ("",), "q=\r\nX-Injected: 1"),
], ids=["space-in-host", "del-in-host", "non-ascii-host", "non-ascii-path", "tab-in-query", "crlf-in-query"])
def test_client_refuses_a_host_or_target_it_cannot_send_before_connecting(monkeypatch, url):
    connects = []
    monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: connects.append(args))
    with pytest.raises(NetworkError, match="cannot send"):
        RequestsClient(timeout=5).fetch(HttpRequest(url))
    assert connects == []


def test_client_fails_a_head_with_bare_line_feeds_where_http_client_read_it():
    with scripted_server([b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok", HANG_UP]) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(server.url()))


class _SentBytes(list):
    def sendall(self, data: bytes) -> None:
        self.append(data)


def _http_client_head(url, request: HttpRequest) -> bytes:
    """The head ``http.client`` writes by default for ``request`` to ``url``,
    a parsed URL, with the client's fields in the client's order."""
    import http.client

    if url.scheme == "https":  # a context without certificates: nothing connects
        conn = http.client.HTTPSConnection(url.host, url.port, context=ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT))
    else:
        conn = http.client.HTTPConnection(url.host, url.port)
    conn.sock = sent = _SentBytes()  # no connect: endheaders writes here
    target = url.path if url.query is None else f"{url.path}?{url.query}"
    conn.putrequest("GET", target)
    fields = [("User-Agent", "rposcan/0.1"), ("Accept", "*/*"), ("Connection", "keep-alive")]
    if request.referer:
        fields.append(("Referer", request.referer))
    if request.cookies:
        fields.append(("Cookie", "; ".join(f"{n}={v}" for n, v in request.cookies.items())))
    for name, value in fields:
        conn.putheader(name, value)
    conn.endheaders()
    return b"".join(sent)


@pytest.mark.parametrize("url", [
    "http://example.test/a",
    "https://example.test:443/a?b=1",
    "http://example.test:8443/",
])
def test_client_writes_the_host_header_as_http_client_did(url):
    from rposcan.httpclient import _request_head

    request = HttpRequest(parse_url(url))
    assert _request_head(request) == _http_client_head(request.web_url, request)


# seed origins for the scanner's requests, with the authority each one is
# served under: the default port left out and written out, and another port
SCANNER_ORIGINS = [
    ("http://mock.test", "mock.test"),
    ("http://mock.test:8080", "mock.test:8080"),
    ("https://mock.test:443", "mock.test"),
]


def test_client_writes_every_scanner_request_head_as_http_client_did():
    from rposcan.httpclient import _request_head
    from rposcan.mock_target import InProcessClient, fixture_matrix, newline_configs
    from rposcan.rendering import default_profiles
    from rposcan.scanning import ScanConfig, scan_page, verify_exploitable

    profiles = default_profiles()
    config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles))
    requests = []
    for index, (target, _) in enumerate(fixture_matrix(profiles) + newline_configs(profiles)):
        origin, authority = SCANNER_ORIGINS[index % len(SCANNER_ORIGINS)]
        client = RecordingClient(InProcessClient({authority: target}))
        verdict = scan_page(target.seed_url(origin), target.seed_cookies, client, config)
        verify_exploitable(verdict, client, config)
        requests += [x.request for x in client.exchanges]
    assert len(requests) == 362
    assert any(r.referer for r in requests) and any(r.cookies for r in requests)
    for request in requests:
        assert _request_head(request) == _http_client_head(request.web_url, request), request


@pytest.mark.parametrize("reply", [
    [b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n"] + [0.2, b"x"] * 20,
], ids=["slow-drip"])
def test_client_timeout_is_a_total_deadline_for_the_whole_fetch(reply):
    with scripted_server(reply) as server:
        start = time.monotonic()
        with pytest.raises(NetworkError, match="timeout"):
            RequestsClient(timeout=1).fetch(HttpRequest(server.url()))
        assert time.monotonic() - start < 1.5


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 1001\r\n\r\n",
    [b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * 600, 0.02, b"x" * 600],
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + (b"258\r\n" + b"x" * 600 + b"\r\n") * 2,
], ids=["length", "to-close", "chunked"])
def test_client_caps_the_body_and_drops_the_connection(monkeypatch, reply):
    monkeypatch.setattr("rposcan.httpclient.MAX_BODY_BYTES", 1000)
    with scripted_server(reply) as server:
        start = time.monotonic()
        with pytest.raises(NetworkError, match="MAX_BODY_BYTES"):
            RequestsClient(timeout=5).fetch(HttpRequest(server.url()))
        assert time.monotonic() - start < 1
        assert wait_until(lambda: 0 in server.client_closed)


def test_a_length_framed_body_is_copied_once():
    size = 4 << 20
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % size + b"x" * size
    reader, writer = socket.socketpair()
    with reader, writer:
        sender = threading.Thread(target=writer.sendall, args=(reply,))
        tracemalloc.start()
        try:
            sender.start()
            response, reusable = _read_response(reader, time.monotonic() + 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sender.join()
    assert (len(response.body), reusable) == (size, True)
    # the receive buffer, with its growth slack, and one copy of the body
    assert peak < 2.5 * size


def _coded(coding: str, body: bytes) -> bytes:
    return f"HTTP/1.1 200 OK\r\nContent-Encoding: {coding}\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


def _transfer_coded(coding: str, chunks: bytes) -> bytes:
    return f"HTTP/1.1 200 OK\r\nTransfer-Encoding: {coding}\r\n\r\n".encode() + chunks


def chunked(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n0\r\n\r\n" % (len(data), data)


CSS = b"body { margin: 0; }\n" * 10
# 100 gzip members of 1 MiB of zeros: about 100 KiB that inflates to 100 MiB
GZIP_BOMB = gzip.compress(bytes(1 << 20)) * 100


@pytest.mark.parametrize("reply, refused", [
    (_coded("gzip", gzip.compress(CSS)), "content coding 'gzip'"),
    (_coded("deflate", zlib.compress(CSS)), "content coding 'deflate'"),
    (_coded("br", gzip.compress(CSS)), "content coding 'br'"),
    (_coded("gzip, br", gzip.compress(CSS)), "content coding 'gzip, br'"),
    (_coded("gzip", GZIP_BOMB), "content coding 'gzip'"),
    (_coded("identity", b"ok"), None),
    (_coded(" IDENTITY ", b"ok"), None),
    (b"HTTP/1.1 304 Not Modified\r\nContent-Encoding: gzip\r\n\r\n", None),
    (_transfer_coded("gzip", gzip.compress(b"ok")), "transfer coding 'gzip'"),
    (_transfer_coded("gzip, chunked", chunked(gzip.compress(b"ok"))), "transfer coding 'gzip, chunked'"),
    (_transfer_coded("chunked, gzip", chunked(gzip.compress(b"ok"))), "transfer coding 'chunked, gzip'"),
    (_transfer_coded("Chunked", chunked(b"ok")), None),
    (_transfer_coded(" chunked ", chunked(b"ok")), None),
    (b"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: gzip\r\n\r\n", None),
], ids=["gzip", "deflate", "br", "gzip-br", "gzip-bomb", "identity", "identity-upper", "304-gzip",
        "te-gzip", "te-gzip-chunked", "te-chunked-gzip", "te-chunked-upper", "te-chunked-spaced",
        "te-304-gzip"])
def test_client_fails_a_body_in_a_coding_it_does_not_read_and_drops_the_connection(reply, refused):
    assert len(GZIP_BOMB) < 200_000
    with scripted_server(reply, OK) as server:
        client = RequestsClient(timeout=5)
        start = time.monotonic()
        if refused is None:
            assert client.fetch(HttpRequest(server.url("/first"))).body in (b"ok", b"")
        else:
            with pytest.raises(NetworkError, match=refused):
                client.fetch(HttpRequest(server.url("/first")))
        assert time.monotonic() - start < 1
        assert client.fetch(HttpRequest(server.url("/second"))).body == b"ok"
        assert server.connections == (1 if refused is None else 2)


# --- TLS ---


@pytest.fixture
def trust_test_certificates(monkeypatch):
    """``ssl.create_default_context`` that also trusts both test certificates."""
    create = ssl.create_default_context

    def trusting(*args, **kwargs):
        context = create(*args, **kwargs)
        context.load_verify_locations(TLS_LOCALHOST)
        context.load_verify_locations(TLS_OTHER)
        return context

    monkeypatch.setattr(ssl, "create_default_context", trusting)


def test_client_refuses_a_certificate_it_does_not_trust():
    with scripted_server(OK, tls=TLS_LOCALHOST) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(server.url(scheme="https")))
        assert wait_until(lambda: server.failed_handshakes == 1)
        assert server.heads == []


def test_client_checks_the_host_name_and_reuses_a_tls_connection(trust_test_certificates):
    with scripted_server(OK, tls=TLS_LOCALHOST) as server:
        client = RequestsClient(timeout=5)
        for path in ("/first", "/second"):
            assert client.fetch(HttpRequest(server.url(path, scheme="https"))).body == b"ok"
        assert server.connections == 1
        assert server.lines == ["GET /first HTTP/1.1", "GET /second HTTP/1.1"]
    with scripted_server(OK, tls=TLS_OTHER) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(server.url(scheme="https")))
        assert wait_until(lambda: server.failed_handshakes == 1)
        assert server.heads == []


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    rposcan from the tree under test."""
    import rposcan

    src = str(Path(rposcan.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_rposcan_module_imports_http_client_or_the_email_parser():
    code = (
        "import importlib, pkgutil, sys, rposcan\n"
        "for module in pkgutil.iter_modules(rposcan.__path__):\n"
        "    importlib.import_module('rposcan.' + module.name)\n"
        "print(sorted({'http.client', 'email.parser'} & set(sys.modules)))\n"
    )
    assert run_python(code).strip() == "[]"


def test_an_http_run_loads_neither_tls_nor_the_entity_table_nor_the_mock():
    code = textwrap.dedent("""
        import sys
        import rposcan.cli, rposcan.reports
        deferred = {"ssl", "socket", "select", "selectors", "datetime", "http", "html.entities",
                    "rposcan.mock_target"}
        print(sorted(deferred & set(sys.modules)))

        import socket, threading

        from rposcan.httpclient import HttpRequest, RequestsClient
        from rposcan.urls import parse_url

        def answer(listener):
            conn, _ = listener.accept()
            with conn:
                head = b""
                while b"\\r\\n\\r\\n" not in head:
                    head += conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Length: 2\\r\\n\\r\\nok")

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=answer, args=(listener,))
            server.start()
            port = listener.getsockname()[1]
            body = RequestsClient(timeout=5).fetch(HttpRequest(parse_url(f"http://127.0.0.1:{port}/"))).body
            server.join()
        print(body, "ssl" in sys.modules)

        from rposcan.pages import analyze_html
        print(analyze_html(b'<link rel=stylesheet href="a.css?x=1&amp;y=2">').relative_refs)
    """)
    assert run_python(code).splitlines() == ["[]", "b'ok' False", "['a.css?x=1&y=2']"]


def test_an_in_process_run_loads_no_network_stack_and_the_mock_still_serves(tmp_path):
    from rposcan.mock_target import DOCTYPE_QUIRKS, InProcessClient, Routing, TargetConfig
    from rposcan.reports import run_scan
    from rposcan.scanning import ScanConfig

    seed = tmp_path / "seed.txt"
    seed.write_text("http://site-a.test/app/page.php\n")
    config = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    (record,) = run_scan(str(seed), ScanConfig(per_host_delay=0.0),
                         base_client=InProcessClient({"site-a.test": config}))
    expected = {**json.loads(record.to_json()), "started_at": None, "finished_at": None}
    assert expected["status"] == "exploitable"
    code = textwrap.dedent("""
        import json, sys
        from rposcan.mock_target import DOCTYPE_QUIRKS, InProcessClient, Routing, TargetConfig, serve
        from rposcan.reports import run_scan
        from rposcan.scanning import ScanConfig

        config = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
        (record,) = run_scan(SEED, ScanConfig(per_host_delay=0.0),
                             base_client=InProcessClient({"site-a.test": config}))
        print(json.dumps({**json.loads(record.to_json()), "started_at": None, "finished_at": None}))
        print(sorted({"socket", "select", "selectors", "datetime", "http"} & set(sys.modules)))

        from rposcan.httpclient import HttpRequest, RequestsClient
        from rposcan.urls import parse_url
        server = serve(config)
        try:
            url = parse_url(f"http://127.0.0.1:{server.port}/app/page.php")
            print(RequestsClient(timeout=5).fetch(HttpRequest(url)).status)
        finally:
            server.shutdown()
        print(server.thread.is_alive())
    """).replace("SEED", repr(str(seed)))
    lines = run_python(code).splitlines()
    assert json.loads(lines[0]) == expected
    assert lines[1:] == ["[]", "200", "False"]
