import gc
import gzip
import socket
import sys
import threading
import time
import warnings
import zlib
from contextlib import ExitStack, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rposcan.httpclient import (
    HttpRequest,
    HttpResponse,
    NetworkError,
    RateLimitedClient,
    RecordingClient,
    RequestsClient,
)
from rposcan.httpclient import MAX_IDLE_ORIGINS

DELAY = 0.020


def test_requests_and_responses_are_immutable_and_share_one_empty_mapping():
    first, second = HttpRequest(url="http://a.test/"), HttpRequest("http://a.test/")
    assert first.headers is second.headers is first.cookies is second.cookies
    with pytest.raises(TypeError):
        first.headers["Referer"] = "http://a.test/x"
    assert second.headers == {} and second.cookies == {}
    assert second.method == "GET"
    response = HttpResponse(200, {"Content-Type": "text/css"}, b"")
    for obj, name, value in [
        (first, "url", "http://b.test/"),
        (first, "headers", {}),
        (response, "status", 404),
        (response, "body", b"x"),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert response.header("content-type") == "text/css"


class _FailingClient:
    def fetch(self, request: HttpRequest) -> HttpResponse:
        raise NetworkError("connection refused")


def test_recording_client_records_a_failed_fetch_without_response():
    recording = RecordingClient(_FailingClient())
    request = HttpRequest(url="http://a.test/")
    with pytest.raises(NetworkError):
        recording.fetch(request)
    [exchange] = recording.exchanges
    assert exchange.request == request and exchange.status is None


class _NotFoundClient:
    def fetch(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(404, {}, b"not found")


def test_recording_client_logs_the_status_and_no_body():
    recording = RecordingClient(_NotFoundClient())
    request = HttpRequest(url="http://a.test/")
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
        client.fetch(HttpRequest(url=f"http://one.test/page{i}"))
    gaps = [after - before for before, after in zip(inner.sends, inner.sends[1:])]
    assert len(gaps) == len(costs) - 1
    assert min(gaps) >= DELAY - 1e-9, gaps


def test_rate_limiter_paces_by_the_host_the_client_connects_to(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("rposcan.httpclient.time.monotonic", clock.monotonic)
    monkeypatch.setattr("rposcan.httpclient.time.sleep", clock.sleep)
    inner = TimedClient(clock, [0.0, 0.0, 0.0])
    client = RateLimitedClient(inner, 0.200)
    # userinfo, case and a fragment do not change the host these reach
    for url in ("http://u@h.test/a", "http://h.test/b", "http://H.test#x/c"):
        client.fetch(HttpRequest(url=url))
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


def url_of(server, path: str = "/") -> str:
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


def test_client_hang_up_is_one_connection_and_network_error():
    with local_server(HangUpHandler) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/page")))
        assert server.connections == 1


def test_client_redirect_loop_stops_after_max_redirects():
    # MAX_REDIRECTS is 5: the first request plus five hops, then NetworkError
    respond = lambda h: (302, [("Location", f"/loop{len(h.server.seen)}")], b"")  # noqa: E731
    with local_server(respond=respond) as server:
        with pytest.raises(NetworkError):
            client = RequestsClient(timeout=5)
            client.fetch(HttpRequest(url=url_of(server, "/start")))
        assert [line for line, _ in server.seen] == [
            "GET /start HTTP/1.1",
            "GET /loop1 HTTP/1.1",
            "GET /loop2 HTTP/1.1",
            "GET /loop3 HTTP/1.1",
            "GET /loop4 HTTP/1.1",
            "GET /loop5 HTTP/1.1",
        ]


def test_client_sends_default_headers_then_request_headers_then_cookie():
    with local_server() as server:
        client = RequestsClient(timeout=5)
        response = client.fetch(
            HttpRequest(
                url=url_of(server, "/app/page.php/%0A%7B%7D//"),
                headers={"Referer": "http://ref.test/a?b=%0A", "accept": "text/css"},
                cookies={"sid": "abc 123", "lang": '"en"', "empty": ""},
            )
        )
        assert response.status == 200
        assert response.body == b"ok"
        (line, headers), = server.seen
        assert line == "GET /app/page.php/%0A%7B%7D// HTTP/1.1"
        assert headers == [
            ("Host", f"127.0.0.1:{server.server_address[1]}"),
            ("User-Agent", "rposcan/0.1"),
            ("Accept-Encoding", "gzip, deflate"),
            ("accept", "text/css"),
            ("Connection", "keep-alive"),
            ("Referer", "http://ref.test/a?b=%0A"),
            ("Cookie", 'sid=abc 123; lang="en"; empty='),
        ]


def test_client_does_not_replay_set_cookie():
    respond = lambda h: (200, [("Set-Cookie", "session=1; Path=/")], b"")  # noqa: E731
    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url=url_of(server, "/first")))
        client.fetch(HttpRequest(url=url_of(server, "/second"), cookies={"a": "1"}))
        client.fetch(HttpRequest(url=url_of(server, "/third")))
        cookies = [dict(headers).get("Cookie") for _, headers in server.seen]
        assert cookies == [None, "a=1", None]


def test_client_decodes_gzip_body():
    body = b"body { margin: 0; }\n" * 10
    respond = lambda h: (200, [("Content-Encoding", "gzip")], gzip.compress(body))  # noqa: E731
    with local_server(respond=respond) as server:
        response = RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/s.css")))
        assert response.body == body
        assert response.header("content-encoding") == "gzip"


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
            response = RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/page")))
            assert response.body == b"ok"
            assert [line for line, _ in server.seen] == ["GET /page HTTP/1.1"]


def test_client_refuses_non_get_before_connecting():
    with local_server() as server:
        client = RequestsClient(timeout=5)
        for method in ("POST", "HEAD", "PUT"):
            with pytest.raises(NetworkError):
                client.fetch(HttpRequest(url=url_of(server, "/form"), method=method))
        assert server.connections == 0
        client.fetch(HttpRequest(url=url_of(server, "/after")))
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
        RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, path)))
        assert [line for line, _ in server.seen] == [f"GET {on_the_wire} HTTP/1.1"]


def test_client_decodes_deflate_body_zlib_wrapped_or_raw():
    body = b"body { margin: 0; }\n" * 10
    raw = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    for encoded in (zlib.compress(body), raw.compress(body) + raw.flush()):
        respond = lambda h, e=encoded: (200, [("Content-Encoding", "deflate")], e)  # noqa: E731
        with local_server(respond=respond) as server:
            response = RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/s.css")))
            assert response.body == body


def test_client_redirect_drops_cookie_only_on_a_cross_origin_hop():
    with local_server() as other:
        hops = {"/start": "/same", "/same": url_of(other, "/elsewhere")}
        respond = lambda h: (302, [("Location", hops[h.path])], b"")  # noqa: E731
        with local_server(respond=respond) as first:
            response = RequestsClient(timeout=5).fetch(
                HttpRequest(url=url_of(first, "/start"), cookies={"sid": "1"})
            )
        assert response.status == 200
        assert [dict(headers).get("Cookie") for _, headers in first.seen] == ["sid=1", "sid=1"]
        assert [(line, dict(headers).get("Cookie")) for line, headers in other.seen] == [
            ("GET /elsewhere HTTP/1.1", None)
        ]


def test_client_pool_closes_least_recently_used_origin_past_the_limit():
    assert MAX_IDLE_ORIGINS == 10
    with ExitStack() as stack:
        servers = [stack.enter_context(local_server()) for _ in range(MAX_IDLE_ORIGINS + 2)]
        client = RequestsClient(timeout=5)
        for server in servers:
            client.fetch(HttpRequest(url=url_of(server, "/")))
        # the two least recently used origins lose their idle connection
        assert wait_until(lambda: [open_connections(s) for s in servers] == [0, 0] + [1] * 10)
        client.fetch(HttpRequest(url=url_of(servers[2], "/again")))  # reused: now the newest
        client.fetch(HttpRequest(url=url_of(servers[0], "/again")))  # new: closes servers[3]'s
        assert [s.connections for s in servers] == [2, 1] + [1] * 10
        expected = [1, 0, 1, 0] + [1] * 8
        assert wait_until(lambda: [open_connections(s) for s in servers] == expected)


def test_client_replaces_an_idle_connection_the_peer_closed():
    def respond(handler):
        handler.close_connection = True  # closes after answering, without saying so
        return 200, [], b"ok"

    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url=url_of(server, "/first")))
        assert wait_until(lambda: server.closed == 1)
        assert client.fetch(HttpRequest(url=url_of(server, "/second"))).body == b"ok"
        assert server.connections == 2
        assert [line for line, _ in server.seen] == ["GET /first HTTP/1.1", "GET /second HTTP/1.1"]


def test_dropped_client_closes_its_idle_connections():
    with local_server() as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url=url_of(server, "/")))
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
        client.fetch(HttpRequest(url=url_of(server, "/first")))
        with pytest.raises(NetworkError):
            client.fetch(HttpRequest(url=url_of(server, "/second")))
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
            bodies[i] = client.fetch(HttpRequest(url=url_of(server, f"/t{i}"))).body

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
        client.fetch(HttpRequest(url=url_of(server, "/after")))
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
                    body = client.fetch(HttpRequest(url=url_of(servers[i % 3], path))).body
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
