import gzip
import threading
from contextlib import contextmanager
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

DELAY = 0.020


def test_requests_and_responses_are_immutable_and_own_their_dicts():
    first, second = HttpRequest(url="http://a.test/"), HttpRequest("http://a.test/")
    first.headers["Referer"] = "http://a.test/x"
    first.cookies["sid"] = "1"
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
    assert exchange.request == request and exchange.response is None


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
    """Counts the connections it accepts."""

    connections = 0

    def process_request(self, request, client_address) -> None:
        self.connections += 1
        super().process_request(request, client_address)


@contextmanager
def local_server(handler=RecordingHandler, respond=lambda h: (200, [], b"ok")):
    server = CountingServer(("127.0.0.1", 0), handler)
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


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_client_hang_up_is_one_connection_and_network_error(no_proxy_env):
    with local_server(HangUpHandler) as server:
        with pytest.raises(NetworkError):
            RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/page")))
        assert server.connections == 1


def test_client_redirect_loop_stops_after_max_redirects(no_proxy_env):
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


def test_client_sends_default_headers_then_request_headers_then_cookie(no_proxy_env):
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


def test_client_does_not_replay_set_cookie(no_proxy_env):
    respond = lambda h: (200, [("Set-Cookie", "session=1; Path=/")], b"")  # noqa: E731
    with local_server(respond=respond) as server:
        client = RequestsClient(timeout=5)
        client.fetch(HttpRequest(url=url_of(server, "/first")))
        client.fetch(HttpRequest(url=url_of(server, "/second"), cookies={"a": "1"}))
        client.fetch(HttpRequest(url=url_of(server, "/third")))
        cookies = [dict(headers).get("Cookie") for _, headers in server.seen]
        assert cookies == [None, "a=1", None]


def test_client_decodes_gzip_body(no_proxy_env):
    body = b"body { margin: 0; }\n" * 10
    respond = lambda h: (200, [("Content-Encoding", "gzip")], gzip.compress(body))  # noqa: E731
    with local_server(respond=respond) as server:
        response = RequestsClient(timeout=5).fetch(HttpRequest(url=url_of(server, "/s.css")))
        assert response.body == body
        assert response.header("content-encoding") == "gzip"


def test_client_refuses_non_get_before_connecting(no_proxy_env):
    with local_server() as server:
        client = RequestsClient(timeout=5)
        for method in ("POST", "HEAD", "PUT"):
            with pytest.raises(NetworkError):
                client.fetch(HttpRequest(url=url_of(server, "/form"), method=method))
        assert server.connections == 0
        client.fetch(HttpRequest(url=url_of(server, "/after")))
        assert server.connections == 1
        assert [line for line, _ in server.seen] == ["GET /after HTTP/1.1"]


def test_client_uses_environment_proxy_unless_no_proxy(no_proxy_env):
    with local_server() as proxy, local_server() as direct:
        no_proxy_env.setenv("http_proxy", url_of(proxy))
        via_proxy = RequestsClient(timeout=5)
        target = url_of(direct, "/app/page.php?x=1")
        via_proxy.fetch(HttpRequest(url=target))
        assert [line for line, _ in proxy.seen] == [f"GET {target} HTTP/1.1"]
        assert direct.seen == []

        # a proxy without a scheme is an http proxy
        no_proxy_env.setenv("http_proxy", f"127.0.0.1:{proxy.server_address[1]}")
        RequestsClient(timeout=5).fetch(HttpRequest(url=target))
        assert [line for line, _ in proxy.seen] == [f"GET {target} HTTP/1.1"] * 2
        assert direct.seen == []

        no_proxy_env.setenv("no_proxy", "127.0.0.1")
        RequestsClient(timeout=5).fetch(HttpRequest(url=target))
        assert [line for line, _ in direct.seen] == ["GET /app/page.php?x=1 HTTP/1.1"]
        assert len(proxy.seen) == 2


def test_client_with_unusable_proxy_fails_at_fetch(no_proxy_env):
    with local_server() as server:
        for proxy_url in ("http://[::1", "ftp://127.0.0.1:21"):
            no_proxy_env.setenv("http_proxy", proxy_url)
            client = RequestsClient(timeout=5)
            with pytest.raises(NetworkError):
                client.fetch(HttpRequest(url=url_of(server, "/page")))
        assert server.connections == 0
