import http.client
import json
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields, replace
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

import reference_impls

from rposcan.httpclient import HttpRequest, NetworkError, RecordingClient, RequestsClient
from rposcan.mock_target import (
    DOCTYPE_QUIRKS,
    DOCTYPE_STANDARDS,
    InProcessClient,
    NewlineHandling,
    PortInUse,
    Routing,
    Sink,
    SinkFilter,
    TargetConfig,
    compute_ground_truth,
    config_from_dict,
    fixture_matrix,
    handle_request,
    newline_configs,
    serve,
    verdict_matches_truth,
)
from rposcan.rendering import default_profiles
from rposcan.scanning import (
    NotVulnerableReason,
    ScanConfig,
    ScanStatus,
    scan_page,
    verify_exploitable,
)
from rposcan.urls import MalformedUrl, host_key, parse_url, server_view


def _get(config, target, cookies=None, referer=None):
    return handle_request(config, "mock.test", target, cookies or {}, referer)


def test_pathinfo_serves_page_for_suffixed_url():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    plain = _get(config, "/app/page.php")
    suffixed = _get(config, "/app/page.php/PAYLOAD//")
    assert plain.status == 200
    assert suffixed.status == 200
    assert b"PAYLOAD" in suffixed.body  # echo-url sink
    assert b'rel="stylesheet"' in suffixed.body


def test_exactfile_404s_suffixed_url_and_echoes():
    config = TargetConfig(name="t", routing=Routing.EXACT_FILE)
    resp = _get(config, "/app/page.php/PAYLOAD//")
    assert resp.status == 404
    assert b"/app/page.php/PAYLOAD//" in resp.body

    silent = TargetConfig(name="t", routing=Routing.EXACT_FILE, error_page_echoes_url=False)
    resp = _get(silent, "/app/page.php/PAYLOAD//")
    assert resp.status == 404
    assert b"PAYLOAD" not in resp.body


def test_encoded_slash_decode_routes_by_canonical_path():
    config = TargetConfig(
        name="t", routing=Routing.ENCODED_SLASH_DECODE, page_path="/app/page.aspx"
    )
    mutated = "/app/PAYLOAD%2F..%2Fpage.aspx"
    canonical = server_view(parse_url("http://mock.test" + mutated))
    assert canonical == "/app/page.aspx"
    resp = _get(config, mutated)
    assert resp.status == 200
    assert b"PAYLOAD" in resp.body


def test_semicolon_routing_strips_params():
    config = TargetConfig(
        name="t", routing=Routing.SEMICOLON_PARAMS, page_path="/app/page.jsp"
    )
    resp = _get(config, "/app/page.jsp;Pp1;Pp2//")
    assert resp.status == 200


def test_encoded_query_resurrection():
    config = TargetConfig(
        name="t",
        routing=Routing.ENCODED_SLASH_DECODE,
        sinks=frozenset({Sink.ECHO_QUERY_VALUES}),
    )
    resp = _get(config, "/app/page.php%3Fk1=PAYLOADv1&k2=v2//")
    assert resp.status == 200
    assert b'<p class="echo-query">PAYLOADv1</p>' in resp.body
    assert b'<p class="echo-query">v2//</p>' in resp.body


def test_cookie_echo_sink():
    config = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
    )
    resp = _get(config, "/app/page.php//", cookies={"sid": "PAYLOADabc"})
    assert b"PAYLOADabc" in resp.body


def test_referrer_echo_sink_decodes_once():
    config = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_REFERRER}),
    )
    resp = _get(config, "/app/page.php//", referer="http://x/%7BPAYLOAD%7D")
    assert b"{PAYLOAD}" in resp.body


def test_sink_filters():
    raw = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    sanitized = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, sink_filter=SinkFilter.SANITIZE
    )
    dropped = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sink_filter=SinkFilter.DROP,
        error_page_echoes_url=False,
    )
    target = "/app/page.php/%7Bpayload%7D//"
    assert b"{payload}" in _get(raw, target).body
    body = _get(sanitized, target).body
    assert b"payload" in body and b"{payload}" not in body
    assert b"payload" not in _get(dropped, target).body


def test_newline_refusal_answers_bare_400():
    crlf = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, newline_handling=NewlineHandling.REFUSE_CRLF
    )
    every = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, newline_handling=NewlineHandling.REFUSE_ALL
    )
    for config, code in [(crlf, "%0A"), (crlf, "%0d"), (every, "%0A"), (every, "%0C")]:
        resp = _get(config, f"/app/page.php/{code}PAYLOAD//")
        assert resp.status == 400
        assert b"PAYLOAD" not in resp.body and b"stylesheet" not in resp.body
    # the query is part of the request target
    assert _get(crlf, "/app/page.php?k=%0Av").status == 400
    assert _get(crlf, "/app/page.php/%0CPAYLOAD//").status == 200
    # a cookie is not
    assert _get(every, "/app/page.php//", cookies={"sid": "%0AX"}).status == 200


def test_cut_at_lf_ends_each_echo_at_its_first_lf():
    config = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_URL, Sink.ECHO_COOKIE_VALUES}),
        newline_handling=NewlineHandling.CUT_AT_LF,
    )
    resp = _get(config, "/app/page.php/%0APAYLOAD//", cookies={"sid": "C%0AOOKIE"})
    assert resp.status == 200
    assert b'<p class="echo-url">/app/page.php/</p>' in resp.body
    assert b'<p class="echo-cookie">C</p>' in resp.body
    assert b"PAYLOAD" not in resp.body and b"OOKIE" not in resp.body
    # FF and CR pass whole
    assert b"/app/page.php/\x0cPAYLOAD//" in _get(config, "/app/page.php/%0CPAYLOAD//").body
    assert b"/app/page.php/\rPAYLOAD//" in _get(config, "/app/page.php/%0DPAYLOAD//").body
    error = _get(replace(config, routing=Routing.EXACT_FILE), "/app/page.php/%0APAYLOAD//")
    assert error.status == 404 and b"PAYLOAD" not in error.body


def test_headers_and_doctype_emission():
    config = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        nosniff=True,
        x_frame_options="DENY",
        x_ua_compatible="IE=edge",
        emit_base_tag=True,
    )
    resp = _get(config, "/app/page.php")
    assert resp.headers["X-Content-Type-Options"] == "nosniff"
    assert resp.headers["X-Frame-Options"] == "DENY"
    assert resp.headers["X-UA-Compatible"] == "IE=edge"
    assert b"<!DOCTYPE html PUBLIC" in resp.body
    assert b"<base href=" in resp.body


def test_real_stylesheet_served_as_css():
    config = TargetConfig(
        name="t",
        routing=Routing.ENCODED_SLASH_DECODE,
        stylesheet_refs=["style.css"],
        serve_real_stylesheets=True,
    )
    resp = _get(config, "/app/style.css")
    assert resp.status == 200
    assert resp.headers["Content-Type"] == "text/css"


def test_handle_request_deterministic():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    request = (config, "mock.test", "/app/page.php/x//", {"a": "1"}, None)
    first = handle_request(*request)
    second = handle_request(*request)
    assert first.body == second.body
    assert first.headers == second.headers
    assert first.status == second.status


def _same_response(got, expected) -> None:
    assert got.status == expected.status
    assert list(got.headers.items()) == list(expected.headers.items())  # names in order
    assert got.body == expected.body


class _ComparingClient:
    """Answers from the handler and checks every answer against the reference
    handler, which rebuilds everything from the config on each request; each
    request's URL reads back from its string form unchanged."""

    def __init__(self, config: TargetConfig) -> None:
        self.config = config
        self.compared = 0

    def fetch(self, request):
        assert parse_url(request.url) == request.web_url
        url = request.web_url
        sent = (self.config, host_key(url), url.target, request.cookies, request.referer)
        got = handle_request(*sent)
        _same_response(got, reference_impls.handle_request(*sent))
        self.compared += 1
        return got


def test_handler_matches_reference_on_every_scanner_request():
    profiles = default_profiles()
    config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles))
    compared = 0
    for target, _ in fixture_matrix(profiles) + newline_configs(profiles):
        client = _ComparingClient(target)
        seed = target.seed_url("http://mock.test")
        verify_exploitable(scan_page(seed, target.seed_cookies, client, config), client, config)
        compared += client.compared
    assert compared > 300


# request-target pieces: encoded slashes, queries and newlines, a lone "%",
# path parameters, dot segments, invalid UTF-8 and non-ASCII text
_TARGET_PIECES = st.sampled_from([
    "/", "app", "page.php", "page.jsp", "style.css", "..", ".", "x", "%2F", "%2f", "%3F",
    "?", "&", "=", "k1=v1", "%0A", "%0C", "%0D", "%", "%4", "%ZZ", ";", ";p1", "%C3%A9",
    "%FF", "é", "{}", "%7B", "%25", "\\", "#f",
])
_TEXT = st.lists(_TARGET_PIECES, max_size=6).map("".join)


@st.composite
def _configs(draw) -> TargetConfig:
    return TargetConfig(
        name="t",
        routing=draw(st.sampled_from(Routing)),
        sinks=draw(st.frozensets(st.sampled_from(Sink))),
        page_path=draw(st.sampled_from(["/app/page.php", "/app/page.jsp", "/page.php"])),
        doctype=draw(st.sampled_from([None, DOCTYPE_QUIRKS, DOCTYPE_STANDARDS])),
        emit_base_tag=draw(st.booleans()),
        stylesheet_refs=draw(st.sampled_from(
            [["../style.css"], ["style.css"], ["/static/a.css", "b.css"], [], ["é.css"]]
        )),
        nosniff=draw(st.booleans()),
        x_frame_options=draw(st.sampled_from([None, "DENY"])),
        x_ua_compatible=draw(st.sampled_from([None, "IE=edge"])),
        error_page_echoes_url=draw(st.booleans()),
        error_page_has_refs=draw(st.booleans()),
        serve_real_stylesheets=draw(st.booleans()),
        sink_filter=draw(st.sampled_from(SinkFilter)),
        newline_handling=draw(st.sampled_from(NewlineHandling)),
    )


@st.composite
def _targets(draw, config: TargetConfig) -> str:
    """Mostly the config's page or its directory with pieces after it, so that
    pages, real stylesheets and 404s all come up."""
    directory = config.page_path.rsplit("/", 1)[0]
    start = draw(st.sampled_from(
        [config.page_path, config.page_path, directory + "/style.css", "/style.css",
         "/static/a.css", directory + "/x", ""]
    ))
    return (start or "/") + draw(st.one_of(st.just(""), _TEXT))


@settings(max_examples=400, deadline=None)
@given(
    _configs().flatmap(lambda config: st.tuples(st.just(config), _targets(config))),
    st.sampled_from(["mock.test", "Mock.Test:8080", "127.0.0.1:81"]),
    st.dictionaries(st.sampled_from(["sid", "lang", "a"]), _TEXT, max_size=3),
    st.one_of(st.none(), _TEXT),
)
def test_handler_matches_reference_on_any_request(exchange, host, cookies, referer):
    config, target = exchange
    request = (config, host, target, cookies, referer)
    unresolvable = False
    if config.serve_real_stylesheets:
        try:
            reference_impls._real_stylesheet_paths(config)
        except MalformedUrl:
            unresolvable = True
    # twice: the first request builds the config's plan, the second reuses it
    for _ in range(2):
        if unresolvable:
            # real stylesheets at refs that do not resolve: the reference
            # raises once it routes, the plan on every request
            with pytest.raises(MalformedUrl):
                handle_request(*request)
        else:
            _same_response(handle_request(*request), reference_impls.handle_request(*request))


def test_each_config_answers_by_its_own_flags_when_ids_are_reused():
    # Configs freed in a loop hand their ids to the next ones; each still
    # answers by its own flags.
    ids: set[int] = set()
    reused = 0
    for i in range(200):
        config = TargetConfig(
            name="t",
            routing=Routing.EXACT_FILE if i % 2 else Routing.PATH_INFO_REWRITE,
            nosniff=i % 3 == 0,
            doctype=DOCTYPE_QUIRKS if i % 5 == 0 else None,
        )
        reused += id(config) in ids
        ids.add(id(config))
        response = _get(config, "/app/page.php/x//")
        assert response.status == (404 if i % 2 else 200)
        assert (response.header("X-Content-Type-Options") == "nosniff") == (i % 3 == 0)
        assert response.body.startswith(b"<!DOCTYPE") == (i % 5 == 0)
    assert reused > 0


def test_replaced_config_answers_by_its_new_flags():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    assert _get(config, "/app/page.php/x//").status == 200
    changed = replace(config, routing=Routing.EXACT_FILE, nosniff=True, emit_base_tag=True)
    response = _get(changed, "/app/page.php/x//")
    assert response.status == 404
    assert response.header("X-Content-Type-Options") == "nosniff"
    assert b'<base href="http://mock.test/app/">' in response.body
    # the original keeps answering by its own flags
    original = _get(config, "/app/page.php/x//")
    assert original.status == 200 and b"<base" not in original.body
    assert original.header("X-Content-Type-Options") is None


def test_answered_config_refuses_field_assignment():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    assert _get(config, "/app/page.php/x//").status == 200
    for name, value in [("routing", Routing.EXACT_FILE), ("nosniff", True), ("plan", None)]:
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
    assert _get(config, "/app/page.php/x//").status == 200


def test_in_process_client_requires_known_host():
    client = InProcessClient({"known.test": TargetConfig(name="t", routing=Routing.EXACT_FILE)})
    with pytest.raises(NetworkError):
        client.fetch(HttpRequest(parse_url("http://unknown.test/x")))


def test_in_process_client_answers_with_the_host_the_wire_carries():
    # RequestsClient writes "Host: h.test" for this URL: lower case, and no
    # default port
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, emit_base_tag=True)
    client = InProcessClient({"h.test": config})
    body = client.fetch(HttpRequest(parse_url("http://H.test:80/app/page.php"))).body
    assert b'<base href="http://h.test/app/">' in body


def test_serve_liveness_and_shutdown():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    handle = serve(config, port=0)
    try:
        url = f"http://127.0.0.1:{handle.port}/app/page.php/x//"
        resp = RequestsClient(timeout=5).fetch(HttpRequest(parse_url(url)))
        assert resp.status == 200
        assert b"/app/page.php/x//" in resp.body
    finally:
        handle.shutdown()
    # refused, not merely unanswered: a listener left open would still accept
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", handle.port), timeout=2).close()


def test_serve_shutdown_is_prompt():
    handle = serve(TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE), port=0)
    started = time.monotonic()
    handle.shutdown()
    assert time.monotonic() - started < 0.1
    assert not handle.thread.is_alive()


def _closed_by_peer(sock: socket.socket) -> bool:
    """Does the next read see the server's close, as EOF or a reset?  A
    connection left open fails the read by its timeout instead."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_shutdown_closes_kept_alive_connections():
    before = set(threading.enumerate())
    handle = serve(TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE), port=0)
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
    try:
        conn.request("GET", "/app/page.php/x//")
        first = conn.getresponse()
        first.read()
        assert first.status == 200
        handle.shutdown()
        assert _closed_by_peer(conn.sock)
        assert not handle.thread.is_alive()
        assert not [thread for thread in set(threading.enumerate()) - before
                    if thread.is_alive()]
    finally:
        conn.close()
        handle.shutdown()


def test_serve_starts_exactly_one_thread():
    before = set(threading.enumerate())
    handle = serve(TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE), port=0)
    conns = [http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5) for _ in range(3)]
    try:
        for conn in conns:  # three kept-alive connections, all open at once
            conn.request("GET", "/app/page.php/x//")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        assert set(threading.enumerate()) - before == {handle.thread}
    finally:
        for conn in conns:
            conn.close()
        handle.shutdown()


def test_keep_alive_round_trips_skip_delayed_ack():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    handle = serve(config, port=0)
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
    try:
        latencies = []
        for i in range(20):
            target = f"/app/page.php/x{i}//" if i % 2 else "/missing/style.css"
            expected = handle_request(config, f"127.0.0.1:{handle.port}", target, {}, None)
            started = time.monotonic()
            conn.request("GET", target)
            resp = conn.getresponse()
            body = resp.read()
            latencies.append(time.monotonic() - started)
            assert resp.status == expected.status
            assert int(resp.getheader("Content-Length")) == len(body)
            assert body == expected.body
        assert statistics.median(latencies) < 0.015, latencies
    finally:
        conn.close()
        handle.shutdown()


def test_two_servers_behave_independently():
    first = serve(TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE), port=0)
    second = serve(TargetConfig(name="b", routing=Routing.EXACT_FILE), port=0)
    try:
        target = "/app/page.php/x//"
        client = RequestsClient(timeout=5)
        a = client.fetch(HttpRequest(parse_url(f"http://127.0.0.1:{first.port}{target}")))
        b = client.fetch(HttpRequest(parse_url(f"http://127.0.0.1:{second.port}{target}")))
        assert a.status == 200
        assert b.status == 404
    finally:
        first.shutdown()
        second.shutdown()


def test_port_in_use():
    config = TargetConfig(name="t", routing=Routing.EXACT_FILE)
    handle = serve(config, port=0)
    try:
        with pytest.raises(PortInUse):
            serve(config, port=handle.port)
    finally:
        handle.shutdown()
    for port in (-1, 65536):
        with pytest.raises(PortInUse, match=f"port {port}: "):
            serve(config, port=port)


def test_loopback_answers_equal_in_process_answers():
    # every request an in-process scan of each matrix config sends, replayed
    # over one kept-alive client, plus request targets that start with "//"
    profiles = default_profiles()
    scan_config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles))
    client = RequestsClient(timeout=5)
    for config, _ in fixture_matrix(profiles):
        handle = serve(config, port=0)
        try:
            origin = f"127.0.0.1:{handle.port}"
            recorder = RecordingClient(InProcessClient({origin: config}))
            seed = config.seed_url("http://" + origin)
            verify_exploitable(scan_page(seed, config.seed_cookies, recorder, scan_config),
                               recorder, scan_config)
            requests = [exchange.request for exchange in recorder.exchanges]
            assert requests
            requests += [HttpRequest(parse_url(f"http://{origin}//")),
                         HttpRequest(parse_url(f"http://{origin}/{seed.path}"))]
            for request in requests:
                expected = handle_request(config, origin, request.web_url.target, request.cookies,
                                          request.referer)
                got = client.fetch(request)
                assert got.status == expected.status, (config.name, request)
                assert got.body == expected.body, (config.name, request)
                for name, value in expected.headers.items():
                    assert got.header(name) == value, (config.name, request, name)
                assert got.header("Content-Length") == str(len(got.body))
        finally:
            handle.shutdown()


@contextmanager
def _raw_connection(config=None):
    """A plain socket to a served config, for clients that speak odd HTTP;
    every read times out after 5 s."""
    handle = serve(config or TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE), port=0)
    try:
        with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
            yield handle, sock
    finally:
        handle.shutdown()


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """(status, headers by lower-cased name, body) of the next response."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


def _exchange(sock, data: bytes) -> tuple[int, dict[str, str], bytes]:
    sock.sendall(data)
    with sock.makefile("rb") as reader:
        return _read_response(reader)


def test_server_reads_a_head_sent_one_byte_at_a_time():
    with _raw_connection() as (handle, sock):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in b"GET /app/page.php/x// HTTP/1.1\r\nHost: mock.test\r\n\r\n":
            sock.send(bytes([byte]))
            time.sleep(0.001)
        with sock.makefile("rb") as reader:
            status, _, body = _read_response(reader)
        assert (status, body) == (200, _get(handle.config, "/app/page.php/x//").body)


def test_server_answers_pipelined_requests_in_order():
    targets = ["/app/page.php/one//", "/missing/two.css", "/app/page.php/three//"]
    with _raw_connection() as (handle, sock):
        sock.sendall(b"".join(
            f"GET {target} HTTP/1.1\r\nHost: mock.test\r\n\r\n".encode() for target in targets
        ))
        with sock.makefile("rb") as reader:
            answers = [_read_response(reader) for _ in targets]
        for target, (status, _, body) in zip(targets, answers):
            expected = _get(handle.config, target)
            assert (status, body) == (expected.status, expected.body)


def test_server_reads_host_and_cookie_in_any_case():
    config = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
        emit_base_tag=True,
    )
    with _raw_connection(config) as (_, sock):
        status, _, body = _exchange(
            sock, b"GET /app/page.php HTTP/1.1\r\nhost: other.test:81\r\ncOOKIE: sid=abc1\r\n\r\n"
        )
    expected = handle_request(config, "other.test:81", "/app/page.php", {"sid": "abc1"}, None)
    assert (status, body) == (200, expected.body)
    assert b'<base href="http://other.test:81/app/">' in body
    assert b"abc1" in body


def test_server_reads_a_referer_in_any_case():
    config = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, sinks=frozenset({Sink.ECHO_REFERRER})
    )
    with _raw_connection(config) as (_, sock):
        status, _, body = _exchange(
            sock, b"GET /app/page.php HTTP/1.1\r\nHost: mock.test\r\nREFERER: http://ref.test/MARK\r\n\r\n"
        )
    assert (status, body) == (200, _get(config, "/app/page.php", referer="http://ref.test/MARK").body)
    assert b"MARK" in body


@pytest.mark.parametrize(
    "head",
    [
        b"GET /app/page.php/x// HTTP/1.1\r\nHost: mock.test\r\nConnection: close\r\n\r\n",
        b"GET /app/page.php/x// HTTP/1.1\r\nHost: mock.test\r\nconnection: Close\r\n\r\n",
        b"GET /app/page.php/x// HTTP/1.0\r\nHost: mock.test\r\n\r\n",
    ],
    ids=["connection-close", "connection-close-any-case", "http-1.0"],
)
def test_server_closes_after_the_response_when_asked(head):
    with _raw_connection() as (handle, sock):
        status, headers, body = _exchange(sock, head)
        assert (status, body) == (200, _get(handle.config, "/app/page.php/x//").body)
        assert headers["connection"] == "close"
        assert _closed_by_peer(sock)


@pytest.mark.parametrize(
    "head, status",
    [
        (b"POST /app/page.php HTTP/1.1\r\nHost: mock.test\r\n\r\n", 501),
        (b"HEAD /app/page.php HTTP/1.1\r\nHost: mock.test\r\n\r\n", 501),
        (b"garbage\r\n\r\n", 400),
        (b"GET /app/page.php HTTP/2.0\r\n\r\n", 400),
        (b"GET app/page.php HTTP/1.1\r\n\r\n", 400),
        (b"GET /app/page.php HTTP/1.1\r\nno colon here\r\n\r\n", 400),
    ],
    ids=["post", "head", "garbage", "http-2", "relative-target", "header-without-colon"],
)
def test_server_refuses_odd_requests_and_closes(head, status):
    with _raw_connection() as (_, sock):
        got, headers, body = _exchange(sock, head)
        assert (got, body) == (status, b"")
        assert headers["connection"] == "close"
        assert _closed_by_peer(sock)


def test_server_answers_431_to_a_head_over_64_kib_and_closes():
    prefix = b"GET /app/page.php/x// HTTP/1.1\r\nX-Filler: "
    with _raw_connection() as (handle, sock):
        # a head of exactly 64 KiB is answered; the server reads it whole
        filler = b"a" * (64 * 1024 - len(prefix))
        status, _, _ = _exchange(sock, prefix + filler + b"\r\n\r\n")
        assert status == 200
        # one byte more, and no blank line within reach: 431; the server has
        # read every byte sent, so its close is seen as EOF
        status, headers, _ = _exchange(sock, prefix + filler + b"a\r\n\r")
        assert status == 431
        assert headers["connection"] == "close"
        assert _closed_by_peer(sock)
        # the server keeps serving
        url = f"http://127.0.0.1:{handle.port}/app/page.php/x//"
        assert RequestsClient(timeout=5).fetch(HttpRequest(parse_url(url))).status == 200


def test_idle_connections_do_not_delay_another_client():
    with _raw_connection() as (handle, idle):
        with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as partial:
            partial.sendall(b"GET /app/page.php HTTP/1.1\r\nHost: mock")  # never finished
            url = f"http://127.0.0.1:{handle.port}/app/page.php/x//"
            started = time.monotonic()
            response = RequestsClient(timeout=5).fetch(HttpRequest(parse_url(url)))
            assert time.monotonic() - started < 1
            assert response.status == 200


def test_server_answers_500_when_the_handler_raises_and_keeps_serving(capsys):
    config = TargetConfig(
        name="t",
        routing=Routing.EXACT_FILE,
        serve_real_stylesheets=True,
        stylesheet_refs=["\u00e9.css"],
    )
    with pytest.raises(MalformedUrl):
        _get(config, "/app/page.php")
    head = b"GET /app/page.php HTTP/1.1\r\nHost: mock.test\r\n\r\n"
    with _raw_connection(config) as (handle, sock):
        status, headers, _ = _exchange(sock, head)
        assert (status, headers["connection"]) == (500, "close")
        assert _closed_by_peer(sock)
        with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as again:
            assert _exchange(again, head)[0] == 500
        assert handle.thread.is_alive()
    assert "MalformedUrl" in capsys.readouterr().err


def test_config_from_dict_reads_json_form():
    data = {
        "name": "t",
        "routing": "semicolon_params",
        "sinks": ["echo_url", "echo_cookie_values"],
        "seed_cookies": {"a": "1"},
        "sink_filter": "sanitize",
        "newline_handling": "cut_at_lf",
    }
    assert config_from_dict(data) == TargetConfig(
        name="t",
        routing=Routing.SEMICOLON_PARAMS,
        sinks=frozenset({Sink.ECHO_URL, Sink.ECHO_COOKIE_VALUES}),
        seed_cookies={"a": "1"},
        sink_filter=SinkFilter.SANITIZE,
        newline_handling=NewlineHandling.CUT_AT_LF,
    )


def _json_form(config: TargetConfig) -> dict:
    """A config as a config file writes it: enums by value, sets as sorted lists."""

    def form(value):
        if isinstance(value, Enum):
            return value.value
        if isinstance(value, frozenset):
            return sorted(form(item) for item in value)
        return value

    return {f.name: form(getattr(config, f.name)) for f in fields(config)}


def test_every_shipped_config_reads_back_equal_from_its_json_form():
    profiles = default_profiles()
    configs = [config for config, _ in fixture_matrix(profiles) + newline_configs(profiles)]
    for config in configs:
        assert config_from_dict(json.loads(json.dumps(_json_form(config)))) == config, config.name


# The answer key of the 58-config matrix, one label per config: the reason
# for a config that is not vulnerable; otherwise the technique, the engines
# the exploit fires in and the engines that need framing for it.  A change
# to any config's ground truth has to change this table too.
MATRIX_LABELS = {
    "pathinfo-url-nodoc-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-nodoc-basetag": "base_tag",
    "pathinfo-url-nodoc-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "pathinfo-url-nodoc-xfo-deny": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-nodoc-xfo-typo": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-quirks-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-quirks-basetag": "base_tag",
    "pathinfo-url-quirks-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "pathinfo-url-quirks-xfo-deny": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-quirks-xfo-typo": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-standards-plain": "path_param_simple exploitable=internet_explorer framed=internet_explorer",
    "pathinfo-url-standards-basetag": "base_tag",
    "pathinfo-url-standards-nosniff": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-standards-xfo-deny": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-standards-xfo-typo": "path_param_simple exploitable=internet_explorer framed=internet_explorer",
    "exactfile-url-nodoc-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "exactfile-url-nodoc-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "exactfile-url-quirks-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "exactfile-url-quirks-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "exactfile-url-standards-plain": "path_param_simple exploitable=internet_explorer framed=internet_explorer",
    "exactfile-url-standards-nosniff": "path_param_simple exploitable=- framed=-",
    "semicolon-url-nodoc-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "semicolon-url-nodoc-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "semicolon-url-quirks-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "semicolon-url-quirks-nosniff": "path_param_simple exploitable=chrome,opera,safari framed=-",
    "semicolon-url-standards-plain": "path_param_simple exploitable=internet_explorer framed=internet_explorer",
    "semicolon-url-standards-nosniff": "path_param_simple exploitable=- framed=-",
    "encslash-url-nodoc-plain": "encoded_path exploitable=- framed=-",
    "encslash-url-nodoc-nosniff": "encoded_path exploitable=- framed=-",
    "encslash-url-quirks-plain": "encoded_path exploitable=- framed=-",
    "encslash-url-quirks-nosniff": "encoded_path exploitable=- framed=-",
    "encslash-url-standards-plain": "encoded_path exploitable=- framed=-",
    "encslash-url-standards-nosniff": "encoded_path exploitable=- framed=-",
    "encslash-query-nodoc-plain": "encoded_query exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "encslash-query-quirks-plain": "encoded_query exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "encslash-query-standards-plain": "encoded_query exploitable=internet_explorer framed=internet_explorer",
    "pathinfo-cookie-nodoc-plain": "cookie exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-cookie-quirks-plain": "cookie exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-cookie-standards-plain": "cookie exploitable=internet_explorer framed=internet_explorer",
    "pathinfo-referrer-quirks-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-params-quirks-plain": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-nosinks-quirks-plain": "no_reflection",
    "pathinfo-url-quirks-dropfilter": "no_reflection",
    "pathinfo-url-quirks-sanitized": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-quirks-absrefs": "no_relative_stylesheets",
    "exactfile-url-quirks-noerrorecho": "no_reflection",
    "exactfile-url-quirks-norefs404": "no_relative_stylesheets",
    "encslash-url-quirks-realcss": "no_reflection",
    "pathinfo-url-standards-xuacompat": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-quirks-xuacompat": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-url-standards-deny-combo": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-standards-allowfrom-attacker": "path_param_simple exploitable=internet_explorer framed=internet_explorer",
    "pathinfo-url-standards-allowfrom-other": "path_param_simple exploitable=- framed=-",
    "pathinfo-url-quirks-mixedrefs": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
    "pathinfo-cookie-quirks-nosniff": "cookie exploitable=chrome,opera,safari framed=-",
    "encslash-query-quirks-sanitized": "encoded_query exploitable=- framed=-",
    "encslash-aspx-quirks-plain": "encoded_path exploitable=- framed=-",
    "pathinfo-url-quirks-deep": "path_param_simple exploitable=chrome,opera,safari,firefox,edge,internet_explorer framed=-",
}


def _label(truth):
    if not truth.vulnerable:
        assert truth.reason is not None
        return truth.reason
    assert truth.technique is not None
    exploitable = ",".join(e for e, p in truth.profiles.items() if p.exploitable) or "-"
    framed = ",".join(e for e, p in truth.profiles.items() if p.framed) or "-"
    return f"{truth.technique} exploitable={exploitable} framed={framed}"


def test_matrix_labels_match_pinned_table():
    labels = [(config.name, _label(truth)) for config, truth in fixture_matrix(default_profiles())]
    assert labels == list(MATRIX_LABELS.items())


def _scanned(config):
    profiles = default_profiles()
    client = InProcessClient({"mock.test": config})
    scan_config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles))
    seed = config.seed_url("http://mock.test")
    verdict = scan_page(seed, config.seed_cookies, client, scan_config)
    return verify_exploitable(verdict, client, scan_config), compute_ground_truth(config, profiles)


def test_truth_reason_base_tag_on_refless_404():
    # The 404 for the mutated URL carries the <base> but no stylesheet link;
    # a base with no relative ref after it blocks, on both sides.
    config = TargetConfig(
        name="exactfile-base-norefs404",
        routing=Routing.EXACT_FILE,
        emit_base_tag=True,
        error_page_has_refs=False,
        doctype=DOCTYPE_QUIRKS,
    )
    verdict, truth = _scanned(config)
    assert verdict.reason is NotVulnerableReason.BASE_TAG
    assert verdict_matches_truth(verdict, truth) == []


def test_truth_reason_when_no_relative_ref_resolves():
    # a raw "[" leaves the ref out on both sides, so no stylesheet is fetched
    config = TargetConfig(name="pathinfo-unresolvable-ref", routing=Routing.PATH_INFO_REWRITE,
                          stylesheet_refs=["a[1].css"], doctype=DOCTYPE_QUIRKS)
    verdict, truth = _scanned(config)
    assert truth.reason == NotVulnerableReason.NO_RELATIVE_STYLESHEETS.value
    assert verdict_matches_truth(verdict, truth) == []


def test_grader_rejects_not_vulnerable_verdict_without_reason():
    config = TargetConfig(name="t", routing=Routing.EXACT_FILE, emit_base_tag=True)
    verdict, truth = _scanned(config)
    assert not truth.vulnerable and truth.reason == NotVulnerableReason.BASE_TAG.value
    assert verdict_matches_truth(verdict, truth) == []
    assert verdict_matches_truth(replace(verdict, reason=None), truth) != []


def test_grader_rejects_vulnerable_verdict_without_technique():
    config = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    verdict, truth = _scanned(config)
    assert truth.vulnerable and truth.technique is not None
    assert verdict_matches_truth(verdict, truth) == []
    assert verdict_matches_truth(replace(verdict, technique=None), truth) != []


def _scanned_over_loopback(config):
    profiles = default_profiles()
    scan_config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles), request_timeout=5.0)
    handle = serve(config, port=0)
    try:
        client = RequestsClient(timeout=5)
        seed = config.seed_url(f"http://127.0.0.1:{handle.port}")
        verdict = scan_page(seed, config.seed_cookies, client, scan_config)
        return verify_exploitable(verdict, client, scan_config)
    finally:
        handle.shutdown()


def test_fragment_ref_gets_the_same_verdict_in_process_and_over_loopback():
    # The in-process handler drops a URL's fragment, as an HTTP client does on
    # the wire, so "style.css#x" is the real stylesheet on both paths.
    for seed_query in (None, "k1=v1"):
        config = TargetConfig(
            name="encslash-fragment-ref",
            routing=Routing.ENCODED_SLASH_DECODE,
            seed_query=seed_query,
            doctype=DOCTYPE_QUIRKS,
            stylesheet_refs=["style.css#x"],
            error_page_has_refs=False,
            serve_real_stylesheets=True,
        )
        in_process, truth = _scanned(config)
        over_loopback = _scanned_over_loopback(config)
        for verdict in (in_process, over_loopback):
            assert verdict_matches_truth(verdict, truth) == [], (seed_query, verdict)
        assert over_loopback.status is in_process.status
        assert over_loopback.reason is in_process.reason
        assert over_loopback.technique is in_process.technique


def test_page_path_with_a_lone_percent_matches_answer_key_over_loopback():
    # the probe must reach the server as sent: re-encoded as %250A it never
    # decodes to a newline, and the exploit does not fire
    config = TargetConfig(
        name="pathinfo-lone-percent",
        routing=Routing.PATH_INFO_REWRITE,
        page_path="/100%/page.php",
        doctype=DOCTYPE_QUIRKS,
    )
    verdict = _scanned_over_loopback(config)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict_matches_truth(verdict, compute_ground_truth(config, default_profiles())) == []


def test_encoded_query_scan_of_a_query_holding_a_slash_matches_answer_key():
    config = TargetConfig(
        name="encslash-next-slash",
        routing=Routing.ENCODED_SLASH_DECODE,
        sinks=frozenset({Sink.ECHO_QUERY_VALUES}),
        seed_query="next=/home",
        doctype=DOCTYPE_QUIRKS,
        error_page_echoes_url=False,
    )
    verdict, truth = _scanned(config)
    assert truth.technique == "encoded_query"
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict_matches_truth(verdict, truth) == []
