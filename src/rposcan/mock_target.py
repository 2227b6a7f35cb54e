"""Configurable mock target reproducing the server-side behaviors the scanner
exploits: rewriting-style routing, reflection sinks, doctype and defense
header emission, URL-echoing error pages, and servers that refuse newline
bytes in the request or cut their echoes at LF.

A ``TargetConfig`` is a frozen value.  Every response is a pure function of
(config, request), worked out from the config's response plan
(``config.plan``): the security headers, the page and error markup split
around the base tag's origin, the real-stylesheet paths, and the sink,
filter and newline flags.  The plan is built on first use and cached on the
config; ``dataclasses.replace`` gives a new config with a plan of its own.
A config whose real stylesheets sit at refs that do not resolve fails on
every request with ``MalformedUrl``, and ``config_from_dict`` refuses it.

Each config also computes its own ground-truth label (is it vulnerable, and
for which engines would the injected style fire), so end-to-end runs have an
answer key.  The key sends a marker, and then an exploit-shaped stand-in,
and searches the server's own echo list for it: ``_echoes`` decodes and
routes a request target and lists what each sink echoes, ``handle_request``
formats that list (the LF cut, the filter), and the key reads it before
either, so it ignores a cut echo and a refused newline.  It shares three
things with the scanner: the technique shapes (``mutations``), reference
resolution (``urls``) and the rendering rules.  It shares none of fetching,
HTML extraction, reflection search, the CSS oracle or ``scanning``'s profile
judging.
"""

from __future__ import annotations

import re
import sys
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING
from urllib.parse import quote

from .httpclient import HttpRequest, HttpResponse, NetworkError
from .jsonform import from_json_form, load
from .mutations import (
    MutationTechnique,
    applicable_techniques,
    expand_stylesheet_targets,
    mutate,
)
from .rendering import (
    ATTACKER_ORIGIN,
    BrowserProfile,
    ResponseSecurity,
    effective_mode,
    framing_allowed,
    stylesheet_accepted,
)
from .scanning import NotVulnerableReason, ScanStatus
from .urls import (
    WebUrl,
    _remove_dot_segments,
    host_key,
    is_relative_href,
    parse_url,
    percent_decode,
    resolve_relative,
    serialize_url,
)

if TYPE_CHECKING:
    import socket


class Routing(Enum):
    EXACT_FILE = "exact_file"
    PATH_INFO_REWRITE = "path_info_rewrite"
    SEMICOLON_PARAMS = "semicolon_params"
    ENCODED_SLASH_DECODE = "encoded_slash_decode"


class Sink(Enum):
    ECHO_URL = "echo_url"
    ECHO_QUERY_VALUES = "echo_query_values"
    ECHO_COOKIE_VALUES = "echo_cookie_values"
    ECHO_REFERRER = "echo_referrer"


class SinkFilter(Enum):
    RAW = "raw"
    SANITIZE = "sanitize"  # strips style metacharacters, keeps the text
    DROP = "drop"  # sink emits nothing at all


class NewlineHandling(Enum):
    """What the server does with newline bytes in the request target."""

    PASS = "pass"
    REFUSE_CRLF = "refuse_crlf"  # 400 when the decoded target holds CR or LF
    REFUSE_ALL = "refuse_all"  # 400 for LF, FF or CR
    CUT_AT_LF = "cut_at_lf"  # every echo ends at its first LF; FF and CR pass


# decoded bytes that get a request target refused, per handling
_REFUSED_BYTES = {
    NewlineHandling.REFUSE_CRLF: "\r\n",
    NewlineHandling.REFUSE_ALL: "\n\x0c\r",
}

DOCTYPE_QUIRKS = 'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"'
DOCTYPE_STANDARDS = "html"

_SANITIZE_RE = re.compile(r"[{}()\[\]:;]")


@dataclass(frozen=True)
class TargetConfig:
    name: str
    routing: Routing
    sinks: frozenset[Sink] = frozenset({Sink.ECHO_URL})
    page_path: str = "/app/page.php"
    seed_path: str | None = None  # URL path the scan starts from; default page_path
    seed_query: str | None = None
    seed_cookies: dict[str, str] = field(default_factory=dict)
    doctype: str | None = None
    emit_base_tag: bool = False
    stylesheet_refs: list[str] = field(default_factory=lambda: ["../style.css"])
    nosniff: bool = False
    x_frame_options: str | None = None
    x_ua_compatible: str | None = None
    error_page_echoes_url: bool = True
    error_page_has_refs: bool = True
    serve_real_stylesheets: bool = False
    sink_filter: SinkFilter = SinkFilter.RAW
    newline_handling: NewlineHandling = NewlineHandling.PASS

    def seed_url(self, origin: str) -> WebUrl:
        path = self.seed_path or self.page_path
        text = origin.rstrip("/") + path
        if self.seed_query is not None:
            text += "?" + self.seed_query
        return parse_url(text)

    @cached_property
    def plan(self) -> _ResponsePlan:
        """What every response of this config shares, built on first use."""
        return _ResponsePlan(self)


# --- routing ---


def _strip_semicolon_params(path: str) -> str:
    return "/" + "/".join(seg.split(";", 1)[0] for seg in path.split("/")[1:])


def _real_stylesheet_paths(config: TargetConfig) -> frozenset[str]:
    base = parse_url("http://mock.invalid" + config.page_path)
    paths = set()
    for ref in config.stylesheet_refs:
        if is_relative_href(ref):
            paths.add(resolve_relative(base, ref).path)
        elif ref.startswith("/") and not ref.startswith("//"):
            paths.add(ref)
    return frozenset(paths)


def _route(
    plan: _ResponsePlan, decoded_path: str, raw_query: str | None
) -> tuple[str, list[tuple[str, str]]]:
    """The routing rule, on the request path decoded once and the raw query
    (None when the target has no ``?``)."""
    recovered_query: str | None = None

    if plan.routing is Routing.ENCODED_SLASH_DECODE:
        if "?" in decoded_path:
            decoded_path, _, recovered_query = decoded_path.partition("?")
        normalized = _remove_dot_segments(decoded_path)
    elif plan.routing is Routing.SEMICOLON_PARAMS:
        normalized = _strip_semicolon_params(decoded_path)
    else:
        normalized = decoded_path

    query = raw_query if raw_query is not None else recovered_query
    pairs: list[tuple[str, str]] = []
    for chunk in (query or "").split("&"):
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            # a recovered query was already decoded with the path
            pairs.append((key, value if raw_query is None else percent_decode(value)))

    if normalized in plan.real_stylesheet_paths:
        return "css", pairs

    if plan.routing in (Routing.EXACT_FILE, Routing.ENCODED_SLASH_DECODE):
        # the decode-then-route flavor canonicalizes and then matches exactly
        is_page = normalized == plan.page_path
    else:
        is_page = normalized == plan.page_path or normalized.startswith(plan.page_path + "/")
    return ("page" if is_page else "404"), pairs


# --- responses ---


def _markup(config: TargetConfig, heading: str, refs: bool) -> tuple[str, str]:
    """A document's lines up to its heading, joined by newlines and split
    where the base tag's origin goes (all of it in the first part when there
    is no base tag)."""
    before = f"<!DOCTYPE {config.doctype}>\n" if config.doctype else ""
    before += "<html><head>\n"
    after = ""
    if config.emit_base_tag:
        before += '<base href="'
        after = config.page_path.rsplit("/", 1)[0] + '/">\n'
    after += "<title>mock target</title>\n"
    if refs:
        for ref in config.stylesheet_refs:
            after += f'<link rel="stylesheet" href="{ref}">\n'
    return before, after + f"</head>\n<body>\n<h1>{heading}</h1>"


class _ResponsePlan:
    """Everything a config's responses share: routing facts, the sink flags,
    the headers and the markup."""

    def __init__(self, config: TargetConfig) -> None:
        self.routing = config.routing
        self.page_path = config.page_path
        self.real_stylesheet_paths = (
            _real_stylesheet_paths(config) if config.serve_real_stylesheets else frozenset()
        )
        self.refused_bytes = _REFUSED_BYTES.get(config.newline_handling, "")
        self.cut_at_lf = config.newline_handling is NewlineHandling.CUT_AT_LF
        self.sanitize = config.sink_filter is SinkFilter.SANITIZE
        echoes = config.sink_filter is not SinkFilter.DROP  # DROP: no sink emits
        self.echo_url = echoes and Sink.ECHO_URL in config.sinks
        self.echo_query = echoes and Sink.ECHO_QUERY_VALUES in config.sinks
        self.echo_cookie = echoes and Sink.ECHO_COOKIE_VALUES in config.sinks
        self.echo_referrer = echoes and Sink.ECHO_REFERRER in config.sinks
        self.error_echo = echoes and config.error_page_echoes_url
        self.base_tag = config.emit_base_tag

        security: dict[str, str] = {}
        if config.nosniff:
            security["X-Content-Type-Options"] = "nosniff"
        if config.x_frame_options is not None:
            security["X-Frame-Options"] = config.x_frame_options
        if config.x_ua_compatible is not None:
            security["X-UA-Compatible"] = config.x_ua_compatible
        self.html_headers = {**security, "Content-Type": "text/html; charset=utf-8"}
        self.css_headers = {**security, "Content-Type": "text/css"}

        self.page_markup = _markup(config, "mock page", True)
        self.error_markup = _markup(config, "404 Not Found", config.error_page_has_refs)

    def echo_line(self, css_class: str, value: str) -> str:
        if self.cut_at_lf:
            value = value.partition("\n")[0]
        if self.sanitize:
            value = _SANITIZE_RE.sub("", value)
        return f'\n<p class="{css_class}">{value}</p>'


def _echoes(plan: _ResponsePlan, raw_target: str, cookies: Mapping[str, str],
            referer: str | None) -> tuple[str, str, list[tuple[str, str]]]:
    """A request target decoded once and routed: the decoded target, its
    route (``"page"``, ``"css"`` or ``"404"``), and what each sink echoes for
    it as (class, value), in the order the body lists them.  A value is
    the raw text the sink reads, before the LF cut and the filter."""
    raw_path, mark, raw_query = raw_target.partition("?")
    decoded = percent_decode(raw_target)
    if mark:
        kind, query_pairs = _route(plan, percent_decode(raw_path), raw_query)
    else:
        kind, query_pairs = _route(plan, decoded, None)
    echoes: list[tuple[str, str]] = []
    if kind == "page":
        if plan.echo_url:
            echoes.append(("echo-url", decoded))
        if plan.echo_query:
            for _, value in query_pairs:
                echoes.append(("echo-query", value))
        if plan.echo_cookie:
            for _, value in sorted(cookies.items()):
                echoes.append(("echo-cookie", percent_decode(value)))
        if plan.echo_referrer and referer:
            echoes.append(("echo-referrer", percent_decode(referer)))
    elif kind == "404" and plan.error_echo:
        echoes.append(("echo-url", decoded))
    return decoded, kind, echoes


_REFUSED_BODY = b"<html><body><h1>400 Bad Request</h1></body></html>"
_CSS_BODY = b"body { margin: 0; }\n"


def handle_request(config: TargetConfig, authority: str, raw_target: str,
                   cookies: Mapping[str, str], referer: str | None) -> HttpResponse:
    """Byte-deterministic response for a GET request against this config,
    given its ``Host`` and request target as sent."""
    plan = config.plan
    decoded, kind, echoes = _echoes(plan, raw_target, cookies, referer)
    if plan.refused_bytes and any(byte in decoded for byte in plan.refused_bytes):
        return HttpResponse(400, dict(plan.html_headers), _REFUSED_BODY)
    if kind == "css":
        return HttpResponse(200, dict(plan.css_headers), _CSS_BODY)
    if kind == "page":
        status, (before, after) = 200, plan.page_markup
    else:
        status, (before, after) = 404, plan.error_markup
    echoed = ""
    for css_class, value in echoes:
        echoed += plan.echo_line(css_class, value)
    origin = "http://" + authority if plan.base_tag else ""
    body = before + origin + after + echoed + "\n</body></html>"
    return HttpResponse(status, dict(plan.html_headers), body.encode("latin-1", errors="replace"))


# --- serving over loopback ---


class PortInUse(OSError):
    pass


_HEAD_END = b"\r\n\r\n"
_MAX_HEAD = 64 * 1024  # bytes before the blank line; a longer head gets 431


@cache
def _reasons() -> dict[int, str]:
    from http import HTTPStatus  # here, so an in-process run never loads it

    return {status.value: status.phrase for status in HTTPStatus}


def _encode(status: int, headers: dict[str, str], body: bytes, keep_open: bool) -> bytes:
    """Status line, headers, ``Content-Length`` and body, to leave in one
    write: two small writes stall on Nagle plus the client's delayed ACK."""
    head = f"HTTP/1.1 {status} {_reasons().get(status, '')}\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n"
    head += f"Content-Length: {len(body)}\r\n"
    if not keep_open:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _refusal(status: int) -> tuple[bytes, bool]:
    return _encode(status, {}, b"", False), False


def _answer(config: TargetConfig, head: bytes) -> tuple[bytes, bool]:
    """The response to one request head (without its blank line), and whether
    the connection stays open after it."""
    request_line, *lines = head.decode("latin-1").split("\r\n")
    words = request_line.split(" ")
    if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0") or not words[1].startswith("/"):
        return _refusal(400)
    method, target, version = words
    if method != "GET":
        return _refusal(501)
    keep_open = version == "HTTP/1.1"
    host, cookie, referer = "localhost", "", None
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            return _refusal(400)
        value = value.strip(" \t")
        lowered = name.lower()
        if lowered == "host":
            host = value
        elif lowered == "cookie":
            cookie = value
        elif lowered == "referer":
            referer = value
        elif lowered == "connection" and value.lower() == "close":
            keep_open = False
    cookies: dict[str, str] = {}
    for part in cookie.split(";"):
        if "=" in part:
            name, _, value = part.strip().partition("=")
            cookies[name] = value
    try:
        response = handle_request(config, host, target, cookies, referer)
    except Exception:  # a broken config must not stop the server
        sys.excepthook(*sys.exc_info())  # the traceback to stderr
        return _refusal(500)
    return _encode(response.status, response.headers, response.body, keep_open), keep_open


def _serve_connection(config: TargetConfig, conn: socket.socket, buffer: bytearray) -> bool:
    """Read what a readable connection sent and answer every whole request
    head in its buffer, in order; False when the connection is to be closed."""
    try:
        data = conn.recv(65536)
    except OSError:  # a reset
        return False
    if not data:
        return False
    start = max(0, len(buffer) - len(_HEAD_END) + 1)  # the rest was searched already
    buffer += data
    while True:
        end = buffer.find(_HEAD_END, start, _MAX_HEAD + len(_HEAD_END))
        if end == -1:
            if len(buffer) < _MAX_HEAD + len(_HEAD_END):
                return True  # the head is not whole yet
            response, keep_open = _refusal(431)
        else:
            response, keep_open = _answer(config, bytes(buffer[:end]))
            del buffer[: end + len(_HEAD_END)]
            start = 0
        try:
            conn.sendall(response)
        except OSError:
            return False
        if not keep_open:
            return False


class MockServer:
    """One config served over loopback HTTP/1.1 by one thread.

    The thread waits in a selector on the listening socket, a wake socket and
    every accepted connection, so it never polls. It splits each request head
    itself (request line, then ``name: value`` lines; ``Host``, ``Cookie``,
    ``Referer`` and ``Connection`` in any case), answers it with
    ``handle_request`` and writes the response in one ``sendall``.
    Connections are kept alive; the server closes one after ``Connection:
    close``, after an HTTP/1.0 request, and on EOF or a reset. A malformed
    request line or header line gets 400, a method other than GET 501, a head
    over 64 KiB 431, and an exception raised by ``handle_request`` 500 (its
    traceback goes to stderr); each is followed by a close, and the loop
    keeps serving. Responses carry the
    plan's headers and ``Content-Length``, with no ``Server`` or ``Date``.
    ``socket`` and ``selectors`` load with the first server and ``http`` with
    its first response, so an in-process run, answered by ``InProcessClient``,
    loads none of them.

    Requests are answered one at a time per server, and a write blocks until
    the client takes the response, so a client that never reads can hold the
    loop. That is fine for loopback tests; a mode that answers slowly would
    have to be scheduled from the selector, not by blocking in it.
    """

    def __init__(self, config: TargetConfig, port: int) -> None:
        import socket  # here, so an in-process run never loads it

        listener = socket.socket()
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen()
        except BaseException as exc:
            listener.close()
            if isinstance(exc, (OSError, OverflowError)):  # OverflowError: a port outside 0-65535
                raise PortInUse(f"port {port}: {exc}") from exc
            raise
        self.config = config
        self.port: int = listener.getsockname()[1]
        self._listener = listener
        self._woken, self._wake = socket.socketpair()  # closing _wake stops the loop
        self.thread = threading.Thread(target=self._serve_until_woken, daemon=True)
        self.thread.start()

    def _serve_until_woken(self) -> None:
        import selectors

        buffers: dict[socket.socket, bytearray] = {}
        with self._listener, self._woken, selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._woken, selectors.EVENT_READ)
            try:
                while True:
                    for key, _ in selector.select():
                        sock = key.fileobj
                        if sock is self._woken:
                            return
                        if sock is self._listener:
                            conn, _ = sock.accept()
                            buffers[conn] = bytearray()
                            selector.register(conn, selectors.EVENT_READ)
                        elif not _serve_connection(self.config, sock, buffers[sock]):
                            selector.unregister(sock)
                            del buffers[sock]
                            sock.close()
            finally:
                for conn in buffers:
                    conn.close()

    def shutdown(self) -> None:
        """Stop the server thread, which closes every open connection, the
        listening socket and the wake socket's other end."""
        self._wake.close()
        self.thread.join(timeout=5)


def serve(config: TargetConfig, port: int = 0) -> MockServer:
    """Expose the config over loopback HTTP/1.1; port 0 picks a free port."""
    return MockServer(config, port)


class InProcessClient:
    """Client that answers from configs directly, keyed by ``urls.host_key``:
    each config sees the ``Host`` and target ``RequestsClient`` would send."""

    def __init__(self, hosts: dict[str, TargetConfig]) -> None:
        self._hosts = hosts

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            raise NetworkError(f"only GET is supported, not {request.method}")
        url = request.web_url
        authority = host_key(url)
        config = self._hosts.get(authority)
        if config is None:
            raise NetworkError(f"unknown mock host in {request.url}")
        return handle_request(config, authority, url.target, request.cookies, request.referer)


# --- ground truth ---


@dataclass
class ProfileTruth:
    exploitable: bool
    framed: bool


@dataclass
class GroundTruth:
    vulnerable: bool
    reason: str | None  # NotVulnerableReason value for non-vulnerable configs
    technique: str | None
    profiles: dict[str, ProfileTruth]


_MARKER = "zz9qmarkerq9zz"  # stands in for the probe payload; survives one decode

# Exploit-shaped stand-in: a newline, closers and a url() whose decoded form
# carries raw slashes, which is what breaks path equivalence on
# decode-then-route servers during verification.  The newline is never
# refused or cut here: the answer key assumes the scanner's newline variant
# that gets through.
_EXPLOIT_MARKER = "%0A" + quote(
    "}}]]body{background:url(http://css-canary.invalid/" + _MARKER + ")}", safe=""
)

_VICTIM_ORIGIN = "http://gt.invalid"


def _attempt(
    config: TargetConfig, technique: MutationTechnique, payload: str
) -> NotVulnerableReason | None:
    """Send ``payload`` from the seed URL by one technique, then fetch the
    stylesheets its answer links.  None when the server's echo list for one
    of them holds the marker; otherwise what the answer showed: the base
    tag, stylesheets that do not reflect, or no relative ref that resolves."""
    plan = config.plan
    seed = config.seed_url(_VICTIM_ORIGIN)
    mutated = mutate(seed, technique, payload, config.seed_cookies)
    _, kind, _ = _echoes(plan, mutated.url.target, mutated.cookies, None)
    if kind == "css":
        return NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    # the base tag sits on the page and the 404 alike, and a base with no
    # relative ref after it blocks just the same
    if plan.base_tag:
        return NotVulnerableReason.BASE_TAG
    refs = config.stylesheet_refs if kind == "page" or config.error_page_has_refs else []
    relative_refs = [ref for ref in refs if is_relative_href(ref)]
    sheets = expand_stylesheet_targets(mutated.url, relative_refs, [])
    if not sheets:
        return NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    referer = serialize_url(mutated.url)
    for sheet in sheets:
        _, _, echoes = _echoes(plan, sheet.target, mutated.cookies, referer)
        if any(_MARKER in value for _, value in echoes):
            return None
    return NotVulnerableReason.NO_REFLECTION


def compute_ground_truth(config: TargetConfig, profiles: tuple[BrowserProfile, ...]) -> GroundTruth:
    """The first technique whose marker reflects, in the scanner's order, and
    per engine whether the exploit would fire; or, when none reflects, the
    reason the scanner should give."""
    # a page refused outright is still answered: at worst no relative refs
    strongest = NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    for technique in applicable_techniques(config.seed_url(_VICTIM_ORIGIN), config.seed_cookies):
        # a server that refuses every newline answers a bare 400 whenever the
        # payload rides in the request target, that is for all but the cookie
        if (
            config.newline_handling is NewlineHandling.REFUSE_ALL
            and technique is not MutationTechnique.COOKIE
        ):
            continue
        reason = _attempt(config, technique, _MARKER)
        if reason is None:
            break
        strongest = max(strongest, reason)  # as the scanner does
    else:
        return GroundTruth(vulnerable=False, reason=strongest.value, technique=None, profiles={})

    # the reflected "stylesheet" is the page or the error document, served
    # with the page's headers, never real css
    security = ResponseSecurity.from_headers(config.plan.html_headers)
    style_fires = config.sink_filter is SinkFilter.RAW and (
        _attempt(config, technique, _EXPLOIT_MARKER) is None
    )
    frameable = framing_allowed(security.x_frame_options, ATTACKER_ORIGIN, _VICTIM_ORIGIN)

    def fires(profile: BrowserProfile, framed: bool) -> bool:
        mode = effective_mode(config.doctype, profile, framed, security)
        return style_fires and stylesheet_accepted(profile, mode, security)

    outcomes: dict[str, ProfileTruth] = {}
    for profile in profiles:
        unframed = fires(profile, False)
        framed = (
            not unframed and profile.supports_frame_override and frameable and fires(profile, True)
        )
        outcomes[profile.engine.value] = ProfileTruth(exploitable=unframed or framed, framed=framed)
    return GroundTruth(vulnerable=True, reason=None, technique=technique.value, profiles=outcomes)


def verdict_matches_truth(verdict, truth: GroundTruth) -> list[str]:
    """Mismatch descriptions between a scanner verdict and a ground truth."""
    problems: list[str] = []
    scanner_vulnerable = verdict.status in (ScanStatus.VULNERABLE, ScanStatus.EXPLOITABLE)
    if scanner_vulnerable != truth.vulnerable:
        problems.append(f"vulnerable: scanner={scanner_vulnerable} truth={truth.vulnerable}")
        return problems
    if not truth.vulnerable:
        reason = verdict.reason.value if verdict.reason else None
        if reason != truth.reason:
            problems.append(f"reason: scanner={reason} truth={truth.reason}")
        return problems
    technique = verdict.technique.value if verdict.technique else None
    if technique != truth.technique:
        problems.append(f"technique: scanner={technique} truth={truth.technique}")
    expected_exploitable = any(p.exploitable for p in truth.profiles.values())
    scanner_exploitable = verdict.status is ScanStatus.EXPLOITABLE
    if expected_exploitable != scanner_exploitable:
        problems.append(
            f"exploitable: scanner={scanner_exploitable} truth={expected_exploitable}"
        )
    for engine, expected in truth.profiles.items():
        got = next(
            (r for e, r in verdict.profile_results.items() if e.value == engine), None
        )
        if got is None:
            problems.append(f"{engine}: missing profile result")
            continue
        if got.exploitable != expected.exploitable:
            problems.append(
                f"{engine}: exploitable scanner={got.exploitable} truth={expected.exploitable}"
            )
        if got.exploitable and got.framed != expected.framed:
            problems.append(f"{engine}: framed scanner={got.framed} truth={expected.framed}")
    return problems


# --- serialization ---


def config_from_dict(data) -> TargetConfig:
    """A config from its JSON form (``jsonform.from_json_form``).  Real
    stylesheets at refs that do not resolve raise ``MalformedUrl`` here,
    rather than on every request."""
    config = from_json_form(TargetConfig, data, "config")
    config.plan  # building the plan resolves the real stylesheets' refs
    return config


def load_config(path: str) -> TargetConfig:
    """The config in a JSON file; a bad one raises ``BadInput``."""
    return load(path, config_from_dict)


# --- the shipped fixture matrix ---


def fixture_matrix(profiles: tuple[BrowserProfile, ...]) -> list[tuple[TargetConfig, GroundTruth]]:
    """The labeled config matrix used by the end-to-end suite: routing x sink
    x doctype x defense, pruned to the combinations that exercise distinct
    verdict paths."""
    doctypes = {
        "nodoc": None,
        "quirks": DOCTYPE_QUIRKS,
        "standards": DOCTYPE_STANDARDS,
    }
    defenses = {
        "plain": {},
        "basetag": {"emit_base_tag": True},
        "nosniff": {"nosniff": True},
        "xfo-deny": {"x_frame_options": "DENY"},
        "xfo-typo": {"x_frame_options": "SOMEORIGIN"},
    }

    configs: list[TargetConfig] = []

    def add(name: str, **kwargs) -> None:
        configs.append(TargetConfig(name=name, **kwargs))

    # Canonical vulnerable shape (path-info rewriting, URL echo): every
    # defense crossed with every doctype.
    for doc_key, doctype in doctypes.items():
        for defense_key, overrides in defenses.items():
            add(
                f"pathinfo-url-{doc_key}-{defense_key}",
                routing=Routing.PATH_INFO_REWRITE,
                doctype=doctype,
                **overrides,
            )

    # Remaining routings, URL-echo sink, selected defenses.
    for routing, tag in [
        (Routing.EXACT_FILE, "exactfile"),
        (Routing.SEMICOLON_PARAMS, "semicolon"),
        (Routing.ENCODED_SLASH_DECODE, "encslash"),
    ]:
        seed_extra: dict = {}
        if routing is Routing.SEMICOLON_PARAMS:
            seed_extra = {"page_path": "/app/page.jsp", "seed_path": "/app/page.jsp;p1;p2"}
        if routing is Routing.ENCODED_SLASH_DECODE:
            # flat reference keeps the encoded-path payload inside the sheet
            # URL; refless error pages keep the simpler techniques out
            seed_extra = {"stylesheet_refs": ["style.css"], "error_page_has_refs": False}
        for doc_key, doctype in doctypes.items():
            for defense_key in ("plain", "nosniff"):
                add(
                    f"{tag}-url-{doc_key}-{defense_key}",
                    routing=routing,
                    doctype=doctype,
                    **defenses[defense_key],
                    **seed_extra,
                )

    # Query-value reflection through an encoded "?" (decode-then-route); the
    # silent error pages keep the earlier techniques from reflecting first.
    for doc_key, doctype in doctypes.items():
        add(
            f"encslash-query-{doc_key}-plain",
            routing=Routing.ENCODED_SLASH_DECODE,
            sinks=frozenset({Sink.ECHO_QUERY_VALUES}),
            seed_query="k1=v1&k2=v2",
            stylesheet_refs=["style.css"],
            doctype=doctype,
            error_page_echoes_url=False,
        )

    # Cookie reflection.
    for doc_key, doctype in doctypes.items():
        add(
            f"pathinfo-cookie-{doc_key}-plain",
            routing=Routing.PATH_INFO_REWRITE,
            sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
            seed_cookies={"sid": "abc123", "lang": "en"},
            doctype=doctype,
        )

    # Referrer reflection.
    add(
        "pathinfo-referrer-quirks-plain",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_REFERRER}),
        doctype=DOCTYPE_QUIRKS,
    )

    # Path parameters after the script segment (slash-separated).
    add(
        "pathinfo-url-params-quirks-plain",
        routing=Routing.PATH_INFO_REWRITE,
        seed_path="/app/page.php/p1/p2",
        doctype=DOCTYPE_QUIRKS,
    )

    # True negatives: no sinks at all, and sinks that drop or sanitize.
    add(
        "pathinfo-nosinks-quirks-plain",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset(),
        doctype=DOCTYPE_QUIRKS,
    )
    add(
        "pathinfo-url-quirks-dropfilter",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        sink_filter=SinkFilter.DROP,
        error_page_echoes_url=False,
    )
    add(
        "pathinfo-url-quirks-sanitized",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        sink_filter=SinkFilter.SANITIZE,
    )

    # No relative stylesheets: absolute and root-relative references only.
    add(
        "pathinfo-url-quirks-absrefs",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        stylesheet_refs=["/static/style.css", "http://cdn.invalid/s.css"],
    )

    # Error pages carry the attack when routing rejects the mutated URL.
    add(
        "exactfile-url-quirks-noerrorecho",
        routing=Routing.EXACT_FILE,
        doctype=DOCTYPE_QUIRKS,
        error_page_echoes_url=False,
    )
    add(
        "exactfile-url-quirks-norefs404",
        routing=Routing.EXACT_FILE,
        doctype=DOCTYPE_QUIRKS,
        error_page_has_refs=False,
    )

    # Real stylesheet served at the canonical location (no reflection there).
    add(
        "encslash-url-quirks-realcss",
        routing=Routing.ENCODED_SLASH_DECODE,
        doctype=DOCTYPE_QUIRKS,
        stylesheet_refs=["style.css"],
        serve_real_stylesheets=True,
        error_page_echoes_url=False,
        error_page_has_refs=False,
    )

    # X-UA-Compatible pins the document mode against the framing override.
    add(
        "pathinfo-url-standards-xuacompat",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_ua_compatible="IE=edge",
    )
    # ... but it is irrelevant when the doctype is quirky to begin with.
    add(
        "pathinfo-url-quirks-xuacompat",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        x_ua_compatible="IE=edge",
    )
    # Defenses stacked: standards doctype plus frame denial.
    add(
        "pathinfo-url-standards-deny-combo",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_frame_options="DENY",
        nosniff=True,
    )
    # ALLOW-FROM admits or blocks by origin membership.
    add(
        "pathinfo-url-standards-allowfrom-attacker",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_frame_options="ALLOW-FROM " + ATTACKER_ORIGIN,
    )
    add(
        "pathinfo-url-standards-allowfrom-other",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_frame_options="ALLOW-FROM http://partner.invalid",
    )
    # Mixed references: the absolute one cannot reflect, the relative can.
    add(
        "pathinfo-url-quirks-mixedrefs",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        stylesheet_refs=["/static/reset.css", "../style.css"],
    )
    # Cookie flavor of the nosniff asymmetry.
    add(
        "pathinfo-cookie-quirks-nosniff",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
        seed_cookies={"sid": "abc123"},
        doctype=DOCTYPE_QUIRKS,
        nosniff=True,
    )
    # Sanitizing sink on the query channel.
    add(
        "encslash-query-quirks-sanitized",
        routing=Routing.ENCODED_SLASH_DECODE,
        sinks=frozenset({Sink.ECHO_QUERY_VALUES}),
        seed_query="k1=v1",
        stylesheet_refs=["style.css"],
        doctype=DOCTYPE_QUIRKS,
        error_page_echoes_url=False,
        sink_filter=SinkFilter.SANITIZE,
    )
    # Different script extension on the decode-then-route flavor.
    add(
        "encslash-aspx-quirks-plain",
        routing=Routing.ENCODED_SLASH_DECODE,
        page_path="/dir/page.aspx",
        stylesheet_refs=["style.css"],
        doctype=DOCTYPE_QUIRKS,
        error_page_has_refs=False,
    )
    # Deep directory with a reference climbing two levels.
    add(
        "pathinfo-url-quirks-deep",
        routing=Routing.PATH_INFO_REWRITE,
        page_path="/a/b/c/page.php",
        stylesheet_refs=["../../deep.css"],
        doctype=DOCTYPE_QUIRKS,
    )

    return [(config, compute_ground_truth(config, profiles)) for config in configs]


def newline_configs(profiles: tuple[BrowserProfile, ...]) -> list[tuple[TargetConfig, GroundTruth]]:
    """Labeled configs whose server refuses newline bytes or cuts its echoes
    at LF, crossed with a few shapes of the matrix.  They are kept out of
    ``fixture_matrix`` so that the matrix, and every run built on it, keeps
    its inputs.

    ``CUT_AT_LF`` leaves the answer key as it is, because an FF or CR probe
    still reflects whole.  The scanner sends those only after a refused LF,
    so it misses these targets where the label says vulnerable; the tests
    count the misses."""
    shapes = {
        "pathinfo-url-quirks": dict(routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS),
        "pathinfo-url-standards": dict(
            routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_STANDARDS
        ),
        "pathinfo-url-quirks-basetag": dict(
            routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS, emit_base_tag=True
        ),
        "exactfile-url-quirks": dict(routing=Routing.EXACT_FILE, doctype=DOCTYPE_QUIRKS),
        "encslash-query-quirks": dict(
            routing=Routing.ENCODED_SLASH_DECODE,
            sinks=frozenset({Sink.ECHO_QUERY_VALUES}),
            seed_query="k1=v1",
            stylesheet_refs=["style.css"],
            doctype=DOCTYPE_QUIRKS,
            error_page_echoes_url=False,
        ),
        "pathinfo-cookie-quirks": dict(
            routing=Routing.PATH_INFO_REWRITE,
            sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
            seed_cookies={"sid": "abc123"},
            doctype=DOCTYPE_QUIRKS,
        ),
    }
    configs = [
        TargetConfig(
            name=f"{handling.value.replace('_', '-')}-{shape}",
            newline_handling=handling,
            **overrides,
        )
        for handling in NewlineHandling
        if handling is not NewlineHandling.PASS
        for shape, overrides in shapes.items()
    ]
    return [(config, compute_ground_truth(config, profiles)) for config in configs]
