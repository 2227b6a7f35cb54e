"""HTTP client contract plus the wrappers the pipeline composes.

The scanner only ever needs ``fetch(request) -> response`` for GET requests;
everything else (recording, per-host pacing, the real network) stacks around
that one method so tests can substitute deterministic clients.

The real network client, ``RequestsClient``, is a small GET client on the
standard library's ``http.client`` with a thread-safe keep-alive pool; rposcan
has no runtime dependency. It sends each request target exactly as the
scanner wrote it, fragment dropped. Every fetch depends only on its
``HttpRequest``: there is no cookie jar and no ``.netrc``, and nothing is
retried. Redirects are followed inside the client, up to a bound, so those
hops skip per-host pacing. Every fetch connects straight to the host and port
its URL names: ``http_proxy`` and the other proxy variables are ignored, and
nothing is tunnelled. TLS uses the system trust store.

``HttpRequest`` and ``HttpResponse`` are named tuples: every exchange builds
both, and a tuple costs a fraction of a frozen dataclass to build.  A request
that names no headers or cookies shares one read-only empty mapping.
"""

from __future__ import annotations

import http.client
import select
import ssl
import threading
import time
import weakref
import zlib
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple
from urllib.parse import quote, urljoin


class NetworkError(Exception):
    """A fetch that did not produce an HTTP response."""


_EMPTY: Mapping[str, str] = MappingProxyType({})


class HttpRequest(NamedTuple):
    url: str
    method: str = "GET"
    headers: Mapping[str, str] = _EMPTY
    cookies: Mapping[str, str] = _EMPTY


class HttpResponse(NamedTuple):
    status: int
    headers: dict[str, str]
    body: bytes

    def header(self, name: str) -> str | None:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None


class HttpExchange(NamedTuple):
    request: HttpRequest
    status: int | None  # None for a fetch that failed
    timestamp: float  # monotonic clock at send time


class RecordingClient:
    """Wraps a client and keeps an append-only log of each exchange's
    request, status and send time; no body is kept."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.exchanges: list[HttpExchange] = []

    def fetch(self, request: HttpRequest) -> HttpResponse:
        stamp = time.monotonic()
        try:
            response = self._inner.fetch(request)
        except NetworkError:
            with self._lock:
                self.exchanges.append(HttpExchange(request, None, stamp))
            raise
        with self._lock:
            self.exchanges.append(HttpExchange(request, response.status, stamp))
        return response


class RateLimitedClient:
    """Serializes requests per host with a minimum spacing between releases.

    A host's next slot is booked when the limiter releases a request to the
    inner client, after any oversleep, so a late release never shortens the
    gap that follows it. A pause between that release and the inner client's
    write (a garbage collection, a descheduled thread) does shorten the next
    gap on the wire; ROADMAP.md keeps this as an open question.
    """

    def __init__(self, inner, per_host_delay: float) -> None:
        self._inner = inner
        self._delay = per_host_delay
        self._guard = threading.Lock()
        self._host_locks: dict[str, threading.Lock] = {}
        self._next_slot: dict[str, float] = {}

    def _lock_for(self, host: str) -> threading.Lock:
        with self._guard:
            if host not in self._host_locks:
                self._host_locks[host] = threading.Lock()
            return self._host_locks[host]

    def fetch(self, request: HttpRequest) -> HttpResponse:
        host = host_key(request.url)
        with self._lock_for(host):
            now = time.monotonic()
            slot = max(now, self._next_slot.get(host, now))
            while now < slot:  # sleep can return early on some kernels
                time.sleep(slot - now)
                now = time.monotonic()
            self._next_slot[host] = now + self._delay
            return self._inner.fetch(request)


USER_AGENT = "rposcan/0.1"
MAX_REDIRECTS = 5
# idle kept-alive connections are kept for at most this many origins, one
# each, as urllib3's PoolManager(num_pools=10) with maxsize=1 did
MAX_IDLE_ORIGINS = 10

_REDIRECT_STATUSES = frozenset((301, 302, 303, 307, 308))
# dropped on a redirect to another (scheme, host, port), as urllib3 did
_CREDENTIAL_HEADERS = frozenset(("cookie", "authorization", "proxy-authorization"))
# what a Location may hold raw; anything else (a space, non-ASCII) is
# percent-encoded as UTF-8, as urllib3 and browsers do, so that the hop can go out
_LOCATION_SAFE = "!#$%&'()*+,/:;=?@[]~"


def split_url(url: str) -> tuple[str, str, str]:
    """(scheme, authority, target) of an absolute http(s) URL: the scheme and
    ``host[:port]`` lower-cased with any userinfo dropped, and the path and
    query as written, without the fragment (``/`` when the path is empty)."""
    scheme, sep, rest = url.partition("://")
    scheme = scheme.lower()
    if not sep or scheme not in ("http", "https"):
        raise NetworkError(f"not an absolute http(s) URL: {url!r}")
    cut = len(rest)
    for mark in "/?#":
        found = rest.find(mark, 0, cut)
        if found != -1:
            cut = found
    target = rest[cut:].partition("#")[0]
    if not target.startswith("/"):
        target = "/" + target
    return scheme, rest[:cut].rpartition("@")[2].lower(), target


def host_key(url: str) -> str:
    """The ``host[:port]`` a fetch of ``url`` connects to: the unit of
    politeness, so a request is paced by the host it reaches."""
    return split_url(url)[1]


def _endpoint(scheme: str, authority: str) -> tuple[str, str, int]:
    """(scheme, host, port) of ``host[:port]``: an IPv6 host loses its
    brackets, and a missing port is the scheme's default."""
    host, colon, port = authority.rpartition(":")
    if not colon or "]" in port:
        host, port = authority, ""
    host = host.strip("[]")
    if not host or (port and not port.isdigit()):
        raise NetworkError(f"bad host or port: {authority!r}")
    return scheme, host, int(port) if port else (443 if scheme == "https" else 80)


def _dropped(sock) -> bool:
    """An idle kept-alive socket that polls readable was closed by its peer,
    or holds bytes no request asked for, so it must not carry a request.
    ``poll`` takes any descriptor number, where ``select`` stops at 1024."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(idle: dict) -> None:
    for conn in idle.values():
        conn.close()


def _gunzip(data: bytes) -> bytes:
    """Every gzip member in ``data``. A truncated member gives what it holds,
    and bytes after a whole member that do not decode are ignored."""
    out, first = [], True
    while data:
        member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        try:
            out.append(member.decompress(data))
        except zlib.error:
            if first:
                raise
            break
        if not member.eof:
            break
        data, first = member.unused_data, False
    return b"".join(out)


def _decode(body: bytes, encodings: str) -> bytes:
    """Undo a ``Content-Encoding`` list from its last coding back: gzip (or
    x-gzip) and deflate, zlib-wrapped or raw. An unknown coding stops the
    decoding; a body that does not decompress raises ``zlib.error``."""
    for coding in reversed(encodings.lower().split(",")):
        coding = coding.strip()
        if coding in ("gzip", "x-gzip"):
            body = _gunzip(body)
        elif coding == "deflate":
            try:
                body = zlib.decompressobj().decompress(body)
            except zlib.error:
                body = zlib.decompressobj(-zlib.MAX_WBITS).decompress(body)
        elif coding:
            break
    return body


class RequestsClient:
    """Real network client: GET only, on ``http.client``, with bounded
    redirects and a keep-alive pool shared by every thread that uses it.

    Each request carries ``Host``, ``User-Agent: USER_AGENT``,
    ``Accept-Encoding: gzip, deflate``, ``Accept: */*`` and ``Connection:
    keep-alive``, then the request's own headers (one of the same name, in
    any case, replaces a default or ``Host`` in place), then the request's
    cookies as one ``Cookie: n1=v1; n2=v2`` header in dict order, unquoted,
    unless the request sets ``Cookie`` itself. The request target is the
    URL's path and query as written, escapes and a lone ``%`` included; the
    fragment never leaves. gzip and deflate bodies come back decoded, and a
    repeated response header is one entry, its values joined with ``", "``.

    There is no cookie jar and no proxy, so every fetch depends only on
    its ``HttpRequest``. Up to ``MAX_REDIRECTS`` redirects are followed in the
    client, and a redirect's own body is dropped undecoded; a hop to another
    (scheme, host, port) drops ``Cookie``, ``Authorization`` and
    ``Proxy-Authorization``, and one redirect more raises ``NetworkError``.
    Nothing is retried: a failed connect, send or read raises
    ``NetworkError`` at once, with the ``http.client`` or ``OSError`` text,
    so no request leaves outside the spacing ``RateLimitedClient`` gives it.
    ``timeout`` bounds the connect and each socket read.

    A connection leaves the pool while a request uses it, and goes back once
    its response is read whole, unless the server closes it. The pool keeps
    one idle connection per (scheme, host, port) for at most
    ``MAX_IDLE_ORIGINS`` of them, closing the least recently used. An idle
    connection its peer closed is replaced before the send (``select.poll``,
    so a POSIX system). Each fetch connects straight to the host and port
    its URL names: ``http_proxy`` and the other proxy variables are ignored,
    and there are no CONNECT tunnels. TLS is verified against the system
    trust store; ``.netrc`` is never read.

    The name dates from the ``requests``-based client it replaced.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self._timeout = timeout
        # lower-cased name -> (name, value), so a request header replaces a
        # default whatever its case
        self._defaults = {
            name.lower(): (name, value)
            for name, value in (
                ("User-Agent", USER_AGENT),
                ("Accept-Encoding", "gzip, deflate"),
                ("Accept", "*/*"),
                ("Connection", "keep-alive"),
            )
        }
        self._lock = threading.Lock()
        self._idle: dict[tuple, http.client.HTTPConnection] = {}  # least recently used first
        # a client that is dropped closes its idle sockets rather than leave
        # them to the collector
        weakref.finalize(self, _close_all, self._idle)
        self._tls: ssl.SSLContext | None = None  # built for the first https connection

    def _connect(self, endpoint: tuple[str, str, int]):
        scheme, host, port = endpoint
        if scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=self._timeout)
        if self._tls is None:  # threads that race here build equal contexts
            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])
            self._tls = context
        return http.client.HTTPSConnection(host, port, timeout=self._timeout, context=self._tls)

    def _release(self, endpoint: tuple, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            stale = [self._idle.pop(endpoint, None)]  # another thread's, put back meanwhile
            self._idle[endpoint] = conn
            if len(self._idle) > MAX_IDLE_ORIGINS:
                stale.append(self._idle.pop(next(iter(self._idle))))
        for old in stale:
            if old is not None:
                old.close()

    def _exchange(self, url: str, headers: dict[str, tuple[str, str]]) -> HttpResponse:
        """One GET on a pooled or new connection; the body is not decoded."""
        scheme, authority, target = split_url(url)
        endpoint = _endpoint(scheme, authority)
        with self._lock:
            conn = self._idle.pop(endpoint, None)
        if conn is not None and _dropped(conn.sock):
            conn.close()
            conn = None
        if conn is None:
            conn = self._connect(endpoint)
        try:
            conn.putrequest("GET", target, skip_host="host" in headers, skip_accept_encoding=True)
            for name, value in headers.values():
                conn.putheader(name, value)
            conn.endheaders()
            response = conn.getresponse()
            body = response.read()
        except (http.client.HTTPException, OSError, ValueError) as exc:
            conn.close()
            raise NetworkError(str(exc) or type(exc).__name__) from exc
        if conn.sock is not None:  # the server keeps it open
            self._release(endpoint, conn)
        merged: dict[str, str] = {}
        first_names: dict[str, str] = {}
        for name, value in response.getheaders():
            name = first_names.setdefault(name.lower(), name)
            merged[name] = merged[name] + ", " + value if name in merged else value
        return HttpResponse(response.status, merged, body)

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            raise NetworkError(f"only GET is supported, not {request.method}")
        headers = dict(self._defaults)
        for name, value in request.headers.items():
            headers[name.lower()] = (name, value)
        if request.cookies and "cookie" not in headers:
            headers["cookie"] = ("Cookie", "; ".join(f"{n}={v}" for n, v in request.cookies.items()))
        url = request.url
        for _ in range(MAX_REDIRECTS + 1):
            response = self._exchange(url, headers)
            location = response.status in _REDIRECT_STATUSES and response.header("Location")
            if not location:
                encodings = response.header("Content-Encoding")
                if not encodings:
                    return response
                try:
                    return response._replace(body=_decode(response.body, encodings))
                except zlib.error as exc:
                    raise NetworkError(f"cannot decode {encodings} body: {exc}") from exc
            next_url = urljoin(url, quote(location, safe=_LOCATION_SAFE))
            if _endpoint(*split_url(next_url)[:2]) != _endpoint(*split_url(url)[:2]):
                headers = {k: v for k, v in headers.items() if k not in _CREDENTIAL_HEADERS}
            url = next_url
        raise NetworkError(f"more than {MAX_REDIRECTS} redirects from {request.url}")
