"""HTTP client contract plus the wrappers the pipeline composes.

The scanner only ever needs ``fetch(request) -> response`` for GET requests;
everything else (recording, per-host pacing, the real network) stacks around
that one method so tests can substitute deterministic clients.

A request is what the scanner sends: the ``WebUrl`` it built, an optional
Referer and cookies. The real network client, ``RequestsClient``, is a small
GET client with its own HTTP/1.1 reader on raw sockets and a thread-safe
keep-alive pool; rposcan has no runtime dependency. It writes the request
head from the request's ``WebUrl`` and reads no URL string; it checks only
the bytes it writes, so a head it could not send fails before any connect. It
asks for ``Accept-Encoding: identity`` and reads the body as sent: a body in
any other content coding, in a transfer coding other than chunked, or longer
than ``MAX_BODY_BYTES``, fails the fetch, and ``timeout`` bounds the whole
fetch. Every fetch depends only on its ``HttpRequest``: no cookie jar, no
``.netrc``, no proxy, no retry, and a redirect comes back as it was answered.
``socket`` and ``select`` are imported by the first connection and ``ssl`` by
the first https one, so a run that opens no connection loads none of them and
an http-only run never loads ``ssl``.

``HttpRequest`` and ``HttpResponse`` are named tuples: every exchange builds
both, and a tuple costs a fraction of a frozen dataclass to build.  A request
without cookies shares one read-only empty mapping.
"""

from __future__ import annotations

import re
import threading
import time
import weakref
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .urls import DEFAULT_PORT, WebUrl, host_key, serialize_url

if TYPE_CHECKING:
    import socket


class NetworkError(Exception):
    """A fetch that did not produce an HTTP response."""


_EMPTY: Mapping[str, str] = MappingProxyType({})


class HttpRequest(NamedTuple):
    web_url: WebUrl
    method: str = "GET"
    referer: str | None = None
    cookies: Mapping[str, str] = _EMPTY

    @property
    def url(self) -> str:
        return serialize_url(self.web_url)


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
        host = host_key(request.web_url)
        with self._lock_for(host):
            now = time.monotonic()
            slot = max(now, self._next_slot.get(host, now))
            while now < slot:  # sleep can return early on some kernels
                time.sleep(slot - now)
                now = time.monotonic()
            self._next_slot[host] = now + self._delay
            return self._inner.fetch(request)


USER_AGENT = "rposcan/0.1"
# a body longer than this fails the fetch
MAX_BODY_BYTES = 16 << 20
# idle kept-alive connections are kept for at most this many origins, one
# each: room for the default four workers, each on one host at a time, while
# a scan over thousands of hosts holds no more than this many idle sockets open
MAX_IDLE_ORIGINS = 10

# http.client's limits on a response head: bytes per line, CRLF included, and
# lines after the status line, the blank line that ends the head included
_MAX_LINE = 65536
_MAX_LINES = 100
# every request's headers after Host, in http.client's default order
_DEFAULT_FIELDS = (
    f"Accept-Encoding: identity\r\nUser-Agent: {USER_AGENT}\r\n"
    "Accept: */*\r\nConnection: keep-alive\r\n"
)
_STATUS_LINE = re.compile(r"HTTP/1\.(\d) ([1-9]\d\d)(?: |$)").match
# a byte that the request line or Host must not hold: a space, a control
# character or anything outside ASCII
_UNSENDABLE = re.compile(r"[^\x21-\x7e]").search


def _dropped(sock) -> bool:
    """An idle kept-alive socket that polls readable was closed by its peer,
    or holds bytes no request asked for, so it must not carry a request.
    ``poll`` takes any descriptor number, where ``select`` stops at 1024."""
    import select  # loaded with ``socket`` by the first connection

    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(idle: dict) -> None:
    for conn in idle.values():
        conn.close()


def _too_large() -> NetworkError:
    return NetworkError(f"body longer than MAX_BODY_BYTES ({MAX_BODY_BYTES} bytes)")


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


def _field(name: str, value: str) -> str:
    if "\r" in value or "\n" in value:
        raise NetworkError(f"cannot send {name} {value!r}: it holds CR or LF")
    return f"{name}: {value}\r\n"


def _request_head(request: HttpRequest) -> bytes:
    """The request line, ``Host`` (``urls.host_key``), the default headers,
    then ``Referer`` and one ``Cookie`` header when the request has them. A
    host or target with a space, a control character or a non-ASCII
    character, or a Referer or cookie with CR or LF or outside Latin-1,
    raises ``NetworkError``."""
    host, target = host_key(request.web_url), request.web_url.target
    if _UNSENDABLE(host) or _UNSENDABLE(target):
        raise NetworkError(f"cannot send {host!r} {target!r}: a space, control or non-ASCII character")
    head = f"GET {target} HTTP/1.1\r\nHost: {host}\r\n{_DEFAULT_FIELDS}"
    if request.referer:
        head += _field("Referer", request.referer)
    if request.cookies:
        head += _field("Cookie", "; ".join(f"{n}={v}" for n, v in request.cookies.items()))
    try:
        return (head + "\r\n").encode("latin-1")
    except UnicodeEncodeError as exc:
        raise NetworkError(f"a header value that is not Latin-1: {exc}") from None


class _Wire:
    """The bytes of one response as they arrive on ``sock`` before
    ``deadline``, in one buffer that the reader consumes from ``pos``."""

    __slots__ = ("sock", "deadline", "buf", "pos")

    def __init__(self, sock, deadline: float) -> None:
        self.sock, self.deadline, self.buf, self.pos = sock, deadline, bytearray(), 0

    def fill(self) -> bool:
        """Adds what arrives next; False once the peer has closed."""
        self.sock.settimeout(_time_left(self.deadline))
        data = self.sock.recv(65536)
        del self.buf[: self.pos]
        self.pos = 0
        self.buf += data
        return bool(data)

    def until(self, mark: bytes, limit: int) -> bytes:
        """The bytes before the next ``mark``, which is consumed too; more
        than ``limit`` of them raise ``NetworkError``."""
        end = self.buf.find(mark, self.pos)
        while end < 0:
            seen = len(self.buf) - self.pos
            if seen > limit:
                raise NetworkError(f"a response line or head longer than {limit} bytes")
            if not self.fill():
                raise NetworkError("connection closed before the response was whole")
            end = self.buf.find(mark, max(seen - len(mark) + 1, 0))
        data = bytes(self.buf[self.pos : end])
        self.pos = end + len(mark)
        return data

    def take(self, size: int) -> bytes:
        while len(self.buf) - self.pos < size:
            if not self.fill():
                raise NetworkError("connection closed before the body was whole")
        data = self.copy(self.pos, self.pos + size)
        self.pos += size
        return data

    def copy(self, start: int, end: int) -> bytes:
        """``buf[start:end]`` as bytes in one copy, where a bytearray slice
        would copy it twice; the view is released before ``fill`` resizes
        the buffer."""
        with memoryview(self.buf) as view:
            return bytes(view[start:end])


def _read_head(wire: _Wire) -> tuple[int, bool, dict[str, str], dict[str, str]]:
    """Status, whether HTTP/1.1 or later, the headers as a dict (a repeated
    one merged under its first-seen name, values joined with ``", "``) and a
    map from each lower-cased name to that name, after any interim 1xx."""
    while True:
        lines = wire.until(b"\r\n\r\n", _MAX_LINE * _MAX_LINES).decode("latin-1").split("\r\n")
        status = _STATUS_LINE(lines[0])
        if status is None:
            raise NetworkError(f"bad status line {lines[0][:80]!r}")
        if len(lines) > _MAX_LINES:
            raise NetworkError(f"a response head with more than {_MAX_LINES - 1} headers")
        if max(map(len, lines)) > _MAX_LINE - 2:
            raise NetworkError(f"a response line longer than {_MAX_LINE} bytes")
        if status[2][0] != "1":
            break
    headers: dict[str, str] = {}
    names: dict[str, str] = {}
    name = None
    for line in lines[1:]:
        if line[0] in " \t":  # obs-fold: kept with its line break, as http.client's parser did
            if name is not None:
                headers[name] += "\r\n" + line
            continue
        name, colon, value = line.partition(":")
        if not colon:
            name = None
            continue
        name = names.setdefault(name.lower(), name)
        value = value.lstrip(" \t")
        headers[name] = headers[name] + ", " + value if name in headers else value
    return int(status[2]), status[1] != "0", headers, names


def _read_response(sock, deadline: float) -> tuple[HttpResponse, bool]:
    """One response from ``sock`` and whether the connection may carry
    another request: the body was framed, by chunks or by length but not
    both, nothing followed it, and the server did not ask to close. A body
    in a content coding other than identity, or in a transfer coding other
    than chunked alone, raises ``NetworkError`` before it is read."""
    wire = _Wire(sock, deadline)
    status, http11, headers, names = _read_head(wire)
    field = lambda name: headers.get(names.get(name))  # noqa: E731
    connection = (field("connection") or "").lower()
    reusable = "close" not in connection if http11 else "keep-alive" in connection
    content_coding = (field("content-encoding") or "").strip()
    coding, length = field("transfer-encoding"), field("content-length")
    if status in (204, 304):
        body = b""
    elif content_coding.lower() not in ("", "identity"):
        raise NetworkError(f"a body in content coding {content_coding!r}, where identity was asked for")
    elif coding is not None and coding.strip().lower() != "chunked":
        raise NetworkError(f"a body in transfer coding {coding.strip()!r}, where only chunked is read")
    elif coding is not None:
        chunks, size = [], 0
        while True:
            line = wire.until(b"\r\n", _MAX_LINE)
            try:
                chunk = int(line.partition(b";")[0], 16)
                if chunk < 0:
                    raise ValueError
            except ValueError:
                raise NetworkError(f"bad chunk size {line[:80]!r}") from None
            if chunk == 0:
                break
            size += chunk
            if size > MAX_BODY_BYTES:
                raise _too_large()
            chunks.append(wire.take(chunk))
            wire.take(2)  # the CRLF after the data, unchecked as http.client left it
        while wire.until(b"\r\n", _MAX_LINE):  # trailers, dropped
            pass
        body = b"".join(chunks)
        # a Content-Length beside it may mean response splitting (RFC 9112
        # 6.3): the body is read as chunked, but the connection is not reused
        reusable = reusable and length is None
    elif coding is None and length is not None:
        sizes = {value.strip() for value in length.split(",")}
        size = sizes.pop()
        if sizes or not size.isdecimal():
            raise NetworkError(f"bad Content-Length {length!r}")
        if int(size) > MAX_BODY_BYTES:
            raise _too_large()
        body = wire.take(int(size))
    else:  # the body runs to the connection's close
        while wire.fill():
            if len(wire.buf) - wire.pos > MAX_BODY_BYTES:
                raise _too_large()
        body, reusable = wire.copy(wire.pos, len(wire.buf)), False
    return HttpResponse(status, headers, body), reusable and wire.pos == len(wire.buf)


class RequestsClient:
    """Real network client: GET only, one exchange per fetch, with its own
    HTTP/1.1 reader on raw sockets and a keep-alive pool shared by every
    thread that uses it.

    The head is written from the request's ``WebUrl``, read no further: the
    request line with its path and query as written (never the fragment),
    ``Host`` (``urls.host_key``: the port only when not the scheme's
    default), ``Accept-Encoding: identity``, ``User-Agent: USER_AGENT``,
    ``Accept: */*`` and ``Connection: keep-alive``, then ``Referer`` when the
    request has one, then the cookies as one ``Cookie: n1=v1; n2=v2`` header
    in dict order, unquoted. Only the bytes written are checked: a host or
    target with a space, a control character or a non-ASCII character, or a
    Referer or cookie with CR or LF or outside Latin-1, raises
    ``NetworkError`` before any connect.

    The response is read as HTTP/1.1 with ``http.client``'s limits (65536
    bytes per line, 99 headers): interim 1xx responses are skipped, a
    repeated header is one entry under its first-seen name with its values
    joined by ``", "``, and the body is chunked, ``Content-Length``-framed,
    empty (204, 304) or read to the connection's close; a length-framed or
    read-to-close body is copied once out of the receive buffer. The body
    comes back as sent: a ``Content-Encoding`` other than identity or a
    ``Transfer-Encoding`` other than chunked alone raises ``NetworkError``
    before the body is read, and so does a body longer than
    ``MAX_BODY_BYTES``. ``timeout`` is a total deadline for the fetch: every
    connect, TLS handshake, send and read gets only the time left. Name
    resolution is not bounded by it.

    There is no cookie jar and no proxy, so every fetch depends only on
    its ``HttpRequest``. A 3xx is returned like any other response, its
    ``Location`` unfollowed. Nothing is retried: a failed connect, send or read raises
    ``NetworkError`` at once, with this client's own text or the ``OSError``
    text, so no request leaves outside the spacing ``RateLimitedClient``
    gives it.

    A connection leaves the pool while a request uses it, and goes back only
    when its response was framed, nothing followed it, and the server did not
    ask to close it (HTTP/1.0 must ask to keep it). A chunked response that
    also carries ``Content-Length`` is read as chunked and never pooled. The
    pool keeps one idle connection per (scheme, host, port) for at most
    ``MAX_IDLE_ORIGINS`` of them, closing the least recently used. An idle connection its peer
    closed is replaced before the send (``select.poll``, so a POSIX system).
    Each fetch connects straight to the host and port its URL names:
    ``http_proxy`` and the other proxy variables are ignored, and there are
    no CONNECT tunnels. TLS is verified against the system trust store, with
    ALPN ``http/1.1``, and ``ssl`` loads with the first https connection;
    ``.netrc`` is never read.

    The name dates from the ``requests``-based client it replaced.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: dict[tuple, socket.socket] = {}  # least recently used first
        # a client that is dropped closes its idle sockets rather than leave
        # them to the collector
        weakref.finalize(self, _close_all, self._idle)
        self._tls = None  # an ssl.SSLContext, built for the first https connection

    def _connect(self, endpoint: tuple[str, str, int], deadline: float) -> socket.socket:
        import socket  # here, so a run that opens no connection never loads it

        scheme, host, port = endpoint
        sock = socket.create_connection((host, port), timeout=_time_left(deadline))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "http":
                return sock
            if self._tls is None:  # threads that race here build equal contexts
                import ssl  # here, so an http-only run never loads it

                context = ssl.create_default_context()
                context.set_alpn_protocols(["http/1.1"])
                self._tls = context
            sock.settimeout(_time_left(deadline))  # the handshake's reads share it
            return self._tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise

    def _release(self, endpoint: tuple, sock: socket.socket) -> None:
        with self._lock:
            stale = [self._idle.pop(endpoint, None)]  # another thread's, put back meanwhile
            self._idle[endpoint] = sock
            if len(self._idle) > MAX_IDLE_ORIGINS:
                stale.append(self._idle.pop(next(iter(self._idle))))
        for old in stale:
            if old is not None:
                old.close()

    def _exchange(self, endpoint: tuple[str, str, int], head: bytes, deadline: float) -> HttpResponse:
        """One GET on a pooled or new connection."""
        with self._lock:
            sock = self._idle.pop(endpoint, None)
        if sock is not None and _dropped(sock):
            sock.close()
            sock = None
        reusable = False
        try:
            if sock is None:
                sock = self._connect(endpoint, deadline)
            sock.settimeout(_time_left(deadline))
            sock.sendall(head)
            response, reusable = _read_response(sock, deadline)
        except TimeoutError as exc:
            raise NetworkError(f"fetch not done within its {self._timeout} s timeout") from exc
        except (OSError, ValueError) as exc:
            raise NetworkError(str(exc) or type(exc).__name__) from exc
        finally:
            if not reusable and sock is not None:
                sock.close()
        if reusable:
            self._release(endpoint, sock)
        return response

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            raise NetworkError(f"only GET is supported, not {request.method}")
        url = request.web_url
        endpoint = (url.scheme, url.host, url.port or DEFAULT_PORT[url.scheme])
        return self._exchange(endpoint, _request_head(request), time.monotonic() + self._timeout)
