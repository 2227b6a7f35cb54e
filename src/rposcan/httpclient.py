"""HTTP client contract plus the wrappers the pipeline composes.

The scanner only ever needs ``fetch(request) -> response`` for GET requests;
everything else (recording, per-host pacing, the real network) stacks around
that one method so tests can substitute deterministic clients.

The real network client, ``RequestsClient``, is a small GET client on urllib3.
Every fetch depends only on its ``HttpRequest``: there is no cookie jar and no
``.netrc``, and nothing is retried. Redirects are followed inside urllib3, up
to a bound, so those hops skip per-host pacing. Proxy settings come from the
environment, read once per client; TLS uses the system trust store.

``HttpRequest`` and ``HttpResponse`` are named tuples: every exchange builds
both, and a tuple costs a fraction of a frozen dataclass to build.  They are
immutable in the same way (a field cannot be reassigned, while the header and
cookie dicts they hold can still be changed by whoever holds them), compare
equal to a plain tuple of their fields, and give each request that names no
headers or cookies a dict of its own.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple


class NetworkError(Exception):
    """A fetch that did not produce an HTTP response."""


class _HttpRequestFields(NamedTuple):
    url: str
    method: str
    headers: dict[str, str]
    cookies: dict[str, str]


class HttpRequest(_HttpRequestFields):
    """One request: ``method`` defaults to GET, and ``headers`` and ``cookies``
    to a new empty dict each."""

    __slots__ = ()

    def __new__(cls, url: str, method: str = "GET", headers: dict[str, str] | None = None,
                cookies: dict[str, str] | None = None) -> HttpRequest:
        return tuple.__new__(cls, (
            url, method, {} if headers is None else headers, {} if cookies is None else cookies
        ))


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


@dataclass(frozen=True)
class HttpExchange:
    request: HttpRequest
    response: HttpResponse | None  # None for a fetch that failed
    timestamp: float = 0.0  # monotonic clock at send time


def host_key(url: str) -> str:
    """host[:port] portion of an absolute URL, the unit of politeness."""
    rest = url.split("://", 1)[1] if "://" in url else url
    authority = rest.split("/", 1)[0].split("?", 1)[0]
    return authority.lower()


class RecordingClient:
    """Wraps a client and keeps an append-only exchange log."""

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
                self.exchanges.append(HttpExchange(request=request, response=None, timestamp=stamp))
            raise
        with self._lock:
            self.exchanges.append(
                HttpExchange(request=request, response=response, timestamp=stamp)
            )
        return response


class RateLimitedClient:
    """Serializes requests per host with a minimum spacing between sends.

    The spacing is measured between actual send times: the next slot for a
    host is booked from the moment its previous request left, after any
    oversleep, so a late send never shortens the gap that follows it.
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


class RequestsClient:
    """Real network client: GET only, on urllib3, with bounded redirects.

    Each request carries ``User-Agent: USER_AGENT``, ``Accept-Encoding: gzip,
    deflate``, ``Accept: */*`` and ``Connection: keep-alive``, then the
    request's own headers (a header of the same name, in any case, replaces a
    default in place), then the request's cookies as one ``Cookie: n1=v1;
    n2=v2`` header in dict order, unquoted, unless the request sets ``Cookie``
    itself. gzip and deflate bodies come back decoded.

    There is no cookie jar: a ``Set-Cookie`` is never replayed, so every
    fetch depends only on its ``HttpRequest``. urllib3 follows up to
    ``MAX_REDIRECTS`` redirects, a module constant rather than an option, and
    drops ``Cookie`` on a cross-host hop; one more raises ``NetworkError``.
    Nothing is retried: a failed connect or read raises ``NetworkError`` at
    once, so no request leaves outside the spacing ``RateLimitedClient``
    gives it. Proxy settings are read from the environment once, when the
    client is built; a proxy given as ``host:port`` is an http proxy, and a
    proxy that cannot be used makes each fetch through it raise
    ``NetworkError``. TLS is verified against the system trust store.
    ``.netrc`` credentials are never sent.

    The name dates from the ``requests``-based client it replaced.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        # urllib3 is imported here, not at module level, so that importing
        # rposcan for in-process scans does not pay for it.
        import urllib3
        from urllib.parse import unquote
        from urllib.request import getproxies

        self._errors = (urllib3.exceptions.HTTPError, ValueError)
        self._retries = urllib3.Retry(
            total=None, connect=0, read=0, status=0, other=0, redirect=MAX_REDIRECTS
        )
        self._timeout = urllib3.Timeout(connect=timeout, read=timeout)
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
        self._direct = urllib3.PoolManager()
        self._proxy_env = getproxies()
        # scheme ("http", "https" or "all") -> manager, or the reason it is unusable
        self._proxies: dict[str, object] = {}
        for scheme in ("http", "https", "all"):
            proxy_url = self._proxy_env.get(scheme)
            if not proxy_url:
                continue
            if "://" not in proxy_url:  # "host:port" means an http proxy
                proxy_url = "http://" + proxy_url
            try:
                auth = urllib3.util.parse_url(proxy_url).auth
                headers = urllib3.make_headers(proxy_basic_auth=unquote(auth)) if auth else None
                self._proxies[scheme] = urllib3.ProxyManager(proxy_url, proxy_headers=headers)
            except urllib3.exceptions.HTTPError as exc:  # a malformed URL or unsupported scheme
                self._proxies[scheme] = f"proxy {proxy_url}: {exc}"

    def _manager_for(self, url: str):
        if not self._proxies:
            return self._direct
        scheme = url.partition("://")[0].lower()
        proxy = self._proxies.get(scheme) or self._proxies.get("all")
        if proxy is None:
            return self._direct
        from urllib.request import proxy_bypass_environment

        if proxy_bypass_environment(host_key(url).rpartition("@")[2], self._proxy_env):
            return self._direct
        if isinstance(proxy, str):
            raise NetworkError(proxy)
        return proxy

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            raise NetworkError(f"only GET is supported, not {request.method}")
        merged = dict(self._defaults)
        for name, value in request.headers.items():
            merged[name.lower()] = (name, value)
        headers = dict(merged.values())
        if request.cookies and "cookie" not in merged:
            headers["Cookie"] = "; ".join(f"{n}={v}" for n, v in request.cookies.items())
        try:
            resp = self._manager_for(request.url).urlopen(
                "GET", request.url, headers=headers, retries=self._retries, timeout=self._timeout
            )
        except self._errors as exc:
            raise NetworkError(str(exc)) from exc
        return HttpResponse(status=resp.status, headers=dict(resp.headers), body=resp.data)
