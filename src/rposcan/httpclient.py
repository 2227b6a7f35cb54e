"""HTTP client contract plus the wrappers the pipeline composes.

The scanner only ever needs ``fetch(request) -> response`` for GET requests;
everything else (recording, per-host pacing, the real network) stacks around
that one method so tests can substitute deterministic clients.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


class NetworkError(Exception):
    """A fetch that did not produce an HTTP response."""


@dataclass(frozen=True)
class HttpRequest:
    url: str
    method: str = "GET"
    headers: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class HttpResponse:
    status: int
    headers: dict[str, str]
    body: bytes
    final_url: str

    def header(self, name: str) -> str | None:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None


@dataclass(frozen=True)
class HttpExchange:
    request: HttpRequest
    response: HttpResponse | None
    error: str | None = None
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
        except NetworkError as exc:
            with self._lock:
                self.exchanges.append(
                    HttpExchange(request=request, response=None, error=str(exc), timestamp=stamp)
                )
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


class RequestsClient:
    """Real network client (GET only) with bounded redirects."""

    def __init__(self, timeout: float = 10.0, user_agent: str = "rposcan/0.1", max_redirects: int = 5) -> None:
        import requests

        self._session = requests.Session()
        self._session.max_redirects = max_redirects
        self._timeout = timeout
        self._user_agent = user_agent

    def fetch(self, request: HttpRequest) -> HttpResponse:
        import requests

        if request.method != "GET":
            raise NetworkError(f"only GET is supported, not {request.method}")
        headers = {"User-Agent": self._user_agent, **request.headers}
        try:
            resp = self._session.get(
                request.url,
                headers=headers,
                cookies=request.cookies,
                timeout=self._timeout,
                allow_redirects=True,
            )
        except requests.RequestException as exc:
            raise NetworkError(str(exc)) from exc
        return HttpResponse(
            status=resp.status_code,
            headers=dict(resp.headers),
            body=resp.content,
            final_url=resp.url,
        )
