"""Answer-key and property checks on what one benchmark round produced.

Every check returns a list of problem strings; an empty list means the round
is correct.  The answer key is recomputed from each config's own flags at
set-up, never read from the labels committed with the test fixtures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

SCANNED = ("not_vulnerable", "vulnerable", "exploitable")
VULNERABLE = ("vulnerable", "exploitable")
# record fields that legitimately differ between copies of one config
PER_COPY_FIELDS = ("url", "site", "template", "started_at", "finished_at")


@dataclass(frozen=True)
class Exchange:
    """One request as the base client saw it; bodies are not kept."""

    method: str
    host: str  # host[:port]
    sent: float  # monotonic clock at send time
    status: int | None  # None when the fetch raised
    body_bytes: int


def host_of(url: str) -> str:
    rest = url.split("://", 1)[1] if "://" in url else url
    return rest.split("/", 1)[0].split("?", 1)[0].lower()


class ObservedClient:
    """Wraps the base client and logs every exchange; with a tracer, each
    fetch is also an ``httpclient.fetch`` span."""

    def __init__(self, inner, tracer=None) -> None:
        self._inner = inner
        self._tracer = tracer
        self.exchanges: list[Exchange] = []

    def fetch(self, request):
        sent = time.monotonic()
        host = host_of(request.url)
        try:
            if self._tracer is None:
                response = self._inner.fetch(request)
            else:
                with self._tracer.span("httpclient.fetch") as span:
                    response = self._inner.fetch(request)
                    span.size = len(response.body)
        except Exception:
            self.exchanges.append(Exchange(request.method, host, sent, None, 0))
            raise
        self.exchanges.append(Exchange(request.method, host, sent, response.status,
                                       len(response.body)))
        return response


def record_problems(record, truth) -> list[str]:
    """Compare a run_scan record with the answer key: vulnerable, reason,
    technique, and per-engine exploitable and framed."""
    where = f"{record.url}: "
    vulnerable = record.status in VULNERABLE
    if vulnerable != truth.vulnerable:
        return [where + f"vulnerable: scanner={vulnerable} truth={truth.vulnerable}"]
    if not vulnerable:
        if record.reason != truth.reason:
            return [where + f"reason: scanner={record.reason} truth={truth.reason}"]
        return []
    problems = []
    if record.technique != truth.technique:
        problems.append(where + f"technique: scanner={record.technique} truth={truth.technique}")
    expected_exploitable = any(p.exploitable for p in truth.profiles.values())
    if (record.status == "exploitable") != expected_exploitable:
        problems.append(where + f"exploitable: scanner={record.status} truth={expected_exploitable}")
    for engine, expected in truth.profiles.items():
        got = record.profile_results.get(engine)
        if got is None:
            problems.append(where + f"{engine}: missing profile result")
        elif (got["exploitable"], got["framed"]) != (expected.exploitable, expected.framed):
            problems.append(
                where + f"{engine}: scanner=({got['exploitable']}, {got['framed']}) "
                f"truth=({expected.exploitable}, {expected.framed})"
            )
    return problems


def status_problems(status: str, engine_exploitable: list[bool], where: str) -> list[str]:
    """An exploitable page has an exploitable engine; a vulnerable one has none."""
    if status == "exploitable" and not any(engine_exploitable):
        return [where + ": exploitable with no exploitable engine"]
    if status == "vulnerable" and any(engine_exploitable):
        return [where + ": vulnerable with an exploitable engine"]
    return []


def exchange_problems(exchanges: list[Exchange], blocked_suffixes) -> list[str]:
    """GET only, and nothing sent to a blocked-suffix host."""
    problems = []
    suffixes = tuple(s.lower() if s.startswith(".") else "." + s.lower() for s in blocked_suffixes)
    for x in exchanges:
        if x.method != "GET":
            problems.append(f"{x.host}: {x.method} request")
        hostname = x.host.split(":")[0]
        if hostname.endswith(suffixes) or "." + hostname in suffixes:
            problems.append(f"{x.host}: request to a blocked-suffix host")
    return problems


def copy_problems(records_by_config: dict[str, list]) -> list[str]:
    """Copies of one config on different hosts yield identical records apart
    from url, site, template and timestamps (host names are masked)."""
    problems = []
    for name, records in records_by_config.items():
        shapes = set()
        for record in records:
            fields = {k: v for k, v in record.__dict__.items() if k not in PER_COPY_FIELDS}
            host = host_of(record.url)
            shapes.add(json.dumps(fields, sort_keys=True).replace(host, "HOST"))
        if len(shapes) > 1:
            problems.append(f"{name}: {len(shapes)} different records across {len(records)} copies")
    return problems


def short_gaps(exchanges: list[Exchange], delay: float) -> int:
    """Per-host send gaps below 0.9 x the per-host delay."""
    per_host: dict[str, list[float]] = {}
    for x in exchanges:
        per_host.setdefault(x.host, []).append(x.sent)
    count = 0
    for stamps in per_host.values():
        stamps.sort()
        count += sum(1 for a, b in zip(stamps, stamps[1:]) if b - a < 0.9 * delay)
    return count
