"""Scan records, the seed-file pipeline, and per-technique summaries.

Records are one JSON object per line so a crashed run keeps everything
already written.  The pipeline groups template-sibling URLs first, scans one
representative per group, and hands whole hosts to at most
``max_concurrent_hosts`` long-lived worker threads that share one host queue.
A host's pages stay on the worker that took it, so its requests stay
serialized and paced; records come back through a second queue as each page
finishes.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

from .httpclient import RateLimitedClient, RequestsClient
from .jsonform import BadInput, from_json_form
from .mutations import MutationTechnique
from .pages import group_candidates, abstract_url
from .rendering import Engine
from .scanning import ScanConfig, ScanStatus, ScanVerdict, ethics_gate, scan_page, verify_exploitable
from .urls import MalformedUrl, WebUrl, host_key, parse_url, registrable_domain, serialize_url


@dataclass
class ScanRecord:
    url: str
    site: str
    template: str
    status: str  # scanned statuses, or "ethics_blocked" / "grouped_into" / "error"
    reason: str | None = None
    technique: str | None = None
    newline_variant: str | None = None
    reflected_stylesheet_url: str | None = None
    profile_results: dict[str, dict[str, bool | list[str]]] = field(default_factory=dict)
    grouped_into: str | None = None
    started_at: str | None = None
    finished_at: str | None = None
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        """A record from its JSON line; raises ValueError when the line is
        not one record's keys with values of their types."""
        return from_json_form(cls, json.loads(line), "record")


def _now() -> str:
    """The UTC time in ``datetime.isoformat()``'s shape, without loading
    ``datetime``: ``YYYY-MM-DDTHH:MM:SS.ffffff+00:00``, the fraction left out
    on a whole second."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else stamp + "+00:00"


def record_from_verdict(url: WebUrl, template: str, verdict: ScanVerdict,
                        started_at: str) -> ScanRecord:
    return ScanRecord(
        url=serialize_url(url),
        site=registrable_domain(url.host),
        template=template,
        status=verdict.status.value,
        reason=verdict.reason.value if verdict.reason else None,
        technique=verdict.technique.value if verdict.technique else None,
        newline_variant=verdict.newline.value if verdict.newline else None,
        reflected_stylesheet_url=verdict.reflected_stylesheet_url,
        profile_results={
            engine.value: {
                "exploitable": result.exploitable,
                "framed": result.framed,
                "blockers": [b.value for b in result.blockers],
            }
            for engine, result in verdict.profile_results.items()
        },
        started_at=started_at,
        finished_at=_now(),
        errors=list(verdict.errors),
    )


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """The file's non-blank lines, stripped, with their numbers from 1."""
    with open(path, encoding="utf-8") as fh:
        try:
            for number, raw in enumerate(fh, 1):
                if line := raw.strip():
                    yield number, line
        except UnicodeDecodeError as exc:
            raise BadInput(f"{path}: {exc}") from exc


def _content_lines(path: str) -> Iterator[str]:
    """The file's stripped lines, blank lines and ``#`` comments skipped."""
    return (line for _, line in _lines(path) if not line.startswith("#"))


def read_seed_file(path: str) -> list[str]:
    """One URL per line, optionally followed by a tab and an integer rank."""
    return [line.split("\t")[0].strip() for line in _content_lines(path)]


def read_cookie_file(path: str) -> dict[str, dict[str, str]]:
    """Per-site cookies: lines of ``host<whitespace>name=value``."""
    cookies: dict[str, dict[str, str]] = {}
    for line in _content_lines(path):
        separator = "\t" if "\t" in line else " "
        host, _, pairs = line.partition(separator)
        host = host.strip().lower()
        if not host or "=" not in pairs:
            continue
        for chunk in pairs.split(";"):
            if "=" in chunk:
                name, _, value = chunk.strip().partition("=")
                cookies.setdefault(host, {})[name] = value
    return cookies


def run_scan(
    seed_file: str,
    config: ScanConfig,
    base_client=None,
    cookie_file: str | None = None,
) -> Iterator[ScanRecord]:
    """Group, gate, scan, verify: a generator of one record per seed URL, each
    yielded as it completes.

    Both files are read, and every URL parsed, grouped and gated, before this
    returns, so an input error raises before any record is drawn.
    ``base_client`` (default: the real network client) is wrapped in the
    per-host rate limiter; pass a RecordingClient to capture the exchange log.
    """
    seed_lines = read_seed_file(seed_file)
    site_cookies = read_cookie_file(cookie_file) if cookie_file else {}

    parsed: list[WebUrl | MalformedUrl] = []
    for line in seed_lines:
        try:
            parsed.append(parse_url(line))
        except MalformedUrl as exc:
            parsed.append(exc)
    groups = group_candidates([url for url in parsed if isinstance(url, WebUrl)])

    prelim: list[ScanRecord] = []
    to_scan: dict[str, list[tuple[WebUrl, str]]] = {}
    for line, url in zip(seed_lines, parsed):
        if isinstance(url, MalformedUrl):
            prelim.append(ScanRecord(url=line, site="", template="", status="error",
                                     errors=[str(url)]))
            continue
        text, site, template = serialize_url(url), registrable_domain(url.host), abstract_url(url)
        # the representative is one of the parsed URLs: a line equal to it
        # but not the same object is a duplicate, grouped into it
        representative = groups[template]
        if url is not representative:
            prelim.append(ScanRecord(url=text, site=site, template=template, status="grouped_into",
                                     grouped_into=serialize_url(representative)))
        elif not ethics_gate(url, config):
            prelim.append(ScanRecord(url=text, site=site, template=template,
                                     status="ethics_blocked", reason="blocked_suffix"))
        else:
            to_scan.setdefault(host_key(url), []).append((url, template))

    if base_client is None:
        base_client = RequestsClient(timeout=config.request_timeout)
    client = RateLimitedClient(base_client, config.per_host_delay)
    return _records(prelim, to_scan, site_cookies, client, config)


def _records(prelim: list[ScanRecord], to_scan: dict[str, list[tuple[WebUrl, str]]],
             site_cookies: dict[str, dict[str, str]], client,
             config: ScanConfig) -> Iterator[ScanRecord]:
    """The plan's records: ``prelim`` first, then each scanned page's."""
    results: queue.SimpleQueue[ScanRecord | None] = queue.SimpleQueue()

    def scan_host(urls: list[tuple[WebUrl, str]]) -> None:
        for url, template in urls:
            started = _now()
            cookies = site_cookies.get(url.host.lower(), {})
            try:
                verdict = scan_page(url, cookies, client, config)
                verdict = verify_exploitable(verdict, client, config)
                results.put(record_from_verdict(url, template, verdict, started))
            except Exception as exc:  # defensive: one page never kills the run
                results.put(
                    ScanRecord(url=serialize_url(url), site=registrable_domain(url.host),
                               template=template, status="error", started_at=started,
                               finished_at=_now(), errors=[repr(exc)])
                )

    yield from prelim

    # Long-lived workers, each taking whole hosts off one queue: a host's
    # pages stay on one thread, so its requests stay serialized.  SimpleQueue
    # blocks in C, so a host or a record costs no Python-level lock.
    hosts: queue.SimpleQueue[list[tuple[WebUrl, str]]] = queue.SimpleQueue()
    for urls in to_scan.values():
        hosts.put(urls)
    failures: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                try:
                    urls = hosts.get_nowait()
                except queue.Empty:
                    return
                try:
                    scan_host(urls)
                except BaseException as exc:  # re-raised once every worker stops
                    failures.append(exc)
        finally:
            results.put(None)  # one per worker, after all of its records

    workers = min(config.max_concurrent_hosts, len(to_scan))
    try:
        for _ in range(workers):
            threading.Thread(target=work, name="rposcan-host-worker").start()
        while workers:
            record = results.get()
            if record is None:
                workers -= 1
            else:
                yield record
        if failures:
            raise failures[0]
    finally:
        # A consumer that stops early leaves no queued host to start: each
        # worker finishes the host it holds and then finds the queue empty.
        while True:
            try:
                hosts.get_nowait()
            except queue.Empty:
                break


def write_records(records: Iterable[ScanRecord], out: TextIO) -> int:
    count = 0
    for record in records:
        out.write(record.to_json() + "\n")
        out.flush()
        count += 1
    return count


def read_records(path: str) -> list[ScanRecord]:
    records = []
    for number, line in _lines(path):
        try:
            records.append(ScanRecord.from_json(line))
        except ValueError as exc:  # not JSON, or not a record's keys
            raise BadInput(f"{path}:{number}: {exc}") from exc
    return records


# --- summaries ---


@dataclass
class SummaryRow:
    technique: str
    vulnerable_pages: int = 0
    vulnerable_sites: int = 0
    exploitable_pages: dict[str, int] = field(default_factory=dict)
    exploitable_sites: dict[str, int] = field(default_factory=dict)


@dataclass
class SummaryTable:
    rows: list[SummaryRow]
    total: SummaryRow
    engines: list[str]
    candidate_pages: int
    candidate_sites: int


def _count_row(technique: str, hits: list[ScanRecord], engines: list[str]) -> SummaryRow:
    row = SummaryRow(
        technique=technique,
        vulnerable_pages=len(hits),
        vulnerable_sites=len({r.site for r in hits}),
    )
    for engine in engines:
        engine_hits = [r for r in hits if r.profile_results.get(engine, {}).get("exploitable")]
        row.exploitable_pages[engine] = len(engine_hits)
        row.exploitable_sites[engine] = len({r.site for r in engine_hits})
    return row


def summarize(records: Iterable[ScanRecord]) -> SummaryTable:
    """Counts per technique and engine; the total row counts each page and
    site once regardless of how many techniques hit."""
    records = list(records)
    scanned_statuses = {status.value for status in ScanStatus}
    scanned = [r for r in records if r.status in scanned_statuses]
    engines = [e.value for e in Engine]

    vulnerable = [r for r in scanned if r.status in ("vulnerable", "exploitable")]
    rows = [
        _count_row(
            technique.value,
            [r for r in vulnerable if r.technique == technique.value],
            engines,
        )
        for technique in MutationTechnique
    ]
    return SummaryTable(
        rows=rows,
        total=_count_row("total", vulnerable, engines),
        engines=engines,
        candidate_pages=len(scanned),
        candidate_sites=len({r.site for r in scanned}),
    )


def _percent(part: int, whole: int) -> str:
    if whole == 0:
        return "0.0%"
    return f"{100.0 * part / whole:.1f}%"


def render_table(table: SummaryTable) -> str:
    lines = []
    lines.append(
        f"candidate set: {table.candidate_pages} pages on {table.candidate_sites} sites"
    )
    header = ["technique", "vuln pages", "vuln sites"]
    for engine in table.engines:
        header.append(f"expl pages ({engine})")
        header.append(f"expl sites ({engine})")
    widths = [max(len(h), 24) for h in header[:1]] + [max(len(h), 10) for h in header[1:]]

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines.append(fmt_row(header))
    lines.append(fmt_row(["-" * w for w in widths]))
    for row in table.rows + [table.total]:
        cells = [
            row.technique,
            f"{row.vulnerable_pages} ({_percent(row.vulnerable_pages, table.candidate_pages)})",
            f"{row.vulnerable_sites} ({_percent(row.vulnerable_sites, table.candidate_sites)})",
        ]
        for engine in table.engines:
            pages = row.exploitable_pages.get(engine, 0)
            sites = row.exploitable_sites.get(engine, 0)
            cells.append(f"{pages} ({_percent(pages, table.candidate_pages)})")
            cells.append(f"{sites} ({_percent(sites, table.candidate_sites)})")
        lines.append(fmt_row(cells))
    return "\n".join(lines)


def render_csv(table: SummaryTable) -> str:
    header = ["technique", "vulnerable_pages", "vulnerable_sites"]
    for engine in table.engines:
        header.append(f"exploitable_pages_{engine}")
    for engine in table.engines:
        header.append(f"exploitable_sites_{engine}")
    lines = [",".join(header)]
    for row in table.rows + [table.total]:
        cells = [row.technique, str(row.vulnerable_pages), str(row.vulnerable_sites)]
        for engine in table.engines:
            cells.append(str(row.exploitable_pages.get(engine, 0)))
        for engine in table.engines:
            cells.append(str(row.exploitable_sites.get(engine, 0)))
        lines.append(",".join(cells))
    return "\n".join(lines)
