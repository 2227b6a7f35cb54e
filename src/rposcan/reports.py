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
from collections import Counter, defaultdict
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

    # each line parsed, serialized and templated once; a malformed line keeps its text
    planned: list[tuple[WebUrl | MalformedUrl, str, str]] = []
    for line in seed_lines:
        try:
            url = parse_url(line)
        except MalformedUrl as exc:
            planned.append((exc, line, ""))
        else:
            planned.append((url, serialize_url(url), abstract_url(url)))
    groups = group_candidates((text, template) for url, text, template in planned
                              if isinstance(url, WebUrl))

    prelim: list[ScanRecord] = []
    to_scan: dict[str, list[tuple[WebUrl, str]]] = {}
    planned_texts: set[str] = set()  # representatives already planned: a copy is grouped
    for url, text, template in planned:
        if isinstance(url, MalformedUrl):
            prelim.append(ScanRecord(url=text, site="", template="", status="error",
                                     errors=[str(url)]))
            continue
        site, representative = registrable_domain(url.host), groups[template]
        if text != representative or text in planned_texts:
            prelim.append(ScanRecord(url=text, site=site, template=template, status="grouped_into",
                                     grouped_into=representative))
            continue
        planned_texts.add(text)
        if not ethics_gate(url, config):
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


def read_records(path: str) -> Iterator[ScanRecord]:
    """The file's records, each made as its line is read; a line that is not
    a record raises BadInput naming ``FILE:LINE``."""
    for number, line in _lines(path):
        try:
            record = ScanRecord.from_json(line)
        except ValueError as exc:  # not JSON, or not a record's keys
            raise BadInput(f"{path}:{number}: {exc}") from exc
        yield record


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


def summarize(records: Iterable[ScanRecord]) -> SummaryTable:
    """Counts per technique and engine in one pass over ``records``, keeping
    counters and site sets, not records.  The total row counts each page and
    site once regardless of how many techniques hit; the engine columns are
    the engines some record judged, in ``Engine`` order, or every engine when
    no record judged one (a scan that found nothing vulnerable)."""
    scanned_statuses = {status.value for status in ScanStatus}
    techniques = [technique.value for technique in MutationTechnique]
    # pages and sites per (row, engine): row None counts every scanned page,
    # engine None a row's vulnerable pages, an engine those it exploits
    pages: Counter[tuple[str | None, str | None]] = Counter()
    sites: defaultdict[tuple[str | None, str | None], set[str]] = defaultdict(set)
    judged: set[str] = set()
    for record in records:
        judged.update(record.profile_results)
        if record.status not in scanned_statuses:
            continue
        keys = [(None, None)]
        if record.status in ("vulnerable", "exploitable"):
            won = [engine for engine, result in record.profile_results.items() if result.get("exploitable")]
            rows = ("total", record.technique) if record.technique in techniques else ("total",)
            keys += [(row, engine) for row in rows for engine in (None, *won)]
        for key in keys:
            pages[key] += 1
            sites[key].add(record.site)

    engines = [engine.value for engine in Engine if not judged or engine.value in judged]

    def row(name: str) -> SummaryRow:
        return SummaryRow(name, pages[name, None], len(sites[name, None]),
                          {engine: pages[name, engine] for engine in engines},
                          {engine: len(sites[name, engine]) for engine in engines})

    return SummaryTable(rows=[row(technique) for technique in techniques], total=row("total"),
                        engines=engines, candidate_pages=pages[None, None],
                        candidate_sites=len(sites[None, None]))


def _share(part: int, whole: int) -> str:
    return f"{part} ({100.0 * part / whole if whole else 0.0:.1f}%)"


def render_table(table: SummaryTable) -> str:
    header = ["technique", "vuln pages", "vuln sites"]
    for engine in table.engines:
        header += [f"expl pages ({engine})", f"expl sites ({engine})"]
    widths = [max(len(h), 24) for h in header[:1]] + [max(len(h), 10) for h in header[1:]]

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [f"candidate set: {table.candidate_pages} pages on {table.candidate_sites} sites",
             fmt_row(header), fmt_row(["-" * w for w in widths])]
    for row in table.rows + [table.total]:
        cells = [row.technique, _share(row.vulnerable_pages, table.candidate_pages),
                 _share(row.vulnerable_sites, table.candidate_sites)]
        for engine in table.engines:
            cells += [_share(row.exploitable_pages[engine], table.candidate_pages),
                      _share(row.exploitable_sites[engine], table.candidate_sites)]
        lines.append(fmt_row(cells))
    return "\n".join(lines)


def render_csv(table: SummaryTable) -> str:
    header = ["technique", "vulnerable_pages", "vulnerable_sites"]
    header += [f"exploitable_pages_{engine}" for engine in table.engines]
    header += [f"exploitable_sites_{engine}" for engine in table.engines]
    lines = [",".join(header)]
    for row in table.rows + [table.total]:
        cells = [row.technique, row.vulnerable_pages, row.vulnerable_sites,
                 *(row.exploitable_pages[engine] for engine in table.engines),
                 *(row.exploitable_sites[engine] for engine in table.engines)]
        lines.append(",".join(map(str, cells)))
    return "\n".join(lines)
