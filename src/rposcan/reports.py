"""Scan records, the seed-file pipeline, and per-technique summaries.

Records are one JSON object per line so a crashed run keeps everything
already written.  The pipeline groups template-sibling URLs first, scans one
representative per group, and fans hosts out over a bounded worker pool while
keeping each host's requests serialized.
"""

from __future__ import annotations

import json
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, TextIO

from .httpclient import RateLimitedClient, RequestsClient, host_key
from .mutations import MutationTechnique
from .pages import group_candidates, abstract_url
from .rendering import Engine
from .scanning import ScanConfig, ScanStatus, ScanVerdict, ethics_gate, scan_page, verify_exploitable
from .urls import MalformedUrl, WebUrl, parse_url, registrable_domain, serialize_url


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
    profile_results: dict[str, dict] = field(default_factory=dict)
    grouped_into: str | None = None
    started_at: str | None = None
    finished_at: str | None = None
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        return cls(**json.loads(line))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


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


def read_seed_file(path: str) -> list[str]:
    """One URL per line, optionally followed by a tab and an integer rank."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lines.append(line.split("\t")[0].strip())
    return lines


def read_cookie_file(path: str) -> dict[str, dict[str, str]]:
    """Per-site cookies: lines of ``host<whitespace>name=value``."""
    cookies: dict[str, dict[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
    """Group, gate, scan, verify; yields one record per seed URL as completed.

    ``base_client`` (default: the real network client) is wrapped in the
    per-host rate limiter; pass a RecordingClient to capture the exchange log.
    """
    seed_lines = read_seed_file(seed_file)
    site_cookies = read_cookie_file(cookie_file) if cookie_file else {}

    parsed: list[tuple[str, WebUrl | None, str | None]] = []
    for line in seed_lines:
        try:
            url = parse_url(line)
            parsed.append((line, url, None))
        except MalformedUrl as exc:
            parsed.append((line, None, str(exc)))

    groups = group_candidates([url for _, url, _ in parsed if url is not None])
    representative_of = {
        template: serialize_url(representative) for template, representative in groups.items()
    }
    template_of = {
        serialize_url(url): abstract_url(url) for _, url, _ in parsed if url is not None
    }

    if base_client is None:
        base_client = RequestsClient(timeout=config.request_timeout)
    client = RateLimitedClient(base_client, config.per_host_delay)

    results: queue.Queue[ScanRecord | None] = queue.Queue()
    to_scan: dict[str, list[WebUrl]] = {}
    seen_representatives: set[str] = set()

    prelim: list[ScanRecord] = []
    for line, url, parse_error in parsed:
        if url is None:
            prelim.append(
                ScanRecord(url=line, site="", template="", status="error",
                           errors=[parse_error or "unparseable URL"])
            )
            continue
        text = serialize_url(url)
        template = template_of[text]
        representative = representative_of[template]
        if text != representative or text in seen_representatives:
            prelim.append(
                ScanRecord(url=text, site=registrable_domain(url.host), template=template,
                           status="grouped_into", grouped_into=representative)
            )
            continue
        seen_representatives.add(text)
        if not ethics_gate(url, config):
            prelim.append(
                ScanRecord(url=text, site=registrable_domain(url.host), template=template,
                           status="ethics_blocked", reason="blocked_suffix")
            )
            continue
        to_scan.setdefault(host_key(text), []).append(url)

    def scan_host(urls: list[WebUrl]) -> None:
        for url in urls:
            started = _now()
            cookies = site_cookies.get(url.host.lower(), {})
            template = template_of[serialize_url(url)]
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

    if to_scan:
        executor = ThreadPoolExecutor(max_workers=config.max_concurrent_hosts)
        unfinished = len(to_scan)
        unfinished_lock = threading.Lock()

        def host_done(_: Future) -> None:
            # Called once a host's future finishes, raises or is cancelled,
            # so the sentinel arrives even when a worker fails.
            nonlocal unfinished
            with unfinished_lock:
                unfinished -= 1
                if unfinished == 0:
                    results.put(None)

        futures = [executor.submit(scan_host, urls) for urls in to_scan.values()]
        for future in futures:
            future.add_done_callback(host_done)
        try:
            while (record := results.get()) is not None:
                yield record
            for future in futures:
                future.result()  # re-raise a worker's failure outside scan_host's try
        finally:
            # A consumer that stops early leaves no queued host scanning.
            executor.shutdown(wait=False, cancel_futures=True)


def write_records(records: Iterable[ScanRecord], out: TextIO) -> int:
    count = 0
    for record in records:
        out.write(record.to_json() + "\n")
        out.flush()
        count += 1
    return count


def read_records(path: str) -> list[ScanRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(ScanRecord.from_json(line))
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
