import json
import pathlib
import random
import sys
import threading
import time

import pytest

from rposcan import reports
from rposcan.httpclient import RecordingClient
from rposcan.mock_target import (
    DOCTYPE_QUIRKS,
    InProcessClient,
    Routing,
    Sink,
    TargetConfig,
    fixture_matrix,
    newline_configs,
)
from rposcan.reports import (
    ScanRecord,
    read_cookie_file,
    read_records,
    read_seed_file,
    render_csv,
    render_table,
    run_scan,
    summarize,
)
from rposcan.rendering import default_profiles
from rposcan.scanning import ScanConfig
from rposcan.urls import host_key


def make_config(**overrides) -> ScanConfig:
    defaults = dict(per_host_delay=0.0, max_concurrent_hosts=1)
    defaults.update(overrides)
    return ScanConfig(**defaults)


def mock_client() -> InProcessClient:
    vulnerable = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    clean = TargetConfig(
        name="b", routing=Routing.PATH_INFO_REWRITE, sinks=frozenset(), doctype=DOCTYPE_QUIRKS
    )
    cookie_site = TargetConfig(
        name="c",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
        doctype=DOCTYPE_QUIRKS,
    )
    return InProcessClient(
        {"site-a.test": vulnerable, "site-b.test": clean, "site-c.test": cookie_site}
    )


def run(seed_lines, tmp_path, cookie_lines=None, **config_overrides):
    seed = tmp_path / "seed.txt"
    seed.write_text("\n".join(seed_lines) + "\n")
    cookie_file = None
    if cookie_lines:
        cookie_file = tmp_path / "cookies.txt"
        cookie_file.write_text("\n".join(cookie_lines) + "\n")
    config = make_config(**config_overrides)
    return list(
        run_scan(
            str(seed),
            config,
            base_client=mock_client(),
            cookie_file=str(cookie_file) if cookie_file else None,
        )
    )


def test_run_scan_basic_records(tmp_path):
    records = run(
        [
            "http://site-a.test/app/page.php",
            "http://site-b.test/app/page.php",
        ],
        tmp_path,
    )
    assert len(records) == 2
    by_url = {r.url: r for r in records}
    assert by_url["http://site-a.test/app/page.php"].status == "exploitable"
    assert by_url["http://site-b.test/app/page.php"].status == "not_vulnerable"


def test_run_scan_blocks_gov(tmp_path):
    records = run(["http://agency.gov/x", "http://site-a.test/app/page.php"], tmp_path)
    blocked = [r for r in records if r.status == "ethics_blocked"]
    assert len(blocked) == 1
    assert blocked[0].url == "http://agency.gov/x"


def test_run_scan_groups_template_siblings(tmp_path):
    records = run(
        [
            "http://site-a.test/app/page.php?lang=en",
            "http://site-a.test/app/page.php?lang=fr",
        ],
        tmp_path,
    )
    statuses = sorted(r.status for r in records)
    assert statuses == ["exploitable", "grouped_into"]
    grouped = next(r for r in records if r.status == "grouped_into")
    assert grouped.grouped_into == "http://site-a.test/app/page.php?lang=en"


def test_run_scan_scans_a_page_once_however_its_url_writes_the_default_port(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("http://site-a.test/app/page.php\nhttp://site-a.test:80/app/page.php\n")
    recorder = RecordingClient(mock_client())
    records = {r.url: r for r in run_scan(str(seed), make_config(), base_client=recorder)}
    scanned, spelled = records["http://site-a.test/app/page.php"], records["http://site-a.test:80/app/page.php"]
    assert scanned.status == "exploitable"
    assert (spelled.status, spelled.grouped_into) == ("grouped_into", scanned.url)
    assert spelled.template == scanned.template == "site-a.test/app/page.php"
    assert len(recorder.exchanges) == 4  # one probe round and one exploit round


def test_run_scan_loss_free(tmp_path):
    seeds = [
        "http://site-a.test/app/page.php",
        "http://site-a.test/app/page.php",  # duplicate: grouped
        "http://site-b.test/app/page.php",
        "http://agency.gov/x",
        "not a url at all",
    ]
    records = run(seeds, tmp_path)
    assert len(records) == len(seeds)
    assert {r.status for r in records} == {
        "exploitable",
        "grouped_into",
        "not_vulnerable",
        "ethics_blocked",
        "error",
    }


def test_run_scan_uses_cookie_file(tmp_path):
    records = run(
        ["http://site-c.test/app/page.php"],
        tmp_path,
        cookie_lines=["site-c.test\tsid=abc;lang=en"],
    )
    (record,) = records
    assert record.status == "exploitable"
    assert record.technique == "cookie"


def test_run_scan_get_only_and_rate_limited(tmp_path):
    recorder = RecordingClient(mock_client())
    seed = tmp_path / "seed.txt"
    seed.write_text("http://site-a.test/app/page.php\n")
    # delay large enough that send-time measurement jitter stays irrelevant
    config = make_config(per_host_delay=0.05)
    records = list(run_scan(str(seed), config, base_client=recorder))
    assert records[0].status == "exploitable"
    assert all(x.request.method == "GET" for x in recorder.exchanges)
    stamps = [x.timestamp for x in recorder.exchanges]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert all(gap >= 0.045 for gap in gaps)


def test_read_seed_file_ranks_and_comments(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("# comment\nhttp://a.test/x\t12\n\nhttp://b.test/y\n")
    assert read_seed_file(str(seed)) == ["http://a.test/x", "http://b.test/y"]


def test_read_cookie_file(tmp_path):
    path = tmp_path / "cookies.txt"
    path.write_text("a.test\tsid=1;theme=dark\nb.test lang=en\n")
    cookies = read_cookie_file(str(path))
    assert cookies == {"a.test": {"sid": "1", "theme": "dark"}, "b.test": {"lang": "en"}}


# --- summaries ---


def _record(url, site, status, technique=None, exploitable_engines=(), framed=()):
    return ScanRecord(
        url=url,
        site=site,
        template=url,
        status=status,
        technique=technique,
        profile_results={
            engine: {"exploitable": engine in exploitable_engines, "framed": engine in framed, "blockers": []}
            for engine in ("chrome", "internet_explorer")
        },
    )


def test_summarize_empty():
    table = summarize([])
    assert table.candidate_pages == 0
    assert table.total.vulnerable_pages == 0
    assert all(row.vulnerable_pages == 0 for row in table.rows)


def test_summarize_counts_pages_and_sites():
    records = [
        _record("http://a.test/1", "a.test", "vulnerable", "path_param_simple"),
        _record("http://a.test/2", "a.test", "vulnerable", "path_param_simple"),
        _record("http://b.test/1", "b.test", "not_vulnerable"),
    ]
    table = summarize(records)
    row = next(r for r in table.rows if r.technique == "path_param_simple")
    assert row.vulnerable_pages == 2
    assert row.vulnerable_sites == 1
    assert table.candidate_pages == 3
    assert table.candidate_sites == 2


def test_each_ip_address_is_a_site_of_its_own(tmp_path):
    target = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    hosts = ("127.0.0.1", "10.0.0.1", "192.168.0.1")
    seed = tmp_path / "seed.txt"
    seed.write_text("".join(f"http://{host}/app/page.php\n" for host in hosts))
    client = InProcessClient(dict.fromkeys(hosts, target))
    records = list(run_scan(str(seed), make_config(), base_client=client))
    assert sorted(r.site for r in records) == sorted(hosts)
    assert summarize(records).candidate_sites == 3


def test_summarize_total_counts_site_once_across_techniques():
    records = [
        _record("http://a.test/1", "a.test", "vulnerable", "path_param_simple"),
        _record("http://a.test/2", "a.test", "vulnerable", "cookie"),
    ]
    table = summarize(records)
    assert table.total.vulnerable_pages == 2
    assert table.total.vulnerable_sites == 1


def test_summarize_exploitable_split_by_engine():
    records = [
        _record(
            "http://a.test/1",
            "a.test",
            "exploitable",
            "path_param_simple",
            exploitable_engines=("chrome", "internet_explorer"),
        ),
        _record(
            "http://b.test/1",
            "b.test",
            "exploitable",
            "path_param_simple",
            exploitable_engines=("internet_explorer",),
            framed=("internet_explorer",),
        ),
    ]
    table = summarize(records)
    row = next(r for r in table.rows if r.technique == "path_param_simple")
    assert row.exploitable_pages["chrome"] == 1
    assert row.exploitable_pages["internet_explorer"] == 2
    assert row.exploitable_sites["internet_explorer"] == 2


def test_summarize_invariant_under_reordering():
    records = [
        _record("http://a.test/1", "a.test", "vulnerable", "path_param_simple"),
        _record("http://b.test/1", "b.test", "exploitable", "cookie", ("chrome",)),
        _record("http://c.test/1", "c.test", "not_vulnerable"),
        _record("http://d.test/1", "d.test", "grouped_into"),
    ]
    base = summarize(records)
    for seed in range(5):
        shuffled = records[:]
        random.Random(seed).shuffle(shuffled)
        again = summarize(shuffled)
        assert again == base


def test_csv_columns():
    records = [_record("http://a.test/1", "a.test", "vulnerable", "path_param_simple")]
    table = summarize(records)
    lines = render_csv(table).splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["technique", "vulnerable_pages", "vulnerable_sites"]
    assert "exploitable_pages_chrome" in header
    assert "exploitable_sites_internet_explorer" in header
    assert len(lines) == 1 + 6 + 1  # header + six techniques + total


def test_table_renders():
    records = [_record("http://a.test/1", "a.test", "vulnerable", "path_param_simple")]
    text = render_table(summarize(records))
    assert "path_param_simple" in text
    assert "total" in text
    assert "100.0%" in text


def test_record_json_round_trip():
    record = _record("http://a.test/1", "a.test", "exploitable", "cookie", ("chrome",))
    assert ScanRecord.from_json(record.to_json()) == record


class GatedClient:
    """Holds the first request under `gated_prefix` until `release` is set."""

    def __init__(self, inner, gated_prefix: str) -> None:
        self._inner = inner
        self._gated_prefix = gated_prefix
        self.reached = threading.Event()
        self.release = threading.Event()

    def fetch(self, request):
        if request.url.startswith(self._gated_prefix) and not self.reached.is_set():
            self.reached.set()
            self.release.wait(timeout=5)
        return self._inner.fetch(request)


def _join_new_threads(before: set[threading.Thread]) -> list[threading.Thread]:
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=5)
    return [t for t in started if t.is_alive()]


def test_run_scan_closed_early_starts_no_queued_host(tmp_path):
    second_page = "http://site-a.test/other/page.php"
    gate = GatedClient(mock_client(), gated_prefix=second_page)
    recorder = RecordingClient(gate)
    seed = tmp_path / "seed.txt"
    seed.write_text(
        "\n".join(
            [
                "http://site-a.test/app/page.php",
                second_page,
                "http://site-b.test/app/page.php",
                "http://site-c.test/app/page.php",
            ]
        )
        + "\n"
    )
    before = set(threading.enumerate())
    records = run_scan(str(seed), make_config(max_concurrent_hosts=1), base_client=recorder)
    first = next(records)
    assert first.url == "http://site-a.test/app/page.php"
    assert gate.reached.wait(timeout=5)  # the worker is inside site-a's second page
    records.close()
    gate.release.set()
    assert _join_new_threads(before) == []
    assert {host_key(x.request.web_url) for x in recorder.exchanges} == {"site-a.test"}


def test_run_scan_worker_failure_does_not_hang(tmp_path, monkeypatch):
    def broken_now() -> str:
        raise RuntimeError("clock failed")

    monkeypatch.setattr(reports, "_now", broken_now)
    outcome: list[BaseException | list] = []

    def consume() -> None:
        try:
            outcome.append(run(["http://site-a.test/app/page.php"], tmp_path))
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=5)
    assert not consumer.is_alive(), "run_scan hung after a worker raised"
    (result,) = outcome
    assert isinstance(result, RuntimeError) and str(result) == "clock failed"


def test_run_scan_many_workers_end_once_every_host_is_done(tmp_path):
    config = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    hosts = {f"h{i}.test": config for i in range(40)}
    seed = tmp_path / "seed.txt"
    seed.write_text("".join(f"http://{host}/app/page.php\n" for host in hosts))
    outcome: list[list] = []

    def consume() -> None:
        outcome.append(
            list(
                run_scan(
                    str(seed),
                    make_config(max_concurrent_hosts=8),
                    base_client=InProcessClient(hosts),
                )
            )
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive(), "run_scan lost a host completion"
    (records,) = outcome
    assert sorted(r.url for r in records) == sorted(f"http://{h}/app/page.php" for h in hosts)
    assert {r.status for r in records} == {"exploitable"}


class InFlightClient:
    """Holds each fetch briefly and records which hosts have one in progress.

    Until ``full_at`` hosts are in flight at once, a fetch waits for that to
    happen, so a pool of that size reaches its bound every run.  A smaller
    pool never gets there: after one 2 s wait, no fetch waits again.
    """

    def __init__(self, inner, full_at: int) -> None:
        self._inner = inner
        self._full_at = full_at
        self._lock = threading.Lock()
        self._active: dict[str, int] = {}
        self.full = threading.Event()
        self.peak = 0
        self.overlaps = 0
        self.threads: dict[str, set[int]] = {}

    def fetch(self, request):
        host = host_key(request.web_url)
        with self._lock:
            self._active[host] = self._active.get(host, 0) + 1
            if self._active[host] > 1:
                self.overlaps += 1
            self.peak = max(self.peak, len(self._active))
            if len(self._active) >= self._full_at:
                self.full.set()
            self.threads.setdefault(host, set()).add(threading.get_ident())
        try:
            if not self.full.wait(timeout=2):
                self.full.set()
            time.sleep(0.002)
            return self._inner.fetch(request)
        finally:
            with self._lock:
                self._active[host] -= 1
                if not self._active[host]:
                    del self._active[host]


def test_run_scan_keeps_max_concurrent_hosts_and_one_thread_per_host(tmp_path):
    config = TargetConfig(name="a", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    hosts = {f"h{i}.test": config for i in range(9)}
    seed = tmp_path / "seed.txt"
    # two pages per host, so a host's pages must also stay on one thread
    seed.write_text(
        "".join(f"http://{host}/app/page.php\nhttp://{host}/other/page.php\n" for host in hosts)
    )
    client = InFlightClient(InProcessClient(hosts), full_at=3)
    records = list(
        run_scan(str(seed), make_config(max_concurrent_hosts=3), base_client=client)
    )
    assert {r.status for r in records} == {"exploitable"}
    assert len(records) == 18
    assert client.peak == 3
    assert client.overlaps == 0
    assert sorted(client.threads) == sorted(hosts)
    assert all(len(threads) == 1 for threads in client.threads.values())
    assert len(set().union(*client.threads.values())) == 3


FIXED_SEED_RECORDS = pathlib.Path(__file__).parent / "fixtures" / "fixed_seed_records.jsonl"


def _fixed_seed_records(directory: pathlib.Path, workers: int) -> str:
    """run_scan's records on a fixed seed file, as JSON lines sorted by URL
    with the timestamps dropped.  The seed holds every matrix and newline
    config on its own in-process host, with a cookie file, plus a blocked
    host, a malformed line, a template sibling and a duplicate line."""
    profiles = default_profiles()
    entries = fixture_matrix(profiles) + newline_configs(profiles)
    hosts = {f"m{i}.test": target for i, (target, _) in enumerate(entries)}
    lines = [str(target.seed_url(f"http://{host}")) for host, target in hosts.items()]
    hosts["agency.gov"] = entries[0][0]  # answers, should a request get through
    sibling = next(line for line in lines if "?" in line) + "0"
    lines += [str(entries[0][0].seed_url("http://agency.gov")), "http://[bad/x", sibling, lines[1]]
    seed = directory / "seed.txt"
    seed.write_text("".join(f"{line}\n" for line in lines))
    cookies = directory / "cookies.txt"
    cookies.write_text(
        "".join(
            f"{host}\t{';'.join(f'{k}={v}' for k, v in target.seed_cookies.items())}\n"
            for host, target in hosts.items()
            if target.seed_cookies
        )
    )
    records = run_scan(
        str(seed),
        ScanConfig(per_host_delay=0.0, max_concurrent_hosts=workers, profiles=tuple(profiles)),
        base_client=InProcessClient(hosts),
        cookie_file=str(cookies),
    )
    rows = sorted((record.url, _untimed_json(record)) for record in records)
    return "".join(line + "\n" for _, line in rows)


def _untimed_json(record: ScanRecord) -> str:
    """A record's JSON line without its timestamps."""
    row = dict(record.__dict__)
    del row["started_at"], row["finished_at"]
    return json.dumps(row, sort_keys=True)


def test_run_scan_records_do_not_depend_on_worker_count(tmp_path):
    assert _fixed_seed_records(tmp_path, 1) == _fixed_seed_records(tmp_path, 4)


def test_run_scan_fixed_seed_records_match_committed_file(tmp_path):
    records = _fixed_seed_records(tmp_path, 4)
    assert {json.loads(line)["status"] for line in records.splitlines()} >= {
        "exploitable", "vulnerable", "not_vulnerable", "ethics_blocked", "grouped_into", "error"}
    assert records == FIXED_SEED_RECORDS.read_text()


def test_fixed_seed_records_read_back_and_write_back_byte_identical():
    records = read_records(str(FIXED_SEED_RECORDS))
    written = "".join(_untimed_json(record) + "\n" for record in records)
    assert written == FIXED_SEED_RECORDS.read_text()


def test_reading_records_calls_typing_a_fixed_number_of_times(tmp_path, monkeypatch):
    import typing

    calls = 0
    get_origin = typing.get_origin

    def counted(kind):
        nonlocal calls
        calls += 1
        return get_origin(kind)

    lines = FIXED_SEED_RECORDS.read_text()
    read_records(str(FIXED_SEED_RECORDS))  # a first read may build what reading needs
    monkeypatch.setattr(typing, "get_origin", counted)
    counts = []
    for copies in (1, 20):
        path = tmp_path / f"records-{copies}.jsonl"
        path.write_text(lines * copies)
        calls = 0
        assert len(read_records(str(path))) == copies * len(lines.splitlines())
        counts.append(calls)
    assert counts[0] == counts[1], counts


if __name__ == "__main__":  # rewrite the committed file: PYTHONPATH=src python tests/test_reports.py
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        FIXED_SEED_RECORDS.write_text(_fixed_seed_records(pathlib.Path(scratch), 4))


def test_run_scan_unexpected_client_exception_gives_one_error_record(tmp_path):
    class BrokenForSiteB:
        def __init__(self, inner) -> None:
            self.inner = inner

        def fetch(self, request):
            if host_key(request.web_url) == "site-b.test":
                raise RuntimeError("client bug")
            return self.inner.fetch(request)

    seed = tmp_path / "seed.txt"
    seed.write_text("http://site-a.test/app/page.php\nhttp://site-b.test/app/page.php\n")
    records = {r.url: r for r in run_scan(str(seed), make_config(max_concurrent_hosts=2),
                                          base_client=BrokenForSiteB(mock_client()))}
    broken = records["http://site-b.test/app/page.php"]
    assert (broken.status, broken.errors) == ("error", ["RuntimeError('client bug')"])
    assert broken.site == "site-b.test" and broken.template and broken.finished_at
    assert records["http://site-a.test/app/page.php"].status == "exploitable"


@pytest.mark.parametrize("ns", [
    1_700_000_000 * 10**9,  # a whole second: no fraction
    1_700_000_000 * 10**9 + 1_000,  # ends .000001
    1_700_000_000 * 10**9 + 999_999_999,  # the nanoseconds past the microsecond are cut
    86_399 * 10**9 + 123_456_000,
], ids=["whole-second", "one-microsecond", "truncated", "first-day"])
def test_now_writes_datetime_isoformat(monkeypatch, ns):
    from datetime import datetime, timedelta, timezone

    monkeypatch.setattr(time, "time_ns", lambda: ns)
    expected = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=ns // 1000)
    assert reports._now() == expected.isoformat()
