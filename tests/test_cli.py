import pathlib
import signal
import socket
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from rposcan import cli, reports
from rposcan.cli import main
from rposcan.httpclient import HttpRequest, NetworkError, RequestsClient
from rposcan.mock_target import DOCTYPE_QUIRKS, InProcessClient, Routing, TargetConfig, serve
from rposcan.reports import ScanRecord, read_records
from rposcan.scanning import ScanConfig, ethics_gate
from rposcan.urls import parse_url

DEMO_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "demo_target.json"


def test_scan_cli_end_to_end(tmp_path):
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    handle = serve(target, port=0)
    try:
        seed = tmp_path / "seed.txt"
        seed.write_text(f"http://127.0.0.1:{handle.port}/app/page.php\n")
        out = tmp_path / "records.jsonl"
        code = main(
            [
                "scan",
                "--seed",
                str(seed),
                "--out",
                str(out),
                "--delay",
                "5",
                "--timeout",
                "5000",
                "--max-hosts",
                "2",
            ]
        )
        assert code == 0
        records = list(read_records(str(out)))
        assert len(records) == 1
        assert records[0].status == "exploitable"
        assert records[0].technique == "path_param_simple"
    finally:
        handle.shutdown()


def _records_file(tmp_path) -> tuple[pathlib.Path, bytes]:
    """An existing one-line records file, which an input error must leave as it is."""
    out = tmp_path / "rec.jsonl"
    out.write_bytes(b'{"kept": "from an earlier run"}\n')
    return out, out.read_bytes()


def test_scan_cli_missing_seed_exits_2(tmp_path):
    out, before = _records_file(tmp_path)
    assert main(["scan", "--seed", str(tmp_path / "missing.txt"), "--out", str(out)]) == 2
    assert out.read_bytes() == before


def test_scan_cli_undecodable_seed_file_exits_2(tmp_path, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_bytes(b"http://a.test/\xff.php\n")
    out, before = _records_file(tmp_path)
    assert main(["scan", "--seed", str(seed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {seed}: ") and "Traceback" not in err
    assert out.read_bytes() == before


def test_scan_cli_undecodable_cookie_file_exits_2(tmp_path, capsys):
    seed, cookies = tmp_path / "seed.txt", tmp_path / "cookies.txt"
    seed.write_text("http://a.gov/page.php\n")  # blocked, so nothing is fetched
    cookies.write_bytes(b"a.gov\tsid=\xff\n")
    out, before = _records_file(tmp_path)
    assert main(["scan", "--seed", str(seed), "--cookies", str(cookies), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cookies}: ") and "Traceback" not in err
    assert out.read_bytes() == before


def test_scan_cli_without_tuning_flags_uses_scan_config_defaults(tmp_path, monkeypatch):
    seen = []

    def run_scan(seed_file, config, cookie_file):
        seen.append(config)
        return []

    monkeypatch.setattr(cli, "run_scan", run_scan)
    seed = tmp_path / "seed.txt"
    seed.write_text("")
    assert main(["scan", "--seed", str(seed), "--out", str(tmp_path / "rec.jsonl")]) == 0
    assert seen == [ScanConfig()]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--delay", "-5", "per_host_delay must be >= 0"),
        ("--timeout", "0", "request_timeout must be > 0"),
        ("--max-hosts", "0", "max_concurrent_hosts must be >= 1"),
    ],
    ids=["negative-delay", "zero-timeout", "zero-max-hosts"],
)
def test_scan_cli_unsafe_setting_exits_2_before_any_request(tmp_path, capsys, flag, value, message):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        seed = tmp_path / "seed.txt"
        seed.write_text(f"http://127.0.0.1:{listener.getsockname()[1]}/app/page.php\n")
        out = tmp_path / "records.jsonl"
        # a short timeout first, so a scan that does start gives up quickly
        args = ["scan", "--seed", str(seed), "--out", str(out), "--timeout", "300", flag, value]
        assert main(args) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing connected


def test_summarize_cli(tmp_path, capsys):
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    handle = serve(target, port=0)
    try:
        seed = tmp_path / "seed.txt"
        seed.write_text(f"http://127.0.0.1:{handle.port}/app/page.php\n")
        out = tmp_path / "records.jsonl"
        assert main(["scan", "--seed", str(seed), "--out", str(out), "--delay", "5"]) == 0
    finally:
        handle.shutdown()
    assert main(["summarize", "--in", str(out), "--format", "csv"]) == 0
    captured = capsys.readouterr().out
    header = captured.splitlines()[0].split(",")
    assert header[0] == "technique"
    assert "exploitable_pages_chrome" in header

    assert main(["summarize", "--in", str(out), "--format", "table"]) == 0
    assert "total" in capsys.readouterr().out


def test_summarize_cli_missing_file_exits_2(tmp_path):
    assert main(["summarize", "--in", str(tmp_path / "nope.jsonl")]) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"url": "http://a.test/x", "site": "a.test", "templ', "Unterminated string"),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "vulnerable", "colour": "red"}',
            "unknown record key(s): colour",
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "vulnerable", "technique": "cookie", "profile_results": [1]}',
            "record key profile_results: [1] does not fit",
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "vulnerable", "profile_results": {"chrome": true}}',
            'record key profile_results: {"chrome": true} does not fit',
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "exploitable", "technique": "path_param_simple", "profile_results": '
            '{"chrome": {"exploitable": "false", "framed": false, "blockers": []}}}',
            'record key profile_results: {"chrome": {"exploitable": "false", ',
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "error", "errors": "boom"}',
            'record key errors: "boom" does not fit list[str]',
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "error", "errors": [1]}',
            "record key errors: [1] does not fit list[str]",
        ),
        (
            '{"url": "http://a.test/x", "site": "a.test", "template": "a.test/x", '
            '"status": "vulnerable", "technique": 3}',
            "record key technique: 3 does not fit str | None",
        ),
        (
            '{"url": "http://a.test/x", "site": ["a.test"], "template": "a.test/x", '
            '"status": "vulnerable"}',
            'record key site: ["a.test"] does not fit str',
        ),
        ("[1]", "a record is a JSON object, not [1]"),
    ],
    ids=["truncated-json", "unknown-key", "results-list", "result-not-object",
         "exploitable-string", "errors-string", "errors-not-strings", "technique-number",
         "site-list", "not-object"],
)
def test_summarize_cli_malformed_record_exits_2(tmp_path, capsys, line, message):
    good = ScanRecord(url="http://a.test/y", site="a.test", template="a.test/y",
                      status="not_vulnerable", reason="no_reflection")
    records = tmp_path / "records.jsonl"
    records.write_text(good.to_json() + "\n\n" + line + "\n")
    assert main(["summarize", "--in", str(records)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {records}:3: ")
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_summarize_cli_undecodable_file_exits_2(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_bytes(b'{"url": "\xff"}\n')
    assert main(["summarize", "--in", str(records)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {records}: ")


def test_doctype_classify_cli(capsys):
    assert main(["doctype", "classify", "--doctype", "html"]) == 0
    out = capsys.readouterr().out
    assert "chrome=standards" in out
    assert "internet_explorer=standards" in out

    assert main(["doctype", "classify", "--doctype", "(none)"]) == 0
    assert "chrome=quirks" in capsys.readouterr().out

    assert (
        main(
            [
                "doctype",
                "classify",
                "--doctype",
                'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"',
                "--profile",
                "firefox",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "firefox=quirks" in out
    assert "chrome" not in out


def test_doctype_classify_unknown_profile(capsys):
    assert main(["doctype", "classify", "--doctype", "html", "--profile", "netscape"]) == 2


def test_mock_serve_cli():
    proc = subprocess.Popen(
        [sys.executable, "-m", "rposcan.cli", "mock", "serve", "--config", str(DEMO_CONFIG), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "http://127.0.0.1:" in line
        port = int(line.split("http://127.0.0.1:")[1].split("/")[0])
        client = RequestsClient(timeout=2)
        deadline = time.monotonic() + 5
        while True:
            try:
                resp = client.fetch(HttpRequest(parse_url(f"http://127.0.0.1:{port}/app/page.php/x//")))
                break
            except NetworkError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert resp.status == 200
        assert b"/app/page.php/x//" in resp.body
        # Ctrl-C: the KeyboardInterrupt path shuts the server down and exits 0
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
        assert proc.returncode == 0, err
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=5)  # also closes the pipes


def _serve_no_longer_than_a_moment(monkeypatch):
    """End ``mock serve``'s wait at once, so a config or port the CLI wrongly
    serves fails the test (exit 0) instead of hanging the run."""

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=interrupt))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"name": "t", "routing": ', "Expecting value"),
        ('{"name": "t"}', "missing config key(s): routing"),
        ("{}", "missing config key(s): name, routing"),
        ("[]", "a config is a JSON object, not []"),
        ("[5]", "a config is a JSON object, not [5]"),
        (
            '{"name": "t", "routing": "exact_file", "serve_real_stylesheets": true, '
            '"stylesheet_refs": ["\u00e9.css"]}',
            "illegal character",
        ),
        ('{"name": "t", "routing": "exact_file", "nosnif": true}', "unknown config key(s): nosnif"),
        ('{"name": "t", "routing": "exact_file", "nosniff": "false"}', "nosniff"),
        ('{"name": "t", "routing": "exact_file", "stylesheet_refs": "style.css"}',
         "stylesheet_refs"),
        ('{"name": "t", "routing": "nowhere"}', 'config key routing: "nowhere" does not fit'),
    ],
    ids=["malformed-json", "missing-routing", "empty-object", "empty-list", "list-of-number",
         "unresolvable-stylesheet-ref", "unknown-key",
         "string-for-bool", "string-for-list", "unknown-routing"],
)
def test_mock_serve_cli_bad_config_exits_2(tmp_path, capsys, monkeypatch, text, message):
    _serve_no_longer_than_a_moment(monkeypatch)
    config = tmp_path / "target.json"
    config.write_text(text)
    assert main(["mock", "serve", "--config", str(config), "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err


def test_mock_serve_cli_busy_or_invalid_port_exits_2(capsys, monkeypatch):
    _serve_no_longer_than_a_moment(monkeypatch)
    serve_on = ["mock", "serve", "--config", str(DEMO_CONFIG), "--port"]
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        assert main(serve_on + [str(port)]) == 2
    assert capsys.readouterr().err.startswith(f"error: port {port}: ")
    assert main(serve_on + ["70000"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_allow_suffix_lifts_blocklist():
    base = ScanConfig()
    assert ethics_gate(parse_url("http://lab.gov/x"), base) is False
    blocked = tuple(s for s in base.blocked_suffixes if s != ".gov")
    lifted = ScanConfig(blocked_suffixes=blocked)
    assert ethics_gate(parse_url("http://lab.gov/x"), lifted) is True
    # the rest of the default list still applies
    assert ethics_gate(parse_url("http://lab.mil/x"), lifted) is False


def test_scan_cli_allow_suffix_any_case_and_unknown_suffix(tmp_path, capsys, monkeypatch):
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    mock = InProcessClient({"lab.gov": target, "lab.mil": target})
    # the scan's network client answers from the mock, so nothing leaves the process
    monkeypatch.setattr(reports, "RequestsClient", lambda timeout: mock)
    seed = tmp_path / "seed.txt"
    seed.write_text("http://lab.GOV/app/page.php\nhttp://lab.mil/app/page.php\n")
    out = tmp_path / "records.jsonl"
    args = ["scan", "--seed", str(seed), "--out", str(out), "--delay", "0"]
    assert main(args + ["--allow-suffix", "GOV"]) == 0
    status = {r.url: r.status for r in read_records(str(out))}
    assert status == {
        "http://lab.gov/app/page.php": "exploitable",
        "http://lab.mil/app/page.php": "ethics_blocked",
    }
    capsys.readouterr()

    out.unlink()
    assert main(args + ["--allow-suffix", ".gv"]) == 2
    assert "error: --allow-suffix .gv is not on the blocklist" in capsys.readouterr().err
    assert not out.exists()


def test_scan_config_rejects_nan_delay_and_timeout():
    # NaN compares false both ways, so a plain "< 0" check would let it through
    with pytest.raises(ValueError, match="per_host_delay"):
        ScanConfig(per_host_delay=float("nan"))
    with pytest.raises(ValueError, match="request_timeout"):
        ScanConfig(request_timeout=float("nan"))
    assert ScanConfig(per_host_delay=0.0).per_host_delay == 0.0
