import pathlib
import socket
import subprocess
import sys
import time

import pytest

from rposcan.cli import main
from rposcan.httpclient import HttpRequest, NetworkError, RequestsClient
from rposcan.mock_target import DOCTYPE_QUIRKS, Routing, TargetConfig, serve
from rposcan.reports import read_records
from rposcan.scanning import ScanConfig, ethics_gate
from rposcan.urls import parse_url


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
        records = read_records(str(out))
        assert len(records) == 1
        assert records[0].status == "exploitable"
        assert records[0].technique == "path_param_simple"
    finally:
        handle.shutdown()


def test_scan_cli_missing_seed_exits_2(tmp_path):
    assert main(["scan", "--seed", str(tmp_path / "missing.txt")]) == 2


def test_scan_cli_bad_slash_padding_exits_2(tmp_path, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text("")
    assert main(["scan", "--seed", str(seed), "--slash-padding", "0"]) == 2
    assert "error: slash_padding must be >= 1" in capsys.readouterr().err


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
    config_path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "demo_target.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "rposcan.cli", "mock", "serve", "--config", str(config_path), "--port", "0"],
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
                resp = client.fetch(HttpRequest(url=f"http://127.0.0.1:{port}/app/page.php/x//"))
                break
            except NetworkError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert resp.status == 200
        assert b"/app/page.php/x//" in resp.body
    finally:
        proc.terminate()
        proc.communicate(timeout=5)  # also closes the pipes


def test_allow_suffix_lifts_blocklist():
    base = ScanConfig()
    assert ethics_gate(parse_url("http://lab.gov/x"), base) is False
    blocked = tuple(s for s in base.blocked_suffixes if s != ".gov")
    lifted = ScanConfig(blocked_suffixes=blocked)
    assert ethics_gate(parse_url("http://lab.gov/x"), lifted) is True
    # the rest of the default list still applies
    assert ethics_gate(parse_url("http://lab.mil/x"), lifted) is False


def test_scan_config_rejects_nan_delay_and_timeout():
    # NaN compares false both ways, so a plain "< 0" check would let it through
    with pytest.raises(ValueError, match="per_host_delay"):
        ScanConfig(per_host_delay=float("nan"))
    with pytest.raises(ValueError, match="request_timeout"):
        ScanConfig(request_timeout=float("nan"))
    assert ScanConfig(per_host_delay=0.0).per_host_delay == 0.0
