"""The benchmark's own tests: run with ``python -m pytest bench -q``."""

import json
import pathlib
import subprocess
import sys
from dataclasses import replace
from types import ModuleType, SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from rposcan.mock_target import (  # noqa: E402
    InProcessClient,
    compute_ground_truth,
    fixture_matrix,
    verdict_matches_truth,
)
from rposcan.rendering import Engine, default_profiles  # noqa: E402
from rposcan.reports import ScanRecord, record_from_verdict  # noqa: E402
from rposcan.scanning import ScanConfig, scan_page, verify_exploitable  # noqa: E402


def _bench_metrics(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric(trace, kind):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "seed-inproc",
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _bench_metrics(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seed-inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _scanned(name: str):
    profiles = default_profiles()
    target = next(c for c, _ in fixture_matrix(profiles) if c.name == name)
    truth = compute_ground_truth(target, profiles)
    client = InProcessClient({"victim.test": target})
    config = ScanConfig(per_host_delay=0.0, profiles=tuple(profiles))
    url = target.seed_url("http://victim.test")
    verdict = verify_exploitable(scan_page(url, target.seed_cookies, client, config), client, config)
    return verdict, truth, record_from_verdict(url, "t", verdict, "now")


def test_checker_accepts_right_and_rejects_wrong_verdicts():
    verdict, truth, record = _scanned("pathinfo-url-standards-plain")
    assert verdict_matches_truth(verdict, truth) == []
    assert checks.record_problems(record, truth) == []

    wrong_results = {e: replace(r, exploitable=False) for e, r in verdict.profile_results.items()}
    wrong_verdict = replace(verdict, profile_results=wrong_results)
    assert verdict_matches_truth(wrong_verdict, truth)

    framed = dict(record.profile_results)
    ie = Engine.INTERNET_EXPLORER.value
    framed[ie] = {**framed[ie], "framed": False}
    for wrong in (
        replace(record, technique="cookie"),
        replace(record, status="not_vulnerable", reason="no_reflection"),
        replace(record, status="vulnerable"),
        replace(record, profile_results=framed),
    ):
        assert checks.record_problems(wrong, truth), wrong


def test_not_vulnerable_reason_is_checked():
    _, truth, record = _scanned("pathinfo-url-quirks-basetag")
    assert checks.record_problems(record, truth) == []
    assert checks.record_problems(replace(record, reason="no_reflection"), truth)


def test_property_checks_flag_violations():
    ok = checks.Exchange("GET", "a.test", 0.0, 200, 10)
    assert checks.exchange_problems([ok], (".gov",)) == []
    assert checks.exchange_problems([replace(ok, method="POST")], (".gov",))
    assert checks.exchange_problems([replace(ok, host="x.gov:80")], (".gov",))

    assert checks.status_problems("exploitable", [False, False], "p")
    assert checks.status_problems("vulnerable", [True], "p")
    assert checks.status_problems("exploitable", [True], "p") == []

    first = ScanRecord(url="http://a.test/x", site="a.test", template="a.test/x",
                       status="vulnerable", technique="path_param_simple",
                       reflected_stylesheet_url="http://a.test/x/style.css")
    twin = replace(first, url="http://b.test/x", site="b.test", template="b.test/x",
                   reflected_stylesheet_url="http://b.test/x/style.css")
    assert checks.copy_problems({"c": [first, twin]}) == []
    assert checks.copy_problems({"c": [first, replace(twin, technique="cookie")]})


def test_short_gaps_counts_close_sends_per_host():
    sends = [checks.Exchange("GET", host, t, 200, 0)
             for host, t in (("a", 0.0), ("a", 0.019), ("a", 0.05), ("b", 0.051))]
    assert checks.short_gaps(sends, 0.025) == 1


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(1, "p", None, None, 0)
    parent.start, parent.end = 0.0, 10.0
    spans = []
    for start, end in ((1.0, 3.0), (2.0, 4.0), (9.0, 12.0)):  # overlap, and one past the end
        child = tracing.Span(len(spans) + 2, "c", 1, None, 0)
        child.start, child.end = start, end
        spans.append(child)
    assert tracing.self_time(parent, spans) == 10.0 - 3.0 - 1.0


def test_tracing_fails_loudly_on_a_missing_name():
    program = SimpleNamespace(**{name: ModuleType(f"rposcan.{name}") for name in
                                 ("scanning", "css_recovery", "mock_target", "reports",
                                  "httpclient")})
    with pytest.raises(SystemExit, match="no longer exists"):
        with tracing.installed(tracing.Tracer(), program):
            pass
