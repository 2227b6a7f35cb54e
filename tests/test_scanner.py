import copy
import gzip
import itertools
import re
import time
from dataclasses import replace

import pytest

import reference_impls
from test_httpclient import FakeClock, chunked, local_server, url_of

from rposcan import scanning
from rposcan.httpclient import (
    HttpRequest,
    HttpResponse,
    NetworkError,
    RateLimitedClient,
    RecordingClient,
    RequestsClient,
)
from rposcan.mock_target import (
    DOCTYPE_QUIRKS,
    DOCTYPE_STANDARDS,
    InProcessClient,
    NewlineHandling,
    Routing,
    Sink,
    TargetConfig,
    compute_ground_truth,
    fixture_matrix,
    handle_request,
    newline_configs,
    serve,
    verdict_matches_truth,
)
from rposcan.mutations import MutationTechnique, applicable_techniques
from rposcan.payloads import NewlineVariant, generate_nonce
from rposcan.rendering import ATTACKER_ORIGIN, Engine, default_profiles
from rposcan.reports import run_scan
from rposcan.scanning import (
    Blocker,
    NotVulnerableReason,
    ScanConfig,
    ScanStatus,
    ScanVerdict,
    ethics_gate,
    scan_page,
    verify_exploitable,
)
from rposcan.urls import host_key, parse_url

PROFILES = tuple(default_profiles())


def make_config(**overrides) -> ScanConfig:
    defaults = dict(per_host_delay=0.0, profiles=PROFILES)
    defaults.update(overrides)
    return ScanConfig(**defaults)


def client_for(target: TargetConfig, host: str = "mock.test") -> InProcessClient:
    return InProcessClient({host: target})


def scan(target: TargetConfig, **config_overrides):
    config = make_config(**config_overrides)
    client = client_for(target)
    seed = target.seed_url("http://mock.test")
    verdict = scan_page(seed, target.seed_cookies, client, config)
    return verify_exploitable(verdict, client, config), client, config


def test_ethics_gate():
    config = make_config()
    assert ethics_gate(parse_url("http://agency.gov/x"), config) is False
    assert ethics_gate(parse_url("http://example.com/x"), config) is True
    assert ethics_gate(parse_url("http://x.airforce/y"), config) is False
    assert ethics_gate(parse_url("http://sub.domain.mil/"), config) is False
    assert ethics_gate(parse_url("http://government.com/"), config) is True


def test_scan_finds_pathinfo_url_reflection():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict.technique is MutationTechnique.PATH_PARAM_SIMPLE
    assert verdict.reflected_stylesheet_url is not None
    assert verdict.newline is not None


def test_scan_base_tag_means_not_vulnerable():
    target = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS, emit_base_tag=True
    )
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.BASE_TAG


def test_scan_absolute_only_refs():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        stylesheet_refs=["/static/a.css", "http://cdn.invalid/b.css"],
    )
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.NO_RELATIVE_STYLESHEETS


def test_scan_no_reflection_when_sinks_silent():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset(),
        doctype=DOCTYPE_QUIRKS,
    )
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.NO_REFLECTION


def test_verify_quirks_no_defenses_exploitable_everywhere():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert all(r.exploitable for r in verdict.profile_results.values())
    assert all(not r.framed for r in verdict.profile_results.values())


def test_verify_standards_only_ie_framed():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_STANDARDS)
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    for engine, result in verdict.profile_results.items():
        if engine is Engine.INTERNET_EXPLORER:
            assert result.exploitable and result.framed
        else:
            assert not result.exploitable
            assert Blocker.STANDARDS_MODE in result.blockers


def test_verify_quirks_nosniff_asymmetry():
    target = TargetConfig(
        name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS, nosniff=True
    )
    verdict, _, _ = scan(target)
    results = verdict.profile_results
    assert results[Engine.CHROME].exploitable
    assert results[Engine.OPERA].exploitable
    assert results[Engine.SAFARI].exploitable
    for engine in (Engine.FIREFOX, Engine.EDGE, Engine.INTERNET_EXPLORER):
        assert not results[engine].exploitable
        assert Blocker.NOSNIFF in results[engine].blockers


def test_verify_xfo_deny_blocks_framed_path():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_frame_options="DENY",
    )
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.VULNERABLE
    ie = verdict.profile_results[Engine.INTERNET_EXPLORER]
    assert not ie.exploitable
    assert Blocker.X_FRAME_OPTIONS in ie.blockers


def test_verify_x_ua_compatible_blocks_override():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_STANDARDS,
        x_ua_compatible="IE=edge",
    )
    verdict, _, _ = scan(target)
    ie = verdict.profile_results[Engine.INTERNET_EXPLORER]
    assert not ie.exploitable
    assert Blocker.X_UA_COMPATIBLE in ie.blockers


def test_cookie_technique_end_to_end():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
        seed_cookies={"sid": "abc", "lang": "en"},
        doctype=DOCTYPE_QUIRKS,
    )
    verdict, _, _ = scan(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict.technique is MutationTechnique.COOKIE


def test_only_get_requests_emitted():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    config = make_config()
    recording = RecordingClient(client_for(target))
    seed = target.seed_url("http://mock.test")
    verdict = scan_page(seed, {}, recording, config)
    verify_exploitable(verdict, recording, config)
    assert recording.exchanges
    assert all(x.request.method == "GET" for x in recording.exchanges)


def test_scan_deterministic_with_fixed_seed():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    first, _, _ = scan(target, seed=7)
    second, _, _ = scan(target, seed=7)
    assert first == second

    def nonces_sent(seed: int) -> set[str]:
        config = make_config(seed=seed)
        recording = RecordingClient(client_for(target))
        probed = scan_page(target.seed_url("http://mock.test"), {}, recording, config)
        verify_exploitable(probed, recording, config)
        nonce = re.compile(r"(?<![a-z0-9])[a-z0-9]{32}(?![a-z0-9])")
        return {n for x in recording.exchanges for n in nonce.findall(x.request.url)}

    # the probe and the exploit both carry the nonce of the config's seed
    assert nonces_sent(7) == {generate_nonce(7)}
    assert nonces_sent(8) == {generate_nonce(8)}
    assert generate_nonce(7) != generate_nonce(8)


def test_network_errors_recorded_not_fatal():
    class FlakyClient:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def fetch(self, request):
            self.calls += 1
            if self.calls == 1:
                raise NetworkError("boom")
            return self.inner.fetch(request)

    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    config = make_config()
    client = FlakyClient(client_for(target))
    verdict = scan_page(target.seed_url("http://mock.test"), {}, client, config)
    assert verdict.status is ScanStatus.VULNERABLE
    assert any("boom" in e for e in verdict.errors)


def test_rate_limited_client_spacing():
    class InstantClient:
        def fetch(self, request):
            return HttpResponse(200, {}, b"")

    delay = 0.05
    # recorder inside the limiter, so timestamps are true send times
    recording = RecordingClient(InstantClient())
    limited = RateLimitedClient(recording, delay)
    for _ in range(4):
        limited.fetch(HttpRequest(parse_url("http://slow.test/x")))
    limited.fetch(HttpRequest(parse_url("http://other.test/y")))
    stamps = [x.timestamp for x in recording.exchanges if "slow.test" in x.request.url]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert len(gaps) == 3
    assert all(gap >= delay * 0.9 for gap in gaps)


def test_rate_limiter_does_not_throttle_across_hosts():
    class InstantClient:
        def fetch(self, request):
            return HttpResponse(200, {}, b"")

    limited = RateLimitedClient(InstantClient(), 0.5)
    start = time.monotonic()
    for i in range(5):
        limited.fetch(HttpRequest(parse_url(f"http://host{i}.test/x")))
    assert time.monotonic() - start < 0.4


class _SamePageClient:
    """Answers every GET with one HTML body."""

    def __init__(self, body: bytes) -> None:
        self.body = body

    def fetch(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, {"Content-Type": "text/html"}, self.body)


def test_base_tag_after_latin1_line_breaks_means_not_vulnerable():
    # "Å" in UTF-8 is C3 85, and \x85 once shifted every tag offset, which
    # put the base tag after the stylesheet link it precedes.
    body = (
        "<title>ÅÅ</title>\n".encode("utf-8")
        + b" " * 20
        + b'<base href="/">\n<link rel=stylesheet href="a.css">'
    )
    verdict = scan_page(parse_url("http://h.test/app/page.php"), {}, _SamePageClient(body), make_config())
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.BASE_TAG


# --- newline variants: FF and CR only after the server refused the one before ---


def _scan_recorded(target: TargetConfig):
    config = make_config()
    recording = RecordingClient(client_for(target))
    verdict = scan_page(target.seed_url("http://mock.test"), target.seed_cookies, recording, config)
    return verify_exploitable(verdict, recording, config), recording


def _carries(request: HttpRequest, newlines: tuple[str, ...]) -> bool:
    texts = [request.url, *request.cookies.values(), request.referer or ""]
    return any(code in text for code in newlines for text in texts)


class _NoFormFeedOrCarriageReturn:
    """Answers every fetch that carries an FF or CR byte with a network
    error, and every other fetch from the wrapped client."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if _carries(request, ("%0C", "%0D")):
            raise NetworkError("FF and CR variants are unreachable")
        return self.inner.fetch(request)


def test_refuse_crlf_falls_back_to_form_feed():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        newline_handling=NewlineHandling.REFUSE_CRLF,
    )
    verdict, recording = _scan_recorded(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict.newline is NewlineVariant.FF

    scan_log = [(x.request.url, x.status) for x in recording.exchanges[:3]]
    (lf_page, lf_status), (ff_page, ff_status), (ff_sheet, sheet_status) = scan_log
    assert "%0A" in lf_page and lf_status == 400
    assert "%0C" in ff_page and ff_status == 200
    assert ff_sheet == verdict.reflected_stylesheet_url and sheet_status == 200
    # the two verification fetches reuse the winning newline; CR is never sent
    assert len(recording.exchanges) == 5
    assert all("%0C" in x.request.url for x in recording.exchanges[3:])
    assert not any(_carries(x.request, ("%0D",)) for x in recording.exchanges)

    # with FF and CR unreachable, the same target reads as not vulnerable
    unreachable = _NoFormFeedOrCarriageReturn(client_for(target))
    verdict = scan_page(target.seed_url("http://mock.test"), {}, unreachable, make_config())
    assert verdict.status is ScanStatus.NOT_VULNERABLE


def test_refuse_all_defeats_path_techniques():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        newline_handling=NewlineHandling.REFUSE_ALL,
    )
    verdict, recording = _scan_recorded(target)
    truth = compute_ground_truth(target, list(PROFILES))
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    assert verdict.reason.value == truth.reason
    # every variant was refused, so each got its try
    assert [x.status for x in recording.exchanges] == [400] * 6


def test_refuse_all_leaves_the_cookie_technique():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        sinks=frozenset({Sink.ECHO_COOKIE_VALUES}),
        seed_cookies={"sid": "abc"},
        doctype=DOCTYPE_QUIRKS,
        newline_handling=NewlineHandling.REFUSE_ALL,
    )
    verdict, _ = _scan_recorded(target)
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict.technique is MutationTechnique.COOKIE
    assert verdict.newline is NewlineVariant.LF


def test_newline_configs_match_answer_key():
    entries = newline_configs(list(PROFILES))
    assert {c.newline_handling for c, _ in entries} == set(NewlineHandling) - {NewlineHandling.PASS}
    missed = []
    for target, truth in entries:
        verdict, recording = _scan_recorded(target)
        if verdict_matches_truth(verdict, truth):
            missed.append(target.name)
            # an echo cut at LF is not a refusal, so FF and CR never get a try
            assert target.newline_handling is NewlineHandling.CUT_AT_LF
            assert truth.vulnerable and verdict.status is ScanStatus.NOT_VULNERABLE
            assert not any(_carries(x.request, ("%0C", "%0D")) for x in recording.exchanges)
    # what sending FF and CR only after a refused LF loses on these configs
    assert missed == [
        "cut-at-lf-pathinfo-url-quirks",
        "cut-at-lf-pathinfo-url-standards",
        "cut-at-lf-exactfile-url-quirks",
        "cut-at-lf-encslash-query-quirks",
        "cut-at-lf-pathinfo-cookie-quirks",
    ]


def test_refuse_crlf_over_loopback():
    target = TargetConfig(
        name="t",
        routing=Routing.PATH_INFO_REWRITE,
        doctype=DOCTYPE_QUIRKS,
        newline_handling=NewlineHandling.REFUSE_CRLF,
    )
    config = make_config()
    recording = RecordingClient(RequestsClient(timeout=5))
    handle = serve(target, port=0)
    try:
        seed = target.seed_url(f"http://127.0.0.1:{handle.port}")
        verdict = verify_exploitable(scan_page(seed, {}, recording, config), recording, config)
    finally:
        handle.shutdown()
    assert verdict.status is ScanStatus.EXPLOITABLE
    assert verdict.newline is NewlineVariant.FF
    assert [x.status for x in recording.exchanges] == [400, 200, 200, 200, 200]


@pytest.mark.parametrize("header, coding, frame, error", [
    ("Content-Encoding", "br", lambda body: body, "content coding 'br'"),
    ("Transfer-Encoding", "gzip, chunked", chunked, "transfer coding 'gzip, chunked'"),
], ids=["content-br", "transfer-gzip-chunked"])
def test_a_body_in_a_coding_the_client_cannot_read_fails_the_page_fetch(header, coding, frame, error):
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)

    def respond(handler):  # the mock's answer, gzipped and labelled with the coding
        answer = handle_request(target, handler.headers["Host"], handler.path, {}, handler.headers["Referer"])
        return answer.status, [*answer.headers.items(), (header, coding)], frame(gzip.compress(answer.body))

    with local_server(respond=respond) as server:
        seed = target.seed_url(f"http://127.0.0.1:{server.server_address[1]}")
        verdict = scan_page(seed, {}, RequestsClient(timeout=5), make_config())
    assert verdict.reason is NotVulnerableReason.FETCH_FAILED
    assert verdict.errors and all(error in e for e in verdict.errors)


def _matrix_hosts() -> dict[str, TargetConfig]:
    entries = fixture_matrix(default_profiles())
    return {f"m{i}.test": target for i, (target, _) in enumerate(entries)}


def _scan_all(hosts: dict[str, TargetConfig], client) -> list:
    config = make_config()
    verdicts = []
    for host, target in hosts.items():
        seed = target.seed_url(f"http://{host}")
        verdict = scan_page(seed, target.seed_cookies, client, config)
        verdicts.append(verify_exploitable(verdict, client, config))
    return verdicts


def test_matrix_request_budget():
    # 58 configs, scan plus verification: LF probes only, since no matrix
    # server refuses a newline.  More requests mean wasted probes came back.
    hosts = _matrix_hosts()
    recording = RecordingClient(InProcessClient(hosts))
    _scan_all(hosts, recording)
    assert len(hosts) == 58
    assert len(recording.exchanges) == 253
    urls = [x.request.url for x in recording.exchanges]
    assert not any("%0C" in url or "%0D" in url for url in urls)


@pytest.mark.parametrize("fires", [True, False], ids=["oracle-true", "oracle-false"])
def test_lazy_oracle_judges_like_the_eager_reference(monkeypatch, fires):
    # The oracle is forced, so the only difference left is when it is asked:
    # verify_exploitable asks only once some profile is otherwise unblocked.
    calls = 0

    def oracle(body, nonce_url):
        nonlocal calls
        calls += 1
        return fires

    monkeypatch.setattr(scanning, "css_would_fire", oracle)
    profiles = default_profiles()
    config = make_config()
    checked = asked = 0
    for target, _ in fixture_matrix(profiles) + newline_configs(profiles):
        client = client_for(target)
        seed = target.seed_url("http://mock.test")
        verdict = scan_page(seed, target.seed_cookies, client, config)
        if verdict.status is not ScanStatus.VULNERABLE:
            continue
        calls = 0
        expected = reference_impls.verify_exploitable(copy.deepcopy(verdict), client, config)
        eager_calls, calls = calls, 0
        got = verify_exploitable(copy.deepcopy(verdict), client, config)
        assert got == expected, target.name
        assert calls <= eager_calls, target.name
        if fires:
            assert calls == (got.status is ScanStatus.EXPLOITABLE), target.name
        checked += 1
        asked += calls
    assert checked > 40
    # some vulnerable configs are blocked for every engine and skip the oracle
    assert 0 < asked < checked


# every X-Frame-Options the framing rule reads differently, and a typo
_FRAME_OPTIONS = [
    None, "DENY", "SAMEORIGIN", f"ALLOW-FROM {ATTACKER_ORIGIN}", "ALLOW-FROM http://other.test", "DENNY",
]


@pytest.mark.parametrize("fires", [True, False], ids=["oracle-true", "oracle-false"])
def test_every_engine_decision_matches_the_eager_reference(monkeypatch, fires):
    # Every combination of the facts an engine is judged on, served by a stub
    # whose stylesheets all reflect; the reference judges with its own rule.
    calls = 0

    def oracle(body, nonce_url):
        nonlocal calls
        calls += 1
        return fires

    monkeypatch.setattr(scanning, "css_would_fire", oracle)
    config = make_config()
    verdict = ScanVerdict(
        ScanStatus.VULNERABLE,
        parse_url("http://h.test/app/page.php"),
        technique=MutationTechnique.PATH_PARAM_SIMPLE,
        newline=NewlineVariant.LF,
    )
    blockers, framed_wins = set(), 0
    for facts in itertools.product(
        [None, DOCTYPE_QUIRKS, DOCTYPE_STANDARDS],  # doctype
        ["text/html", "text/css"],  # the stylesheet's Content-Type
        [None, "nosniff"],  # its X-Content-Type-Options
        _FRAME_OPTIONS,  # the page's X-Frame-Options
        [None, "IE=edge"],  # its X-UA-Compatible
        [False, True],  # a base tag before the stylesheet link
    ):
        doctype, content_type, nosniff, frame_options, ua_compatible, base = facts
        page = b"" if doctype is None else f"<!DOCTYPE {doctype}>".encode()
        page += b'<base href="/">' * base + b'<link rel=stylesheet href="style.css">'
        page_headers = {"X-Frame-Options": frame_options, "X-UA-Compatible": ua_compatible}
        sheet_headers = {"Content-Type": content_type, "X-Content-Type-Options": nosniff}
        client = _EchoSheets(
            page,
            {k: v for k, v in page_headers.items() if v is not None},
            {k: v for k, v in sheet_headers.items() if v is not None},
        )
        calls = 0
        expected = reference_impls.verify_exploitable(copy.deepcopy(verdict), client, config)
        eager_calls, calls = calls, 0
        got = verify_exploitable(copy.deepcopy(verdict), client, config)
        assert got == expected, facts
        assert calls <= eager_calls, facts
        if fires:
            assert calls == (got.status is ScanStatus.EXPLOITABLE), facts
        for result in got.profile_results.values():
            blockers.update(result.blockers)
            framed_wins += result.framed
    # the table reaches every blocker, and a framed win needs the oracle
    assert blockers == set(Blocker)
    assert (framed_wins > 0) == fires


def test_verify_leaves_its_input_verdict_unchanged():
    # The verified verdict gets its own errors list; the scan's verdict keeps
    # what the scan recorded, even when verification adds an error.
    config = make_config()
    checked, with_errors = 0, 0
    for target, _ in fixture_matrix(default_profiles()) + newline_configs(default_profiles()):
        client = client_for(target)
        seed = target.seed_url("http://mock.test")
        verdict = scan_page(seed, target.seed_cookies, client, config)
        if verdict.status is not ScanStatus.VULNERABLE:
            continue
        before = copy.deepcopy(verdict)
        verified = verify_exploitable(verdict, client, config)
        assert verdict == before, target.name
        if target.name == "encslash-url-nodoc-plain":
            assert verified.errors == ["exploit payload did not reflect"]
        checked += 1
        with_errors += bool(verified.errors)
    assert checked > 40 and with_errors > 0


# --- verdict paths the mock's configs never reach ---


class _DownClient:
    """Fails every fetch."""

    def fetch(self, request: HttpRequest) -> HttpResponse:
        raise NetworkError("connection refused")


def test_every_page_fetch_failing_means_fetch_failed():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    verdict = scan_page(target.seed_url("http://mock.test"), {}, _DownClient(), make_config())
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.FETCH_FAILED
    assert verdict.errors and all("connection refused" in e for e in verdict.errors)


def test_failed_exploit_page_fetch_leaves_the_verdict_unverified():
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    config = make_config()
    probed = scan_page(target.seed_url("http://mock.test"), {}, client_for(target), config)
    assert probed.status is ScanStatus.VULNERABLE
    verdict = verify_exploitable(probed, _DownClient(), config)
    assert verdict.status is ScanStatus.VULNERABLE
    assert verdict.profile_results == {}
    assert verdict.errors[-1] == "exploit page fetch failed; verdict left unverified"


class _BaseTagLater:
    """Answers from the wrapped client, and once ``add_base`` is set puts a
    blocking ``<base>`` at the top of every HTML head."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.add_base = False

    def fetch(self, request: HttpRequest) -> HttpResponse:
        response = self.inner.fetch(request)
        if not self.add_base:
            return response
        body = response.body.replace(b"<head>", b'<head><base href="/">', 1)
        return HttpResponse(response.status, response.headers, body)


def test_base_tag_on_the_exploit_page_only_blocks_engines_it_binds():
    # scan_page gives up on a blocking base before any stylesheet fetch, so
    # Blocker.BASE_TAG shows only when the base appears between probe and
    # exploit; Internet Explorer's profile ignores the base tag
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    config = make_config()
    client = _BaseTagLater(client_for(target))
    probed = scan_page(target.seed_url("http://mock.test"), {}, client, config)
    assert probed.status is ScanStatus.VULNERABLE
    client.add_base = True
    verdict = verify_exploitable(probed, client, config)
    assert verdict.status is ScanStatus.EXPLOITABLE
    results = {engine: (r.exploitable, r.framed, r.blockers)
               for engine, r in verdict.profile_results.items()}
    blocked = (False, False, [Blocker.BASE_TAG])
    assert results == {
        Engine.CHROME: blocked,
        Engine.OPERA: blocked,
        Engine.SAFARI: blocked,
        Engine.FIREFOX: blocked,
        Engine.EDGE: blocked,
        Engine.INTERNET_EXPLORER: (True, False, []),
    }


_FACTS = {
    "base": b'<base href="/"><link rel=stylesheet href="a.css">',
    "refs": b"<link rel=stylesheet href=a.css>",
    "none": b"<p>no stylesheet</p>",
}


class _FactPerTechnique:
    """Answers each page fetch of ``PATH_PARAM_SIMPLE`` with ``first`` and of
    ``ENCODED_PATH`` with ``second``: a key of ``_FACTS``, or "fail" for a
    network error.  Stylesheets come back empty, so nothing reflects."""

    def __init__(self, first: str, second: str) -> None:
        self.first, self.second = first, second

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.referer is not None:
            return HttpResponse(200, {"Content-Type": "text/css"}, b"")
        fact = self.second if "%2F.." in request.url else self.first
        if fact == "fail":
            raise NetworkError("refused")
        return HttpResponse(200, {"Content-Type": "text/html"}, _FACTS[fact])


@pytest.mark.parametrize("first, second, reason", [
    ("base", "refs", NotVulnerableReason.BASE_TAG),
    ("refs", "base", NotVulnerableReason.BASE_TAG),
    ("none", "base", NotVulnerableReason.BASE_TAG),
    ("fail", "base", NotVulnerableReason.BASE_TAG),
    ("refs", "none", NotVulnerableReason.NO_REFLECTION),
    ("none", "refs", NotVulnerableReason.NO_REFLECTION),
    ("fail", "refs", NotVulnerableReason.NO_REFLECTION),
    ("fail", "none", NotVulnerableReason.NO_RELATIVE_STYLESHEETS),
    ("none", "fail", NotVulnerableReason.NO_RELATIVE_STYLESHEETS),
    ("fail", "fail", NotVulnerableReason.FETCH_FAILED),
])
def test_a_page_gets_the_strongest_reason_any_technique_showed(first, second, reason):
    url = parse_url("http://h.test/app/page.php")
    client = _FactPerTechnique(first, second)
    assert applicable_techniques(url) == [
        MutationTechnique.PATH_PARAM_SIMPLE, MutationTechnique.ENCODED_PATH,
    ]
    verdict = scan_page(url, {}, client, make_config())
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is reason


class _EchoSheets:
    """Answers every page fetch with ``page`` and every stylesheet fetch with
    its own URL as the body, so each stylesheet fetched reflects; each kind
    of response carries its own headers."""

    def __init__(self, page: bytes, page_headers=None, sheet_headers=None) -> None:
        self.page = page
        self.page_headers = page_headers or {"Content-Type": "text/html"}
        self.sheet_headers = sheet_headers or {"Content-Type": "text/css"}

    def fetch(self, request: HttpRequest) -> HttpResponse:
        if request.referer is None:
            return HttpResponse(200, self.page_headers, self.page)
        return HttpResponse(200, self.sheet_headers, request.url.encode())


@pytest.mark.parametrize("href, written", [
    ("my style.css", "my%20style.css"),
    ("café.css", "caf%C3%A9.css"),
])
@pytest.mark.parametrize("encoding", ["latin-1", "utf-8"])
def test_an_href_a_browser_percent_encodes_is_fetched_encoded(href, written, encoding):
    page = f'<link rel=stylesheet href="{href}"><link rel=stylesheet href="../style.css">'
    url = parse_url("http://h.test/app/page.php")
    # "é" is one byte in Latin-1 and two in UTF-8; both read as "é"
    verdict = scan_page(url, {}, _EchoSheets(page.encode(encoding)), make_config())
    assert verdict.status is ScanStatus.VULNERABLE
    assert verdict.reflected_stylesheet_url.endswith("/" + written)
    assert verdict.errors == []


def test_an_href_that_does_not_resolve_is_left_out_and_named():
    page = b'<link rel=stylesheet href="a[1].css"><link rel=stylesheet href="../style.css">'
    url = parse_url("http://h.test/app/page.php")
    verdict = scan_page(url, {}, _EchoSheets(page), make_config())
    assert verdict.status is ScanStatus.VULNERABLE
    assert verdict.reflected_stylesheet_url.endswith("/style.css")
    assert len(verdict.errors) == 1 and "'a[1].css'" in verdict.errors[0]

    # named once, though each technique's page carries it; with no sheet
    # fetched, the page shows no relative stylesheet
    page = b'<link rel=stylesheet href="a[1].css">'
    url = parse_url("http://h.test/app/page.php;a=1?x=y")
    verdict = scan_page(url, {"sid": "1"}, _EchoSheets(page), make_config())
    assert verdict.reason is NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    assert len(applicable_techniques(url, {"sid": "1"})) == 5
    assert len(verdict.errors) == 1 and "'a[1].css'" in verdict.errors[0]


# --- redirects: each hop is a request of its own ---


class _Redirects:
    """Answers a GET of a URL in ``routes`` with its (status, headers), any
    other with an empty 200, and keeps every request."""

    def __init__(self, routes: dict[str, tuple[int, dict[str, str]]]) -> None:
        self.routes = routes
        self.requests: list[HttpRequest] = []

    def fetch(self, request: HttpRequest) -> HttpResponse:
        self.requests.append(request)
        status, headers = self.routes.get(request.url, (200, {}))
        return HttpResponse(status, headers, b"")


def _follow(client, url: str, **kwargs):
    errors: list[str] = []
    return scanning._fetch(client, make_config(), parse_url(url), errors, **kwargs), errors


def test_redirect_chain_stops_after_max_redirects():
    class Loop(_Redirects):
        def fetch(self, request: HttpRequest) -> HttpResponse:
            self.requests.append(request)
            return HttpResponse(302, {"Location": f"/loop{len(self.requests)}"}, b"")

    client = Loop({})
    response, errors = _follow(client, "http://h.test/start")
    assert response is None
    assert scanning.MAX_REDIRECTS == 5
    assert [r.url for r in client.requests] == ["http://h.test/start"] + [
        f"http://h.test/loop{n}" for n in range(1, 6)
    ]
    assert errors == ["http://h.test/start: more than MAX_REDIRECTS (5) redirects"]


@pytest.mark.parametrize("location, hop, kept", [
    ("/next", "http://h.test/next", True),
    ("http://H.test/next", "http://h.test/next", True),
    ("http://h.test:80/next", "http://h.test:80/next", True),
    ("https://h.test/next", "https://h.test/next", False),
    ("http://h.test:8080/next", "http://h.test:8080/next", False),
    ("//other.test/next", "http://other.test/next", False),
], ids=["relative", "same-origin", "default-port", "scheme", "port", "host"])
def test_redirect_keeps_cookies_within_the_origin_and_the_referer_always(location, hop, kept):
    client = _Redirects({"http://h.test/start": (302, {"Location": location})})
    fetched, errors = _follow(client, "http://h.test/start", referer="http://h.test/page",
                              cookies={"sid": "1"})
    assert fetched is not None and fetched[0].status == 200 and errors == []
    first, second = client.requests
    assert fetched[1] == second  # the last request sent: the document's URL and cookies
    assert dict(first.cookies) == {"sid": "1"}
    assert second.url == hop
    assert dict(second.cookies) == ({"sid": "1"} if kept else {})
    assert second.referer == first.referer == "http://h.test/page"


def test_redirect_to_a_blocked_host_sends_it_nothing():
    client = _Redirects({"http://h.test/start": (302, {"Location": "http://x.gov/next"})})
    response, errors = _follow(client, "http://h.test/start")
    assert response is None
    assert [r.url for r in client.requests] == ["http://h.test/start"]
    assert errors == ["http://h.test/start: redirect to blocked host x.gov not followed"]

    # a page whose every answer is such a hop reads as a failed fetch
    class AlwaysToGov(_Redirects):
        def fetch(self, request: HttpRequest) -> HttpResponse:
            self.requests.append(request)
            return HttpResponse(302, {"Location": "http://www.x.gov/"}, b"")

    client = AlwaysToGov({})
    verdict = scan_page(parse_url("http://h.test/app/page.php"), {}, client, make_config())
    assert verdict.reason is NotVulnerableReason.FETCH_FAILED
    assert client.requests and not any(".gov" in r.url for r in client.requests)
    assert all("blocked host www.x.gov" in e for e in verdict.errors)


def test_scan_page_and_verify_send_nothing_to_a_blocked_host():
    # called directly, not through run_scan's gate, on a host the mock
    # would answer with an exploitable page
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    client = RecordingClient(InProcessClient({"agency.gov": target}))
    config = make_config()
    verdict = scan_page(parse_url("http://agency.gov/app/page.php"), {}, client, config)
    verdict = verify_exploitable(verdict, client, config)
    assert client.exchanges == []
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.FETCH_FAILED
    assert verdict.errors
    assert all(e.endswith("blocked host agency.gov not fetched") for e in verdict.errors)


def test_a_redirected_page_resolves_its_refs_against_the_last_hop():
    # every mutated page URL 301s to the page itself, as a browser would
    # then see it: its refs resolve beside /app/page.php, where nothing
    # reflects, and the Referer is that URL
    target = TargetConfig(name="pathinfo-url-quirks-plain", routing=Routing.PATH_INFO_REWRITE,
                          doctype=DOCTYPE_QUIRKS)
    inner = client_for(target)
    sheet_referers = []

    class ToThePage:
        def fetch(self, request: HttpRequest) -> HttpResponse:
            if request.referer is not None:
                sheet_referers.append(request.referer)
            elif request.web_url.path != target.page_path:
                return HttpResponse(301, {"Location": target.page_path}, b"")
            return inner.fetch(request)

    config = make_config()
    verdict = scan_page(target.seed_url("http://mock.test"), {}, ToThePage(), config)
    verdict = verify_exploitable(verdict, ToThePage(), config)
    assert verdict.status is ScanStatus.NOT_VULNERABLE
    assert verdict.reason is NotVulnerableReason.NO_REFLECTION
    assert sheet_referers and set(sheet_referers) == {"http://mock.test/app/page.php"}


@pytest.mark.parametrize("location", [
    "http://user@h.test/next",
    "http://[::1]/next",
    "http://h.test:99999/next",
    "http://h.test:x/next",
], ids=["userinfo", "ipv6", "port-range", "port-text"])
def test_redirect_to_a_location_the_url_parser_refuses_sends_nothing(location):
    client = _Redirects({"http://h.test/start": (302, {"Location": location})})
    response, errors = _follow(client, "http://h.test/start")
    assert response is None
    assert len(client.requests) == 1
    (error,) = errors
    assert error.startswith("http://h.test/start: redirect not followed: ")


def test_each_same_host_redirect_hop_waits_a_full_delay(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("rposcan.httpclient.time.monotonic", clock.monotonic)
    monkeypatch.setattr("rposcan.httpclient.time.sleep", clock.sleep)

    sends: list[float] = []

    class Stamped(_Redirects):
        def fetch(self, request: HttpRequest) -> HttpResponse:
            sends.append(clock.now)
            return super().fetch(request)

    inner = Stamped({
        "http://h.test/a": (302, {"Location": "/b"}),
        "http://h.test/b": (302, {"Location": "/c"}),
    })
    fetched, errors = _follow(RateLimitedClient(inner, 0.2), "http://h.test/a")
    assert fetched is not None and fetched[0].status == 200 and errors == []
    assert [r.url for r in inner.requests] == ["http://h.test/a", "http://h.test/b", "http://h.test/c"]
    gaps = [after - before for before, after in zip(sends, sends[1:])]
    assert len(gaps) == 2 and min(gaps) >= 0.2 - 1e-9, gaps


def test_run_scan_paces_gates_and_logs_redirect_hops_over_loopback(tmp_path):
    # The page 302s to another path on the same server, and the first of two
    # sheets 302s to a blocked host: the record is the one the scanner gives
    # for the page without that sheet and without redirects, plus an error
    # for each blocked hop, except that the refs resolve against the page's
    # last hop, under /moved/.
    delay = 0.05
    plain = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS)
    target = replace(plain, stylesheet_refs=["../print.css", *plain.stylesheet_refs])

    def respond(handler):
        path = handler.path
        if path.endswith("print.css"):
            return 302, [("Location", "http://blocked.gov/print.css")], b""
        if not path.endswith(".css") and not path.startswith("/moved/"):
            return 302, [("Location", "/moved" + path)], b""
        response = handle_request(target, handler.headers["Host"], path.removeprefix("/moved"), {},
                                  handler.headers.get("Referer"))
        return response.status, list(response.headers.items()), response.body

    with local_server(respond=respond) as server:
        seed = tmp_path / "seed.txt"
        seed.write_text(f"{url_of(server, plain.page_path)}\n")
        recorder = RecordingClient(RequestsClient(timeout=5))
        (record,) = run_scan(str(seed), make_config(per_host_delay=delay), base_client=recorder)
    (expected,) = run_scan(str(seed), make_config(),
                           base_client=InProcessClient({host_key(url_of(server)): plain}))

    assert record.status == "exploitable" and expected.errors == []
    origin = url_of(server).origin
    moved = expected.reflected_stylesheet_url.replace(origin, origin + "/moved", 1)
    assert record.reflected_stylesheet_url == moved
    unstamped = dict(started_at=None, finished_at=None, errors=[], reflected_stylesheet_url=None)
    assert replace(record, **unstamped) == replace(expected, **unstamped)
    assert len(record.errors) == 2  # the probe's and the exploit's
    assert all(e.endswith("print.css: redirect to blocked host blocked.gov not followed")
               for e in record.errors)

    assert [x.status for x in recorder.exchanges] == [302, 200, 302, 200] * 2
    assert not any(host_key(x.request.web_url).endswith(".gov") for x in recorder.exchanges)
    stamps = [x.timestamp for x in recorder.exchanges]
    gaps = [after - before for before, after in zip(stamps, stamps[1:])]
    assert min(gaps) >= 0.9 * delay, gaps
