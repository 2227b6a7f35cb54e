import time

from rposcan.httpclient import (
    HttpRequest,
    HttpResponse,
    NetworkError,
    RateLimitedClient,
    RecordingClient,
)
from rposcan.mock_target import (
    DOCTYPE_QUIRKS,
    DOCTYPE_STANDARDS,
    InProcessClient,
    Routing,
    Sink,
    TargetConfig,
)
from rposcan.mutations import MutationTechnique
from rposcan.rendering import Engine, default_profiles
from rposcan.scanning import (
    Blocker,
    NotVulnerableReason,
    ScanConfig,
    ScanStatus,
    ethics_gate,
    scan_page,
    verify_exploitable,
)
from rposcan.urls import parse_url

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
    third, _, _ = scan(target, seed=8)
    assert third.nonce != first.nonce


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
        limited.fetch(HttpRequest(url="http://slow.test/x"))
    limited.fetch(HttpRequest(url="http://other.test/y"))
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
        limited.fetch(HttpRequest(url=f"http://host{i}.test/x"))
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
