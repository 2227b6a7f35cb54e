"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The end-to-end criteria run the 58-config mock matrix over real loopback
HTTP through the full politeness stack, once, shared by criteria 5 and 7.
"""

import pathlib
import random
import string
import time
from contextlib import contextmanager
from urllib.parse import quote

import pytest

from rposcan.css_recovery import css_would_fire, token_trace
from rposcan.httpclient import RateLimitedClient, RecordingClient, RequestsClient
from rposcan.mock_target import fixture_matrix, serve, verdict_matches_truth
from rposcan.mutations import MutationTechnique, expand_stylesheet_targets, mutate
from rposcan.payloads import NewlineVariant, build_reflection_payload, generate_nonce
from rposcan.rendering import (
    Engine,
    RenderingMode,
    ResponseSecurity,
    classify_doctype,
    default_profiles,
    framing_allowed,
    stylesheet_accepted,
)
from rposcan.scanning import (
    Blocker,
    NotVulnerableReason,
    ScanConfig,
    ScanStatus,
    scan_page,
    verify_exploitable,
)
from rposcan.urls import (
    WebUrl,
    browser_base_directory,
    host_key,
    parse_url,
    resolve_relative,
    serialize_url,
    server_view,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PROFILES = default_profiles()

# Per-host politeness delay for the loopback run: large enough that OS
# scheduling jitter on the recorded send times stays inside the 10% margin.
MATRIX_DELAY = 0.025


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


def _random_url(rng: random.Random) -> WebUrl:
    scheme = rng.choice(["http", "https"])
    host = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8))) + ".test"
    atoms = ["a", "b7", "page.php", "%2F", "%41", ".", "..", "x-y", "%7B", "%252F", ""]
    depth = rng.randint(1, 5)
    segments = tuple(
        "".join(rng.choices(atoms, k=rng.randint(0, 3))) for _ in range(depth)
    ) or ("",)
    query = rng.choice([None, "k=v", "a=1&b=2"])
    return WebUrl(scheme=scheme, host=host, port=None, path_segments=segments, query=query)


def test_criterion_1_resolver_conformance():
    with criterion(1, "resolver conformance"):
        started = time.monotonic()

        base = parse_url("http://example.com/rpo/test.php")
        assert (
            serialize_url(resolve_relative(base, "dist/styles.css"))
            == "http://example.com/rpo/dist/styles.css"
        )
        trailing = parse_url("http://example.com/rpo/test.php/")
        assert (
            serialize_url(resolve_relative(trailing, "dist/styles.css"))
            == "http://example.com/rpo/test.php/dist/styles.css"
        )

        rng = random.Random(20180423)
        for _ in range(500):
            url = _random_url(rng)
            # empty reference keeps the browser's base directory
            assert browser_base_directory(resolve_relative(url, "")) == browser_base_directory(url)
            # absolute reference replaces the base outright
            other = _random_url(rng)
            assert resolve_relative(url, serialize_url(other)) == parse_url(serialize_url(other))
            # server view is idempotent once its decoded output is re-encoded
            once = server_view(url)
            again = WebUrl(
                scheme=url.scheme,
                host=url.host,
                port=None,
                path_segments=tuple(quote(seg, safe="") for seg in once.split("/")[1:]),
            )
            assert server_view(again) == once
            # parsing never decodes: serialization round-trips byte-for-byte
            text = serialize_url(url)
            assert serialize_url(parse_url(text)) == text

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"resolver run took {elapsed:.1f}s"


def test_criterion_2_mutation_properties():
    with criterion(2, "mutation properties"):
        started = time.monotonic()
        payload = build_reflection_payload(generate_nonce(0), NewlineVariant.LF)

        url = parse_url("http://example.com/app/page.php")
        mutated = mutate(url, MutationTechnique.PATH_PARAM_SIMPLE, payload)
        for depth in range(20):
            ref = "../" * depth + "style.css"
            resolved = expand_stylesheet_targets(mutated.url, [ref], [])[0]
            assert payload in resolved.path, f"payload lost at depth {depth}"

        rng = random.Random(20180424)
        segments_pool = ["dir", "a", "b9", "page.aspx", "idx.php", "x%41y", "v-2", "data"]
        failures = 0
        for _ in range(1000):
            depth = rng.randint(1, 5)
            path = "/" + "/".join(rng.choice(segments_pool) for _ in range(depth))
            original = parse_url("http://corpus.test" + path)
            out = mutate(original, MutationTechnique.ENCODED_PATH, payload)
            if server_view(out.url) != server_view(original):
                failures += 1
        assert failures == 0

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"mutation run took {elapsed:.1f}s"


def test_criterion_3_doctype_vectors():
    with criterion(3, "doctype classification vectors"):
        table4 = [
            None,
            'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"',
            'html PUBLIC "-//W3C//DTD HTML 4.0 Transitional//EN"',
            'html PUBLIC "-//W3C//DTD HTML 3.2 Final//EN"',
            'html PUBLIC "-//W3C//DTD HTML 3.2//EN"',
        ]
        mismatches = 0
        for doctype in table4:
            for profile in PROFILES:
                if classify_doctype(doctype, profile) is not RenderingMode.QUIRKS:
                    mismatches += 1
        for profile in PROFILES:
            if classify_doctype("html", profile) is not RenderingMode.STANDARDS:
                mismatches += 1

        vectors = []
        for line in (FIXTURES / "doctypes_50.txt").read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vectors.append(None if line == "(none)" else line)
        assert len(vectors) >= 50

        by_engine = {p.engine: p for p in PROFILES}
        webkit = [by_engine[e] for e in (Engine.CHROME, Engine.OPERA, Engine.SAFARI)]
        microsoft = [by_engine[e] for e in (Engine.EDGE, Engine.INTERNET_EXPLORER)]
        for doctype in vectors:
            if len({classify_doctype(doctype, p) for p in webkit}) != 1:
                mismatches += 1
            if len({classify_doctype(doctype, p) for p in microsoft}) != 1:
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_header_semantics():
    with criterion(4, "security header semantics"):
        mismatches = 0
        sheet = ResponseSecurity(content_type="text/html", nosniff=True)
        expected_blocked = {Engine.FIREFOX, Engine.EDGE, Engine.INTERNET_EXPLORER}
        for profile in PROFILES:
            accepted = stylesheet_accepted(profile, RenderingMode.QUIRKS, sheet)
            if accepted == (profile.engine in expected_blocked):
                mismatches += 1

        attacker, victim = "http://attacker.invalid", "http://victim.test"
        if framing_allowed("DENY", attacker, victim) is not False:
            mismatches += 1
        if framing_allowed("SOMEORIGIN", attacker, victim) is not True:
            mismatches += 1
        if framing_allowed(None, attacker, victim) is not True:
            mismatches += 1
        if framing_allowed("SAMEORIGIN", victim, victim) is not True:
            mismatches += 1
        assert mismatches == 0


@pytest.fixture(scope="module")
def matrix_run():
    """Scan every mock config of the matrix over real loopback HTTP, through
    the shared rate-limited recording client; returns verdicts plus the log."""
    entries = fixture_matrix(PROFILES)
    recorder = RecordingClient(RequestsClient(timeout=5))
    client = RateLimitedClient(recorder, MATRIX_DELAY)
    config = ScanConfig(
        per_host_delay=MATRIX_DELAY, profiles=tuple(PROFILES), request_timeout=5.0
    )
    results = []
    started = time.monotonic()
    for target, truth in entries:
        handle = serve(target, port=0)
        try:
            seed = target.seed_url(f"http://127.0.0.1:{handle.port}")
            verdict = scan_page(seed, target.seed_cookies, client, config)
            verdict = verify_exploitable(verdict, client, config)
        finally:
            handle.shutdown()
        results.append((target, truth, verdict))
    elapsed = time.monotonic() - started
    return results, recorder.exchanges, elapsed


def test_criterion_5_end_to_end_ground_truth(matrix_run):
    with criterion(5, "end-to-end ground truth on the mock matrix"):
        results, _, elapsed = matrix_run
        assert len(results) >= 55
        mismatches = []
        for target, truth, verdict in results:
            problems = verdict_matches_truth(verdict, truth)
            if problems:
                mismatches.append((target.name, problems))
        assert mismatches == [], mismatches

        by_name = {t.name: v for t, _, v in results}

        base_tag = by_name["pathinfo-url-quirks-basetag"]
        assert base_tag.status is ScanStatus.NOT_VULNERABLE
        assert base_tag.reason is NotVulnerableReason.BASE_TAG

        standards = by_name["pathinfo-url-standards-plain"]
        assert standards.status is ScanStatus.EXPLOITABLE
        for engine, result in standards.profile_results.items():
            if engine is Engine.INTERNET_EXPLORER:
                assert result.exploitable and result.framed
            else:
                assert not result.exploitable

        nosniff = by_name["pathinfo-url-quirks-nosniff"]
        assert nosniff.profile_results[Engine.CHROME].exploitable
        ie_result = nosniff.profile_results[Engine.INTERNET_EXPLORER]
        assert not ie_result.exploitable
        assert Blocker.NOSNIFF in ie_result.blockers

        assert elapsed < 60.0, f"matrix run took {elapsed:.1f}s"


def test_criterion_6_css_recovery_fixtures():
    with criterion(6, "css error-recovery fixtures"):
        canary = "http://canary.test/px/feedbeef"
        fire_body = (FIXTURES / "css_unbalanced_braces.html").read_bytes()
        dud_body = (FIXTURES / "css_unterminated_string.html").read_bytes()
        assert css_would_fire(fire_body, canary) is True
        assert css_would_fire(dud_body, canary) is False
        for name, body in [
            ("css_unbalanced_braces", fire_body),
            ("css_unterminated_string", dud_body),
        ]:
            committed = (FIXTURES / f"{name}.trace.txt").read_text().splitlines()
            assert token_trace(body) == committed, f"oracle trace drifted: {name}"


def test_criterion_7_safety_contract(matrix_run):
    with criterion(7, "safety contract (GET-only, pacing, blocklist)"):
        _, exchanges, _ = matrix_run
        assert exchanges, "matrix run recorded no traffic"

        assert all(x.request.method == "GET" for x in exchanges)

        per_host: dict[str, list] = {}
        for x in exchanges:
            per_host.setdefault(host_key(x.request.web_url), []).append(x)
        short_gaps = [
            (host, before.request.url, after.request.url,
             round((after.timestamp - before.timestamp) * 1000, 3))
            for host, sent in per_host.items()
            for before, after in zip(sent, sent[1:])
            if after.timestamp - before.timestamp < MATRIX_DELAY * 0.9
        ]
        assert short_gaps == [], f"gaps under 0.9 x {MATRIX_DELAY * 1000:g} ms: {short_gaps}"

        blocked = ScanConfig().blocked_suffixes
        for x in exchanges:
            host = host_key(x.request.web_url).split(":")[0]
            assert not any(host.endswith(suffix) for suffix in blocked)
