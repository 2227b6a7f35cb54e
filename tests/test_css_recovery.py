import pathlib
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference_impls

from rposcan import css_recovery, scanning
from rposcan.css_recovery import (
    css_would_fire,
    surviving_background_urls,
    token_trace,
    tokenize,
)
from rposcan.mock_target import InProcessClient, Routing, TargetConfig
from rposcan.payloads import build_exploit_payload
from rposcan.rendering import default_profiles

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CANARY = "http://canary.test/px/feedbeef"


def fixture(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def test_unbalanced_braces_fixture_fires():
    assert css_would_fire(fixture("css_unbalanced_braces.html"), CANARY) is True


def test_unterminated_string_fixture_does_not_fire():
    assert css_would_fire(fixture("css_unterminated_string.html"), CANARY) is False


def test_fixture_traces_match_committed_oracle():
    for name in ("css_unbalanced_braces", "css_unterminated_string"):
        body = fixture(f"{name}.html")
        committed = (FIXTURES / f"{name}.trace.txt").read_text().splitlines()
        assert token_trace(body) == committed, name


def test_body_without_payload_never_fires():
    assert css_would_fire(b"<html><body>plain page</body></html>", CANARY) is False


def test_wrong_url_does_not_fire():
    body = fixture("css_unbalanced_braces.html")
    assert css_would_fire(body, "http://other.test/px") is False


def test_clean_exploit_payload_fires_on_its_own():
    payload = build_exploit_payload(CANARY)
    assert css_would_fire(payload.encode(), CANARY) is True


def test_closers_insufficient_for_deeper_nesting():
    # 3 opens but only 2 closers: the directive stays buried inside a block
    body = b"a { b { c { }}body{background:url(" + CANARY.encode() + b")}"
    assert css_would_fire(body, CANARY) is False


def test_open_paren_swallows_payload():
    body = b"junk ( before " + build_exploit_payload(CANARY).encode()
    assert css_would_fire(body, CANARY) is False


def test_unterminated_comment_swallows_payload():
    body = b"/* open comment " + build_exploit_payload(CANARY).encode()
    assert css_would_fire(body, CANARY) is False


def test_newline_recovers_from_open_string():
    # with a newline in front of the closers, a pending string ends as a
    # bad-string and the directive parses after recovery
    payload = build_exploit_payload(CANARY)
    body = b'x = "open string \n' + payload.encode()
    assert css_would_fire(body, CANARY) is True


def test_invalid_selector_blocks_rule():
    body = b"<junk>body{background:url(" + CANARY.encode() + b")}"
    assert css_would_fire(body, CANARY) is False


def test_quoted_url_form_also_matches():
    body = b'body{background:url("' + CANARY.encode() + b'")}'
    assert css_would_fire(body, CANARY) is True


def test_multiple_declarations_and_selectors():
    body = b"h1,p{margin:0;background:url(" + CANARY.encode() + b");color:red}"
    assert css_would_fire(body, CANARY) is True


def test_other_property_does_not_fire():
    body = b"body{background-image:url(" + CANARY.encode() + b")}"
    assert css_would_fire(body, CANARY) is False


def test_tokenizer_offsets_monotonic():
    body = fixture("css_unbalanced_braces.html").decode("latin-1")
    offsets = [offset for _, _, offset in tokenize(body)]
    assert offsets == sorted(offsets)


_BALANCED_CSS = st.lists(
    st.sampled_from(
        [
            "h1{color:red}",
            "@media screen{p{margin:0}}",
            ".a .b{padding:1px 2px}",
            "/* a comment */",
            "ul,ol{list-style:none}",
            "a:hover{text-decoration:none}",
            '#nav[data-x="y"]{border:0}',
            "@import legacy;",
            "\n\n",
        ]
    ),
    max_size=5,
).map("".join)


@given(_BALANCED_CSS)
def test_fire_invariant_under_balanced_prefix(prefix):
    for name, expected in [
        ("css_unbalanced_braces.html", True),
        ("css_unterminated_string.html", False),
    ]:
        body = prefix.encode() + fixture(name)
        assert css_would_fire(body, CANARY) is expected


@given(_BALANCED_CSS)
def test_prefix_alone_never_fires(prefix):
    assert surviving_background_urls(prefix.encode()) == []


# --- the regex tokenizer against the character-by-character reference ---

_CSS_PIECES = st.sampled_from(
    [
        "url(", "URL(", "url( ", 'url("', "url('", "uRl(a b)", ")", "(", "/*", "*/",
        "<!--", "-->", "--", '"', "'", "\\", "\\\n", "\n", "\r", "\f", "\t", " ",
        "\x0b", "\x85", "\xa0", "{", "}", "[", "]", ":", ";", ",", "#", "@", ".",
        "a", "Z", "_", "-", "0", "9", "body", "background", "http://c.test/x",
        "%0A", "é",
    ]
)


def _same_tokens(text):
    expected = [(t.kind, t.value, t.offset) for t in reference_impls.tokenize(text)]
    assert [tuple(t) for t in tokenize(text)] == expected


@given(st.lists(_CSS_PIECES, max_size=40).map("".join))
def test_tokenize_matches_reference_on_css_like_text(text):
    _same_tokens(text)


@given(st.binary(max_size=200))
def test_tokenize_matches_reference_on_random_latin1(body):
    _same_tokens(body.decode("latin-1"))


def test_tokenize_kept_quirks():
    # url() values go through str.strip(), which also strips \x0b, \x85, \xa0
    assert [tuple(t) for t in tokenize("url(\x0bx\xa0)")] == [("url", "x", 0)]
    # a backslash at the very end stays in the string
    assert [tuple(t) for t in tokenize('"ab\\')] == [("string", "ab\\", 0)]
    assert [tuple(t) for t in tokenize('"a\nb')][0] == ("bad-string", "a", 0)


# --- the one-pass recovery walk against the list-building reference walk ---

_TARGETS = ("http://c.test/x", "http://c.test/y", "x", "")

# Rules drawn from a small grammar, weighted so that many sheets have
# surviving URLs; the tokenizer's pieces in between can break any of them.
_VALUE_PIECES = st.one_of(
    st.sampled_from(
        ["url(http://c.test/x)", 'url("http://c.test/x")', "url( 'http://c.test/y' )", "URL(http://c.test/y)"]
    ),
    st.sampled_from(
        ['"http://c.test/x"', "url(", 'url(a"b)', '"open\n', "f(", ")", " ", ",", "red", "{", "}"]
    ),
)
_DECLARATION = st.tuples(
    st.one_of(st.just("background"), st.sampled_from(["BackGround", " background ", "color", ""])),
    st.one_of(st.just(":"), st.sampled_from([" : ", ""])),
    st.lists(_VALUE_PIECES, min_size=1, max_size=3).map("".join),
).map("".join)
_RULE = st.tuples(
    st.one_of(
        st.sampled_from(["body", "a b>c", "h1,p", "a:hover", "#x", "*"]),
        st.sampled_from(["<p>", "", "a!", "@media x", "@import y;"]),
    ),
    st.lists(_DECLARATION, max_size=3).map(";".join),
    st.sampled_from(["}", "", ";}"]),
).map(lambda parts: parts[0] + "{" + parts[1] + parts[2])


def _same_walk(body):
    expected = reference_impls.surviving_background_urls(body)
    assert surviving_background_urls(body) == expected
    for target in _TARGETS:
        assert css_would_fire(body, target) is (target in expected)


@settings(max_examples=300)
@given(st.lists(st.one_of(_RULE, _RULE, _CSS_PIECES), max_size=8).map("".join))  # 2:1 rules
def test_walk_matches_reference_on_css_like_text(text):
    _same_walk(text.encode("latin-1"))


@given(st.binary(max_size=200))
def test_walk_matches_reference_on_random_latin1(body):
    _same_walk(body)


# --- where css_would_fire stops ---


def _count_drawn_tokens(monkeypatch) -> list[int]:
    """Wrap css_recovery.tokenize so that the returned one-item list counts
    the tokens the walk draws."""
    drawn = [0]
    original = css_recovery.tokenize

    def counting(text):
        for token in original(text):
            drawn[0] += 1
            yield token

    monkeypatch.setattr(css_recovery, "tokenize", counting)
    return drawn


def test_walk_stops_at_first_match(monkeypatch):
    tail = "p{color:red;margin:0 auto}/* x */ h1{background:url(other.png)}" * 200
    tail_tokens = sum(1 for _ in tokenize(tail))
    drawn = _count_drawn_tokens(monkeypatch)
    body = ("body{background:url(" + CANARY + ")}" + tail).encode()
    assert css_would_fire(body, CANARY) is True
    assert 0 < drawn[0] <= 10
    assert tail_tokens > 100 * drawn[0]
    # the whole walk still draws every token
    drawn[0] = 0
    assert surviving_background_urls(body) == [CANARY] + ["other.png"] * 200
    assert drawn[0] > tail_tokens


def test_body_without_canary_is_not_tokenized(monkeypatch):
    drawn = _count_drawn_tokens(monkeypatch)
    body = b"p{background:url(http://elsewhere.test/x)}" * 100
    assert css_would_fire(body, CANARY) is False
    assert drawn[0] == 0
    # a backslash can spell the canary, so it sends the body to the walk
    escaped = b'body{background:url("' + CANARY.replace("/", "\\/").encode() + b'")}'
    assert css_would_fire(escaped, CANARY) is True
    assert drawn[0] > 0


# Canaries spelled with backslash escapes: a quoted string unescapes them,
# an unquoted url() keeps them, and "\75rl(" is not a url( at all.
_ESCAPED_CANARIES = st.sampled_from(
    [
        'url("http:\\/\\/c.test\\/x")',
        "url('\\http://c.test/x')",
        'url( "http://c.te\\st/x" )',
        "url(http:\\/\\/c.test\\/x)",
        '"http:\\/\\/c.test\\/x"',
        "\\75rl(http://c.test/x)",
    ]
)
_ESCAPED_RULE = st.tuples(
    st.sampled_from(["body", "h1,p", "<p>"]),
    st.lists(st.one_of(_ESCAPED_CANARIES, _VALUE_PIECES), min_size=1, max_size=3).map("".join),
    st.sampled_from(["}", "", ";}"]),
).map(lambda parts: parts[0] + "{background:" + parts[1] + parts[2])


@settings(max_examples=300)
@given(
    st.lists(st.one_of(_ESCAPED_RULE, _RULE, _CSS_PIECES), max_size=8).map("".join),
    st.booleans(),
)
def test_precheck_is_exact(text, drop_backslashes):
    if drop_backslashes:  # the pre-check path: only a canary spelled out can fire
        text = text.replace("\\", "")
    body = text.encode("latin-1")
    expected = reference_impls.surviving_background_urls(body)
    for target in ("http://c.test/x", "http://c.test/y", "http://css-canary.invalid/x"):
        assert css_would_fire(body, target) is (target in expected)


# --- the skip runs ---

# Pieces that make long content runs, implausible preludes, dropped
# declarations and at-rules, and that hide "{}[]();" in strings, comments and
# unquoted url(); "-(", 'url("' and "\\" make functions and delims, and the
# unfinished ones run into the end of input.
_SKIP_PIECES = st.sampled_from(
    [
        "<html><head>\n<title>a page</title>", '<link rel="stylesheet" href="../s.css">',
        "<p class='x'>words, more: words.</p>\n", "</p>", "<", "<!", "<!--", "-->", "<!--(",
        "/", "/*", "/*{;}*/", "*", '"a{b;c}"', "'}'", '"open\n', "url(a{b;c)", "url( x )",
        'url("a{")', "url(", "9url(a{)", "xurl(", "-(", "--(", "a(", "#a(", "#", "@m", "@m{",
        "@import x;", "\\", "\\{", "\\\n", ":", ",", ";", "{", "}", "(", ")", "[", "]",
        "p", "body", "background", " ", "\n", "\t", "\xa0", "é", "0", "x:y;",
        "background:url(http://c.test/x)", "color:red;background:url(http://c.test/y)",
    ]
)


@settings(max_examples=300)
@given(st.lists(st.one_of(_SKIP_PIECES, _SKIP_PIECES, _RULE, _CSS_PIECES), max_size=24).map("".join))
def test_walk_with_skips_matches_reference(text):
    _same_walk(text.encode("latin-1"))


@settings(max_examples=100)
@given(st.lists(st.one_of(_SKIP_PIECES, _RULE), max_size=10).map("".join), st.sampled_from(_TARGETS))
def test_walk_without_skips_gives_the_same_answer(text, target):
    # a source that ignores every send hands over each token the runs skip
    def every_token(text):
        yield from tokenize(text)

    body = text.encode("latin-1")
    skipped = list(css_recovery._background_urls(tokenize(text)))
    assert list(css_recovery._background_urls(every_token(text))) == skipped
    assert (target in skipped) is css_would_fire(body, target)


def _tokens_with_ends(text):
    """(start, end, kind) of every token, comments included, with "function"
    for an ident that opens one and the character for punctuation."""
    out = []
    for m in css_recovery._TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "punct":
            kind = m.group()
        elif kind == "ident" and m.group().endswith("("):
            kind = "function"
        out.append((m.start(), m.end(), kind))
    return out


_OPENS_OR_ENDS = {"{", "}", "[", "]", "(", ")", ";", "function"}
_TOP_LEVEL_SKIPPED = {"ws", "cdo", "cdc", "comment", "}", "]", ")", ";"}


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.one_of(_SKIP_PIECES, _CSS_PIECES), max_size=24).map("".join),
        st.binary(max_size=60).map(lambda b: b.decode("latin-1")),
    )
)
def test_runs_cover_exactly_the_tokens_a_state_ignores(text):
    # from every token boundary, a run ends on a token boundary, covers only
    # tokens its state ignores and stops at the first one it must see
    tokens = _tokens_with_ends(text)
    kind_at = {start: kind for start, _, kind in tokens}
    for run, ignored in (
        (css_recovery._CONTENT_RUN, lambda kind: kind not in _OPENS_OR_ENDS),
        (css_recovery._TOP_LEVEL_RUN, lambda kind: kind in _TOP_LEVEL_SKIPPED),
    ):
        for start, _, _ in tokens:
            end = run.match(text, start).end()
            assert end == len(text) or end in kind_at
            assert all(ignored(kind) for s, _, kind in tokens if start <= s < end)
            assert end == len(text) or not ignored(kind_at[end])


def _exploit_sheet(monkeypatch) -> tuple[bytes, str]:
    """The sheet body and canary that verification hands the oracle for a
    path-confusable mock page: the page itself, echoing the exploit."""
    seen = []

    def recording(body, nonce_url):
        seen.append((body, nonce_url))
        return css_would_fire(body, nonce_url)

    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE)
    client = InProcessClient({"mock.test": target})
    config = scanning.ScanConfig(per_host_delay=0.0, profiles=tuple(default_profiles()))
    with monkeypatch.context() as patched:
        patched.setattr(scanning, "css_would_fire", recording)
        verdict = scanning.scan_page(target.seed_url("http://mock.test"), {}, client, config)
        assert scanning.verify_exploitable(verdict, client, config).status.value == "exploitable"
    (sheet,) = seen
    return sheet


def test_exploit_sheet_draws_few_tokens(monkeypatch):
    body, nonce_url = _exploit_sheet(monkeypatch)
    drawn = [0]
    original = css_recovery.tokenize

    def forwarding(text):
        tokens = original(text)
        run = None
        while True:
            try:
                token = tokens.send(run)
            except StopIteration:
                return
            drawn[0] += 1
            run = yield token

    monkeypatch.setattr(css_recovery, "tokenize", forwarding)
    assert css_would_fire(body, nonce_url) is True
    # the page's markup and the exploit's 40 closers are skipped in C
    assert 0 < drawn[0] <= 16

    # a wrapper that ignores the walk's sends sees every token up to the match
    monkeypatch.setattr(css_recovery, "tokenize", original)
    plain = _count_drawn_tokens(monkeypatch)
    assert css_would_fire(body, nonce_url) is True
    assert plain[0] > 100


@pytest.mark.parametrize("unit", ["a/", "9", "<", "/", "<!", "9a", "\\"])
def test_runs_stay_linear_on_stretches_that_cannot_end(unit):
    # a skipped stretch of these can end nowhere before the "(": a run that
    # rescans it from each of its characters takes seconds, a linear one ms
    body = b"<" + unit.encode() * (20000 // len(unit)) + b"(body{background:url(" + CANARY.encode() + b")}"
    started = time.process_time()
    assert css_would_fire(body, CANARY) is False
    assert time.process_time() - started < 1.0
