import pathlib

from hypothesis import given, settings, strategies as st

import reference_impls

from rposcan.css_recovery import (
    css_would_fire,
    surviving_background_urls,
    token_trace,
    tokenize,
)
from rposcan.payloads import build_exploit_payload

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
    offsets = [t.offset for t in tokenize(body)]
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
