import pathlib

from hypothesis import given, strategies as st

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
