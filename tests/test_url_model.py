"""URL model: parsing, browser-style resolution, server-style canonicalization."""

import re
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, strategies as st

import reference_impls
from rposcan.urls import (
    MalformedUrl,
    WebUrl,
    _remove_dot_segments,
    browser_base_directory,
    parse_url,
    percent_decode,
    resolve_relative,
    serialize_url,
    server_view,
)


# Independent oracle for the server view: a one-pass percent decode done with
# a regex substitution, then dot-segment removal by fixpoint string rewriting.
# Deliberately shares no code with rposcan.urls.


def _decode_once(path: str) -> str:
    return re.sub(r"%([0-9A-Fa-f]{2})", lambda m: chr(int(m.group(1), 16)), path)


def _rewrite_dots(path: str) -> str:
    p = path
    while True:
        if p.startswith("/../"):
            p = p[3:]
            continue
        if p == "/..":
            p = "/"
            continue
        q = re.sub(r"/\.(?=/)", "", p, count=1)
        if q != p:
            p = q
            continue
        if p.endswith("/."):
            p = p[:-1]
            continue
        m = re.search(r"/(?!\.\.(?:/|$))[^/]*/\.\.(?=/|$)", p)
        if m:
            trailing = "/" if m.end() == len(p) else ""
            p = p[: m.start()] + trailing + p[m.end():]
            continue
        return p or "/"


def oracle_server_path(raw_path: str) -> str:
    return _rewrite_dots(_decode_once(raw_path))


def test_parse_basic():
    url = parse_url("http://example.com/rpo/test.php")
    assert url.host == "example.com"
    assert url.path_segments == ("rpo", "test.php")
    assert url.scheme == "http"
    assert url.port is None


def test_parse_root_has_empty_final_segment():
    assert parse_url("http://example.com/").path_segments == ("",)
    assert parse_url("http://example.com").path_segments == ("",)


def test_parse_preserves_encoded_slash():
    url = parse_url("http://a.com/x%2Fy/z")
    assert url.path_segments == ("x%2Fy", "z")


def test_parse_host_and_scheme_lowercased():
    url = parse_url("HTTP://ExAmPlE.com/Path")
    assert url.scheme == "http"
    assert url.host == "example.com"
    assert url.path_segments == ("Path",)


def test_parse_port_and_query_and_fragment():
    url = parse_url("https://h.test:8443/a?x=1&y=2#frag")
    assert url.port == 8443
    assert url.query == "x=1&y=2"
    assert url.fragment == "frag"


@pytest.mark.parametrize(
    "bad",
    [
        "ftp://example.com/",
        "gopher://x/",
        "http:/example.com/",
        "http://",
        "http:///path",
        "http://ex ample.com/",
        "http://example.com/pa th",
        "http://user:pw@example.com/",
        "http://example.com:notaport/",
        "//example.com/x",
        "relative/path",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedUrl):
        parse_url(bad)


def test_resolve_plain_relative_reference():
    base = parse_url("http://example.com/rpo/test.php")
    out = resolve_relative(base, "dist/styles.css")
    assert serialize_url(out) == "http://example.com/rpo/dist/styles.css"


def test_resolve_trailing_slash_base():
    base = parse_url("http://example.com/rpo/test.php/")
    out = resolve_relative(base, "dist/styles.css")
    assert serialize_url(out) == "http://example.com/rpo/test.php/dist/styles.css"


def test_resolve_absolute_reference_replaces_base():
    base = parse_url("http://example.com/rpo/test.php")
    out = resolve_relative(base, "http://other.org/a.css")
    assert serialize_url(out) == "http://other.org/a.css"


def test_resolve_root_relative_and_dotdot():
    base = parse_url("http://h.test/a/b/c.html")
    assert resolve_relative(base, "/x.css").path == "/x.css"
    assert resolve_relative(base, "../x.css").path == "/a/x.css"
    assert resolve_relative(base, "../../../../x.css").path == "/x.css"  # clamps


def test_resolve_does_not_treat_encoded_slash_as_separator():
    base = parse_url("http://h.test/a/p%2Fq/c.html")
    out = resolve_relative(base, "../x.css")
    # ".." pops the single raw segment "p%2Fq", not half of it
    assert out.path == "/a/x.css"


def test_resolve_scheme_relative():
    base = parse_url("https://h.test/a/b")
    assert serialize_url(resolve_relative(base, "//other.org/c.css")) == "https://other.org/c.css"


def test_resolve_query_only_keeps_path():
    base = parse_url("http://h.test/a/b?old=1")
    out = resolve_relative(base, "?new=2")
    assert out.path == "/a/b"
    assert out.query == "new=2"


def test_server_view_identity_when_plain():
    url = parse_url("http://example.com/rpo/test.php")
    assert server_view(url) == "/rpo/test.php"


def test_server_view_decodes_and_collapses():
    url = parse_url("http://example.com/PAYLOAD%2F..%2Frpo%2Ftest.php")
    expected = oracle_server_path("/PAYLOAD%2F..%2Frpo%2Ftest.php")
    assert expected == "/rpo/test.php"
    assert server_view(url) == expected


def test_server_view_dot_segments():
    url = parse_url("http://example.com/a/b/../c")
    expected = oracle_server_path("/a/b/../c")
    assert expected == "/a/c"
    assert server_view(url) == expected


def test_server_view_single_decoding_pass():
    # %252F decodes to the literal three characters "%2F", which must not be
    # decoded again into a separator.
    url = parse_url("http://example.com/a%252Fb/c")
    assert server_view(url) == "/a%2Fb/c"


def test_browser_base_directory():
    assert browser_base_directory(parse_url("http://e.com/rpo/test.php")) == "/rpo/"
    assert browser_base_directory(parse_url("http://e.com/rpo/test.php/")) == "/rpo/test.php/"
    assert browser_base_directory(parse_url("http://e.com/")) == "/"


# --- randomized properties ---

_SEG_ATOMS = st.sampled_from(
    ["a", "b", "x7", "test.php", "%2F", "%41", "%7B", ".", "..", "p-q", "~", "%252F"]
)
_SEGMENT = st.lists(_SEG_ATOMS, min_size=0, max_size=3).map("".join)
_HOST = st.from_regex(r"[a-z][a-z0-9]{0,5}(\.[a-z]{2,4}){1,2}", fullmatch=True)


@st.composite
def web_urls(draw):
    scheme = draw(st.sampled_from(["http", "https"]))
    host = draw(_HOST)
    port = draw(st.one_of(st.none(), st.integers(1, 65535)))
    segs = tuple(draw(st.lists(_SEGMENT, min_size=1, max_size=5)))
    query = draw(st.one_of(st.none(), st.from_regex(r"[a-z]{1,3}=[a-z0-9%]{0,4}", fullmatch=True)))
    return WebUrl(scheme=scheme, host=host, port=port, path_segments=segs, query=query)


@given(web_urls())
def test_roundtrip_stability(url):
    assert parse_url(serialize_url(url)) == url


@given(web_urls())
def test_serialize_preserves_percent_encodings(url):
    text = serialize_url(url)
    assert parse_url(text).path == url.path
    assert serialize_url(parse_url(text)) == text


@given(web_urls())
def test_resolve_empty_reference_keeps_base_directory(url):
    assert browser_base_directory(resolve_relative(url, "")) == browser_base_directory(url)


@given(web_urls(), web_urls())
def test_resolve_absolute_equals_parse(url, other):
    text = serialize_url(other)
    assert resolve_relative(url, text) == parse_url(text)


@given(web_urls())
def test_server_view_idempotent(url):
    # The canonical path is decoded text; putting it back on the wire means
    # re-encoding it, after which a second server_view pass must be identity.
    once = server_view(url)
    again = WebUrl(
        scheme=url.scheme,
        host=url.host,
        port=url.port,
        path_segments=tuple(quote(seg, safe="") for seg in once.split("/")[1:]),
    )
    assert server_view(again) == once


@given(web_urls())
def test_server_view_matches_rewriting_oracle(url):
    assert server_view(url) == oracle_server_path(url.path)


# --- the optimised helpers against their references ---

_DOT_SEGMENTS = st.sampled_from(["", ".", "..", "a", "b.", ".b", "...", "..a", "%2e", "x/"])


@given(st.lists(_DOT_SEGMENTS, max_size=10).map(lambda segs: "/" + "/".join(segs)))
def test_remove_dot_segments_matches_reference(path):
    assert _remove_dot_segments(path) == reference_impls.remove_dot_segments(path)


def test_remove_dot_segments_examples():
    assert _remove_dot_segments("/a/b/../c/./d") == "/a/c/d"
    assert _remove_dot_segments("/../../a") == "/a"
    assert _remove_dot_segments("/a/b/..") == "/a/"
    assert _remove_dot_segments("/a//b/.") == "/a//b/"
    assert _remove_dot_segments("/") == "/"


_ESCAPES = st.one_of(
    st.sampled_from(["%", "%2", "%zz", "%%41", "%C3", "%A9", "%E2%82", "%AC", "%F0%9F%98", "%80", "%ff"]),
    st.integers(0, 255).map(lambda b: f"%{b:02X}"),
    st.integers(0, 255).map(lambda b: f"%{b:02x}"),
    st.characters(),
)


@given(st.lists(_ESCAPES, max_size=12).map("".join))
def test_percent_decode_matches_unquote(text):
    assert percent_decode(text) == unquote(text)


def test_percent_decode_examples():
    assert percent_decode("a%2Fb%252F") == "a/b%2F"
    assert percent_decode("%C3%A9t%C3") == "\u00e9t\ufffd"
    assert percent_decode("100%") == "100%"
    assert percent_decode("caf\u00e9%20x") == "caf\u00e9 x"
    # each edge of the path that decodes ASCII text without a Python callback
    for text, expected in [
        # a backslash in the text: decoded run by run, the backslash kept
        ("a\\x41%41", "a\\x41A"),
        # escapes that decode to a backslash escape stay literal text
        ("%5C%78%34%31", "\\x41"),
        ("%5C%5C%6E", "\\\\n"),
        # a lone or short "%" is kept, the escapes around it decoded
        ("%41%", "A%"),
        ("%4", "%4"),
        ("%4g%41", "%4gA"),
        ("%%41", "%A"),
        # lowercase and mixed-case hex
        ("%c3%a9%2f%2F", "\u00e9//"),
        # non-ASCII text next to escapes
        ("\u00e9%41", "\u00e9A"),
        ("\u20ac%E2%82%AC", "\u20ac\u20ac"),
        ("\ud800%41", "\ud800A"),  # a lone surrogate has no UTF-8 form
        # invalid UTF-8 split across runs: each invalid piece becomes one U+FFFD
        ("%C3/%A9", "\ufffd/\ufffd"),
        ("%E2%82x%AC", "\ufffdx\ufffd"),
        ("%F0%9F%98", "\ufffd"),
        ("%00%7F%80", "\x00\x7f\ufffd"),
    ]:
        assert percent_decode(text) == expected == unquote(text), text
