import pytest
from hypothesis import given, settings, strategies as st

import reference_impls
from rposcan import pages
from rposcan.pages import abstract_url, analyze_html, group_candidates
from rposcan.urls import is_relative_href, parse_url


def test_extracts_relative_stylesheet():
    doc = analyze_html(b'<html><head><link rel="stylesheet" href="dist/styles.css"></head></html>')
    assert doc.relative_refs == ["dist/styles.css"]
    assert doc.blocking_base is False


def test_base_before_ref_blocks():
    doc = analyze_html(b'<base href="https://x/"><link rel=stylesheet href=a.css>')
    assert doc.relative_refs == ["a.css"]
    assert doc.blocking_base is True


def test_root_relative_is_not_relative():
    doc = analyze_html(b'<link rel=stylesheet href="/a.css">')
    assert doc.relative_refs == []


def test_scheme_relative_and_absolute_not_relative():
    doc = analyze_html(
        b'<link rel=stylesheet href="//cdn.x/a.css">'
        b'<link rel=stylesheet href="https://x/b.css">'
        b'<link rel=stylesheet href="c.css">'
    )
    assert doc.relative_refs == ["c.css"]


def test_doctype_captured_raw():
    doc = analyze_html(
        b'<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">\n<html></html>'
    )
    assert doc.doctype == 'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"'


def test_non_html_and_empty_bodies_yield_empty_document():
    for body in (b"", b"\x00\xff\xfe binary junk \x9c", b"just text"):
        doc = analyze_html(body)
        assert doc == (None, [], False)


def test_tolerates_unclosed_tags():
    doc = analyze_html(b"<html><head><link rel=stylesheet href=a.css><body><p>x")
    assert doc.relative_refs == ["a.css"]


def test_ignores_links_inside_frames():
    doc = analyze_html(
        b'<iframe><link rel=stylesheet href="inner.css"></iframe>'
        b'<link rel=stylesheet href="outer.css">'
    )
    assert doc.relative_refs == ["outer.css"]


def test_non_stylesheet_links_skipped():
    doc = analyze_html(b'<link rel="icon" href="f.ico"><link rel="alternate stylesheet" href="alt.css">')
    assert doc.relative_refs == ["alt.css"]


def test_blocking_base_orderings():
    before = analyze_html(b'<base href="/b/"><link rel=stylesheet href=a.css>')
    assert before.blocking_base is True

    after = analyze_html(b'<link rel=stylesheet href=a.css><base href="/b/">')
    assert after.blocking_base is False

    none = analyze_html(b'<link rel=stylesheet href=a.css>')
    assert none.blocking_base is False

    # an absolute link before the base does not count
    absolute = analyze_html(
        b'<link rel=stylesheet href=/x.css><base href="/b/"><link rel=stylesheet href=a.css>'
    )
    assert absolute.blocking_base is True

    # a base without an href is not the first base
    bare = analyze_html(b'<base target=_top><link rel=stylesheet href=a.css><base href="/b/">')
    assert bare.blocking_base is False


def test_base_with_no_relative_refs_blocks():
    doc = analyze_html(b'<base href="/b/"><link rel=stylesheet href="/abs.css">')
    assert doc.blocking_base is True


def test_abstract_url_query_values():
    a = abstract_url(parse_url("http://example.com/?lang=en"))
    b = abstract_url(parse_url("http://example.com/?lang=fr"))
    assert a == b
    assert a == "example.com/?lang=*"


def test_abstract_url_numeric_path():
    t = abstract_url(parse_url("http://h.test/post/12345/view"))
    assert t == "h.test/post/*/view"


def test_abstract_url_digit_run_inside_segment():
    assert abstract_url(parse_url("http://h.test/item123x")) == "h.test/item*x"
    assert abstract_url(parse_url("http://h.test/v2")) == "h.test/v2"


def test_abstract_url_unchanged_when_nothing_matches():
    assert abstract_url(parse_url("http://h.test/about")) == "h.test/about"


def test_abstract_url_idempotent():
    first = abstract_url(parse_url("http://h.test/post/987/view?x=1&y=2"))
    netloc, _, rest = first.partition("/")
    again = abstract_url(parse_url("http://" + netloc + "/" + rest))
    assert again == first


def test_group_candidates_merges_template_siblings():
    a = parse_url("http://example.com/?lang=en")
    b = parse_url("http://example.com/?lang=fr")
    groups = group_candidates([a, b])
    assert len(groups) == 1
    assert list(groups.values())[0] == a  # lexicographically smallest


def test_group_candidates_empty():
    assert group_candidates([]) == {}


def test_group_candidates_every_input_in_exactly_one_group():
    urls = [
        parse_url("http://h.test/p/1"),
        parse_url("http://h.test/p/2"),
        parse_url("http://h.test/q"),
        parse_url("http://other.test/p/3"),
    ]
    groups = group_candidates(urls)
    assert len(groups) == 3
    covered = set()
    for u in urls:
        key = list(group_candidates([u]).keys())[0]
        assert key in groups
        covered.add(key)
    assert covered == set(groups)


_HREFS = st.one_of(
    st.from_regex(r"[a-z][a-z0-9./-]{0,15}", fullmatch=True),
    st.from_regex(r"/[a-z0-9./-]{0,15}", fullmatch=True),
    st.from_regex(r"//[a-z][a-z0-9.-]{0,10}/[a-z.]{0,8}", fullmatch=True),
    st.from_regex(r"https?://[a-z][a-z0-9.-]{0,10}/[a-z.]{0,8}", fullmatch=True),
    st.from_regex(r"[a-z][a-z0-9+.-]{0,6}:[a-z0-9/]{0,8}", fullmatch=True),
)


@given(_HREFS)
def test_relative_flag_never_true_for_absolute(href):
    body = f'<link rel="stylesheet" href="{href}">'.encode()
    doc = analyze_html(body)
    has_scheme = ":" in href.split("/")[0] and not href.startswith("/")
    if href.startswith(("/", "//")) or has_scheme:
        assert doc.relative_refs == []
    assert doc.relative_refs == ([href] if is_relative_href(href) else [])


# --- the one-pass scanner against the html.parser reference ---


_WS = st.sampled_from([" ", "\n", "\t", "\r", "\x0c", "\r\n", "  "])
_ATTR_NAMES = st.sampled_from(["rel", "REL", "href", "HREF", "Href", "class", "data-x", "title", "src"])
_ATTR_VALUES = st.sampled_from(
    [
        "stylesheet", "STYLESHEET", "alternate stylesheet", "icon", "stylesheet icon", "",
        "a.css", "../style.css", "/abs.css", "//cdn.test/x.css", "http://h.test/y.css",
        "a&amp;b.css", "x.css?a=1&amp;b=2", "&#47;s.css", "dir/", "a>b", "a<b", "\x85x", "\xe9",
        "caf\xc3\xa9.css", "&#x2603;\xc3\xa9.css",
    ]
)


@st.composite
def _attribute(draw):
    name = draw(_ATTR_NAMES)
    form = draw(st.sampled_from(["bare", "unquoted", "double", "single"]))
    if form == "bare":
        return name
    value = draw(_ATTR_VALUES)
    equals = draw(st.sampled_from(["=", " = ", "\n=\t"]))
    if form == "unquoted":
        value = "".join(c for c in value if c not in " <>\x85") or "x"
        return f"{name}{equals}{value}"
    quote = '"' if form == "double" else "'"
    return f"{name}{equals}{quote}{value}{quote}"


@st.composite
def _start_tag(draw):
    name = draw(
        st.sampled_from(
            ["link", "LINK", "Link", "base", "BASE", "p", "a", "div", "img", "iframe", "IFRAME",
             "frame", "frameset", "head", "body"]
        )
    )
    attrs = draw(st.lists(_attribute(), max_size=4))
    text = "<" + name + "".join(draw(_WS) + attr for attr in attrs)
    return text + draw(st.sampled_from([">", " />", "\n>"]))


_END_TAG = st.builds(
    lambda name, tail: f"</{name}{tail}>",
    st.sampled_from(["iframe", "IFRAME", "frame", "frameset", "p", "head", "a"]),
    st.sampled_from(["", " ", "\n"]),
)
_TEXT = st.sampled_from(
    ["text", " ", "\n", "\r", "\x0c", "\r\n", "\x85", "\xc3\x85", "&amp;", "&lt;link&gt;", "< x", "<3", "a > b"]
)
_COMMENT_BODY = st.sampled_from(["", " x ", "<link rel=stylesheet href=c.css>", '<base href="/">', "\n", "[if IE]>"])
_RAW_BODY = st.sampled_from(["", "x < y", "<link rel=stylesheet href=s.css>", '<base href="/s/">', "a > b", "\n"])
_CONSTRUCTS = st.one_of(
    _start_tag(),
    _END_TAG,
    _TEXT,
    _COMMENT_BODY.map(lambda body: f"<!--{body}-->"),
    st.sampled_from(
        [
            "<!DOCTYPE html>",
            '<!doctype html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">',
            '<!DocType html SYSTEM "about:legacy-compat">',
            "<!DOCTYPE>",
            "<!x>",
            "<!ELEMENT br EMPTY>",
            "<?pi?>",
            '<?xml version="1.0"?>',
            "<title>\xc3\x85\xc3\x85</title>",
        ]
    ),
    st.builds(
        lambda tag, attrs, body, upper: f"<{tag}{attrs}>{body}</{tag.upper() if upper else tag}>",
        st.sampled_from(["script", "style", "Script"]),
        st.sampled_from(["", ' type="text/css"', " src=x.js"]),
        _RAW_BODY,
        st.booleans(),
    ),
)


@given(st.lists(_CONSTRUCTS, max_size=12).map("".join))
def test_facts_match_html_parser_reference(page):
    body = page.encode("latin-1")
    assert analyze_html(body) == reference_impls.analyze_html(body)


# Near misses of the names that carry facts, frame end tags with no frame
# open, and markup hidden in attribute values and comments; the skip run must
# step over each of them exactly as far as the construct-by-construct read.
_NEAR_MISSES = st.sampled_from(
    [
        "<linkx rel=stylesheet href=n1.css>", "<LINKS rel=stylesheet href=n2.css>",
        "<basex href=/n/>", "<iframex>", "<frames>", "<framesetx>", "<scriptx>", "<styles>",
        "</iframex>", "</frames>", "</iframe>", "</FRAMESET >", "</frame/>", "<!doctypex>",
        "<!DOCTYPEhtml>", "<!doctyp html>", "<!-- <link rel=stylesheet href=c1.css> -->",
        '<p title="<link rel=stylesheet href=v.css>">', "<p title='<base href=/v/>'>",
        "<a href=x><link rel=stylesheet href=l.css></a>", "<p/>", "<br/>", "< link>",
        "<?link rel=stylesheet href=p.css?>", "<!link rel=stylesheet href=d.css>",
    ]
)
# Unfinished constructs, which run to the end of the input.
_UNCLOSED = st.sampled_from(
    ["", '<p title="x', "<p title='x", "<!-- x", "<?pi", "<!x", "</p", "<a", "<link", "<", "<!--"]
)


@settings(max_examples=300)
@given(
    st.lists(st.one_of(_CONSTRUCTS, _NEAR_MISSES, _NEAR_MISSES), max_size=12).map("".join),
    _UNCLOSED,
)
def test_facts_match_reference_around_near_misses(page, tail):
    body = (page + tail).encode("latin-1")
    assert analyze_html(body) == reference_impls.analyze_html(body)


_FACT_TAGS = ("base", "link", "script", "style", "iframe", "frame", "frameset")


def _first_possible_fact(text: str, pos: int) -> int:
    """Where a construct-by-construct read from ``pos`` meets the first
    construct that can carry a fact, or the end of the text."""
    match = pages._MARKUP_RE.search(text, pos)
    while match is not None:
        start, end, decl = match.group("start", "end", "decl")
        if start is not None and start.lower() in _FACT_TAGS:
            break
        if end is not None and end.lower() in ("iframe", "frame", "frameset"):
            break
        if decl is not None and decl[:7].lower() == "doctype":
            break
        match = pages._MARKUP_RE.search(text, match.end())
    return len(text) if match is None else match.start()


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.one_of(_CONSTRUCTS, _NEAR_MISSES, _TEXT), max_size=12).map("".join),
        st.binary(max_size=80).map(lambda b: b.decode("latin-1")),
    ),
    _UNCLOSED,
)
def test_skip_run_stops_at_the_first_possible_fact(page, tail):
    text = page + tail
    starts = [0] + [m.end() for m in pages._MARKUP_RE.finditer(text)]
    for pos in starts:
        assert pages._SKIP_RE.match(text, pos).end() == _first_possible_fact(text, pos)


# A UTF-8 "Å" is C3 85; decoded as latin-1 its \x85 is a line break to
# str.splitlines but not to a tag scanner.
UTF8_TITLE = "<title>ÅÅ</title>\n".encode("utf-8") + b" " * 20
BASE = b'<base href="/">'
LINK = b'<link rel=stylesheet href="a.css">'


def test_base_order_after_latin1_line_breaks():
    assert analyze_html(UTF8_TITLE + BASE + b"\n" + LINK).blocking_base is True
    assert analyze_html(UTF8_TITLE + LINK + b"\n" + BASE).blocking_base is False


@pytest.mark.parametrize("separator", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\r\n"])
def test_base_order_ignores_non_newline_line_breaks(separator):
    between = f"<p>a{separator}b</p>\n".encode("latin-1")
    assert analyze_html(BASE + between + LINK).blocking_base is True
    assert analyze_html(LINK + between + BASE).blocking_base is False


# End of input inside a construct follows HTML5: an open comment or
# declaration runs to the end, and an unfinished tag is dropped, so nothing
# after it is read as markup.
@pytest.mark.parametrize(
    "page",
    [
        '<!-- <base href="/"> <link rel=stylesheet href="a.css">',
        "<p title='x><base href=\"/\"><link rel=stylesheet href=a.css>",
        "<link rel=stylesheet href=a.css",
        '<base href="/"',
        "<script><link rel=stylesheet href=a.css>",
        "<iframe><link rel=stylesheet href=a.css></iframe",
    ],
)
def test_unfinished_construct_hides_the_rest(page):
    doc = analyze_html(page.encode())
    assert doc.blocking_base is False
    assert doc.relative_refs == []


@pytest.mark.parametrize("page", ["<!DOCTYPE html", "<!doctype", "<!DOCTYPE html PUBLIC \"x"])
def test_unfinished_doctype_is_not_recorded(page):
    assert analyze_html(page.encode()).doctype is None


# Inputs where the facts follow HTML5 and differ from html.parser 3.11.7;
# the expected value is the stylesheet hrefs found.
@pytest.mark.parametrize(
    "page, hrefs",
    [
        ("<!--><link rel=stylesheet href=a.css>-->", ["a.css"]),  # "<!-->" is an empty comment
        ("<!---><link rel=stylesheet href=a.css>-->", ["a.css"]),
        ("<!-- x --!><link rel=stylesheet href=a.css>-->", ["a.css"]),  # "--!>" closes a comment
        ("<!-- x -- ><link rel=stylesheet href=a.css>", []),  # "-- >" does not
        ("<![CDATA[ x > <link rel=stylesheet href=a.css> ]]>", ["a.css"]),  # bogus comment to ">"
        ("<![foo]><link rel=stylesheet href=a.css>", ["a.css"]),
        ("<a\x00<link rel=stylesheet href=a.css>", []),  # NUL does not end a tag name
        ("<link rel=stylesheet\x0bhref=a.css>", []),  # only ASCII whitespace separates
        ("<link rel=stylesheet href=a.css\xa0>", ["a.css\xa0"]),
        ("<iframe></iframe\x0b><link rel=stylesheet href=a.css>", []),
        ("<iframe></ iframe><link rel=stylesheet href=a.css>", []),  # "</ " is a bogus comment
        ("<link rel==stylesheet href=a.css>", []),  # the value is "=stylesheet"
        ("<script></script foo><link rel=stylesheet href=a.css>", ["a.css"]),
        ("<script></script/><link rel=stylesheet href=a.css>", ["a.css"]),
        ("<script></ script><link rel=stylesheet href=a.css>", []),
    ],
)
def test_facts_follow_html5_tokenizer(page, hrefs):
    assert analyze_html(page.encode("latin-1")).relative_refs == hrefs


def test_quoted_values_may_hold_angle_brackets_and_duplicates_keep_the_last():
    doc = analyze_html(b'<link title="a>b<c" rel=icon rel="stylesheet" href=x.css href="y.css">')
    assert doc.relative_refs == ["y.css"]
    # the first base decides; a later one changes nothing
    doc = analyze_html(b'<base href="/a/"><link rel=stylesheet href=s.css><base href="/b/">')
    assert doc.blocking_base is True


def test_script_and_style_content_is_raw_text():
    doc = analyze_html(
        b"<script>var s = '<base href=/x/>';</script>"
        b"<STYLE><link rel=stylesheet href=in.css></STYLE >"
        b"<link rel=stylesheet href=out.css>"
    )
    assert doc.blocking_base is False
    assert doc.relative_refs == ["out.css"]


def test_frame_depth_rule():
    doc = analyze_html(
        b"<iframe><iframe></iframe><link rel=stylesheet href=a.css></iframe>"
        b"<frameset><frame src=x><link rel=stylesheet href=b.css></frameset>"
        b"<iframe /><link rel=stylesheet href=c.css>"
    )
    # the unclosed <frame> keeps one level open after </frameset>
    assert doc.relative_refs == []
    doc = analyze_html(b"<iframe/></iframe></iframe><link rel=stylesheet href=d.css>")
    assert doc.relative_refs == ["d.css"]
