from hypothesis import given, strategies as st

from rposcan.pages import (
    PageDocument,
    StylesheetRef,
    abstract_url,
    analyze_html,
    group_candidates,
    has_blocking_base,
    is_relative_href,
)
from rposcan.urls import parse_url


def test_extracts_relative_stylesheet():
    doc = analyze_html(b'<html><head><link rel="stylesheet" href="dist/styles.css"></head></html>')
    assert len(doc.stylesheet_refs) == 1
    ref = doc.stylesheet_refs[0]
    assert ref.href == "dist/styles.css"
    assert ref.relative is True


def test_base_recorded_with_offset_before_ref():
    doc = analyze_html(b'<base href="https://x/"><link rel=stylesheet href=a.css>')
    assert doc.base_href == "https://x/"
    assert doc.base_offset is not None
    assert doc.base_offset < doc.stylesheet_refs[0].offset


def test_root_relative_is_not_relative():
    doc = analyze_html(b'<link rel=stylesheet href="/a.css">')
    assert doc.stylesheet_refs[0].relative is False


def test_scheme_relative_and_absolute_not_relative():
    doc = analyze_html(
        b'<link rel=stylesheet href="//cdn.x/a.css">'
        b'<link rel=stylesheet href="https://x/b.css">'
        b'<link rel=stylesheet href="c.css">'
    )
    assert [r.relative for r in doc.stylesheet_refs] == [False, False, True]


def test_doctype_captured_raw():
    doc = analyze_html(
        b'<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">\n<html></html>'
    )
    assert doc.doctype == 'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"'


def test_non_html_and_empty_bodies_yield_empty_document():
    for body in (b"", b"\x00\xff\xfe binary junk \x9c", b"just text"):
        doc = analyze_html(body)
        assert doc.doctype is None
        assert doc.stylesheet_refs == []


def test_tolerates_unclosed_tags():
    doc = analyze_html(b"<html><head><link rel=stylesheet href=a.css><body><p>x")
    assert len(doc.stylesheet_refs) == 1


def test_ignores_links_inside_frames():
    doc = analyze_html(
        b'<iframe><link rel=stylesheet href="inner.css"></iframe>'
        b'<link rel=stylesheet href="outer.css">'
    )
    assert [r.href for r in doc.stylesheet_refs] == ["outer.css"]


def test_non_stylesheet_links_skipped():
    doc = analyze_html(b'<link rel="icon" href="f.ico"><link rel="alternate stylesheet" href="alt.css">')
    assert [r.href for r in doc.stylesheet_refs] == ["alt.css"]


def test_has_blocking_base_orderings():
    before = analyze_html(b'<base href="/b/"><link rel=stylesheet href=a.css>')
    assert has_blocking_base(before) is True

    after = analyze_html(b'<link rel=stylesheet href=a.css><base href="/b/">')
    assert has_blocking_base(after) is False

    none = analyze_html(b'<link rel=stylesheet href=a.css>')
    assert has_blocking_base(none) is False


def test_base_with_no_relative_refs_blocks():
    doc = analyze_html(b'<base href="/b/"><link rel=stylesheet href="/abs.css">')
    assert has_blocking_base(doc) is True


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
    if not doc.stylesheet_refs:
        return
    flag = doc.stylesheet_refs[0].relative
    has_scheme = ":" in href.split("/")[0] and not href.startswith("/")
    if href.startswith(("/", "//")) or has_scheme:
        assert flag is False
    assert flag == is_relative_href(href)
