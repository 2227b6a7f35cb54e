"""HTML fact extraction and URL templating.

Pulls out of a page body only the facts a verdict reads: the doctype, the
genuinely relative stylesheet ``<link>`` hrefs, and whether a ``<base href>``
fixes their expansion first.  Root-relative and absolute references cannot be
overwritten by path confusion, so they are dropped.

The body is decoded as latin-1 and walked once with one regular expression
that matches a whole markup construct at a ``<``: a comment, a declaration
or doctype, a processing instruction, an end tag or a start tag with its
attributes.  Between two constructs that can carry a fact, a skip run built
from the same patterns steps over text and every construct that cannot:
comments, processing instructions, declarations other than a doctype, end
tags other than a frame's, and start tags other than base, link, script,
style and the frames.  So Python runs only on those few constructs.
Tags follow the HTML5 tokenizer: only tab, LF, FF, CR and space separate
names and attributes; a quoted attribute value runs to its closing quote,
``<`` and ``>`` included; ``<!-->`` and ``<!--->`` are empty comments, and
``-->`` or ``--!>`` closes a comment.  ``<script>`` and ``<style>`` content
is raw text up to ``</script`` or ``</style`` followed by whitespace, ``/``
or ``>``.  Attribute values are entity-decoded; a duplicate attribute keeps
its last value.  A non-ASCII stylesheet href is read as UTF-8 when its bytes
are valid UTF-8 (``_as_utf8``).

End of input: an open comment, declaration or processing instruction runs
to the end of the input, and an unfinished tag is dropped, so nothing after
an unclosed construct is read as markup.

Frames: ``<iframe>``, ``<frame>`` and ``<frameset>`` start tags each open
one level and their end tags close one; the self-closing form opens none.
Base and link tags inside an open frame are ignored.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .urls import WebUrl, host_key, is_relative_href

_DIGIT_RUN_RE = re.compile(r"[0-9]{3,}")


class PageDocument(NamedTuple):
    """The facts a verdict reads from a page.  ``blocking_base``: the first
    ``<base href>`` comes before every relative stylesheet link, so it fixes
    their expansion before path confusion can move it."""

    doctype: str | None
    relative_refs: list[str]
    blocking_base: bool


# Tag pieces as the HTML5 tokenizer reads them: only ASCII whitespace
# separates, a name runs to whitespace, "/", ">" (or "=" for attribute
# names), and a value is quoted or runs to whitespace or ">".  A quote left
# open runs to the end of the input.
_SPACE = r"[\t\n\r\f ]"
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />]*"
_NAME_ENDS = r"(?![^\t\n\r\f />])"  # whitespace, "/", ">" or the end of input
_ATTR_NAME = r"[^\t\n\r\f />][^\t\n\r\f />=]*"
_ATTR_VALUE = r"""(?:"[^"]*"?|'[^']*'?|[^\t\n\r\f >]*)"""
_ATTRS = rf"(?: {_SPACE}+ | /(?!>) | {_ATTR_NAME}(?:{_SPACE}*={_SPACE}*{_ATTR_VALUE})? )*"
# Two constructs that never carry a fact, after their "<".
_COMMENT = r"!--(?: -?> | [\s\S]*?--!?> | [\s\S]* )"
_PROCESSING_INSTRUCTION = r"\?[^>]*>?"

# One markup construct starting at "<".  The named group that closes last
# tells the kinds apart: "close" for a start tag, "attrs" for a start tag cut
# off by the end of input, "end_close" for an end tag, "decl_end" for a
# declaration; the others (comments, processing instructions, bogus or
# unfinished constructs) carry no fact.
_MARKUP_RE = re.compile(
    rf"""<(?:
        {_COMMENT}
      | !(?P<decl>[^>]*)(?P<decl_end>>)?
      | {_PROCESSING_INSTRUCTION}
      | /(?P<end>{_TAG_NAME})[^>]*(?P<end_close>>)?
      | /[^>]*>?
      | (?P<start>{_TAG_NAME})(?P<attrs>{_ATTRS})(?P<close>/?>)?
    )""",
    re.VERBOSE,
)
_ATTRIBUTE_RE = re.compile(rf"({_ATTR_NAME})(?:({_SPACE}*=){_SPACE}*({_ATTR_VALUE}))?")
_RAW_TEXT_END = {
    "script": re.compile(r"</script[\t\n\r\f />]", re.IGNORECASE),
    "style": re.compile(r"</style[\t\n\r\f />]", re.IGNORECASE),
}
_FRAME_TAGS = ("iframe", "frame", "frameset")
_FRAME_NAMES = "|".join(_FRAME_TAGS)
_FACT_NAMES = "|".join(("base", "link", *_RAW_TEXT_END, *_FRAME_TAGS))

# A run of whole constructs that carry no fact: text (a "<" that starts no
# construct is text too), comments, processing instructions, declarations
# other than a doctype, end tags other than a frame's, and start tags other
# than base, link, script, style and the frames.  Each construct has its
# pattern from _MARKUP_RE, so the run ends where _MARKUP_RE would end a
# construct: at a "<" that it reads as a possible fact, or at the end of input.
_SKIP_RE = re.compile(
    rf"""(?:
        [^<]+
      | <(?:
            {_COMMENT}
          | !(?!(?i:doctype))[^>]*>?
          | {_PROCESSING_INSTRUCTION}
          | /(?!(?i:{_FRAME_NAMES}){_NAME_ENDS})[^>]*>?
          | (?!(?i:{_FACT_NAMES}){_NAME_ENDS}){_TAG_NAME}{_ATTRS}(?:/?>)?
          | (?![!?/a-zA-Z])
        )
    )*""",
    re.VERBOSE,
)


def _attributes(text: str) -> dict[str, str]:
    """Lower-cased names to decoded values; attributes without a value are
    left out, and a repeated name keeps its last value."""
    attrs: dict[str, str] = {}
    for name, equals, value in _ATTRIBUTE_RE.findall(text):
        if equals:
            if value[:1] in ('"', "'"):
                value = value[1:-1]
            if "&" in value:  # only a reference can decode, so html's entity table loads on the first
                from html import unescape

                value = unescape(value)
            attrs[name.lower()] = value
    return attrs


def _as_utf8(href: str) -> str:
    """A non-ASCII href read from the Latin-1 text: as UTF-8 when its bytes
    are valid UTF-8, as it stands otherwise.  The one page this reads wrong
    is a windows-1252 (or Latin-1) one whose href bytes happen to form
    UTF-8, such as ``Ã©`` read as ``é``."""
    try:
        return href.encode("latin-1").decode("utf-8")
    except UnicodeError:  # not valid UTF-8, or a decoded entity past U+00FF
        return href


def analyze_html(body: bytes) -> PageDocument:
    """Extract doctype, relative stylesheet links and the base decision;
    never raises on junk."""
    text = body.decode("latin-1")
    doctype: str | None = None
    relative_refs: list[str] = []
    blocking_base: bool | None = None  # None until the first base with an href
    frame_depth = 0
    skip = _SKIP_RE.match
    markup = _MARKUP_RE.match
    end = len(text)
    pos = skip(text).end()
    while pos < end:
        match = markup(text, pos)
        pos = match.end()
        kind = match.lastgroup
        if kind == "close":
            tag = match.group("start").lower()
            opened = match.group("close") == ">"
            if tag in _FRAME_TAGS:
                if opened:
                    frame_depth += 1
            elif tag in _RAW_TEXT_END:
                if opened:
                    raw_end = _RAW_TEXT_END[tag].search(text, pos)
                    pos = len(text) if raw_end is None else raw_end.start()
            elif frame_depth:
                pass  # base and link tags inside a frame do not count
            elif tag == "base":
                if blocking_base is None and "href" in _attributes(match.group("attrs")):
                    blocking_base = not relative_refs
            elif tag == "link":
                attrs = _attributes(match.group("attrs"))
                rel = (attrs.get("rel") or "").lower().split()
                href = attrs.get("href")
                if "stylesheet" in rel and href and is_relative_href(href):
                    relative_refs.append(href if href.isascii() else _as_utf8(href))
        elif kind == "end_close":
            if frame_depth and match.group("end").lower() in _FRAME_TAGS:
                frame_depth -= 1
        elif kind == "decl_end":
            decl = match.group("decl")
            if doctype is None and decl[:7].lower() == "doctype":
                doctype = decl[7:].strip()
        pos = skip(text, pos).end()
    return PageDocument(doctype, relative_refs, bool(blocking_base))


def _abstract_segment(segment: str) -> str:
    if segment and segment.isdigit():
        return "*"
    return _DIGIT_RUN_RE.sub("*", segment)


def _abstract_query(query: str) -> str:
    pairs = []
    for pair in query.split("&"):
        if "=" in pair:
            key, _, _ = pair.partition("=")
            pairs.append(key + "=*")
        else:
            pairs.append(pair)
    return "&".join(pairs)


def abstract_url(url: WebUrl) -> str:
    """Collapse per-instance identifiers so template siblings group together,
    under ``host_key``'s authority whether a default port is written or not."""
    path = "/" + "/".join(_abstract_segment(seg) for seg in url.path_segments)
    abstract = host_key(url) + path
    if url.query is not None:
        abstract += "?" + _abstract_query(url.query)
    return abstract


def group_candidates(urls: list[WebUrl]) -> dict[str, WebUrl]:
    """One deterministic representative per URL template."""
    groups: dict[str, WebUrl] = {}
    for url in urls:
        key = abstract_url(url)
        current = groups.get(key)
        if current is None or str(url) < str(current):
            groups[key] = url
    return groups
