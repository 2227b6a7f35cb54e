"""HTML fact extraction and URL templating.

Pulls out of a page body only the facts this pipeline cares about: the
doctype, the first ``<base href>`` (and where it sits), and every stylesheet
``<link>`` with its position and whether its href is genuinely relative.
Root-relative and absolute references cannot be overwritten by path
confusion, so they are flagged out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

from .urls import WebUrl

_SCHEME_PREFIX_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_DIGIT_RUN_RE = re.compile(r"[0-9]{3,}")


@dataclass(frozen=True)
class StylesheetRef:
    href: str
    relative: bool
    offset: int


@dataclass
class PageDocument:
    doctype: str | None = None
    base_href: str | None = None
    base_offset: int | None = None
    stylesheet_refs: list[StylesheetRef] = field(default_factory=list)

    @property
    def relative_refs(self) -> list[str]:
        return [ref.href for ref in self.stylesheet_refs if ref.relative]


def is_relative_href(href: str) -> bool:
    if _SCHEME_PREFIX_RE.match(href):
        return False
    return not href.startswith("/")  # covers both "//host" and root-relative


class _FactParser(HTMLParser):
    """Tolerant single-pass extractor; ignores anything inside frames."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.doc = PageDocument()
        self._line_starts: list[int] = [0]
        self._frame_depth = 0

    def feed_text(self, text: str) -> None:
        offset = 0
        for line in text.splitlines(keepends=True):
            offset += len(line)
            self._line_starts.append(offset)
        self.feed(text)

    def _offset(self) -> int:
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def handle_decl(self, decl: str) -> None:
        if self.doc.doctype is None and decl.lower().startswith("doctype"):
            self.doc.doctype = decl[len("doctype"):].strip()

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in ("iframe", "frame", "frameset"):
            self._frame_depth += 1
            return
        if self._frame_depth > 0:
            return
        attr_map = {name: value for name, value in attrs if value is not None}
        if tag == "base" and self.doc.base_href is None and "href" in attr_map:
            self.doc.base_href = attr_map["href"]
            self.doc.base_offset = self._offset()
        elif tag == "link":
            rel = (attr_map.get("rel") or "").lower().split()
            href = attr_map.get("href")
            if "stylesheet" in rel and href:
                self.doc.stylesheet_refs.append(
                    StylesheetRef(href=href, relative=is_relative_href(href), offset=self._offset())
                )

    def handle_endtag(self, tag: str) -> None:
        if tag in ("iframe", "frame", "frameset") and self._frame_depth > 0:
            self._frame_depth -= 1


def analyze_html(body: bytes) -> PageDocument:
    """Extract doctype, base tag, and stylesheet links; never raises on junk."""
    parser = _FactParser()
    try:
        parser.feed_text(body.decode("latin-1"))
        parser.close()
    except Exception:
        pass  # salvage whatever was collected before the parser gave up
    return parser.doc


def has_blocking_base(doc: PageDocument) -> bool:
    """True when a base tag would fix relative expansion before the first
    relative stylesheet reference gets a chance to be confused."""
    if doc.base_offset is None:
        return False
    relative_offsets = [r.offset for r in doc.stylesheet_refs if r.relative]
    if not relative_offsets:
        return True
    return doc.base_offset < min(relative_offsets)


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
    """Collapse per-instance identifiers so template siblings group together."""
    netloc = url.host if url.port is None else f"{url.host}:{url.port}"
    path = "/" + "/".join(_abstract_segment(seg) for seg in url.path_segments)
    abstract = netloc + path
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
