"""Straightforward implementations that the optimised code in ``rposcan`` replaced.

They serve only as oracles for the equivalence tests:

- ``tokenize``: the character-by-character CSS tokenizer;
- ``surviving_background_urls``: the CSS error-recovery walk that collects
  each prelude, block and declaration as a list before judging it (on the
  ``rposcan`` tokenizer, so a difference points at the walk);
- ``remove_dot_segments``: RFC 3986 section 5.2.4, string-rewriting form;
- ``analyze_html``: fact extraction on top of ``html.parser``, with offsets
  counted the way ``HTMLParser.getpos`` counts lines (``\\n`` only).
"""

from __future__ import annotations

from dataclasses import dataclass
from html.parser import HTMLParser

from rposcan import css_recovery
from rposcan.css_recovery import (
    AT_KEYWORD,
    BAD_STRING,
    BAD_URL,
    CDC,
    CDO,
    COLON,
    COMMA,
    DELIM,
    FUNCTION,
    HASH,
    IDENT,
    LBRACE,
    LBRACKET,
    LPAREN,
    RBRACE,
    RBRACKET,
    RPAREN,
    SEMICOLON,
    STRING,
    URL,
    WS,
)
from rposcan.pages import PageDocument, StylesheetRef, is_relative_href

# --- CSS tokenizer ---

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-")
_IDENT_CHARS = _IDENT_START | set("0123456789")
_SPACE = set(" \t\r\n\f")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    offset: int


def _consume_string(text: str, i: int) -> tuple[Token, int]:
    quote = text[i]
    start = i
    j = i + 1
    buf: list[str] = []
    while j < len(text):
        c = text[j]
        if c == quote:
            return Token(STRING, "".join(buf), start), j + 1
        if c == "\\" and j + 1 < len(text):
            buf.append(text[j + 1])
            j += 2
            continue
        if c in "\n\r\f":
            # the newline itself is not part of the bad string
            return Token(BAD_STRING, "".join(buf), start), j
        buf.append(c)
        j += 1
    return Token(STRING, "".join(buf), start), j


def _consume_url(text: str, i: int, start: int) -> tuple[Token, int]:
    """After ``url(``: unquoted form only; ``i`` points past the paren."""
    j = i
    while j < len(text) and text[j] in _SPACE:
        j += 1
    buf: list[str] = []
    while j < len(text):
        c = text[j]
        if c == ")":
            return Token(URL, "".join(buf).strip(), start), j + 1
        if c in _SPACE:
            # whitespace inside an unquoted url: only valid if ")" follows
            k = j
            while k < len(text) and text[k] in _SPACE:
                k += 1
            if k < len(text) and text[k] == ")":
                return Token(URL, "".join(buf).strip(), start), k + 1
            # bad url: discard up to the closing paren
            while k < len(text) and text[k] != ")":
                k += 1
            return Token(BAD_URL, "", start), min(k + 1, len(text))
        if c in "\"'(":
            k = j
            while k < len(text) and text[k] != ")":
                k += 1
            return Token(BAD_URL, "", start), min(k + 1, len(text))
        buf.append(c)
        j += 1
    return Token(BAD_URL, "", start), j


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end == -1 else end + 2
            continue
        if c in _SPACE:
            j = i
            while j < n and text[j] in _SPACE:
                j += 1
            tokens.append(Token(WS, text[i:j], i))
            i = j
            continue
        if c in "\"'":
            token, i = _consume_string(text, i)
            tokens.append(token)
            continue
        if text.startswith("<!--", i):
            tokens.append(Token(CDO, "<!--", i))
            i += 4
            continue
        if text.startswith("-->", i):
            tokens.append(Token(CDC, "-->", i))
            i += 3
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            name = text[i:j]
            if j < n and text[j] == "(":
                if name.lower() == "url" and (j + 1 >= n or text[j + 1] not in "\"'"):
                    token, i = _consume_url(text, j + 1, i)
                    tokens.append(token)
                else:
                    tokens.append(Token(FUNCTION, name.lower(), i))
                    i = j + 1
                continue
            tokens.append(Token(IDENT, name, i))
            i = j
            continue
        if c == "#":
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token(HASH, text[i + 1 : j], i))
            i = j
            continue
        if c == "@":
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token(AT_KEYWORD, text[i + 1 : j], i))
            i = j
            continue
        if c in "{}[]():;,":
            tokens.append(Token(c, c, i))
            i += 1
            continue
        tokens.append(Token(DELIM, c, i))
        i += 1
    return tokens


# --- CSS error-recovery walk ---

_OPENERS = {LBRACE: RBRACE, LBRACKET: RBRACKET, LPAREN: RPAREN, FUNCTION: RPAREN}

# Token kinds a plausible selector prelude may contain.
_SELECTOR_KINDS = {IDENT, HASH, COLON, COMMA, WS, STRING, LBRACKET, RBRACKET, FUNCTION, LPAREN, RPAREN}
_SELECTOR_DELIMS = set(".*>+~|^$=")


def _selector_plausible(prelude: list) -> bool:
    meaningful = [t for t in prelude if t.kind != WS]
    if not meaningful:
        return False
    for token in meaningful:
        if token.kind == DELIM:
            if token.value not in _SELECTOR_DELIMS:
                return False
        elif token.kind not in _SELECTOR_KINDS:
            return False
    return True


def _consume_group_aware(tokens: list, i: int, until: set[str]) -> tuple[list, int, str]:
    """Collect component values until one of ``until`` appears at nesting
    level zero; returns (collected, next_index, terminator_kind_or_empty)."""
    out: list = []
    stack: list[str] = []
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if not stack and t.kind in until:
            return out, i, t.kind
        if t.kind in _OPENERS:
            stack.append(_OPENERS[t.kind])
            out.append(t)
        elif stack and t.kind == stack[-1]:
            stack.pop()
            out.append(t)
        else:
            out.append(t)
        i += 1
    return out, i, ""


def _split_declarations(block: list) -> list[list]:
    decls: list[list] = []
    current: list = []
    stack: list[str] = []
    for t in block:
        if not stack and t.kind == SEMICOLON:
            decls.append(current)
            current = []
            continue
        if t.kind in _OPENERS:
            stack.append(_OPENERS[t.kind])
        elif stack and t.kind == stack[-1]:
            stack.pop()
        current.append(t)
    decls.append(current)
    return decls


def _declaration_urls(decl: list, wanted_property: str) -> list[str]:
    meaningful = [t for t in decl if t.kind != WS]
    if len(meaningful) < 3:
        return []
    if meaningful[0].kind != IDENT or meaningful[0].value.lower() != wanted_property:
        return []
    if meaningful[1].kind != COLON:
        return []
    value = meaningful[2:]
    if any(t.kind in (BAD_STRING, BAD_URL) for t in value):
        return []  # invalid declaration: dropped whole
    urls: list[str] = []
    for idx, token in enumerate(value):
        if token.kind == URL:
            urls.append(token.value)
        elif token.kind == FUNCTION and token.value == "url":
            rest = value[idx + 1 :]
            if rest and rest[0].kind == STRING:
                urls.append(rest[0].value)
    return urls


def surviving_background_urls(body: bytes) -> list[str]:
    """URLs of ``background`` declarations that survive error recovery inside
    rules whose selector looks plausible."""
    tokens = css_recovery.tokenize(body.decode("latin-1", errors="replace"))
    urls: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind in (WS, CDO, CDC, RBRACE, RBRACKET, RPAREN, SEMICOLON):
            # stray closers and separators at the top level: recovery skips
            i += 1
            continue
        if t.kind == AT_KEYWORD:
            _, i, terminator = _consume_group_aware(tokens, i + 1, {SEMICOLON, LBRACE})
            if terminator == SEMICOLON:
                i += 1
            elif terminator == LBRACE:
                _, i, terminator = _consume_group_aware(tokens, i + 1, {RBRACE})
                if terminator == RBRACE:
                    i += 1
            continue
        prelude, i, terminator = _consume_group_aware(tokens, i, {LBRACE, RBRACE, SEMICOLON})
        if terminator != LBRACE:
            # prelude ran into EOF, a stray "}", or a ";": rule discarded
            if terminator:
                i += 1
            continue
        if any(token.kind == BAD_STRING for token in prelude):
            continue  # string swallowed part of the stream: rule discarded
        block, i, terminator = _consume_group_aware(tokens, i + 1, {RBRACE})
        if terminator == RBRACE:
            i += 1
        if not _selector_plausible(prelude):
            continue
        for decl in _split_declarations(block):
            urls.extend(_declaration_urls(decl, "background"))
    return urls


# --- dot segments ---


def remove_dot_segments(path: str) -> str:
    """RFC 3986 dot-segment removal; ``..`` above the root clamps at root."""
    output: list[str] = []
    rest = path
    while rest:
        if rest.startswith("../"):
            rest = rest[3:]
        elif rest.startswith("./"):
            rest = rest[2:]
        elif rest.startswith("/./"):
            rest = "/" + rest[3:]
        elif rest == "/.":
            rest = "/"
        elif rest.startswith("/../"):
            rest = "/" + rest[4:]
            if output:
                output.pop()
        elif rest == "/..":
            rest = "/"
            if output:
                output.pop()
        elif rest in (".", ".."):
            rest = ""
        else:
            start = 1 if rest.startswith("/") else 0
            idx = rest.find("/", start)
            if idx == -1:
                output.append(rest)
                rest = ""
            else:
                output.append(rest[:idx])
                rest = rest[idx:]
    return "".join(output) or "/"


# --- HTML facts on html.parser ---


class _FactParser(HTMLParser):
    """Tolerant single-pass extractor; ignores anything inside frames."""

    # Only script and style are raw text, as in the html.parser releases this
    # extractor ran on; later releases may read more elements as raw text.
    CDATA_CONTENT_ELEMENTS = ("script", "style")
    RCDATA_CONTENT_ELEMENTS = ()

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.doc = PageDocument()
        self._line_starts: list[int] = [0]
        self._frame_depth = 0

    def feed_text(self, text: str) -> None:
        # getpos() counts lines by "\n" alone, so the table must too
        offset = 0
        for line in text.split("\n")[:-1]:
            offset += len(line) + 1
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
