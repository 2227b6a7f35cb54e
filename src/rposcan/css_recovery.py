"""Error-recovery CSS scan deciding whether an injected style rule survives.

Browsers parse stylesheets very forgivingly: junk before a rule is skipped,
stray closing braces at the top level are discarded, unterminated strings eat
everything up to the next newline, and rules with nonsense selectors are
dropped without derailing what follows.  This module models just enough of
that recovery to answer one question: does a ``background: url(...)``
declaration inside a selected rule survive, for an exact caller-given URL?

Not a CSS parser; tokens outside the rule/declaration/block/string/url subset
are treated as opaque delimiters.

The tokenizer is one compiled regular expression with an alternative per
token kind, walked with ``finditer``, so Python runs once per token rather
than once per character.  Two quirks of the token values are kept on purpose:
an unquoted ``url(...)`` value is passed through ``str.strip()``, which also
strips ``\x0b``, ``\x85`` and ``\xa0``, and a backslash at the very end of
the input stays in the string it ends.  ``tokenize`` is looked up at call
time, so a tracer can wrap it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

WS = "ws"
IDENT = "ident"
STRING = "string"
BAD_STRING = "bad-string"
URL = "url"
BAD_URL = "bad-url"
FUNCTION = "function"
HASH = "hash"
AT_KEYWORD = "at-keyword"
CDO = "cdo"
CDC = "cdc"
LBRACE, RBRACE = "{", "}"
LBRACKET, RBRACKET = "[", "]"
LPAREN, RPAREN = "(", ")"
COLON, SEMICOLON, COMMA = ":", ";", ","
DELIM = "delim"


class Token(NamedTuple):
    kind: str
    value: str
    offset: int


# One alternative per token kind.  At each position the first alternative
# that matches wins, so a comment opener beats "/", "-->" beats an ident and
# an unquoted "url(" beats a function; the common kinds come first.  Every
# character is matched by some alternative (the last takes any single
# character), so the scan never skips text.  An unquoted "url(" that does
# not close cleanly is a bad url running to the next ")" or the end of input.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws> [ \t\r\n\f]+ )
    | (?P<punct> [{}\[\]():;,] )
    | (?P<url> [uU][rR][lL]\((?!["'])
               (?: [ \t\r\n\f]*(?P<url_value>[^ \t\r\n\f"'()]*)[ \t\r\n\f]*\)
                 | [^)]*\)? ) )
    | (?P<cdc> --> )
    | (?P<ident> [A-Za-z_-][A-Za-z0-9_-]*\(? )
    | (?P<comment> /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ | /\*[\s\S]* )
    | (?P<string> "[^"\\\n\r\f]*(?:\\[\s\S][^"\\\n\r\f]*)*(?P<dq_end>"|\\?)
                | '[^'\\\n\r\f]*(?:\\[\s\S][^'\\\n\r\f]*)*(?P<sq_end>'|\\?) )
    | (?P<cdo> <!-- )
    | (?P<hash> \#[A-Za-z0-9_-]* )
    | (?P<at> @[A-Za-z0-9_-]* )
    | (?P<delim> [\s\S] )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
# Token(...) runs NamedTuple's Python-level __new__; the tuple constructor
# builds the same object at half the cost, which counts at ~100 tokens a sheet.
_token = tuple.__new__


def _string_token(text: str, m: re.Match) -> Token:
    """A quoted string ends at its closing quote, before a line break (a bad
    string) or at the end of input, where a lone trailing backslash stays in
    the value."""
    start, end = m.span()
    closer = m.group("dq_end" if text[start] == '"' else "sq_end")
    kind = STRING
    if closer == '"' or closer == "'":
        value = text[start + 1 : end - 1]
    else:
        value = text[start + 1 : end]
        if end < len(text) and not closer:
            kind = BAD_STRING
    if "\\" in value:
        value = _ESCAPE_RE.sub(r"\1", value)
    return Token(kind, value, start)


def tokenize(text: str) -> list[Token]:
    """CSS tokens of ``text`` with their offsets; comments yield none."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "delim":  # group names equal the kinds
            append(_token(Token, (kind, m.group(), m.start())))
        elif kind == "punct":
            char = m.group()
            append(_token(Token, (char, char, m.start())))
        elif kind == "ident":
            name = m.group()
            if name[-1] == "(":
                append(_token(Token, (FUNCTION, name[:-1].lower(), m.start())))
            else:
                append(_token(Token, (IDENT, name, m.start())))
        elif kind == "string":
            append(_string_token(text, m))
        elif kind == "url":
            value = m.group("url_value")
            if value is None:
                append(Token(BAD_URL, "", m.start()))
            else:
                append(Token(URL, value.strip(), m.start()))
        elif kind == "hash":
            append(Token(HASH, m.group()[1:], m.start()))
        elif kind == "at":
            append(Token(AT_KEYWORD, m.group()[1:], m.start()))
        elif kind == "cdo":
            append(Token(CDO, "<!--", m.start()))
        elif kind == "cdc":
            append(Token(CDC, "-->", m.start()))
    return tokens


def token_trace(body: bytes) -> list[str]:
    """Human-checkable token stream, used for the committed oracle traces."""
    lines = []
    for token in tokenize(body.decode("latin-1", errors="replace")):
        shown = token.value if token.kind != WS else repr(token.value)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        lines.append(f"{token.offset:6d} {token.kind:<10} {shown}")
    return lines


_OPENERS = {LBRACE: RBRACE, LBRACKET: RBRACKET, LPAREN: RPAREN, FUNCTION: RPAREN}

# Token kinds a plausible selector prelude may contain.
_SELECTOR_KINDS = {IDENT, HASH, COLON, COMMA, WS, STRING, LBRACKET, RBRACKET, FUNCTION, LPAREN, RPAREN}
_SELECTOR_DELIMS = set(".*>+~|^$=")


def _selector_plausible(prelude: list[Token]) -> bool:
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


def _consume_group_aware(tokens: list[Token], i: int, until: set[str]) -> tuple[list[Token], int, str]:
    """Collect component values until one of ``until`` appears at nesting
    level zero; returns (collected, next_index, terminator_kind_or_empty)."""
    out: list[Token] = []
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


def _split_declarations(block: list[Token]) -> list[list[Token]]:
    decls: list[list[Token]] = []
    current: list[Token] = []
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


def _declaration_urls(decl: list[Token], wanted_property: str) -> list[str]:
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
    tokens = tokenize(body.decode("latin-1", errors="replace"))
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


def css_would_fire(body: bytes, nonce_url: str) -> bool:
    """True iff a surviving ``background`` declaration loads exactly
    ``nonce_url``."""
    return nonce_url in surviving_background_urls(body)
