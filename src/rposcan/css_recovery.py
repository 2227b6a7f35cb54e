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

The recovery itself is one generator that walks the token list once, keeping
only a stack of pending closers and the state of the current declaration; it
yields each surviving URL as its declaration closes, so ``css_would_fire``
stops at the first match.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
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
# The kinds that open, close or end something; every other kind is content,
# so the loops below test one set per token before they look further.
_STRUCTURAL = frozenset(_OPENERS) | {RBRACE, RBRACKET, RPAREN, SEMICOLON}
# Stray closers and separators at the top level: recovery skips them.
_SKIPPED_AT_TOP = frozenset({WS, CDO, CDC, RBRACE, RBRACKET, RPAREN, SEMICOLON})
_PRELUDE_ENDS = frozenset({LBRACE, RBRACE, SEMICOLON})
_AT_PRELUDE_ENDS = frozenset({SEMICOLON, LBRACE})
_BLOCK_END = frozenset({RBRACE})
_INVALID_VALUE_KINDS = frozenset({BAD_STRING, BAD_URL})

# Token kinds a plausible selector prelude may contain.
_SELECTOR_KINDS = frozenset(
    {IDENT, HASH, COLON, COMMA, WS, STRING, LBRACKET, RBRACKET, FUNCTION, LPAREN, RPAREN}
)
_SELECTOR_DELIMS = frozenset(".*>+~|^$=")

# Where a declaration stands: before its property name, before the colon, in
# the value of a ``background`` declaration, or dropped (another property, a
# malformed start, or a bad string or bad url in the value).
_NAME, _COLON, _VALUE, _DROPPED = range(4)


def _skip_balanced(tokens: Iterator[Token], ends: frozenset[str]) -> str:
    """Consume component values from the iterator ``tokens`` up to and
    including the first kind in ``ends`` at nesting level zero; returns that
    kind, or "" at the end of input."""
    stack: list[str] = []
    for kind, _, _ in tokens:
        if kind not in _STRUCTURAL:
            continue
        if stack:
            if kind == stack[-1]:
                stack.pop()
            elif kind in _OPENERS:
                stack.append(_OPENERS[kind])
        elif kind in ends:
            return kind
        elif kind in _OPENERS:
            stack.append(_OPENERS[kind])
    return ""


def _background_urls(token_list: list[Token]) -> Iterator[str]:
    """Walk ``token_list`` once, yielding the URL of each ``background``
    declaration that survives, as soon as its declaration closes.

    A top-level ``@rule`` is skipped through its ``;`` or its block.  Any other
    top-level token starts a rule whose prelude runs to a ``{``; a ``}``, a
    ``;`` or the end of input first drops the rule.  A rule counts only if
    every token of its selector is plausible.  Its block runs to the matching
    ``}`` or the end of input and splits into declarations at top-level ``;``.
    A declaration counts if it reads ``background`` ``:`` value, ignoring
    whitespace, and holds no bad string or bad url; its URLs are the ``url``
    tokens of the value and every string right after a ``url(`` function.
    Nesting follows ``{}``, ``[]``, ``()`` and functions, and a closer that
    does not match the innermost opener is content.
    """
    tokens = iter(token_list)  # every loop below draws from this one iterator
    for kind, value, _ in tokens:
        if kind in _SKIPPED_AT_TOP:
            continue
        if kind == AT_KEYWORD:
            if _skip_balanced(tokens, _AT_PRELUDE_ENDS) == LBRACE:
                _skip_balanced(tokens, _BLOCK_END)
            continue
        if kind == LBRACE:  # a block with no selector is dropped
            _skip_balanced(tokens, _BLOCK_END)
            continue

        # The prelude, from this token (never a closer, "{" or whitespace).
        stack = [_OPENERS[kind]] if kind in _OPENERS else []
        if kind == DELIM:
            plausible = value in _SELECTOR_DELIMS
        else:
            plausible = kind in _SELECTOR_KINDS
        for kind, value, _ in tokens:
            if kind in _STRUCTURAL:
                if stack:
                    if kind == stack[-1]:
                        stack.pop()
                    elif kind in _OPENERS:
                        stack.append(_OPENERS[kind])
                elif kind in _PRELUDE_ENDS:
                    break
                elif kind in _OPENERS:
                    stack.append(_OPENERS[kind])
            if plausible:
                if kind == DELIM:
                    plausible = value in _SELECTOR_DELIMS
                else:
                    plausible = kind in _SELECTOR_KINDS
        else:
            return  # the prelude ran into the end of input
        if kind != LBRACE:
            continue  # a stray "}" or a ";" ended the prelude: rule dropped
        if not plausible:
            _skip_balanced(tokens, _BLOCK_END)
            continue

        # The block, one declaration at a time.
        state = _NAME
        urls: list[str] = []
        after_url_function = False
        for kind, value, _ in tokens:
            if kind in _STRUCTURAL:
                if stack:
                    if kind == stack[-1]:
                        stack.pop()
                    elif kind in _OPENERS:
                        stack.append(_OPENERS[kind])
                elif kind == RBRACE:
                    break
                elif kind == SEMICOLON:
                    if urls:
                        yield from urls
                        urls = []
                    state = _NAME
                    continue
                elif kind in _OPENERS:
                    stack.append(_OPENERS[kind])
            if kind == WS or state == _DROPPED:
                continue
            if state == _VALUE:
                if kind == URL:
                    urls.append(value)
                elif kind == STRING and after_url_function:
                    urls.append(value)
                elif kind in _INVALID_VALUE_KINDS:
                    state = _DROPPED
                    urls = []
                after_url_function = kind == FUNCTION and value == "url"
            elif state == _NAME:
                state = _COLON if kind == IDENT and value.lower() == "background" else _DROPPED
            else:
                state = _VALUE if kind == COLON else _DROPPED
        yield from urls  # the block's last declaration


def surviving_background_urls(body: bytes) -> list[str]:
    """URLs of ``background`` declarations that survive error recovery inside
    rules whose selector looks plausible."""
    return list(_background_urls(tokenize(body.decode("latin-1", errors="replace"))))


def css_would_fire(body: bytes, nonce_url: str) -> bool:
    """True iff a surviving ``background`` declaration loads exactly
    ``nonce_url``; the walk stops at the first such declaration."""
    return nonce_url in _background_urls(tokenize(body.decode("latin-1", errors="replace")))
