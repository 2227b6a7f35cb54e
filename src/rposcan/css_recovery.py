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
than once per character.  It is a generator of plain (kind, value, offset)
tuples: a token is made only when the recovery walk draws it.  Two quirks of
the token values are kept on purpose: an unquoted ``url(...)`` value is
passed through ``str.strip()``, which also strips ``\x0b``, ``\x85`` and
``\xa0``, and a backslash at the very end of the input stays in the string
it ends.  ``tokenize`` is looked up at call time, so a tracer can wrap it
(the wrapper then times only the generator's creation).

The recovery itself is one generator that draws the tokens once, keeping
only a stack of pending closers and the state of the current declaration; it
yields each surviving URL as its declaration closes.  ``css_would_fire``
stops both walks at the first surviving URL that matches, so the text after
it is never tokenized, and it returns False without tokenizing when the URL
cannot occur in the text at all.

Most tokens cannot change the walk's state: everything between rules but a
rule's first token, and everything in an implausible prelude, a skipped
at-rule or block, or a dropped declaration but the tokens that open, close
or end something.  For these states the walk draws with ``send(run)`` in
place of ``next``, where ``run`` is one of two skip runs: compiled patterns
that match a run of whole tokens the state ignores.  ``tokenize`` matches
the run in C after the last token it yielded and scans on from its end, so
Python sees only the tokens that can change a verdict.  The send is a hint:
a wrapper that ignores it and hands over every token gets the same answer,
since the walk ignores those tokens itself.  A plausible prelude and a live
declaration are read token by token.
"""

from __future__ import annotations

import re
from collections.abc import Generator, Iterator

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


# A token is a plain (kind, value, offset) tuple.  A tuple subclass such as a
# NamedTuple costs about as much to make and to free as the regex match that
# finds the token, and the recovery walk only unpacks it.
Token = tuple[str, str, int]


# The token kinds' patterns, shared by the tokenizer and the skip runs below.
_SPACE = r"[ \t\r\n\f]"
_IDENT_NAME = r"[A-Za-z_-][A-Za-z0-9_-]*"
# An unquoted "url(" that does not close cleanly is a bad url running to the
# next ")" or the end of input.
_URL = rf"""[uU][rR][lL]\((?!["'])
            (?: {_SPACE}*(?P<url_value>[^ \t\r\n\f"'()]*){_SPACE}*\)
              | [^)]*\)? )"""
_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/ | /\*[\s\S]*"
_STRING = r"""  "[^"\\\n\r\f]*(?:\\[\s\S][^"\\\n\r\f]*)*(?P<dq_end>"|\\?)
              | '[^'\\\n\r\f]*(?:\\[\s\S][^'\\\n\r\f]*)*(?P<sq_end>'|\\?)"""
_HASH = r"\#[A-Za-z0-9_-]*"
_AT = r"@[A-Za-z0-9_-]*"
_STRUCTURAL_PUNCT = r"{}\[\]();"

# One alternative per token kind.  At each position the first alternative
# that matches wins, so a comment opener beats "/", "-->" beats an ident and
# an unquoted "url(" beats a function; the common kinds come first.  Every
# character is matched by some alternative (the last takes any single
# character), so the scan never skips text.
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws> {_SPACE}+ )
    | (?P<punct> [{_STRUCTURAL_PUNCT}:,] )
    | (?P<url> {_URL} )
    | (?P<cdc> --> )
    | (?P<ident> {_IDENT_NAME}\(? )
    | (?P<comment> {_COMMENT} )
    | (?P<string> {_STRING} )
    | (?P<cdo> <!-- )
    | (?P<hash> {_HASH} )
    | (?P<at> {_AT} )
    | (?P<delim> [\s\S] )
    """,
    re.VERBOSE,
)

# Skip runs.  Each matches, from a token boundary, a run of whole tokens that
# a state of the recovery walk ignores, and ends on a token boundary, so that
# ``tokenize`` can step over the run in C and scan on from its end.
#
# Content: every token that opens, closes or ends nothing, that is all but
# "{}[]();" and functions.  The first alternative reads most of a page: a
# stretch of characters that start no string, comment, hash, at-keyword or
# CDO and hold no "(", so no function or unquoted url either.  It ends after
# a character that cannot be part of an ident, where a token ends.  The other
# alternatives take whole tokens with the tokenizer's patterns: an ident only
# when no "(" follows, and a run of digits, each of them a delim.  A stretch
# that cannot end is all ident characters, which the digit and ident
# alternatives then take, so the run reads no text more than a few times.
_CONTENT_RUN = re.compile(
    rf"""(?:
        [^{_STRUCTURAL_PUNCT}"'\#@/<]+ (?<![A-Za-z0-9_-])
      | <(?:!--)?
      | {_COMMENT}
      | /
      | {_STRING}
      | {_URL}
      | {_IDENT_NAME}(?![A-Za-z0-9_(-])
      | [0-9]+
      | {_HASH}
      | {_AT}
    )*""",
    re.VERBOSE,
)
# Top level, between rules: whitespace, stray closers and semicolons, CDO,
# CDC and comments.
_TOP_LEVEL_RUN = re.compile(
    rf"""(?: [ \t\r\n\f}}\]);]+ | --> | {_COMMENT} | <!-- )*""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")


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
    return kind, value, start


def tokenize(text: str) -> Generator[Token, re.Pattern | None, None]:
    """CSS tokens of ``text`` as (kind, value, offset), made as they are
    drawn; comments yield none.

    Iterated plainly, it yields every token.  A skip run sent in place of a
    plain draw steps over the whole tokens that the run matches right after
    the last token drawn, and the send returns the token after them."""
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            if kind == "ws" or kind == "delim":  # group names equal the kinds
                token = kind, m.group(), m.start()
            elif kind == "punct":
                char = m.group()
                token = char, char, m.start()
            elif kind == "ident":
                name = m.group()
                if name[-1] == "(":
                    token = FUNCTION, name[:-1].lower(), m.start()
                else:
                    token = IDENT, name, m.start()
            elif kind == "string":
                token = _string_token(text, m)
            elif kind == "url":
                value = m.group("url_value")
                if value is None:
                    token = BAD_URL, "", m.start()
                else:
                    token = URL, value.strip(), m.start()
            elif kind == "hash":
                token = HASH, m.group()[1:], m.start()
            elif kind == "at":
                token = AT_KEYWORD, m.group()[1:], m.start()
            elif kind == "cdo":
                token = CDO, "<!--", m.start()
            elif kind == "cdc":
                token = CDC, "-->", m.start()
            else:  # a comment
                continue
            run = yield token
            if run is not None:
                end = m.end()
                pos = run.match(text, end).end()
                if pos != end:
                    break  # scan on from the end of the run
        else:
            return


def token_trace(body: bytes) -> list[str]:
    """Human-checkable token stream, used for the committed oracle traces."""
    lines = []
    for kind, value, offset in tokenize(body.decode("latin-1")):
        shown = value if kind != WS else repr(value)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        lines.append(f"{offset:6d} {kind:<10} {shown}")
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

# Each draw below is ``send(run)``: ``run`` names the tokens that the state
# ignores, or is None where every token counts.  A source that does not skip
# hands those tokens over, and the state ignores them itself.


def _skip_balanced(send, ends: frozenset[str]) -> str:
    """Draw component values with ``send`` up to and including the first
    kind in ``ends`` at nesting level zero; returns that kind, or "" at the
    end of input."""
    stack: list[str] = []
    try:
        while True:
            kind = send(_CONTENT_RUN)[0]
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
    except StopIteration:
        return ""


def _background_urls(tokens: Generator[Token, re.Pattern | None, None]) -> Iterator[str]:
    """Draw ``tokens`` once, yielding the URL of each ``background``
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
    send = tokens.send
    run = None  # a generator's first draw must be a plain one
    while True:
        try:
            kind, value, _ = send(run)
        except StopIteration:
            return
        run = _TOP_LEVEL_RUN
        if kind in _SKIPPED_AT_TOP:
            continue
        if kind == AT_KEYWORD:
            if _skip_balanced(send, _AT_PRELUDE_ENDS) == LBRACE:
                _skip_balanced(send, _BLOCK_END)
            continue
        if kind == LBRACE:  # a block with no selector is dropped
            _skip_balanced(send, _BLOCK_END)
            continue

        # The prelude, from this token (never a closer, "{" or whitespace).
        stack = [_OPENERS[kind]] if kind in _OPENERS else []
        if kind == DELIM:
            plausible = value in _SELECTOR_DELIMS
        else:
            plausible = kind in _SELECTOR_KINDS
        try:
            while True:
                kind, value, _ = send(None if plausible else _CONTENT_RUN)
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
        except StopIteration:
            return  # the prelude ran into the end of input
        if kind != LBRACE:
            continue  # a stray "}" or a ";" ended the prelude: rule dropped
        if not plausible:
            _skip_balanced(send, _BLOCK_END)
            continue

        # The block, one declaration at a time.
        state = _NAME
        urls: list[str] = []
        after_url_function = False
        try:
            while True:
                kind, value, _ = send(_CONTENT_RUN if state == _DROPPED else None)
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
        except StopIteration:
            yield from urls  # the block ran into the end of input
            return
        yield from urls  # the block's last declaration


def surviving_background_urls(body: bytes) -> list[str]:
    """URLs of ``background`` declarations that survive error recovery inside
    rules whose selector looks plausible."""
    return list(_background_urls(tokenize(body.decode("latin-1"))))


def css_would_fire(body: bytes, nonce_url: str) -> bool:
    """True iff a surviving ``background`` declaration loads exactly
    ``nonce_url``; tokenizing and the walk stop at the first such declaration.

    A ``url(...)`` value is a stripped slice of the text, and a string value
    differs from its slice only by unescaping backslashes.  So with no
    backslash in the text, no token can equal a URL the text does not contain,
    and the answer is False without tokenizing."""
    text = body.decode("latin-1")
    if nonce_url not in text and "\\" not in text:
        return False
    return nonce_url in _background_urls(tokenize(text))
