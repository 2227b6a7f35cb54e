"""Straightforward implementations that the optimised code in ``rposcan`` replaced.

They serve only as oracles for the equivalence tests:

- ``tokenize``: the character-by-character CSS tokenizer;
- ``surviving_background_urls``: the CSS error-recovery walk that collects
  each prelude, block and declaration as a list before judging it (on the
  ``rposcan`` tokenizer, so a difference points at the walk);
- ``remove_dot_segments``: RFC 3986 section 5.2.4, string-rewriting form;
- ``analyze_html``: fact extraction on top of ``html.parser``, deciding the
  base tag by the relative links seen when it arrives;
- ``verify_exploitable``: verification that asks the CSS oracle
  (``scanning.css_would_fire``, looked up at call time) before judging any
  profile, and judges every profile with ``judge``: its own copy of the
  per-engine rule, built from ``rendering`` alone, that ``scanning._blockers``
  replaced;
- ``handle_request``: the mock target's handler that rebuilds the config's
  headers, markup and real-stylesheet paths on every request and decodes the
  request target once per use, with its own ``route_request``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from html.parser import HTMLParser
from urllib.parse import quote

from rposcan import css_recovery, scanning
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
from rposcan.httpclient import HttpResponse
from rposcan.mock_target import (
    _REFUSED_BYTES,
    _SANITIZE_RE,
    NewlineHandling,
    Routing,
    Sink,
    SinkFilter,
    TargetConfig,
)
from rposcan.mutations import mutate
from rposcan.pages import PageDocument
from rposcan.payloads import build_exploit_payload, generate_nonce
from rposcan.rendering import (
    ATTACKER_ORIGIN,
    Blocker,
    RenderingMode,
    ResponseSecurity,
    effective_mode,
    framing_allowed,
    stylesheet_refusal,
)
from rposcan.scanning import ProfileResult, ScanStatus, ScanVerdict
from rposcan.urls import (
    _remove_dot_segments,
    is_relative_href,
    parse_url,
    percent_decode,
    resolve_relative,
)

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
    tokens = [Token(*t) for t in css_recovery.tokenize(body.decode("latin-1", errors="replace"))]
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
        self.doctype: str | None = None
        self.relative_refs: list[str] = []
        self.relative_before_base: int | None = None  # set at the first base
        self._frame_depth = 0

    def handle_decl(self, decl: str) -> None:
        if self.doctype is None and decl.lower().startswith("doctype"):
            self.doctype = decl[len("doctype"):].strip()

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in ("iframe", "frame", "frameset"):
            self._frame_depth += 1
            return
        if self._frame_depth > 0:
            return
        attr_map = {name: value for name, value in attrs if value is not None}
        if tag == "base" and self.relative_before_base is None and "href" in attr_map:
            self.relative_before_base = len(self.relative_refs)
        elif tag == "link":
            rel = (attr_map.get("rel") or "").lower().split()
            href = attr_map.get("href")
            if "stylesheet" in rel and href and is_relative_href(href):
                try:  # the page's bytes read as UTF-8 where they are UTF-8
                    href = href.encode("latin-1").decode("utf-8")
                except UnicodeError:
                    pass
                self.relative_refs.append(href)

    def handle_endtag(self, tag: str) -> None:
        if tag in ("iframe", "frame", "frameset") and self._frame_depth > 0:
            self._frame_depth -= 1


def analyze_html(body: bytes) -> PageDocument:
    """Extract doctype, relative stylesheet links and the base decision;
    never raises on junk."""
    parser = _FactParser()
    try:
        parser.feed(body.decode("latin-1"))
        parser.close()
    except Exception:
        pass  # salvage whatever was collected before the parser gave up
    return PageDocument(parser.doctype, parser.relative_refs, parser.relative_before_base == 0)


# --- eager verification ---


def evaluate_profile(profile, framed, style_fires, doctype, page_security, sheet_security,
                     base_present, victim_origin) -> ProfileResult:
    """One engine's result, framed by the attacker or not, every fact given."""
    blockers: list[Blocker] = []
    if framed and not framing_allowed(page_security.x_frame_options, ATTACKER_ORIGIN, victim_origin):
        return ProfileResult(exploitable=False, framed=True, blockers=[Blocker.X_FRAME_OPTIONS])
    if base_present and profile.base_tag_effective:
        blockers.append(Blocker.BASE_TAG)
    mode = effective_mode(doctype, profile, framed, page_security)
    accepted = stylesheet_refusal(profile, mode, sheet_security) is None
    if not accepted:
        if mode is RenderingMode.STANDARDS:
            blockers.append(Blocker.STANDARDS_MODE)
            if framed and profile.supports_frame_override and page_security.x_ua_compatible is not None:
                blockers.append(Blocker.X_UA_COMPATIBLE)
        elif sheet_security.nosniff and profile.respects_nosniff:
            blockers.append(Blocker.NOSNIFF)
    exploitable = accepted and not blockers and style_fires
    return ProfileResult(exploitable=exploitable, framed=framed, blockers=blockers)


def judge(profiles, *facts) -> dict:
    """Every profile's result, unframed first; a profile that can force the
    framing page's mode is also judged framed when unframed does not win, and
    keeps both ways' blockers when neither does."""
    results = {}
    for profile in profiles:
        result = evaluate_profile(profile, False, *facts)
        if not result.exploitable and profile.supports_frame_override:
            framed = evaluate_profile(profile, True, *facts)
            if framed.exploitable:
                result = framed
            else:
                merged = result.blockers + [b for b in framed.blockers if b not in result.blockers]
                result = ProfileResult(exploitable=False, framed=False, blockers=merged)
        results[profile.engine] = result
    return results


def verify_exploitable(verdict: ScanVerdict, client, config: scanning.ScanConfig) -> ScanVerdict:
    """Re-run the winning technique with the exploit payload, ask the oracle
    once, and judge it against every profile (the frame-override profile also
    framed)."""
    if verdict.status is not ScanStatus.VULNERABLE:
        return verdict
    nonce = generate_nonce(config.seed)
    nonce_url = f"http://css-canary.invalid/{nonce}"
    encoded = verdict.newline.value + quote(build_exploit_payload(nonce_url), safe="")
    mutated = mutate(verdict.page_url, verdict.technique, encoded, verdict.cookies)
    errors = verdict.errors
    fetched = scanning._fetch(client, config, mutated.url, errors, cookies=mutated.cookies)
    if fetched is None:
        errors.append("exploit page fetch failed; verdict left unverified")
        return verdict
    page_resp, page = fetched
    doc = scanning.analyze_html(page_resp.body)
    page_security = ResponseSecurity.from_headers(page_resp.headers)
    sheets = scanning.expand_stylesheet_targets(page.web_url, doc.relative_refs, errors)
    hit = scanning._reflecting_sheet(client, config, page, sheets, nonce, errors)
    if hit is None:
        errors.append("exploit payload did not reflect")
        results = {
            profile.engine: ProfileResult(exploitable=False, framed=False)
            for profile in config.profiles
        }
        return replace(verdict, profile_results=results)

    _, sheet_resp = hit
    sheet_security = ResponseSecurity.from_headers(sheet_resp.headers)
    style_fires = scanning.css_would_fire(sheet_resp.body, nonce_url)
    facts = (
        style_fires, doc.doctype, page_security, sheet_security, doc.blocking_base,
        verdict.page_url.origin,
    )
    results = judge(config.profiles, *facts)
    exploitable = any(r.exploitable for r in results.values())
    status = ScanStatus.EXPLOITABLE if exploitable else ScanStatus.VULNERABLE
    return replace(verdict, status=status, profile_results=results)


# --- mock responses, rebuilt from the config on every request ---


def _split_target(raw_target: str) -> tuple[str, str | None]:
    if "?" in raw_target:
        path, _, query = raw_target.partition("?")
        return path, query
    return raw_target, None


def _strip_semicolon_params(path: str) -> str:
    return "/" + "/".join(seg.split(";", 1)[0] for seg in path.split("/")[1:])


def _real_stylesheet_paths(config: TargetConfig) -> set[str]:
    base = parse_url("http://mock.invalid" + config.page_path)
    paths = set()
    for ref in config.stylesheet_refs:
        if is_relative_href(ref):
            paths.add(resolve_relative(base, ref).path)
        elif ref.startswith("/") and not ref.startswith("//"):
            paths.add(ref)
    return paths


def route_request(config: TargetConfig, raw_target: str) -> tuple[str, list[tuple[str, str]]]:
    """Resolve a raw request target to ("page" | "css" | "404", query_pairs).

    Query pairs come back fully decoded, including a query string resurrected
    from an encoded ``?`` by the decode-then-route flavor.
    """
    raw_path, raw_query = _split_target(raw_target)
    recovered_query: str | None = None

    if config.routing is Routing.ENCODED_SLASH_DECODE:
        decoded = percent_decode(raw_path)
        if "?" in decoded:
            decoded, _, recovered_query = decoded.partition("?")
        normalized = _remove_dot_segments(decoded)
    elif config.routing is Routing.SEMICOLON_PARAMS:
        normalized = _strip_semicolon_params(percent_decode(raw_path))
    else:
        normalized = percent_decode(raw_path)

    pairs: list[tuple[str, str]] = []
    if raw_query is not None:
        for chunk in raw_query.split("&"):
            if "=" in chunk:
                key, _, value = chunk.partition("=")
                pairs.append((key, percent_decode(value)))
    elif recovered_query is not None:
        for chunk in recovered_query.split("&"):
            if "=" in chunk:
                key, _, value = chunk.partition("=")
                pairs.append((key, value))  # already decoded with the path

    if config.serve_real_stylesheets and normalized in _real_stylesheet_paths(config):
        return "css", pairs

    if config.routing in (Routing.EXACT_FILE, Routing.ENCODED_SLASH_DECODE):
        # the decode-then-route flavor canonicalizes and then matches exactly
        is_page = normalized == config.page_path
    else:
        is_page = normalized == config.page_path or normalized.startswith(config.page_path + "/")
    return ("page" if is_page else "404"), pairs


# --- response bodies ---


def _apply_filter(config: TargetConfig, value: str) -> str | None:
    if config.newline_handling is NewlineHandling.CUT_AT_LF:
        value = value.partition("\n")[0]
    if config.sink_filter is SinkFilter.DROP:
        return None
    if config.sink_filter is SinkFilter.SANITIZE:
        return _SANITIZE_RE.sub("", value)
    return value


def _sink_echoes(
    config: TargetConfig, raw_target: str, cookies, referer, query_pairs: list[tuple[str, str]]
) -> list[tuple[str, str]]:
    echoes: list[tuple[str, str]] = []
    if Sink.ECHO_URL in config.sinks:
        echoes.append(("echo-url", percent_decode(raw_target)))
    if Sink.ECHO_QUERY_VALUES in config.sinks:
        for _, value in query_pairs:
            echoes.append(("echo-query", value))
    if Sink.ECHO_COOKIE_VALUES in config.sinks:
        for _, value in sorted(cookies.items()):
            echoes.append(("echo-cookie", percent_decode(value)))
    if Sink.ECHO_REFERRER in config.sinks:
        if referer:
            echoes.append(("echo-referrer", percent_decode(referer)))
    filtered = []
    for css_class, value in echoes:
        kept = _apply_filter(config, value)
        if kept is not None:
            filtered.append((css_class, kept))
    return filtered


def _head_lines(config: TargetConfig, origin: str) -> list[str]:
    lines = []
    if config.doctype:
        lines.append(f"<!DOCTYPE {config.doctype}>")
    lines.append("<html><head>")
    if config.emit_base_tag:
        directory = config.page_path.rsplit("/", 1)[0] + "/"
        lines.append(f'<base href="{origin}{directory}">')
    lines.append("<title>mock target</title>")
    return lines


def _ref_lines(config: TargetConfig) -> list[str]:
    return [f'<link rel="stylesheet" href="{ref}">' for ref in config.stylesheet_refs]


def _page_body(config: TargetConfig, authority: str, raw_target: str, cookies, referer,
               query_pairs) -> bytes:
    lines = _head_lines(config, "http://" + authority)
    lines.extend(_ref_lines(config))
    lines.append("</head>")
    lines.append("<body>")
    lines.append("<h1>mock page</h1>")
    for css_class, value in _sink_echoes(config, raw_target, cookies, referer, query_pairs):
        lines.append(f'<p class="{css_class}">{value}</p>')
    lines.append("</body></html>")
    return "\n".join(lines).encode("latin-1", errors="replace")


def _error_body(config: TargetConfig, authority: str, raw_target: str) -> bytes:
    lines = _head_lines(config, "http://" + authority)
    if config.error_page_has_refs:
        lines.extend(_ref_lines(config))
    lines.append("</head>")
    lines.append("<body>")
    lines.append("<h1>404 Not Found</h1>")
    if config.error_page_echoes_url:
        echoed = _apply_filter(config, percent_decode(raw_target))
        if echoed is not None:
            lines.append(f'<p class="echo-url">{echoed}</p>')
    lines.append("</body></html>")
    return "\n".join(lines).encode("latin-1", errors="replace")


def _security_headers(config: TargetConfig) -> dict[str, str]:
    headers: dict[str, str] = {}
    if config.nosniff:
        headers["X-Content-Type-Options"] = "nosniff"
    if config.x_frame_options is not None:
        headers["X-Frame-Options"] = config.x_frame_options
    if config.x_ua_compatible is not None:
        headers["X-UA-Compatible"] = config.x_ua_compatible
    return headers


_REFUSED_BODY = b"<html><body><h1>400 Bad Request</h1></body></html>"


def _refuses(config: TargetConfig, raw_target: str) -> bool:
    refused = _REFUSED_BYTES.get(config.newline_handling)
    if refused is None:
        return False
    decoded = percent_decode(raw_target)
    return any(byte in decoded for byte in refused)


def handle_request(config: TargetConfig, authority: str, raw_target: str, cookies,
                   referer: str | None) -> HttpResponse:
    """Byte-deterministic response for a GET request against this config,
    given its ``Host`` and request target as sent."""
    headers = _security_headers(config)
    if _refuses(config, raw_target):
        headers["Content-Type"] = "text/html; charset=utf-8"
        return HttpResponse(400, headers, _REFUSED_BODY)
    kind, query_pairs = route_request(config, raw_target)
    if kind == "css":
        headers["Content-Type"] = "text/css"
        return HttpResponse(200, headers, b"body { margin: 0; }\n")
    headers["Content-Type"] = "text/html; charset=utf-8"
    if kind == "page":
        return HttpResponse(200, headers, _page_body(config, authority, raw_target, cookies, referer,
                                                     query_pairs))
    return HttpResponse(404, headers, _error_body(config, authority, raw_target))
