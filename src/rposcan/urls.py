"""Dual-view URL handling: how browsers see a URL vs. how rewriting servers do.

Browsers treat the raw path as a file-system-like hierarchy and never decode
percent-escapes while expanding relative references, so ``%2F`` is an opaque
byte pair, not a separator.  Rewriting servers do the opposite: decode once,
then collapse dot segments.  Keeping both views side by side is what lets the
scanner craft URLs whose two interpretations diverge.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass


class MalformedUrl(ValueError):
    """A URL or URL reference that cannot be parsed at this layer."""


_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9.-]*[a-z0-9])?$")

# RFC 3986 pchar plus "/"; query/fragment additionally allow "?".
_PATH_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    "-._~!$&'()*+,;=:@%/"
)
_QUERY_CHARS = _PATH_CHARS | frozenset("?")


@dataclass(frozen=True)
class WebUrl:
    """An absolute http(s) URL as the browser sees it.

    ``path_segments`` holds the raw, still-percent-encoded segments; the
    serialized path is ``"/" + "/".join(path_segments)``, so a URL ending in
    a slash carries a trailing empty segment.
    """

    scheme: str
    host: str
    port: int | None
    path_segments: tuple[str, ...]
    query: str | None = None
    fragment: str | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("http", "https"):
            raise MalformedUrl(f"unsupported scheme: {self.scheme!r}")
        if not self.path_segments:
            raise MalformedUrl("path_segments must not be empty (root is ('',))")
        for seg in self.path_segments:
            if "/" in seg:
                raise MalformedUrl(f"raw slash inside path segment: {seg!r}")

    @property
    def path(self) -> str:
        return "/" + "/".join(self.path_segments)

    @property
    def origin(self) -> str:
        if self.port is None:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    def __str__(self) -> str:
        return serialize_url(self)


def _check_chars(text: str, allowed: frozenset[str], what: str) -> None:
    for ch in text:
        if ch not in allowed:
            raise MalformedUrl(f"illegal character {ch!r} in {what}: {text!r}")


def parse_url(text: str) -> WebUrl:
    """Parse an absolute http(s) URL without decoding anything."""
    m = _SCHEME_RE.match(text)
    if m is None:
        raise MalformedUrl(f"not an absolute URL: {text!r}")
    scheme = m.group(1).lower()
    if scheme not in ("http", "https"):
        raise MalformedUrl(f"unsupported scheme {scheme!r} in {text!r}")
    rest = text[m.end():]
    if not rest.startswith("//"):
        raise MalformedUrl(f"missing authority in {text!r}")
    rest = rest[2:]

    cut = len(rest)
    for ch in "/?#":
        idx = rest.find(ch)
        if idx != -1:
            cut = min(cut, idx)
    authority, rest = rest[:cut], rest[cut:]
    if "@" in authority:
        raise MalformedUrl(f"userinfo is not supported: {text!r}")

    host, port = authority, None
    if ":" in authority:
        host, _, port_text = authority.partition(":")
        if not port_text.isdigit():
            raise MalformedUrl(f"bad port in {text!r}")
        port = int(port_text)
        if not 1 <= port <= 65535:
            raise MalformedUrl(f"port out of range in {text!r}")
    host = host.lower()
    if not host or _HOST_RE.match(host) is None:
        raise MalformedUrl(f"bad host in {text!r}")

    fragment = None
    if "#" in rest:
        rest, _, fragment = rest.partition("#")
        _check_chars(fragment, _QUERY_CHARS | {"#"}, "fragment")
    query = None
    if "?" in rest:
        rest, _, query = rest.partition("?")
        _check_chars(query, _QUERY_CHARS, "query")
    path = rest or "/"
    _check_chars(path, _PATH_CHARS, "path")

    return WebUrl(
        scheme=scheme,
        host=host,
        port=port,
        path_segments=tuple(path.split("/")[1:]),
        query=query,
        fragment=fragment,
    )


def serialize_url(url: WebUrl) -> str:
    out = f"{url.scheme}://{url.host}"
    if url.port is not None:
        out += f":{url.port}"
    out += url.path
    if url.query is not None:
        out += "?" + url.query
    if url.fragment is not None:
        out += "#" + url.fragment
    return out


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 dot-segment removal for an absolute ``path``; ``..`` above the
    root clamps at root, and a final ``.`` or ``..`` leaves a trailing slash."""
    output: list[str] = []
    segments = path.split("/")
    for segment in segments[1:]:
        if segment == "..":
            if output:
                output.pop()
        elif segment != ".":
            output.append(segment)
    if segments[-1] in (".", ".."):
        output.append("")
    return "/" + "/".join(output)


_PERCENT_RUN_RE = re.compile(r"(?:%[0-9A-Fa-f]{2})+")
_LONE_PERCENT_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")


def _decode_percent_run(match: re.Match) -> str:
    return bytes.fromhex(match.group().replace("%", "")).decode("utf-8", "replace")


def percent_decode(text: str) -> str:
    """Decode every run of ``%XX`` escapes as UTF-8, invalid bytes becoming
    U+FFFD; anything else, a ``%`` without two hex digits included, is kept.
    Gives the same result as ``urllib.parse.unquote`` at a fraction of its
    cost.

    ASCII text in which every ``%`` starts an escape and no backslash occurs,
    as in the URLs the scanner builds, is decoded without a Python callback:
    ``codecs.escape_decode`` reads each ``%XX``, rewritten as ``\\xXX``, as one
    byte and copies the rest, and decoding the whole as UTF-8 gives what
    decoding run by run gives, since an ASCII byte never continues a
    multi-byte sequence.  Other text takes one regex callback per run of
    escapes.
    """
    if "%" not in text:
        return text
    if text.isascii() and "\\" not in text and _LONE_PERCENT_RE.search(text) is None:
        return codecs.escape_decode(text.replace("%", "\\x"))[0].decode("utf-8", "replace")
    return _PERCENT_RUN_RE.sub(_decode_percent_run, text)


def browser_base_directory(url: WebUrl) -> str:
    """The path prefix (up to and including the final slash) the browser
    would use as the starting point for relative references."""
    path = url.path
    return path[: path.rfind("/") + 1]


def resolve_relative(base: WebUrl, reference: str) -> WebUrl:
    """Resolve ``reference`` against ``base`` the way a browser does.

    Generic-URI merge semantics, with the browser deviation that
    percent-encoded slashes never act as separators and ``..`` clamps at the
    root instead of failing.
    """
    for ch in reference:
        if ord(ch) < 0x21 or ch in '<>"':
            raise MalformedUrl(f"illegal character {ch!r} in reference {reference!r}")

    m = _SCHEME_RE.match(reference)
    if m is not None:
        return parse_url(reference)
    if reference.startswith("//"):
        return parse_url(base.scheme + ":" + reference)

    ref, fragment = reference, None
    if "#" in ref:
        ref, _, fragment = ref.partition("#")
    query = None
    if "?" in ref:
        ref, _, query = ref.partition("?")
    _check_chars(ref, _PATH_CHARS, "reference path")
    if query is not None:
        _check_chars(query, _QUERY_CHARS, "reference query")

    if not ref:
        # Fragment- or query-only reference: keep the base path untouched.
        return WebUrl(
            scheme=base.scheme,
            host=base.host,
            port=base.port,
            path_segments=base.path_segments,
            query=query if query is not None else base.query,
            fragment=fragment,
        )

    if ref.startswith("/"):
        merged = ref
    else:
        merged = browser_base_directory(base) + ref
    collapsed = _remove_dot_segments(merged)
    return WebUrl(
        scheme=base.scheme,
        host=base.host,
        port=base.port,
        path_segments=tuple(collapsed.split("/")[1:]),
        query=query,
        fragment=fragment,
    )


def server_view(url: WebUrl) -> str:
    """Compute the path a decode-then-canonicalize rewriting server resolves.

    Exactly one decoding pass: ``%2F`` becomes a separator, but a ``%2F``
    produced by decoding ``%252F`` stays literal text.
    """
    return _remove_dot_segments(percent_decode(url.path))


def registrable_domain(host: str) -> str:
    """Best-effort registrable domain (no public-suffix list: the last two
    labels, or three when the second-level label is a common registry tier)."""
    labels = host.lower().rstrip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    second_level_registries = {"co", "com", "net", "org", "gov", "ac", "edu", "or"}
    if labels[-2] in second_level_registries and len(labels[-1]) == 2:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])
