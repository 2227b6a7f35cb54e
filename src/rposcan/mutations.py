"""Path-confusion request mutations.

Each technique crafts a URL (or cookie set) that makes the server return the
original page while the browser believes the document lives one directory
deeper, so the page's relative stylesheet references resolve back into
attacker-influenced territory.  Trailing slash padding keeps the injected
payload inside the resolved stylesheet URL even when references climb with
``../``.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .urls import MalformedUrl, WebUrl, resolve_href, serialize_url

SLASH_PADDING = 20  # empty path segments after the payload

# Last path segment that looks like a server-side script; the set of
# extensions is a scanner tuning knob, not a protocol fact.
_SCRIPT_SEGMENT_RE = re.compile(r"\.(php|asp|aspx|jsp|html?)$", re.IGNORECASE)


class MutationTechnique(Enum):
    PATH_PARAM_SIMPLE = "path_param_simple"
    PATH_PARAM_SLASH = "path_param_slash"
    PATH_PARAM_SEMICOLON = "path_param_semicolon"
    ENCODED_PATH = "encoded_path"
    ENCODED_QUERY = "encoded_query"
    COOKIE = "cookie"


class TechniqueNotApplicable(ValueError):
    pass


class MutatedRequest(NamedTuple):
    """The mutated page URL, and the cookies its fetch sends."""

    url: WebUrl
    cookies: dict[str, str]


def _script_segment_index(segments: tuple[str, ...]) -> int | None:
    for i in range(len(segments) - 1, -1, -1):
        if _SCRIPT_SEGMENT_RE.search(segments[i].split(";", 1)[0]):
            return i
    return None


def _fits(technique: MutationTechnique, url: WebUrl, cookies: dict[str, str]) -> bool:
    """The technique's own precondition on the URL shape and cookies: a place
    for the payload to go."""
    if technique is MutationTechnique.PATH_PARAM_SLASH:
        idx = _script_segment_index(url.path_segments)
        return idx is not None and any(url.path_segments[idx + 1 :])
    if technique is MutationTechnique.PATH_PARAM_SEMICOLON:  # a non-empty ";" parameter
        return any(any(seg.split(";")[1:]) for seg in url.path_segments)
    if technique is MutationTechnique.ENCODED_QUERY:  # a query pair with "="
        return url.query is not None and "=" in url.query
    if technique is MutationTechnique.COOKIE:
        return bool(cookies)
    return True


def applicable_techniques(
    url: WebUrl, original_cookies: dict[str, str] | None = None
) -> list[MutationTechnique]:
    """Techniques worth trying against this URL shape, in the enum's order."""
    cookies = original_cookies or {}
    return [t for t in MutationTechnique if _fits(t, url, cookies)]


def mutate(
    url: WebUrl,
    technique: MutationTechnique,
    payload: str,
    cookies: dict[str, str] | None = None,
) -> MutatedRequest:
    """Apply one technique, embedding the (already URL-encoded) payload text."""
    cookies = cookies or {}
    if not _fits(technique, url, cookies):
        raise TechniqueNotApplicable(f"{technique.value} does not fit {serialize_url(url)}")

    segments = url.path_segments
    padding = ("",) * SLASH_PADDING
    new_query = url.query  # EncodedQuery is the only technique that moves it

    if technique is MutationTechnique.PATH_PARAM_SIMPLE:
        base = segments[:-1] if segments[-1] == "" else segments
        new_segments = base + (payload,) + padding

    elif technique is MutationTechnique.PATH_PARAM_SLASH:
        idx = _script_segment_index(segments)
        assert idx is not None
        new_segments = (
            segments[: idx + 1]
            + tuple(payload + s if s else s for s in segments[idx + 1 :])
            + padding
        )

    elif technique is MutationTechnique.PATH_PARAM_SEMICOLON:
        rewritten = []
        for seg in segments:
            if ";" in seg:
                head, *params = seg.split(";")
                seg = ";".join([head] + [payload + p if p else p for p in params])
            rewritten.append(seg)
        new_segments = tuple(rewritten) + padding

    elif technique is MutationTechnique.ENCODED_PATH:
        # No padding here: trailing slashes would survive the server's
        # canonicalization and break the equal-canonical-path requirement.
        new_segments = segments[:-1] + (payload + "%2F..", segments[-1])

    elif technique is MutationTechnique.ENCODED_QUERY:
        assert url.query is not None
        # Inside a path segment the query's own "/" would split the segment
        # and its "?" would start a real query, so both move encoded; a
        # decode-then-route server still reads the query as it was.
        query = url.query.replace("/", "%2F").replace("?", "%3F")
        pairs = []
        for pair in query.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                pairs.append(key + "=" + payload + value)
            else:
                pairs.append(pair)
        merged = segments[-1] + "%3F" + "&".join(pairs)
        new_segments = segments[:-1] + (merged,) + padding
        new_query = None

    elif technique is MutationTechnique.COOKIE:
        new_segments = segments + padding
        cookies = {name: payload + value for name, value in cookies.items()}

    else:  # pragma: no cover
        raise TechniqueNotApplicable(str(technique))

    return MutatedRequest(WebUrl(url.scheme, url.host, url.port, new_segments, new_query), cookies)


def expand_stylesheet_targets(
    page_url: WebUrl, relative_refs: list[str], errors: list[str]
) -> list[WebUrl]:
    """Resolve each reference against the page's URL as a browser does,
    dropping duplicates (equal URLs) but keeping first-seen order.  A
    reference that does not resolve is left out, and why goes to ``errors``
    once, however many pages carry it."""
    targets: dict[WebUrl, None] = {}
    for ref in relative_refs:
        try:
            targets[resolve_href(page_url, ref)] = None
        except MalformedUrl as exc:
            message = f"stylesheet {ref!r} left out: {exc}"
            if message not in errors:
                errors.append(message)
    return list(targets)
