"""Per-engine rendering behavior: doctype switching, header gating, framing.

Profiles are data, not code: each engine carries three behavior booleans and
two optional exception lists, and can be loaded from a JSON profile file so
the matrix can be updated without touching the logic.  The quirks-mode
public-identifier lists every engine shares live here as module constants;
an engine departs from them only through its exception lists.  The defaults
model the engine families' shared behavior (the WebKit-descended engines
agree with each other, as do the two Microsoft engines).
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .jsonform import from_json_form, load
from .urls import MalformedUrl, parse_url


class Engine(Enum):
    CHROME = "chrome"
    OPERA = "opera"
    SAFARI = "safari"
    FIREFOX = "firefox"
    EDGE = "edge"
    INTERNET_EXPLORER = "internet_explorer"


class RenderingMode(Enum):
    STANDARDS = "standards"
    QUIRKS = "quirks"


# Public-identifier prefixes that put every engine we model into quirks mode
# (derived from the interoperable legacy-doctype behavior all engines share).
# These lists are lower-case: classify_doctype matches the lower-cased id.
QUIRKS_PUBLIC_ID_PREFIXES: tuple[str, ...] = (
    "+//silmaril//dtd html pro v0r11 19970101//",
    "-//advasoft ltd//dtd html 3.0 aswedit + extensions//",
    "-//as//dtd html 3.0 aswedit + extensions//",
    "-//ietf//dtd html 2.0 level 1//",
    "-//ietf//dtd html 2.0 level 2//",
    "-//ietf//dtd html 2.0 strict level 1//",
    "-//ietf//dtd html 2.0 strict level 2//",
    "-//ietf//dtd html 2.0 strict//",
    "-//ietf//dtd html 2.0//",
    "-//ietf//dtd html 2.1e//",
    "-//ietf//dtd html 3.0//",
    "-//ietf//dtd html 3.2 final//",
    "-//ietf//dtd html 3.2//",
    "-//ietf//dtd html 3//",
    "-//ietf//dtd html level 0//",
    "-//ietf//dtd html level 1//",
    "-//ietf//dtd html level 2//",
    "-//ietf//dtd html level 3//",
    "-//ietf//dtd html strict level 0//",
    "-//ietf//dtd html strict level 1//",
    "-//ietf//dtd html strict level 2//",
    "-//ietf//dtd html strict level 3//",
    "-//ietf//dtd html strict//",
    "-//ietf//dtd html//",
    "-//metrius//dtd metrius presentational//",
    "-//microsoft//dtd internet explorer 2.0 html strict//",
    "-//microsoft//dtd internet explorer 2.0 html//",
    "-//microsoft//dtd internet explorer 2.0 tables//",
    "-//microsoft//dtd internet explorer 3.0 html strict//",
    "-//microsoft//dtd internet explorer 3.0 html//",
    "-//microsoft//dtd internet explorer 3.0 tables//",
    "-//netscape comm. corp.//dtd html//",
    "-//netscape comm. corp.//dtd strict html//",
    "-//o'reilly and associates//dtd html 2.0//",
    "-//o'reilly and associates//dtd html extended 1.0//",
    "-//o'reilly and associates//dtd html extended relaxed 1.0//",
    "-//sq//dtd html 2.0 hotmetal + extensions//",
    "-//softquad software//dtd hotmetal pro 6.0::19990601::extensions to html 4.0//",
    "-//softquad//dtd hotmetal pro 4.0::19971010::extensions to html 4.0//",
    "-//spyglass//dtd html 2.0 extended//",
    "-//sun microsystems corp.//dtd hotjava html//",
    "-//sun microsystems corp.//dtd hotjava strict html//",
    "-//w3c//dtd html 3 1995-03-24//",
    "-//w3c//dtd html 3.2 draft//",
    "-//w3c//dtd html 3.2 final//",
    "-//w3c//dtd html 3.2//",
    "-//w3c//dtd html 3.2s draft//",
    "-//w3c//dtd html 4.0 frameset//",
    "-//w3c//dtd html 4.0 transitional//",
    "-//w3c//dtd html experimental 19960712//",
    "-//w3c//dtd html experimental 970421//",
    "-//w3c//dtd w3 html//",
    "-//w3o//dtd w3 html 3.0//",
    "-//webtechs//dtd mozilla html 2.0//",
    "-//webtechs//dtd mozilla html//",
)

QUIRKS_PUBLIC_IDS_EXACT: tuple[str, ...] = (
    "-//w3o//dtd w3 html strict 3.0//en//",
    "-/w3c/dtd html 4.0 transitional/en",
    "html",
)

# Quirks only when the doctype carries no system identifier.
QUIRKS_PREFIXES_WHEN_NO_SYSTEM_ID: tuple[str, ...] = (
    "-//w3c//dtd html 4.01 frameset//",
    "-//w3c//dtd html 4.01 transitional//",
)

QUIRKS_SYSTEM_ID_EXACT = "http://www.ibm.com/data/dtd/v11/ibmxhtml1-transitional.dtd"


@dataclass(frozen=True)
class BrowserProfile:
    engine: Engine
    respects_nosniff: bool
    supports_frame_override: bool
    base_tag_effective: bool
    extra_quirks_public_ids: tuple[str, ...] = ()
    quirks_public_id_exceptions: tuple[str, ...] = ()


class ResponseSecurity(NamedTuple):
    """The response headers the rendering rules read: ``content_type`` and
    ``nosniff`` decide whether a sheet is accepted, ``x_frame_options``
    whether the page may be framed, and ``x_ua_compatible`` whether framing
    can force quirks mode.  Values are as sent, parsed by the rule that
    reads them."""

    content_type: str | None = None
    nosniff: bool = False
    x_frame_options: str | None = None
    x_ua_compatible: str | None = None

    @classmethod
    def from_headers(cls, headers: dict[str, str]) -> "ResponseSecurity":
        lowered = {k.lower(): v for k, v in headers.items()}
        xcto = lowered.get("x-content-type-options", "")
        return cls(
            content_type=lowered.get("content-type"),
            nosniff=xcto.strip().lower() == "nosniff",
            x_frame_options=lowered.get("x-frame-options"),
            x_ua_compatible=lowered.get("x-ua-compatible"),
        )


_DOCTYPE_PREFIX_RE = re.compile(r"^<!\s*doctype\b|^doctype\b", re.IGNORECASE)
_PUBLIC_RE = re.compile(
    r"""\bpublic\s+(["'])(?P<pub>.*?)\1(?:\s+(["'])(?P<sys>.*?)\3)?""",
    re.IGNORECASE | re.DOTALL,
)
_SYSTEM_RE = re.compile(r"""\bsystem\s+(["'])(?P<sys>.*?)\1""", re.IGNORECASE | re.DOTALL)


# A page's doctype is classified once per engine, framed and not; a run sees
# few distinct doctypes, so each is parsed once.
@functools.lru_cache(maxsize=256)
def parse_doctype(text: str) -> tuple[str, str | None, str | None]:
    """Split a doctype (full tag, inner text, or bare public identifier) into
    (name, public_id, system_id)."""
    t = text.strip()
    t = _DOCTYPE_PREFIX_RE.sub("", t).strip().rstrip(">").strip()
    if not t:
        return "", None, None
    bare = t.strip("\"'")
    quoted = t != bare
    if bare.startswith(("-//", "+//", "-/")) or (quoted and bare.lower() == "html"):
        # a public identifier given on its own (possibly quoted)
        return "html", bare, None
    m = _PUBLIC_RE.search(t)
    if m:
        name = t[: m.start()].strip().lower()
        return name or "html", m.group("pub"), m.group("sys")
    m = _SYSTEM_RE.search(t)
    if m:
        name = t[: m.start()].strip().lower()
        return name or "html", None, m.group("sys")
    return t.split()[0].lower(), None, None


def classify_doctype(doctype: str | None, profile: BrowserProfile) -> RenderingMode:
    """Missing, non-html, or legacy-public-id doctypes render in quirks mode;
    a well-formed modern doctype is the standards-mode anchor."""
    if doctype is None or not doctype.strip():
        return RenderingMode.QUIRKS
    name, public_id, system_id = parse_doctype(doctype)
    if name != "html":
        return RenderingMode.QUIRKS
    if system_id is not None and system_id.strip().lower() == QUIRKS_SYSTEM_ID_EXACT:
        return RenderingMode.QUIRKS
    if public_id is None:
        return RenderingMode.STANDARDS
    pid = public_id.strip().lower()
    if any(pid.startswith(exc.lower()) for exc in profile.quirks_public_id_exceptions):
        return RenderingMode.STANDARDS
    if pid in (x.lower() for x in profile.extra_quirks_public_ids):
        return RenderingMode.QUIRKS
    if pid in QUIRKS_PUBLIC_IDS_EXACT or pid.startswith(QUIRKS_PUBLIC_ID_PREFIXES):
        return RenderingMode.QUIRKS
    if system_id is None and pid.startswith(QUIRKS_PREFIXES_WHEN_NO_SYSTEM_ID):
        return RenderingMode.QUIRKS
    return RenderingMode.STANDARDS


def effective_mode(
    doctype: str | None,
    profile: BrowserProfile,
    framed_by_attacker: bool,
    victim_headers: ResponseSecurity,
) -> RenderingMode:
    """Rendering mode after the framing override is taken into account.

    Framing forces quirks parsing only on an engine that inherits the parent
    document's mode, and an explicit X-UA-Compatible on the victim defeats
    the override.
    """
    if (
        framed_by_attacker
        and profile.supports_frame_override
        and victim_headers.x_ua_compatible is None
    ):
        return RenderingMode.QUIRKS
    return classify_doctype(doctype, profile)


# The page an attacker frames the victim from; framing is judged against it.
ATTACKER_ORIGIN = "http://attacker.invalid"


def _origin(text: str) -> str | None:
    try:
        return parse_url(text.strip()).origin
    except MalformedUrl:
        return None


def framing_allowed(
    xfo: str | None,
    attacker_origin: str,
    victim_origin: str,
) -> bool:
    """X-Frame-Options semantics; an absent or unparseable value admits.

    Every origin, the two given and each one ``ALLOW-FROM`` lists, is read
    as ``urls`` reads a URL's (``WebUrl.origin``): the scheme and host
    lower-cased and a written default port left out, so
    ``http://attacker.invalid:80`` lists ``http://attacker.invalid``.  A
    listed entry that does not parse as an http(s) URL lists nothing."""
    if xfo is None:
        return True
    value = xfo.strip()
    upper = value.upper()
    if upper == "DENY":
        return False
    if upper == "SAMEORIGIN":
        listed = [victim_origin]
    elif upper.startswith("ALLOW-FROM") and value[len("ALLOW-FROM") :].strip():
        listed = re.split(r"[,\s]+", value[len("ALLOW-FROM") :].strip())
    else:
        return True
    attacker = _origin(attacker_origin)
    return attacker is not None and attacker in map(_origin, listed)


def stylesheet_accepted(
    profile: BrowserProfile, mode: RenderingMode, security: ResponseSecurity
) -> bool:
    """Would the engine parse this response as a stylesheet?"""
    content_type = (security.content_type or "").split(";")[0].strip().lower()
    if content_type == "text/css":
        return True
    if mode is not RenderingMode.QUIRKS:
        return False
    if security.nosniff and profile.respects_nosniff:
        return False
    return True


_DEFAULT_PROFILES = os.path.join(os.path.dirname(__file__), "data", "default_profiles.json")


def _profiles_from_json(doc) -> tuple[BrowserProfile, ...]:
    entries = doc.get("profiles") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError('a profile file is a JSON object with a "profiles" list')
    profiles = tuple(from_json_form(BrowserProfile, entry, "profile") for entry in entries)
    if not profiles:
        raise ValueError("profile file defines no engines")
    engines = [profile.engine.value for profile in profiles]
    twice = sorted({engine for engine in engines if engines.count(engine) > 1})
    if twice:
        raise ValueError(f"engine(s) defined more than once: {', '.join(twice)}")
    return profiles


def load_profiles(path: str | None = None) -> tuple[BrowserProfile, ...]:
    """Load engine profiles from a JSON file; without a path, the shipped
    defaults. A file that is not UTF-8 JSON of the profile file's shape, or
    that defines one engine twice, raises ``BadInput``."""
    return load(_DEFAULT_PROFILES if path is None else path, _profiles_from_json)


@functools.cache
def default_profiles() -> tuple[BrowserProfile, ...]:
    """The shipped profiles, parsed once per process; the same tuple each call."""
    return load_profiles()
