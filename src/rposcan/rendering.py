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
import json
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .css_recovery import css_would_fire as css_would_fire  # re-export

__all__ = [
    "Engine",
    "RenderingMode",
    "BrowserProfile",
    "ResponseSecurity",
    "parse_doctype",
    "classify_doctype",
    "effective_mode",
    "ATTACKER_ORIGIN",
    "framing_allowed",
    "stylesheet_accepted",
    "css_would_fire",
    "default_profiles",
    "load_profiles",
    "profile_by_engine",
]


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


@dataclass(frozen=True)
class ResponseSecurity:
    """Security-relevant response facts; raw header values kept for audit."""

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


def _origin_of(url_or_origin: str) -> str:
    m = re.match(r"^([a-z][a-z0-9+.-]*://[^/]+)", url_or_origin.strip(), re.IGNORECASE)
    return m.group(1).lower() if m else url_or_origin.strip().lower()


def framing_allowed(
    xfo: str | None,
    attacker_origin: str,
    victim_origin: str,
) -> bool:
    """X-Frame-Options semantics; an absent or unparseable value admits."""
    if xfo is None:
        return True
    value = xfo.strip()
    upper = value.upper()
    if upper == "DENY":
        return False
    if upper == "SAMEORIGIN":
        return _origin_of(attacker_origin) == _origin_of(victim_origin)
    if upper.startswith("ALLOW-FROM"):
        listed = value[len("ALLOW-FROM") :].strip()
        if not listed:
            return True
        allowed = {_origin_of(tok) for tok in re.split(r"[,\s]+", listed) if tok}
        return _origin_of(attacker_origin) in allowed
    return True


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


_BEHAVIOR_FIELDS = ("respects_nosniff", "supports_frame_override", "base_tag_effective")

_LIST_FIELDS = ("extra_quirks_public_ids", "quirks_public_id_exceptions")


def _profile_from_dict(entry: dict) -> BrowserProfile:
    unknown = sorted(set(entry) - {"engine", *_BEHAVIOR_FIELDS, *_LIST_FIELDS})
    if unknown:
        raise ValueError(f"unknown profile key(s): {', '.join(unknown)}")
    kwargs = {"engine": Engine(entry["engine"])}
    for name in _BEHAVIOR_FIELDS:
        kwargs[name] = bool(entry[name])
    for name in _LIST_FIELDS:
        if name in entry:
            kwargs[name] = tuple(entry[name])
    return BrowserProfile(**kwargs)


def load_profiles(path: str | None = None) -> list[BrowserProfile]:
    """Load engine profiles from a JSON file; without a path, the shipped
    defaults."""
    if path is None:
        raw = (resources.files("rposcan") / "data" / "default_profiles.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    doc = json.loads(raw)
    profiles = [_profile_from_dict(entry) for entry in doc["profiles"]]
    if not profiles:
        raise ValueError("profile file defines no engines")
    return profiles


def default_profiles() -> list[BrowserProfile]:
    return load_profiles()


def profile_by_engine(profiles: list[BrowserProfile], engine: Engine) -> BrowserProfile:
    for profile in profiles:
        if profile.engine is engine:
            return profile
    raise KeyError(engine)
