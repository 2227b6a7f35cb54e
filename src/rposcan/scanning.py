"""Per-page scan pipeline: mutate, fetch, detect reflection, judge exploitability.

A page is scanned technique by technique until one mutated fetch produces a
stylesheet response that reflects the probe nonce; ``scan_page`` gives the
order of the newline variants and what that order assumes.  Verification then
swaps in the exploit payload, with the newline that won, and asks the
rendering model, per browser profile, whether the reflected style would
actually be parsed and fire.

Redirects are followed here, not in the client: each hop is a request of its
own, so it passes the blocklist, the per-host spacing and any exchange log
like the URL that led to it.  A redirected page's refs resolve against the
last hop, as a browser's document URL is the end of its redirect chain, and
its stylesheets are fetched with that URL as ``Referer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .css_recovery import css_would_fire
from .httpclient import HttpRequest, HttpResponse, NetworkError
from .mutations import (
    MutationTechnique,
    applicable_techniques,
    expand_stylesheet_targets,
    mutate,
)
from .pages import analyze_html
from .payloads import (
    NewlineVariant,
    build_exploit,
    build_reflection_payload,
    find_reflection,
    generate_nonce,
)
from .rendering import (
    ATTACKER_ORIGIN,
    Blocker,
    BrowserProfile,
    Engine,
    ResponseSecurity,
    default_profiles,
    effective_mode,
    framing_allowed,
    stylesheet_refusal,
)
from .urls import MalformedUrl, WebUrl, resolve_href, serialize_url

DEFAULT_BLOCKED_SUFFIXES = (".gov", ".mil", ".army", ".navy", ".airforce")

# Page statuses that read as "this newline was refused": the next newline
# variant gets a try only after one of these or a failed fetch.  An assumed
# set, not one measured on real servers; a refusal with any other status ends
# the technique after LF.
_REFUSED_STATUSES = frozenset({400, 403})

# A fetch follows at most this many redirects; one more fails it.
MAX_REDIRECTS = 5
_REDIRECT_STATUSES = frozenset((301, 302, 303, 307, 308))


class ScanStatus(Enum):
    NOT_VULNERABLE = "not_vulnerable"
    VULNERABLE = "vulnerable"
    EXPLOITABLE = "exploitable"


class NotVulnerableReason(Enum):
    """Why a page is not vulnerable, weakest first: a page's reason is the
    strongest that any of its page fetches showed."""

    FETCH_FAILED = "fetch_failed"
    NO_RELATIVE_STYLESHEETS = "no_relative_stylesheets"
    NO_REFLECTION = "no_reflection"
    BASE_TAG = "base_tag"

    def __lt__(self, other: NotVulnerableReason) -> bool:
        return _STRENGTH.index(self) < _STRENGTH.index(other)


_STRENGTH = tuple(NotVulnerableReason)


def suffix_form(suffix: str) -> str:
    """The one form of a blocked suffix: lower-cased, one leading dot."""
    return "." + suffix.lower().lstrip(".")


@dataclass
class ScanConfig:
    per_host_delay: float = 1.0
    max_concurrent_hosts: int = 4
    request_timeout: float = 10.0
    blocked_suffixes: tuple[str, ...] = DEFAULT_BLOCKED_SUFFIXES
    profiles: tuple[BrowserProfile, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # "not >=" so that NaN fails too: a bad delay must stop the run, not
        # turn the per-host spacing off
        if not self.per_host_delay >= 0:
            raise ValueError("per_host_delay must be >= 0")
        if not self.request_timeout > 0:
            raise ValueError("request_timeout must be > 0")
        if self.max_concurrent_hosts < 1:
            raise ValueError("max_concurrent_hosts must be >= 1")
        if not self.profiles:
            self.profiles = default_profiles()
        self.blocked_suffixes = tuple(map(suffix_form, self.blocked_suffixes))


@dataclass
class ProfileResult:
    exploitable: bool
    framed: bool
    blockers: list[Blocker] = field(default_factory=list)


@dataclass
class ScanVerdict:
    status: ScanStatus
    page_url: WebUrl
    reason: NotVulnerableReason | None = None
    technique: MutationTechnique | None = None
    newline: NewlineVariant | None = None
    reflected_stylesheet_url: str | None = None
    profile_results: dict[Engine, ProfileResult] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def ethics_gate(url: WebUrl, config: ScanConfig) -> bool:
    """False iff the host sits under one of the blocked suffixes."""
    return not ("." + url.host.lower().rstrip(".")).endswith(config.blocked_suffixes)


def _fetch(client, config: ScanConfig, url: WebUrl, errors: list[str], *,
           referer: str | None = None,
           cookies: dict[str, str] | None = None) -> tuple[HttpResponse, HttpRequest] | None:
    """The response to a GET of ``url``, redirects followed, with the last
    request sent, whose URL is the document's as a browser sees it; or None
    with the reason appended to ``errors``.

    Each hop is one ``client.fetch``, up to ``MAX_REDIRECTS`` of them. Its URL
    is the ``Location`` resolved as a browser resolves a reference; one that
    does not parse ends the fetch before anything is sent. No URL is sent,
    ``url`` or a hop, whose host fails ``ethics_gate``. The cookies go along
    only while the origin stays the same, and the ``Referer`` stays."""
    if not ethics_gate(url, config):
        errors.append(f"{serialize_url(url)}: blocked host {url.host} not fetched")
        return None
    request = HttpRequest(url, referer=referer, cookies=cookies or {})
    for _ in range(MAX_REDIRECTS + 1):
        try:
            response = client.fetch(request)
        except NetworkError as exc:
            errors.append(f"{request.url}: {exc}")
            return None
        location = response.status in _REDIRECT_STATUSES and response.header("Location")
        if not location:
            return response, request
        here = request.web_url
        try:
            hop = resolve_href(here, location)
        except MalformedUrl as exc:
            errors.append(f"{request.url}: redirect not followed: {exc}")
            return None
        if not ethics_gate(hop, config):
            errors.append(f"{request.url}: redirect to blocked host {hop.host} not followed")
            return None
        cookies = request.cookies if hop.origin == here.origin else {}
        request = request._replace(web_url=hop, cookies=cookies)
    errors.append(f"{serialize_url(url)}: more than MAX_REDIRECTS ({MAX_REDIRECTS}) redirects")
    return None


def _reflecting_sheet(
    client,
    config: ScanConfig,
    page: HttpRequest,
    sheets: list[WebUrl],
    nonce: str,
    errors: list[str],
) -> tuple[str, HttpResponse] | None:
    """Fetch each stylesheet with the page that links it as Referer and the
    cookies that page was fetched with, and return the first one whose body
    reflects the nonce, with its URL; None when none does."""
    page_url = serialize_url(page.web_url)
    for sheet in sheets:
        fetched = _fetch(client, config, sheet, errors, referer=page_url, cookies=page.cookies)
        if fetched is not None and find_reflection(fetched[0].body, nonce):
            return serialize_url(sheet), fetched[0]
    return None


def scan_page(
    url: WebUrl,
    cookies: dict[str, str],
    client,
    config: ScanConfig,
) -> ScanVerdict:
    """Try every applicable technique until a stylesheet response reflects the
    probe; base-tag responses disqualify the technique outright.  A page that
    none reflects gets the strongest ``NotVulnerableReason`` that its page
    fetches showed: ``no_reflection`` needs a stylesheet to have been
    fetched, so a page whose relative refs all fail to resolve shows
    ``no_relative_stylesheets``.

    Within a technique the newline variants go LF, FF, CR, and the next one
    is sent only when the page fetch for the one before failed or answered
    with a refused status.  A refused page is still analysed, since an error
    page can reflect too.

    The rule is an assumption, not a measurement on real servers.  It misses
    a target that refuses LF with a status outside ``_REFUSED_STATUSES`` (a
    404, 406 or 500, say), and one whose sink cuts the echo at LF while FF or
    CR would reflect whole; the mock's ``NewlineHandling.CUT_AT_LF`` configs
    count the second kind (5 of 6 missed)."""
    nonce = generate_nonce(config.seed)
    errors: list[str] = []
    reason = NotVulnerableReason.FETCH_FAILED

    for technique in applicable_techniques(url, cookies):
        for newline in NewlineVariant:
            payload = build_reflection_payload(nonce, newline)
            mutated = mutate(url, technique, payload, cookies)
            fetched = _fetch(client, config, mutated.url, errors, cookies=mutated.cookies)
            if fetched is None:
                continue  # no answer counts as refused: try the next newline
            page_resp, page = fetched
            doc = analyze_html(page_resp.body)
            if doc.blocking_base:
                reason = NotVulnerableReason.BASE_TAG
                break  # the base tag is payload-independent; next technique
            sheets = expand_stylesheet_targets(page.web_url, doc.relative_refs, errors)
            if not sheets:
                reason = max(reason, NotVulnerableReason.NO_RELATIVE_STYLESHEETS)
            else:
                reason = max(reason, NotVulnerableReason.NO_REFLECTION)
                hit = _reflecting_sheet(client, config, page, sheets, nonce, errors)
                if hit is not None:
                    return ScanVerdict(
                        status=ScanStatus.VULNERABLE,
                        page_url=url,
                        technique=technique,
                        newline=newline,
                        reflected_stylesheet_url=hit[0],
                        cookies=dict(cookies),
                        errors=errors,
                    )
            if page_resp.status not in _REFUSED_STATUSES:
                break  # not refused; assumed that another newline shows the same

    return ScanVerdict(
        status=ScanStatus.NOT_VULNERABLE,
        page_url=url,
        reason=reason,
        cookies=dict(cookies),
        errors=errors,
    )


def _blockers(
    profile: BrowserProfile,
    framed: bool,
    doctype: str | None,
    page_security: ResponseSecurity,
    sheet_security: ResponseSecurity,
    base_present: bool,
    frameable: bool,
) -> list[Blocker]:
    """What stops ``profile`` from applying the reflected style, with the
    page framed by the attacker or not; none means the CSS oracle decides.
    ``frameable`` is ``framing_allowed`` for the attacker's origin."""
    if framed and not frameable:
        return [Blocker.X_FRAME_OPTIONS]
    blockers = [Blocker.BASE_TAG] if base_present and profile.base_tag_effective else []
    mode = effective_mode(doctype, profile, framed, page_security)
    refusal = stylesheet_refusal(profile, mode, sheet_security)
    if refusal is not None:
        blockers.append(refusal)
    if refusal is Blocker.STANDARDS_MODE and framed and profile.supports_frame_override:
        if page_security.x_ua_compatible is not None:  # it kept the framing override away
            blockers.append(Blocker.X_UA_COMPATIBLE)
    return blockers


def verify_exploitable(verdict: ScanVerdict, client, config: ScanConfig) -> ScanVerdict:
    """Re-run the winning technique with the exploit payload and judge it
    against every profile: an engine wins unframed first, then framed (the
    frame-override profile only); one that wins neither way keeps both ways'
    blockers, unframed first."""
    if verdict.status is not ScanStatus.VULNERABLE:
        return verdict
    assert verdict.technique is not None and verdict.newline is not None

    nonce = generate_nonce(config.seed)
    nonce_url, encoded = build_exploit(nonce, verdict.newline)
    mutated = mutate(verdict.page_url, verdict.technique, encoded, verdict.cookies)
    errors = list(verdict.errors)  # the input verdict stays as it was
    fetched = _fetch(client, config, mutated.url, errors, cookies=mutated.cookies)
    if fetched is None:
        errors.append("exploit page fetch failed; verdict left unverified")
        return replace(verdict, errors=errors)
    page_resp, page = fetched
    doc = analyze_html(page_resp.body)
    page_security = ResponseSecurity.from_headers(page_resp.headers)

    sheets = expand_stylesheet_targets(page.web_url, doc.relative_refs, errors)
    hit = _reflecting_sheet(client, config, page, sheets, nonce, errors)
    if hit is None:
        # the bulkier exploit payload did not survive the round trip (extra
        # path depth after decoding, stricter filtering, ...): vulnerable,
        # but not exploitable for any profile
        errors.append("exploit payload did not reflect")
        results = {
            profile.engine: ProfileResult(exploitable=False, framed=False)
            for profile in config.profiles
        }
        return replace(verdict, profile_results=results, errors=errors)

    _, sheet_resp = hit
    sheet_security = ResponseSecurity.from_headers(sheet_resp.headers)
    frameable = framing_allowed(page_security.x_frame_options, ATTACKER_ORIGIN, verdict.page_url.origin)
    facts = (doc.doctype, page_security, sheet_security, doc.blocking_base, frameable)
    # each engine unframed, and framed when it can force the framing page's mode
    judged = {
        profile.engine: (
            _blockers(profile, False, *facts),
            _blockers(profile, True, *facts) if profile.supports_frame_override else None,
        )
        for profile in config.profiles
    }
    # The CSS oracle adds no blocker and depends on the sheet and the canary,
    # not on the engine: it is asked once, when some engine is unblocked.
    unblocked = any(not unframed or framed == [] for unframed, framed in judged.values())
    fires = unblocked and css_would_fire(sheet_resp.body, nonce_url)
    results: dict[Engine, ProfileResult] = {}
    for engine, (unframed, framed) in judged.items():
        if fires and not unframed:
            results[engine] = ProfileResult(exploitable=True, framed=False)
        elif fires and framed == []:
            results[engine] = ProfileResult(exploitable=True, framed=True)
        else:
            merged = unframed + [b for b in framed or () if b not in unframed]
            results[engine] = ProfileResult(exploitable=False, framed=False, blockers=merged)

    status = (
        ScanStatus.EXPLOITABLE
        if any(r.exploitable for r in results.values())
        else ScanStatus.VULNERABLE
    )
    return replace(verdict, status=status, profile_results=results, errors=errors)
