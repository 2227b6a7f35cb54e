"""Per-page scan pipeline: mutate, fetch, detect reflection, judge exploitability.

A page is scanned technique by technique until one mutated fetch produces a
stylesheet response that reflects the probe nonce.  Each technique is probed
with an LF newline in front of the nonce; the FF and then the CR variant are
tried only when the server refused the newline before them (the page fetch
failed, or came back 400 or 403).  That rule assumes a server that answers one
newline normally has nothing to show for the others, and that refusals come as
400 or 403; neither has been checked against real servers.  Verification then
swaps in the exploit payload, with the newline that won, and asks the
rendering model, per browser profile, whether the reflected style would
actually be parsed and fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .httpclient import HttpRequest, HttpResponse, NetworkError
from .mutations import (
    DEFAULT_SLASH_PADDING,
    MutatedRequest,
    MutationTechnique,
    applicable_techniques,
    expand_stylesheet_targets,
    mutate,
)
from .pages import analyze_html, has_blocking_base
from .payloads import (
    NewlineVariant,
    Nonce,
    build_exploit_payload,
    build_reflection_payload,
    encode_exploit,
    find_reflection,
    generate_nonce,
)
from .rendering import (
    ATTACKER_ORIGIN,
    BrowserProfile,
    Engine,
    RenderingMode,
    ResponseSecurity,
    css_would_fire,
    default_profiles,
    effective_mode,
    framing_allowed,
    stylesheet_accepted,
)
from .urls import WebUrl, serialize_url

DEFAULT_BLOCKED_SUFFIXES = (".gov", ".mil", ".army", ".navy", ".airforce")

# Page statuses that read as "this newline was refused": the next newline
# variant gets a try only after one of these or a failed fetch.  An assumed
# set, not one measured on real servers; a refusal with any other status ends
# the technique after LF.
_REFUSED_STATUSES = frozenset({400, 403})


class ScanStatus(Enum):
    NOT_VULNERABLE = "not_vulnerable"
    VULNERABLE = "vulnerable"
    EXPLOITABLE = "exploitable"


class NotVulnerableReason(Enum):
    BASE_TAG = "base_tag"
    NO_RELATIVE_STYLESHEETS = "no_relative_stylesheets"
    NO_REFLECTION = "no_reflection"
    FETCH_FAILED = "fetch_failed"


class Blocker(Enum):
    BASE_TAG = "base_tag"
    NOSNIFF = "nosniff"
    X_FRAME_OPTIONS = "x_frame_options"
    STANDARDS_MODE = "standards_mode"
    X_UA_COMPATIBLE = "x_ua_compatible"


@dataclass
class ScanConfig:
    slash_padding: int = DEFAULT_SLASH_PADDING
    per_host_delay: float = 1.0
    max_concurrent_hosts: int = 4
    request_timeout: float = 10.0
    blocked_suffixes: tuple[str, ...] = DEFAULT_BLOCKED_SUFFIXES
    profiles: tuple[BrowserProfile, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.slash_padding < 1:
            raise ValueError("slash_padding must be >= 1")
        # "not >=" so that NaN fails too: a bad delay must stop the run, not
        # turn the per-host spacing off
        if not self.per_host_delay >= 0:
            raise ValueError("per_host_delay must be >= 0")
        if not self.request_timeout > 0:
            raise ValueError("request_timeout must be > 0")
        if self.max_concurrent_hosts < 1:
            raise ValueError("max_concurrent_hosts must be >= 1")
        if not self.profiles:
            self.profiles = tuple(default_profiles())


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
    nonce: Nonce | None = None
    errors: list[str] = field(default_factory=list)


def ethics_gate(url: WebUrl, config: ScanConfig) -> bool:
    """False iff the host sits under one of the blocked suffixes."""
    host = url.host.lower().rstrip(".")
    for suffix in config.blocked_suffixes:
        suffix = suffix.lower()
        if not suffix.startswith("."):
            suffix = "." + suffix
        if host.endswith(suffix) or host == suffix[1:]:
            return False
    return True


def _fetch(client, url_text: str, errors: list[str], *, referer: str | None = None,
           cookies: dict[str, str] | None = None) -> HttpResponse | None:
    headers = {"Referer": referer} if referer else {}
    try:
        return client.fetch(HttpRequest(url=url_text, headers=headers, cookies=cookies or {}))
    except NetworkError as exc:
        errors.append(f"{url_text}: {exc}")
        return None


def _reflecting_sheet(
    client,
    mutated: MutatedRequest,
    relative_refs: list[str],
    cookies: dict[str, str],
    nonce: Nonce,
    errors: list[str],
) -> tuple[str, HttpResponse] | None:
    """Fetch each stylesheet the refs resolve to from the mutated page, with
    that page as Referer, and return the first one whose body reflects the
    nonce, with its URL; None when none does."""
    referer = serialize_url(mutated.url)
    for sheet in expand_stylesheet_targets(mutated, relative_refs):
        sheet_url = serialize_url(sheet)
        response = _fetch(client, sheet_url, errors, referer=referer, cookies=cookies)
        if response is not None and find_reflection(response.body, nonce):
            return sheet_url, response
    return None


def scan_page(
    url: WebUrl,
    cookies: dict[str, str],
    client,
    config: ScanConfig,
) -> ScanVerdict:
    """Try every applicable technique until a stylesheet response reflects the
    probe; base-tag responses disqualify the technique outright.

    Within a technique the newline variants go LF, FF, CR, and the next one
    is sent only when the page fetch for the one before failed or answered
    with a refused status.  A refused page is still analysed, since an error
    page can reflect too.

    The rule is an assumption, not a measurement on real servers.  It misses
    a target that refuses LF with a status outside ``_REFUSED_STATUSES`` (a
    404, 406 or 500, say), and one whose sink cuts the echo at LF while FF or
    CR would reflect whole; the mock's ``NewlineHandling.CUT_AT_LF`` configs
    count the second kind."""
    nonce = generate_nonce(config.seed)
    errors: list[str] = []
    saw_base = False
    saw_relative_refs = False
    fetched_anything = False

    for technique in applicable_techniques(url, cookies):
        for newline in NewlineVariant:
            payload = build_reflection_payload(nonce, newline)
            mutated = mutate(url, technique, payload, config.slash_padding, cookies)
            request_cookies = {**cookies, **mutated.extra_cookies}
            page_resp = _fetch(client, serialize_url(mutated.url), errors, cookies=request_cookies)
            if page_resp is None:
                continue  # no answer counts as refused: try the next newline
            fetched_anything = True
            doc = analyze_html(page_resp.body)
            if has_blocking_base(doc):
                saw_base = True
                break  # the base tag is payload-independent; next technique
            relative_refs = doc.relative_refs
            if relative_refs:
                saw_relative_refs = True
                hit = _reflecting_sheet(client, mutated, relative_refs, request_cookies, nonce, errors)
                if hit is not None:
                    return ScanVerdict(
                        status=ScanStatus.VULNERABLE,
                        page_url=url,
                        technique=technique,
                        newline=newline,
                        reflected_stylesheet_url=hit[0],
                        cookies=dict(cookies),
                        nonce=nonce,
                        errors=errors,
                    )
            if page_resp.status not in _REFUSED_STATUSES:
                break  # not refused; assumed that another newline shows the same

    if saw_base:
        reason = NotVulnerableReason.BASE_TAG
    elif saw_relative_refs:
        reason = NotVulnerableReason.NO_REFLECTION
    elif fetched_anything:
        reason = NotVulnerableReason.NO_RELATIVE_STYLESHEETS
    else:
        reason = NotVulnerableReason.FETCH_FAILED
    return ScanVerdict(
        status=ScanStatus.NOT_VULNERABLE,
        page_url=url,
        reason=reason,
        cookies=dict(cookies),
        nonce=nonce,
        errors=errors,
    )


def _evaluate_profile(
    profile: BrowserProfile,
    framed: bool,
    doctype: str | None,
    page_security: ResponseSecurity,
    sheet_security: ResponseSecurity,
    style_fires: bool,
    base_present: bool,
    victim_origin: str,
) -> ProfileResult:
    blockers: list[Blocker] = []
    if framed and not framing_allowed(
        page_security.x_frame_options, ATTACKER_ORIGIN, victim_origin
    ):
        return ProfileResult(exploitable=False, framed=True, blockers=[Blocker.X_FRAME_OPTIONS])
    if base_present and profile.base_tag_effective:
        blockers.append(Blocker.BASE_TAG)
    mode = effective_mode(doctype, profile, framed, page_security)
    accepted = stylesheet_accepted(profile, mode, sheet_security)
    if not accepted:
        if mode is RenderingMode.STANDARDS:
            blockers.append(Blocker.STANDARDS_MODE)
            if framed and profile.supports_frame_override and page_security.x_ua_compatible is not None:
                blockers.append(Blocker.X_UA_COMPATIBLE)
        elif sheet_security.nosniff and profile.respects_nosniff:
            blockers.append(Blocker.NOSNIFF)
    exploitable = accepted and not blockers and style_fires
    return ProfileResult(exploitable=exploitable, framed=framed, blockers=blockers)


def verify_exploitable(verdict: ScanVerdict, client, config: ScanConfig) -> ScanVerdict:
    """Re-run the winning technique with the exploit payload and judge it
    against every profile (the frame-override profile also framed)."""
    if verdict.status is not ScanStatus.VULNERABLE:
        return verdict
    assert verdict.technique is not None and verdict.newline is not None
    assert verdict.nonce is not None

    nonce_url = f"http://css-canary.invalid/{verdict.nonce.value}"
    encoded = encode_exploit(build_exploit_payload(nonce_url), verdict.newline)
    mutated = mutate(
        verdict.page_url, verdict.technique, encoded, config.slash_padding, verdict.cookies
    )
    errors = verdict.errors
    request_cookies = {**verdict.cookies, **mutated.extra_cookies}
    page_resp = _fetch(client, serialize_url(mutated.url), errors, cookies=request_cookies)
    if page_resp is None:
        errors.append("exploit page fetch failed; verdict left unverified")
        return verdict
    doc = analyze_html(page_resp.body)
    page_security = ResponseSecurity.from_headers(page_resp.headers)
    base_present = has_blocking_base(doc)

    hit = _reflecting_sheet(
        client, mutated, doc.relative_refs, request_cookies, verdict.nonce, errors
    )
    if hit is None:
        # the bulkier exploit payload did not survive the round trip (extra
        # path depth after decoding, stricter filtering, ...): vulnerable,
        # but not exploitable for any profile
        errors.append("exploit payload did not reflect")
        results = {
            profile.engine: ProfileResult(exploitable=False, framed=False)
            for profile in config.profiles
        }
        return replace(verdict, profile_results=results)

    _, sheet_resp = hit
    sheet_security = ResponseSecurity.from_headers(sheet_resp.headers)
    # the oracle depends only on the sheet and the canary, not on the engine
    style_fires = css_would_fire(sheet_resp.body, nonce_url)
    victim_origin = verdict.page_url.origin
    results: dict[Engine, ProfileResult] = {}
    for profile in config.profiles:
        result = _evaluate_profile(
            profile,
            False,
            doc.doctype,
            page_security,
            sheet_security,
            style_fires,
            base_present,
            victim_origin,
        )
        if not result.exploitable and profile.supports_frame_override:
            framed = _evaluate_profile(
                profile,
                True,
                doc.doctype,
                page_security,
                sheet_security,
                style_fires,
                base_present,
                victim_origin,
            )
            if framed.exploitable:
                result = framed
            else:
                merged = result.blockers + [b for b in framed.blockers if b not in result.blockers]
                result = ProfileResult(exploitable=False, framed=False, blockers=merged)
        results[profile.engine] = result

    status = (
        ScanStatus.EXPLOITABLE
        if any(r.exploitable for r in results.values())
        else ScanStatus.VULNERABLE
    )
    return replace(verdict, status=status, profile_results=results)
