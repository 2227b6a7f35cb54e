"""rposcan: relative-path-overwrite style-injection scanner and mock target."""

from .css_recovery import css_would_fire
from .mutations import MutationTechnique, MutatedRequest, applicable_techniques, mutate
from .pages import PageDocument, analyze_html, has_blocking_base
from .payloads import (
    NewlineVariant,
    Nonce,
    build_exploit_payload,
    build_reflection_payload,
    find_reflection,
    generate_nonce,
)
from .rendering import (
    BrowserProfile,
    Engine,
    RenderingMode,
    ResponseSecurity,
    classify_doctype,
    default_profiles,
    effective_mode,
    framing_allowed,
    load_profiles,
    stylesheet_accepted,
)
from .scanning import ScanConfig, ScanStatus, ScanVerdict, ethics_gate, scan_page, verify_exploitable
from .urls import (
    MalformedUrl,
    WebUrl,
    browser_base_directory,
    parse_url,
    resolve_relative,
    serialize_url,
    server_view,
)

__version__ = "0.1.0"
