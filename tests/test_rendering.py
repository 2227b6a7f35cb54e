import json
import pathlib
import re

import pytest

from rposcan import reports
from rposcan.cli import main
from rposcan.jsonform import BadInput
from rposcan.mock_target import DOCTYPE_QUIRKS, InProcessClient, Routing, TargetConfig
from rposcan.rendering import (
    Blocker,
    BrowserProfile,
    Engine,
    RenderingMode,
    ResponseSecurity,
    classify_doctype,
    default_profiles,
    effective_mode,
    framing_allowed,
    load_profiles,
    parse_doctype,
    stylesheet_refusal,
)
from rposcan.reports import read_records

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

PROFILES = default_profiles()
BY_ENGINE = {p.engine: p for p in PROFILES}
CHROME = BY_ENGINE[Engine.CHROME]
FIREFOX = BY_ENGINE[Engine.FIREFOX]
EDGE = BY_ENGINE[Engine.EDGE]
IE = BY_ENGINE[Engine.INTERNET_EXPLORER]

TABLE4_QUIRKS_DOCTYPES = [
    None,
    'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"',
    'html PUBLIC "-//W3C//DTD HTML 4.0 Transitional//EN"',
    'html PUBLIC "-//W3C//DTD HTML 3.2 Final//EN"',
    'html PUBLIC "-//W3C//DTD HTML 3.2//EN"',
]


def load_doctype_vectors() -> list[str | None]:
    vectors: list[str | None] = []
    for line in (FIXTURES / "doctypes_50.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vectors.append(None if line == "(none)" else line)
    return vectors


def test_profile_behavior_matrix():
    nosniff_respecting = {p.engine for p in PROFILES if p.respects_nosniff}
    assert nosniff_respecting == {Engine.FIREFOX, Engine.EDGE, Engine.INTERNET_EXPLORER}
    assert {p.engine for p in PROFILES if p.supports_frame_override} == {
        Engine.INTERNET_EXPLORER
    }
    assert not IE.base_tag_effective
    assert all(p.base_tag_effective for p in PROFILES if p.engine is not Engine.INTERNET_EXPLORER)


@pytest.mark.parametrize("doctype", TABLE4_QUIRKS_DOCTYPES)
def test_quirks_vectors_quirk_every_engine(doctype):
    for profile in PROFILES:
        assert classify_doctype(doctype, profile) is RenderingMode.QUIRKS


def test_modern_doctype_is_standards_everywhere():
    for profile in PROFILES:
        assert classify_doctype("html", profile) is RenderingMode.STANDARDS
        assert classify_doctype("<!DOCTYPE html>", profile) is RenderingMode.STANDARDS


def test_system_id_flips_conditional_doctypes_to_standards():
    with_sysid = (
        'html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN"'
        ' "http://www.w3.org/TR/html4/loose.dtd"'
    )
    for profile in PROFILES:
        assert classify_doctype(with_sysid, profile) is RenderingMode.STANDARDS


def test_bare_public_identifier_accepted():
    assert (
        classify_doctype('"-//W3C//DTD HTML 4.01 Transitional//EN"', CHROME)
        is RenderingMode.QUIRKS
    )
    assert (
        classify_doctype("-//W3C//DTD HTML 4.01 Transitional//EN", CHROME)
        is RenderingMode.QUIRKS
    )


def test_unknown_doctype_with_system_id_is_standards():
    d = 'html PUBLIC "-//UNKNOWN//DTD FancyHTML 9.9//EN" "http://example.org/fancy.dtd"'
    assert classify_doctype(d, CHROME) is RenderingMode.STANDARDS


def test_non_html_name_is_quirks():
    assert classify_doctype("foo", CHROME) is RenderingMode.QUIRKS


def test_parse_doctype_forms():
    assert parse_doctype("html") == ("html", None, None)
    assert parse_doctype("<!DOCTYPE html>") == ("html", None, None)
    assert parse_doctype('html PUBLIC "-//X//Y//EN"') == ("html", "-//X//Y//EN", None)
    assert parse_doctype('html PUBLIC "-//X//Y//EN" "http://s"') == (
        "html",
        "-//X//Y//EN",
        "http://s",
    )
    assert parse_doctype('html SYSTEM "about:legacy-compat"') == (
        "html",
        None,
        "about:legacy-compat",
    )


def test_engine_equivalence_classes_on_vector_file():
    vectors = load_doctype_vectors()
    assert len(vectors) >= 50
    webkit_family = [BY_ENGINE[e] for e in (Engine.CHROME, Engine.OPERA, Engine.SAFARI)]
    microsoft_family = [EDGE, IE]
    for doctype in vectors:
        webkit_modes = {classify_doctype(doctype, p) for p in webkit_family}
        assert len(webkit_modes) == 1, doctype
        microsoft_modes = {classify_doctype(doctype, p) for p in microsoft_family}
        assert len(microsoft_modes) == 1, doctype


def test_vector_file_exercises_both_modes():
    vectors = load_doctype_vectors()
    modes = {classify_doctype(d, CHROME) for d in vectors}
    assert modes == {RenderingMode.QUIRKS, RenderingMode.STANDARDS}


# --- effective mode / framing override ---

NO_HEADERS = ResponseSecurity()


def test_ie_framed_overrides_standards_doctype():
    assert (
        effective_mode("html", IE, framed_by_attacker=True, victim_headers=NO_HEADERS)
        is RenderingMode.QUIRKS
    )


def test_chrome_framed_stays_standards():
    assert (
        effective_mode("html", CHROME, framed_by_attacker=True, victim_headers=NO_HEADERS)
        is RenderingMode.STANDARDS
    )


def test_x_ua_compatible_defeats_override():
    headers = ResponseSecurity(x_ua_compatible="IE=edge")
    assert (
        effective_mode("html", IE, framed_by_attacker=True, victim_headers=headers)
        is RenderingMode.STANDARDS
    )


def test_quirks_doctype_quirks_unframed():
    for profile in PROFILES:
        assert (
            effective_mode(None, profile, framed_by_attacker=False, victim_headers=NO_HEADERS)
            is RenderingMode.QUIRKS
        )


def test_override_never_fires_without_support():
    for profile in PROFILES:
        if profile.supports_frame_override:
            continue
        assert (
            effective_mode("html", profile, True, NO_HEADERS) is RenderingMode.STANDARDS
        )


# --- X-Frame-Options ---

ATTACKER = "http://attacker.example"
VICTIM = "http://victim.example"


def test_xfo_deny_blocks():
    assert framing_allowed("DENY", ATTACKER, VICTIM) is False


def test_xfo_sameorigin():
    assert framing_allowed("SAMEORIGIN", ATTACKER, VICTIM) is False
    assert framing_allowed("SAMEORIGIN", VICTIM, VICTIM) is True


def test_xfo_typo_admits():
    assert framing_allowed("SOMEORIGIN", ATTACKER, VICTIM) is True


def test_xfo_absent_admits():
    assert framing_allowed(None, ATTACKER, VICTIM) is True


def test_xfo_allow_from():
    assert framing_allowed("ALLOW-FROM http://attacker.example", ATTACKER, VICTIM) is True
    assert framing_allowed("ALLOW-FROM http://other.example", ATTACKER, VICTIM) is False


@pytest.mark.parametrize("listed, admits", [
    ("http://attacker.invalid:80", True),
    ("HTTP://Attacker.Invalid/page", True),
    ("http://attacker.invalid:8080", False),
    ("https://attacker.invalid", False),
    ("attacker.invalid", False),
])
def test_xfo_origins_read_as_urls_reads_them(listed, admits):
    assert framing_allowed(f"ALLOW-FROM {listed}", "http://attacker.invalid", VICTIM) is admits
    assert framing_allowed("SAMEORIGIN", "http://attacker.invalid", listed) is admits


def test_xfo_case_insensitive():
    assert framing_allowed("deny", ATTACKER, VICTIM) is False


# --- nosniff / stylesheet acceptance ---


def test_css_content_type_accepted_in_any_mode():
    sec = ResponseSecurity(content_type="text/css", nosniff=True)
    for profile in PROFILES:
        assert stylesheet_refusal(profile, RenderingMode.STANDARDS, sec) is None
        assert stylesheet_refusal(profile, RenderingMode.QUIRKS, sec) is None


def test_standards_mode_rejects_non_css():
    sec = ResponseSecurity(content_type="text/html")
    for profile in PROFILES:
        assert stylesheet_refusal(profile, RenderingMode.STANDARDS, sec) is not None


def test_nosniff_matrix_matches_engine_behavior():
    sec = ResponseSecurity(content_type="text/html", nosniff=True)
    blocked = {
        p.engine for p in PROFILES if stylesheet_refusal(p, RenderingMode.QUIRKS, sec) is not None
    }
    assert blocked == {Engine.FIREFOX, Engine.EDGE, Engine.INTERNET_EXPLORER}


def test_quirks_accepts_html_without_nosniff():
    sec = ResponseSecurity(content_type="text/html", nosniff=False)
    for profile in PROFILES:
        assert stylesheet_refusal(profile, RenderingMode.QUIRKS, sec) is None


def test_nosniff_monotonicity():
    for profile in PROFILES:
        for mode in RenderingMode:
            for content_type in (None, "text/css", "text/html", "application/json"):
                with_flag = stylesheet_refusal(
                    profile, mode, ResponseSecurity(content_type=content_type, nosniff=True)
                )
                without = stylesheet_refusal(
                    profile, mode, ResponseSecurity(content_type=content_type, nosniff=False)
                )
                assert with_flag is not None or without is None  # nosniff only adds refusals


def test_a_refused_sheet_is_refused_by_its_mode_in_standards_and_by_nosniff_in_quirks():
    for profile in PROFILES:
        for mode in RenderingMode:
            for content_type in (None, "text/css", "text/html; charset=utf-8"):
                for nosniff in (False, True):
                    sec = ResponseSecurity(content_type=content_type, nosniff=nosniff)
                    refusal = stylesheet_refusal(profile, mode, sec)
                    if content_type == "text/css":
                        expected = None
                    elif mode is RenderingMode.STANDARDS:
                        expected = Blocker.STANDARDS_MODE
                    else:
                        expected = Blocker.NOSNIFF if nosniff and profile.respects_nosniff else None
                    assert refusal is expected, (profile.engine, mode, content_type, nosniff)


def test_response_security_from_headers():
    sec = ResponseSecurity.from_headers(
        {
            "Content-Type": "text/html; charset=utf-8",
            "X-Content-Type-Options": "NOSNIFF",
            "X-Frame-Options": "sameOrigin",
            "X-UA-Compatible": "IE=EmulateIE7",
        }
    )
    assert sec.content_type == "text/html; charset=utf-8"
    assert sec.nosniff is True
    assert sec.x_frame_options == "sameOrigin"  # raw value preserved
    assert sec.x_ua_compatible == "IE=EmulateIE7"


# --- profile file ---


def test_default_profiles_are_one_tuple_with_every_engine_once_in_engine_order():
    first = default_profiles()
    assert isinstance(first, tuple)
    assert default_profiles() is first
    assert [profile.engine for profile in first] == list(Engine)


_CHROME_ENTRY = {
    "engine": "chrome",
    "respects_nosniff": False,
    "supports_frame_override": False,
    "base_tag_effective": True,
}


def test_load_profiles_from_custom_file(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"profiles": [{**_CHROME_ENTRY, "engine": "firefox", "respects_nosniff": True,
                                              "quirks_public_id_exceptions": ["-//w3c//dtd html 3.2//"]}]}))
    (profile,) = load_profiles(str(path))
    assert profile.engine is Engine.FIREFOX
    # the exception list flips this doctype back to standards for this engine
    doctype = 'html PUBLIC "-//W3C//DTD HTML 3.2//EN"'
    assert classify_doctype(doctype, profile) is RenderingMode.STANDARDS
    assert classify_doctype(doctype, FIREFOX) is RenderingMode.QUIRKS


def test_scan_cli_judges_only_the_engines_a_profile_file_defines(tmp_path, monkeypatch):
    # a Firefox that ignores nosniff, where the shipped one would refuse the sheet
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"profiles": [{**_CHROME_ENTRY, "engine": "firefox"}]}))
    target = TargetConfig(name="t", routing=Routing.PATH_INFO_REWRITE, doctype=DOCTYPE_QUIRKS, nosniff=True)
    # the scan's network client answers from the mock, so nothing leaves the process
    monkeypatch.setattr(reports, "RequestsClient", lambda timeout: InProcessClient({"lab.test": target}))
    seed = tmp_path / "seed.txt"
    seed.write_text("http://lab.test/app/page.php\n")
    out = tmp_path / "records.jsonl"
    assert main(["scan", "--seed", str(seed), "--out", str(out), "--delay", "0", "--profiles", str(path)]) == 0
    [record] = read_records(str(out))
    assert record.status == "exploitable"
    assert record.profile_results == {"firefox": {"exploitable": True, "framed": False, "blockers": []}}


def _assert_profile_file_rejected(tmp_path, capsys, doc, message):
    """``load_profiles`` raises BadInput naming the file and ``message`` for
    the JSON document ``doc``, and ``rposcan scan --profiles`` exits 2 with
    that message."""
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BadInput, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_profiles(str(path))
    # a blocked-suffix seed, so no request could leave even if loading passed
    seed = tmp_path / "seed.txt"
    seed.write_text("http://blocked.gov/page.php\n")
    assert main(["scan", "--seed", str(seed), "--profiles", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize("key", ["honors_frame_ancestors", "respects_nosnif"])
def test_profile_file_rejects_unknown_key(tmp_path, capsys, key):
    _assert_profile_file_rejected(tmp_path, capsys, {"profiles": [{**_CHROME_ENTRY, key: True}]}, key)


@pytest.mark.parametrize(
    "key, value",
    [
        ("respects_nosniff", "false"),
        ("supports_frame_override", "false"),
        ("base_tag_effective", 1),
        ("extra_quirks_public_ids", "html"),
        ("quirks_public_id_exceptions", ["-//w3c//dtd html 3.2//", 3]),
        ("engine", "netscape"),
    ],
    ids=["nosniff-as-string", "frame-override-as-string", "base-tag-as-number",
         "quirks-ids-as-string", "exceptions-holding-a-number", "unknown-engine"],
)
def test_profile_file_rejects_value_of_wrong_json_type(tmp_path, capsys, key, value):
    # bool("false") is True, and tuple("html") is four one-letter ids
    _assert_profile_file_rejected(tmp_path, capsys, {"profiles": [{**_CHROME_ENTRY, key: value}]}, key)


def test_profile_file_without_engines_is_rejected(tmp_path, capsys):
    _assert_profile_file_rejected(tmp_path, capsys, {"profiles": []}, "defines no engines")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"profiles": [5]}, "a profile is a JSON object, not 5"),
        ([], 'a JSON object with a "profiles" list'),
        ({"profiles": {"engine": "chrome"}}, 'a JSON object with a "profiles" list'),
        ({"profiles": [{k: v for k, v in _CHROME_ENTRY.items() if k != "respects_nosniff"}]},
         "missing profile key(s): respects_nosniff"),
        ({"profiles": [_CHROME_ENTRY, {**_CHROME_ENTRY, "respects_nosniff": True}]},
         "engine(s) defined more than once: chrome"),
    ],
    ids=["number-for-profile", "list-for-file", "object-for-profiles", "profile-lacking-a-flag",
         "engine-twice"],
)
def test_profile_file_of_the_wrong_shape_is_rejected(tmp_path, capsys, doc, message):
    _assert_profile_file_rejected(tmp_path, capsys, doc, message)
