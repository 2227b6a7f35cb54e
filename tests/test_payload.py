from urllib.parse import quote, unquote

from hypothesis import given, strategies as st

from rposcan.payloads import (
    NewlineVariant,
    build_exploit,
    build_exploit_payload,
    build_reflection_payload,
    find_reflection,
    generate_nonce,
)


def test_nonce_shape_and_determinism():
    n = generate_nonce(0)
    assert len(n) == 32
    assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789" for c in n)
    assert generate_nonce(0) == n


def test_nonce_seeds_differ():
    assert generate_nonce(0) != generate_nonce(1)


def test_reflection_payload_encoding_exact():
    n = generate_nonce(7)
    p = build_reflection_payload(n, NewlineVariant.LF)
    assert p == "%0A%7B%7Dbody%7Bbackground%3A" + n + "%7D"


def test_reflection_payload_other_newlines():
    n = generate_nonce(7)
    for variant, prefix in [(NewlineVariant.FF, "%0C"), (NewlineVariant.CR, "%0D")]:
        p = build_reflection_payload(n, variant)
        assert p.startswith(prefix)
        assert p[3:] == "%7B%7Dbody%7Bbackground%3A" + n + "%7D"


def test_reflection_payload_decoded_form():
    n = generate_nonce(3)
    p = build_reflection_payload(n, NewlineVariant.LF)
    decoded = unquote(p)
    assert decoded.count(n) == 1
    assert "<" not in decoded and ">" not in decoded
    # starts with an empty-selector rule, so it is not a complete valid rule
    assert decoded.startswith("\n{}")


def test_newline_variants_are_exactly_three():
    assert {v.value for v in NewlineVariant} == {"%0A", "%0C", "%0D"}


def test_exploit_payload_shapes():
    p = build_exploit_payload("http://c.test/i/N")
    assert p == "}" * 20 + "]" * 20 + "body{background:url(http://c.test/i/N)}"


def test_encoded_exploit_is_url_safe():
    _, encoded = build_exploit(generate_nonce(3), NewlineVariant.LF)
    assert encoded.startswith("%0A" + "%7D" * 20 + "%5D" * 20 + "body")
    assert "{" not in encoded and "}" not in encoded and "]" not in encoded


def test_build_exploit_is_the_encoded_canary_rule_built_once():
    nonce = generate_nonce(3)
    for newline in NewlineVariant:
        canary, encoded = build_exploit(nonce, newline)
        assert canary == "http://css-canary.invalid/" + nonce
        assert encoded == newline.value + quote(build_exploit_payload(canary), safe="")
        assert build_exploit(nonce, newline)[1] is encoded


def test_find_reflection_single():
    n = generate_nonce(1)
    body = b"x" * 100 + n.encode() + b"y" * 10
    assert find_reflection(body, n) is True


def test_find_reflection_absent():
    assert find_reflection(b"nothing here", generate_nonce(1)) is False


def test_find_reflection_partial_nonce_is_absent():
    n = generate_nonce(2)
    raw = n.encode()
    assert find_reflection(b"a" + raw[:-1] + b"-" + raw[1:], n) is False
    assert find_reflection(b"a" + raw + b"-" + raw, n) is True


@given(
    st.binary(max_size=200),
    st.integers(0, 5),
    st.integers(0, 2**30),
)
def test_find_reflection_matches_naive_scan(junk, copies, seed):
    n = generate_nonce(seed)
    raw = n.encode()
    body = junk + (raw + junk) * copies
    assert find_reflection(body, n) == (raw in body)
