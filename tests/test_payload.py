from urllib.parse import unquote

import pytest
from hypothesis import given, strategies as st

from rposcan.payloads import (
    InvalidArgument,
    NewlineVariant,
    Nonce,
    build_exploit,
    build_exploit_payload,
    build_reflection_payload,
    encode_exploit,
    find_reflection,
    generate_nonce,
)


def test_nonce_shape_and_determinism():
    n = generate_nonce(0)
    assert len(n.value) == 32
    assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789" for c in n.value)
    assert generate_nonce(0) == n


def test_nonce_seeds_differ():
    assert generate_nonce(0) != generate_nonce(1)


def test_nonce_validation():
    with pytest.raises(InvalidArgument):
        Nonce("short")
    with pytest.raises(InvalidArgument):
        Nonce("A" * 32)  # uppercase is a CSS-safe nonce violation


def test_reflection_payload_encoding_exact():
    n = generate_nonce(7)
    p = build_reflection_payload(n, NewlineVariant.LF)
    assert p == "%0A%7B%7Dbody%7Bbackground%3A" + n.value + "%7D"


def test_reflection_payload_other_newlines():
    n = generate_nonce(7)
    for variant, prefix in [(NewlineVariant.FF, "%0C"), (NewlineVariant.CR, "%0D")]:
        p = build_reflection_payload(n, variant)
        assert p.startswith(prefix)
        assert p[3:] == "%7B%7Dbody%7Bbackground%3A" + n.value + "%7D"


def test_reflection_payload_decoded_form():
    n = generate_nonce(3)
    p = build_reflection_payload(n, NewlineVariant.LF)
    decoded = unquote(p)
    assert decoded.count(n.value) == 1
    assert "<" not in decoded and ">" not in decoded
    # starts with an empty-selector rule, so it is not a complete valid rule
    assert decoded.startswith("\n{}")


def test_newline_variants_are_exactly_three():
    assert {v.value for v in NewlineVariant} == {"%0A", "%0C", "%0D"}


def test_exploit_payload_shapes():
    p = build_exploit_payload("http://c.test/i/N")
    assert p == "}" * 20 + "]" * 20 + "body{background:url(http://c.test/i/N)}"


def test_exploit_payload_rejects_relative_url():
    with pytest.raises(InvalidArgument):
        build_exploit_payload("i/N")


def test_encode_exploit_is_url_safe():
    p = build_exploit_payload("http://c.test/i/N")
    encoded = encode_exploit(p, NewlineVariant.LF)
    assert encoded.startswith("%0A" + "%7D" * 20 + "%5D" * 20 + "body")
    assert "{" not in encoded and "}" not in encoded and "]" not in encoded


def test_build_exploit_is_the_encoded_canary_rule_built_once():
    nonce = generate_nonce(3)
    for newline in NewlineVariant:
        canary, encoded = build_exploit(nonce, newline)
        assert canary == "http://css-canary.invalid/" + nonce.value
        assert encoded == encode_exploit(build_exploit_payload(canary), newline)
        assert build_exploit(nonce, newline)[1] is encoded


def test_find_reflection_single():
    n = generate_nonce(1)
    body = b"x" * 100 + n.value.encode() + b"y" * 10
    assert find_reflection(body, n) == [100]


def test_find_reflection_absent():
    assert find_reflection(b"nothing here", generate_nonce(1)) == []


def test_find_reflection_multiple_ascending():
    n = generate_nonce(2)
    raw = n.value.encode()
    body = b"a" + raw + b"mid" + raw
    offsets = find_reflection(body, n)
    assert offsets == [1, 1 + len(raw) + 3]


@given(
    st.binary(max_size=200),
    st.integers(0, 5),
    st.integers(0, 2**30),
)
def test_find_reflection_matches_naive_scan(junk, copies, seed):
    n = generate_nonce(seed)
    raw = n.value.encode()
    body = junk + (raw + junk) * copies
    naive = [i for i in range(len(body)) if body[i : i + len(raw)] == raw]
    assert find_reflection(body, n) == naive
