"""Injection payload construction and reflection matching.

Payloads are plain strings.  The reflection probe is a deliberately
incomplete style directive carrying a unique nonce, already URL-encoded behind
a newline prefix; it is safe to leave behind on a target because it never
parses as a valid rule on its own.  The exploit text closes any open braces
and brackets in front of the reflection point and loads a background image
from a caller-chosen URL, which is the observable signal that injected style
fired; ``encode_exploit`` gives it the same encoded form as the probe.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from urllib.parse import quote

NONCE_LENGTH = 32
NONCE_ALPHABET = string.ascii_lowercase + string.digits

CLOSER_COUNT = 20


class InvalidArgument(ValueError):
    pass


@dataclass(frozen=True)
class Nonce:
    value: str

    def __post_init__(self) -> None:
        if len(self.value) != NONCE_LENGTH or any(
            c not in NONCE_ALPHABET for c in self.value
        ):
            raise InvalidArgument(f"nonce must be {NONCE_LENGTH} chars of [a-z0-9]")


class NewlineVariant(Enum):
    """Percent-encoded newline bytes tried in front of the probe."""

    LF = "%0A"
    FF = "%0C"
    CR = "%0D"


# Both builders are pure and a scan asks for the same few results on every
# page, so each result is built once per process.
@cache
def generate_nonce(seed: int) -> Nonce:
    rng = random.Random(seed)
    return Nonce("".join(rng.choice(NONCE_ALPHABET) for _ in range(NONCE_LENGTH)))


@cache
def build_reflection_payload(nonce: Nonce, newline: NewlineVariant) -> str:
    """URL-encoded probe text, newline prefix included."""
    directive = "{}body{background:" + nonce.value + "}"
    return newline.value + quote(directive, safe="")


def build_exploit_payload(nonce_url: str) -> str:
    """Exploit text, not yet encoded: closers, then a rule loading ``nonce_url``."""
    if "://" not in nonce_url:
        raise InvalidArgument(f"nonce_url must be absolute: {nonce_url!r}")
    return "}" * CLOSER_COUNT + "]" * CLOSER_COUNT + "body{background:url(" + nonce_url + ")}"


def encode_exploit(text: str, newline: NewlineVariant) -> str:
    """URL-encoded form of the exploit text, with the newline prefix that made
    the reflection probe land."""
    return newline.value + quote(text, safe="")


@lru_cache(maxsize=256)
def build_exploit(nonce: Nonce, newline: NewlineVariant) -> tuple[str, str]:
    """(canary URL, encoded exploit) for a nonce: the exploit loads
    ``http://css-canary.invalid/<nonce>`` and carries ``newline`` in front.
    Built once per (nonce, newline) and process; the cache is bounded, so a
    run with many nonces does not grow it without limit."""
    nonce_url = f"http://css-canary.invalid/{nonce.value}"
    return nonce_url, encode_exploit(build_exploit_payload(nonce_url), newline)


def find_reflection(body: bytes, nonce: Nonce) -> list[int]:
    """All byte offsets where the nonce occurs in ``body``, ascending."""
    needle = nonce.value.encode("ascii")
    offsets: list[int] = []
    idx = body.find(needle)
    while idx != -1:
        offsets.append(idx)
        idx = body.find(needle, idx + 1)
    return offsets
