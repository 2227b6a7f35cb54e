"""Injection payload construction and reflection matching.

Payloads and the nonce are plain strings.  The reflection probe is a
deliberately incomplete style directive carrying a unique nonce, already
URL-encoded behind a newline prefix; it is safe to leave behind on a target
because it never parses as a valid rule on its own.  The exploit text closes
any open braces and brackets in front of the reflection point and loads a
background image from a caller-chosen URL, which is the observable signal that
injected style fired; ``build_exploit`` gives it the same encoded form as the
probe.
"""

from __future__ import annotations

import random
import string
from enum import Enum
from functools import cache, lru_cache
from urllib.parse import quote

NONCE_LENGTH = 32
NONCE_ALPHABET = string.ascii_lowercase + string.digits

CLOSER_COUNT = 20


class NewlineVariant(Enum):
    """Percent-encoded newline bytes tried in front of the probe."""

    LF = "%0A"
    FF = "%0C"
    CR = "%0D"


# Both builders are pure and a scan asks for the same few results on every
# page, so each result is built once per process.
@cache
def generate_nonce(seed: int) -> str:
    """``NONCE_LENGTH`` characters of ``NONCE_ALPHABET``, fixed by ``seed``."""
    rng = random.Random(seed)
    return "".join(rng.choice(NONCE_ALPHABET) for _ in range(NONCE_LENGTH))


@cache
def build_reflection_payload(nonce: str, newline: NewlineVariant) -> str:
    """URL-encoded probe text, newline prefix included."""
    directive = "{}body{background:" + nonce + "}"
    return newline.value + quote(directive, safe="")


def build_exploit_payload(nonce_url: str) -> str:
    """Exploit text, not yet encoded: closers, then a rule loading ``nonce_url``."""
    return "}" * CLOSER_COUNT + "]" * CLOSER_COUNT + "body{background:url(" + nonce_url + ")}"


@lru_cache(maxsize=256)
def build_exploit(nonce: str, newline: NewlineVariant) -> tuple[str, str]:
    """(canary URL, encoded exploit) for a nonce: the exploit loads
    ``http://css-canary.invalid/<nonce>`` and is URL-encoded behind
    ``newline``, the prefix that made the reflection probe land.  Built once
    per (nonce, newline) and process; the cache is bounded, so a run with many
    nonces does not grow it without limit."""
    nonce_url = f"http://css-canary.invalid/{nonce}"
    return nonce_url, newline.value + quote(build_exploit_payload(nonce_url), safe="")


def find_reflection(body: bytes, nonce: str) -> bool:
    """Whether the nonce occurs in ``body``."""
    return nonce.encode() in body
