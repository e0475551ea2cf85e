"""Verifier challenge sources: seeded randomness or Fiat-Shamir hashing.

A challenge source produces uniform elements of [0, p).  The interactive
source wraps a seeded PRNG.  The Fiat-Shamir source derives every draw
from the canonical byte serialization of the session so far (header plus
all recorded messages): the serialization seeds a SHA-256 counter stream
cut into 64-bit little-endian chunks, and each draw consumes chunks under
rejection sampling until one falls below the largest multiple of p.
Consecutive draws with no message in between consume successive chunks:
the stream is seeded once per message, at the first draw after it.
"""

from __future__ import annotations

import hashlib
import itertools
from random import Random

from .field import PrimeField


class RandomChallenges:
    """Interactive mode: draws come from a seeded PRNG."""

    needs_material = False

    def __init__(self, rng: Random):
        self.rng = rng

    def draw(self, field: PrimeField, material: bytes | None) -> int:
        return field.sample(self.rng)


def _chunks(seed: bytes):
    """64-bit chunk stream: SHA-256(seed || counter) blocks."""
    for block in itertools.count():
        digest = hashlib.sha256(seed + block.to_bytes(8, "little")).digest()
        for i in range(0, 32, 8):
            yield int.from_bytes(digest[i:i + 8], "little")


class FiatShamirChallenges:
    """Non-interactive mode: challenges are hashes of the session so far."""

    needs_material = True

    def __init__(self):
        self._stream = None
        self._seeded_from = (None, 0)

    def draw(self, field: PrimeField, material: bytes) -> int:
        # A session's material only grows: its object and length name it.
        source, length = self._seeded_from
        if material is not source or len(material) != length:
            self._seeded_from = (material, len(material))
            self._stream = _chunks(hashlib.sha256(material).digest())
        p = field.p
        limit = ((1 << 64) // p) * p
        while True:
            chunk = next(self._stream)
            if chunk < limit:
                return chunk % p
