"""Arithmetic in the prime field Z_p for a runtime-configurable odd prime p.

Field elements are plain Python ints kept in canonical form, i.e. the unique
representative of their residue class in [0, p).  A :class:`PrimeField`
carries the modulus, validates it at construction and provides negation,
metered inversion, canonicality checks and uniform sampling.  Addition and
multiplication are plain ``% p`` on ints wherever they are needed; the
metered vector helpers below charge them to a party's meter.  The text and
byte encodings of elements live with the wire format in
:mod:`certilin.messages`.

The modulus must satisfy 3 <= p < 2**62 so that products fit comfortably in
machine-assisted big ints and elements serialize into 8 bytes.
"""

from __future__ import annotations

import operator
from random import Random

from .errors import ConfigError, DomainError, UsageError
from .meter import CostMeter

MAX_MODULUS = 1 << 62

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10**24,
# which covers the whole admissible modulus range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic over the supported range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z_p: modulus validation, inversion and sampling."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ConfigError(f"modulus must be an int, got {type(p).__name__}")
        # An exact int: the text of an int subclass would otherwise reach
        # SMS headers and transcript digests.
        p = operator.index(p)
        if p < 3 or p >= MAX_MODULUS:
            raise ConfigError(f"modulus must satisfy 3 <= p < 2**62, got {p}")
        if not is_prime(p):
            raise ConfigError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    # -- element management ------------------------------------------------

    def check(self, value: int) -> int:
        """Validate that ``value`` already is canonical; return it."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"field element must be an int, got {value!r}")
        if not 0 <= value < self.p:
            raise UsageError(f"{value} is not a canonical residue mod {self.p}")
        return value

    def check_vector(self, vec) -> list:
        return [self.check(x) for x in vec]

    # -- arithmetic ----------------------------------------------------------

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int, meter: CostMeter | None = None) -> int:
        """Multiplicative inverse; zero has none."""
        if a % self.p == 0:
            raise DomainError("zero has no inverse")
        if meter is not None:
            meter.inv += 1
        return pow(a, -1, self.p)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: Random, meter: CostMeter | None = None) -> int:
        """Uniform element of [0, p); deterministic given the rng state."""
        if meter is not None:
            meter.random_draws += 1
        return rng.randrange(self.p)

    def sample_nonzero(self, rng: Random, meter: CostMeter | None = None) -> int:
        """Uniform element of [1, p); draws until nonzero, each draw metered."""
        while True:
            x = self.sample(rng, meter)
            if x != 0:
                return x

    def sample_vector(self, rng: Random, n: int, meter: CostMeter | None = None) -> list:
        return [self.sample(rng, meter) for _ in range(n)]


def same_field(*fields: PrimeField) -> PrimeField:
    """Assert that all arguments share one modulus; return it."""
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise UsageError(f"mixed moduli: {first.p} vs {f.p}")
    return first


# -- metered vector helpers used by verifier code paths -------------------


def dot(field: PrimeField, u: list, v: list, meter: CostMeter | None = None) -> int:
    """Inner product; charges n multiplications and n-1 additions."""
    if len(u) != len(v):
        raise UsageError("dot product dimension mismatch")
    p = field.p
    acc = 0
    for a, b in zip(u, v):
        acc += a * b
    if meter is not None:
        meter.mul += len(u)
        meter.add += max(len(u) - 1, 0)
    return acc % p


def scale_sub(field: PrimeField, r: int, w: list, y: list,
              meter: CostMeter | None = None) -> list:
    """Entrywise r*w - y; charges n multiplications and n subtractions."""
    if len(w) != len(y):
        raise UsageError("vector dimension mismatch")
    p = field.p
    if meter is not None:
        meter.mul += len(w)
        meter.add += len(w)
    return [(r * a - b) % p for a, b in zip(w, y)]
