import math
from random import Random

import pytest

from certilin import (ConfigError, CostMeter, DomainError, ParseError,
                      PrimeField, UsageError)
from certilin.blackbox import SparseMatrix, emit_sms, matrix_digest
from certilin.field import dot, same_field, scale_sub
from certilin.messages import SCALAR

from conftest import PRIME_40_BIT, PRIME_BIG

AXIOM_PRIMES = [7, 101, PRIME_BIG, PRIME_40_BIT]


def test_construction_validates_modulus():
    for bad in (1, 2, 4, 9, 15, 1_000_001, 2**62 + 1, 2**63):
        with pytest.raises(ConfigError):
            PrimeField(bad)
    with pytest.raises(ConfigError):
        PrimeField("7")
    assert PrimeField(3).p == 3
    assert PrimeField(PRIME_40_BIT).p == PRIME_40_BIT


class TextNotValue(int):
    """An int whose text is not its value."""

    def __format__(self, spec):
        return "0"

    __str__ = __repr__ = lambda self: "0"


def test_modulus_is_an_exact_int():
    # The modulus's text reaches SMS headers and transcript digests.
    field = PrimeField(TextNotValue(PRIME_BIG))
    assert type(field.p) is int and field.p == PRIME_BIG
    assert repr(field) == f"PrimeField({PRIME_BIG})"
    entries = [(0, 1, 5), (1, 0, 7)]
    a = SparseMatrix(field, 2, entries)
    assert emit_sms(a).splitlines()[0] == f"2 2 {PRIME_BIG}"
    assert matrix_digest(a) == matrix_digest(SparseMatrix(PrimeField(PRIME_BIG), 2, entries))


def test_inverse(f7, f101):
    assert f7.inv(1) == 1
    # Exhaustive-search oracle over Z_7.
    assert next(x for x in range(1, 7) if 3 * x % 7 == 1) == 5
    assert f7.inv(3) == 5
    assert f101.inv(2) == 51 and 2 * 51 % 101 == 1
    with pytest.raises(DomainError):
        f7.inv(0)
    m = CostMeter()
    f7.inv(3, m)
    assert m.inv == 1


def test_sampling_determinism(f101):
    a = [f101.sample(Random(42)) for _ in range(10)]
    b = [f101.sample(Random(42)) for _ in range(10)]
    assert a == b


def test_sampling_first_two_draws_distinct_rate(f7):
    trials = 100_000
    rng = Random(7)
    distinct = sum(f7.sample(rng) != f7.sample(rng) for _ in range(trials))
    assert abs(distinct / trials - 6 / 7) < 0.02


def test_sampling_uniformity_chi(f101):
    trials = 100_000
    rng = Random(11)
    counts = [0] * 101
    for _ in range(trials):
        counts[f101.sample(rng)] += 1
    expected = trials / 101
    sigma = math.sqrt(trials * (1 / 101) * (1 - 1 / 101))
    for c in counts:
        assert abs(c - expected) <= 5 * sigma


def test_sample_meters_draws(f7):
    m = CostMeter()
    f7.sample(Random(0), m)
    f7.sample_vector(Random(0), 5, m)
    assert m.random_draws == 6


@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_field_axioms_random_triples(p):
    f = PrimeField(p)
    rng = Random(p)
    for _ in range(10_000):
        a, b, c = f.sample(rng), f.sample(rng), f.sample(rng)
        for x in (a, b, c):
            assert (x + f.neg(x)) % p == 0
            if x != 0:
                assert x * f.inv(x) % p == 1


def test_canonical_text_roundtrip_exhaustive(f7):
    for x in range(7):
        assert SCALAR.parse(f7, SCALAR.text(x), 1) == x
    with pytest.raises(ParseError):
        SCALAR.parse(f7, "07", 1)
    with pytest.raises(ParseError):
        SCALAR.parse(f7, "-1", 1)
    with pytest.raises(ParseError):
        SCALAR.parse(f7, "9", 1)


@pytest.mark.parametrize("p", [PRIME_BIG, PRIME_40_BIT])
def test_canonical_roundtrip_random(p):
    f = PrimeField(p)
    rng = Random(p + 1)
    for _ in range(10_000):
        x = f.sample(rng)
        assert SCALAR.parse(f, SCALAR.text(x), 1) == x
        data = SCALAR.to_bytes(x)
        assert len(data) == 8 and int.from_bytes(data, "little") == x


def test_byte_form_little_endian():
    assert SCALAR.to_bytes(1) == b"\x01" + b"\x00" * 7
    assert SCALAR.to_bytes(100)[0] == 100


def test_mixed_moduli_rejected(f7, f101):
    with pytest.raises(UsageError):
        same_field(f7, f101)


def test_check_rejects_noncanonical(f7):
    with pytest.raises(UsageError):
        f7.check(7)
    with pytest.raises(UsageError):
        f7.check(-1)
    with pytest.raises(UsageError):
        f7.check(True)


def test_vector_helpers_meter(f101):
    m = CostMeter()
    assert dot(f101, [1, 2, 3], [4, 5, 6], m) == (4 + 10 + 18) % 101
    assert (m.mul, m.add) == (3, 2)
    m = CostMeter()
    assert scale_sub(f101, 2, [1, 2], [3, 4], m) == [(2 - 3) % 101, 0]
    assert (m.mul, m.add) == (2, 2)
