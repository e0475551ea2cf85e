from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (CostMeter, DomainError, Poly, PrimeField, UsageError,
                      berlekamp_massey, poly_gcd, poly_lcm, xgcd)
from certilin.messages import POLY
from certilin.polynomial import NEG_INF

from conftest import PRIME_BIG


def P(field, *coeffs):
    return Poly(field, coeffs)


# -- brute-force oracles ------------------------------------------------------


def solve_rect(field, rows, rhs):
    """Any solution of a rectangular exact system, or None."""
    p = field.p
    m = [row[:] + [b % p] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[piv], m[rank] = m[rank], m[piv]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(m)):
        if m[r][ncols]:
            return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return x


def brute_minimal_generator(field, seq):
    """Lowest-degree monic recurrence by solving Hankel systems."""
    n = len(seq)
    for d in range(n + 1):
        if d == 0:
            if all(x == 0 for x in seq):
                return Poly.one(field)
            continue
        windows = n - d
        if windows <= 0:
            return None  # underdetermined beyond this length
        rows = [[seq[k + i] for i in range(d)] for k in range(windows)]
        rhs = [field.neg(seq[k + d]) for k in range(windows)]
        sol = solve_rect(field, rows, rhs)
        if sol is not None:
            return Poly(field, sol + [1])
    return None


def satisfies_recurrence(field, f, seq):
    d = f.degree
    if d is NEG_INF:
        return False
    for k in range(len(seq) - d):
        acc = sum(c * seq[k + i] for i, c in enumerate(f.coeffs))
        if acc % field.p:
            return False
    return True


# -- ring arithmetic ------------------------------------------------------------


def test_arith_examples(f7, f101):
    assert P(f101, -1, 0, 1) + P(f101, 1) == P(f101, 0, 0, 1)
    assert P(f7, 1, 1) * P(f7, 6, 1) == P(f7, 6, 0, 1)
    q, r = P(f101, 5, 2, 0, 1).divrem(P(f101, 1, 0, 1))
    assert q == P(f101, 0, 1) and r == P(f101, 5, 1)
    # Oracle: recombine q*b + r.
    assert q * P(f101, 1, 0, 1) + r == P(f101, 5, 2, 0, 1)


def test_divrem_by_zero(f7):
    with pytest.raises(DomainError):
        P(f7, 1, 1).divrem(Poly.zero(f7))


def test_zero_polynomial_degree_sentinel(f7):
    z = Poly.zero(f7)
    assert z.degree == NEG_INF
    assert z.degree < 0 and z.degree < P(f7, 1).degree
    assert P(f7, 3).degree == 0
    assert not z
    assert z.to_text() == "0"
    assert POLY.parse(f7, "0", 1) == z


def test_trailing_zeros_stripped(f7):
    assert P(f7, 1, 0, 0) == P(f7, 1)
    assert P(f7, 0, 0) == Poly.zero(f7)
    assert P(f7, 1, 7, 14) == P(f7, 1)


def test_eval_examples(f7, f101):
    assert Poly.zero(f7).eval(5) == 0
    assert P(f7, 6, 0, 1).eval(3) == 1
    assert (2 * 1000 + 10 + 7) % 101 == 98
    assert P(f101, 7, 1, 0, 2).eval(10) == 98


def test_eval_meter_exact(f101):
    m = CostMeter()
    P(f101, 7, 1, 0, 2).eval(10, m)
    assert (m.mul, m.add) == (3, 3)
    m = CostMeter()
    Poly.zero(f101).eval(4, m)
    P(f101, 9).eval(4, m)
    assert (m.mul, m.add) == (0, 0)


def test_scale_monic_leading(f7):
    f = P(f7, 2, 4)
    assert f.monic() == P(f7, 4, 1)
    assert f.monic().is_monic()
    assert P(f7, 3).wire_cost() == 1
    assert P(f7, 3, 1).wire_cost() == 1
    assert Poly.zero(f7).wire_cost() == 0


# -- extended euclid ---------------------------------------------------------------


def test_xgcd_examples(f101, f7):
    a, b = P(f101, -1, 0, 1), P(f101, 0, 1)
    g, phi, psi = xgcd(a, b)
    assert g == Poly.one(f101)
    assert phi == P(f101, -1) and psi == P(f101, 0, 1)
    assert phi * a + psi * b == Poly.one(f101)
    assert phi.degree <= b.degree - 1 and psi.degree <= a.degree - 1

    f = P(f101, 3, 5, 2)
    g, phi, psi = xgcd(f, f)
    assert g == f.monic() and phi * f + psi * f == g

    # lam = -1 is a root of lam^2 - 1 over Z_7.
    assert P(f7, 6, 0, 1).eval(6) == 0
    g, _, _ = xgcd(P(f7, 6, 0, 1), P(f7, 1, 1))
    assert g == P(f7, 1, 1)


def test_xgcd_identity_random(f101):
    rng = Random(5)
    for _ in range(1000):
        da, db = rng.randrange(0, 51), rng.randrange(0, 51)
        a = Poly(f101, [rng.randrange(101) for _ in range(da)] + [rng.randrange(1, 101)])
        b = Poly(f101, [rng.randrange(101) for _ in range(db)] + [rng.randrange(1, 101)])
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g.is_monic()
        assert a % g == Poly.zero(f101) and b % g == Poly.zero(f101)
        if g.degree == 0 and a.degree > b.degree >= 0:
            assert s.degree <= b.degree - 1
            assert t.degree <= a.degree - 1


def test_xgcd_both_zero(f7):
    with pytest.raises(DomainError):
        xgcd(Poly.zero(f7), Poly.zero(f7))


def test_gcd_lcm(f101):
    a = P(f101, -1, 1) * P(f101, -2, 1)
    b = P(f101, -2, 1) * P(f101, -3, 1)
    assert poly_gcd(a, b) == P(f101, -2, 1)
    assert poly_lcm(a, b) == (P(f101, -1, 1) * P(f101, -2, 1) * P(f101, -3, 1)).monic()


# -- Berlekamp-Massey ------------------------------------------------------------


def test_bm_zero_sequence(f7):
    assert berlekamp_massey(f7, [0, 0, 0, 0]) == Poly.one(f7)
    with pytest.raises(UsageError):
        berlekamp_massey(f7, [])


def test_bm_alternating(f7):
    f = berlekamp_massey(f7, [1, 0, 1, 0, 1, 0])
    assert f == P(f7, 6, 0, 1)
    assert satisfies_recurrence(f7, f, [1, 0, 1, 0, 1, 0])
    # Exhaustion oracle: no monic degree-1 generator exists.
    for c in range(7):
        assert not satisfies_recurrence(f7, P(f7, c, 1), [1, 0, 1, 0, 1, 0])


def test_bm_fibonacci(f101):
    seq = [0, 1, 1, 2, 3, 5, 8, 13]
    f = berlekamp_massey(f101, seq)
    assert f == P(f101, -1, -1, 1)
    assert satisfies_recurrence(f101, f, seq)


def test_bm_impulse_sequence(f101):
    assert berlekamp_massey(f101, [1, 0, 0, 0]) == P(f101, 0, 1)
    assert berlekamp_massey(f101, [0, 0, 1, 0, 0, 0]) == P(f101, 0, 0, 0, 1)


def test_bm_matches_bruteforce_on_generated_sequences(f101):
    rng = Random(17)
    for _ in range(200):
        d = rng.randrange(1, 9)
        gen = Poly(f101, [rng.randrange(101) for _ in range(d)] + [1])
        seq = [rng.randrange(101) for _ in range(d)]
        for k in range(d, 2 * d):
            nxt = -sum(gen.coeffs[i] * seq[k - d + i] for i in range(d)) % 101
            seq.append(nxt)
        got = berlekamp_massey(f101, seq)
        oracle = brute_minimal_generator(f101, seq)
        assert satisfies_recurrence(f101, got, seq)
        assert got.degree == oracle.degree
        if oracle == gen:
            assert got == gen


def test_bm_random_sequences_minimal(f101):
    rng = Random(23)
    for _ in range(100):
        seq = [rng.randrange(101) for _ in range(rng.randrange(1, 13))]
        f = berlekamp_massey(f101, seq)
        assert f.is_monic()
        assert satisfies_recurrence(f101, f, seq)
        oracle = brute_minimal_generator(f101, seq)
        if oracle is not None:
            assert f.degree <= oracle.degree


def test_mixed_field_polys_rejected(f7, f101):
    with pytest.raises(UsageError):
        P(f7, 1, 1) + P(f101, 1, 1)


# -- hypothesis property tests ------------------------------------------------------


coeffs = st.lists(st.integers(min_value=0, max_value=100), min_size=0, max_size=8)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=300, deadline=None)
def test_ring_axioms(a, b, c):
    f = PrimeField(101)
    A, B, C = Poly(f, a), Poly(f, b), Poly(f, c)
    assert A + B == B + A
    assert A * B == B * A
    assert (A + B) + C == A + (B + C)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A - A == Poly.zero(f)


@given(coeffs, coeffs)
@settings(max_examples=300, deadline=None)
def test_divrem_invariant(a, b):
    f = PrimeField(101)
    A, B = Poly(f, a), Poly(f, b)
    if B.is_zero():
        return
    q, r = A.divrem(B)
    assert q * B + r == A
    assert r.degree < B.degree


@given(coeffs)
@settings(max_examples=300, deadline=None)
def test_text_roundtrip(a):
    f = PrimeField(101)
    A = Poly(f, a)
    assert POLY.parse(f, POLY.text(A), 1) == A


# Coefficient lists over GF(7): empty (the zero polynomial) and constants
# included, and a pair built from a remainder sequence whose quotients
# have degree 1 to 3, so that Euclid takes both its degree-1 steps and
# its general steps.
coeffs7 = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=10)
quotient7 = st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=4).map(
    lambda c: c[:-1] + [c[-1] or 1])


@st.composite
def euclid_pairs(draw):
    f = PrimeField(7)
    if draw(st.booleans()):
        a, b = Poly(f, draw(coeffs7)), Poly(f, draw(coeffs7))
    else:
        # Build r_(i-1) = q_i * r_i + r_(i+1) backwards from a nonzero tail.
        b, a = Poly.zero(f), Poly(f, draw(coeffs7.filter(any)))
        for q in draw(st.lists(quotient7, min_size=1, max_size=6)):
            a, b = Poly(f, q) * a + b, a
    common = Poly(f, draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    if draw(st.booleans()) and common:
        a, b = a * common, b * common
    return a, b


@given(euclid_pairs())
@settings(max_examples=400, deadline=None)
def test_xgcd_bezout_and_tight_bounds(pair):
    a, b = pair
    f = a.field
    if a.is_zero() and b.is_zero():
        return
    g, s, t = xgcd(a, b)
    assert g.is_monic()
    assert s * a + t * b == g
    assert a % g == Poly.zero(f) and b % g == Poly.zero(f)
    if g.degree == 0 and a.degree > b.degree >= 0:
        assert s.degree < b.degree
        assert t.degree < a.degree
    # Euclid's own cofactors are tight: no reduction step is needed.
    if not b.is_zero() and (b // g).degree >= 1:
        assert s.degree < (b // g).degree


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10))
@settings(max_examples=400, deadline=None)
def test_bm_matches_bruteforce_gf7(seq):
    f = PrimeField(7)
    got = berlekamp_massey(f, seq)
    oracle = brute_minimal_generator(f, seq)
    assert got.is_monic()
    assert satisfies_recurrence(f, got, seq)
    # None: no monic generator of degree below len(seq) exists.
    assert got.degree == (len(seq) if oracle is None else oracle.degree)
    if 2 * got.degree <= len(seq):
        # Then the minimal generator is unique.
        assert got == oracle
