from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (CostMeter, DomainError, Poly, PrimeField, UsageError,
                      berlekamp_massey, poly_gcd, poly_lcm, xgcd)
from certilin.messages import POLY
from certilin.polynomial import _HGCD_MIN, NEG_INF, _mat_mul, _slot_bytes

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
def short_pairs(draw):
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


# Long pairs run through the half-gcd: degrees 64 to 400 over a small, a
# 30-bit and the largest 62-bit prime; random, built from remainder
# sequences with quotients of degree 1 to 3, with a common factor of degree
# up to 100 (Euclid then ends at a zero remainder above the threshold), or
# with a zero or constant second operand; and in either order, so deg a <
# deg b too.
LONG_PRIMES = (7, 10**9 + 7, 2**62 - 57)


def random_poly(field, rng, degree):
    if degree < 0:
        return Poly.zero(field)
    return Poly(field, [rng.randrange(field.p) for _ in range(degree)]
                + [rng.randrange(1, field.p)])


@st.composite
def long_pairs(draw):
    f = PrimeField(draw(st.sampled_from(LONG_PRIMES)))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.integers(_HGCD_MIN, 400))
    shape = draw(st.sampled_from(["random", "remainders", "common factor",
                                  "zero", "constant"]))
    if shape == "remainders":
        b, a = Poly.zero(f), random_poly(f, rng, rng.randrange(4))
        while a.degree < degree:
            a, b = random_poly(f, rng, rng.randrange(1, 4)) * a + b, a
    elif shape == "common factor":
        common = random_poly(f, rng, rng.randrange(1, min(101, degree)))
        a = random_poly(f, rng, degree - common.degree) * common
        b = random_poly(f, rng, rng.randrange(degree - common.degree)) * common
    else:
        a = random_poly(f, rng, degree)
        b = random_poly(f, rng, {"random": rng.randrange(degree + 1),
                                 "zero": -1, "constant": 0}[shape])
    if draw(st.booleans()):
        a, b = b, a
    return a, b


def euclid_pairs():
    return st.one_of(short_pairs(), long_pairs())


def reference_xgcd(a, b):
    """Classical extended Euclid on Poly objects; g made monic."""
    f = a.field
    r0, r1 = a, b
    s0, s1, t0, t1 = Poly.one(f), Poly.zero(f), Poly.zero(f), Poly.one(f)
    while r1:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    k = pow(r0.coeffs[-1], -1, f.p)
    return r0.scale(k), s0.scale(k), t0.scale(k)


@given(euclid_pairs())
@settings(max_examples=400, deadline=None)
def test_xgcd_bezout_and_tight_bounds(pair):
    a, b = pair
    f = a.field
    if a.is_zero() and b.is_zero():
        return
    g, s, t = xgcd(a, b)
    assert (g, s, t) == reference_xgcd(a, b)
    assert g.is_monic()
    assert s * a + t * b == g
    assert a % g == Poly.zero(f) and b % g == Poly.zero(f)
    if g.degree == 0 and a.degree > b.degree >= 0:
        assert s.degree < b.degree
        assert t.degree < a.degree
    # Euclid's own cofactors are tight: no reduction step is needed.
    if not b.is_zero() and (b // g).degree >= 1:
        assert s.degree < (b // g).degree


@pytest.mark.parametrize("degree", [_HGCD_MIN, _HGCD_MIN + 1, 100, 200, 800])
@pytest.mark.parametrize("common", [0, 1, 30])
def test_xgcd_tail_from_an_identity_row(degree, common, monkeypatch):
    # xgcd stops the half-gcd once the second remainder has at most
    # _HGCD_MIN coefficients; the rest runs on the remainders alone, from an
    # identity row, and meets the long cofactors in one matrix product.
    # Coprime pairs and pairs with a common factor of degree 1 or 30,
    # against the classical loop, with the tight bounds.
    import certilin.polynomial as polynomial
    calls = []
    euclid = polynomial._euclid

    def counted(a, b, p, more, *args):
        calls.append((len(a), len(b), args))
        return euclid(a, b, p, more, *args)

    monkeypatch.setattr(polynomial, "_euclid", counted)
    f = PrimeField(10**9 + 7)
    rng = Random(degree + common)
    g = random_poly(f, rng, common).monic()
    a = random_poly(f, rng, degree - common) * g
    b = random_poly(f, rng, degree - 1 - common) * g
    got = xgcd(a, b)
    assert got == reference_xgcd(a, b)
    assert got[0] == g
    s, t = got[1], got[2]
    assert s * a + t * b == g
    assert s.degree < (b // g).degree and t.degree < (a // g).degree
    assert calls[0] == (degree + 1, degree, (_HGCD_MIN,))
    assert len(calls) == 2 and calls[1][1] <= _HGCD_MIN and calls[1][2] == ()
    # A pair already at the rule goes to the tail as it is.
    assert (calls[1][0] < degree + 1) == (degree > _HGCD_MIN)


@st.composite
def gcd_pairs(draw):
    a, b = draw(euclid_pairs())
    f = a.field
    shape = draw(st.sampled_from(["as drawn", "a | b", "equal degrees"]))
    if shape == "a | b":
        b = a * Poly(f, draw(coeffs7))
    elif shape == "equal degrees":
        lower = draw(coeffs7)[:max(len(a.coeffs) - 1, 0)]
        b = a.scale(draw(st.integers(1, 6))) + Poly(f, lower)
    return a, b


def reference_gcd(a, b):
    """Euclid on Poly objects, charging each step as poly_gcd does."""
    meter = CostMeter()
    while not b.is_zero():
        cost = max(a.degree - b.degree + 1, 0) * (len(b.coeffs) + 1)
        meter.mul += cost
        meter.add += cost
        meter.inv += 1
        a, b = b, a.divrem(b)[1]
    return a.monic(), meter


@given(gcd_pairs())
@settings(max_examples=400, deadline=None)
def test_poly_gcd_matches_xgcd_and_reference_meter(pair):
    a, b = pair
    meter = CostMeter()
    g = poly_gcd(a, b, meter)
    ref, ref_meter = reference_gcd(a, b)
    assert g == ref
    assert meter == ref_meter
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
    else:
        assert g == xgcd(a, b)[0]


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


# -- half-gcd path ------------------------------------------------------------------


def reference_bm(field, seq):
    """The Berlekamp-Massey loop that short sequences run."""
    p = field.p
    rev = seq[::-1]
    N = len(seq)
    c, b, L, m, bb_inv = [1], [1], 0, 1, 1
    for n, a_n in enumerate(seq):
        d = (a_n + sum(x * y for x, y in zip(c[1:L + 1], rev[N - n:N - n + L]))) % p
        if d == 0:
            m += 1
            continue
        coef = d * bb_inv % p
        t = c[:] if 2 * L <= n else None
        end = m + len(b)
        c.extend([0] * (end - len(c)))
        c[m:end] = [(x - coef * y) % p for x, y in zip(c[m:end], b)]
        if t is not None:
            L, b, bb_inv, m = n + 1 - L, t, pow(d, -1, p), 1
        else:
            m += 1
    c = c + [0] * (L + 1 - len(c))
    return Poly(field, [c[L - i] for i in range(L + 1)])


@st.composite
def long_sequences(draw):
    # From one term below the half-gcd path's start: zero sequences, an
    # impulse, recurrences of low degree, of degree about N/2 (a Krylov
    # sequence of 2n terms) and random sequences, whose generators have
    # 2 * deg > N about half the time.
    f = PrimeField(draw(st.sampled_from(LONG_PRIMES)))
    p = f.p
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(2 * _HGCD_MIN - 1, 400))
    shape = draw(st.sampled_from(["zero", "impulse", "low", "half", "random"]))
    if shape == "zero":
        return f, [0] * N
    if shape == "impulse":
        seq = [0] * N
        seq[rng.randrange(N)] = rng.randrange(1, p)
        return f, seq
    if shape == "random":
        return f, [rng.randrange(p) for _ in range(N)]
    d = rng.randrange(1, 9) if shape == "low" else N // 2 + rng.randrange(-2, 3)
    gen = [rng.randrange(p) for _ in range(d)]
    seq = [rng.randrange(p) for _ in range(d)]
    while len(seq) < N:
        seq.append(-sum(c * x for c, x in zip(gen, seq[-d:])) % p)
    return f, seq[:N]


@given(long_sequences())
@settings(max_examples=150, deadline=None)
def test_bm_long_sequences_match_reference(case):
    f, seq = case
    got = berlekamp_massey(f, seq)
    ref = reference_bm(f, seq)
    assert got.is_monic()
    if 2 * ref.degree <= len(seq):
        assert got == ref
    else:
        assert got.degree == ref.degree
        assert satisfies_recurrence(f, got, seq)


def test_long_inputs_take_the_half_gcd(monkeypatch):
    import certilin.polynomial as polynomial
    calls = []
    hgcd = polynomial._hgcd

    def counted(a, b, p):
        calls.append(len(a))
        return hgcd(a, b, p)

    monkeypatch.setattr(polynomial, "_hgcd", counted)
    f = PrimeField(PRIME_BIG)
    rng = Random(3)
    a, b = random_poly(f, rng, 200), random_poly(f, rng, 199)
    assert xgcd(a, b) == reference_xgcd(a, b)
    assert max(calls) > 2 * _HGCD_MIN
    calls.clear()
    seq = [rng.randrange(f.p) for _ in range(2 * _HGCD_MIN)]
    berlekamp_massey(f, seq)
    assert calls
    calls.clear()
    xgcd(random_poly(f, rng, _HGCD_MIN - 1), random_poly(f, rng, 10))
    berlekamp_massey(f, seq[1:])
    assert not calls


def schoolbook(f, g, p):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return [c % p for c in out]


def add_lists(*lists, p):
    out = [0] * max(map(len, lists))
    for c in lists:
        for i, x in enumerate(c):
            out[i] += x
    out = [x % p for x in out]
    while out and not out[-1]:
        out.pop()
    return out


def test_kronecker_matrix_product_matches_schoolbook():
    p = 2**62 - 57
    # Coefficients of f1*g1 + f2*g2 + h from lists of n entries p - 1 reach
    # 2n(p-1)^2 + p - 1: 128 bits for n = 8, 129 for n = 9.  The slot holds
    # them in whole bytes, with no byte to spare.
    assert (_slot_bytes(p, 8), _slot_bytes(p, 9)) == (16, 17)
    for n in range(1, 3000):
        need = 2 * n * (p - 1) ** 2 + p - 1
        assert 256 ** (_slot_bytes(p, n) - 1) <= need < 256 ** _slot_bytes(p, n)
    rng = Random(11)
    for n in (1, 2, 8, 9, 65):
        for full in (True, False):
            def draw(length):
                return [p - 1 if full else rng.randrange(p) for _ in range(length)]
            m = tuple(draw(rng.randrange(n // 2, n + 1)) for _ in range(4))
            cols = [(draw(n), draw(n)), (draw(rng.randrange(n + 1)), [])]
            k = rng.randrange(n + 1)
            top = (draw(n), draw(n))
            got = _mat_mul(m, cols, p, top, k)
            want = []
            for j, (u, v) in enumerate(cols):
                for i in (0, 2):
                    shifted = [0] * k + top[i // 2] if j == 0 else []
                    want.append(add_lists(schoolbook(m[i], u, p),
                                          schoolbook(m[i + 1], v, p), shifted, p=p))
            assert got == want
    # Longest lists of an n = 800 proof (x^1600 in Berlekamp-Massey), all
    # entries p - 1: coefficient i of each product is (p-1)^2 times the
    # number of index pairs summing to i.
    n = 1601
    ones = [p - 1] * n
    got = _mat_mul((ones,) * 4, [(ones, ones)], p)
    want = [2 * (min(i, 2 * n - 2 - i) + 1) * (p - 1) ** 2 % p for i in range(2 * n - 1)]
    assert got == [want, want]
