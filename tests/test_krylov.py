import errno
import os
import signal
import threading
import time
from contextlib import suppress
from dataclasses import replace
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (BadShiftError, CostMeter, HonestProver, IntegrityError,
                      Poly, PrimeField, SparseMatrix, UsageError,
                      minimal_generator_pair, oracle_det, oracle_kernel,
                      oracle_minpoly, poly_gcd, poly_lcm, residue_polynomial,
                      solve_shifted, wiedemann_sequence)
from certilin import blackbox, krylov
from certilin.blackbox import (DiagonalMatrix, GammaMatrix, LinearOp, ProductOp,
                               ShiftOp, matvec)
from certilin.harness import gen_sparse
from certilin.polynomial import _HGCD_MIN, _pack

from conftest import PRIME_BIG
from helpers import count_forks, dense_solve, identity_matrix, vector_minpoly


def P(field, *coeffs):
    return Poly(field, coeffs)


def swap_matrix(field):
    return SparseMatrix(field, 2, [(0, 1, 1), (1, 0, 1)])


def expand_series(gen, res, nterms):
    """Reconstruct the sequence generated by the pair (independent oracle).

    Initial terms are read off the residue by back-substitution, later terms
    follow the recurrence given by the generator.
    """
    field = gen.field
    p = field.p
    d = gen.degree
    g = gen.coeffs
    r = list(res.coeffs) + [0] * (d - len(res.coeffs))
    seq = []
    for j in range(d - 1, -1, -1):
        # res_j = sum_{k>j} g_k a_{k-1-j}; the k = d term isolates a_{d-1-j}.
        acc = r[j] if j < len(r) else 0
        for k in range(j + 1, d):
            acc -= g[k] * seq[k - 1 - j]
        seq.append(acc % p)
    while len(seq) < nterms:
        k = len(seq)
        nxt = -sum(g[i] * seq[k - d + i] for i in range(d)) % p
        seq.append(nxt)
    return seq[:nterms]


def test_sequence_identity(f7):
    a = identity_matrix(f7, 3)
    e1 = [1, 0, 0]
    assert wiedemann_sequence(a, e1, e1, 4) == [1, 1, 1, 1]


def test_sequence_swap(f7):
    a = swap_matrix(f7)
    assert wiedemann_sequence(a, [1, 0], [1, 0], 6) == [1, 0, 1, 0, 1, 0]


def test_sequence_zero_projection(f7):
    a = swap_matrix(f7)
    assert wiedemann_sequence(a, [0, 0], [1, 0], 5) == [0] * 5


def test_sequence_matvec_count(f101):
    a = gen_sparse(f101, 6, 0.4, Random(3))
    m = CostMeter()
    wiedemann_sequence(a, [1] * 6, [1] * 6, 9, m)
    assert m.matvec == 8


def test_pair_swap(f7):
    pair = minimal_generator_pair(swap_matrix(f7), [1, 0], [1, 0])
    assert pair.gen == P(f7, 6, 0, 1)
    assert pair.res == P(f7, 0, 1)
    seq = wiedemann_sequence(swap_matrix(f7), [1, 0], [1, 0], 4)
    assert expand_series(pair.gen, pair.res, 4) == seq


def test_pair_identity(f7):
    a = identity_matrix(f7, 2)
    pair = minimal_generator_pair(a, [1, 0], [1, 0])
    assert pair.gen == P(f7, 6, 1) and pair.res == P(f7, 1)
    assert expand_series(pair.gen, pair.res, 4) == [1, 1, 1, 1]


def test_pair_zero_projection(f7):
    pair = minimal_generator_pair(swap_matrix(f7), [0, 0], [1, 0])
    assert pair.gen == Poly.one(f7) and pair.res.is_zero()


def test_pair_invariants_random(f101):
    rng = Random(21)
    for _ in range(40):
        n = rng.randrange(2, 13)
        a = gen_sparse(f101, n, 0.3, rng)
        u = [rng.randrange(101) for _ in range(n)]
        v = [rng.randrange(101) for _ in range(n)]
        pair = minimal_generator_pair(a, u, v)
        assert pair.gen.is_monic()
        assert pair.res.degree < pair.gen.degree
        assert poly_gcd(pair.gen, pair.res).degree == 0 or pair.gen.degree == 0
        # The generator divides the matrix minimal polynomial.
        assert oracle_minpoly(a) % pair.gen == Poly.zero(f101)
        # Series oracle: the pair reproduces the projected sequence.
        seq = wiedemann_sequence(a, u, v, 2 * n)
        assert expand_series(pair.gen, pair.res, 2 * n) == seq


def test_solve_shifted_identity(f7):
    a = identity_matrix(f7, 2)
    w = solve_shifted(a, 3, [1, 0], P(f7, 6, 1))
    assert w == [4, 0]


def test_solve_shifted_swap(f7):
    a = swap_matrix(f7)
    w = solve_shifted(a, 2, [1, 0], P(f7, 6, 0, 1))
    assert w == [3, 5]
    # Dense oracle cross-check.
    assert dense_solve([[2, 6], [6, 2]], [1, 0], f7) == [3, 5]


def test_solve_shifted_bad_shift(f7):
    a = identity_matrix(f7, 2)
    with pytest.raises(BadShiftError):
        solve_shifted(a, 1, [1, 0], P(f7, 6, 1))


def test_solve_shifted_non_annihilator(f101):
    a = swap_matrix(f101)
    with pytest.raises(IntegrityError):
        solve_shifted(a, 5, [1, 0], P(f101, -1, 1))  # x - 1 does not annihilate


def test_solve_shifted_residual_random(f101):
    rng = Random(8)
    count = 0
    while count < 1000:
        n = rng.randrange(2, 11)
        a = gen_sparse(f101, n, 0.4, rng)
        v = [rng.randrange(101) for _ in range(n)]
        f = vector_minpoly(a, v)
        r1 = rng.randrange(101)
        if f.eval(r1) == 0:
            continue
        w = solve_shifted(a, r1, v, f)
        lhs = [(r1 * wi - yi) % 101 for wi, yi in zip(w, matvec(a, w))]
        assert lhs == [x % 101 for x in v]
        count += 1


def test_solve_shifted_matvec_count(fbig):
    a = gen_sparse(fbig, 8, 0.4, Random(5))
    v = [3] * 8
    f = vector_minpoly(a, v)
    m = CostMeter()
    w = solve_shifted(a, 2, v, f, m)
    assert m.matvec == f.degree  # plain Horner: deg - 1, one for the residual
    assert len(w) == 8


def _annihilates(a, f, v):
    """Whether f(A) v = 0, by Horner over plain matvecs."""
    p = a.field.p
    acc = [0] * a.n
    for c in reversed(f.coeffs):
        acc = [(x + c * y) % p for x, y in zip(matvec(a, acc), v)]
    return not any(acc)


def _outcome(solve):
    try:
        return solve()
    except (BadShiftError, IntegrityError) as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_solve_shifted_giant_steps_match_one_giant(data):
    # The solve from a Krylov pass's giant steps returns the vector, or
    # raises the error, of plain Horner (v the one giant step, stride d):
    # minimal generators of singular and nonsingular operators, their lcms,
    # v's minimal polynomial, and monic polynomials with many zero
    # coefficients, most of which annihilate nothing.
    p = data.draw(st.sampled_from([7, 101]), "p")
    n = data.draw(st.integers(1, 12), "n")
    field = PrimeField(p)
    cells = st.integers(0, p - 1)
    vectors = st.lists(cells, min_size=n, max_size=n)
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(1, p - 1)),
                                 max_size=3 * n), "entries")
    a = SparseMatrix(field, n, entries)
    u, v = data.draw(vectors, "u"), data.draw(vectors, "v")
    pair = minimal_generator_pair(a, u, v)
    assert len(pair.giants) == -(-n // isqrt(n))
    kind = data.draw(st.sampled_from(["generator", "lcm", "minpoly", "monic"]))
    if kind == "generator":
        cand = pair.gen
    elif kind == "lcm":
        extra = minimal_generator_pair(a, data.draw(vectors, "u2"), v)
        cand = poly_lcm(pair.gen, extra.gen)
    elif kind == "minpoly":
        cand = vector_minpoly(a, v)
    else:
        low = st.one_of(st.sampled_from([0, 1, p - 1]), cells)
        cand = Poly(field, data.draw(st.lists(low, max_size=n), "low") + [1])
    r1 = data.draw(cells, "r1")
    plain, giant = CostMeter(), CostMeter()
    expected = _outcome(lambda: solve_shifted(a, r1, v, cand, plain))
    got = _outcome(lambda: solve_shifted(a, r1, v, cand, giant, pair.giants))
    assert got == expected
    if not _annihilates(a, cand, v):
        assert expected in (BadShiftError, IntegrityError)
    if isinstance(expected, list) and cand.degree:
        assert plain.matvec == cand.degree
        assert giant.matvec == min(isqrt(n), cand.degree)


def test_solve_shifted_giant_steps_of_another_vector(f101):
    # Giant steps that do not start at v, or stop short of the degree, are
    # a caller's mistake: a UsageError, which the prover does not take for
    # a proper divisor to retry with fresh projections.
    n = 9
    a = gen_sparse(f101, n, 0.4, Random(4))
    v, other = [1] * n, [2] * n
    f = vector_minpoly(a, v)
    stray = minimal_generator_pair(a, v, other).giants
    own = minimal_generator_pair(a, v, v).giants
    r1 = next(r for r in range(101) if f.eval(r))
    assert solve_shifted(a, r1, v, f, giants=own) == solve_shifted(a, r1, v, f)
    assert f.degree > isqrt(n)
    with pytest.raises(UsageError, match="do not reach"):
        solve_shifted(a, r1, v, f, giants=own[:1])
    with pytest.raises(UsageError, match="start at v"):
        solve_shifted(a, r1, v, f, giants=stray)
    prover = HonestProver(f101, Random(1))
    prover.open_session(a, v, v)
    prover._true = replace(prover._true, giants=stray)
    r1 = next(r for r in range(101) if prover._true.gen.eval(r))
    draws = prover.meter.random_draws
    with pytest.raises(UsageError, match="start at v"):
        prover.solution(r1)
    assert prover.meter.random_draws == draws


def test_kernel_vector(f7, f101):
    zero = SparseMatrix(f7, 2, [])
    w = oracle_kernel(zero)
    assert w is not None and any(w)
    nil = SparseMatrix(f7, 2, [(0, 1, 1)])
    w = oracle_kernel(nil)
    assert w is not None and matvec(nil, w) == [0, 0]
    rng = Random(33)
    for _ in range(20):
        a = gen_sparse(f101, 8, 0.5, rng)
        if oracle_det(a) != 0:
            assert oracle_kernel(a) is None


def test_projection_bound_smoke(fbig):
    # Light version of the random-projection bound; the acceptance suite
    # runs the full 10^4-trial variant.
    n, p, trials = 10, PRIME_BIG, 500
    a = gen_sparse(fbig, n, 0.3, Random(77))
    full = oracle_minpoly(a)
    m = full.degree
    rng = Random(78)
    hits = 0
    for _ in range(trials):
        u = [rng.randrange(p) for _ in range(n)]
        v = [rng.randrange(p) for _ in range(n)]
        if minimal_generator_pair(a, u, v).gen == full:
            hits += 1
    bound = (1 - m / p) ** 2
    sigma3 = 3 * (bound * (1 - bound) / trials) ** 0.5
    assert hits / trials >= bound - sigma3 - 1e-9


# The residue and the solve's baby-step combinations run packed from
# _HGCD_MIN up (deg gen for the residue, n for the solve); these tests
# cover both sides of that rule against the plain formulas.
PACKED_PRIMES = (101, 10**6 + 3, 10**9 + 7, 2**62 - 57)


def unreduced(rng, p):
    """A random residue mod p, written as a negative entry, one >= p or one
    in [0, p)."""
    return rng.randrange(p) + p * rng.choice([-2, -1, 0, 0, 1, 3])


@st.composite
def residue_cases(draw):
    # Small generators over F_101, zero and non-monic ones included; and
    # generators from two below the packed path's start to degree 300 over
    # PACKED_PRIMES, with sequences up to five terms longer than the degree
    # whose entries are negative or >= p, or all 0 mod p (the zero residue).
    if draw(st.booleans()):
        f = PrimeField(101)
        gen = Poly(f, draw(st.lists(st.integers(0, 100), min_size=1, max_size=10)))
        return gen, draw(st.lists(st.integers(0, 100), min_size=10, max_size=14))
    f = PrimeField(draw(st.sampled_from(PACKED_PRIMES)))
    p = f.p
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([_HGCD_MIN - 2, _HGCD_MIN - 1, _HGCD_MIN,
                              rng.randrange(_HGCD_MIN + 1, 301)]))
    gen = Poly(f, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
    length = d + draw(st.integers(0, 5))
    if draw(st.booleans()):
        seq = [unreduced(rng, p) for _ in range(length)]
    else:
        seq = [p * rng.randrange(-2, 4) for _ in range(length)]
    return gen, seq


@given(residue_cases())
@settings(max_examples=400, deadline=None)
def test_residue_is_polynomial_part(case):
    # gen * sum_i a_i x^(-i-1) = (gen * sum_i a_i x^(N-1-i)) / x^N; the
    # polynomial part is the product's coefficients from x^N up.
    gen, seq = case
    f = gen.field
    N = len(seq)
    product = gen * Poly(f, seq[::-1])
    res = residue_polynomial(gen, seq)
    assert res == Poly(f, product.coeffs[N:])
    if not any(a % f.p for a in seq):
        assert res.is_zero()


def test_residue_short_sequence_above_the_rule():
    f = PrimeField(10**9 + 7)
    gen = Poly(f, [3] * (_HGCD_MIN + 5) + [1])
    with pytest.raises(UsageError, match="shorter"):
        residue_polynomial(gen, [1] * (gen.degree - 1))
    assert residue_polynomial(gen, [0] * gen.degree).is_zero()


def test_packing_starts_at_the_size_rule(monkeypatch):
    # The sequence of a dense u takes s - 1 transposed products and one
    # packed product per s terms.
    calls, slots, transposes = [], [], []
    read, transpose = krylov._unpack, SparseMatrix.apply_transpose
    monkeypatch.setattr(krylov, "_pack",
                        lambda c, w: calls.append(len(c)) or _pack(c, w))
    monkeypatch.setattr(krylov, "_unpack",
                        lambda x, w, k, p: slots.append(k) or read(x, w, k, p))
    monkeypatch.setattr(SparseMatrix, "apply_transpose",
                        lambda a, x: transposes.append(1) or transpose(a, x))
    f = PrimeField(10**9 + 7)
    for d in (_HGCD_MIN - 1, _HGCD_MIN):
        residue_polynomial(Poly(f, [2] * d + [1]), [1] * d)
    assert calls == [_HGCD_MIN + 1, _HGCD_MIN]
    for n in (_HGCD_MIN - 1, _HGCD_MIN):
        a = gen_sparse(f, n, 4 / n, Random(n))
        v = [1] * n
        slots.clear()
        transposes.clear()
        pair = minimal_generator_pair(a, v, v)
        s = isqrt(n)
        packed = n >= _HGCD_MIN
        assert slots == ([s] * (2 * n // s) if packed else [])
        assert len(transposes) == (s - 1 if packed else 0)
        calls.clear()
        r1 = next(r for r in range(2, 100) if pair.gen.eval(r))
        plain = solve_shifted(a, r1, v, pair.gen)
        assert solve_shifted(a, r1, v, pair.gen, giants=pair.giants) == plain
        steps = 1 + len(pair.giants)
        assert calls == ([n] * steps if n >= _HGCD_MIN else [])


def horner_solve(a, r1, v, gen):
    """(1/gen(r1)) q(A) v, q = (gen - gen(r1)) / (x - r1), by plain Horner."""
    p = a.field.p
    q = ((gen - Poly.constant(gen.field, gen.eval(r1)))
         // Poly(gen.field, [-r1, 1])).coeffs
    w = [0] * a.n
    for c in reversed(q):
        w = [(x + c * y) % p for x, y in zip(matvec(a, w), v)]
    scale = pow(gen.eval(r1), -1, p)
    return [x * scale % p for x in w]


@pytest.mark.parametrize("n", [_HGCD_MIN - 1, _HGCD_MIN, 150])
@pytest.mark.parametrize("p", [101, 10**9 + 7])
def test_solve_shifted_packed_matches_plain_horner(n, p):
    # Random sparse matrices, and a diagonal one with eigenvalues 2, 3, 5 and
    # one 2x2 Jordan block, whose generators have degree 4 < isqrt(n).  v
    # has entries that are negative and >= p; the Krylov pass keeps it as
    # its first giant step unreduced.
    f = PrimeField(p)
    rng = Random(n * p)
    few = SparseMatrix(f, n, [(i, i, (2, 3, 5)[i % 3]) for i in range(n)]
                       + [(0, 3, 1)])
    for a in (gen_sparse(f, n, 4 / n, rng), few):
        v = [unreduced(rng, p) for _ in range(n)]
        u = [rng.randrange(p) for _ in range(n)]
        pair = minimal_generator_pair(a, u, v)
        if a is few:
            assert pair.gen == P(f, -2, 1) * P(f, -2, 1) * P(f, -3, 1) * P(f, -5, 1)
            assert pair.gen.degree < isqrt(n)
        broken = Poly(f, [pair.gen.coeffs[0] + 1, *pair.gen.coeffs[1:]])
        roots = [r for r in range(min(p, 200)) if not pair.gen.eval(r)]
        shifts = [rng.randrange(p) for _ in range(3)] + roots[:1]
        for cand in (pair.gen, broken):
            for r1 in shifts:
                plain, giant = CostMeter(), CostMeter()
                expected = _outcome(lambda: solve_shifted(a, r1, v, cand, plain))
                got = _outcome(lambda: solve_shifted(a, r1, v, cand, giant,
                                                     pair.giants))
                assert got == expected
                if isinstance(got, list):
                    assert got == horner_solve(a, r1, v, cand)
                    assert plain.matvec == cand.degree
                    assert giant.matvec == min(isqrt(n), cand.degree)
                if cand is broken:
                    assert got in (BadShiftError, IntegrityError)
                if cand is pair.gen and r1 in roots:
                    assert got is BadShiftError


@pytest.mark.parametrize("n", [10, _HGCD_MIN + 6])
def test_sequence_unit_projections_match_dense_dot(n):
    # A projection with at most one nonzero entry takes one product per
    # term; the same projection with p added to every entry, like one with
    # two nonzero entries, takes the dense dot.  Sequence and meter agree,
    # and match u^T A^i v.
    p = 10**9 + 7
    f = PrimeField(p)
    rng = Random(n)
    a = gen_sparse(f, n, 0.3, rng)
    v = [unreduced(rng, p) for _ in range(n)]

    def unit(j, c):
        return [c if i == j else 0 for i in range(n)]

    two = unit(0, 1)
    two[n - 1] = 2
    for u in (unit(0, 1), unit(n - 1, 1), [0] * n, unit(n // 2, p + 7),
              unit(1, 3 * p), two):
        unit_meter, dense_meter = CostMeter(), CostMeter()
        seq = wiedemann_sequence(a, u, v, 2 * n, unit_meter)
        dense = wiedemann_sequence(a, [c + p for c in u], v, 2 * n, dense_meter)
        assert seq == dense and unit_meter == dense_meter
        assert unit_meter.mul >= 2 * n * n and unit_meter.matvec == 2 * n - 1
        cur = v
        for term in seq:
            assert term == sum(x * y for x, y in zip(u, cur)) % p
            cur = matvec(a, cur)


def dense_dot_sequence(a, u, v, length):
    """u^T A^i v by one dot per term, with the meter a dot per term charges."""
    p, n = a.field.p, a.n
    meter, cur, seq = CostMeter(), v, []
    for i in range(length):
        if i:
            cur = matvec(a, cur, meter)
        meter.mul += n
        meter.add += n - 1
        seq.append(sum(x * y for x, y in zip(u, cur)) % p)
    return seq, meter


@pytest.mark.parametrize("n", [_HGCD_MIN - 1, _HGCD_MIN, _HGCD_MIN + 1, 150])
@pytest.mark.parametrize("p", [101, 10**9 + 7, 2**62 - 57])
def test_sequence_packed_matches_dense_dot(n, p):
    # From _HGCD_MIN up a dense u takes its terms s = isqrt(n) at a time from
    # a packed block of (A^T)^r u; below it, one dot per term.  u and v have
    # entries that are negative and >= p, or all negative, and v is still
    # the first giant step as given.  Lengths: one term, fewer than s, not a
    # multiple of s, and 2n; operators: sparse, and the products and shift
    # the protocols build.
    f = PrimeField(p)
    rng = Random(n + p)
    s = isqrt(n)
    a = gen_sparse(f, n, 4 / n, rng)
    ops = [a]
    if n == 150:
        diag = DiagonalMatrix(f, [rng.randrange(1, p) for _ in range(n)])
        ops += [ProductOp(a, GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))),
                ProductOp(diag, a), ShiftOp(rng.randrange(p), a)]
    for op, negative in [(op, neg) for op in ops for neg in (False, True)]:
        if negative:
            u = [rng.randrange(p) - 3 * p for _ in range(n)]
            v = [rng.randrange(p) - 3 * p for _ in range(n)]
        else:
            u = [unreduced(rng, p) for _ in range(n)]
            v = [unreduced(rng, p) for _ in range(n)]
        for length in (1, s - 1, 2 * s + 3, 2 * n):
            meter, giants = CostMeter(), []
            seq = wiedemann_sequence(op, u, v, length, meter, giants)
            want, want_meter = dense_dot_sequence(op, u, v, length)
            assert seq == want and meter == want_meter
            assert len(giants) == len(range(0, min(length, n), s))
            cur = v
            for i in range(min(length, n)):
                if i % s == 0:
                    assert giants[i // s] == cur
                cur = matvec(op, cur)


class OffsetOp(LinearOp):
    """A sparse matrix whose apply returns residues shifted by -p or +p."""

    def __init__(self, inner, shift):
        self.field, self.n, self.inner, self.shift = inner.field, inner.n, inner, shift

    def apply(self, x, meter=None):
        return [y + self.shift for y in self.inner.apply(x, meter)]

    def apply_transpose(self, x):
        return self.inner.apply_transpose(x)


@pytest.mark.parametrize("shift", [-1, 1])
def test_sequence_packed_with_unreduced_apply(shift):
    # An operator's apply may return any representatives: the packed path
    # reduces every iterate it reads, as the dots do.
    p, n = 10**9 + 7, _HGCD_MIN + 6
    f = PrimeField(p)
    rng = Random(shift)
    op = OffsetOp(gen_sparse(f, n, 4 / n, rng), shift * p)
    u = [rng.randrange(p) for _ in range(n)]
    v = [rng.randrange(p) for _ in range(n)]
    assert wiedemann_sequence(op, u, v, 2 * n) == dense_dot_sequence(op, u, v, 2 * n)[0]


def test_sequence_packed_needs_apply_transpose():
    # From _HGCD_MIN up the prover's pass with a dense u uses x^T A.
    f = PrimeField(101)
    n = _HGCD_MIN

    class ApplyOnly(OffsetOp):
        apply_transpose = LinearOp.apply_transpose

    op = ApplyOnly(gen_sparse(f, n, 4 / n, Random(1)), 0)
    v = [1] * n
    assert len(wiedemann_sequence(op, [1] + [0] * (n - 1), v, 2 * n)) == 2 * n
    with pytest.raises(NotImplementedError):
        wiedemann_sequence(op, [1] * n, v, 2 * n)


# From krylov._SPLIT_MIN up a sequence longer than n runs its transposed
# chain (A^T)^j u in a forked helper.  These tests lower the rule to the
# packing rule so that the split runs at small n.
needs_fork = pytest.mark.skipif(not krylov._may_fork(),
                                reason="the split needs os.fork and two CPUs")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("n, p", [(_HGCD_MIN, 101), (_HGCD_MIN + 8, 2**62 - 57)])
def test_split_matches_the_serial_pass(monkeypatch, n, p):
    # Sequence, giant steps and meter equal the serial pass's for the
    # operators the protocols build and one whose apply is unreduced, with
    # e_1, dense and zero projections, at the lengths a generator pair and
    # the harness ask for, and at 3n, where this process runs past A^n v.
    f = PrimeField(p)
    rng = Random(n + p)
    a = gen_sparse(f, n, 4 / n, rng)
    gamma = GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))
    diag = DiagonalMatrix(f, [rng.randrange(1, p) for _ in range(n)])
    ops = (a, ProductOp(a, gamma), ProductOp(diag, a),
           ShiftOp(rng.randrange(p), ProductOp(a, gamma)), OffsetOp(a, -p))
    us = ([1] + [0] * (n - 1), [unreduced(rng, p) for _ in range(n)], [0] * n)
    forks = count_forks(monkeypatch)
    runs = 0
    for op in ops:
        for u in us:
            v = [unreduced(rng, p) for _ in range(n)]
            for length in (2 * n - 1, 2 * n, 3 * n):
                monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
                serial, serial_meter, serial_giants = _sequence(op, u, v, length)
                monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
                split, split_meter, split_giants = _sequence(op, u, v, length)
                runs += 1
                assert len(forks) == runs
                assert split == serial and split_meter == serial_meter
                assert split_giants == serial_giants
                assert split_meter.matvec == length - 1
    assert_no_child_left()


@needs_fork
def test_a_short_split_matches_the_serial_pass(monkeypatch):
    # Up to n + s terms the helper's last rows are its first s, so it sends
    # one block; from n + s + 1 on it sends two.
    f = PrimeField(2**62 - 57)
    p, n = f.p, _HGCD_MIN
    s, rng = isqrt(n), Random(6)
    a = gen_sparse(f, n, 4 / n, rng)
    gamma = GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))
    forks = count_forks(monkeypatch)
    for op, u in ((a, [unreduced(rng, p) for _ in range(n)]),
                  (ProductOp(a, gamma), [1] + [0] * (n - 1))):
        v = [unreduced(rng, p) for _ in range(n)]
        for length in (n + 1, n + 2, n + s, n + s + 1):
            monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
            serial = _sequence(op, u, v, length)
            monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
            assert _sequence(op, u, v, length) == serial
    assert len(forks) == 8
    assert_no_child_left()


@needs_fork
def test_a_warm_helper_compiles_nothing(monkeypatch):
    # Once A is compiled, the helper inherits a compiled A^T.  At this n its
    # n - 1 transposed products would otherwise compile a copy of their
    # own, and a compile outside this process raises here.
    f = PrimeField(2**62 - 57)
    p, n = f.p, _HGCD_MIN + 8
    rng = Random(n)
    a = gen_sparse(f, n, 4 / n, rng)
    for _ in range(blackbox._COMPILE_AFTER):
        a.apply([0] * n)
    assert blackbox._CODE in a._cache
    pid, real = os.getpid(), blackbox._compile

    def in_this_process(m):
        if os.getpid() != pid:
            raise UsageError("compiled in the helper")
        return real(m)

    monkeypatch.setattr(blackbox, "_compile", in_this_process)
    gamma = GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))
    for op, u in ((a, [unreduced(rng, p) for _ in range(n)]),
                  (ProductOp(a, gamma), [1] + [0] * (n - 1))):
        v = [unreduced(rng, p) for _ in range(n)]
        monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
        serial = _sequence(op, u, v, 2 * n)
        monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
        assert _sequence(op, u, v, 2 * n) == serial
    assert_no_child_left()


def _sequence(op, u, v, length):
    meter, giants = CostMeter(), []
    return wiedemann_sequence(op, u, v, length, meter, giants), meter, giants


class FailingTranspose(OffsetOp):
    def apply_transpose(self, x):
        raise UsageError(f"no transpose for n = {self.n}")


class LocalError(Exception):
    """An exception whose class cannot be found again by its module path."""


LocalError.__qualname__ = "nowhere.LocalError"


class UnpicklableTranspose(OffsetOp):
    def apply_transpose(self, x):
        raise LocalError("lost class")


@needs_fork
def test_no_helper_outlives_a_pass(monkeypatch):
    # The helper is reaped after a pass that succeeds and after one whose
    # helper fails; its exception reaches the caller with type and message,
    # or as RuntimeError naming it when its class cannot be sent.
    f = PrimeField(101)
    n = _HGCD_MIN
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
    forks = count_forks(monkeypatch)
    a = gen_sparse(f, n, 4 / n, Random(1))
    v = [1] * n
    assert len(wiedemann_sequence(a, v, v, 2 * n)) == 2 * n
    assert_no_child_left()

    class ApplyOnly(OffsetOp):
        apply_transpose = LinearOp.apply_transpose

    for u in ([1] + [0] * (n - 1), v):
        with pytest.raises(NotImplementedError):
            wiedemann_sequence(ApplyOnly(a, 0), u, v, 2 * n)
        assert_no_child_left()
    with pytest.raises(UsageError, match=f"^no transpose for n = {n}$"):
        wiedemann_sequence(FailingTranspose(a, 0), v, v, 2 * n)
    with pytest.raises(RuntimeError, match="^LocalError: lost class$"):
        wiedemann_sequence(UnpicklableTranspose(a, 0), v, v, 2 * n)
    assert_no_child_left()
    assert len(forks) == 5


@needs_fork
def test_parent_error_kills_and_reaps_the_helper(monkeypatch):
    # An error in the parent's own chain ends a helper that would run on for
    # a minute, and reaps it; unkilled, the helper would hold the reaping
    # wait for that minute.
    f = PrimeField(101)
    n = _HGCD_MIN
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n)

    class Stuck(OffsetOp):
        calls = 0

        def apply(self, x, meter=None):
            self.calls += 1
            if self.calls == n // 2:
                raise IntegrityError("apply failed")
            return super().apply(x, meter)

        def apply_transpose(self, x):
            time.sleep(60)
            raise UsageError("helper not stopped")

    start = time.perf_counter()
    with pytest.raises(IntegrityError, match="apply failed"):
        wiedemann_sequence(Stuck(gen_sparse(f, n, 4 / n, Random(2)), 0),
                           [1] * n, [1] * n, 2 * n)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_no_fork_below_the_rule_or_beside_a_thread(monkeypatch):
    # Below the rule, for a sequence of at most n terms, while another
    # thread runs and while SIGCHLD is ignored, this process makes the rows
    # and nothing forks.
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    f = PrimeField(101)
    n = _HGCD_MIN
    a = gen_sparse(f, n, 4 / n, Random(3))
    v = [1] * n
    want, _ = dense_dot_sequence(a, v, v, 2 * n)
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
    assert wiedemann_sequence(a, v, v, 2 * n) == want
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
    assert wiedemann_sequence(a, v, v, n) == want[:n]
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert wiedemann_sequence(a, v, v, 2 * n) == want
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert wiedemann_sequence(a, v, v, 2 * n) == want
    finally:
        signal.signal(signal.SIGCHLD, old)


def test_a_failed_fork_makes_the_rows_here(monkeypatch):
    # A fork that fails (EAGAIN) costs the pass its helper, not its result:
    # both pipe ends are closed, this process makes the rows, and sequence,
    # giant steps and meter are the serial pass's.
    f = PrimeField(2**62 - 57)
    p, n = f.p, _HGCD_MIN
    rng = Random(5)
    a = gen_sparse(f, n, 4 / n, rng)
    gamma = GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))
    tries, pipes, pipe = [], [], os.pipe

    def failing_fork():
        tries.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def recorded_pipe():
        fds = pipe()
        pipes.extend(fds)
        return fds

    monkeypatch.setattr(krylov, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    for op, u in ((a, [unreduced(rng, p) for _ in range(n)]),
                  (ProductOp(a, gamma), [1] + [0] * (n - 1))):
        v = [unreduced(rng, p) for _ in range(n)]
        monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
        serial = _sequence(op, u, v, 2 * n)
        monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
        assert _sequence(op, u, v, 2 * n) == serial
    assert len(tries) == 2 and len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert_no_child_left()


@needs_fork
def test_a_reply_outlives_a_reaping_sigchld_handler(monkeypatch):
    # A SIGCHLD handler that reaps every child takes the helper before this
    # process waits for it, which then fails with ECHILD.  The helper's
    # complete reply is kept: the pass gives the serial pass's result.  An
    # error in this process's own chain after that reaping is raised as it
    # is, not as a failure to kill the helper.
    f = PrimeField(101)
    n = _HGCD_MIN
    reaped = []

    def reap(signum, frame):
        with suppress(ChildProcessError):
            while pid := os.waitpid(-1, os.WNOHANG)[0]:
                reaped.append(pid)

    class AfterTheReaper(OffsetOp):
        def apply(self, x, meter=None):
            deadline = time.monotonic() + 30
            while not reaped and time.monotonic() < deadline:
                time.sleep(0.01)
            return super().apply(x, meter)

    class FailsAfterTheReaper(AfterTheReaper):
        def apply(self, x, meter=None):
            super().apply(x, meter)
            raise IntegrityError("apply failed")

    a = gen_sparse(f, n, 4 / n, Random(4))
    v = [1] * n
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n + 1)
    serial = _sequence(OffsetOp(a, 0), v, v, 2 * n)
    monkeypatch.setattr(krylov, "_SPLIT_MIN", n)
    old = signal.signal(signal.SIGCHLD, reap)
    try:
        assert _sequence(AfterTheReaper(a, 0), v, v, 2 * n) == serial
        assert len(reaped) == 1
        reaped.clear()
        with pytest.raises(IntegrityError, match="^apply failed$"):
            wiedemann_sequence(FailsAfterTheReaper(a, 0), v, v, 2 * n)
        assert len(reaped) == 1
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert_no_child_left()
