from dataclasses import replace
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (BadShiftError, CostMeter, HonestProver, IntegrityError,
                      Poly, PrimeField, SparseMatrix, UsageError,
                      minimal_generator_pair, oracle_det, oracle_kernel,
                      oracle_minpoly, poly_gcd, poly_lcm, residue_polynomial,
                      solve_shifted, vector_minpoly, wiedemann_sequence)
from certilin.blackbox import matvec
from certilin.harness import gen_sparse
from certilin.oracle import dense_solve

from conftest import PRIME_BIG
from helpers import identity_matrix


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


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10),
       st.lists(st.integers(min_value=0, max_value=100), min_size=10, max_size=14))
@settings(max_examples=300, deadline=None)
def test_residue_is_polynomial_part(gen_coeffs, seq):
    # gen * sum_i a_i x^(-i-1) = (gen * sum_i a_i x^(N-1-i)) / x^N; the
    # polynomial part is the product's coefficients from x^N up.
    f = PrimeField(101)
    gen = Poly(f, gen_coeffs)
    N = len(seq)
    product = gen * Poly(f, seq[::-1])
    assert residue_polynomial(gen, seq) == Poly(f, product.coeffs[N:])
