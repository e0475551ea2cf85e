from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (IntegrityError, OracleCapError, Poly, PrimeField,
                      SparseMatrix, oracle_charpoly, oracle_det, oracle_kernel,
                      oracle_minpoly)
from certilin import oracle
from certilin.blackbox import matvec
from certilin.oracle import _interpolate, materialize
from certilin.harness import gen_sparse

from helpers import dense_solve, identity_matrix, vector_minpoly


def P(field, *coeffs):
    return Poly(field, coeffs)


def from_rows(field, rows):
    n = len(rows)
    return SparseMatrix(field, n, [(i, j, rows[i][j])
                                   for i in range(n) for j in range(n)
                                   if rows[i][j] % field.p])


def cofactor_det(rows, p):
    """Independent determinant oracle: Leibniz expansion."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def test_identity_oracles(f7):
    a = identity_matrix(f7, 2)
    assert oracle_det(a) == 1
    assert oracle_charpoly(a) == P(f7, 1, -2, 1)
    assert oracle_minpoly(a) == P(f7, -1, 1)
    assert oracle_kernel(a) is None


def test_swap_oracles(f7):
    a = from_rows(f7, [[0, 1], [1, 0]])
    assert oracle_det(a) == 6
    assert cofactor_det([[0, 1], [1, 0]], 7) == 6
    assert oracle_charpoly(a) == P(f7, -1, 0, 1)
    assert oracle_minpoly(a) == P(f7, -1, 0, 1)


def test_nilpotent_oracles(f7):
    a = from_rows(f7, [[0, 1], [0, 0]])
    assert oracle_det(a) == 0
    w = oracle_kernel(a)
    assert w is not None and any(w) and matvec(a, w) == [0, 0]
    assert oracle_minpoly(a) == P(f7, 0, 0, 1)


def test_det_matches_cofactor_expansion(f101):
    rng = Random(12)
    for n in range(1, 6):
        for _ in range(20):
            a = gen_sparse(f101, n, 0.5, rng)
            assert oracle_det(a) == cofactor_det(a.to_dense(), 101)


def test_charpoly_structure(f101):
    rng = Random(13)
    for _ in range(15):
        n = rng.randrange(2, 9)
        a = gen_sparse(f101, n, 0.4, rng)
        c = oracle_charpoly(a)
        assert c.is_monic() and c.degree == n
        # det(A) = (-1)^n c(0)
        sign = (-1) ** n % 101
        assert oracle_det(a) == sign * c.constant_term() % 101
        # trace(A) = -c_{n-1}
        trace = sum(v for i, j, v in a.entries if i == j) % 101
        assert trace == (-c.coeffs[n - 1]) % 101
        # minimal polynomial divides the characteristic polynomial
        assert c % oracle_minpoly(a) == Poly.zero(f101)


@st.composite
def interpolation_cases(draw):
    p = draw(st.sampled_from([7, 101]))
    n = draw(st.integers(0, min(p - 1, 12)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        coeffs = [0] * (n + 1)
    xs = draw(st.permutations(range(p)))[:n + 1]
    return Poly(PrimeField(p), coeffs), xs


@given(interpolation_cases())
@settings(max_examples=300, deadline=None)
def test_interpolate_recovers_polynomials(case):
    # A polynomial of degree <= n (the zero polynomial included) comes back
    # from its values at n+1 distinct points.
    poly, xs = case
    assert _interpolate(poly.field, xs, [poly.eval(x) for x in xs]) == poly


def test_charpoly_checks_its_interpolant(f101, monkeypatch):
    # A charpoly that is not monic of degree n raises, also under python -O.
    monkeypatch.setattr(oracle, "dense_det", lambda rows, field: 0)
    with pytest.raises(IntegrityError):
        oracle.dense_charpoly([[1, 2], [3, 4]], f101)


def test_minpoly_annihilates(f101):
    rng = Random(14)
    for _ in range(10):
        n = rng.randrange(2, 8)
        a = gen_sparse(f101, n, 0.4, rng)
        mp = oracle_minpoly(a)
        rows = a.to_dense()
        # Evaluate mp at the matrix via repeated application to basis vectors.
        for j in range(n):
            e = [1 if i == j else 0 for i in range(n)]
            acc = [c * mp.coeffs[mp.degree] % 101 for c in e]
            for k in range(mp.degree - 1, -1, -1):
                acc = a.apply(acc)
                acc = [(x + mp.coeffs[k] * y) % 101 for x, y in zip(acc, e)]
            assert acc == [0] * n


def test_solve_and_kernel(f101):
    rng = Random(15)
    for _ in range(20):
        n = rng.randrange(2, 8)
        a = gen_sparse(f101, n, 0.5, rng)
        x = [rng.randrange(101) for _ in range(n)]
        b = a.apply(x)
        got = dense_solve(materialize(a), b, a.field)
        assert got is not None and a.apply(got) == b
        w = oracle_kernel(a)
        if w is None:
            assert oracle_det(a) != 0
        else:
            assert any(w) and a.apply(w) == [0] * n and oracle_det(a) == 0


def test_solve_inconsistent(f7):
    a = from_rows(f7, [[0, 1], [0, 0]])
    assert dense_solve(materialize(a), [0, 1], a.field) is None


def test_vector_minpoly(f101):
    rng = Random(16)
    for _ in range(10):
        n = rng.randrange(2, 8)
        a = gen_sparse(f101, n, 0.4, rng)
        v = [rng.randrange(101) for _ in range(n)]
        f = vector_minpoly(a, v)
        assert f.is_monic()
        # Annihilates the Krylov stream.
        acc = [c * f.coeffs[f.degree] % 101 for c in v]
        for k in range(f.degree - 1, -1, -1):
            acc = a.apply(acc)
            acc = [(x + f.coeffs[k] * y) % 101 for x, y in zip(acc, v)]
        assert acc == [0] * n
        assert oracle_minpoly(a) % f == Poly.zero(f101)


def test_cap_enforced(f101, monkeypatch):
    a = identity_matrix(f101, 70)
    with pytest.raises(OracleCapError):
        oracle_det(a)
    monkeypatch.setenv("CERTILIN_ORACLE_CAP", "80")
    assert oracle_det(a) == 1
    monkeypatch.setenv("CERTILIN_ORACLE_CAP", "10")
    with pytest.raises(OracleCapError):
        oracle_charpoly(identity_matrix(f101, 12))
