from itertools import permutations
from random import Random

import pytest

from certilin import (IntegrityError, OracleCapError, Poly, PrimeField,
                      SparseMatrix, oracle_charpoly, oracle_det, oracle_kernel,
                      oracle_minpoly)
from certilin import oracle
from certilin.blackbox import matvec
from certilin.oracle import (_hessenberg, dense_charpoly, dense_det,
                             materialize)
from certilin.harness import gen_sparse

from helpers import (dense_solve, identity_matrix, reference_det,
                     reference_minpoly, vector_minpoly)


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


def test_charpoly_checks_its_pair_against_one_elimination(f101, monkeypatch):
    # dense_det of I - M must give (chi(1), chi_minor(1)), also under
    # python -O.  Neither polynomial has a root at 1 here, so a stub that
    # answers 0 for one of them disagrees on that one only.
    rows = [[2, 3], [5, 7]]
    real = dense_det([[100, 98], [96, 95]], f101)   # I - M
    assert all(real)
    chi, chi_minor = dense_charpoly(rows, f101)
    assert (chi.eval(1), chi_minor.eval(1)) == real
    for stub in ((0, real[1]), (real[0], 0)):
        monkeypatch.setattr(oracle, "dense_det", lambda rows, field: stub)
        with pytest.raises(IntegrityError, match="disagrees"):
            dense_charpoly(rows, f101)


def _random_rows(rng, n, p, density):
    return [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def _check_det_pair(rows, field):
    block = [r[:-1] for r in rows[:-1]]
    assert dense_det(rows, field) == (reference_det(rows, field),
                                      reference_det(block, field))


def test_det_pair_matches_separate_eliminations():
    # dense_det's pair from one elimination equals two eliminations of
    # their own: of the whole matrix and of its leading (n-1)-block.
    rng = Random(19)
    for p in (7, 101, 1_000_003):
        field = PrimeField(p)
        for n in range(1, 13):
            for density in (0.0, 0.2, 0.5, 1.0):
                for _ in range(4):
                    _check_det_pair(_random_rows(rng, n, p, density), field)
    _check_det_pair(_random_rows(rng, 64, 1_000_003, 0.3), PrimeField(1_000_003))


@pytest.mark.parametrize("p", [7, 101, 1_000_003])
def test_det_pair_forced_cases(p):
    field = PrimeField(p)
    rng = Random(p)
    # n = 1: the empty block's determinant is 1.
    assert dense_det([[0]], field) == (0, 1)
    assert dense_det([[3]], field) == (3, 1)
    for n in range(2, 13):
        # A nonsingular whole whose leading block is singular because its
        # first column offers only the last row as pivot.
        rows = _random_rows(rng, n, p, 0.7)
        for r in rows[:-1]:
            r[0] = 0
        rows[-1][0] = 1
        while reference_det(rows, field) == 0:
            rows[rng.randrange(n)][rng.randrange(1, n)] = rng.randrange(1, p)
        assert reference_det([r[:-1] for r in rows[:-1]], field) == 0
        assert dense_det(rows, field)[1] == 0
        _check_det_pair(rows, field)
        # A singular whole: a zero last row, which never pivots, and a
        # repeated row.
        rows = _random_rows(rng, n, p, 0.7)
        rows[-1] = [0] * n
        _check_det_pair(rows, field)
        rows = _random_rows(rng, n, p, 0.7)
        rows[-1] = rows[0][:]
        assert dense_det(rows, field)[0] == 0
        _check_det_pair(rows, field)


def _charpoly_corpus():
    """(label, rows, p): dense, 10%-sparse and singular matrices, and ones
    that take the Hessenberg reduction's no-pivot and swap branches, at
    p = n + 1 and p = 2^62 - 57."""
    rng = Random(29)
    big = 2**62 - 57
    for n, p in [(1, big), (2, 3), (2, big), (3, big), (4, 5), (6, 7),
                 (10, 11), (12, 13), (12, big)]:
        yield "dense", _random_rows(rng, n, p, 1.0), p
        yield "sparse", _random_rows(rng, n, p, 0.1), p
        yield "zero", _random_rows(rng, n, p, 0.0), p
        rows = _random_rows(rng, n, p, 0.7)
        rows[-1] = rows[0][:]
        yield "repeated-row", rows, p
        # The last row is zero left of its diagonal: no pivot.
        rows = _random_rows(rng, n, p, 1.0)
        rows[-1][:-1] = [0] * (n - 1)
        yield "no-pivot", rows, p
        for label, keep in (("upper-triangular", lambda i, j: i <= j),
                            ("lower-triangular", lambda i, j: i >= j)):
            rows = _random_rows(rng, n, p, 1.0)
            yield label, [[v if keep(i, j) else 0 for j, v in enumerate(r)]
                          for i, r in enumerate(rows)], p
        if n >= 3:
            # The last row's subdiagonal entry is zero and one left of it
            # is not: a pivot swap.
            rows = _random_rows(rng, n, p, 1.0)
            rows[-1][-2] = 0
            yield "swap", rows, p
    yield "dense-64", _random_rows(rng, 64, big, 1.0), big
    yield "sparse-64", _random_rows(rng, 64, big, 0.1), big


@pytest.mark.parametrize("rows, p", [
    pytest.param(rows, p, id=f"{label}-n{len(rows)}-p{p}")
    for label, rows, p in _charpoly_corpus()])
def test_charpoly_pair_matches_eliminations_on_the_raw_rows(rows, p):
    # The Hessenberg form is upper Hessenberg, and at each of x = 0..n the
    # pair read off it takes the values of det(x*I - M) and of its leading
    # block, both monic of degree n and n - 1: n + 1 values fix each one.
    field = PrimeField(p)
    n = len(rows)
    h = _hessenberg(rows, p)
    assert all(not h[i][j] for i in range(n) for j in range(i - 1))
    chi, chi_minor = dense_charpoly(rows, field)
    assert chi.is_monic() and chi.degree == n
    assert chi_minor.is_monic() and chi_minor.degree == max(n - 1, 0)
    for x in range(n + 1):
        shifted = [[((x if i == j else 0) - v) % p for j, v in enumerate(r)]
                   for i, r in enumerate(rows)]
        assert chi.eval(x) == reference_det(shifted, field)
        assert chi_minor.eval(x) == reference_det(
            [r[:-1] for r in shifted[:-1]], field)


def _mix_leading_block(rows, p, rng):
    """A similarity by diag(Q, 1): random row and column swaps and
    R_i += f*R_j, C_j -= f*C_i steps inside the leading (n-1)-block, which
    keep the charpolys of M and of that block."""
    n = len(rows)
    for _ in range(3 * n):
        i, j = rng.sample(range(n - 1), 2)
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
            for r in rows:
                r[i], r[j] = r[j], r[i]
        else:
            f = rng.randrange(1, p)
            rows[i] = [(a + f * b) % p for a, b in zip(rows[i], rows[j])]
            for r in rows:
                r[j] = (r[j] - f * r[i]) % p
    return rows


@pytest.mark.parametrize("p", [3, 5, 7])
def test_charpoly_pair_at_p_not_above_n(p):
    # p <= n leaves too few points to fix the pair by its values, so it is
    # checked on matrices whose pair is known: a companion matrix of f
    # (chi = f, and its leading block is nilpotent), the same mixed by a
    # similarity inside the leading block, and an upper triangular matrix.
    field = PrimeField(p)
    rng = Random(p)
    x = P(field, 0, 1)
    for n in range(p, 13):
        coeffs = [rng.randrange(p) for _ in range(n)]
        f = Poly(field, coeffs + [1])
        companion = [[int(i == j + 1) for j in range(n - 1)] + [-c % p]
                     for i, c in enumerate(coeffs)]
        x_minor = P(field, *[0] * (n - 1), 1)
        assert dense_charpoly(companion, field) == (f, x_minor)
        mixed = _mix_leading_block([r[:] for r in companion], p, rng)
        assert dense_charpoly(mixed, field) == (f, x_minor)
        diag = [rng.randrange(p) for _ in range(n)]
        upper = [[diag[i] if i == j else rng.randrange(p) if i < j else 0
                  for j in range(n)] for i in range(n)]
        chi_minor = Poly.one(field)
        for d in diag[:-1]:
            chi_minor = chi_minor * (x - P(field, d))
        assert dense_charpoly(upper, field) == (
            chi_minor * (x - P(field, diag[-1])), chi_minor)


def _minpoly_cases(field):
    """Matrices whose all-ones vector is not cyclic (derogatory ones and
    constant row sums) and one nilpotent Jordan block, whose is."""
    n = 6
    yield "identity", identity_matrix(field, n)
    yield "repeated-diagonal", SparseMatrix(
        field, n, [(i, i, d) for i, d in enumerate([2, 2, 3, 5, 5, 5])])
    # Constant row sums: the all-ones vector is an eigenvector.
    rng = Random(30)
    rows = _random_rows(rng, n, field.p, 0.6)
    for r in rows:
        r[-1] = (7 - sum(r[:-1])) % field.p
    yield "constant-row-sums", from_rows(field, rows)
    yield "nilpotent-jordan", SparseMatrix(
        field, n, [(i, i + 1, 1) for i in range(n - 1)])
    yield "nilpotent-two-blocks", SparseMatrix(
        field, n, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])


def test_minpoly_matches_the_unit_vector_lcm(f101):
    # Where the all-ones vector's annihilator falls short of degree n, the
    # unit vectors' lcm completes it.
    for label, a in _minpoly_cases(f101):
        assert oracle_minpoly(a) == reference_minpoly(a), label
    rng = Random(31)
    for _ in range(10):
        a = gen_sparse(f101, rng.randrange(1, 9), 0.4, rng)
        assert oracle_minpoly(a) == reference_minpoly(a)


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


def test_cap_enforced(f101):
    with pytest.raises(OracleCapError):
        oracle_det(identity_matrix(f101, 65))
    assert oracle_det(identity_matrix(f101, 64)) == 1
