import hashlib
from random import Random

import pytest

from certilin import (CostMeter, DiagonalMatrix, GammaMatrix, ParseError,
                      ProductOp, ShiftOp, SparseMatrix, UsageError, emit_sms,
                      gamma_det, identity_matrix, matrix_digest, matvec,
                      parse_sms)
from certilin.harness import gen_sparse


def dense_apply(rows, x, p):
    return [sum(r * xi for r, xi in zip(row, x)) % p for row in rows]


def test_identity_matvec(f7):
    a = identity_matrix(f7, 3)
    assert matvec(a, [1, 2, 3]) == [1, 2, 3]


def test_gamma_matvec_example(f7):
    g = GammaMatrix(f7, 2, t=2, s=3)
    assert matvec(g, [1, 1]) == [(2 - 1) % 7, (3 + 2) % 7] == [1, 5]
    # Dense 2x2 oracle.
    assert g.to_dense() == [[2, 6], [3, 2]]
    assert dense_apply(g.to_dense(), [1, 1], 7) == [1, 5]


def test_shift_zero_is_negation(f101):
    a = SparseMatrix(f101, 2, [(0, 0, 2), (1, 0, 3)])
    x = [5, 7]
    ax = matvec(a, x)
    assert matvec(ShiftOp(0, a), x) == [(-y) % 101 for y in ax]


def test_dimension_mismatch(f7):
    with pytest.raises(UsageError):
        matvec(identity_matrix(f7, 3), [1, 2])
    with pytest.raises(UsageError):
        SparseMatrix(f7, 2, [(2, 0, 1)])


def test_product_matches_composed_dense(f101):
    rng = Random(9)
    for _ in range(5):
        n = rng.randrange(2, 13)
        a = gen_sparse(f101, n, 0.3, rng)
        d = DiagonalMatrix(f101, [rng.randrange(1, 101) for _ in range(n)])
        prod = ProductOp(d, a)
        for _ in range(20):
            x = [rng.randrange(101) for _ in range(n)]
            assert matvec(prod, x) == d.apply(a.apply(x))


def test_gamma_det_examples(f7):
    assert gamma_det(GammaMatrix(f7, 2, t=0, s=5)) == 5
    assert (2 ** 3 + 1) % 7 == 2
    assert gamma_det(GammaMatrix(f7, 3, t=2, s=1)) == 2
    assert gamma_det(GammaMatrix(f7, 2, t=1, s=6)) == 0


def test_gamma_det_matches_dense(f101):
    from certilin.oracle import dense_det
    rng = Random(2)
    for n in range(1, 9):
        for _ in range(100):
            g = GammaMatrix(f101, n, t=rng.randrange(101), s=rng.randrange(101))
            assert gamma_det(g) == dense_det(g.to_dense(), f101)


def test_gamma_det_op_count(f101):
    import math
    for n in (2, 3, 8, 100, 1000):
        m = CostMeter()
        gamma_det(GammaMatrix(f101, n, t=3, s=4), m)
        assert m.field_ops <= 2 * math.ceil(math.log2(n)) + 1


def test_sparse_matvec_meter_exact(f101):
    rng = Random(4)
    a = gen_sparse(f101, 10, 0.3, rng)
    m = CostMeter()
    matvec(a, [rng.randrange(101) for _ in range(10)], m)
    assert m.mul == a.nnz and m.add == a.nnz and m.matvec == 1


def test_gamma_matvec_meter_bound(f101):
    n = 12
    m = CostMeter()
    matvec(GammaMatrix(f101, n, t=5, s=9), [1] * n, m)
    assert m.field_ops <= 3 * n and m.matvec == 1


def test_matvec_counter_outermost_only(f101):
    a = identity_matrix(f101, 4)
    d = DiagonalMatrix(f101, [1, 2, 3, 4])
    m = CostMeter()
    matvec(ProductOp(d, a), [1, 1, 1, 1], m)
    assert m.matvec == 1


def test_matvec_cost_model(f101):
    a = gen_sparse(f101, 8, 0.4, Random(1))
    assert a.matvec_cost() == 2 * a.nnz
    g = GammaMatrix(f101, 8, t=1, s=1)
    assert g.matvec_cost() == 17
    assert ShiftOp(3, a).matvec_cost() == a.matvec_cost() + 16
    assert ProductOp(a, g).matvec_cost() == a.matvec_cost() + 17


def test_duplicate_entries_sum(f7):
    a = SparseMatrix(f7, 2, [(0, 0, 3), (0, 0, 4)])
    assert a.nnz == 0
    b = SparseMatrix(f7, 2, [(0, 0, 3), (0, 0, 5)])
    assert b.entries == ((0, 0, 1),)


# -- SMS format -------------------------------------------------------------


def test_parse_sms_identity():
    a = parse_sms("2 2 7\n1 1 1\n2 2 1\n0 0 0")
    assert a.n == 2 and a.field.p == 7
    assert a.entries == ((0, 0, 1), (1, 1, 1))


def test_parse_sms_duplicate_cancellation():
    a = parse_sms("2 2 7\n1 1 3\n1 1 4\n0 0 0\n")
    assert a.nnz == 0


def test_parse_sms_negative_values_reduce():
    a = parse_sms("2 2 7\n1 2 -1\n0 0 0\n")
    assert a.entries == ((0, 1, 6),)


def test_parse_sms_crlf():
    a = parse_sms("2 2 7\r\n1 1 1\r\n0 0 0\r\n")
    assert a.entries == ((0, 0, 1),)


def test_emit_parse_roundtrip(f101):
    rng = Random(31)
    for _ in range(100):
        n = rng.randrange(1, 51)
        a = gen_sparse(f101, n, rng.uniform(0.01, 0.3), rng)
        assert parse_sms(emit_sms(a)) == a


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_sms("")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_sms("2 3 7\n0 0 0")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 7\n3 1 1\n0 0 0")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 7\n1 x 1\n0 0 0")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_sms("2 2 7\n1 1 1")  # missing terminator
    with pytest.raises(ParseError):
        parse_sms("2 2 6\n0 0 0")  # composite modulus
    with pytest.raises(ParseError):
        parse_sms("2 2 7\n0 0 0\n1 1 1")  # content after terminator


def test_matrix_digest_distinguishes(f101):
    a = identity_matrix(f101, 4)
    b = SparseMatrix(f101, 4, list(a.entries) + [(0, 1, 1)])
    assert matrix_digest(a) != matrix_digest(b)
    assert len(matrix_digest(a)) == 64


def test_matrix_digest_is_cached(f101):
    a = gen_sparse(f101, 6, 0.5, Random(4))
    digest = matrix_digest(a)
    assert digest == hashlib.sha256(emit_sms(a).encode()).hexdigest()
    assert a._cache["digest"] == digest
    assert matrix_digest(a) is digest
