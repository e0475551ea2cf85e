import hashlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from certilin import (Accept, CostMeter, DiagonalMatrix, GammaMatrix,
                      HonestProver, ParseError, PrimeField, ProductOp, ShiftOp,
                      SparseMatrix, UsageError, emit_sms, fiat_shamir,
                      gamma_det, matrix_digest, matvec, minimal_generator_pair,
                      oracle_kernel, parse_sms, parse_transcript,
                      verify_noninteractive)
from certilin import blackbox
from certilin.blackbox import _BLOCK_TERMS, _CODE, _COMPILE_AFTER
from certilin.harness import gen_nonsingular, gen_singular, gen_sparse
from certilin.oracle import materialize
from certilin.protocol import PROTOCOL_IDS, protocol_spec

from conftest import PRIME_BIG
from helpers import identity_matrix

# The largest prime below 2**62, the field module's modulus bound.
PRIME_62_BIT = 2 ** 62 - 57


def dense_apply(rows, x, p):
    return [sum(r * xi for r, xi in zip(row, x)) % p for row in rows]


def test_identity_matvec(f7):
    a = identity_matrix(f7, 3)
    assert matvec(a, [1, 2, 3]) == [1, 2, 3]


def test_gamma_matvec_example(f7):
    g = GammaMatrix(f7, 2, t=2, s=3)
    assert matvec(g, [1, 1]) == [(2 - 1) % 7, (3 + 2) % 7] == [1, 5]
    # Dense 2x2 oracle.
    assert materialize(g) == [[2, 6], [3, 2]]
    assert dense_apply(materialize(g), [1, 1], 7) == [1, 5]


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
            assert gamma_det(g) == dense_det(materialize(g), f101)[0]


def test_gamma_det_op_count(f101):
    # The meter charges what square-and-multiply spends, within the budget.
    import math
    for n in [*range(1, 300), 800, 1023, 1024, 1600]:
        m = CostMeter()
        value = gamma_det(GammaMatrix(f101, n, t=3, s=4), m)
        acc, base, e, muls = 1, 3, n, 0
        while e:
            if e & 1:
                acc, muls = acc * base % 101, muls + 1
            e >>= 1
            if e:
                base, muls = base * base % 101, muls + 1
        assert (value, m.mul, m.add) == ((acc + 4) % 101, muls, 1)
        assert m.field_ops <= max(2 * math.ceil(math.log2(n)) + 1, 2)


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
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 7\n1 1 1")  # missing terminator
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 6\n0 0 0")  # composite modulus
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 7\n0 0 0\n1 1 1")  # content after terminator
    assert e.value.line == 3
    # Blank lines after the terminator: the error names the content's line.
    with pytest.raises(ParseError) as e:
        parse_sms("2 2 7\n1 1 3\n0 0 0\n\n\n5 5 5\n")
    assert e.value.line == 6


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty file"),
    ("\n  \n", 1, "empty file"),
    ("2 2\n0 0 0", 1, "header must be 'n n p'"),
    ("2 2 7 7\n0 0 0", 1, "header must be 'n n p'"),
    ("\n2 x 7\n0 0 0", 2, "non-integer token in header"),
    ("2 3 7\n0 0 0", 1, "matrix must be square, got 2 x 3"),
    ("0 0 7\n0 0 0", 1, "dimension must be positive"),
    ("-2 -2 7\n0 0 0", 1, "dimension must be positive"),
    ("2 2 6\n0 0 0", 1, "bad modulus: modulus 6 is not prime"),
    ("2 2 7\n1 1\n0 0 0", 2, "entry must be 'i j v'"),
    ("2 2 7\n\n1 1 1 1\n0 0 0", 3, "entry must be 'i j v'"),
    ("2 2 7\n1 x 1\n0 0 0", 2, "non-integer token in entry"),
    ("2 2 7\n3 1 1\n0 0 0", 2, "coordinates (3,1) out of range for n=2"),
    ("2 2 7\n1 0 1\n0 0 0", 2, "coordinates (1,0) out of range for n=2"),
    ("2 2 7", 1, "missing '0 0 0' terminator"),
    ("2 2 7\n1 1 1", 2, "missing '0 0 0' terminator"),
    ("2 2 7\n1 1 1\n\n\n", 4, "missing '0 0 0' terminator"),
    ("2 2 7\n0 0 0\n1 1 1", 3, "content after terminator"),
    ("2 2 7\r\n0 0 0\r\n\r\n0 0 0\r\n", 4, "content after terminator"),
])
def test_parse_sms_error_messages_pinned(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_sms(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


@pytest.mark.parametrize("token", ["\u0661", "\uff11", "1_0", "\u0662\u0663"])
def test_parse_sms_takes_only_ascii_integers(token):
    # int() alone would read each of these tokens as a number.
    with pytest.raises(ParseError) as e:
        parse_sms(f"2 {token} 7\n0 0 0\n")
    assert str(e.value) == "line 1: non-integer token in header"
    with pytest.raises(ParseError) as e:
        parse_sms(f"2 2 7\n1 1 1\n\n2 2 {token}\n0 0 0\n")
    assert str(e.value) == "line 4: non-integer token in entry"
    with pytest.raises(ParseError) as e:
        parse_sms(f"2 2 7\n{token} 1 1\n0 0 0\n")
    assert str(e.value) == "line 2: non-integer token in entry"


def test_parse_sms_breaks_lines_at_lf_only():
    # str.splitlines() would also break at \x0c, \x85 and the other Unicode
    # line boundaries; here they are token whitespace inside one line.
    for text in ("2 2 7\x0c1 x 1\n0 0 0", "2 2 7\x851 1 1\x850 0 0",
                 "2 2 7\r1 1 1\r0 0 0\r"):
        with pytest.raises(ParseError) as e:
            parse_sms(text)
        assert str(e.value) == "line 1: header must be 'n n p'"
    # A \r before the \n is token whitespace, so a CRLF file reads as LF.
    crlf = "2 2 7\r\n1 2 3\r\n\r\n2 1 4\r\n0 0 0\r\n"
    assert parse_sms(crlf) == parse_sms(crlf.replace("\r\n", "\n"))
    assert parse_sms(crlf).entries == ((0, 1, 3), (1, 0, 4))
    # A trailing newline adds no line.
    for text in ("2 2 7\n1 1 1\n", "2 2 7\r\n1 1 1\r\n"):
        with pytest.raises(ParseError) as e:
            parse_sms(text)
        assert str(e.value) == "line 2: missing '0 0 0' terminator"


def test_parse_sms_signed_tokens():
    a = parse_sms("+2 2 +7\n1 +2 -3\n+2 1 +3\n-0 +0 -0\n")
    assert a.n == 2 and a.field.p == 7
    assert a.entries == ((0, 1, 4), (1, 0, 3))


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


# -- compiled matvec ----------------------------------------------------------


def compiled(a: SparseMatrix) -> SparseMatrix:
    """A copy of ``a`` applied past the compile threshold."""
    b = SparseMatrix(a.field, a.n, a.entries)
    for _ in range(_COMPILE_AFTER):
        assert _CODE not in b._cache
        b.apply([0] * b.n)
    assert _CODE in b._cache
    return b


def assert_same_matvec(a: SparseMatrix, x: list):
    """The compiled code and the per-entry loop agree, meter included."""
    cold = SparseMatrix(a.field, a.n, a.entries)
    hot = compiled(a)
    m_cold, m_hot = CostMeter(), CostMeter()
    y = matvec(cold, x, m_cold)
    assert _CODE not in cold._cache
    assert matvec(hot, x, m_hot) == y
    assert vars(m_hot) == vars(m_cold)
    assert y == dense_apply(a.to_dense(), x, a.field.p)


@st.composite
def matrices_and_vectors(draw):
    p = draw(st.sampled_from((7, 101, PRIME_62_BIT)))
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=n))    # others stay empty
    index = st.integers(0, n - 1)
    entries = draw(st.lists(
        st.tuples(st.sampled_from(rows) if rows else index, index, st.integers(0, p - 1)),
        max_size=4 * n))
    xs = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                       min_size=1, max_size=3))
    return SparseMatrix(PrimeField(p), n, entries), xs


@given(matrices_and_vectors())
@settings(max_examples=300, deadline=None)
def test_compiled_matvec_equals_cold_loop(case):
    a, xs = case
    for x in xs:
        assert_same_matvec(a, x)


def test_compiled_matvec_edge_cases(fbig):
    rng = Random(12)
    p = fbig.p
    no_entries = SparseMatrix(fbig, 5, [])
    one_row = SparseMatrix(fbig, 3, [(1, 0, 4), (1, 2, 9)])
    # Row lengths around the block size, one long row and empty rows between.
    n = 3000
    lengths = {0: _BLOCK_TERMS - 1, 1: _BLOCK_TERMS, 2: _BLOCK_TERMS + 1,
               5: 2 * _BLOCK_TERMS, 6: 1, 9: 3000, 10: _BLOCK_TERMS // 2}
    mixed = SparseMatrix(fbig, n, [(i, j, rng.randrange(1, p))
                                   for i, k in lengths.items()
                                   for j in rng.sample(range(n), k)])
    assert mixed.nnz == sum(lengths.values())
    for a in (no_entries, one_row, mixed):
        assert_same_matvec(a, [rng.randrange(p) for _ in range(a.n)])


def test_compiled_blocks_are_bounded_and_full(fbig):
    """Each compiled function covers at most _BLOCK_TERMS terms, and a block
    closes only when the next row would not fit."""
    b = _BLOCK_TERMS

    def block_rows(a):
        return [len(f([0] * a.n)) for f in compiled(a)._cache[_CODE]]

    diagonal = identity_matrix(fbig, 2 * b + 1)
    assert block_rows(diagonal) == [b, b, 1]
    assert block_rows(SparseMatrix(fbig, b + 1, [])) == [b, 1]   # empty rows count one
    # Five rows of b/2 terms, then b/2 - 5 empty rows.
    half = SparseMatrix(fbig, b // 2, [(i, j, 1) for i in range(5) for j in range(b // 2)])
    assert block_rows(half) == [2, 2, b // 2 - 4]
    # A long row is summed from parts of _BLOCK_TERMS terms; with every
    # value 1, a part's unreduced sum at x = (1, ..., 1) is its term count.
    long_row = SparseMatrix(fbig, 3000, [(1, j, 1) for j in range(3000)]
                            + [(0, 0, 1), (2, 0, 1)])
    code = compiled(long_row)._cache[_CODE]
    assert [len(f([0] * 3000)) for f in code[:2]] == [1, 1]   # row 0, then row 1
    parts = code[1].__defaults__[0]
    assert [f([1] * 3000) for f in parts] == [b] * (3000 // b) + [3000 % b]
    full_row = SparseMatrix(fbig, b, [(0, j, 1) for j in range(b)])
    assert compiled(full_row)._cache[_CODE][0].__defaults__ is None   # a plain block
    just_long = SparseMatrix(fbig, b + 1, [(0, j, 1) for j in range(b + 1)])
    parts = compiled(just_long)._cache[_CODE][0].__defaults__[0]
    assert [f([1] * (b + 1)) for f in parts] == [b, 1]


def test_krylov_pass_across_the_compile_threshold(fbig, monkeypatch):
    """A Krylov pass that compiles its matrix part-way gives the same
    sequence, giant steps and meter as one on the cold loop throughout."""
    n = 40
    a = gen_sparse(fbig, n, 0.2, Random(8))
    rng = Random(9)
    u = [rng.randrange(fbig.p) for _ in range(n)]
    v = [rng.randrange(fbig.p) for _ in range(n)]
    warm = SparseMatrix(fbig, n, a.entries)
    for _ in range(_COMPILE_AFTER - 10):
        warm.apply(v)
    m_warm = CostMeter()
    crossing = minimal_generator_pair(warm, u, v, m_warm)
    assert _CODE in warm._cache
    monkeypatch.setattr(blackbox, "_COMPILE_AFTER", 10 ** 9)
    cold = SparseMatrix(fbig, n, a.entries)
    m_cold = CostMeter()
    reference = minimal_generator_pair(cold, u, v, m_cold)
    assert _CODE not in cold._cache
    assert crossing == reference
    assert len(crossing.giants) > 2          # giant steps on both sides of the crossing
    assert crossing.giants == reference.giants
    assert vars(m_warm) == vars(m_cold)


def test_verifier_leaves_parsed_matrix_uncompiled(fbig):
    """``certilin verify`` parses the matrix and applies it once or twice:
    it must not pay for compiling."""
    a = gen_nonsingular(fbig, 12, Random(5))
    rng = Random(6)
    for pid in PROTOCOL_IDS:
        kw = {}
        if protocol_spec(pid).projections:
            kw = {"u": [rng.randrange(fbig.p) for _ in range(a.n)],
                  "v": [rng.randrange(fbig.p) for _ in range(a.n)]}
        transcript, outcome = fiat_shamir(pid, a, HonestProver(fbig, Random(1)), **kw)
        parsed = parse_sms(emit_sms(a))
        replayed, _ = verify_noninteractive(parse_transcript(transcript.render()), parsed)
        assert isinstance(replayed, Accept) and replayed == outcome, pid
        assert _CODE not in parsed._cache, pid
    assert _CODE in a._cache        # the prover's matrix was compiled


def test_compiled_code_shares_cache_with_oracle(fbig):
    a = gen_singular(fbig, 9, Random(3))
    x = [Random(4).randrange(fbig.p) for _ in range(a.n)]
    expected = a.apply(x)
    kernel = oracle_kernel(a)
    assert any(kernel) and a.apply(kernel) == [0] * a.n
    for _ in range(_COMPILE_AFTER):
        a.apply(x)
    assert _CODE in a._cache and "kernel" in a._cache
    assert oracle_kernel(a) == kernel
    assert a.apply(kernel) == [0] * a.n
    assert a.apply(x) == expected


class CodeText(int):
    """An int whose text is not its value."""

    def __format__(self, spec):
        return "0"

    __str__ = __repr__ = lambda self: "0"


def test_entries_are_exact_ints(fbig):
    field = PrimeField(CodeText(PRIME_BIG))
    a = SparseMatrix(field, 3, [(CodeText(i), CodeText(j), CodeText(i + 2 * j + 1))
                                for i in range(3) for j in range(3)])
    assert all(type(c) is int for entry in a.entries for c in entry)
    x = [5, 6, 7]
    assert compiled(a).apply(x) == dense_apply(a.to_dense(), x, PRIME_BIG) != [0, 0, 0]
    assert SparseMatrix(fbig, 2, [(True, 0, 3)]).entries == ((1, 0, 3),)


def test_non_integer_entries_rejected(f7):
    for bad in ((0, 0, 1.5), (0.5, 0, 1), (0, 1.0, 1), (0, 0, "3"), ("0", 0, 1),
                (0, 0, None), (0, 0), (0, 0, 1, 1)):
        with pytest.raises(UsageError):
            SparseMatrix(f7, 2, [bad])


def test_empty_diagonal_rejected(f7):
    with pytest.raises(UsageError, match="dimension"):
        DiagonalMatrix(f7, [])


def test_apply_transpose_matches_materialized_transpose():
    # (x^T A)_j = x . (A e_j), for every operator and for x with entries
    # that are negative and >= p; Gamma at n = 1 is the 1x1 matrix t + s.
    p = PRIME_62_BIT
    f = PrimeField(p)
    rng = Random(17)
    for n in (1, 2, 3, 10):
        a = gen_sparse(f, n, 0.5, rng)
        gamma = GammaMatrix(f, n, rng.randrange(p), rng.randrange(p))
        diag = DiagonalMatrix(f, [rng.randrange(1, p) for _ in range(n)])
        for op in (a, diag, gamma, ProductOp(a, gamma), ProductOp(diag, a),
                   ShiftOp(rng.randrange(p), ProductOp(a, gamma))):
            cols = [op.apply([int(i == j) for i in range(n)]) for j in range(n)]
            x = [rng.randrange(p) + p * rng.choice([-1, 0, 2]) for _ in range(n)]
            want = [sum(c * xi for c, xi in zip(col, x)) % p for col in cols]
            assert op.apply_transpose(x) == want


def test_transposed_product_compiles_on_the_same_rule(fbig):
    # x^T A is the apply of the transposed matrix, kept in the matrix's
    # cache: cold for its first _COMPILE_AFTER calls, compiled after, equal
    # to the per-entry sum throughout.
    a = gen_sparse(fbig, 30, 0.2, Random(11))
    rng = Random(12)
    cols = a.to_dense()
    for k in range(_COMPILE_AFTER + 2):
        x = [rng.randrange(fbig.p) - fbig.p * (k % 3) for _ in range(a.n)]
        want = [sum(row[j] * xi for row, xi in zip(cols, x)) % fbig.p
                for j in range(a.n)]
        assert a.apply_transpose(x) == want
        t = a._cache[blackbox._TRANSPOSE]
        assert (_CODE in t._cache) == (k + 1 >= _COMPILE_AFTER)
    assert t.entries == tuple(sorted((j, i, v) for i, j, v in a.entries))
    assert _CODE not in a._cache


def test_warm_transpose_waits_for_the_compiled_matrix(fbig, monkeypatch):
    # _warm_transpose builds and compiles nothing for a fresh matrix; once
    # the matrix is compiled it compiles the cached transpose, reached
    # through products and shifts too, and a second call compiles nothing.
    calls, real = [], blackbox._compile
    monkeypatch.setattr(blackbox, "_compile", lambda m: calls.append(m) or real(m))
    n, p = 64, fbig.p
    rng = Random(13)
    entries = gen_sparse(fbig, n, 4 / n, rng).entries
    gamma = GammaMatrix(fbig, n, rng.randrange(p), rng.randrange(p))
    r = rng.randrange(p)
    for wrap in (lambda a: a, lambda a: ProductOp(a, gamma),
                 lambda a: ShiftOp(r, ProductOp(a, gamma))):
        a = SparseMatrix(fbig, n, entries)
        op = wrap(a)
        op._warm_transpose()
        assert not calls and blackbox._TRANSPOSE not in a._cache
        for _ in range(_COMPILE_AFTER):
            a.apply([0] * n)
        assert calls == [a]
        op._warm_transpose()
        t = a._cache[blackbox._TRANSPOSE]
        assert calls == [a, t] and _CODE in t._cache
        op._warm_transpose()
        assert calls == [a, t]
        x = [rng.randrange(p) + p * rng.choice([-1, 0, 2]) for _ in range(n)]
        want = [0] * n
        for i, j, v in entries:
            want[j] += x[i] * v
        assert t.apply(x) == a.apply_transpose(x) == [c % p for c in want]
        calls.clear()
