"""Dense ground-truth oracles for the provers, the harness and the selftest.

Everything here is exact O(n^3) elimination over Z_p, capped at dimension
ORACLE_CAP.  The characteristic polynomial comes from the classical
recurrence on H, an upper Hessenberg form of A whose leading (n-1)-block is
similar to A's (Cohen 1993, ch. 2), so that block's charpoly comes with A's;
one elimination of I - A checks the pair at 1.  One dependency search gives
the rest: a kernel vector is the first linear dependency among the columns,
and the minimal polynomial is the lcm of Krylov annihilators (Wiedemann
1986), the all-ones vector's first, each found by multiplying with the
materialized rows.  These routes are deliberately independent of the
Berlekamp-Massey / black-box machinery they are used to check.

Results are cached on :class:`SparseMatrix` instances (immutable after
construction, so this is safe).
"""

from __future__ import annotations

from operator import mul

from .blackbox import LinearOp, SparseMatrix
from .errors import IntegrityError, OracleCapError
from .field import PrimeField
from .polynomial import Poly, poly_lcm

ORACLE_CAP = 64


def materialize(op: LinearOp) -> list:
    """Dense row-major copy of a black-box operator (meter-free)."""
    if op.n > ORACLE_CAP:
        raise OracleCapError(
            f"dense oracle capped at n <= {ORACLE_CAP}, got n = {op.n}")
    if hasattr(op, "to_dense"):
        return op.to_dense()
    n = op.n
    cols = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cols.append(op.apply(e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _cached(a, key, compute):
    if isinstance(a, SparseMatrix):
        if key not in a._cache:
            a._cache[key] = compute()
        return a._cache[key]
    return compute()


# -- elimination primitives -----------------------------------------------


def dense_det(rows: list, field: PrimeField) -> tuple:
    """(det M, det of M's leading (n-1)-block) from one Gaussian elimination.

    The block's elimination is the whole matrix's on its first n-1 columns
    as long as no pivot comes from the last row, so its determinant is the
    signed pivot product just before the last column.  It is 0 when some
    earlier column offers only the last row as pivot (or none), and 1 when
    n = 1.
    """
    p = field.p
    n = len(rows)
    m = [row[:] for row in rows]
    det = lead = 1
    for col in range(n):
        if col == n - 1 and lead:
            lead = det % p
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0, (lead if col == n - 1 else 0)
        if piv != col:
            if piv == n - 1:
                lead = 0
            m[piv], m[col] = m[col], m[piv]
            det = -det
        pval = m[col][col]
        det = det * pval % p
        inv = pow(pval, -1, p)
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                f = f * inv % p
                mr, mc = m[r], m[col]
                for c in range(col, n):
                    mr[c] = (mr[c] - f * mc[c]) % p
    return det % p, lead


def _first_dependency(field: PrimeField, vectors):
    """Monic combo polynomial of the first linear dependency in a stream.

    The k-th vector carries combo x^k.  None when the stream ends first.
    """
    p = field.p
    basis = []   # (pivot, normalized vector, combo coefficients)
    for k, vec in enumerate(vectors):
        v = list(vec)
        combo = [0] * k + [1]
        for piv, row, cmb in basis:
            f = v[piv]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
                for i, ci in enumerate(cmb):
                    combo[i] = (combo[i] - f * ci) % p
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return Poly(field, combo).monic()
        inv = pow(v[piv], -1, p)
        v = [a * inv % p for a in v]
        combo = [a * inv % p for a in combo]
        basis.append((piv, v, combo))
    return None


def dense_kernel(rows: list, field: PrimeField):
    """A nonzero kernel vector, or None when the matrix is nonsingular.

    The first linear dependency among the columns: entry 1 at the first
    column that depends on the ones before it, zeros after it.
    """
    dep = _first_dependency(field, zip(*rows))
    if dep is None:
        return None
    return list(dep.coeffs) + [0] * (len(rows) - len(dep.coeffs))


# -- spectral oracles --------------------------------------------------------


def oracle_det(a) -> int:
    return _cached(a, "det", lambda: dense_det(materialize(a), a.field)[0])


def _hessenberg(rows: list, p: int) -> list:
    """An upper Hessenberg matrix similar to M through diag(Q, 1), so with
    the charpolys of M and of M's leading (n-1)-block.

    Row i, from the last up, is cleared left of its subdiagonal by Gaussian
    similarity steps on coordinates 0..n-2 only: a pivot swap, then
    C_j -= f*C_k with R_k += f*R_j for k = i-1 and each column j < k.  An
    upper triangular M takes no step.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    for i in range(n - 1, 1, -1):
        k, mi = i - 1, m[i]
        piv = next((j for j in range(k, -1, -1) if mi[j]), None)
        if piv is None:
            continue
        if piv != k:
            m[piv], m[k] = m[k], m[piv]
            for row in m:
                row[piv], row[k] = row[k], row[piv]
        inv = pow(mi[k], -1, p)
        fs = [mi[j] * inv % p for j in range(k)]
        for row in m:
            c = row[k]
            if c:
                row[:k] = [(a - f * c) % p for a, f in zip(row, fs)]
        m[k] = [(a + sum(map(mul, fs, col))) % p
                for a, col in zip(m[k], zip(*m[:k]))]
    return m


def dense_charpoly(rows: list, field: PrimeField) -> tuple:
    """(det(x*I - M), det(x*I - M')) for M' the leading (n-1)-block of M.

    Both are read off M's Hessenberg form H, whose leading block is similar
    to M', by the recurrence for the charpolys f_k of H's leading k-blocks
    (Cohen 1993, alg. 2.2.9): f_0 = 1 and f_(k+1) = (x - h_kk) f_k -
    sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) f_i, in O(n^3).  One dense_det
    of I - M on the raw rows, a route independent of H, must give the
    pair's values at 1, or IntegrityError is raised.
    """
    p, n = field.p, len(rows)
    h = _hessenberg(rows, p)
    fs = [[1]]   # f_0, f_1, ..., low to high
    for k in range(n):
        f, t = [0] + fs[k], 1
        for i in range(k, -1, -1):   # t = h_(i+1,i) ... h_(k,k-1)
            g = h[i][k] * t % p
            for d, c in enumerate(fs[i]):
                f[d] -= g * c
            t = t * h[i][i - 1] % p if i else 0
            if not t:
                break
        fs.append([c % p for c in f])
    # An empty matrix has no leading block; its pair is (1, 1).
    chi, chi_minor = fs[n], fs[max(n - 1, 0)]
    shifted = [[(int(i == j) - v) % p for j, v in enumerate(row)]
               for i, row in enumerate(rows)]
    if dense_det(shifted, field) != (sum(chi) % p, sum(chi_minor) % p):
        raise IntegrityError("charpoly pair disagrees with det(I - M)")
    return (Poly(field, tuple(chi), _canonical=True),
            Poly(field, tuple(chi_minor), _canonical=True))


def oracle_charpoly(a) -> Poly:
    """det(x*I - A), densely."""
    return _cached(a, "charpoly",
                   lambda: dense_charpoly(materialize(a), a.field)[0])


def _krylov_minpoly(rows: list, field: PrimeField, v: list) -> Poly:
    """Minimal annihilator of v, A v, A^2 v, ... with A given by its rows."""
    p = field.p

    def krylov():
        cur = list(v)
        while True:
            yield cur
            cur = [sum(map(mul, row, cur)) % p for row in rows]

    return _first_dependency(field, krylov())


def oracle_minpoly(a) -> Poly:
    """The lcm of the Krylov annihilators of the all-ones vector and then
    of the unit vectors, stopped at degree n: one search when the all-ones
    vector is cyclic, as it is for most nonderogatory matrices."""
    def compute():
        rows = materialize(a)
        n = a.n
        f = _krylov_minpoly(rows, a.field, [1] * n)
        for j in range(n):
            if f.degree >= n:
                break
            e = [0] * n
            e[j] = 1
            f = poly_lcm(f, _krylov_minpoly(rows, a.field, e))
        return f
    return _cached(a, "minpoly", compute)


def oracle_kernel(a):
    return _cached(a, "kernel", lambda: dense_kernel(materialize(a), a.field))

