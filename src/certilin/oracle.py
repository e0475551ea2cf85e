"""Dense ground-truth oracles for the provers, the harness and the selftest.

Everything here is exact O(n^3) elimination over Z_p, capped at dimension
ORACLE_CAP.  The characteristic polynomial is det(x*I - H) at n+1 points,
interpolated, for H an upper Hessenberg form of A whose leading
(n-1)-block is similar to A's (Cohen 1993, ch. 2), so each elimination
costs O(n^2); the same eliminations give that block's determinants, so its
charpoly comes with A's through the same Lagrange basis.  One dependency
search gives the rest: a kernel vector is the first linear dependency among
the columns, and the minimal polynomial is the lcm of Krylov annihilators
(Wiedemann 1986), the all-ones vector's first, each found by multiplying
with the materialized rows.  These routes are deliberately independent of
the Berlekamp-Massey / black-box machinery they are used to check.

Results are cached on :class:`SparseMatrix` instances (immutable after
construction, so this is safe).
"""

from __future__ import annotations

from operator import mul

from .blackbox import LinearOp, SparseMatrix
from .errors import IntegrityError, OracleCapError, UsageError
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


def _interpolate(field: PrimeField, xs: list, *value_lists) -> list:
    """Lagrange interpolation through distinct points, one Poly per value list.

    The basis polynomials prod_{j != i} (X - x_j) and their inverse values
    at x_i are built once and shared by every value list.
    """
    p = field.p
    full = [1]   # prod (X - x_i), low to high
    for x in xs:
        full = [(b - x * a) % p for a, b in zip(full + [0], [0] + full)]
    basis, invs = [], []
    for xi in xs:
        # full / (X - xi) by synthetic division, high to low.
        row, carry = [], 0
        for c in reversed(full[1:]):
            carry = (c + xi * carry) % p
            row.append(carry)
        denom = 0
        for c in row:
            denom = (denom * xi + c) % p
        basis.append(row)
        invs.append(pow(denom, -1, p))
    cols = list(zip(*basis))[::-1]   # coefficient k's column, low to high
    polys = []
    for ys in value_lists:
        ks = [y * inv % p for y, inv in zip(ys, invs)]
        polys.append(Poly(field, [sum(map(mul, col, ks)) % p for col in cols]))
    return polys


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
    to M'.  The leading block of x*I - H is x*I - H', so one dense_det at
    each of the n+1 points 0..n samples both, in O(n^2) since x*I - H is
    upper Hessenberg; the two value lists are interpolated through one
    shared Lagrange basis.  Each interpolant must be monic of its degree
    (n and n-1), or IntegrityError is raised.
    """
    n = len(rows)
    p = field.p
    if p <= n:
        raise UsageError("charpoly oracle needs p > n for distinct sample points")
    neg = [[(-v) % p for v in row] for row in _hessenberg(rows, p)]
    xs, full, lead = list(range(n + 1)), [], []
    for x in xs:
        shifted = [row[:] for row in neg]
        for i in range(n):
            shifted[i][i] = (x + neg[i][i]) % p
        d, d_lead = dense_det(shifted, field)
        full.append(d)
        lead.append(d_lead)
    chi, chi_minor = _interpolate(field, xs, full, lead)
    if not (chi.is_monic() and chi.degree == n):
        raise IntegrityError(f"interpolated charpoly is not monic of degree {n}")
    # An empty matrix has no leading block; its pair is (1, 1).
    if not (chi_minor.is_monic() and chi_minor.degree == max(n - 1, 0)):
        raise IntegrityError(
            f"interpolated minor charpoly is not monic of degree {n - 1}")
    return chi, chi_minor


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

