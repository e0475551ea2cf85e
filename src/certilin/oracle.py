"""Dense ground-truth oracles for the provers, the harness and the selftest.

Everything here is exact O(n^3)-ish elimination over Z_p, capped at a
configurable dimension (default 64, overridable through the
CERTILIN_ORACLE_CAP environment variable).  The characteristic polynomial
is det(x*I - A) at n+1 points, interpolated; the same eliminations give the
leading (n-1)-block's determinants, so the charpoly of that block comes
with it through the same Lagrange basis.  One dependency search gives
the rest: a kernel vector is the first linear dependency among the
columns, and the minimal polynomial is the lcm of the unit vectors' Krylov
annihilators (Wiedemann 1986), each found by multiplying with the
materialized rows.  These routes are deliberately independent of the
Berlekamp-Massey / black-box machinery they are used to check.

Results are cached on :class:`SparseMatrix` instances (immutable after
construction, so this is safe).
"""

from __future__ import annotations

import os
from operator import mul

from .blackbox import LinearOp, SparseMatrix
from .errors import IntegrityError, OracleCapError, UsageError
from .field import PrimeField
from .polynomial import Poly, poly_lcm

DEFAULT_ORACLE_CAP = 64


def oracle_cap() -> int:
    raw = os.environ.get("CERTILIN_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CERTILIN_ORACLE_CAP must be an int, got {raw!r}") from None


def materialize(op: LinearOp) -> list:
    """Dense row-major copy of a black-box operator (meter-free)."""
    cap = oracle_cap()
    if op.n > cap:
        raise OracleCapError(f"dense oracle capped at n <= {cap}, got n = {op.n}")
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


def dense_charpoly(rows: list, field: PrimeField) -> tuple:
    """(det(x*I - M), det(x*I - M')) for M' the leading (n-1)-block of M.

    The leading block of x*I - M is x*I - M', so one dense_det at each of
    the n+1 points 0..n samples both; the two value lists are interpolated
    through one shared Lagrange basis.  Each interpolant must be monic of
    its degree (n and n-1), or IntegrityError is raised.
    """
    n = len(rows)
    p = field.p
    if p <= n:
        raise UsageError("charpoly oracle needs p > n for distinct sample points")
    neg = [[(-v) % p for v in row] for row in rows]
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
    """The lcm of the Krylov annihilators of the unit vectors."""
    def compute():
        rows = materialize(a)
        n = a.n
        f = Poly.one(a.field)
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

