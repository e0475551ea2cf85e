"""Dense ground-truth oracles for the provers, the harness and the selftest.

Everything here is exact O(n^3)-ish elimination over Z_p, capped at a
configurable dimension (default 64, overridable through the
CERTILIN_ORACLE_CAP environment variable).  The characteristic polynomial
is det(x*I - A) at n+1 points, interpolated.  One dependency search gives
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


def _check_cap(n: int):
    cap = oracle_cap()
    if n > cap:
        raise OracleCapError(f"dense oracle capped at n <= {cap}, got n = {n}")


def materialize(op: LinearOp) -> list:
    """Dense row-major copy of a black-box operator (meter-free)."""
    _check_cap(op.n)
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


def dense_det(rows: list, field: PrimeField) -> int:
    """Determinant by fraction-free-enough Gaussian elimination."""
    p = field.p
    n = len(rows)
    m = [row[:] for row in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
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
    return det % p


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


def _interpolate(field: PrimeField, xs: list, ys: list) -> Poly:
    """Lagrange interpolation through distinct points."""
    p = field.p
    full = [1]   # prod (X - x_i), low to high
    for x in xs:
        full = [(b - x * a) % p for a, b in zip(full + [0], [0] + full)]
    acc = [0] * len(xs)   # high to low
    for xi, yi in zip(xs, ys):
        # basis = full / (X - xi) by synthetic division, high to low.
        basis, carry = [], 0
        for c in reversed(full[1:]):
            carry = (c + xi * carry) % p
            basis.append(carry)
        denom = 0
        for c in basis:
            denom = (denom * xi + c) % p
        k = yi * pow(denom, -1, p) % p
        acc = [(a + k * c) % p for a, c in zip(acc, basis)]
    return Poly(field, acc[::-1])


def oracle_det(a) -> int:
    return _cached(a, "det", lambda: dense_det(materialize(a), a.field))


def dense_charpoly(rows: list, field: PrimeField) -> Poly:
    """det(x*I - M) via evaluation at n+1 points and interpolation."""
    n = len(rows)
    p = field.p
    if p <= n:
        raise UsageError("charpoly oracle needs p > n for distinct sample points")
    neg = [[(-v) % p for v in row] for row in rows]
    xs, ys = [], []
    for x in range(n + 1):
        shifted = [row[:] for row in neg]
        for i in range(n):
            shifted[i][i] = (x + neg[i][i]) % p
        xs.append(x)
        ys.append(dense_det(shifted, field))
    poly = _interpolate(field, xs, ys)
    if not (poly.is_monic() and poly.degree == n):
        raise IntegrityError(f"interpolated charpoly is not monic of degree {n}")
    return poly


def oracle_charpoly(a) -> Poly:
    """det(x*I - A), densely."""
    return _cached(a, "charpoly", lambda: dense_charpoly(materialize(a), a.field))


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

