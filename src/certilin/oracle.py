"""Dense ground-truth oracles for testing and desk-scale prover work.

Everything here is exact O(n^3)-ish Gaussian elimination over Z_p, capped
at a configurable dimension (default 64, overridable through the
CERTILIN_ORACLE_CAP environment variable).  The characteristic polynomial
is obtained by evaluating det(x*I - A) at n+1 points and interpolating;
the minimal polynomial by finding the first linear dependency among the
vectorized powers I, A, A^2, ...  These routes are deliberately independent
of the Berlekamp-Massey / black-box machinery they are used to check.

Results are cached on :class:`SparseMatrix` instances (immutable after
construction, so this is safe).
"""

from __future__ import annotations

import os

from .blackbox import LinearOp, SparseMatrix
from .errors import IntegrityError, OracleCapError, UsageError
from .field import PrimeField
from .polynomial import Poly

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


def _gauss_jordan(m: list, n: int, p: int) -> list:
    """Reduce the first n columns of the rows m in place.

    Returns the pivot columns; the i-th pivot is a 1 in row i, and every
    other entry of a pivot column is 0.
    """
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[piv], m[rank] = m[rank], m[piv]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * c) % p for a, c in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots


def dense_solve(rows: list, b: list, field: PrimeField):
    """One solution of A x = b, or None when the system is inconsistent."""
    p = field.p
    n = len(rows)
    m = [rows[i][:] + [b[i] % p] for i in range(n)]
    pivots = _gauss_jordan(m, n, p)
    if any(m[r][n] for r in range(len(pivots), n)):
        return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][n]
    return x


def dense_kernel(rows: list, field: PrimeField):
    """A nonzero kernel vector, or None when the matrix is nonsingular."""
    p = field.p
    n = len(rows)
    m = [row[:] for row in rows]
    pivots = _gauss_jordan(m, n, p)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    x = [0] * n
    x[free] = 1
    for r, col in enumerate(pivots):
        x[col] = (-m[r][free]) % p
    return x


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
    def compute():
        rows = materialize(a)
        return dense_det(rows, a.field)
    return _cached(a, "det", compute)


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


def _first_dependency(field: PrimeField, vectors) -> Poly:
    """Monic combo polynomial of the first linear dependency in a stream.

    ``vectors`` yields flattened iterates; the k-th carries combo x^k.
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
                need = max(len(combo), len(cmb))
                combo = combo + [0] * (need - len(combo))
                for i, ci in enumerate(cmb):
                    combo[i] = (combo[i] - f * ci) % p
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return Poly(field, combo).monic()
        inv = pow(v[piv], -1, p)
        v = [a * inv % p for a in v]
        combo = [a * inv % p for a in combo]
        basis.append((piv, v, combo))
    raise UsageError("no dependency found; stream exhausted early")


def oracle_minpoly(a) -> Poly:
    """First dependency among vectorized powers I, A, A^2, ..."""
    def compute():
        rows = materialize(a)
        field = a.field
        p = field.p
        n = a.n

        def powers():
            cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            while True:
                yield [cur[i][j] for i in range(n) for j in range(n)]
                cur = [[sum(cur[i][k] * rows[k][j] for k in range(n)) % p
                        for j in range(n)] for i in range(n)]

        return _first_dependency(field, powers())
    return _cached(a, "minpoly", compute)


def vector_minpoly(a, v: list) -> Poly:
    """Minimal annihilator of the Krylov stream v, A v, A^2 v, ..."""
    _check_cap(a.n)
    field = a.field

    def krylov():
        cur = list(v)
        while True:
            yield cur
            cur = a.apply(cur)

    return _first_dependency(field, krylov())


def oracle_kernel(a):
    def compute():
        rows = materialize(a)
        return dense_kernel(rows, a.field)
    return _cached(a, "kernel", compute)

