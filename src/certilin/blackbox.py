"""Black-box n x n linear operators over Z_p.

Everything here exposes only a matrix-times-vector product.  Concrete
shapes are sparse COO matrices, diagonal matrices and the corner/diagonal
preconditioner :class:`GammaMatrix`; lazy compositions (products and shifts
r*I - A) apply their constituents in sequence and never materialize.

Meter accounting per application: a sparse matvec charges exactly nnz
multiplications and nnz additions, a diagonal charges n multiplications,
a Gamma charges n+1 multiplications and n additions, a shift charges the
inner cost plus n multiplications and n subtractions.  The ``matvec``
counter increases by one for the outermost call only.

The file format is SMS-style: a header line "n n p", entry lines "i j v"
with 1-based coordinates and arbitrary integer values (reduced mod p),
terminated by "0 0 0".  Duplicate coordinates sum; zero values are dropped.
"""

from __future__ import annotations

import hashlib

from .errors import ParseError, UsageError
from .field import PrimeField
from .meter import CostMeter


class LinearOp:
    """Base class: an n x n operator exposing apply(x)."""

    field: PrimeField
    n: int

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        raise NotImplementedError

    def matvec_cost(self) -> int:
        """Field operations charged by one application (the mu of this box)."""
        raise NotImplementedError


def matvec(op: LinearOp, x: list, meter: CostMeter | None = None) -> list:
    """Apply ``op`` to ``x``; bumps the matvec counter once."""
    if len(x) != op.n:
        raise UsageError(f"matvec dimension mismatch: {len(x)} vs {op.n}")
    if meter is not None:
        meter.matvec += 1
    return op.apply(x, meter)


class SparseMatrix(LinearOp):
    """COO sparse matrix; entries normalized (summed, zero-free, sorted)."""

    __slots__ = ("field", "n", "entries", "_cache")

    def __init__(self, field: PrimeField, n: int, entries):
        if n < 1:
            raise UsageError("dimension must be positive")
        p = field.p
        acc: dict = {}
        for i, j, v in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise UsageError(f"entry ({i},{j}) out of range for n={n}")
            acc[(i, j)] = (acc.get((i, j), 0) + v) % p
        self.field = field
        self.n = n
        self.entries = tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))
        self._cache: dict = {}

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        p = self.field.p
        y = [0] * self.n
        for i, j, v in self.entries:
            y[i] += v * x[j]
        if meter is not None:
            meter.mul += self.nnz
            meter.add += self.nnz
        return [c % p for c in y]

    def matvec_cost(self) -> int:
        return 2 * self.nnz

    def to_dense(self) -> list:
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j, v in self.entries:
            rows[i][j] = v
        return rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMatrix) and other.field == self.field
                and other.n == self.n and other.entries == self.entries)

    def __hash__(self) -> int:
        return hash((self.field.p, self.n, self.entries))


def identity_matrix(field: PrimeField, n: int) -> SparseMatrix:
    return SparseMatrix(field, n, [(i, i, 1) for i in range(n)])


class DiagonalMatrix(LinearOp):
    __slots__ = ("field", "n", "diag")

    def __init__(self, field: PrimeField, diag):
        self.field = field
        self.diag = tuple(field.check(d) for d in diag)
        self.n = len(self.diag)

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        p = self.field.p
        if meter is not None:
            meter.mul += self.n
        return [d * xi % p for d, xi in zip(self.diag, x)]

    def matvec_cost(self) -> int:
        return self.n

    def to_dense(self) -> list:
        return [[self.diag[i] if i == j else 0 for j in range(self.n)]
                for i in range(self.n)]


class GammaMatrix(LinearOp):
    """Diagonal t, superdiagonal -1, corner s at position (n, 1).

    Nonsingular iff t**n + s != 0; its determinant is computed by
    square-and-multiply in at most 2*ceil(log2 n) + 1 field operations.
    """

    __slots__ = ("field", "n", "t", "s")

    def __init__(self, field: PrimeField, n: int, t: int, s: int):
        if n < 1:
            raise UsageError("dimension must be positive")
        self.field = field
        self.n = n
        self.t = field.check(t)
        self.s = field.check(s)

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        p = self.field.p
        t, s, n = self.t, self.s, self.n
        y = [(t * a - b) % p for a, b in zip(x, x[1:])]
        y.append((s * x[0] + t * x[-1]) % p)
        if meter is not None:
            meter.mul += n + 1
            meter.add += n
        return y

    def matvec_cost(self) -> int:
        return 2 * self.n + 1

    def to_dense(self) -> list:
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][i] = self.t
            if i + 1 < self.n:
                rows[i][i + 1] = (-1) % self.field.p
        rows[self.n - 1][0] = (rows[self.n - 1][0] + self.s) % self.field.p
        return rows


def gamma_det(g: GammaMatrix, meter: CostMeter | None = None) -> int:
    """t**n + s by binary powering; cost <= 2*ceil(log2 n) + 1 field ops."""
    p = g.field.p
    acc = 1
    base = g.t
    e = g.n
    muls = 0
    while e:
        if e & 1:
            acc = acc * base % p
            muls += 1
        e >>= 1
        if e:
            base = base * base % p
            muls += 1
    if meter is not None:
        meter.mul += muls
        meter.add += 1
    return (acc + g.s) % p


class ProductOp(LinearOp):
    """Lazy product left*right: applies right, then left."""

    __slots__ = ("field", "n", "left", "right")

    def __init__(self, left: LinearOp, right: LinearOp):
        if left.n != right.n or left.field != right.field:
            raise UsageError("product factors must agree in dimension and field")
        self.field = left.field
        self.n = left.n
        self.left = left
        self.right = right

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        return self.left.apply(self.right.apply(x, meter), meter)

    def matvec_cost(self) -> int:
        return self.left.matvec_cost() + self.right.matvec_cost()


class ShiftOp(LinearOp):
    """r*I - inner, applied lazily."""

    __slots__ = ("field", "n", "r", "inner")

    def __init__(self, r: int, inner: LinearOp):
        self.field = inner.field
        self.n = inner.n
        self.r = self.field.check(r)
        self.inner = inner

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        p = self.field.p
        y = self.inner.apply(x, meter)
        if meter is not None:
            meter.mul += self.n
            meter.add += self.n
        r = self.r
        return [(r * xi - yi) % p for xi, yi in zip(x, y)]

    def matvec_cost(self) -> int:
        return self.inner.matvec_cost() + 2 * self.n


# -- SMS-style file format ---------------------------------------------------


def parse_sms(text: str) -> SparseMatrix:
    """Parse the SMS-style text format; raises ParseError with line numbers."""
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines):
            raw = lines[idx]
            idx += 1
            if raw.strip():
                return idx, raw.split()
        return idx, None

    lineno, toks = next_line()
    if toks is None:
        raise ParseError(1, "empty file")
    if len(toks) != 3:
        raise ParseError(lineno, "header must be 'n n p'")
    try:
        n1, n2, p = (int(t) for t in toks)
    except ValueError:
        raise ParseError(lineno, "non-integer token in header") from None
    if n1 != n2:
        raise ParseError(lineno, f"matrix must be square, got {n1} x {n2}")
    if n1 < 1:
        raise ParseError(lineno, "dimension must be positive")
    try:
        field = PrimeField(p)
    except Exception as exc:
        raise ParseError(lineno, f"bad modulus: {exc}") from None

    entries = []
    terminated = False
    while True:
        lineno, toks = next_line()
        if toks is None:
            break
        if len(toks) != 3:
            raise ParseError(lineno, "entry must be 'i j v'")
        try:
            i, j, v = (int(t) for t in toks)
        except ValueError:
            raise ParseError(lineno, "non-integer token in entry") from None
        if i == 0 and j == 0 and v == 0:
            terminated = True
            break
        if not (1 <= i <= n1 and 1 <= j <= n1):
            raise ParseError(lineno, f"coordinates ({i},{j}) out of range for n={n1}")
        entries.append((i - 1, j - 1, v))
    if not terminated:
        raise ParseError(lineno, "missing '0 0 0' terminator")
    _, toks = next_line()
    if toks is not None:
        raise ParseError(lineno + 1, "content after terminator")
    return SparseMatrix(field, n1, entries)


def emit_sms(a: SparseMatrix) -> str:
    """Canonical SMS text: sorted 1-based entries, LF line endings."""
    out = [f"{a.n} {a.n} {a.field.p}"]
    for i, j, v in a.entries:
        out.append(f"{i + 1} {j + 1} {v}")
    out.append("0 0 0")
    return "\n".join(out) + "\n"


def matrix_digest(a: SparseMatrix) -> str:
    """Cached hex digest of the canonical SMS form, used in transcript headers."""
    if "digest" not in a._cache:
        a._cache["digest"] = hashlib.sha256(emit_sms(a).encode()).hexdigest()
    return a._cache["digest"]
