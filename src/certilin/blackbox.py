"""Black-box n x n linear operators over Z_p.

Everything here exposes a matrix-times-vector product, and an unmetered
vector-times-matrix product ``apply_transpose`` (x^T A) that only the
prover's Krylov pass uses; the verifier never calls it.  Concrete
shapes are sparse COO matrices, diagonal matrices and the corner/diagonal
preconditioner :class:`GammaMatrix`; lazy compositions (products and shifts
r*I - A) apply their constituents in sequence and never materialize.

Meter accounting per application: a sparse matvec charges exactly nnz
multiplications and nnz additions, a diagonal charges n multiplications,
a Gamma charges n+1 multiplications and n additions, a shift charges the
inner cost plus n multiplications and n subtractions.  The ``matvec``
counter increases by one for the outermost call only.

A sparse matrix that is applied often (a prover's Krylov pass: 2n - 1
applications) compiles itself: after _COMPILE_AFTER applications on the
per-entry loop, ``apply`` runs straight-line functions with the entries
written in as int literals, cached in the matrix's ``_cache``.  They run
in about 0.6x the loop's time; results and meter charges are identical.
A matrix applied only once or twice, as by a verifier, stays on the loop.
Its transposed product is the ``apply`` of the transposed matrix, kept in
the same cache.  It is built on the first transposed call and compiles by
the same rule, or, once the matrix itself is compiled, by
``_warm_transpose``: the Krylov pass calls that hook before it forks its
helper, so from a matrix's second split pass on the helper inherits a
compiled A^T instead of building and compiling its own copy.

The file format is SMS-style: a header line "n n p", entry lines "i j v"
with 1-based coordinates and arbitrary integer values (reduced mod p),
terminated by "0 0 0".  Duplicate coordinates sum; zero values are dropped.
"""

from __future__ import annotations

import hashlib
import operator

from .errors import ParseError, UsageError
from .field import PrimeField
from .meter import CostMeter


class LinearOp:
    """Base class: an n x n operator exposing apply(x) and apply_transpose(x)."""

    field: PrimeField
    n: int

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        """A x, in any representatives mod p."""
        raise NotImplementedError

    def apply_transpose(self, x: list) -> list:
        """x^T A, reduced mod p; unmetered.

        The prover's Krylov pass needs it from n >= 64 with a projection of
        two or more nonzero entries, and with every projection when it forks
        its helper, from ``krylov._SPLIT_MIN`` (``krylov.wiedemann_sequence``).
        """
        raise NotImplementedError

    def _warm_transpose(self) -> None:
        """Prepare ``apply_transpose`` for a helper forked right after.

        ``krylov.wiedemann_sequence`` calls it just before each fork.  This
        default does nothing, so a custom operator needs no override.  A
        ``SparseMatrix`` whose own matvec is compiled (from its second
        split pass on) compiles its cached transpose here, and products
        and shifts forward the call to their factors.
        """


def matvec(op: LinearOp, x: list, meter: CostMeter | None = None) -> list:
    """Apply ``op`` to ``x``; bumps the matvec counter once."""
    if len(x) != op.n:
        raise UsageError(f"matvec dimension mismatch: {len(x)} vs {op.n}")
    if meter is not None:
        meter.matvec += 1
    return op.apply(x, meter)


# A sparse matrix runs the per-entry loop of ``SparseMatrix.apply`` for its
# first _COMPILE_AFTER applications and is then compiled.  Compiling costs
# about as much as 50-90 applications of the loop, at n=10 as at n=800, so
# this is the ski-rental break-even: a matrix applied once or twice (a
# verifier on a freshly parsed matrix) never pays for it, and a Krylov pass
# over 2n - 1 applications repays it.
_COMPILE_AFTER = 64
# Terms per compiled function; an empty row counts as one.  It bounds the
# size of one function's syntax tree (peak memory while compiling) and the
# nesting depth of one row's sum, which CPython's compiler limits.
_BLOCK_TERMS = 256
# _cache keys; certilin.oracle keeps its dense results in the same dict.
_CODE, _COLD, _TRANSPOSE = "matvec_code", "matvec_cold", "transpose"


def _function(body: str):
    """The function ``x -> body``; ``body`` holds only int literals and x."""
    namespace: dict = {}
    exec(compile(f"def f(x):\n    return {body}\n", "<sparse matvec>", "exec"),
         namespace)
    return namespace["f"]


def _compile(a: SparseMatrix) -> tuple:
    """Straight-line functions whose concatenated outputs are A x mod p.

    Each function returns the canonical values of a run of consecutive
    rows, [(v*x[j] + v*x[j] + ...) % p, ...], with the entries as literals.
    A row longer than _BLOCK_TERMS is summed from partial functions of
    _BLOCK_TERMS terms each and gets a function of its own.
    """
    p = a.field.p
    rows = [[] for _ in range(a.n)]
    for i, j, v in a.entries:
        rows[i].append(f"{v}*x[{j}]")
    code, block, size = [], [], 0

    def close():
        nonlocal block, size
        if block:
            code.append(_function(f"[{', '.join(block)}]"))
        block, size = [], 0

    for terms in rows:
        if len(terms) > _BLOCK_TERMS:
            close()
            parts = tuple(_function(" + ".join(terms[k:k + _BLOCK_TERMS]))
                          for k in range(0, len(terms), _BLOCK_TERMS))
            code.append(lambda x, parts=parts: [sum(f(x) for f in parts) % p])
            continue
        if size + max(len(terms), 1) > _BLOCK_TERMS:
            close()
        block.append(f"({' + '.join(terms)}) % {p}" if terms else "0")
        size += max(len(terms), 1)
    close()
    return tuple(code)


class SparseMatrix(LinearOp):
    """COO sparse matrix; entries normalized (summed, zero-free, sorted).

    Coordinates and values are stored as exact ints: an int subclass passed
    in is converted, so only int's own text reaches the compiled matvec.
    """

    __slots__ = ("field", "n", "entries", "_cache")

    def __init__(self, field: PrimeField, n: int, entries):
        if n < 1:
            raise UsageError("dimension must be positive")
        p = field.p
        index = operator.index
        acc: dict = {}
        try:
            for i, j, v in entries:
                i, j, v = index(i), index(j), index(v)
                if not (0 <= i < n and 0 <= j < n):
                    raise UsageError(f"entry ({i},{j}) out of range for n={n}")
                acc[(i, j)] = (acc.get((i, j), 0) + v) % p
        except (TypeError, ValueError):
            raise UsageError("matrix entries must be integer triples") from None
        self.field = field
        self.n = n
        self.entries = tuple(sorted((i, j, v) for (i, j), v in acc.items() if v))
        self._cache: dict = {}

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        code = self._cache.get(_CODE)
        if code is not None:
            y = []
            for block in code:
                y += block(x)
        else:
            p = self.field.p
            y = [0] * self.n
            for i, j, v in self.entries:
                y[i] += v * x[j]
            y = [c % p for c in y]
            cold = self._cache[_COLD] = self._cache.get(_COLD, 0) + 1
            if cold >= _COMPILE_AFTER:
                self._cache[_CODE] = _compile(self)
        if meter is not None:
            meter.mul += self.nnz
            meter.add += self.nnz
        return y

    def apply_transpose(self, x: list) -> list:
        return self._transpose().apply(x)

    def _transpose(self) -> SparseMatrix:
        t = self._cache.get(_TRANSPOSE)
        if t is None:
            t = self._cache[_TRANSPOSE] = SparseMatrix(
                self.field, self.n, [(j, i, v) for i, j, v in self.entries])
        return t

    def _warm_transpose(self) -> None:
        # Only once A itself is compiled: a one-shot pass pays no compile.
        if _CODE in self._cache:
            t = self._transpose()
            if _CODE not in t._cache:
                t._cache[_CODE] = _compile(t)

    def matvec_cost(self) -> int:
        """Field operations charged by one application: budget_report's mu."""
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


class DiagonalMatrix(LinearOp):
    __slots__ = ("field", "n", "diag")

    def __init__(self, field: PrimeField, diag):
        self.field = field
        self.diag = tuple(field.check(d) for d in diag)
        self.n = len(self.diag)
        if not self.n:
            raise UsageError("dimension must be positive")

    def apply(self, x: list, meter: CostMeter | None = None) -> list:
        p = self.field.p
        if meter is not None:
            meter.mul += self.n
        return [d * xi % p for d, xi in zip(self.diag, x)]

    def apply_transpose(self, x: list) -> list:
        return self.apply(x)


class GammaMatrix(LinearOp):
    """Diagonal t, superdiagonal -1, corner s at position (n, 1).

    Nonsingular iff t**n + s != 0; its determinant costs what square-and-
    multiply would: at most 2*ceil(log2 n) + 1 field ops, 2 at n = 1.
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

    def apply_transpose(self, x: list) -> list:
        p, t = self.field.p, self.t
        return ([(t * x[0] + self.s * x[-1]) % p]
                + [(t * a - b) % p for a, b in zip(x[1:], x)])


def gamma_det(g: GammaMatrix, meter: CostMeter | None = None) -> int:
    """t**n + s, metered as square-and-multiply would spend it."""
    n = g.n
    if meter is not None:
        meter.mul += n.bit_count() + n.bit_length() - 1
        meter.add += 1
    return (pow(g.t, n, g.field.p) + g.s) % g.field.p


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

    def apply_transpose(self, x: list) -> list:
        return self.right.apply_transpose(self.left.apply_transpose(x))

    def _warm_transpose(self) -> None:
        self.left._warm_transpose()
        self.right._warm_transpose()


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

    def apply_transpose(self, x: list) -> list:
        p, r = self.field.p, self.r
        return [(r * xi - yi) % p for xi, yi in zip(x, self.inner.apply_transpose(x))]

    def _warm_transpose(self) -> None:
        self.inner._warm_transpose()


# -- SMS-style file format ---------------------------------------------------


def parse_sms(text: str) -> SparseMatrix:
    """Parse the SMS-style text format; raises ParseError with line numbers.

    Every token is an ASCII decimal integer with an optional sign.
    """
    lines = text.removesuffix("\n").split("\n")
    n = None
    entries = []
    terminated = False
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        if terminated:
            raise ParseError(lineno, "content after terminator")
        if len(toks) != 3:
            raise ParseError(lineno, "header must be 'n n p'" if n is None
                             else "entry must be 'i j v'")
        word = "".join(toks)
        try:
            # int() alone would also take other scripts' digits and "1_0".
            if not word.isascii() or "_" in word:
                raise ValueError
            i, j, v = map(int, toks)
        except ValueError:
            raise ParseError(lineno, "non-integer token in "
                             + ("header" if n is None else "entry")) from None
        if n is None:
            if i != j:
                raise ParseError(lineno, f"matrix must be square, got {i} x {j}")
            if i < 1:
                raise ParseError(lineno, "dimension must be positive")
            try:
                field = PrimeField(v)
            except Exception as exc:
                raise ParseError(lineno, f"bad modulus: {exc}") from None
            n = i
        elif i == 0 and j == 0 and v == 0:
            terminated = True
        elif 1 <= i <= n and 1 <= j <= n:
            entries.append((i - 1, j - 1, v))
        else:
            raise ParseError(lineno, f"coordinates ({i},{j}) out of range for n={n}")
    if n is None:
        raise ParseError(1, "empty file")
    if not terminated:
        raise ParseError(len(lines), "missing '0 0 0' terminator")
    return SparseMatrix(field, n, entries)


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
