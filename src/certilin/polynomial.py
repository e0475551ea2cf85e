"""Dense univariate polynomials over Z_p.

Coefficients are stored low-to-high with trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree -inf so that degree
comparisons stay total.  Provides ring arithmetic, Horner evaluation with
exact operation metering, the extended Euclidean algorithm with the tight
cofactor degree bounds, and Berlekamp-Massey for minimal linear generators.

``to_text`` and ``wire_cost`` give a polynomial's canonical text, the
comma-separated decimal coefficients low-to-high ("100,0,1" is x^2 - 1 over
Z_101, the zero polynomial is "0"), and the field elements it puts on the
wire.  The wire format that uses them, parser included, lives in
:mod:`certilin.messages`.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .errors import DomainError, IntegrityError, UsageError
from .field import PrimeField, same_field
from .meter import CostMeter

NEG_INF = float("-inf")
_BIG_ENDIAN = sys.byteorder == "big"


def _strip(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _divrem(a, b, p: int) -> tuple[list, list]:
    """Quotient and remainder of canonical coefficients a by nonzero b."""
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        coef = r[k + db] * inv % p
        q[k] = coef
        if coef:
            r[k:k + db + 1] = [(x - coef * y) % p for x, y in zip(r[k:k + db + 1], b)]
    return q, _strip(r[:db])


class Poly:
    """Immutable dense polynomial bound to a :class:`PrimeField`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs, *, _canonical: bool = False):
        if _canonical:
            self.field = field
            self.coeffs = coeffs
            return
        p = field.p
        c = [int(x) % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, (), _canonical=True)

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, (1,), _canonical=True)

    @classmethod
    def x(cls, field: PrimeField) -> "Poly":
        return cls(field, (0, 1), _canonical=True)

    @classmethod
    def constant(cls, field: PrimeField, value: int) -> "Poly":
        return cls(field, (value,))

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly(p={self.field.p}, [{self.to_text()}])"

    # -- ring arithmetic -------------------------------------------------------

    def _peer(self, other: "Poly") -> PrimeField:
        if not isinstance(other, Poly):
            raise UsageError(f"expected Poly, got {type(other).__name__}")
        return same_field(self.field, other.field)

    def __add__(self, other: "Poly") -> "Poly":
        f = self._peer(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        p = f.p
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._peer(other)
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self._peer(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        p = f.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(f, [c % p for c in out])

    def scale(self, k: int) -> "Poly":
        p = self.field.p
        k %= p
        return Poly(self.field, [c * k % p for c in self.coeffs])

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder with deg r < deg b; b must be nonzero."""
        f = self._peer(other)
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        q, r = _divrem(self.coeffs, other.coeffs, f.p)
        return Poly(f, tuple(q), _canonical=True), Poly(f, tuple(r), _canonical=True)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(pow(lead, -1, self.field.p))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: int, meter: CostMeter | None = None) -> int:
        """Horner evaluation; charges exactly deg(f) muls and adds."""
        if not self.coeffs:
            return 0
        p = self.field.p
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = (acc * x + c) % p
        if meter is not None:
            d = len(self.coeffs) - 1
            meter.mul += d
            meter.add += d
        return acc

    # -- canonical text ----------------------------------------------------------

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(map(str, self.coeffs))

    def wire_cost(self) -> int:
        """Field elements needed on the wire (monic leading 1 is implicit)."""
        if not self.coeffs:
            return 0
        return len(self.coeffs) - (1 if self.coeffs[-1] == 1 else 0)


def poly_gcd(a: Poly, b: Poly, meter: CostMeter | None = None) -> Poly:
    """Monic greatest common divisor by plain Euclid.

    A meter is charged the coefficient operations of each division step
    and one inversion per step.
    """
    f = same_field(a.field, b.field)
    p = f.p
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        if meter is not None:
            cost = max(len(a) - len(b) + 1, 0) * (len(b) + 1)
            meter.mul += cost
            meter.add += cost
            meter.inv += 1
        a, b = b, _divrem(a, b, p)[1]
    return Poly(f, tuple(a), _canonical=True).monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def _sub_mul(c: list, q: list, s: list, p: int) -> list:
    """c - q*s on canonical lists."""
    if not q or not s:
        return list(c)
    out = c + [0] * (len(q) + len(s) - 1 - len(c))
    for i, qi in enumerate(q):
        if qi:
            for j, sj in enumerate(s):
                out[i + j] -= qi * sj
    return _strip([x % p for x in out])


def _step(r0: list, r1: list, s0: list, s1: list, t0: list, t1: list,
          p: int) -> tuple:
    """One Euclid step on a row (r0, r1, s0, s1, t0, t1); r1 is nonzero.

    A row holds two consecutive remainders r_i = s_i*a + t_i*b and their
    cofactors, as canonical coefficient lists, low to high.
    """
    if len(r0) == len(r1) + 1:
        # A degree-1 quotient q1*x + q0, the usual case: one pass each
        # computes r0 - q*r1, s0 - q*s1 and t0 - q*t1.  The cofactor
        # degrees grow with each step, so s0 and t0 fit in len(s1) + 1
        # and len(t1) + 1 coefficients.
        inv = pow(r1[-1], -1, p)
        x_r1 = [0] + r1
        q1 = r0[-1] * inv % p
        q0 = (r0[-2] - q1 * x_r1[-2]) * inv % p
        r = [(c - q1 * d - q0 * e) % p for c, d, e in zip(r0, x_r1, r1)]
        r.pop()
        n = len(s1) + 1
        s = [(c - q1 * d - q0 * e) % p
             for c, d, e in zip(s0 + [0] * (n - len(s0)), [0] + s1, s1 + [0])]
        n = len(t1) + 1
        t = [(c - q1 * d - q0 * e) % p
             for c, d, e in zip(t0 + [0] * (n - len(t0)), [0] + t1, t1 + [0])]
        return r1, _strip(r), s1, _strip(s), t1, _strip(t)
    q, r = _divrem(r0, r1, p)
    return r1, r, s1, _sub_mul(s0, q, s1, p), t1, _sub_mul(t0, q, t1, p)


# -- half-gcd ----------------------------------------------------------------
#
# Euclid's rows on (a, b) depend on the top coefficients only for as long as
# the remainders stay above half the degree, so a row far down the sequence
# can be reached from two recursive calls on truncated pairs and a few
# polynomial matrix products (Knuth-Schoenhage; Thull & Yap 1990).  The
# products run as Kronecker substitutions: each coefficient list is packed
# into one Python int, so that CPython's Karatsuba multiplies whole
# polynomials, and each result is unpacked once into residues mod p.  Every
# row the half-gcd reaches is the classical loop's row, so results are the
# same bit for bit.
#
# Both conversions cross the int/bytes boundary a whole list at a time: a
# slot is w little-endian bytes, and the list goes through one
# ``array("Q")`` of 8-byte machine words (byteswapped on a big-endian
# host) and a few strided ``bytearray`` copies, one per byte of the word
# or slot, never one ``to_bytes``/``from_bytes`` per coefficient.  So
# ``_pack`` takes canonical residues, which every caller passes (below
# p < 2**62, they fit any slot), and raises OverflowError for a value
# outside [0, 2**64).

# Pairs with a first operand of at most this many coefficients run the
# classical loop; above it the half-gcd recursion splits the work.
_HGCD_MIN = 64


def _slot_bytes(p: int, n: int) -> int:
    """Bytes per Kronecker slot holding a coefficient of f1*g1 + f2*g2 + h.

    For lists of at most n coefficients below p each such coefficient is at
    most 2n(p-1)^2 + p - 1.
    """
    return ((2 * n * (p - 1) ** 2 + p - 1).bit_length() + 7) // 8


def _le_words(c) -> bytes:
    """Each of the ints 0 <= c_i < 2**64 as 8 little-endian bytes."""
    a = array("Q", c)
    if _BIG_ENDIAN:
        a.byteswap()
    return a.tobytes()


def _pack(c: list, w: int) -> int:
    """c as one int of w-byte slots, c[0] lowest; 0 <= c_i < 256**min(w, 8)."""
    raw = _le_words(c)
    slots = bytearray(len(c) * w)
    for b in range(min(w, 8)):
        slots[b::w] = raw[b::8]
    return int.from_bytes(slots, "little")


def _unpack(x: int, w: int, n: int, p: int) -> list:
    """The first n w-byte slots of x, reduced mod p (not stripped).

    Bytes 8k to 8k + 7 of each slot form its word k, k < 3 for w <= 24,
    and word k folds in as h * (2**(64k) % p).
    """
    raw = x.to_bytes(n * w, "little")
    words = []
    for start in range(0, w, 8):
        buf = bytearray(8 * n)
        for b in range(start, min(start + 8, w)):
            buf[b - start::8] = raw[b::w]
        a = array("Q", buf)
        if _BIG_ENDIAN:
            a.byteswap()
        words.append(a.tolist())
    if len(words) == 1:
        return [h % p for h in words[0]]
    c1 = (1 << 64) % p
    if len(words) == 2:
        return [(lo + hi * c1) % p for lo, hi in zip(*words)]
    c2 = (1 << 128) % p
    return [(lo + mid * c1 + hi * c2) % p for lo, mid, hi in zip(*words)]


def _mat_mul(m: tuple, cols: list, p: int, top: tuple = ((), ()), k: int = 0) -> list:
    """The 2x2 matrix m = (m00, m01, m10, m11) times each column (u, v).

    Returns m00*u + m01*v and m10*u + m11*v for each column in turn, with
    top[0]*x^k and top[1]*x^k added to the first column's two entries.
    Each operand is packed once and each entry unpacked once.
    """
    n = max(map(len, (*m, *top, *(c for col in cols for c in col))))
    w = _slot_bytes(p, n)
    pm = [_pack(c, w) for c in m]
    out = []
    for j, (u, v) in enumerate(cols):
        pu, pv = _pack(u, w), _pack(v, w)
        for i in (0, 2):
            acc = pm[i] * pu + pm[i + 1] * pv
            size = max(len(m[i]) + len(u), len(m[i + 1]) + len(v)) - 1
            h = top[i // 2] if j == 0 else ()
            if h:
                acc += _pack(h, w) << (8 * w * k)
                size = max(size, len(h) + k)
            out.append(_strip(_unpack(acc, w, max(size, 0), p)))
    return out


def _hgcd(a: list, b: list, p: int) -> tuple:
    """Euclid's row on (a, b), len(a) > len(b), whose second remainder is
    the first of degree below ceil(deg(a) / 2)."""
    m = len(a) // 2
    row = (a, b, [1], [], [], [1])
    if len(a) <= _HGCD_MIN:
        while len(row[1]) > m:
            row = _step(*row, p)
        return row
    if len(b) > m:
        # The top halves' rows are (a, b)'s rows down to degree about 3/4
        # deg(a); one step and the truncated second half go on to m.
        row = _jump(row, m, p)
        if len(row[1]) > m:
            row = _step(*row, p)
            if len(row[1]) > m:
                row = _jump(row, 2 * m + 1 - len(row[0]), p)
    return row


def _jump(row: tuple, k: int, p: int) -> tuple:
    """The row that _hgcd reaches on the pair truncated by x^k, applied to
    ``row``: its second remainder is the first of degree below
    (deg(r0) + k) / 2 rounded up."""
    r0, r1, s0, s1, t0, t1 = row
    x, y, h00, h10, h01, h11 = _hgcd(r0[k:], r1[k:], p)
    h = (h00, h01, h10, h11)
    if k:
        row = tuple(_mat_mul(h, [(r0[:k], r1[:k]), (s0, s1), (t0, t1)], p, (x, y), k))
    else:
        row = (x, y, *_mat_mul(h, [(s0, s1), (t0, t1)], p))
    target = (len(r0) + k) // 2
    if not len(row[0]) > target >= len(row[1]):
        raise IntegrityError("half-gcd jump missed its target degree")
    return row


def _euclid(a: list, b: list, p: int, more, floor: int = 0) -> tuple:
    """Euclid's rows on canonical lists a and b for as long as more(r1, t1).

    Returns the first row (r0, r1, s0, s1, t0, t1) whose r1 and t1 fail
    ``more``.  Rows with a second remainder of degree at least ``floor``
    may be passed by half-gcd jumps, so ``more`` must hold on them all.
    """
    row = (a, b, [1], [], [], [1])
    while len(row[0]) > _HGCD_MIN and more(row[1], row[5]):
        n0, n1 = len(row[0]), len(row[1])
        target = max(n0 // 2, floor)
        if n0 > n1 > target:
            row = _jump(row, 2 * target + 1 - n0, p)
        else:
            row = _step(*row, p)
    while more(row[1], row[5]):
        row = _step(*row, p)
    return row


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with g = s*a + t*b and g monic.

    When GCD(a, b) = 1 and deg a > deg b >= 0 the cofactors satisfy the
    tight bounds deg(s) <= deg(b) - 1 and deg(t) <= deg(a) - 1.
    """
    f = same_field(a.field, b.field)
    if a.is_zero() and b.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    p = f.p
    a, b = list(a.coeffs), list(b.coeffs)
    # The half-gcd takes the remainders down to _HGCD_MIN coefficients; the
    # classical tail runs on them from an identity row, and its 2x2 matrix
    # meets the long cofactors in one product.
    r0, r1, *cof = _euclid(a, b, p, lambda r, t: len(r) > _HGCD_MIN, _HGCD_MIN)
    r0, _, s0, s1, t0, t1 = _euclid(r0, r1, p, lambda r, t: r)
    if cof != [[1], [], [], [1]]:
        s0, _, t0, _ = _mat_mul((s0, t0, s1, t1), [cof[:2], cof[2:]], p)
    lead = r0[-1]
    if lead != 1:
        k = pow(lead, -1, p)
        r0 = [c * k % p for c in r0]
        s0 = [c * k % p for c in s0]
        t0 = [c * k % p for c in t0]
    g = Poly(f, tuple(r0), _canonical=True)
    s = Poly(f, tuple(s0), _canonical=True)
    t = Poly(f, tuple(t0), _canonical=True)
    return g, s, t


def berlekamp_massey(field: PrimeField, seq) -> Poly:
    """Monic minimal linear generator of a finite sequence.

    Returns the lowest-degree monic f with sum_i f_i * seq[k+i] = 0 for
    every window 0 <= k <= len(seq) - 1 - deg(f), as far as the sequence
    determines one.  The zero sequence yields the constant 1.

    A sequence of at least 2 * _HGCD_MIN terms runs as Euclid on
    (x^N, sum_i seq[i] x^(N-1-i)) (Dornstetter 1987) through the half-gcd:
    the cofactor t of the first row with deg r < deg t, made monic, is the
    generator.  When 2 * deg <= N the minimal generator is unique and both
    paths return it; otherwise each returns one of the same degree.
    """
    seq = list(seq)
    if not seq:
        raise UsageError("berlekamp_massey needs at least one term")
    p = field.p
    N = len(seq)
    if N >= 2 * _HGCD_MIN:
        t = _euclid([0] * N + [1], _strip([x % p for x in reversed(seq)]), p,
                    lambda r, t: len(r) >= len(t), (N + 1) // 2)[5]
        k = pow(t[-1], -1, p)
        return Poly(field, tuple([c * k % p for c in t]), _canonical=True)
    # seq[n-1], seq[n-2], ..., seq[n-L] is rev[N-n : N-n+L].
    rev = seq[::-1]
    c = [1]          # connection polynomial, c[0] = 1
    b = [1]          # copy at last length change
    L = 0
    m = 1
    bb_inv = 1       # inverse of the discrepancy at last length change
    for n, a_n in enumerate(seq):
        d = (a_n + sum(map(mul, c[1:L + 1], rev[N - n:N - n + L]))) % p
        if d == 0:
            m += 1
            continue
        coef = d * bb_inv % p
        t = c[:] if 2 * L <= n else None
        end = m + len(b)
        if len(c) < end:
            c.extend([0] * (end - len(c)))
        c[m:end] = [(x - coef * y) % p for x, y in zip(c[m:end], b)]
        if t is not None:
            L = n + 1 - L
            b = t
            bb_inv = pow(d, -1, p)
            m = 1
        else:
            m += 1
    # Reverse the connection polynomial into a monic generator of degree L.
    c = c + [0] * (L + 1 - len(c))
    gen = [c[L - i] for i in range(L + 1)]
    return Poly(field, gen)
