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

from operator import mul

from .errors import DomainError, UsageError
from .field import PrimeField, same_field
from .meter import CostMeter

NEG_INF = float("-inf")


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

    def leading(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        f = self._peer(other)
        p = f.p
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly(f, [(x - y) % p for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        p = self.field.p
        return Poly(self.field, tuple((-c) % p for c in self.coeffs), _canonical=True)

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

    def shift(self, m: int) -> "Poly":
        """Multiply by x**m."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * m + self.coeffs, _canonical=True)

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
        return ",".join(str(c) for c in self.coeffs)

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
    same_field(a.field, b.field)
    while not b.is_zero():
        if meter is not None:
            cost = max(a.degree - b.degree + 1, 0) * (len(b.coeffs) + 1)
            meter.mul += cost
            meter.add += cost
            meter.inv += 1
        a, b = b, a % b
    return a.monic()


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


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with g = s*a + t*b and g monic.

    When GCD(a, b) = 1 and deg a > deg b >= 0 the cofactors satisfy the
    tight bounds deg(s) <= deg(b) - 1 and deg(t) <= deg(a) - 1.
    """
    f = same_field(a.field, b.field)
    if a.is_zero() and b.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    p = f.p
    # Remainders and cofactors are canonical coefficient lists, low to high.
    r0, r1 = list(a.coeffs), list(b.coeffs)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
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
            r0, r1 = r1, _strip(r)
            s0, s1 = s1, _strip(s)
            t0, t1 = t1, _strip(t)
        else:
            q, r = _divrem(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _sub_mul(s0, q, s1, p)
            t0, t1 = t1, _sub_mul(t0, q, t1, p)
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
    """
    seq = list(seq)
    if not seq:
        raise UsageError("berlekamp_massey needs at least one term")
    p = field.p
    # seq[n-1], seq[n-2], ..., seq[n-L] is rev[N-n : N-n+L].
    rev = seq[::-1]
    N = len(seq)
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
