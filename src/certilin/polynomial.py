"""Dense univariate polynomials over Z_p.

Coefficients are stored low-to-high with trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree -inf so that degree
comparisons stay total.  Provides ring arithmetic, Horner evaluation with
exact operation metering, the extended Euclidean algorithm with the tight
cofactor degree bounds, and Berlekamp-Massey for minimal linear generators.

Canonical text form is the comma-separated list of decimal coefficients,
low-to-high ("100,0,1" is x^2 - 1 over Z_101); the zero polynomial reads
and writes as "0".
"""

from __future__ import annotations

from .errors import DomainError, UsageError
from .field import PrimeField, same_field
from .meter import CostMeter

NEG_INF = float("-inf")


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
        p = f.p
        b = other.coeffs
        r = list(self.coeffs)
        db = len(b) - 1
        if len(r) - 1 < db:
            return Poly.zero(f), self
        inv_lead = pow(b[-1], -1, p)
        q = [0] * (len(r) - db)
        for k in range(len(r) - db - 1, -1, -1):
            coef = r[k + db] * inv_lead % p
            if coef:
                q[k] = coef
                for j, bj in enumerate(b):
                    r[k + j] = (r[k + j] - coef * bj) % p
        return Poly(f, q), Poly(f, r[:db])

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

    @classmethod
    def from_text(cls, field: PrimeField, text: str) -> "Poly":
        parts = text.split(",")
        coeffs = [field.from_text(tok) for tok in parts]
        return cls(field, coeffs)

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


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with g = s*a + t*b and g monic.

    When GCD(a, b) = 1 and deg a > deg b >= 0 the cofactors satisfy the
    tight bounds deg(s) <= deg(b) - 1 and deg(t) <= deg(a) - 1; the raw
    Euclidean output is post-reduced when necessary.
    """
    f = same_field(a.field, b.field)
    if a.is_zero() and b.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    one, zero = Poly.one(f), Poly.zero(f)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading()
    if lead != 1:
        k = pow(lead, -1, f.p)
        r0, s0, t0 = r0.scale(k), s0.scale(k), t0.scale(k)
    # Tighten deg(s) below deg(b/g); fold the quotient into t.
    if not b.is_zero():
        bq = b // r0
        if bq.degree >= 1 and s0.degree >= bq.degree:
            q, s0 = s0.divrem(bq)
            t0 = t0 + q * (a // r0)
    return r0, s0, t0


def is_coprime_certified(f: Poly, h: Poly, phi: Poly, psi: Poly, r0: int,
                         meter: CostMeter | None = None) -> bool:
    """Spot-check the Bezout identity phi*f + psi*h = 1 at one point.

    This is the O(deg) verifier-side coprimality check; it never runs a
    full GCD.  Charges four Horner evaluations plus 2 muls and 1 add.
    """
    field = same_field(f.field, h.field, phi.field, psi.field)
    lhs = phi.eval(r0, meter) * f.eval(r0, meter) + psi.eval(r0, meter) * h.eval(r0, meter)
    if meter is not None:
        meter.mul += 2
        meter.add += 1
    return lhs % field.p == 1


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
    c = [1]          # connection polynomial, c[0] = 1
    b = [1]          # copy at last length change
    L = 0
    m = 1
    bb = 1           # discrepancy at last length change
    for n, a_n in enumerate(seq):
        d = a_n
        for i in range(1, L + 1):
            if i < len(c) and c[i]:
                d += c[i] * seq[n - i]
        d %= p
        if d == 0:
            m += 1
            continue
        coef = d * pow(bb, -1, p) % p
        if 2 * L <= n:
            t = c[:]
            grow = m + len(b)
            if len(c) < grow:
                c = c + [0] * (grow - len(c))
            for i, bi in enumerate(b):
                c[m + i] = (c[m + i] - coef * bi) % p
            L = n + 1 - L
            b = t
            bb = d
            m = 1
        else:
            grow = m + len(b)
            if len(c) < grow:
                c = c + [0] * (grow - len(c))
            for i, bi in enumerate(b):
                c[m + i] = (c[m + i] - coef * bi) % p
            m += 1
    # Reverse the connection polynomial into a monic generator of degree L.
    c = c + [0] * (L + 1 - len(c))
    gen = [c[L - i] for i in range(L + 1)]
    return Poly(field, gen)
