"""Projected Krylov sequences and their minimal generators.

Given a black-box operator A and projections u, v, the scalar sequence
a_i = u^T A^i v is linearly generated; its monic minimal generator f and
the residue polynomial r (the polynomial part of f times the sequence's
generating function in descending powers) form a coprime pair with
deg r < deg f.  The pair is what a prover commits to, and the generator is
also the key to solving shifted systems (q*I - A) w = v.

The Krylov pass that finds the pair keeps every s-th vector A^k v for
k < n, s = isqrt(n) (the "giant steps").  The shifted solve evaluates its
quotient polynomial at A from them by baby steps and giant steps (Paterson
& Stockmeyer 1973): min(s, deg f) applications of A, residual check
included, instead of deg f for plain Horner.

From the half-gcd's size rule ``polynomial._HGCD_MIN`` up (deg f for the
residue, n for the solve) both run on its Kronecker packing: the residue
is one packed product, and each giant step is packed once, so that a
baby-step combination is one sum of big-by-small products, unpacked once.
A projection u with at most one nonzero entry (det-gamma's e_1) takes each
sequence term as one product.  Results are the same bit for bit, and the
meter still charges each term the n multiplications and n - 1 additions
of a dense dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import isqrt
from operator import mul

from .blackbox import LinearOp, matvec
from .errors import BadShiftError, IntegrityError, UsageError
from .meter import CostMeter
from .polynomial import _HGCD_MIN, Poly, _pack, _slot_bytes, _slots


@dataclass(frozen=True)
class GeneratorPair:
    """Monic minimal generator and its residue; coprime, deg res < deg gen.

    ``giants`` holds the giant steps A^(k*s) v (k*s < n, s = isqrt(n)) of
    the Krylov pass that found the pair, for ``solve_shifted``; it is empty
    for a pair built any other way.
    """

    gen: Poly
    res: Poly
    giants: tuple = dc_field(default=(), compare=False, repr=False)


def wiedemann_sequence(op: LinearOp, u: list, v: list, length: int,
                       meter: CostMeter | None = None,
                       giants: list | None = None) -> list:
    """(u^T A^i v) for i < length, using length-1 matvecs and length dots.

    A ``giants`` list receives A^i v for every i < min(length, n) that is a
    multiple of isqrt(n).
    """
    if length < 1:
        raise UsageError("sequence length must be >= 1")
    if len(u) != op.n or len(v) != op.n:
        raise UsageError("projection dimension mismatch")
    p = op.field.p
    seq = []
    cur = list(v)
    stride = isqrt(op.n)
    nonzero = [j for j, c in enumerate(u) if c]
    j = nonzero[0] if nonzero else 0
    for i in range(length):
        if i:
            cur = matvec(op, cur, meter)
        if giants is not None and i < op.n and i % stride == 0:
            giants.append(cur)
        acc = sum(map(mul, u, cur)) if len(nonzero) > 1 else u[j] * cur[j]
        if meter is not None:
            meter.mul += op.n
            meter.add += op.n - 1
        seq.append(acc % p)
    return seq


def residue_polynomial(gen: Poly, seq: list) -> Poly:
    """Polynomial part of gen times the sequence's generating function.

    Coefficient j is sum_{k > j} gen_k * seq[k-1-j], for 0 <= j < deg(gen).
    """
    field = gen.field
    d = len(gen.coeffs) - 1
    if d <= 0:
        return Poly.zero(field)
    if len(seq) < d:
        raise UsageError("sequence shorter than the generator's degree")
    p = field.p
    g = gen.coeffs
    if d < _HGCD_MIN:
        return Poly(field, [sum(map(mul, g[j + 1:], seq)) % p for j in range(d)])
    # Coefficients d..2d-1 of gen * sum_(i<d) seq[i] x^(d-1-i).
    w = _slot_bytes(p, d + 1)
    prod = _pack(g, w) * _pack([a % p for a in reversed(seq[:d])], w)
    return Poly(field, _slots(prod >> (8 * w * d), w, d))


def minimal_generator_pair(op: LinearOp, u: list, v: list,
                           meter: CostMeter | None = None) -> GeneratorPair:
    """Generator and residue from 2n sequence terms (Berlekamp-Massey)."""
    from .polynomial import berlekamp_massey

    giants = []
    seq = wiedemann_sequence(op, u, v, 2 * op.n, meter, giants)
    gen = berlekamp_massey(op.field, seq)
    return GeneratorPair(gen, residue_polynomial(gen, seq), tuple(giants))


def solve_shifted(op: LinearOp, r1: int, v: list, gen: Poly,
                  meter: CostMeter | None = None, giants: tuple = ()) -> list:
    """Solve (r1*I - A) w = v given a monic annihilator of (A^i v).

    Uses w = (1/gen(r1)) q(A) v with q = (gen - gen(r1)) / (x - r1), d =
    deg(gen).  With ``giants`` = (A^(k*s) v for k*s < n), s = isqrt(n), as a
    Krylov pass keeps them (``GeneratorPair.giants``), each
    z_r = sum_k q_(k*s+r) A^(k*s) v costs no application of A, and
    w = sum_(r < s) A^r z_r by Horner costs min(s, d) - 1.  Without them v
    is the one giant step and the stride is d: plain Horner, d - 1
    applications.  The residual check costs one more.
    Raises BadShiftError when gen(r1) = 0 (the system is then inconsistent
    whenever gen really is the minimal annihilator of v's Krylov stream)
    and IntegrityError when the residual check fails, which means the
    supplied polynomial does not annihilate the stream.  Giant steps that
    do not start at v, or do not reach degree d - 1, are a UsageError.
    """
    p = op.field.p
    if len(v) != op.n:
        raise UsageError("vector dimension mismatch")
    if not gen.is_monic():
        raise UsageError("annihilator must be monic")
    fr = gen.eval(r1)
    if fr == 0:
        raise BadShiftError(f"annihilator vanishes at shift {r1}")
    d = gen.degree
    if d == 0:
        # gen = 1 annihilates only the zero stream; 0 solves iff v = 0.
        if any(v):
            raise IntegrityError("constant annihilator for a nonzero vector")
        return [0] * op.n
    stride, steps = (isqrt(op.n), giants) if giants else (d, (v,))
    if len(steps[0]) != op.n or any((a - b) % p for a, b in zip(steps[0], v)):
        raise UsageError("giant steps do not start at v")
    if len(steps) * stride < d:
        raise UsageError("giant steps do not reach the annihilator's degree")
    # Synthetic division coefficients q_0..q_(d-1) of q (q_(d-1) = 1).
    g = gen.coeffs
    q = [0] * d
    carry = 0
    for k in range(d - 1, -1, -1):
        carry = q[k] = (g[k + 1] + r1 * carry) % p
    n, m = op.n, min(stride, d)
    if n >= _HGCD_MIN:
        size = _slot_bytes(p, len(steps))
        packed = [_pack([a % p for a in step], size) for step in steps]

        def combine(cs):
            return _slots(sum(map(mul, cs, packed)), size, n)
    else:
        cols = list(zip(*steps))

        def combine(cs):
            return [sum(map(mul, cs, col)) for col in cols]
    w = [0] * n
    for r in range(m - 1, -1, -1):
        if r < m - 1:
            w = matvec(op, w, meter)
        w = [(a + z) % p for a, z in zip(w, combine(q[r::stride]))]
    scale = pow(fr, -1, p)
    w = [a * scale % p for a in w]
    check = matvec(op, w, meter)
    for wi, ci, vi in zip(w, check, v):
        if (r1 * wi - ci) % p != vi % p:
            raise IntegrityError("shifted-system residual is nonzero")
    return w
