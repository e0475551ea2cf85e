"""Projected Krylov sequences and their minimal generators.

Given a black-box operator A and projections u, v, the scalar sequence
a_i = u^T A^i v is linearly generated; its monic minimal generator f and
the residue polynomial r (the polynomial part of f times the sequence's
generating function in descending powers) form a coprime pair with
deg r < deg f.  The pair is what a prover commits to, and the residue is
also the key to solving shifted systems (q*I - A) w = v with deg(f) - 1
applications of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .blackbox import LinearOp, matvec
from .errors import BadShiftError, IntegrityError, UsageError
from .meter import CostMeter
from .polynomial import Poly


@dataclass(frozen=True)
class GeneratorPair:
    """Monic minimal generator and its residue; coprime, deg res < deg gen."""

    gen: Poly
    res: Poly


def wiedemann_sequence(op: LinearOp, u: list, v: list, length: int,
                       meter: CostMeter | None = None) -> list:
    """(u^T A^i v) for i < length, using length-1 matvecs and length dots."""
    if length < 1:
        raise UsageError("sequence length must be >= 1")
    if len(u) != op.n or len(v) != op.n:
        raise UsageError("projection dimension mismatch")
    p = op.field.p
    seq = []
    cur = list(v)
    for i in range(length):
        if i:
            cur = matvec(op, cur, meter)
        acc = sum(map(mul, u, cur))
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
    return Poly(field, [sum(map(mul, g[j + 1:], seq)) % p for j in range(d)])


def minimal_generator_pair(op: LinearOp, u: list, v: list,
                           meter: CostMeter | None = None) -> GeneratorPair:
    """Generator and residue from 2n sequence terms (Berlekamp-Massey)."""
    from .polynomial import berlekamp_massey

    seq = wiedemann_sequence(op, u, v, 2 * op.n, meter)
    gen = berlekamp_massey(op.field, seq)
    return GeneratorPair(gen, residue_polynomial(gen, seq))


def solve_shifted(op: LinearOp, r1: int, v: list, gen: Poly,
                  meter: CostMeter | None = None) -> list:
    """Solve (r1*I - A) w = v given a monic annihilator of (A^i v).

    Uses w = (1/gen(r1)) q(A) v with q = (gen - gen(r1)) / (x - r1), so it
    needs deg(gen) - 1 applications of A plus one for the residual check.
    Raises BadShiftError when gen(r1) = 0 (the system is then inconsistent
    whenever gen really is the minimal annihilator of v's Krylov stream)
    and IntegrityError when the residual check fails, which means the
    supplied polynomial does not annihilate the stream.
    """
    field = op.field
    p = field.p
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
    # Synthetic division coefficients of q, consumed high-to-low by Horner.
    g = gen.coeffs
    carry = g[d]  # leading quotient coefficient, = 1
    w = [c % p for c in v]  # w = q_{d-1} * v with q_{d-1} = 1
    for k in range(d - 2, -1, -1):
        carry = (g[k + 1] + r1 * carry) % p
        w = matvec(op, w, meter)
        if carry:
            w = [(a + carry * b) % p for a, b in zip(w, v)]
    scale = pow(fr, -1, p)
    w = [a * scale % p for a in w]
    check = matvec(op, w, meter)
    for wi, ci, vi in zip(w, check, v):
        if (r1 * wi - ci) % p != vi % p:
            raise IntegrityError("shifted-system residual is nonzero")
    return w

