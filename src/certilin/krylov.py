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
residue, n for the sequence and the solve) they run on its Kronecker
packing: the residue is one packed product, and each giant step is packed
once, so that a baby-step combination is one sum of big-by-small products,
unpacked once.  The sequence uses the transposition principle (Bostan,
Lecerf & Schost 2003): u^T A^(i+r) v = ((A^T)^r u) . (A^i v), so s - 1
unmetered transposed products pack the rows (A^T)^r u, r < s, per
coordinate, and each giant step gives the next s terms in one sum of
big-by-small products instead of s dot products.  ``polynomial._pack``
and ``_unpack`` convert whole lists between ints and slots of
little-endian bytes, whatever the host's byte order, through 8-byte
machine words: every packed operand is reduced to canonical residues
first, and each unpack returns residues mod p, so no reduction pass
follows it.  A projection u with at
most one nonzero entry (det-gamma's e_1) takes each sequence term as one
product.  Results and matvec counts are the same bit for bit, and the
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
from .polynomial import (_HGCD_MIN, Poly, _pack, _slot_bytes, _strip,
                         _unpack, berlekamp_massey)


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
    """(u^T A^i v) for i < length, using length-1 matvecs.

    A ``giants`` list receives A^i v for every i < min(length, n) that is a
    multiple of s = isqrt(n).  From n >= _HGCD_MIN a u with two or more
    nonzero entries takes no dot per term: slot r of q_k holds
    ((A^T)^r u)_k for r < min(s, length), and u^T A^(i+r) v =
    ((A^T)^r u) . (A^i v) reads s terms at once from sum_k (A^i v)_k q_k
    at every s-th iterate; the iterate is reduced first, the rows come
    reduced from ``apply_transpose``.  Below the rule the dots stay: the
    packed path takes 1.2-1.4x their time at n = 10 and breaks even
    between n = 25 and 56 (``micro`` in BENCH_packed-projections.json).
    The meter charges every term a dot product.
    """
    if length < 1:
        raise UsageError("sequence length must be >= 1")
    n = op.n
    if len(u) != n or len(v) != n:
        raise UsageError("projection dimension mismatch")
    p = op.field.p
    seq = []
    cur = list(v)
    stride = isqrt(n)
    nonzero = [j for j, c in enumerate(u) if c]
    j = nonzero[0] if nonzero else 0
    block = min(stride, length) if len(nonzero) > 1 and n >= _HGCD_MIN else 0
    if block:
        w = _slot_bytes(p, n)
        q = row = [c % p for c in u]
        for r in range(1, block):
            row = op.apply_transpose(row)
            q = [a + (b << (8 * w * r)) for a, b in zip(q, row)]
    for i in range(length):
        if i:
            cur = matvec(op, cur, meter)
        if giants is not None and i < n and i % stride == 0:
            giants.append(cur)
        if meter is not None:
            meter.mul += n
            meter.add += n - 1
        if not block:
            seq.append((sum(map(mul, u, cur)) if len(nonzero) > 1
                        else u[j] * cur[j]) % p)
        elif i % block == 0:
            x = [a % p for a in cur]
            seq += _unpack(sum(map(mul, x, q)), w, block, p)[:length - i]
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
    res = _strip(_unpack(prod >> (8 * w * d), w, d, p))
    return Poly(field, tuple(res), _canonical=True)


def minimal_generator_pair(op: LinearOp, u: list, v: list,
                           meter: CostMeter | None = None) -> GeneratorPair:
    """Generator and residue from 2n sequence terms (Berlekamp-Massey)."""
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
            return _unpack(sum(map(mul, cs, packed)), size, n, p)
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
