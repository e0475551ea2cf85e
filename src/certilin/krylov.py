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
unpacked once.  ``polynomial._pack`` and ``_unpack`` convert whole lists
between ints and slots of little-endian bytes, whatever the host's byte
order, through 8-byte machine words: every packed operand is reduced to
canonical residues first, and each unpack returns residues mod p.

The sequence is one pass: one chain computes x_i = A^i v for i <= h and
keeps the giant steps.  Below the size rule, and for a u with at most one
nonzero entry (det-gamma's e_1) when no helper runs, x_i gives term i as a
dot or one product.  Otherwise the pass uses the transposition principle
(Bostan, Lecerf & Schost 2003): u^T A^(i+j) v = ((A^T)^j u) . x_i, so with
the rows (A^T)^j u packed per coordinate, s to a block, each x_i with i a
multiple of s gives s terms per block in one sum of big-by-small products.
From n = ``_SPLIT_MIN`` up a sequence longer than n has its rows made by a
helper process forked for the pass, beside this process's chain to
h = max(n, length // 2): the helper computes (A^T)^j u for j <= top =
max(length - 1 - h, s - 1) and sends its first s and last s rows over a
pipe, and x_h gives terms too.  Otherwise this process makes one block of
s rows itself, with s - 1 transposed products, and runs its chain to
h = length - 1.  It also does so when the process may not run on two CPUs,
has no ``os.fork``, runs another thread or ignores SIGCHLD (a wait would
then block until every child had ended, and fail), and when ``os.fork``
fails (EAGAIN, ENOMEM).  Sequence, giant steps and meter are the same bit
for bit in every case: the meter charges length - 1 applications of A, the
helper's products standing in for forward ones of the same cost, and each
term the n multiplications and n - 1 additions of a dense dot product.

The helper inherits the operator, so nothing but rows and an error is
sent.  Just before the fork this process calls the operator's
``_warm_transpose``: a sparse A whose own matvec is compiled (from its
second split pass on) compiles A^T here, once, and every later helper
inherits it; a custom operator inherits a no-op.  The helper always leaves
through ``os._exit``, and this process always reaps it, killing it first
when its own part fails.  An exception in the helper is raised here with
its type and message.  A complete reply (status byte 0 and every block) is
kept even when a SIGCHLD handler reaped the helper first, so that its exit
code is unknowable (ECHILD): the helper sends that reply only after its
last row.  Any other reply raises ``ChildProcessError``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections import deque
from contextlib import suppress
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
    multiple of s = isqrt(n).  The rows come reduced from
    ``apply_transpose``, and each x_i is reduced before its packed product.
    Below _HGCD_MIN the dots stay for every u: the packed path takes
    1.2-1.4x their time at n = 10 and breaks even between n = 25 and 56
    (``micro`` in BENCH_packed-projections.json).  The chain here makes h
    applications of A; the meter charges the first one length - h times,
    length - 1 in all, and every term a dot product.
    """
    if length < 1:
        raise UsageError("sequence length must be >= 1")
    n = op.n
    if len(u) != n or len(v) != n:
        raise UsageError("projection dimension mismatch")
    p, s = op.field.p, min(isqrt(n), length)
    w = _slot_bytes(p, n)
    pid = 0
    if n >= _SPLIT_MIN and length > n and _may_fork():
        h = max(n, length // 2)
        pid, pipe = _fork(op, u, max(length - 1 - h, s - 1), s, w)
    if not pid:
        h = length - 1
    top = max(length - 1 - h, s - 1)
    nonzero = [j for j, c in enumerate(u) if c]
    j = nonzero[0] if nonzero else 0
    packed = pid or n >= _HGCD_MIN and len(nonzero) > 1
    rows = _transposed_rows(op, u, top, s, w) if packed and not pid else b""
    unit, seq, points, code = CostMeter(), [0] * length, [], None
    cur = list(v)
    try:
        for i in range(h + 1):
            if i:
                cur = matvec(op, cur, unit if i == 1 else meter)
            if giants is not None and i < n and i % s == 0:
                giants.append(cur)
            if not packed:
                seq[i] = (sum(map(mul, u, cur)) if len(nonzero) > 1
                          else u[j] * cur[j]) % p
            elif i % s == 0 or i == h < length - 1:
                points.append((i, cur))
        if pid:
            rows = pipe.read()
    except BaseException:
        if pid:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            pipe.close()
            with suppress(ChildProcessError):   # reaped by a SIGCHLD handler
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    offsets = ((0, top - s + 1) if top >= s else (0,)) if packed else ()
    size = s * w
    if pid:
        if rows[:1] == b"\1":
            raise pickle.loads(rows[1:])
        if rows[:1] != b"\0" or len(rows) != 1 + len(offsets) * n * size:
            raise ChildProcessError(f"Krylov helper exited with code {code}")
        rows = memoryview(rows)[1:]
    for b, offset in enumerate(offsets):
        q = [int.from_bytes(rows[k:k + size], "little")
             for k in range(b * n * size, (b + 1) * n * size, size)]
        for i, x in points:
            terms = _unpack(sum(map(mul, [a % p for a in x], q)), w, s, p)
            seq[i + offset:i + offset + s] = terms[:length - i - offset]
    if meter is not None:
        for name, count in vars(unit).items():
            setattr(meter, name, getattr(meter, name) + (length - h) * count)
        meter.mul += length * n
        meter.add += length * (n - 1)
    return seq


# From this n up a sequence longer than n runs on two processes.  Forking
# the helper and its set-up and compiling of A^T cost milliseconds: on two
# vCPUs the split pass took 0.7-1.8x the serial pass's time at n = 150,
# 0.7-1.05x at 200 and 0.6-0.95x at 250 (sparse A with a dense u, and
# A*Gamma with e_1; BENCH_krylov-split.json).
_SPLIT_MIN = 256


def _may_fork() -> bool:
    """Whether a helper process can run beside this one on another CPU, and
    be waited for here."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return (hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN)


def _fork(op: LinearOp, u: list, top: int, s: int, w: int):
    """(pid, read end) of a helper forked to send the rows up to ``top``, or
    (0, None) when ``os.fork`` fails."""
    op._warm_transpose()
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException as exc:
        os.close(rfd)
        os.close(wfd)
        if not isinstance(exc, OSError):
            raise
        return 0, None
    if not pid:
        os.close(rfd)
        _helper(op, u, top, s, w, wfd)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _transposed_rows(op: LinearOp, u: list, top: int, s: int, w: int) -> bytes:
    """Rows (A^T)^j u for j < s, then, when top >= s, for top - s < j <= top.

    Each block is n runs of s w-byte slots: run k holds coordinate k of the
    block's rows in order, reduced mod p.
    """
    row = [c % op.field.p for c in u]
    low, high = [], deque(maxlen=s)
    for j in range(top + 1):
        if j:
            row = op.apply_transpose(row)
        if j < s:
            low.append(row)
        high.append(row)
    blocks = []
    for rows in (low, high) if top >= s else (low,):
        slots = [c for col in zip(*rows) for c in col]
        blocks.append(_pack(slots, w).to_bytes(len(slots) * w, "little"))
    return b"".join(blocks)


def _helper(op: LinearOp, u: list, top: int, s: int, w: int, fd: int):
    """Body of the forked helper: write 0 and the rows, or 1 and the error
    pickled, then exit with that code."""
    code = 1
    try:
        try:
            data, code = _transposed_rows(op, u, top, s, w), 0
        except Exception as exc:    # sent to the parent, which raises it
            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(fd, "wb") as pipe:
            pipe.write(bytes([code]) + data)
    finally:
        os._exit(code)


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
