"""Test-only helpers: an identity matrix, a seeded interactive session,
counters of forks and of the Krylov rows made in this process, a
Fiat-Shamir grinder, a scripted challenge source, a Fiat-Shamir source
that hashes the whole material on every draw, the completeness trials of
criterion 4, dense references (a linear solve, a single-matrix
determinant, the charpoly pair from eliminations on the raw rows, a
vector's Krylov annihilator and the minimal polynomial as an lcm over the
unit vectors) and per-element references for the bulk int/bytes
conversions (Kronecker slots, vector wire bytes and vector parsing) that
no library path runs."""

import hashlib
import os
from random import Random

from certilin import (Accept, HonestProver, Poly, PrimeField, SparseMatrix,
                      fiat_shamir, krylov, poly_lcm)
from certilin.challenges import _chunks
from certilin.harness import (TrialReport, _play_trials, _trial_matrix,
                              run_protocol, subseed)
from certilin.messages import _parse_scalar
from certilin.oracle import (_interpolate, _krylov_minpoly, dense_det,
                             materialize)


def identity_matrix(field, n):
    return SparseMatrix(field, n, [(i, i, 1) for i in range(n)])


def count_forks(monkeypatch) -> list:
    """A list that gains one entry for each ``os.fork`` call from now on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def count_row_passes(monkeypatch) -> list:
    """A list that gains one entry for each ``krylov._transposed_rows`` call
    in this process from now on; a forked helper's calls land in its own
    copy of the list."""
    passes, rows = [], krylov._transposed_rows
    monkeypatch.setattr(krylov, "_transposed_rows",
                        lambda *args: passes.append(1) or rows(*args))
    return passes


def grind(protocol, a, prover, tries):
    """(tries, transcript, outcome) of the first Fiat-Shamir session with
    ``prover(0)``, ``prover(1)``, ... that the verifier accepts, or None
    after ``tries`` rejected ones: a cheating prover that retries offline
    until the hash gives it a lucky challenge."""
    for i in range(tries):
        transcript, outcome = fiat_shamir(protocol, a, prover(i))
        if isinstance(outcome, Accept):
            return i + 1, transcript, outcome
    return None


def run_completeness(protocol, trials, n, p, seed, matrix=None):
    """``trials`` honest interactive sessions on one matrix, tallied in a
    TrialReport: a nonsingular ``n`` x ``n`` one drawn from ``seed`` unless
    ``matrix`` is given."""
    field = PrimeField(p)
    setup = subseed(seed, "setup")
    a = matrix if matrix is not None else _trial_matrix(field, n, setup)
    return _play_trials(TrialReport(protocol, "honest", n, p, trials),
                        HonestProver, a, setup, seed)


def accept_rate(report):
    return report.accepted / report.trials


def seeded_session(protocol, a, seed, prover=None, u=None, v=None):
    """One interactive session whose challenges draw from Random(seed).

    Without a prover, an honest one draws from that same generator, so the
    prover and the challenges share one stream.
    """
    rng = Random(seed)
    if prover is None:
        prover = HonestProver(a.field, rng)
    return run_protocol(protocol, a, prover, rng, u=u, v=v)


class ScriptedChallenges:
    """Fixed initial draws, then a fallback source."""

    def __init__(self, script, fallback):
        self.script = list(script)
        self.fallback = fallback
        self.needs_material = getattr(fallback, "needs_material", True)

    def draw(self, field, material):
        if self.script:
            return field.check(self.script.pop(0))
        return self.fallback.draw(field, material)


class RehashingFiatShamir:
    """Fiat-Shamir draws keyed by the SHA-256 of the whole material, taken
    on every draw: the reference for FiatShamirChallenges' seeding once per
    message."""

    needs_material = True

    def __init__(self):
        self._stream = None
        self._material_digest = None

    def draw(self, field, material):
        tag = hashlib.sha256(material).digest()
        if tag != self._material_digest:
            self._material_digest = tag
            self._stream = _chunks(tag)
        p = field.p
        limit = ((1 << 64) // p) * p
        while True:
            chunk = next(self._stream)
            if chunk < limit:
                return chunk % p


def dense_solve(rows, b, field):
    """One solution of A x = b by Gauss-Jordan, or None if inconsistent."""
    p = field.p
    n = len(rows)
    m = [rows[i][:] + [b[i] % p] for i in range(n)]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[piv], m[rank] = m[rank], m[piv]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(n):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * c) % p for a, c in zip(m[r], m[rank])]
        pivots.append(col)
    if any(m[r][n] for r in range(len(pivots), n)):
        return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][n]
    return x


def reference_det(rows, field):
    """Determinant of one matrix by Gaussian elimination, the whole matrix
    only: the reference for dense_det's pair."""
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


def reference_charpoly(rows, field):
    """(det(x*I - M), det(x*I - M')) for M' the leading (n-1)-block, from
    one dense_det of x*I - M on the raw rows at each of x = 0..n: the
    O(n^4) reference for dense_charpoly's Hessenberg form."""
    p, n = field.p, len(rows)
    xs = list(range(n + 1))
    pairs = [dense_det([[((x if i == j else 0) - v) % p
                         for j, v in enumerate(row)]
                        for i, row in enumerate(rows)], field)
             for x in xs]
    return tuple(_interpolate(field, xs, *zip(*pairs)))


def vector_minpoly(a, v):
    """Minimal annihilator of the Krylov stream v, A v, A^2 v, ..."""
    return _krylov_minpoly(materialize(a), a.field, v)


def reference_minpoly(a):
    """The lcm of the unit vectors' Krylov annihilators, all n of them."""
    f = Poly.one(a.field)
    for j in range(a.n):
        f = poly_lcm(f, vector_minpoly(a, [int(i == j) for i in range(a.n)]))
    return f


def reference_pack(c, w):
    """Kronecker packing one coefficient at a time: w little-endian bytes."""
    return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in c]),
                          "little")


def reference_unpack(x, w, n, p):
    """The first n w-byte slots of x one at a time, reduced mod p."""
    b = x.to_bytes(n * w, "little")
    return [int.from_bytes(b[i:i + w], "little") % p
            for i in range(0, n * w, w)]


def reference_vec_bytes(v):
    """Length, then each element, as 8 little-endian bytes apiece."""
    return b"".join([x.to_bytes(8, "little") for x in (len(v), *v)])


def reference_parse_vec(field, tok, lineno):
    """A comma-joined vector parsed and range-checked token by token."""
    return tuple(_parse_scalar(field, part, lineno) for part in tok.split(","))
