"""Test-only helpers: an identity matrix, a seeded interactive session, a
scripted challenge source, and two dense references (a linear solve and a
vector's Krylov annihilator) that no library path runs."""

from random import Random

from certilin import HonestProver, SparseMatrix
from certilin.harness import run_protocol
from certilin.oracle import _krylov_minpoly, materialize


def identity_matrix(field, n):
    return SparseMatrix(field, n, [(i, i, 1) for i in range(n)])


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


def vector_minpoly(a, v):
    """Minimal annihilator of the Krylov stream v, A v, A^2 v, ..."""
    return _krylov_minpoly(materialize(a), a.field, v)
