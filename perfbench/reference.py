"""A fixed pure-Python kernel that tells how fast the host runs right now.

On a shared host the speed of pure Python code drifts by a third and more,
over seconds and over minutes, while the process keeps its CPU: neighbours
on the same physical cores slow it down, not the scheduler.  The benchmark
times this kernel between sessions and divides each session's time by the
kernel time measured around it, which cancels most of that drift.

The kernel imports nothing from certilin and never changes with it, so a
change to the library moves the ratio and a change of host speed does
not.  Its work mirrors the prover's hot loops at the size of the
large-prove workload: sparse matrix-vector products over GF(p) at n = 800
(about 70% of its time) and a polynomial Euclidean remainder sequence
(the rest), about 0.15 s in all on a 2-vCPU Xeon virtual machine.
"""

from __future__ import annotations

from random import Random
from time import perf_counter

P = 10**9 + 7
N = 800
MATVECS = 300
DEGREE = 400

_rng = Random("perfbench-reference")
ENTRIES = tuple(sorted((i, _rng.randrange(i, N), _rng.randrange(1, P))
                       for i in range(N) for _ in range(3)))
X0 = tuple(_rng.randrange(P) for _ in range(N))
A = tuple([_rng.randrange(P) for _ in range(DEGREE)] + [1])
B = tuple([_rng.randrange(P) for _ in range(DEGREE - 1)] + [1])
del _rng


def _remainder(a: list, b: tuple) -> list:
    r = list(a)
    inv = pow(b[-1], -1, P)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv % P
        if c:
            for i, bi in enumerate(b):
                r[k + i] = (r[k + i] - c * bi) % P
    r = r[:len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    return r


def kernel() -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    x = X0
    for _ in range(MATVECS):
        y = [0] * N
        for i, j, v in ENTRIES:
            y[i] = (y[i] + v * x[j]) % P
        x = y
    a, b = list(A), B
    while b:
        a, b = b, tuple(_remainder(a, b))
    return (sum(x) + sum(a)) % P


CHECKSUM = kernel()


def seconds() -> float:
    """Wall time of one run of the kernel, checked against its known result."""
    start = perf_counter()
    value = kernel()
    elapsed = perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError("the reference kernel gave a different result")
    return elapsed
