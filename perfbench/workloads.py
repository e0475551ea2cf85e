"""The benchmark's three workloads: seeded inputs, sessions and output checks.

Every input is generated here from the seed; nothing comes from the
library's own generators, so a change to ``certilin.harness`` cannot change
a workload.  Matrices are upper triangular with distinct nonzero diagonal
entries d_1..d_n, which makes every expected answer a cheap formula at any
size: det = prod d_i, and the minimal and characteristic polynomials are
both prod (x - d_i), checked at a point r drawn from the seed.

A workload is built by ``Workload(seed)`` (the set-up the benchmark times)
and then run in rounds: ``round(r)`` returns the sessions of round r as
zero-argument callables, each returning a :class:`Session`.  A round holds
every session kind of the workload in fixed proportions, so totals over
whole rounds are exact functions of the seed and the number of rounds.
"""

from __future__ import annotations

import traceback
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from random import Random
from time import perf_counter

from certilin import (Accept, BadChallenge, HonestProver, ParseError,
                      PrimeField, Reject, SparseMatrix, adversarial_prover,
                      budget_report, fiat_shamir, parse_transcript,
                      verify_noninteractive)
from certilin.harness import run_protocol

LARGE_N = 800
LARGE_P = 10**9 + 7
LARGE_UPPER_NNZ = round(5 / LARGE_N * LARGE_N * (LARGE_N - 1) / 2)  # density 5/n
SMALL_N = 10
SMALL_P = 1_000_003
SMALL_UPPER_NNZ = round(0.3 * SMALL_N * (SMALL_N - 1) / 2)
# Odd, so that the traced (even) rounds of small-trials visit every matrix.
SMALL_POOL = 5
TAMPERED_COPIES = 8
FS_PROTOCOLS = ("det-gamma", "minpoly")
DET_PROTOCOLS = ("det-diag", "det-gamma", "det-simple")
POLY_PROTOCOLS = ("minpoly", "minpoly-pc", "charpoly")


@dataclass(slots=True)
class Session:
    """What one session did, as the benchmark measured and checked it."""

    kind: str
    seconds: float                  # wall time of the measured calls
    failure: str | None = None      # first failed check, None when correct
    accepted: bool = False
    bad_challenge: bool = False
    escape: bool = False            # adversarial Accept under a bound < 1
    prove_s: float | None = None
    verify_s: float | None = None
    transcript_bytes: int | None = None
    verifier_ops: int | None = None     # metered verifier field operations
    prover_matvecs: int | None = None
    prover_field_ops: int | None = None
    transcript: object = None       # the live transcript, when there is one


# -- inputs -------------------------------------------------------------------


@dataclass
class Instance:
    """A seeded triangular matrix with its expected answers."""

    a: SparseMatrix
    entries: tuple           # (i, j, value) as generated
    diag: tuple
    det: int
    point: int
    at_point: int            # prod (point - d_i) mod p
    u: list | None = None    # fauv projections, see with_projections
    v: list | None = None
    projected_gen: tuple | None = None   # minimal generator of (u^T A^i v)


def make_instance(p: int, n: int, upper_nnz: int, rng: Random) -> Instance:
    """Upper triangular, distinct nonzero diagonal, exactly upper_nnz above it."""
    diag = rng.sample(range(1, p), n)
    entries = [(i, i, d) for i, d in enumerate(diag)]
    # Row i owns the linear cell indices [starts[i], starts[i] + n - 1 - i).
    starts = [i * n - i * (i + 1) // 2 for i in range(n)]
    for k in rng.sample(range(n * (n - 1) // 2), upper_nnz):
        i = bisect_right(starts, k) - 1
        entries.append((i, i + 1 + k - starts[i], rng.randrange(1, p)))
    det = 1
    for d in diag:
        det = det * d % p
    point = rng.randrange(p)
    at_point = 1
    for d in diag:
        at_point = at_point * (point - d) % p
    return Instance(SparseMatrix(PrimeField(p), n, entries), tuple(entries),
                    tuple(diag), det, point, at_point)


def with_projections(inst: Instance, rng: Random) -> Instance:
    """Add seeded fauv projections u, v and the generator they must certify.

    prod (x - d_i) annihilates a_i = u^T A^i v and is squarefree, so the
    minimal generator is what remains after dropping every root whose
    removal still leaves an annihilator of the first 2n terms.
    """
    a, diag = inst.a, inst.diag
    n, p = a.n, a.field.p
    u = [rng.randrange(p) for _ in range(n)]
    v = [rng.randrange(p) for _ in range(n)]
    seq, x = [], list(v)
    for _ in range(2 * n):
        seq.append(sum(s * t for s, t in zip(u, x)) % p)
        y = [0] * n
        for i, j, val in inst.entries:
            y[i] += val * x[j]
        x = [t % p for t in y]

    def annihilates(g):
        d = len(g) - 1
        return all(sum(g[k] * seq[j + k] for k in range(d + 1)) % p == 0
                   for j in range(2 * n - d))

    gen = [1]
    for d in diag:                      # gen *= (x - d)
        gen = [(lo - d * hi) % p for lo, hi in zip([0] + gen, gen + [0])]
    for d in diag:                      # try gen / (x - d)
        q = [0] * (len(gen) - 1)
        carry = 0
        for k in range(len(gen) - 1, 0, -1):
            carry = (gen[k] + d * carry) % p
            q[k - 1] = carry
        if annihilates(q):
            gen = q
    return replace(inst, u=u, v=v, projected_gen=tuple(gen))


def horner(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# -- checks -------------------------------------------------------------------


def result_ok(protocol: str, result, inst: Instance) -> bool:
    """Is an accepted result the right answer for this instance?"""
    if protocol in DET_PROTOCOLS:
        return result == inst.det
    coeffs = getattr(result, "coeffs", None)
    if coeffs is None:
        return False
    if protocol in POLY_PROTOCOLS:
        p = inst.a.field.p
        return (len(coeffs) == inst.a.n + 1 and coeffs[-1] == 1
                and horner(coeffs, inst.point, p) == inst.at_point)
    return tuple(coeffs) == inst.projected_gen        # fauv, fauv-merged


def certified_failure(protocol: str, outcome, inst: Instance, *,
                      adversarial: bool = False):
    """First failed check of a live session's outcome, or None.

    An adversarial Accept is an escape, counted per layer, not a failure:
    every attack in the traffic has a soundness bound below 1.
    """
    if isinstance(outcome, Accept):
        if adversarial:
            return None
        return None if result_ok(protocol, outcome.result, inst) else "wrong-result"
    if isinstance(outcome, Reject):
        return "honest-reject" if not adversarial else None
    if isinstance(outcome, BadChallenge):
        return None
    return "unknown-outcome"


def replay_failure(protocol: str, outcome, recorded, inst: Instance, *,
                   tampered: bool):
    """First failed check of a replay; outcome None means a ParseError."""
    if tampered:
        return None if outcome is None or isinstance(outcome, Reject) else "tampered-accepted"
    if outcome != recorded:
        return "verdict-mismatch"
    if isinstance(outcome, Accept) and not result_ok(protocol, outcome.result, inst):
        return "wrong-result"
    return None


def _budget_failure(transcript, a):
    return None if budget_report(transcript, a).ok else "budget-overrun"


def _guarded(kind, body) -> Session:
    """Run a session body; an exception is a failed session, not a crash."""
    start = perf_counter()
    try:
        return body()
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Session(kind, perf_counter() - start,
                       failure=f"exception: {exc!r} at {where.filename}:{where.lineno}")


def tamper(text: str, rng: Random) -> str:
    """Flip one digit inside a prover payload of a rendered transcript."""
    lines = text.split("\n")
    li = rng.choice([i for i, line in enumerate(lines) if line.startswith("prover ")])
    line = lines[li]
    payload_at = line.index(" ", len("prover ")) + 1
    pos = rng.choice([i for i in range(payload_at, len(line)) if line[i].isdigit()])
    digit = rng.choice([d for d in "0123456789" if d != line[pos]])
    lines[li] = line[:pos] + digit + line[pos + 1:]
    return "\n".join(lines)


# -- workloads ----------------------------------------------------------------


class LargeProve:
    """Honest Fiat-Shamir det-gamma and minpoly sessions at n = 800.

    Each session proves, renders, parses and replays the transcript.  A
    round is one session of each protocol, so they run in equal numbers.
    """

    name = "large-prove"

    def __init__(self, seed: int):
        self.seed = seed
        self.inst = make_instance(LARGE_P, LARGE_N, LARGE_UPPER_NNZ,
                                  Random(f"{seed}:large-prove"))

    def round(self, r: int):
        return [partial(self.session, protocol, len(FS_PROTOCOLS) * r + k)
                for k, protocol in enumerate(FS_PROTOCOLS)]

    def session(self, protocol: str, index: int) -> Session:
        return _guarded(protocol, partial(self._session, protocol, index))

    def _session(self, protocol, index):
        inst = self.inst
        a = inst.a
        prover = HonestProver(a.field, Random(f"{self.seed}:prover:{index}"))
        t0 = perf_counter()
        transcript, outcome = fiat_shamir(protocol, a, prover)
        t1 = perf_counter()
        text = transcript.render()
        t2 = perf_counter()
        replayed, vm = verify_noninteractive(parse_transcript(text), a)
        t3 = perf_counter()
        failure = (certified_failure(protocol, outcome, inst)
                   or replay_failure(protocol, replayed, outcome, inst, tampered=False)
                   or _budget_failure(transcript, a))
        return Session(protocol, t3 - t0, failure,
                       accepted=isinstance(outcome, Accept),
                       bad_challenge=isinstance(outcome, BadChallenge),
                       prove_s=t1 - t0, verify_s=t3 - t2,
                       transcript_bytes=len(text.encode()),
                       verifier_ops=vm.field_ops,
                       prover_matvecs=transcript.prover_meter.matvec,
                       prover_field_ops=transcript.prover_meter.field_ops,
                       transcript=transcript)


# (protocol, adversarial strategy or None, perfectly complete); the mix of
# the completeness (honest) and soundness (attack) acceptance criteria.
SMALL_TRAFFIC = (
    ("fauv-merged", None, False),
    ("minpoly", None, True),
    ("det-diag", None, False),
    ("det-gamma", None, False),
    ("charpoly", None, False),
    ("fauv", "wrong_generator", False),
    ("det-simple", "wrong_generator", False),
)


class SmallTrials:
    """Interactive seeded sessions at n = 10, honest and adversarial.

    A round runs the whole traffic mix on each matrix of the pool.  Set-up
    ends with one warm-up round, so the oracle caches that the honest
    prover fills are full before the measured loop starts, as they are in
    10^4-trial runs; the warm-up counts as set-up time.
    """

    name = "small-trials"

    def __init__(self, seed: int):
        self.seed = seed
        rng = Random(f"{seed}:small-trials")
        self.pool = [with_projections(make_instance(SMALL_P, SMALL_N, SMALL_UPPER_NNZ, rng), rng)
                     for _ in range(SMALL_POOL)]
        for job in self.round(-1):
            warm = job()
            if warm.failure:
                raise RuntimeError(f"warm-up session failed: {warm.kind}: {warm.failure}")

    def round(self, r: int):
        jobs = []
        for m, inst in enumerate(self.pool):
            for k, traffic in enumerate(SMALL_TRAFFIC):
                index = (r * SMALL_POOL + m) * len(SMALL_TRAFFIC) + k
                jobs.append(partial(self.session, inst, traffic, index))
        return jobs

    def session(self, inst, traffic, index) -> Session:
        protocol, strategy, complete = traffic
        kind = f"{protocol}/{strategy}" if strategy else (
            "minpoly-pc" if complete else protocol)
        return _guarded(kind, partial(self._session, kind, inst, traffic, index))

    def _session(self, kind, inst, traffic, index):
        protocol, strategy, complete = traffic
        field = inst.a.field
        cls = adversarial_prover(strategy) if strategy else HonestProver
        prover = cls(field, Random(f"{self.seed}:prover:{index}"))
        challenge_rng = Random(f"{self.seed}:challenge:{index}")
        t0 = perf_counter()
        transcript, outcome = run_protocol(protocol, inst.a, prover, challenge_rng,
                                           u=inst.u, v=inst.v,
                                           perfectly_complete=complete)
        seconds = perf_counter() - t0
        failure = (certified_failure(protocol, outcome, inst, adversarial=bool(strategy))
                   or _budget_failure(transcript, inst.a))
        accepted = isinstance(outcome, Accept)
        return Session(kind, seconds, failure, accepted=accepted,
                       bad_challenge=isinstance(outcome, BadChallenge),
                       escape=accepted and bool(strategy),
                       verifier_ops=transcript.verifier_meter.field_ops,
                       prover_matvecs=transcript.prover_meter.matvec,
                       prover_field_ops=transcript.prover_meter.field_ops,
                       transcript=transcript)


# (protocol, tampered): three honest replays in four.  An honest minpoly
# replay costs about twice a det-gamma one, and a tampered replay that fails
# to parse costs less still.  Five in eight are honest minpoly replays, so
# the median session lies inside that cluster whatever the tampered copies
# cost, not on the gap between two clusters.
REPLAY_ROUND = (("minpoly", False), ("det-gamma", False), ("minpoly", False),
                ("det-gamma", True), ("minpoly", False), ("minpoly", False),
                ("minpoly", True), ("minpoly", False))


class VerifyReplay:
    """Replays of two n = 800 Fiat-Shamir transcripts, a quarter tampered.

    Set-up proves one honest det-gamma and one honest minpoly transcript
    and renders them; a session is parse_transcript + verify_noninteractive.
    """

    name = "verify-replay"

    def __init__(self, seed: int):
        rng = Random(f"{seed}:verify-replay")
        self.inst = make_instance(LARGE_P, LARGE_N, LARGE_UPPER_NNZ, rng)
        a = self.inst.a
        self.recorded, self.texts, self.tampered = {}, {}, {}
        for protocol in FS_PROTOCOLS:
            prover = HonestProver(a.field, Random(f"{seed}:replay-prover:{protocol}"))
            transcript, outcome = fiat_shamir(protocol, a, prover)
            failure = (certified_failure(protocol, outcome, self.inst)
                       or _budget_failure(transcript, a))
            if failure or not isinstance(outcome, Accept):
                raise RuntimeError(f"set-up {protocol} session: {failure or outcome}")
            text = transcript.render()
            self.recorded[protocol] = transcript
            self.texts[protocol] = text
            self.tampered[protocol] = [tamper(text, rng) for _ in range(TAMPERED_COPIES)]

    def round(self, r: int):
        return [partial(self.session, protocol, tampered, r)
                for protocol, tampered in REPLAY_ROUND]

    def session(self, protocol, tampered, r) -> Session:
        kind = f"{protocol}/tampered" if tampered else protocol
        return _guarded(kind, partial(self._session, kind, protocol, tampered, r))

    def _session(self, kind, protocol, tampered, r):
        # Rounds 2k and 2k+1 replay the same copy, so the traced and the
        # untraced rounds of a traced run see the same inputs.
        text = (self.tampered[protocol][r // 2 % TAMPERED_COPIES] if tampered
                else self.texts[protocol])
        a = self.inst.a
        t0 = perf_counter()
        try:
            outcome, vm = verify_noninteractive(parse_transcript(text), a)
        except ParseError:
            outcome = vm = None
        seconds = perf_counter() - t0
        recorded = self.recorded[protocol]
        failure = replay_failure(protocol, outcome, recorded.outcome, self.inst,
                                 tampered=tampered)
        if failure is None and vm is not None:
            failure = _budget_failure(replace(recorded, verifier_meter=vm), a)
        return Session(kind, seconds, failure,
                       accepted=isinstance(outcome, Accept),
                       verify_s=seconds, transcript_bytes=len(text.encode()),
                       verifier_ops=vm.field_ops if vm is not None else None)


WORKLOADS = {cls.name: cls for cls in (LargeProve, SmallTrials, VerifyReplay)}
