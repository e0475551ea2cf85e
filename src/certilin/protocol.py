"""Interactive certificates as explicit prover/verifier sessions.

Each protocol is written once as a *flow*: straight-line verifier logic
that pulls prover messages and pushes challenges through one run object,
``_Run``.  A run has two sources for the prover's messages.  Live, it asks
a prover object for each one; on replay, it reads them back from a parsed
Fiat-Shamir transcript.  The rest is the same for both: challenges come
from the challenge source (seeded randomness, or Fiat-Shamir hashing of
the canonical session bytes) and are compared with the recorded ones,
every message is recorded and metered, and every check runs.  So any
tampering with a transcript surfaces as a failed parse, a challenge
mismatch or a failed check.  One table, ``_PROTOCOLS``, maps each
protocol id to its flow and to every other fact about it.

Outcomes are three-valued: Accept carries the certified object, Reject
means the prover was exposed, BadChallenge means the verifier's own
randomness made the session unprovable (the Monte Carlo failure case,
never conflated with Reject).

Verifier work is metered exactly: polynomial evaluations charge their
degree in multiplications and additions, applying an operator charges its
per-shape cost, and the final budget can be checked against the protocol
bounds (mu(A) + 17n for the two-point generator certificate, mu(A) + 13n
merged, mu(A) + 15n and mu(A) + 13n plus a logarithmic term for the two
determinant certificates; communication 4n / 8n / 5n).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .blackbox import (DiagonalMatrix, GammaMatrix, ProductOp, ShiftOp,
                       SparseMatrix, gamma_det, matrix_digest, matvec)
from .challenges import FiatShamirChallenges
from .errors import FieldTooSmallError, MatrixMismatchError, UsageError
from .field import dot, scale_sub
from .messages import (Accept, BadChallenge, Bezout, Commitment,
                       DiagonalAnnounce, GammaAnnounce, PointChallenge,
                       Projection, Reject, SecondaryProjection,
                       SingularResult, SingularityWitness, Solution,
                       POLY, Transcript, header_bytes, message_bytes,
                       wire_cost)
from .meter import CostMeter
from .polynomial import Poly, poly_gcd

def field_size_bound(protocol_id: str, n: int) -> int:
    """Minimal field size required for the protocol's soundness analysis."""
    return protocol_spec(protocol_id).field_bound(n)


def require_field_size(protocol_id: str, n: int, p: int):
    bound = field_size_bound(protocol_id, n)
    if p < bound:
        raise FieldTooSmallError(protocol_id, p, bound)


class _RejectSignal(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _BadChallengeSignal(Exception):
    def __init__(self, detail: str):
        self.detail = detail


def _reject(reason: str):
    raise _RejectSignal(reason)


# -- session runs ---------------------------------------------------------


class _Run:
    """One session of a flow, live or replayed.

    A live run (``recorded`` is None) asks the prover's producers for each
    message; a replay reads the next message of the recorded transcript
    instead and rejects any other role or kind.  Either way the message is
    recorded, hashed into the Fiat-Shamir material and charged to its
    sender's meter, and every check after it runs the same.
    """

    def __init__(self, protocol_id, field, n, digest, challenges,
                 prover_meter, recorded: Transcript | None = None):
        self.field = field
        self.n = n
        self.vm = CostMeter()
        self.pm = prover_meter
        self.challenges = challenges
        self.recorded = recorded
        self.live = recorded is None
        self.messages = []
        self._material = (bytearray(header_bytes(protocol_id, n, field.p, digest))
                          if challenges.needs_material else None)

    def exhausted(self) -> bool:
        """Whether a replay has read every recorded message."""
        return not self.live and len(self.messages) >= len(self.recorded.messages)

    def _take(self, role, kind, producer, optional=False):
        if self.live:
            msg = producer()
            if msg is None and optional:
                return None
            if msg.kind != kind:
                raise UsageError(f"prover produced {msg.kind}, expected {kind}")
        else:
            pos = len(self.messages)
            r, msg = (self.recorded.messages[pos]
                      if pos < len(self.recorded.messages) else (None, None))
            if r != role or msg.kind != kind:
                if optional:
                    return None
                _reject("malformed-transcript")
        self.messages.append((role, msg))
        if self._material is not None:
            self._material += message_bytes(role, msg)
        (self.pm if role == "prover" else self.vm).elements_sent += wire_cost(msg)
        return msg

    def draw_quiet(self) -> int:
        self.vm.random_draws += 1
        return self.challenges.draw(self.field, self._material)

    def prover_message(self, kind, producer, optional=False):
        """A prover message; an optional one is None when the prover sends none."""
        return self._take("prover", kind, producer, optional)

    def solution(self, producer):
        """The prover's solution message.

        A live prover that has none, or a replay whose transcript ends here
        in BadChallenge, makes the session a bad challenge.
        """
        def produce():
            w = producer()
            if w is None:
                raise _BadChallengeSignal("unlucky-challenge")
            return Solution(tuple(w))

        if self.exhausted() and isinstance(self.recorded.outcome, BadChallenge):
            raise _BadChallengeSignal(self.recorded.outcome.detail)
        return self._take("prover", "solution", produce)

    def record_challenge(self, value) -> int:
        msg = self._take("verifier", "challenge", lambda: PointChallenge(value))
        if msg.value != value:
            _reject("challenge-mismatch")
        return value

    def challenge(self) -> int:
        return self.record_challenge(self.draw_quiet())

    def drawn_projection(self, n):
        u = tuple(self.draw_quiet() for _ in range(n))
        v = tuple(self.draw_quiet() for _ in range(n))
        msg = self._take("verifier", "projection", lambda: Projection(u, v))
        if msg.u != u or msg.v != v:
            _reject("challenge-mismatch")
        return list(u), list(v)

    def public_projection(self, u, v):
        return self.checked_projection(self._take(
            "verifier", "projection", lambda: Projection(tuple(u), tuple(v))))

    def checked_projection(self, msg):
        """A projection message's u and v, each of length n, as lists."""
        if len(msg.u) != self.n or len(msg.v) != self.n:
            _reject("malformed-transcript")
        return list(msg.u), list(msg.v)


# -- the generator-certificate core (all protocols reduce to it) -----------


def _fauv_core(run, box, prover, u, v, *, merged, require_deg=None,
               basis_projection=False):
    """Verifier logic of the linear-generator certificate.

    Returns the accepted generator polynomial; raises reject or
    bad-challenge signals otherwise.  ``merged`` shares the coprimality
    point with the final evaluation point.  ``require_deg`` adds the exact
    degree gate used by the determinant protocols.  ``basis_projection``
    marks u = e1 so the projection of the solution is a free coordinate
    pick instead of a metered dot product.
    """
    field, vm = run.field, run.vm
    p = field.p
    n = box.n
    com = _commitment(run, prover)
    gen, res = com.gen, com.res

    # Syntactic gate: monicity and degree bounds come before any randomness.
    if not gen.is_monic() or gen.degree > n:
        _reject("malformed-commitment")
    if require_deg is not None and gen.degree != require_deg:
        _reject("degree-requirement")
    if not res.degree < gen.degree:
        _reject("malformed-commitment")

    bez = run.prover_message("bezout", lambda: Bezout(*prover.bezout()))
    phi, psi = bez.phi, bez.psi
    phi_bound = 0 if res.is_zero() else res.degree - 1
    if phi.degree > phi_bound or psi.degree > gen.degree - 1:
        _reject("bezout-degree")

    r0 = run.challenge()
    r1 = r0 if merged else run.challenge()

    e_gen0 = gen.eval(r0, vm)
    e_res0 = res.eval(r0, vm)
    e_phi = phi.eval(r0, vm)
    e_psi = psi.eval(r0, vm)
    vm.mul += 2
    vm.add += 1
    if (e_phi * e_gen0 + e_psi * e_res0) % p != 1:
        _reject("coprimality-check")

    w = _checked_solution(run, box, r1, v, lambda: prover.solution(r1))
    if merged:
        e_gen1, e_res1 = e_gen0, e_res0
    else:
        e_gen1 = gen.eval(r1, vm)
        e_res1 = res.eval(r1, vm)
    if basis_projection:
        uw = w[0]
    else:
        uw = dot(field, u, w, vm)
    vm.mul += 1
    if uw * e_gen1 % p != e_res1:
        _reject("evaluation-check")
    return gen


def _commitment(run, prover):
    """The prover's committed pair, as the session holds it."""
    def produce():
        pair = prover.committed_pair()
        return Commitment(pair.gen, pair.res)

    return run.prover_message("commit", produce)


def _checked_solution(run, box, r1, target, producer):
    """The prover's w, checked to solve (r1 I - box) w = target."""
    w = list(run.solution(producer).w)
    if len(w) != box.n:
        _reject("malformed-solution")
    image = matvec(box, w, run.vm)
    if scale_sub(run.field, r1, w, image, run.vm) != target:
        _reject("residual-check")
    return w


def _gamma_announce(run, n, producer):
    """The prover's Gamma preconditioner and its determinant, checked nonzero."""
    msg = run.prover_message("precond", producer)
    if not isinstance(msg, GammaAnnounce):
        _reject("malformed-preconditioner")
    gamma = GammaMatrix(run.field, n, t=msg.t, s=msg.s)
    denom = gamma_det(gamma, run.vm)
    if denom == 0:
        _reject("gamma-singular")
    return gamma, denom


def _witness_branch(run, box, prover):
    """Singularity-witness fork of the determinant protocols."""
    def produce():
        w = prover.singularity_witness(box)
        return None if w is None else SingularityWitness(tuple(w))

    msg = run.prover_message("witness", produce, optional=True)
    if msg is None:
        return None
    w = list(msg.w)
    if len(w) != box.n or not any(w):
        _reject("witness-check")
    image = matvec(box, w, run.vm)
    if any(image):
        _reject("witness-check")
    return SingularResult()


def _extract_det(run, gen, denominator) -> int:
    """(-1)^n gen(0) / denominator; one inversion, explicit sign."""
    field, vm = run.field, run.vm
    c0 = gen.constant_term()
    if run.n % 2 == 1:
        c0 = field.neg(c0)
        vm.add += 1
    vm.mul += 1
    return c0 * field.inv(denominator, vm) % field.p


# -- protocol flows ----------------------------------------------------------


# Every flow has the signature flow(run, a, prover, u, v, **spec.options):
# u and v are the caller's projections, which only the fauv flows read.  On
# replay the prover and the projections are None.


def _flow_fauv(run, a, prover, u, v, merged):
    u, v = run.public_projection(u, v)
    if run.live:
        prover.open_session(a, u, v)
    return _fauv_core(run, a, prover, u, v, merged=merged)


def _flow_minpoly(run, a, prover, u, v, perfectly_complete):
    u, v = run.drawn_projection(a.n)
    if run.live:
        prover.open_session(a, u, v)

    def produce_secondary():
        extra = prover.secondary_projection(a)
        return None if extra is None else SecondaryProjection(
            tuple(extra[0]), tuple(extra[1]))

    msg = (run.prover_message("projection2", produce_secondary, optional=True)
           if perfectly_complete else None)
    first = _fauv_core(run, a, prover, u, v, merged=True)
    if msg is None:
        return first
    u2, v2 = run.checked_projection(msg)
    if run.live:
        prover.open_session(a, u2, v2)
    second = _fauv_core(run, a, prover, u2, v2, merged=True)
    if not second.degree > first.degree:
        _reject("degree-requirement")
    return second


def _flow_det_diag(run, a, prover, u, v):
    singular = _witness_branch(run, a, prover)
    if singular is not None:
        return singular
    field, n = run.field, a.n
    if run.live:
        diag, u, v = prover.choose_diagonal(a)
    else:
        diag = u = v = None
    dmsg = run.prover_message("precond", lambda: DiagonalAnnounce(tuple(diag)))
    if not isinstance(dmsg, DiagonalAnnounce) or len(dmsg.diag) != n:
        _reject("malformed-preconditioner")
    if not all(dmsg.diag):
        _reject("malformed-preconditioner")
    u, v = run.checked_projection(run.prover_message(
        "projection", lambda: Projection(tuple(u), tuple(v))))
    box = ProductOp(DiagonalMatrix(field, dmsg.diag), a)
    gen = _fauv_core(run, box, prover, u, v, merged=True, require_deg=n)
    det_d = 1
    p = field.p
    for d in dmsg.diag:
        det_d = det_d * d % p
    run.vm.mul += n - 1
    return _extract_det(run, gen, det_d)


def _flow_det_gamma(run, a, prover, u, v):
    singular = _witness_branch(run, a, prover)
    if singular is not None:
        return singular
    n = a.n
    gamma, denom = _gamma_announce(
        run, n, lambda: GammaAnnounce(*prover.choose_gamma(a)))
    e1 = [1] + [0] * (n - 1)
    gen = _fauv_core(run, ProductOp(a, gamma), prover, e1, e1, merged=True,
                     require_deg=n, basis_projection=True)
    return _extract_det(run, gen, denom)


_SIMPLE_CHALLENGE_TRIES = 64


def _flow_det_simple(run, a, prover, u, v):
    singular = _witness_branch(run, a, prover)
    if singular is not None:
        return singular
    vm, n = run.vm, a.n
    gamma, denom = _gamma_announce(
        run, n, lambda: GammaAnnounce(*prover.choose_simple(a)))
    com = _commitment(run, prover)
    full, minor = com.gen, com.res
    if not full.is_monic() or full.degree != n:
        _reject("malformed-commitment")
    if not minor.is_monic() or minor.degree != n - 1:
        _reject("malformed-commitment")
    # This protocol predates the Bezout trick: a real GCD on the verifier side.
    if poly_gcd(full, minor, vm).degree != 0:
        _reject("gcd-check")
    e_full = None
    r1 = None
    for _ in range(_SIMPLE_CHALLENGE_TRIES):
        candidate = run.draw_quiet()
        e = full.eval(candidate, vm)
        if e != 0:
            r1, e_full = candidate, e
            break
    if r1 is None:
        raise _BadChallengeSignal("no-usable-challenge")
    run.record_challenge(r1)
    e_last = [0] * (n - 1) + [1]
    w = _checked_solution(run, ProductOp(a, gamma), r1, e_last,
                          lambda: prover.simple_solution(r1))
    e_minor = minor.eval(r1, vm)
    vm.mul += 1
    if w[n - 1] * e_full % run.field.p != e_minor:
        _reject("cramer-check")
    return _extract_det(run, full, denom)


def _flow_charpoly(run, a, prover, u, v):
    field, vm, n = run.field, run.vm, a.n

    def produce_claim():
        return Commitment(prover.charpoly_claim(a), Poly.zero(field))

    com = run.prover_message("commit", produce_claim)
    claim = com.gen
    if not claim.is_monic() or claim.degree != n or not com.res.is_zero():
        _reject("malformed-commitment")
    point = run.challenge()
    shifted = ShiftOp(point, a)
    sub = _flow_det_gamma(run, shifted, prover, u, v)
    e_claim = claim.eval(point, vm)
    if isinstance(sub, SingularResult):
        if e_claim != 0:
            _reject("charpoly-mismatch")
    elif sub != e_claim:
        _reject("charpoly-mismatch")
    return claim


# -- the protocol registry ----------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the library knows about one protocol id.

    ``flow`` is the verifier logic, ``certify`` the name of the public entry
    point that runs it live; ``options`` are the fixed keyword arguments of
    both.
    Budgets take (mu, n, log_term) and n; None means no bound is enforced.
    ``error`` is the analytic per-session error term, the chance d/p that a
    cheating prover survives one challenge, as a function of (n, p).
    ``generator_unsent`` leaves the committed generator out of the
    communication count, since it is the protocol's output.  ``result``
    names what an Accept certifies: "generator", "minpoly", "charpoly" or
    "det".  ``cli`` offers the id on the command line (the two variants are
    reached by their ids).
    """

    flow: Callable
    certify: str
    field_bound: Callable
    error: Callable
    rejection_label: str
    result: str
    options: tuple = ()
    ops_budget: Callable | None = None
    sent_budget: Callable | None = None
    generator_unsent: bool = False
    cli: bool = True

    @property
    def projections(self) -> bool:
        """Whether the caller supplies the projections u and v."""
        return self.certify == "certify_generator"

    def rejection(self, n, p):
        """The analytic bound on a cheating prover's rejection rate."""
        return 1 - self.error(n, p)

    def soundness_bits(self, n, p):
        """-log2 of the error term: the bits a session gives against a
        prover that retries offline, 0 when the field is too small for any.

        Taken from the error term itself: 1 - rejection keeps only a few of
        its bits at a 62-bit p (50.0 for 50.04 at n = 800).
        """
        return max(0.0, -math.log2(self.error(n, p)))


def _merged_point(n, p):
    """Merged-point protocols share one evaluation point."""
    return (5 * n - 3) / p


def _generator_bound(n):
    return 5 * n - 2


def _gamma_bound(n):
    return max(n * n - n, 5 * n - 2)


_PROTOCOLS = {
    "fauv": ProtocolSpec(
        flow=_flow_fauv, certify="certify_generator",
        options=(("merged", False),), field_bound=lambda n: 3 * n,
        # 1 - (1 - (2n - 2)/p) * (1 - (3n - 1)/p): one check at each point.
        error=lambda n, p: (5 * n - 3 - (2 * n - 2) * (3 * n - 1) / p) / p,
        rejection_label="two-point", result="generator",
        ops_budget=lambda mu, n, log: mu + 17 * n, sent_budget=lambda n: 4 * n,
        generator_unsent=True),
    "fauv-merged": ProtocolSpec(
        flow=_flow_fauv, certify="certify_generator",
        options=(("merged", True),), field_bound=_generator_bound,
        error=_merged_point, rejection_label="merged-point",
        result="generator", ops_budget=lambda mu, n, log: mu + 13 * n,
        sent_budget=lambda n: 4 * n, generator_unsent=True, cli=False),
    "minpoly": ProtocolSpec(
        flow=_flow_minpoly, certify="certify_minpoly",
        options=(("perfectly_complete", False),), field_bound=_generator_bound,
        error=_merged_point, rejection_label="merged-point",
        result="minpoly", ops_budget=lambda mu, n, log: mu + 13 * n),
    # Runs up to two generator certificates, so it has no linear budget.
    "minpoly-pc": ProtocolSpec(
        flow=_flow_minpoly, certify="certify_minpoly",
        options=(("perfectly_complete", True),),
        field_bound=_generator_bound, error=_merged_point,
        rejection_label="merged-point", result="minpoly", cli=False),
    "det-diag": ProtocolSpec(
        flow=_flow_det_diag, certify="certify_det_diag",
        field_bound=lambda n: max(n * (n - 1) // 2, 5 * n - 2),
        error=_merged_point, rejection_label="merged-point", result="det",
        ops_budget=lambda mu, n, log: mu + 15 * n + log,
        sent_budget=lambda n: 8 * n),
    "det-gamma": ProtocolSpec(
        flow=_flow_det_gamma, certify="certify_det_gamma",
        field_bound=_gamma_bound, error=_merged_point,
        rejection_label="merged-point", result="det",
        ops_budget=lambda mu, n, log: mu + 13 * n + log,
        sent_budget=lambda n: 5 * n),
    "det-simple": ProtocolSpec(
        flow=_flow_det_simple, certify="certify_det_simple",
        field_bound=_gamma_bound,
        error=lambda n, p: (3 * n - 2) / (p - n),
        rejection_label="quotient-of-minors", result="det"),
    "charpoly": ProtocolSpec(
        flow=_flow_charpoly, certify="certify_charpoly",
        field_bound=_gamma_bound, error=lambda n, p: 2 * n / p,
        rejection_label="claim-collision", result="charpoly"),
}

PROTOCOL_IDS = tuple(_PROTOCOLS)


def protocol_spec(protocol_id: str) -> ProtocolSpec:
    try:
        return _PROTOCOLS[protocol_id]
    except KeyError:
        raise UsageError(f"unknown protocol {protocol_id!r}") from None


# -- public entry points ------------------------------------------------------


def _play(protocol_id, run, a, prover=None, u=None, v=None):
    """Run the protocol's flow and turn its signals into an outcome."""
    spec = _PROTOCOLS[protocol_id]
    try:
        return Accept(spec.flow(run, a, prover, u, v, **dict(spec.options)))
    except _RejectSignal as sig:
        return Reject(sig.reason)
    except _BadChallengeSignal as sig:
        return BadChallenge(sig.detail)


def _require_sparse(a):
    if not isinstance(a, SparseMatrix):
        raise UsageError("protocols take the public matrix in sparse form")


def _execute(protocol_id, a, prover, challenges, u=None, v=None):
    _require_sparse(a)
    require_field_size(protocol_id, a.n, a.field.p)
    digest = matrix_digest(a)
    run = _Run(protocol_id, a.field, a.n, digest, challenges, prover.meter)
    outcome = _play(protocol_id, run, a, prover, u, v)
    transcript = Transcript(protocol_id, a.n, a.field.p, digest,
                            run.messages, outcome, run.vm,
                            prover.meter.snapshot())
    return transcript, outcome


def certify_generator(a, u, v, prover, *, merged=False, challenges):
    """Certificate for the minimal generator of (u^T A^i v)."""
    _require_sparse(a)
    if u is None or v is None:
        raise UsageError("fauv protocols need explicit projections")
    u = a.field.check_vector(u)
    v = a.field.check_vector(v)
    if len(u) != a.n or len(v) != a.n:
        raise UsageError("projection dimension mismatch")
    return _execute("fauv-merged" if merged else "fauv", a, prover, challenges,
                    u, v)


def certify_minpoly(a, prover, *, perfectly_complete=False, challenges):
    """Certificate for the minimal polynomial under random projections."""
    return _execute("minpoly-pc" if perfectly_complete else "minpoly", a,
                    prover, challenges)


def certify_det_diag(a, prover, *, challenges):
    """Determinant certificate with diagonal preconditioning."""
    return _execute("det-diag", a, prover, challenges)


def certify_det_gamma(a, prover, *, challenges):
    """Determinant certificate with corner/diagonal preconditioning."""
    return _execute("det-gamma", a, prover, challenges)


def certify_det_simple(a, prover, *, challenges):
    """The quotient-of-minors determinant protocol (dense prover work)."""
    return _execute("det-simple", a, prover, challenges)


def certify_charpoly(a, prover, *, challenges):
    """Characteristic polynomial by reduction to a determinant certificate."""
    return _execute("charpoly", a, prover, challenges)


def _dispatch(protocol_id, a, prover, challenges, u=None, v=None):
    """Run the named protocol through its public ``certify_*`` entry point.

    The entry point is looked up by its module-level name at call time, so
    a wrapper installed on this module (a tracer, a profiler) sees every
    session.
    """
    spec = protocol_spec(protocol_id)
    options = dict(spec.options, challenges=challenges)
    certify = globals()[spec.certify]
    if spec.projections:
        return certify(a, u, v, prover, **options)
    return certify(a, prover, **options)


def fiat_shamir(protocol_id, a, prover, *, u=None, v=None):
    """Run the named protocol non-interactively; returns (Transcript, Outcome).

    The prover keeps its own randomness; every verifier challenge is
    derived by hashing the canonical session bytes.
    """
    return _dispatch(protocol_id, a, prover, FiatShamirChallenges(), u, v)


def verify_noninteractive(transcript: Transcript, a: SparseMatrix):
    """Replay a Fiat-Shamir transcript; returns (Outcome, verifier meter).

    Raises MatrixMismatchError when the transcript header does not match
    the given matrix (modulus, dimension or digest).
    """
    if transcript.p != a.field.p:
        raise MatrixMismatchError("transcript modulus does not match the matrix")
    if transcript.n != a.n:
        raise MatrixMismatchError("transcript dimension does not match the matrix")
    if transcript.matrix_digest != matrix_digest(a):
        raise MatrixMismatchError("transcript digest does not match the matrix")
    pid = transcript.protocol_id
    require_field_size(pid, a.n, a.field.p)
    run = _Run(pid, a.field, a.n, transcript.matrix_digest,
               FiatShamirChallenges(), CostMeter(), recorded=transcript)
    outcome = _play(pid, run, a)
    if isinstance(outcome, Accept) and not run.exhausted():
        outcome = Reject("malformed-transcript")
    if not isinstance(outcome, Reject) and outcome != transcript.outcome:
        outcome = Reject("verdict-mismatch")
    return outcome, run.vm


# -- budget accounting ----------------------------------------------------------


@dataclass
class BudgetReport:
    protocol_id: str
    n: int
    mu: int
    verifier_ops: int
    ops_bound: int | None
    sent: int
    sent_bound: int | None
    random_draws: int
    prover_draws: int | None
    soundness_bits: float

    @property
    def ops_ok(self):
        return self.ops_bound is None or self.verifier_ops <= self.ops_bound

    @property
    def sent_ok(self):
        return self.sent_bound is None or self.sent <= self.sent_bound

    @property
    def ok(self):
        return self.ops_ok and self.sent_ok


def budget_report(transcript: Transcript, a: SparseMatrix) -> BudgetReport:
    """Check a session's meters against the protocol's stated budget.

    mu is the cost of applying the public matrix once (2 nnz for sparse).
    ``sent`` sums the wire cost of the prover's messages, so a parsed
    transcript counts what the live session charged.  A parsed transcript
    has no meters: it needs its replay's verifier meter attached, and its
    ``prover_draws`` is None, since the prover's draws never cross the wire.
    ``soundness_bits`` is the protocol's per-challenge soundness at the
    session's n and p.
    """
    vm, pm = transcript.verifier_meter, transcript.prover_meter
    if vm is None:
        raise UsageError("budget_report needs the verifier meter of a session "
                         "or of its replay")
    n = transcript.n
    mu = a.matvec_cost()
    pid = transcript.protocol_id
    spec = protocol_spec(pid)
    log_term = 4 * max(1, math.ceil(math.log2(n))) if n > 1 else 4
    sent = sum(wire_cost(m) for role, m in transcript.messages
               if role == "prover")
    if spec.generator_unsent:
        commit = next((m for role, m in transcript.messages
                       if role == "prover" and isinstance(m, Commitment)), None)
        if commit is not None:
            sent -= POLY.cost(commit.gen)
    return BudgetReport(
        protocol_id=pid,
        n=n,
        mu=mu,
        verifier_ops=vm.field_ops,
        ops_bound=spec.ops_budget(mu, n, log_term) if spec.ops_budget else None,
        sent=sent,
        sent_bound=spec.sent_budget(n) if spec.sent_budget else None,
        random_draws=vm.random_draws,
        prover_draws=None if pm is None else pm.random_draws,
        soundness_bits=spec.soundness_bits(n, transcript.p),
    )
