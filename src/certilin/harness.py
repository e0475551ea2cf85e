"""Trial harnesses: matrix generators, soundness attacks, budget benches.

Empirical rates are compared against the protocols' analytic bounds with a
3-sigma binomial allowance: an attack harness passes when the observed
rejection rate is at least bound - 3*sqrt(bound*(1-bound)/trials).

Everything is deterministic given its seed; independent trials derive
per-trial generators from the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from random import Random

from .blackbox import SparseMatrix
from .challenges import RandomChallenges
from .errors import UsageError
from .field import PrimeField
from .krylov import wiedemann_sequence
from .messages import Accept, BadChallenge, Reject, SingularResult
from .oracle import oracle_charpoly, oracle_det, oracle_minpoly, oracle_cap
from .polynomial import berlekamp_massey
from .protocol import (PROTOCOL_IDS, _dispatch, budget_report,
                       field_size_bound, fiat_shamir, protocol_spec,
                       verify_noninteractive)
from .provers import HonestProver, adversarial_prover

PROTOCOL_CHOICES = tuple(pid for pid in PROTOCOL_IDS if protocol_spec(pid).cli)


def three_sigma(q: float, trials: int) -> float:
    """3-sigma binomial allowance for a success probability q."""
    q = min(max(q, 0.0), 1.0)
    return 3.0 * math.sqrt(q * (1.0 - q) / trials)


def subseed(seed: int, *parts) -> Random:
    """Independent deterministic generator for a labeled trial."""
    return Random(":".join(str(x) for x in (seed, *parts)))


# -- matrix generators -----------------------------------------------------


def gen_sparse(field: PrimeField, n: int, density: float, rng: Random) -> SparseMatrix:
    """Random COO matrix; each cell filled with probability ``density``."""
    entries = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, rng.randrange(1, field.p)))
    return SparseMatrix(field, n, entries)


def gen_nonsingular(field: PrimeField, n: int, rng: Random,
                    density: float = 0.2) -> SparseMatrix:
    """Random nonsingular sparse matrix (nonzero diagonal, scattered upper).

    Triangular by construction, so the determinant is the diagonal product;
    works at any size without a dense check.
    """
    entries = [(i, i, rng.randrange(1, field.p)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                entries.append((i, j, rng.randrange(1, field.p)))
    return SparseMatrix(field, n, entries)


def gen_singular(field: PrimeField, n: int, rng: Random,
                 density: float = 0.4) -> SparseMatrix:
    """Random singular matrix: a dense-ish sample with one duplicated row."""
    if n < 2:
        return SparseMatrix(field, 1, [])
    while True:
        a = gen_sparse(field, n, density, rng)
        out = SparseMatrix(field, n, [e for e in a.entries if e[0] != n - 1]
                           + [(n - 1, j, v) for i, j, v in a.entries if i == 0])
        if out.nnz:
            return out


def random_nonsingular_dense_checked(field: PrimeField, n: int, rng: Random,
                                     density: float = 0.3) -> SparseMatrix:
    """Random sparse matrix, resampled until the dense oracle says det != 0."""
    while True:
        a = gen_sparse(field, n, density, rng)
        if oracle_det(a) != 0:
            return a


# -- protocol dispatch --------------------------------------------------------


def run_protocol(protocol: str, a: SparseMatrix, prover, challenge_rng,
                 u=None, v=None, perfectly_complete=False):
    """One interactive session with seeded verifier challenges.

    ``perfectly_complete`` is another spelling of the id "minpoly-pc".
    """
    if perfectly_complete and protocol == "minpoly":
        protocol = "minpoly-pc"
    return _dispatch(protocol, a, prover, RandomChallenges(challenge_rng), u, v)


def sample_projections(protocol: str, field: PrimeField, n: int, rng: Random) -> dict:
    """Random u, v for the protocols whose caller supplies the projections."""
    if not protocol_spec(protocol).projections:
        return {}
    return {"u": field.sample_vector(rng, n), "v": field.sample_vector(rng, n)}


# -- seeded trials ------------------------------------------------------------


def _trial_matrix(field: PrimeField, n: int, setup: Random) -> SparseMatrix:
    return (random_nonsingular_dense_checked(field, n, setup)
            if n <= oracle_cap() else gen_nonsingular(field, n, setup))


def _play_trials(report, cls, a, setup, seed):
    """Tally report.trials sessions of ``cls`` provers against a.

    The projections come from ``setup``; trial i seeds its prover and its
    challenges from ``seed`` under the labels "prover" and "challenge".
    """
    field, n = a.field, report.n
    u = field.sample_vector(setup, n)
    v = field.sample_vector(setup, n)
    for i in range(report.trials):
        prover = cls(field, subseed(seed, "prover", i))
        _, outcome = run_protocol(report.protocol, a, prover,
                                  subseed(seed, "challenge", i), u=u, v=v)
        if isinstance(outcome, Accept):
            report.accepted += 1
        elif isinstance(outcome, Reject):
            report.rejected += 1
        else:
            report.bad_challenge += 1
    return report


# -- soundness attacks --------------------------------------------------------


def rejection_bound(protocol: str, strategy: str, n: int, p: int):
    """Analytic lower bound on the rejection rate, with a short label."""
    spec = protocol_spec(protocol)
    if strategy == "forged_bezout":
        return None, "non-exposing"
    if strategy == "wrong_solution":
        return 1.0, "exact-residual"
    return spec.rejection(n, p), spec.rejection_label


def _strategy_class(protocol: str, strategy: str):
    aliases = dict(protocol_spec(protocol).strategy_aliases)
    return aliases.get(strategy) or adversarial_prover(strategy)


@dataclass
class TrialReport:
    """Tally of seeded sessions of one prover strategy ("honest" for
    completeness runs) against one protocol, with the analytic bound."""

    protocol: str
    strategy: str
    n: int
    p: int
    trials: int
    accepted: int = 0
    rejected: int = 0
    bad_challenge: int = 0
    bound: float | None = None
    allowance: float = 0.0
    label: str = ""

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.trials

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.trials

    @property
    def passed(self) -> bool:
        if self.label == "non-exposing":
            return self.accepted == self.trials
        if self.bound is None:
            return self.rejected == self.trials
        return self.rejection_rate >= self.bound - self.allowance


def run_attack(protocol: str, strategy: str, trials: int, n: int, p: int,
               seed: int) -> TrialReport:
    """Seeded adversarial sessions; reports empirical rejection vs bound."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    field = PrimeField(p)
    setup = subseed(seed, "setup")
    a = (gen_singular(field, n, setup) if strategy == "singular_denial"
         else _trial_matrix(field, n, setup))
    bound, label = rejection_bound(protocol, strategy, n, p)
    report = TrialReport(protocol, strategy, n, p, trials, bound=bound,
                         label=label,
                         allowance=three_sigma(bound, trials) if bound else 0.0)
    return _play_trials(report, _strategy_class(protocol, strategy), a, setup,
                        seed)


# -- completeness -----------------------------------------------------------------


def run_completeness(protocol: str, trials: int, n: int, p: int, seed: int,
                     matrix: SparseMatrix | None = None) -> TrialReport:
    field = PrimeField(p)
    setup = subseed(seed, "setup")
    a = matrix if matrix is not None else _trial_matrix(field, n, setup)
    return _play_trials(TrialReport(protocol, "honest", n, p, trials),
                        HonestProver, a, setup, seed)


# -- budget bench ------------------------------------------------------------------


def run_bench(protocol: str, sizes, p: int, seed: int,
              density: float | None = None) -> list:
    """One honest Fiat-Shamir session per size: (nnz, BudgetReport) each."""
    if any(n < 1 for n in sizes):
        raise UsageError(f"bench sizes must be >= 1, got {list(sizes)}")
    field = PrimeField(p)
    rows = []
    for n in sizes:
        rng = subseed(seed, "bench", protocol, n)
        d = density if density is not None else min(0.3, 5.0 / n)
        a = gen_nonsingular(field, n, rng, d)
        prover = HonestProver(field, rng)
        kw = sample_projections(protocol, field, n, rng)
        transcript, outcome = fiat_shamir(protocol, a, prover, **kw)
        if not isinstance(outcome, Accept):
            raise RuntimeError(f"bench session did not accept: {outcome}")
        rows.append((a.nnz, budget_report(transcript, a)))
    return rows


# -- selftest ---------------------------------------------------------------------


@dataclass
class SelftestReport:
    lines: list = dc_field(default_factory=list)
    failures: int = 0
    skipped: int = 0

    def note(self, text: str):
        self.lines.append(text)

    def check(self, label: str, ok: bool, detail: str = ""):
        if ok:
            self.lines.append(f"PASS {label}")
        else:
            self.failures += 1
            self.lines.append(f"FAIL {label}" + (f" ({detail})" if detail else ""))

    def skip(self, label: str, why: str):
        self.skipped += 1
        self.lines.append(f"SKIP {label} ({why})")

    @property
    def ok(self) -> bool:
        return self.failures == 0


_DET_PROTOCOLS = tuple(pid for pid in PROTOCOL_IDS
                       if protocol_spec(pid).result == "det")


def _matches_oracle(kind: str, a: SparseMatrix, projections: dict, result) -> bool:
    """Whether an accepted result agrees with the dense oracle of its kind."""
    if kind == "generator":
        # The BM generator of the actual sequence.
        seq = wiedemann_sequence(a, projections["u"], projections["v"], 2 * a.n)
        return berlekamp_massey(a.field, seq) == result
    if kind == "minpoly":
        return result == oracle_minpoly(a)
    if kind == "charpoly":
        return result == oracle_charpoly(a)
    expected = oracle_det(a)
    return (expected == 0 if isinstance(result, SingularResult)
            else result == expected)


def run_selftest(max_n: int, seeds: int, p: int, seed: int = 0) -> SelftestReport:
    """Cross-check every protocol against the dense oracles."""
    report = SelftestReport()
    field = PrimeField(p)
    cap = oracle_cap()
    if max_n > cap:
        raise UsageError(f"selftest needs max_n <= oracle cap ({cap})")
    if seeds < 1:
        raise UsageError("seeds must be >= 1")
    ladder = [n for n in (2, 3, 4, 6, 8, 10, 12) if n <= max_n] or [max_n]

    for k in range(seeds):
        n = ladder[k % len(ladder)]
        rng = subseed(seed, "matrix", k)
        a = random_nonsingular_dense_checked(field, n, rng)
        for protocol in PROTOCOL_CHOICES:
            label = f"{protocol} n={n} seed={k}"
            bound = field_size_bound(protocol, n)
            if p < bound:
                report.skip(label, f"field too small, requires p >= {bound}")
                continue
            prover = HonestProver(field, subseed(seed, "prover", k, protocol))
            kw = sample_projections(protocol, field, n, rng)
            # minpoly runs its perfectly complete variant, so it must
            # certify the full minimal polynomial.
            transcript, outcome = fiat_shamir(
                "minpoly-pc" if protocol == "minpoly" else protocol, a, prover,
                **kw)
            if isinstance(outcome, BadChallenge):
                report.note(f"NOTE {label}: bad challenge, uncertified")
                continue
            if not isinstance(outcome, Accept):
                report.check(label, False, f"outcome {outcome}")
                continue
            ok = _matches_oracle(protocol_spec(protocol).result, a, kw,
                                 outcome.result)
            replayed, _ = verify_noninteractive(transcript, a)
            report.check(label, ok and replayed == outcome)

    # Singular batch: every determinant protocol must certify singularity.
    for k in range(3):
        n = min(max_n, 6)
        a = gen_singular(field, n, subseed(seed, "singular", k))
        for protocol in _DET_PROTOCOLS:
            label = f"singular {protocol} n={n} seed={k}"
            if p < field_size_bound(protocol, n):
                report.skip(label, "field too small")
                continue
            prover = HonestProver(field, subseed(seed, "singular-prover", k, protocol))
            _, outcome = fiat_shamir(protocol, a, prover)
            ok = (isinstance(outcome, Accept)
                  and isinstance(outcome.result, SingularResult)
                  and oracle_det(a) == 0)
            report.check(label, ok)

    # Soundness spot checks.
    n = min(max_n, 8)
    if p >= field_size_bound("fauv", n):
        att = run_attack("fauv", "wrong_generator", 200, n, p, seed)
        report.check(
            f"attack fauv wrong_generator n={n}",
            att.passed, f"rate {att.rejection_rate:.3f} vs {att.bound:.3f}")
    if p >= field_size_bound("det-gamma", n):
        att = run_attack("det-gamma", "wrong_solution", 100, n, p, seed)
        report.check(f"attack det-gamma wrong_solution n={n}", att.passed)

    # Fiat-Shamir round-trip and tampering.
    n = min(max_n, 6)
    if p >= field_size_bound("det-gamma", n):
        a = random_nonsingular_dense_checked(field, n, subseed(seed, "fs"))
        prover = HonestProver(field, subseed(seed, "fs-prover"))
        transcript, outcome = fiat_shamir("det-gamma", a, prover)
        text = transcript.render()
        from .messages import parse_transcript
        replayed, _ = verify_noninteractive(parse_transcript(text), a)
        report.check("fiat-shamir round-trip", replayed == outcome)
        detected = 0
        tamper_rng = subseed(seed, "tamper")
        for _ in range(20):
            corrupted = _corrupt_payload_byte(text, tamper_rng)
            try:
                out, _ = verify_noninteractive(parse_transcript(corrupted), a)
                if not isinstance(out, Accept):
                    detected += 1
            except Exception:
                detected += 1
        report.check("fiat-shamir tamper detection", detected == 20,
                     f"{detected}/20")
    return report


def _corrupt_payload_byte(text: str, rng: Random) -> str:
    """Flip one digit inside a prover payload token of a transcript."""
    lines = text.rstrip("\n").split("\n")
    candidates = [i for i, line in enumerate(lines)
                  if line.startswith("prover ")]
    li = rng.choice(candidates)
    line = lines[li]
    positions = [i for i, ch in enumerate(line) if ch.isdigit()]
    pos = rng.choice(positions)
    old = line[pos]
    new = rng.choice([d for d in "0123456789" if d != old])
    lines[li] = line[:pos] + new + line[pos + 1:]
    return "\n".join(lines) + "\n"
