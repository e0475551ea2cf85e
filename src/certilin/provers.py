"""Honest and adversarial prover implementations.

A prover object serves one protocol session.  The session state is a
black-box operator, a right projection vector and two generator/residue
pairs: the pair the prover *commits* and the pair it believes to be
*true*.  For the honest prover these coincide; adversarial provers
corrupt the committed pair (or another message) while keeping every
message syntactically well formed, so that rejection exercises the
verifier's probabilistic checks rather than its syntactic gate.

Adversarial strategies:

``wrong_generator``   commits a monic generator different from the true one
``wrong_residue``     keeps the generator, corrupts the residue
``forged_bezout``     derives the Bezout pair through an independent route;
                      within the enforced degree bounds that pair is unique,
                      so this strategy is non-exposing by construction
``wrong_solution``    answers the challenge with a uniformly random vector
``degree_pad``        commits a strict multiple of the true generator
``singular_denial``   hides a kernel vector and certifies a nonzero result
"""

from __future__ import annotations

from random import Random

from .blackbox import DiagonalMatrix, GammaMatrix, LinearOp, ProductOp, gamma_det
from .errors import (BadShiftError, IntegrityError, OracleCapError,
                     ProtocolInternalError, UsageError)
from .field import PrimeField
from .krylov import GeneratorPair, minimal_generator_pair, solve_shifted
from .meter import CostMeter
from .oracle import (dense_charpoly, materialize, oracle_charpoly,
                     oracle_kernel, oracle_minpoly)
from .polynomial import Poly, poly_gcd, poly_lcm, xgcd

PRECONDITIONER_TRIES = 16
SECONDARY_TRIES = 64


class HonestProver:
    """Reference prover; subclass hooks carry the adversarial strategies."""

    name = "honest"

    def __init__(self, field: PrimeField, rng: Random):
        self.field = field
        self.rng = rng
        self.meter = CostMeter()
        self._box = None
        self._v = None
        self._true = None
        self._commit = None

    # -- strategy hooks ----------------------------------------------------

    def _corrupt_pair(self, pair: GeneratorPair, box: LinearOp) -> GeneratorPair:
        return pair

    def _corrupt_simple(self, pair: GeneratorPair, box: LinearOp) -> GeneratorPair:
        """The det-simple commitment; (chi_B, chi_minor) is a pair like any other."""
        return self._corrupt_pair(pair, box)

    def _accept_preconditioner(self, usable: bool) -> bool:
        """Whether to keep a preconditioner draw; ``usable`` says it works."""
        return usable

    # -- generator certificate steps ------------------------------------------

    def _set_session(self, box: LinearOp, v: list, pair: GeneratorPair,
                     corrupt=None) -> GeneratorPair:
        self._box = box
        self._v = list(v)
        self._true = pair
        self._commit = (corrupt or self._corrupt_pair)(pair, box)
        return self._commit

    def open_session(self, box: LinearOp, u: list, v: list) -> GeneratorPair:
        """Compute and commit the generator/residue pair for (box, u, v)."""
        pair = minimal_generator_pair(box, u, v, self.meter)
        return self._set_session(box, v, pair)

    def committed_pair(self) -> GeneratorPair:
        if self._commit is None:
            raise UsageError("no open session")
        return self._commit

    def bezout(self):
        """Cofactors certifying coprimality of the committed pair."""
        gen, res = self._commit.gen, self._commit.res
        if res.is_zero():
            return Poly.one(self.field), Poly.zero(self.field)
        g, phi, psi = xgcd(gen, res)
        if g.degree != 0:
            raise IntegrityError("committed pair is not coprime")
        return phi, psi

    def solution(self, r1: int):
        """Solve the shifted system, or report an unlucky challenge.

        Candidate annihilators are generator polynomials for the session's
        right vector; each divides the true Krylov annihilator, so a root
        at the challenge is a genuine inconsistency.  Residual failures
        mean the candidate was a proper divisor; fresh projections are
        folded in until it is not (Las Vegas: each one reveals v's
        minimal annihilator with probability at least 1 - deg/p).

        det-simple's chi_B annihilates every vector (Cayley-Hamilton); the
        verifier draws r1 off the committed chi_B, so only a false
        commitment meets a root of the true one.
        """
        box, v, giants = self._box, self._v, self._true.giants
        cand = self._true.gen
        while True:
            try:
                return solve_shifted(box, r1, v, cand, self.meter, giants)
            except BadShiftError:
                return None
            except IntegrityError:
                u2 = self.field.sample_vector(self.rng, box.n, self.meter)
                extra = minimal_generator_pair(box, u2, v, self.meter)
                cand = poly_lcm(cand, extra.gen)

    # -- determinant protocol steps ---------------------------------------------

    def singularity_witness(self, box: LinearOp):
        """Kernel vector when the operator is singular, else None.

        Above the dense-oracle cap the oracle refuses before any dense work
        and the prover sends no witness; a genuinely singular operator then
        surfaces later as preconditioner exhaustion.
        """
        try:
            return oracle_kernel(box)
        except OracleCapError:
            return None

    def choose_diagonal(self, box: LinearOp):
        """Nonzero diagonal and projections giving a degree-n generator."""
        field, n = self.field, box.n
        for _ in range(PRECONDITIONER_TRIES):
            diag = [field.sample_nonzero(self.rng, self.meter) for _ in range(n)]
            u = field.sample_vector(self.rng, n, self.meter)
            v = field.sample_vector(self.rng, n, self.meter)
            preconditioned = ProductOp(DiagonalMatrix(field, diag), box)
            pair = minimal_generator_pair(preconditioned, u, v, self.meter)
            if self._accept_preconditioner(pair.gen.degree == n):
                self._set_session(preconditioned, v, pair)
                return diag, u, v
        raise ProtocolInternalError(
            "no diagonal preconditioner reached full degree; "
            "field too small or matrix singular")

    def choose_gamma(self, box: LinearOp):
        """Corner/diagonal preconditioner values giving a degree-n generator."""
        field, n = self.field, box.n
        e1 = [1] + [0] * (n - 1)
        for _ in range(PRECONDITIONER_TRIES):
            s = field.sample(self.rng, self.meter)
            t = field.sample(self.rng, self.meter)
            gamma = GammaMatrix(field, n, t=t, s=s)
            if gamma_det(gamma) == 0:
                continue
            preconditioned = ProductOp(box, gamma)
            pair = minimal_generator_pair(preconditioned, e1, e1, self.meter)
            if self._accept_preconditioner(pair.gen.degree == n):
                self._set_session(preconditioned, e1, pair)
                return s, t
        raise ProtocolInternalError(
            "no gamma preconditioner reached full degree; "
            "field too small or matrix singular")

    # -- simple determinant protocol ------------------------------------------

    def choose_simple(self, box: LinearOp):
        """Gamma's (s, t); opens the session on B = A*Gamma, e_n, (chi_B, chi_minor).

        chi_minor is the charpoly of B's leading (n-1)-block; one
        dense_charpoly call reads both off a Hessenberg form of B.
        """
        field, n = self.field, box.n
        dense = materialize(box)
        for _ in range(PRECONDITIONER_TRIES):
            s = field.sample(self.rng, self.meter)
            t = field.sample(self.rng, self.meter)
            gamma = GammaMatrix(field, n, t=t, s=s)
            if gamma_det(gamma) == 0:
                continue
            rows = [gamma.apply_transpose(r) for r in dense]  # rows of A*Gamma
            char_full, char_minor = dense_charpoly(rows, field)
            if not self._accept_preconditioner(
                    poly_gcd(char_full, char_minor).degree == 0):
                continue
            self._set_session(ProductOp(box, gamma), [0] * (n - 1) + [1],
                              GeneratorPair(char_full, char_minor),
                              self._corrupt_simple)
            return s, t
        raise ProtocolInternalError("no coprime characteristic pair found")

    simple_solution = solution

    # -- minimal polynomial extras -----------------------------------------------

    def secondary_projection(self, box: LinearOp):
        """Projections exposing the full minimal polynomial, when needed.

        Returns None when the open session's projections already reveal it.
        Used by the perfectly complete variant; requires the dense oracle.
        """
        full = oracle_minpoly(box)
        if self._true.gen == full:
            return None
        for _ in range(SECONDARY_TRIES):
            u2 = self.field.sample_vector(self.rng, box.n, self.meter)
            v2 = self.field.sample_vector(self.rng, box.n, self.meter)
            candidate = minimal_generator_pair(box, u2, v2, self.meter)
            if candidate.gen.degree == full.degree:
                return u2, v2
        # Exhaustion would mean the original projections were fine after
        # all; fall back to the single certificate.
        return None

    def charpoly_claim(self, box: LinearOp) -> Poly:
        return oracle_charpoly(box)


# -- adversarial strategies ----------------------------------------------------


def _coprime_perturb(field: PrimeField, start: Poly, against: Poly) -> Poly:
    """Smallest constant bump making ``start`` coprime to ``against``."""
    bump = 1
    while True:
        candidate = start + Poly.constant(field, bump)
        if poly_gcd(against, candidate).degree == 0:
            return candidate
        bump += 1


class WrongGeneratorProver(HonestProver):
    name = "wrong_generator"

    def _corrupt_pair(self, pair, box):
        field = self.field
        gen = pair.gen
        if gen.degree == 0:
            forged = Poly.x(field)
            return GeneratorPair(forged, Poly.one(field))
        j = self.rng.randrange(gen.degree)
        forged = gen + Poly(field, [0] * j + [1])
        res = _coprime_perturb(field, pair.res, forged)
        return GeneratorPair(forged, res)


class WrongResidueProver(HonestProver):
    name = "wrong_residue"

    def _corrupt_pair(self, pair, box):
        if pair.gen.degree == 0:
            # Cannot forge a residue below degree 0; fall back to a wrong pair.
            return WrongGeneratorProver._corrupt_pair(self, pair, box)
        res = _coprime_perturb(self.field, pair.res, pair.gen)
        return GeneratorPair(pair.gen, res)


class ForgedBezoutProver(HonestProver):
    name = "forged_bezout"

    def bezout(self):
        # Independent derivation: run the extended Euclidean algorithm on the
        # swapped pair and swap the cofactors back.  The enforced degree
        # bounds make the valid pair unique, so this lands on the honest one.
        gen, res = self._commit.gen, self._commit.res
        if res.is_zero():
            return Poly.one(self.field), Poly.zero(self.field)
        _, psi, phi = xgcd(res, gen)
        return phi, psi


class WrongSolutionProver(HonestProver):
    name = "wrong_solution"

    def solution(self, r1):
        return self.field.sample_vector(self.rng, self._box.n, self.meter)

    simple_solution = solution


class DegreePadProver(HonestProver):
    name = "degree_pad"

    def _corrupt_pair(self, pair, box):
        field = self.field
        if pair.gen.degree >= box.n:
            return WrongGeneratorProver._corrupt_pair(self, pair, box)
        c = field.sample(self.rng)
        factor = Poly(field, [field.neg(c), 1])
        forged = pair.gen * factor
        res = _coprime_perturb(field, pair.res * factor, forged)
        return GeneratorPair(forged, res)


class SingularDenialProver(HonestProver):
    """Hides singularity: no witness, commits a full-degree nonzero claim."""

    name = "singular_denial"

    def singularity_witness(self, box):
        return None

    def _random_full_degree(self, n):
        field = self.field
        coeffs = [field.sample_nonzero(self.rng)]
        coeffs += [field.sample(self.rng) for _ in range(n - 1)]
        coeffs.append(1)
        return Poly(field, coeffs)

    def _corrupt_pair(self, pair, box):
        field, n = self.field, box.n
        forged = self._random_full_degree(n)
        res = _coprime_perturb(
            field, Poly(field, [field.sample(self.rng) for _ in range(n)]), forged)
        return GeneratorPair(forged, res)

    def _corrupt_simple(self, pair, box):
        # The true minor, perturbed, under a random full-degree chi.
        forged = self._random_full_degree(box.n)
        return GeneratorPair(forged, _coprime_perturb(self.field, pair.res, forged))

    def _accept_preconditioner(self, usable):
        # The first nonsingular preconditioner will do: the forged
        # commitment does not depend on it.
        return True


class WrongClaimProver(HonestProver):
    """Sends a perturbed characteristic polynomial claim, then plays honestly.

    charpoly's ``wrong_generator``; not a strategy of its own.
    """

    name = "wrong_claim"

    def charpoly_claim(self, box):
        return oracle_charpoly(box) + Poly.one(self.field)


STRATEGIES = {
    cls.name: cls
    for cls in (WrongGeneratorProver, WrongResidueProver, ForgedBezoutProver,
                WrongSolutionProver, DegreePadProver, SingularDenialProver)
}


def adversarial_prover(strategy: str):
    """Factory for a prover class implementing the named deviation."""
    try:
        return STRATEGIES[strategy]
    except KeyError:
        raise UsageError(
            f"unknown strategy {strategy!r}; known: {', '.join(sorted(STRATEGIES))}"
        ) from None
