import math
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from certilin import (Accept, BadChallenge, FieldTooSmallError,
                      GammaMatrix, GeneratorPair, HonestProver, Poly,
                      PrimeField, ProductOp, ProtocolInternalError, Reject,
                      SingularResult, SparseMatrix, UsageError, budget_report,
                      certify_charpoly, certify_det_diag, certify_det_gamma,
                      certify_det_simple, certify_generator, certify_minpoly,
                      fiat_shamir, field_size_bound, oracle_charpoly,
                      oracle_det, oracle_minpoly)
from certilin.challenges import RandomChallenges
from certilin.harness import (gen_singular, gen_sparse,
                              random_nonsingular_dense_checked, run_protocol)
from certilin.oracle import dense_charpoly, materialize
from certilin.protocol import PROTOCOL_IDS, protocol_spec
from certilin.provers import WrongClaimProver

from helpers import (ScriptedChallenges, dense_solve, identity_matrix,
                     seeded_session)


def P(field, *coeffs):
    return Poly(field, coeffs)


def diag_matrix(field, values):
    return SparseMatrix(field, len(values), [(i, i, v) for i, v in enumerate(values)])


def swap_matrix(field):
    return SparseMatrix(field, 2, [(0, 1, 1), (1, 0, 1)])


# -- generator certificate ----------------------------------------------------


def test_fauv_swap_honest(fbig):
    a = swap_matrix(fbig)
    expected = P(fbig, -1, 0, 1)
    assert oracle_minpoly(a) == expected
    for seed in range(10):
        _, outcome = seeded_session("fauv", a, seed, u=[1, 0], v=[1, 0])
        assert outcome == Accept(expected)


def test_fauv_merged_identity(fbig):
    a = identity_matrix(fbig, 4)
    _, outcome = seeded_session("fauv-merged", a, 3, u=[1, 0, 0, 0],
                                v=[1, 0, 0, 0])
    assert outcome == Accept(P(fbig, -1, 1))


def test_fauv_merged_zero_matrix(fbig):
    a = SparseMatrix(fbig, 3, [])
    _, outcome = seeded_session("fauv-merged", a, 4, u=[1, 0, 0], v=[1, 0, 0])
    assert outcome == Accept(P(fbig, 0, 1))


def test_fauv_zero_projection(fbig):
    a = swap_matrix(fbig)
    _, outcome = seeded_session("fauv", a, 5, u=[0, 0], v=[1, 0])
    assert outcome == Accept(Poly.one(fbig))


def test_fauv_field_gate():
    f11 = PrimeField(11)
    a = identity_matrix(f11, 4)
    with pytest.raises(FieldTooSmallError) as e:
        seeded_session("fauv", a, 1, u=[1, 0, 0, 0], v=[1, 0, 0, 0])
    assert e.value.required == 12
    with pytest.raises(FieldTooSmallError) as e:
        seeded_session("minpoly", identity_matrix(f11, 10), 1)
    assert "requires p >= 48" in str(e.value)


def test_fauv_bad_challenge_path(fbig):
    # Identity matrix: the Krylov annihilator is x - 1, so challenge 1 is bad.
    a = identity_matrix(fbig, 3)
    ch = ScriptedChallenges([5, 1], RandomChallenges(Random(0)))
    _, outcome = certify_generator(a, [1, 0, 0], [1, 0, 0],
                                   HonestProver(fbig, Random(9)), challenges=ch)
    assert isinstance(outcome, BadChallenge)


def test_fauv_prover_matvec_budget(fbig):
    a = gen_sparse(fbig, 10, 0.3, Random(41))
    t, outcome = seeded_session("fauv", a, 42, u=[1] * 10, v=[2] * 10)
    assert isinstance(outcome, Accept)
    assert t.prover_meter.matvec <= 2 * a.n + outcome.result.degree


def test_fauv_syntactic_gate(fbig):
    class NonMonicProver(HonestProver):
        def _corrupt_pair(self, pair, box):
            return GeneratorPair(pair.gen.scale(2), pair.res)

    a = swap_matrix(fbig)
    prover = NonMonicProver(fbig, Random(1))
    _, outcome = seeded_session("fauv", a, 2, prover, u=[1, 0], v=[1, 0])
    assert outcome == Reject("malformed-commitment")


def test_fauv_bezout_degree_gate(fbig):
    class FatBezoutProver(HonestProver):
        def bezout(self):
            phi, psi = super().bezout()
            return phi + self._commit.res, psi - self._commit.gen

    a = swap_matrix(fbig)
    prover = FatBezoutProver(fbig, Random(1))
    _, outcome = seeded_session("fauv", a, 2, prover, u=[1, 0], v=[1, 0])
    assert outcome == Reject("bezout-degree")


# -- minimal polynomial ------------------------------------------------------


def test_minpoly_diagonal(fbig):
    a = diag_matrix(fbig, [1, 2, 3])
    expected = P(fbig, -6, 11, -6, 1)
    assert oracle_minpoly(a) == expected
    for seed in range(5):
        _, outcome = seeded_session("minpoly", a, seed)
        assert outcome == Accept(expected)


def test_minpoly_identity(fbig):
    a = identity_matrix(fbig, 6)
    _, outcome = seeded_session("minpoly", a, 1)
    assert outcome == Accept(P(fbig, -1, 1))


def test_minpoly_forced_degenerate_projection(fbig):
    # u = v = e1 sees only the eigenvalue 1 of diag(1, 1, 2); the perfectly
    # complete prover repairs it through a secondary projection.
    a = diag_matrix(fbig, [1, 1, 2])
    expected = oracle_minpoly(a)
    assert expected == (P(fbig, -1, 1) * P(fbig, -2, 1)).monic()
    script = [1, 0, 0, 1, 0, 0]
    ch = ScriptedChallenges(script, RandomChallenges(Random(7)))
    transcript, outcome = certify_minpoly(
        a, HonestProver(fbig, Random(8)), perfectly_complete=True, challenges=ch)
    assert outcome == Accept(expected)
    kinds = [m.kind for _, m in transcript.messages]
    assert "projection2" in kinds and kinds.count("commit") == 2

    # Without the perfectly complete machinery the degenerate projection
    # certifies only the projected factor.
    ch = ScriptedChallenges(script, RandomChallenges(Random(7)))
    _, outcome = certify_minpoly(a, HonestProver(fbig, Random(8)), challenges=ch)
    assert outcome == Accept(P(fbig, -1, 1))


def test_minpoly_pc_no_rejects(fbig):
    a = random_nonsingular_dense_checked(fbig, 8, Random(50))
    for seed in range(30):
        _, outcome = seeded_session("minpoly-pc", a, seed)
        assert not isinstance(outcome, Reject)
        if isinstance(outcome, Accept):
            assert outcome.result == oracle_minpoly(a)


# -- determinants -----------------------------------------------------------


def test_det_diag_identity(fbig):
    _, outcome = seeded_session("det-diag", identity_matrix(fbig, 2), 1)
    assert outcome == Accept(1)


def test_det_protocols_match_oracle(fbig):
    rng = Random(60)
    for seed in range(100):
        a = random_nonsingular_dense_checked(fbig, 10, rng, 0.3)
        expected = oracle_det(a)
        for protocol in ("det-diag", "det-gamma"):
            _, outcome = seeded_session(protocol, a, seed)
            assert outcome == Accept(expected)


def test_det_sign_convention_both_parities(fbig):
    even = diag_matrix(fbig, [2, 3])          # det 6, n even
    odd = diag_matrix(fbig, [2, 3, 5])        # det 30, n odd
    for a, expected in ((even, 6), (odd, 30)):
        assert oracle_det(a) == expected
        for protocol in ("det-diag", "det-gamma", "det-simple"):
            _, outcome = seeded_session(protocol, a, 11)
            assert outcome == Accept(expected), protocol


def test_det_singular_witness(fbig):
    a = gen_singular(fbig, 6, Random(70))
    assert oracle_det(a) == 0
    for protocol in ("det-diag", "det-gamma", "det-simple"):
        transcript, outcome = seeded_session(protocol, a, 12)
        assert outcome == Accept(SingularResult())
        kinds = [m.kind for _, m in transcript.messages]
        assert kinds == ["witness"]


@pytest.mark.xfail(strict=True, raises=ProtocolInternalError,
                   reason="ROADMAP item 4: no singularity witness above the "
                          "dense-oracle cap")
def test_det_gamma_singular_above_cap():
    # A singular matrix (one zero row) one past the dense-oracle cap: the
    # honest det-gamma prover exhausts its preconditioner draws instead of
    # sending a singularity witness.  det-diag returns Accept(0) on it.
    field = PrimeField(10**9 + 7)
    a = gen_sparse(field, 65, 6 / 65, Random("65:1000000007:0"))
    prover = HonestProver(field, Random("det-gamma:0"))
    _, outcome = fiat_shamir("det-gamma", a, prover)
    assert outcome == Accept(SingularResult())


def test_det_simple(f101, fbig):
    _, outcome = seeded_session("det-simple", identity_matrix(f101, 2), 1)
    assert outcome == Accept(1)
    rng = Random(80)
    for seed in range(100):
        a = random_nonsingular_dense_checked(fbig, 3, rng, 0.6)
        _, outcome = seeded_session("det-simple", a, seed)
        assert outcome == Accept(oracle_det(a))


class FirstDraws(Random):
    """A Random whose first randrange calls return the given values."""

    def __init__(self, seed, first):
        super().__init__(seed)
        self.first = list(first)

    def randrange(self, *args):
        return self.first.pop(0) if self.first else super().randrange(*args)


@given(st.integers(1, 8), st.integers(0, 99), st.sampled_from([0, 1, 2, 999_999]),
       st.sampled_from([0, 1, 3, 1_000_002]))
@example(n=5, seed=0, s=0, t=4)
@example(n=5, seed=0, s=7, t=0)
@settings(max_examples=60, deadline=None)
def test_choose_simple_rows_are_a_times_gamma(n, seed, s, t):
    # The prover builds B = A*Gamma row by row from Gamma's structure; the
    # pair it commits must be the charpolys of the product of the two
    # operators and of its leading minor, for the (s, t) drawn first (t = 0
    # or s = 0 included) or a later draw when that one fails.
    field = PrimeField(1_000_003)
    a = random_nonsingular_dense_checked(field, n, Random(seed))
    prover = HonestProver(field, FirstDraws(seed, [s, t]))
    got_s, got_t = prover.choose_simple(a)
    rows = materialize(ProductOp(a, GammaMatrix(field, n, t=got_t, s=got_s)))
    minor = [r[:n - 1] for r in rows[:n - 1]]
    assert prover.committed_pair() == GeneratorPair(
        dense_charpoly(rows, field)[0], dense_charpoly(minor, field)[0])


def test_simple_solution_at_a_root_of_the_true_chi_is_none(f101):
    # singular_denial keeps the first nonsingular Gamma, so its true
    # (chi_B, chi_minor) need not be coprime, and (r I - B) w = e_n can be
    # consistent at a root r of chi_B.  The prover still answers None there
    # (BadChallenge), not a dense solution.
    from certilin import adversarial_prover
    from certilin.harness import gen_nonsingular
    n = 3
    a = gen_nonsingular(f101, n, Random(130), 0.6)
    prover = adversarial_prover("singular_denial")(f101, Random(130))
    s, t = prover.choose_simple(a)
    rows = materialize(ProductOp(a, GammaMatrix(f101, n, t=t, s=s)))
    chi = dense_charpoly(rows, f101)[0]
    e_n = [0] * (n - 1) + [1]
    consistent = [
        r for r in range(f101.p) if chi.eval(r) == 0 and dense_solve(
            [[(r * (i == j) - x) % f101.p for j, x in enumerate(row)]
             for i, row in enumerate(rows)], e_n, f101) is not None]
    assert consistent
    for r in consistent:
        assert prover.simple_solution(r) is None


def test_det_gamma_randomness_economy(fbig):
    a = random_nonsingular_dense_checked(fbig, 10, Random(90), 0.3)
    t, outcome = seeded_session("det-gamma", a, 13)
    assert isinstance(outcome, Accept)
    assert t.verifier_meter.random_draws == 1
    assert t.prover_meter.random_draws == 2
    t, outcome = seeded_session("det-diag", a, 14)
    assert isinstance(outcome, Accept)
    draws = t.verifier_meter.random_draws + t.prover_meter.random_draws
    assert draws == 3 * a.n + 1 <= 3 * a.n + 2


# -- budgets --------------------------------------------------------------------


@pytest.mark.parametrize("n", [10, 50])
def test_verifier_budgets(fbig, n):
    from certilin.harness import gen_nonsingular
    rng = Random(100 + n)
    a = gen_nonsingular(fbig, n, rng, min(0.3, 5.0 / n))
    u = [fbig.sample(rng) for _ in range(n)]
    v = [fbig.sample(rng) for _ in range(n)]

    t, o = seeded_session("fauv", a, 1, u=u, v=v)
    assert isinstance(o, Accept)
    rep = budget_report(t, a)
    assert rep.verifier_ops <= a.matvec_cost() + 17 * n
    assert rep.sent <= 4 * n and rep.ok

    t, o = seeded_session("fauv-merged", a, 2, u=u, v=v)
    rep = budget_report(t, a)
    assert rep.verifier_ops <= a.matvec_cost() + 13 * n and rep.ok

    t, o = seeded_session("minpoly", a, 5)
    assert isinstance(o, Accept)
    rep = budget_report(t, a)
    assert rep.ops_bound == a.matvec_cost() + 13 * n
    assert rep.verifier_ops <= a.matvec_cost() + 13 * n and rep.ok

    t, o = seeded_session("det-diag", a, 3)
    assert isinstance(o, Accept)
    rep = budget_report(t, a)
    assert rep.verifier_ops <= a.matvec_cost() + 15 * n + 4 * math.ceil(math.log2(n))
    assert rep.sent <= 8 * n and rep.ok

    t, o = seeded_session("det-gamma", a, 4)
    assert isinstance(o, Accept)
    rep = budget_report(t, a)
    assert rep.verifier_ops <= a.matvec_cost() + 13 * n + 4 * math.ceil(math.log2(n))
    assert rep.sent <= 5 * n and rep.ok


def test_soundness_bits_come_from_the_error_term(fbig):
    # det-gamma at n = 800: log2(p / (5n - 3)).  At p = 2^62 - 57,
    # -log2(1 - rejection) would read 50.0.
    spec = protocol_spec("det-gamma")
    assert round(spec.soundness_bits(800, 10**9 + 7), 2) == 17.93
    assert round(spec.soundness_bits(800, 2**62 - 57), 2) == 50.04
    assert -math.log2(1 - spec.rejection(800, 2**62 - 57)) == 50.0
    # A field too small to give any bits gives 0, not a negative count.
    assert spec.soundness_bits(10, 43) == 0.0
    # Every report carries its own protocol's figure.
    a = random_nonsingular_dense_checked(fbig, 8, Random(32))
    for pid in PROTOCOL_IDS:
        t, _ = seeded_session(pid, a, 32, u=[1] * 8, v=[2] * 8)
        bits = protocol_spec(pid).soundness_bits(8, fbig.p)
        assert budget_report(t, a).soundness_bits == bits


# -- characteristic polynomial -----------------------------------------------------


def test_charpoly_diag(fbig):
    a = diag_matrix(fbig, [1, 2])
    expected = (P(fbig, -1, 1) * P(fbig, -2, 1)).monic()
    _, outcome = seeded_session("charpoly", a, 1)
    assert outcome == Accept(expected)


def test_charpoly_identity(fbig):
    n = 4
    a = identity_matrix(fbig, n)
    expected = oracle_charpoly(a)
    one = P(fbig, -1, 1)
    power = Poly.one(fbig)
    for _ in range(n):
        power = power * one
    assert expected == power
    for seed in range(5):
        _, outcome = seeded_session("charpoly", a, seed)
        assert outcome == Accept(expected)


def test_charpoly_random_matches_oracle(fbig):
    rng = Random(110)
    for seed in range(30):
        a = random_nonsingular_dense_checked(fbig, 6, rng, 0.4)
        _, outcome = seeded_session("charpoly", a, seed)
        assert outcome == Accept(oracle_charpoly(a))


def test_charpoly_singular_matrix_ok(fbig):
    # Works on singular input too: only the shifted matrix enters the
    # determinant subprotocol.
    a = gen_singular(fbig, 5, Random(120))
    _, outcome = seeded_session("charpoly", a, 2)
    assert outcome == Accept(oracle_charpoly(a))


# -- dispatch -------------------------------------------------------------------------


def test_run_protocol_every_registered_id(fbig):
    a = random_nonsingular_dense_checked(fbig, 6, Random(130), 0.4)
    u, v = [1] * 6, [2] * 6
    for protocol in PROTOCOL_IDS:
        prover = HonestProver(fbig, Random(131))
        _, outcome = run_protocol(protocol, a, prover, Random(132), u=u, v=v)
        assert isinstance(outcome, Accept), protocol
    with pytest.raises(UsageError):
        run_protocol("det-bogus", a, HonestProver(fbig, Random(1)), Random(2))


def test_perfectly_complete_minpoly_is_the_minpoly_pc_session(fbig):
    # The benchmark runs minpoly-pc as run_protocol("minpoly", ...,
    # perfectly_complete=True): the same session as the id, byte for byte.
    a = random_nonsingular_dense_checked(fbig, 6, Random(133), 0.4)
    texts = [run_protocol(protocol, a, HonestProver(fbig, Random(134)),
                          Random(135), **kw)[0].render()
             for protocol, kw in [("minpoly", {"perfectly_complete": True}),
                                  ("minpoly-pc", {})]]
    assert texts[0] == texts[1]
    assert texts[0].startswith("certilin/1 minpoly-pc ")


def test_sessions_take_the_matrix_in_sparse_form(fbig):
    a = random_nonsingular_dense_checked(fbig, 4, Random(140), 0.5)
    for public in (a.to_dense(), ProductOp(a, a)):
        with pytest.raises(UsageError, match="sparse form"):
            fiat_shamir("det-gamma", public, HonestProver(fbig, Random(1)))
        with pytest.raises(UsageError, match="sparse form"):
            run_protocol("det-gamma", public, HonestProver(fbig, Random(1)),
                         Random(2))


def test_every_certify_entry_point_takes_the_sparse_form(fbig):
    # Called directly, not through fiat_shamir or run_protocol; the matrix
    # check comes before certify_generator's projection checks.
    a = random_nonsingular_dense_checked(fbig, 4, Random(141), 0.5)
    dense = a.to_dense()
    calls = [lambda **kw: certify_generator(dense, None, None, **kw),
             lambda **kw: certify_generator(dense, [1] * 4, [1] * 4, **kw),
             lambda **kw: certify_minpoly(dense, **kw),
             lambda **kw: certify_det_diag(dense, **kw),
             lambda **kw: certify_det_gamma(dense, **kw),
             lambda **kw: certify_det_simple(dense, **kw),
             lambda **kw: certify_charpoly(dense, **kw)]
    for call in calls:
        with pytest.raises(UsageError, match="sparse form"):
            call(prover=HonestProver(fbig, Random(1)),
                 challenges=RandomChallenges(Random(2)))


def test_prover_and_entry_point_errors():
    field = PrimeField(10**6 + 3)
    zero = SparseMatrix(field, 5, [])
    # No preconditioner makes the zero matrix full degree or coprime.
    with pytest.raises(ProtocolInternalError, match="no diagonal preconditioner"):
        HonestProver(field, Random(1)).choose_diagonal(zero)
    with pytest.raises(ProtocolInternalError, match="no coprime characteristic pair"):
        HonestProver(field, Random(1)).choose_simple(zero)
    with pytest.raises(UsageError, match="no open session"):
        HonestProver(field, Random(1)).committed_pair()
    a = identity_matrix(field, 3)
    for u, v, match in ((None, [1, 0, 0], "explicit projections"),
                        ([1, 0, 0], None, "explicit projections"),
                        ([1, 0], [1, 0, 0], "dimension mismatch"),
                        ([1, 0, 0], [1, 0, 0, 0], "dimension mismatch")):
        with pytest.raises(UsageError, match=match):
            certify_generator(a, u, v, HonestProver(field, Random(1)),
                              challenges=RandomChallenges(Random(2)))


# -- field gates across protocols ---------------------------------------------------


def test_field_size_bounds_table():
    assert field_size_bound("fauv", 10) == 30
    assert field_size_bound("fauv-merged", 10) == 48
    assert field_size_bound("minpoly", 10) == 48
    assert field_size_bound("det-diag", 10) == 48
    assert field_size_bound("det-diag", 20) == 190
    assert field_size_bound("det-gamma", 10) == 90
    assert field_size_bound("det-gamma", 12) == 132
    assert field_size_bound("charpoly", 10) == 90


def test_det_gamma_field_gate():
    f101 = PrimeField(101)
    a = identity_matrix(f101, 12)  # needs p >= 132
    with pytest.raises(FieldTooSmallError):
        seeded_session("det-gamma", a, 1)


# -- edge paths ---------------------------------------------------------------


def test_all_protocols_n1(fbig):
    a = SparseMatrix(fbig, 1, [(0, 0, 5)])
    for protocol in ("det-diag", "det-gamma", "det-simple"):
        _, out = seeded_session(protocol, a, 1)
        assert out == Accept(5)
    _, out = seeded_session("minpoly", a, 2)
    assert out == Accept(P(fbig, -5, 1))
    _, out = seeded_session("charpoly", a, 3)
    assert out == Accept(P(fbig, -5, 1))


def test_invalid_bezout_identity_rejected(fbig):
    class BrokenBezoutProver(HonestProver):
        def bezout(self):
            phi, psi = super().bezout()
            return phi + Poly.one(self.field), psi  # breaks the identity

    a = swap_matrix(fbig)
    prover = BrokenBezoutProver(fbig, Random(1))
    _, outcome = seeded_session("fauv", a, 2, prover, u=[1, 0], v=[1, 0])
    assert outcome == Reject("coprimality-check")


def test_random_bezout_pairs_rejected(fbig):
    # A Bezout pair of the allowed degrees that is not the true one passes
    # the one-point coprimality check with probability at most
    # (deg gen + deg res - 1) / p.
    class RandomBezoutProver(HonestProver):
        def bezout(self):
            gen, res = self._commit.gen, self._commit.res
            phi = [self.rng.randrange(self.field.p) for _ in range(res.degree)]
            psi = [self.rng.randrange(self.field.p) for _ in range(gen.degree)]
            return Poly(self.field, phi), Poly(self.field, psi)

    a = random_nonsingular_dense_checked(fbig, 10, Random(3), 0.3)
    rng = Random(4)
    u = [fbig.sample(rng) for _ in range(a.n)]
    v = [fbig.sample(rng) for _ in range(a.n)]
    prover = RandomBezoutProver(fbig, Random(5))
    for seed in range(300):
        _, outcome = seeded_session("fauv", a, seed, prover, u=u, v=v)
        assert outcome == Reject("coprimality-check"), seed


def test_zero_diagonal_entry_rejected(fbig):
    class ZeroDiagProver(HonestProver):
        def choose_diagonal(self, box):
            diag, u, v = super().choose_diagonal(box)
            diag = [0] + diag[1:]
            return diag, u, v

    a = random_nonsingular_dense_checked(fbig, 4, Random(2), 0.5)
    _, outcome = seeded_session("det-diag", a, 4, ZeroDiagProver(fbig, Random(3)))
    assert outcome == Reject("malformed-preconditioner")


def test_singular_gamma_announce_rejected(fbig):
    class SingularGammaProver(HonestProver):
        def choose_gamma(self, box):
            super().choose_gamma(box)
            return fbig.neg(1), 1  # t^n + s = 1 + (-1) = 0 for even n

    a = random_nonsingular_dense_checked(fbig, 4, Random(5), 0.5)
    _, outcome = seeded_session("det-gamma", a, 7,
                                SingularGammaProver(fbig, Random(6)))
    assert outcome == Reject("gamma-singular")


def test_degree_requirement_gate(fbig):
    # A committed generator of degree < n fails the determinant gate even
    # when everything else is honest.
    a = diag_matrix(fbig, [2, 2, 3])  # minimal polynomial degree 2

    class LazyProver(HonestProver):
        def choose_diagonal(self, box):
            n = box.n
            diag = [1] * n
            u = [1] + [0] * (n - 1)
            v = [1] + [0] * (n - 1)
            from certilin.blackbox import DiagonalMatrix, ProductOp
            pre = ProductOp(DiagonalMatrix(self.field, diag), box)
            from certilin.krylov import minimal_generator_pair
            self._set_session(pre, v, minimal_generator_pair(pre, u, v, self.meter))
            return diag, u, v

    _, outcome = seeded_session("det-diag", a, 9, LazyProver(fbig, Random(8)))
    assert outcome == Reject("degree-requirement")


def test_gate_boundary_exact(f101):
    # p = 101 meets the det-gamma bound n^2 - n exactly at n = 10 (bound 90)
    # and misses it at n = 11 (bound 110).
    ok = random_nonsingular_dense_checked(f101, 10, Random(10), 0.4)
    _, outcome = seeded_session("det-gamma", ok, 11)
    assert isinstance(outcome, (Accept, BadChallenge))
    with pytest.raises(FieldTooSmallError):
        seeded_session("det-gamma", identity_matrix(f101, 11), 12)


# -- verifier exits that honest sessions do not reach ------------------------


class EchoProjectionProver(HonestProver):
    """minpoly-pc: offers the first projections again as the secondary ones."""

    first = None

    def open_session(self, box, u, v):
        self.first = self.first or (list(u), list(v))
        return super().open_session(box, u, v)

    def secondary_projection(self, box):
        return self.first


class ShortProjectionProver(EchoProjectionProver):
    def secondary_projection(self, box):
        u, v = self.first
        return u[:-1], v


@pytest.mark.parametrize("cls, reason", [
    (ShortProjectionProver, "malformed-transcript"),
    (EchoProjectionProver, "degree-requirement"),
])
def test_minpoly_pc_rejects_a_bad_secondary_projection(fbig, cls, reason):
    a = random_nonsingular_dense_checked(fbig, 6, Random(21), 0.4)
    t, outcome = seeded_session("minpoly-pc", a, 23, cls(fbig, Random(22)))
    assert outcome == Reject(reason)
    assert budget_report(t, a).ops_ok


def test_det_simple_without_a_usable_challenge(f101):
    # Every draw is a root of the committed chi, so none can be used.
    from certilin.protocol import _SIMPLE_CHALLENGE_TRIES
    a = random_nonsingular_dense_checked(f101, 4, Random(3), 0.5)
    for seed in range(20):
        t, _ = seeded_session("det-simple", a, 1,
                              HonestProver(f101, Random(seed)))
        chi = next(m for _, m in t.messages if m.kind == "commit").gen
        roots = [r for r in range(f101.p) if chi.eval(r) == 0]
        if roots:
            break
    ch = ScriptedChallenges(roots[:1] * _SIMPLE_CHALLENGE_TRIES,
                            RandomChallenges(Random(2)))
    t, outcome = certify_det_simple(a, HonestProver(f101, Random(seed)),
                                    challenges=ch)
    assert outcome == BadChallenge("no-usable-challenge")
    assert not ch.script
    assert budget_report(t, a).ops_ok


def test_charpoly_at_an_eigenvalue(fbig):
    # At the eigenvalue 2, 2I - A is singular: the sub-determinant is a
    # singularity witness, and the claim must vanish there.
    a = diag_matrix(fbig, [1, 2, 3])
    for cls, expected in ((HonestProver, Accept(oracle_charpoly(a))),
                          (WrongClaimProver, Reject("charpoly-mismatch"))):
        ch = ScriptedChallenges([2], RandomChallenges(Random(5)))
        t, outcome = certify_charpoly(a, cls(fbig, Random(4)), challenges=ch)
        assert outcome == expected
        assert any(m.kind == "witness" for _, m in t.messages)
        assert budget_report(t, a).ops_ok
