from random import Random

import pytest

from certilin import (Accept, HonestProver, Poly, Reject, UsageError,
                      adversarial_prover)
from certilin.harness import (PROTOCOL_CHOICES,
                              random_nonsingular_dense_checked, run_attack,
                              run_protocol, three_sigma)
from certilin.provers import STRATEGIES

from conftest import PRIME_BIG
from helpers import run_completeness

N, P = 10, PRIME_BIG


def test_unknown_strategy():
    with pytest.raises(UsageError):
        adversarial_prover("bite_the_wire")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("protocol", PROTOCOL_CHOICES)
def test_every_cli_attack_passes(protocol, strategy):
    # Every pair `certilin attack` accepts (its --strategy choices are
    # STRATEGIES) must play a real deviation that the protocol catches,
    # not an honest prover that it accepts.
    report = run_attack(protocol, strategy, 20, 6, P, seed=16)
    assert report.passed, (report.accepted, report.rejected, report.bad_challenge)


def test_forged_pair_changes_the_fraction(fbig):
    # Harness sanity: the forged commitment must define a different reduced
    # fraction, otherwise the soundness trial would measure nothing.
    from certilin.krylov import minimal_generator_pair
    a = random_nonsingular_dense_checked(fbig, N, Random(1), 0.3)
    u = [fbig.sample(Random(2)) for _ in range(N)]
    v = [fbig.sample(Random(3)) for _ in range(N)]
    true = minimal_generator_pair(a, u, v)
    for strategy in ("wrong_generator", "wrong_residue", "degree_pad"):
        cls = adversarial_prover(strategy)
        prover = cls(fbig, Random(4))
        forged = prover._corrupt_pair(true, a)
        assert forged.gen.is_monic()
        assert forged.res.degree < forged.gen.degree
        assert forged.gen * true.res != forged.res * true.gen


def test_degree_pad_multiplies_a_short_generator(fbig, monkeypatch):
    # A diagonal matrix with a repeated entry has a minimal polynomial of
    # degree n - 1, so every projected generator is short and degree_pad
    # commits gen*(x - c) instead of wrong_generator's forgery.
    from certilin import SparseMatrix, harness
    from certilin.krylov import minimal_generator_pair
    from certilin.polynomial import poly_gcd
    entries = [1, 2, 2, 3, 4, 5, 6, 7, 8, 9]
    a = SparseMatrix(fbig, N, [(i, i, d) for i, d in enumerate(entries)])
    true = minimal_generator_pair(a, fbig.sample_vector(Random(2), N),
                                  fbig.sample_vector(Random(3), N))
    assert true.gen.degree == N - 1
    forged = adversarial_prover("degree_pad")(fbig, Random(4))._corrupt_pair(true, a)
    factor, rem = forged.gen.divrem(true.gen)
    assert rem.is_zero() and factor.degree == 1 and factor.is_monic()
    assert forged.gen.is_monic()
    assert forged.res.degree < forged.gen.degree
    assert poly_gcd(forged.gen, forged.res).degree == 0
    monkeypatch.setattr(harness, "_trial_matrix", lambda field, n, setup: a)
    report = run_attack("fauv", "degree_pad", 300, N, P, seed=17)
    assert report.rejected > 0
    assert report.passed


@pytest.mark.parametrize("strategy,trials", [
    ("wrong_generator", 2000),
    ("wrong_residue", 1000),
    ("degree_pad", 1000),
])
def test_fauv_probabilistic_strategies(strategy, trials):
    report = run_attack("fauv", strategy, trials, N, P, seed=5)
    assert report.accepted + report.rejected + report.bad_challenge == trials
    bound = (1 - (2 * N - 2) / P) * (1 - (3 * N - 1) / P)
    assert report.bound == pytest.approx(bound)
    assert report.rejection_rate >= bound - three_sigma(bound, trials)
    assert report.passed


def test_fauv_wrong_solution_always_rejected():
    report = run_attack("fauv", "wrong_solution", 500, N, P, seed=6)
    assert report.rejected == 500
    assert report.passed


def test_forged_bezout_non_exposing():
    report = run_attack("fauv", "forged_bezout", 500, N, P, seed=7)
    assert report.accepted == 500
    assert report.label == "non-exposing"
    assert report.passed


@pytest.mark.parametrize("protocol", ["fauv", "fauv-merged"])
def test_adversaries_on_a_zero_projected_sequence(protocol, fbig):
    # u = 0 projects every Krylov vector to 0: the generator is 1 and the
    # residue 0, so wrong_generator and wrong_residue take their degree-0
    # forgery and forged_bezout its zero-residue pair, which is the honest
    # one and is accepted.
    expected = {"honest": Accept(Poly.one(fbig)),
                "wrong_generator": Reject("evaluation-check"),
                "wrong_residue": Reject("evaluation-check"),
                "forged_bezout": Accept(Poly.one(fbig)),
                "wrong_solution": Reject("residual-check"),
                "degree_pad": Reject("evaluation-check"),
                "singular_denial": Reject("evaluation-check")}
    for seed in range(5):
        a = random_nonsingular_dense_checked(fbig, 6, Random(seed), 0.4)
        u, v = [0] * 6, fbig.sample_vector(Random(seed), 6)
        for strategy, outcome in expected.items():
            cls = (HonestProver if strategy == "honest"
                   else adversarial_prover(strategy))
            _, got = run_protocol(protocol, a, cls(fbig, Random(seed + 100)),
                                  Random(seed + 200), u=u, v=v)
            assert got == outcome, (strategy, seed)


def test_honest_completeness_report_passes():
    # A completeness report has no bound: it passes when every session accepts.
    report = run_completeness("det-gamma", 20, 6, P, seed=1)
    assert (report.bound, report.accepted) == (None, 20)
    assert report.passed


def test_forged_bezout_messages_match_honest(fbig):
    # The well-formed Bezout pair is unique, so the "forgery" must coincide
    # with the canonical cofactors; this documents why it cannot expose.
    from certilin import HonestProver
    a = random_nonsingular_dense_checked(fbig, 6, Random(8), 0.4)
    u = [1, 2, 3, 4, 5, 6]
    v = [6, 5, 4, 3, 2, 1]
    honest = HonestProver(fbig, Random(9))
    honest.open_session(a, u, v)
    forger = adversarial_prover("forged_bezout")(fbig, Random(10))
    forger.open_session(a, u, v)
    assert honest.bezout() == forger.bezout()


def test_det_simple_wrong_commitment():
    trials = 1000
    report = run_attack("det-simple", "wrong_generator", trials, N, P, seed=11)
    bound = 1 - (3 * N - 2) / (P - N)
    assert report.bound == pytest.approx(bound)
    assert report.rejection_rate >= bound - three_sigma(bound, trials)


@pytest.mark.parametrize("protocol", ["det-diag", "det-gamma"])
def test_det_wrong_generator(protocol):
    report = run_attack(protocol, "wrong_generator", 500, N, P, seed=12)
    assert report.passed
    assert report.rejection_rate >= report.bound - report.allowance


@pytest.mark.parametrize("protocol", ["det-diag", "det-gamma", "det-simple"])
def test_singular_denial_rejected(protocol):
    report = run_attack(protocol, "singular_denial", 300, N, P, seed=13)
    assert report.passed
    assert report.accepted <= 1


def test_charpoly_wrong_claim():
    report = run_attack("charpoly", "wrong_generator", 300, 6, P, seed=14)
    assert report.bound == pytest.approx(1 - 12 / P)
    assert report.passed
    assert report.rejected == 300  # a constant offset never collides


def test_wrong_generator_example_rate():
    # Rejection rate well above 0.999 at n=10, p=1000003.
    report = run_attack("fauv", "wrong_generator", 2000, N, P, seed=15)
    assert report.rejection_rate >= 0.999
