"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (n = 10 and p = 1_000_003 unless stated):

1. oracle equivalence of every accepted result across all five result
   protocols at n in {4, 8, 12}, 50 matrices each, under 60 s;
2. exact verifier budgets and communication bounds at n in {10, 50, 100};
3. randomness economy: exactly 3 drawn field elements per gamma-determinant
   session against 3n-scale for the diagonal variant;
4. completeness over 10^4 seeds with the deficit entirely bad challenges,
   and zero rejects for the perfectly complete minimal polynomial variant;
5. soundness of adversarial strategies against their analytic bounds over
   10^4 seeded trials;
6. the random-projection success bound over 10^4 projection pairs;
7. preconditioner effectiveness bounds, corner/diagonal variants;
8. structural property suites, including Fiat-Shamir determinism and
   tamper detection over 1000 single-byte corruptions.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time
from random import Random

from certilin import (Accept, GammaMatrix, HonestProver, Poly, PrimeField,
                      ProductOp, SingularResult, gamma_det,
                      minimal_generator_pair, oracle_charpoly, oracle_det,
                      oracle_minpoly, parse_transcript, poly_gcd,
                      solve_shifted, verify_noninteractive, xgcd)
from certilin.blackbox import DiagonalMatrix, matvec
from certilin.harness import (_corrupt_payload_byte, gen_nonsingular,
                              gen_sparse, random_nonsingular_dense_checked,
                              run_attack, run_completeness, subseed,
                              three_sigma)
from certilin.oracle import materialize
from certilin.protocol import budget_report, fiat_shamir

from helpers import seeded_session, vector_minpoly

P_BIG = 1_000_003
FIELD = PrimeField(P_BIG)


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: oracle equivalence ----------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in (4, 8, 12):
        for k in range(50):
            rng = subseed(1, "c1", n, k)
            a = gen_sparse(FIELD, n, 0.3, rng)
            det = oracle_det(a)
            minp = oracle_minpoly(a)
            charp = oracle_charpoly(a)
            seed = 1000 * n + k

            _, out = seeded_session("minpoly-pc", a, seed)
            if isinstance(out, Accept):
                assert out.result == minp

            for protocol in ("det-diag", "det-gamma", "det-simple"):
                _, out = seeded_session(protocol, a, seed)
                if isinstance(out, Accept):
                    got = out.result
                    if isinstance(got, SingularResult):
                        assert det == 0, protocol
                    else:
                        assert got == det, protocol

            _, out = seeded_session("charpoly", a, seed)
            if isinstance(out, Accept):
                assert out.result == charp
            checked += 1
    elapsed = time.monotonic() - start
    report(1, elapsed < 60.0, f"{checked} matrices, {elapsed:.1f}s")


# -- criterion 2: verifier budgets -------------------------------------------


def test_criterion_2_verifier_budgets():
    for n in (10, 50, 100):
        rng = subseed(2, "c2", n)
        a = gen_nonsingular(FIELD, n, rng, min(0.3, 5.0 / n))
        mu = a.matvec_cost()
        log_term = 4 * math.ceil(math.log2(n))
        u = [FIELD.sample(rng) for _ in range(n)]
        v = [FIELD.sample(rng) for _ in range(n)]

        t, o = seeded_session("fauv", a, n, u=u, v=v)
        assert isinstance(o, Accept)
        rep = budget_report(t, a)
        assert rep.verifier_ops <= mu + 17 * n, f"fauv ops n={n}"
        assert rep.sent <= 4 * n, f"fauv sent n={n}"

        t, o = seeded_session("fauv-merged", a, n + 1, u=u, v=v)
        assert isinstance(o, Accept)
        rep = budget_report(t, a)
        assert rep.verifier_ops <= mu + 13 * n, f"merged ops n={n}"
        assert rep.sent <= 4 * n, f"merged sent n={n}"

        t, o = seeded_session("det-diag", a, n + 2)
        assert isinstance(o, Accept)
        rep = budget_report(t, a)
        assert rep.verifier_ops <= mu + 15 * n + log_term, f"diag ops n={n}"
        assert rep.sent <= 8 * n, f"diag sent n={n}"

        t, o = seeded_session("det-gamma", a, n + 3)
        assert isinstance(o, Accept)
        rep = budget_report(t, a)
        assert rep.verifier_ops <= mu + 13 * n + log_term, f"gamma ops n={n}"
        assert rep.sent <= 5 * n, f"gamma sent n={n}"

        t, o = seeded_session("minpoly", a, n + 4)
        assert isinstance(o, Accept)
        rep = budget_report(t, a)
        assert rep.verifier_ops <= mu + 13 * n, f"minpoly ops n={n}"
        assert rep.ok, f"minpoly budget n={n}"
    report(2, True, "ops and communication bounds at n in {10, 50, 100}")


# -- criterion 3: randomness economy ---------------------------------------------


def test_criterion_3_randomness_economy():
    n = 10
    a = random_nonsingular_dense_checked(FIELD, n, subseed(3, "c3"), 0.3)
    t, o = seeded_session("det-gamma", a, 31)
    assert isinstance(o, Accept)
    gamma_draws = t.verifier_meter.random_draws + t.prover_meter.random_draws
    assert gamma_draws == 3
    assert t.prover_meter.random_draws == 2 and t.verifier_meter.random_draws == 1

    t, o = seeded_session("det-diag", a, 32)
    assert isinstance(o, Accept)
    diag_draws = t.verifier_meter.random_draws + t.prover_meter.random_draws
    # 3n prover elements plus the merged challenge; the 3n+2 budget
    # assumes two challenge points, merged verification draws one.
    assert diag_draws == 3 * n + 1 <= 3 * n + 2
    report(3, True, f"gamma={gamma_draws}, diag={diag_draws}")


# -- criterion 4: completeness ------------------------------------------------------


def test_criterion_4_completeness():
    n, trials = 10, 10_000
    a = random_nonsingular_dense_checked(FIELD, n, subseed(4, "c4"), 0.3)
    rep = run_completeness("fauv-merged", trials, n, P_BIG, seed=4, matrix=a)
    q = n / P_BIG
    floor = 1 - q - three_sigma(q, trials)
    assert rep.rejected == 0, "honest prover must never be rejected"
    assert rep.accept_rate >= floor
    assert rep.accepted + rep.bad_challenge == trials

    pc = run_completeness("minpoly-pc", trials, n, P_BIG, seed=5, matrix=a)
    assert pc.rejected == 0, "perfectly complete variant rejected an honest run"
    assert pc.accept_rate >= floor

    extras = []
    for protocol in ("det-diag", "det-gamma", "charpoly", "minpoly-pc"):
        r = run_completeness(protocol, trials, n, P_BIG, seed=6, matrix=a)
        assert r.rejected == 0, protocol
        assert r.accept_rate >= 0.999
        extras.append(f"{protocol}={r.accept_rate:.4f}")
    report(4, True,
           f"merged={rep.accept_rate:.5f} pc={pc.accept_rate:.5f} "
           + " ".join(extras))


# -- criterion 5: soundness -----------------------------------------------------------


def test_criterion_5_soundness():
    n, trials = 10, 10_000
    fauv = run_attack("fauv", "wrong_generator", trials, n, P_BIG, seed=51)
    bound = (1 - (2 * n - 2) / P_BIG) * (1 - (3 * n - 1) / P_BIG)
    assert bound >= 0.9999
    assert fauv.rejection_rate >= bound - three_sigma(bound, trials)

    simple = run_attack("det-simple", "wrong_generator", trials, n, P_BIG,
                        seed=52)
    bound_s = 1 - (3 * n - 2) / (P_BIG - n)
    assert bound_s >= 0.9999
    assert simple.rejection_rate >= bound_s - three_sigma(bound_s, trials)
    report(5, True,
           f"fauv={fauv.rejection_rate:.5f}>={bound:.5f} "
           f"simple={simple.rejection_rate:.5f}>={bound_s:.5f}")


# -- criterion 6: random-projection bound ----------------------------------------------


def test_criterion_6_projection_bound():
    n, trials = 10, 10_000
    a = random_nonsingular_dense_checked(FIELD, n, subseed(6, "c6"), 0.3)
    full = oracle_minpoly(a)
    m = full.degree
    rng = subseed(6, "c6", "draws")
    hits = 0
    for _ in range(trials):
        u = [FIELD.sample(rng) for _ in range(n)]
        v = [FIELD.sample(rng) for _ in range(n)]
        if minimal_generator_pair(a, u, v).gen == full:
            hits += 1
    bound = (1 - m / P_BIG) ** 2
    floor = bound - three_sigma(bound, trials)
    rate = hits / trials
    report(6, rate >= floor, f"rate={rate:.5f} floor={floor:.5f} deg={m}")


# -- criterion 7: preconditioner effectiveness ---------------------------------------


def test_criterion_7_preconditioner_effectiveness():
    n = 10
    matrices = [random_nonsingular_dense_checked(FIELD, n, subseed(7, "m", i), 0.3)
                for i in range(100)]

    rng = subseed(7, "gamma")
    e1 = [1] + [0] * (n - 1)
    hits = trials = 0
    for a in matrices:
        for _ in range(100):
            s, t = FIELD.sample(rng), FIELD.sample(rng)
            gamma = GammaMatrix(FIELD, n, t=t, s=s)
            if gamma_det(gamma) == 0:
                continue
            trials += 1
            pair = minimal_generator_pair(ProductOp(a, gamma), e1, e1)
            if pair.gen.degree == n:
                hits += 1
    bound_g = 1 - n * (n - 1) / P_BIG
    floor_g = bound_g - three_sigma(bound_g, trials)
    rate_g = hits / trials
    assert rate_g >= floor_g

    rng = subseed(7, "diag")
    hits_d = trials_d = 0
    for a in matrices:
        for _ in range(100):
            trials_d += 1
            diag = [FIELD.sample_nonzero(rng) for _ in range(n)]
            u = [FIELD.sample(rng) for _ in range(n)]
            v = [FIELD.sample(rng) for _ in range(n)]
            pair = minimal_generator_pair(
                ProductOp(DiagonalMatrix(FIELD, diag), a), u, v)
            if pair.gen.degree == n:
                hits_d += 1
    bound_d = 1 - n * (n - 1) / (2 * P_BIG)
    floor_d = bound_d - three_sigma(bound_d, trials_d)
    rate_d = hits_d / trials_d
    report(7, rate_d >= floor_d,
           f"gamma={rate_g:.5f}>={floor_g:.5f} diag={rate_d:.5f}>={floor_d:.5f}")


# -- criterion 8: structural property suites ----------------------------------------


def test_criterion_8_pair_coprimality_and_divisibility():
    rng = Random(81)
    for _ in range(50):
        n = rng.randrange(2, 13)
        a = gen_sparse(FIELD, n, 0.3, rng)
        u = [FIELD.sample(rng) for _ in range(n)]
        v = [FIELD.sample(rng) for _ in range(n)]
        pair = minimal_generator_pair(a, u, v)
        assert poly_gcd(pair.gen, pair.res) == Poly.one(FIELD) \
            or pair.gen == Poly.one(FIELD)
        assert oracle_minpoly(a) % pair.gen == Poly.zero(FIELD)
    report("8a", True, "pair coprimality and divisibility")


def test_criterion_8_gamma_det_and_residuals():
    from certilin.oracle import dense_det
    rng = Random(82)
    for n in range(1, 9):
        for _ in range(30):
            g = GammaMatrix(FIELD, n, t=FIELD.sample(rng), s=FIELD.sample(rng))
            assert gamma_det(g) == dense_det(materialize(g), FIELD)
    count = 0
    while count < 200:
        n = rng.randrange(2, 11)
        a = gen_sparse(FIELD, n, 0.4, rng)
        v = [FIELD.sample(rng) for _ in range(n)]
        f = vector_minpoly(a, v)
        r1 = FIELD.sample(rng)
        if f.eval(r1) == 0:
            continue
        w = solve_shifted(a, r1, v, f)
        got = [(r1 * wi - yi) % P_BIG for wi, yi in zip(w, matvec(a, w))]
        assert got == v
        count += 1
    report("8b", True, "gamma determinant and shifted residuals")


def test_criterion_8_xgcd_symbolic():
    rng = Random(83)
    for _ in range(300):
        da, db = rng.randrange(0, 21), rng.randrange(0, 21)
        a = Poly(FIELD, [FIELD.sample(rng) for _ in range(da)] + [1])
        b = Poly(FIELD, [FIELD.sample(rng) for _ in range(db)] + [1])
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
    report("8c", True, "Bezout identity symbolically exact")


def test_criterion_8_fiat_shamir_tamper():
    n = 10
    a = random_nonsingular_dense_checked(FIELD, n, subseed(8, "c8"), 0.3)
    prover = HonestProver(FIELD, Random(84))
    t1, o1 = fiat_shamir("det-gamma", a, prover)
    t2, o2 = fiat_shamir("det-gamma", a, HonestProver(FIELD, Random(84)))
    assert t1.render() == t2.render() and o1 == o2
    assert isinstance(o1, Accept)
    replayed, _ = verify_noninteractive(parse_transcript(t1.render()), a)
    assert replayed == o1

    text = t1.render()
    rng = Random(85)
    detected = 0
    corruptions = 1000
    for _ in range(corruptions):
        corrupted = _corrupt_payload_byte(text, rng)
        try:
            parsed = parse_transcript(corrupted)
        except Exception:
            detected += 1
            continue
        out, _ = verify_noninteractive(parsed, a)
        if not isinstance(out, Accept):
            detected += 1
    rate = detected / corruptions
    report("8d", rate >= 0.999, f"tamper detection {detected}/{corruptions}")


def test_prover_cost_note():
    # Scalar-prover cost: at most 2n + deg(f) applications per session.
    n = 10
    a = random_nonsingular_dense_checked(FIELD, n, subseed(9, "pp"), 0.3)
    rng = Random(86)
    for seed in range(20):
        u = [FIELD.sample(rng) for _ in range(n)]
        v = [FIELD.sample(rng) for _ in range(n)]
        t, o = seeded_session("fauv", a, seed, u=u, v=v)
        assert isinstance(o, Accept)
        assert t.prover_meter.matvec <= 2 * n + o.result.degree
    report("prover-cost", True, "prover matvecs <= 2n + deg(f)")
