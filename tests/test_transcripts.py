import hashlib
from dataclasses import replace
from math import isqrt
from random import Random

import pytest

from certilin import (Accept, Bezout, Commitment, CostMeter,
                      FiatShamirChallenges, HonestProver, ParseError,
                      PointChallenge, Poly, PrimeField, Projection, Reject,
                      SingularityWitness, Solution, UsageError,
                      budget_report, certify_det_gamma, certify_minpoly,
                      fiat_shamir, matrix_digest, oracle_det,
                      parse_transcript, verify_noninteractive)
from certilin import krylov
from certilin.harness import (_corrupt_payload_byte, gen_nonsingular,
                              gen_singular, gen_sparse,
                              random_nonsingular_dense_checked, run_protocol,
                              sample_projections)
from certilin.messages import (DiagonalAnnounce, GammaAnnounce,
                               SecondaryProjection, _parse_vec, _vec_bytes,
                               message_bytes, render_message, render_outcome,
                               wire_cost)
from certilin.protocol import PROTOCOL_IDS
from certilin.provers import SingularDenialProver, WrongGeneratorProver

from helpers import (RehashingFiatShamir, ScriptedChallenges, count_forks,
                     grind, identity_matrix, reference_parse_vec,
                     reference_vec_bytes)


@pytest.fixture()
def matrix(fbig):
    return random_nonsingular_dense_checked(fbig, 8, Random(7), 0.3)


def fs_session(matrix, protocol="det-gamma", seed=1, **kw):
    prover = HonestProver(matrix.field, Random(seed))
    return fiat_shamir(protocol, matrix, prover, **kw)


def test_fs_deterministic_bytes(matrix):
    t1, o1 = fs_session(matrix)
    t2, o2 = fs_session(matrix)
    assert o1 == o2
    assert t1.render() == t2.render()


def test_fs_roundtrip_all_protocols(fbig, matrix):
    n = matrix.n
    rng = Random(3)
    u = [fbig.sample(rng) for _ in range(n)]
    v = [fbig.sample(rng) for _ in range(n)]
    singular = gen_singular(fbig, 6, Random(9))
    # The sha256 of each rendered transcript is pinned: a refactor must keep
    # every Fiat-Shamir transcript byte-identical.
    cases = [
        ("fauv", matrix, HonestProver, {"u": u, "v": v},
         "c5f02ee98bcd4d7d2bf126a3020a94b4c7d9817462beb2c71a01817ab6c3a149"),
        ("fauv-merged", matrix, HonestProver, {"u": u, "v": v},
         "25bb582d9684dbfc4b7b98fa468a9568e00a251e46ec986cff5fc8b4511a0ccc"),
        ("minpoly", matrix, HonestProver, {},
         "2d4c9097dce6a6e692b2f0e0a83f2654254144fb4c1814fc32f99487a5b35dcc"),
        ("minpoly-pc", matrix, HonestProver, {},
         "69a75e8aa648785ea033a2af37cf7c3c106fe7f9c8875f71d2f686c651cbca9a"),
        ("det-diag", matrix, HonestProver, {},
         "4f0f0b1fa6f89af1be8470a15746333ad88c36690838f5cf8eaa8999d48232c2"),
        ("det-gamma", matrix, HonestProver, {},
         "d41ad9262743dbdcb0a59da8afc12d8812083f06afee6a30c9d4e23b725557a9"),
        ("det-simple", matrix, HonestProver, {},
         "045558716a01454d2beed1706943de02f614b380370c297fc431a5cb8f0c4f4b"),
        # An honest singularity certificate: the one session with a witness.
        ("det-gamma", singular, HonestProver, {},
         "14a528ccdb8a13bed8049172d360d1f4ab1703957e024995cbd2f1b0fb561a04"),
        ("charpoly", matrix, HonestProver, {},
         "fc55d57832e7322c9af6b3eabb87e7b9ec24a8a04d0c8ea76f0c4fd08390c312"),
        # A prover hiding singularity: rejected, by the same bytes each time.
        ("det-diag", singular, SingularDenialProver, {},
         "cfafa0904d2d1cbfd90270702e17c01f68351d8a0d30c53313732871f4cb4c91"),
        ("det-gamma", singular, SingularDenialProver, {},
         "99b810e6106da3097eb84abfc9b77aa34e446bd77a6c738e53f6538f3c7b68db"),
        ("det-simple", singular, SingularDenialProver, {},
         "194dddcc931c83107197971a4ce687befd8538b9d8eaebeff8f1f8de010b94fb"),
    ]
    for protocol, a, cls, kw, digest in cases:
        transcript, outcome = fiat_shamir(protocol, a, cls(fbig, Random(1)), **kw)
        label = f"{protocol}/{cls.name}"
        assert isinstance(outcome, Accept if cls is HonestProver else Reject), label
        text = transcript.render()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, label
        parsed = parse_transcript(text)
        assert parsed.render() == text
        replayed, meter = verify_noninteractive(parsed, a)
        assert replayed == outcome, label
        assert meter.field_ops == transcript.verifier_meter.field_ops
        assert meter.random_draws == transcript.verifier_meter.random_draws


@pytest.mark.parametrize("protocol, digest, field_ops", [
    ("det-gamma",
     "4dd3ebcb1363c545ae820deb4f317f77a4667a10fa080ff560918241ff5bac7d", 519813),
    ("minpoly",
     "e3c6f8c7e5884da468314d271c72a7be274aeb014e883743a3b00bb77d61b068", 426202),
])
def test_fs_transcript_pinned_at_n150(fbig, protocol, digest, field_ops):
    # Long Euclid and Berlekamp-Massey runs: the sha256 of the transcript
    # and the prover's metered work are pinned at a size where every kernel
    # loops hundreds of times.  The prover applies A 2n - 1 times for the
    # Krylov sequence and isqrt(n) times for the shifted solve from its
    # giant steps, residual check included.
    n = 150
    a = gen_nonsingular(fbig, n, Random(150), 5 / n)
    transcript, outcome = fiat_shamir(protocol, a, HonestProver(fbig, Random(1)))
    assert isinstance(outcome, Accept)
    assert hashlib.sha256(transcript.render().encode()).hexdigest() == digest
    assert transcript.prover_meter.matvec == 2 * n - 1 + isqrt(n)
    assert transcript.prover_meter.field_ops == field_ops


@pytest.mark.parametrize("protocol, digest", [
    ("det-gamma", "08c5b8accf14489b8b39ca74586de20da7c9f615713e87e4f14d0e9d04a67e86"),
    ("minpoly", "bf35d2306d1959f6f22c7e675c5ac3d823f6f48437ff3efbda321c5e670d7d92"),
])
def test_fs_transcript_pinned_at_the_split_rule(fbig, monkeypatch, protocol, digest):
    # At n = krylov._SPLIT_MIN the prover's Krylov passes run their
    # transposed chain in a forked helper (given fork and two CPUs): the
    # transcript and prover meter equal those of the serial passes, which
    # run with the rule moved above n.
    n = krylov._SPLIT_MIN
    a = gen_nonsingular(fbig, n, Random(n), 5 / n)
    forks = count_forks(monkeypatch)
    sessions = []
    for rule in (n, n + 1):
        monkeypatch.setattr(krylov, "_SPLIT_MIN", rule)
        transcript, outcome = fiat_shamir(protocol, a, HonestProver(fbig, Random(1)))
        assert isinstance(outcome, Accept)
        sessions.append((transcript.render(), transcript.prover_meter, len(forks)))
    assert sessions[0][:2] == sessions[1][:2]
    assert sessions[0][2] == sessions[1][2] == (1 if krylov._may_fork() else 0)
    assert hashlib.sha256(sessions[0][0].encode()).hexdigest() == digest
    assert sessions[0][1].matvec == 2 * n - 1 + isqrt(n)


def _size_rule_corpus():
    """Fiat-Shamir sessions on both sides of every kernel's size rule.

    The packed sequence, residue and solve, BM's half-gcd and xgcd's tail
    switch on at n = 64 (``polynomial._HGCD_MIN``); the corpus runs each
    protocol at n = 63, 64 and 65, at 10 and 100 around them, and in three
    fields, with the singularity witness on two singular matrices.  The
    perfectly complete variant, whose prover runs the dense oracle, runs at
    n = 10 and 64 only.
    """
    for p in (10**6 + 3, 10**9 + 7, 2**62 - 57):
        field = PrimeField(p)
        for n in (10, 63, 64, 65, 100):
            a = gen_nonsingular(field, n, Random(f"{n}:{p}"), 5 / n)
            for protocol in ("fauv", "minpoly", "det-diag", "det-gamma",
                             "minpoly-pc"):
                if protocol == "minpoly-pc" and n not in (10, 64):
                    continue
                rng = Random(f"{protocol}:{n}:{p}")
                kw = sample_projections(protocol, field, n, rng)
                yield fiat_shamir(protocol, a, HonestProver(field, rng), **kw)
    field = PrimeField(10**9 + 7)
    for seed in (0, 1):
        rng = Random(seed)
        while oracle_det(a := gen_sparse(field, 12, 0.15, rng)) != 0:
            pass
        for protocol in ("minpoly", "minpoly-pc", "det-diag", "det-gamma"):
            yield fiat_shamir(protocol, a, HonestProver(field, Random(seed)))


def test_size_rule_corpus_pinned():
    # One sha256 over the rendered transcripts and prover meters of the
    # corpus: a kernel whose two sides of a size rule stop agreeing changes
    # some transcript byte or some metered count here.
    h = hashlib.sha256()
    for transcript, _ in _size_rule_corpus():
        h.update(f"{transcript.render()}{transcript.prover_meter}\n".encode())
    assert h.hexdigest() == (
        "dd6ee47fd6457cff33ef6811b9b715dc3bf96d2a0b19d469bb14708e14a37975")


def test_interactive_dense_prover_sessions_pinned(fbig):
    # Interactive n=10 sessions whose prover works densely: det-simple
    # (B = A*Gamma and the charpolys of B and its leading minor) honest and
    # with a wrong generator, and charpoly.  The sha256 of every rendered
    # transcript, outcome and verifier meter is pinned, and so is every
    # prover meter: det-simple's solve has no Krylov pass and applies B
    # n = 10 times, charpoly's runs from its giant steps (19 + isqrt(10)).
    a = random_nonsingular_dense_checked(fbig, 10, Random(10))
    kinds = [("det-simple", WrongGeneratorProver), ("det-simple", HonestProver),
             ("charpoly", HonestProver)]
    h = hashlib.sha256()
    tally = {}
    prover_meters = []
    for i in range(20):
        protocol, cls = kinds[i % 3]
        transcript, outcome = run_protocol(protocol, a, cls(fbig, Random(i)),
                                           Random(100 + i))
        verdict = type(outcome).__name__
        tally[verdict] = tally.get(verdict, 0) + 1
        h.update(f"{protocol}/{cls.name}\n{transcript.render()}"
                 f"{render_outcome(outcome)}\n"
                 f"{transcript.verifier_meter}\n".encode())
        prover_meters.append(transcript.prover_meter)
    assert tally == {"Accept": 13, "Reject": 7}
    assert h.hexdigest() == (
        "013c0e68c2ec30c0fbac31d01216671e8fc5ea70a2adb38a1d387b7cd5b8e8ce")
    simple = CostMeter(mul=470, add=460, matvec=10, random_draws=2,
                       elements_sent=31)
    charpoly = CostMeter(mul=1454, add=1412, matvec=22, random_draws=2,
                         elements_sent=60)
    assert prover_meters == [charpoly if i % 3 == 2 else simple
                             for i in range(20)]


KIND_PINS = {
    "Projection":
        "bbf32b88ce1c9477c48015561c10d38a262cf35504e82e629649a8dcdee5d3a9",
    "SecondaryProjection":
        "8bca6eade24e2f13821feaa4e64af0304c4c32f918decd002b125970b8d2d896",
    "Commitment":
        "7deda2825a6df447d847709925e239d1b1abdbf6bab045f8ae16c7234e3ab661",
    "Bezout":
        "af34e6a3e6662a8fbc84564e7aa452f039f0f3f43b0e8b6990f9919eab3765ec",
    "PointChallenge":
        "988ca7a3443daab9110fd8aa6e374dcff1c616b988f521996f7a3c107e555660",
    "Solution":
        "d2b6f98c98c5cba75b975539be8438340a110cff74ca8636060032b102a78ec5",
    "DiagonalAnnounce":
        "e25880c2efbd2753ce098ec3b8c47e7f8209f8b19fbd46dbd7ff395d8bec2426",
    "GammaAnnounce":
        "5c94112a868ae5d80fef084e2f9c57b7d718f04cc15a8dd5c8910447fd6a6090",
    "SingularityWitness":
        "41457201805d1adeadcfacce636943058ed1e2831558c14c5176a78d743ea3c5",
}


def test_every_message_kind_codec_pinned(fbig):
    # One fixed instance of every message class; the sha256 of its canonical
    # bytes (in both roles), its text and its wire cost is pinned.
    top = fbig.p - 1
    msgs = [
        Projection((1, 2, top), (4, 0, 6)),
        SecondaryProjection((7, 8), (top, 10)),
        Commitment(Poly(fbig, (3, 0, 1)), Poly.zero(fbig)),
        Bezout(Poly(fbig, (5, 2)), Poly(fbig, (top,))),
        PointChallenge(top),
        Solution((0, 1, top)),
        DiagonalAnnounce((2, 3, 4)),
        GammaAnnounce(11, top),
        SingularityWitness((0, 0, 1)),
    ]
    digests = {}
    for msg in msgs:
        h = hashlib.sha256()
        for role in ("prover", "verifier"):
            h.update(message_bytes(role, msg) + b"\n")
        h.update(f"{render_message(msg)}\n{wire_cost(msg)}".encode())
        digests[type(msg).__name__] = h.hexdigest()
    assert digests == KIND_PINS


def test_fs_matches_interactive_with_same_challenges(matrix):
    transcript, outcome = fs_session(matrix)
    drawn = [m.value for _, m in transcript.messages
             if isinstance(m, PointChallenge)]
    prover = HonestProver(matrix.field, Random(1))
    ch = ScriptedChallenges(drawn, None)
    _, interactive = certify_det_gamma(matrix, prover, challenges=ch)
    assert interactive == outcome


def test_fs_singular_witness_roundtrip(fbig):
    a = gen_singular(fbig, 6, Random(9))
    transcript, outcome = fs_session(a)
    assert isinstance(outcome, Accept)
    replayed, _ = verify_noninteractive(parse_transcript(transcript.render()), a)
    assert replayed == outcome


def test_a_grinder_forges_a_det_gamma_transcript_at_a_small_p():
    # Fiat-Shamir lets a cheating prover retry offline until the hash gives
    # it a lucky challenge.  At p = 10007 and n = 10 the merged-point
    # bound (5n - 3)/p is about 1 in 213, and a prover that commits a wrong
    # generator gets a wrong determinant accepted at its 1217th try; the
    # replay of the rendered transcript accepts it too.
    f = PrimeField(10007)
    a = gen_nonsingular(f, 10, Random(10), 0.5)
    tries, transcript, outcome = grind(
        "det-gamma", a, lambda i: WrongGeneratorProver(f, Random(i)), 2000)
    assert tries == 1217 and outcome == Accept(5848) and oracle_det(a) == 7730
    replayed, _ = verify_noninteractive(parse_transcript(transcript.render()), a)
    assert replayed == outcome


def test_tamper_detection_sample(matrix):
    transcript, _ = fs_session(matrix)
    text = transcript.render()
    rng = Random(123)
    for _ in range(30):
        corrupted = _corrupt_payload_byte(text, rng)
        try:
            parsed = parse_transcript(corrupted)
        except ParseError:
            continue
        out, _ = verify_noninteractive(parsed, matrix)
        assert not isinstance(out, Accept)


def test_tampered_outcome_line(matrix):
    transcript, _ = fs_session(matrix)
    lines = transcript.render().rstrip("\n").split("\n")
    assert lines[-1].startswith("outcome Accept ")
    val = lines[-1].rsplit(" ", 1)[-1]
    forged = str((int(val) + 1) % matrix.field.p)
    lines[-1] = f"outcome Accept {forged}"
    out, _ = verify_noninteractive(parse_transcript("\n".join(lines) + "\n"), matrix)
    assert out == Reject("verdict-mismatch")


def test_inserted_message_rejected(matrix):
    transcript, _ = fs_session(matrix)
    lines = transcript.render().rstrip("\n").split("\n")
    lines.insert(len(lines) - 1, "prover solution " + ",".join("1" * matrix.n))
    out, _ = verify_noninteractive(parse_transcript("\n".join(lines) + "\n"), matrix)
    assert isinstance(out, Reject)


def test_different_matrices_different_challenges(fbig):
    a = random_nonsingular_dense_checked(fbig, 8, Random(7), 0.3)
    b = random_nonsingular_dense_checked(fbig, 8, Random(8), 0.3)
    ta, _ = fs_session(a)
    tb, _ = fs_session(b)
    ra = [m.value for _, m in ta.messages if isinstance(m, PointChallenge)]
    rb = [m.value for _, m in tb.messages if isinstance(m, PointChallenge)]
    assert ra != rb


def test_verify_wrong_matrix_raises(matrix, fbig):
    transcript, _ = fs_session(matrix)
    other = identity_matrix(fbig, matrix.n)
    with pytest.raises(UsageError):
        verify_noninteractive(transcript, other)


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_budget_report_same_on_replay(fbig, matrix, protocol):
    # A replayed transcript carries no prover meter: the communication count
    # comes from the prover's messages, as the live session charged them.
    for a in (matrix, gen_singular(fbig, 6, Random(9))):
        kw = sample_projections(protocol, fbig, a.n, Random(3))
        transcript, _ = fs_session(a, protocol, **kw)
        parsed = parse_transcript(transcript.render())
        _, meter = verify_noninteractive(parsed, a)
        replayed = budget_report(replace(parsed, verifier_meter=meter), a)
        # The prover's own draws never cross the wire: a replay cannot count
        # them.
        assert replayed == replace(budget_report(transcript, a),
                                   prover_draws=None)


def test_budget_report_of_a_parsed_transcript_needs_a_replay(matrix):
    # A parsed transcript carries no meters; reporting its budget without a
    # replay's verifier meter would report zero operations within budget.
    transcript, _ = fs_session(matrix)
    parsed = parse_transcript(transcript.render())
    assert parsed.verifier_meter is None and parsed.prover_meter is None
    with pytest.raises(UsageError):
        budget_report(parsed, matrix)


def test_parse_transcript_strictness(matrix):
    transcript, _ = fs_session(matrix)
    text = transcript.render()
    with pytest.raises(ParseError):
        parse_transcript(text.replace("certilin/1", "certilin/2", 1))
    with pytest.raises(ParseError):
        parse_transcript(text + "trailing\n")
    with pytest.raises(ParseError):
        parse_transcript("\n".join(text.split("\n")[:-2]) + "\n")  # outcome gone
    lines = text.rstrip("\n").split("\n")
    lines[1] = lines[1] + " "
    with pytest.raises(ParseError):
        parse_transcript("\n".join(lines) + "\n")
    # Out-of-range payload value.
    bad = text.replace(" ", f" {matrix.field.p},", 2)
    with pytest.raises(ParseError):
        parse_transcript(bad)
    # A polynomial token with a trailing zero coefficient is not canonical:
    # it would give a second text for the same session.
    lines = text.rstrip("\n").split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("prover commit "))
    toks = lines[at].split(" ")
    toks[2] += ",0"
    lines[at] = " ".join(toks)
    with pytest.raises(ParseError):
        parse_transcript("\n".join(lines) + "\n")
    # Only ASCII decimal digits are canonical, and "1,0" is the constant 1
    # with a trailing zero.
    for prefix, token in (("verifier challenge ", "\u0661"),
                          ("verifier challenge ", "\u00b2"),
                          ("prover commit ", "1,0")):
        lines = text.rstrip("\n").split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        toks = lines[at].split(" ")
        toks[2] = token
        lines[at] = " ".join(toks)
        with pytest.raises(ParseError):
            parse_transcript("\n".join(lines) + "\n")


def test_parse_transcript_error_messages_pinned(matrix):
    text = fs_session(matrix)[0].render()
    lines = text.rstrip("\n").split("\n")
    head, outcome = lines[0], lines[-1]
    p = matrix.field.p

    def ones(k):
        return ",".join(["1"] * k)

    cases = [
        ("", 1, "empty transcript"),
        (f"{head.replace(f'p={p}', 'p=8')}\n{outcome}\n", 1,
         "bad modulus: modulus 8 is not prime"),
        (f"{head}\n", 2, "missing outcome line"),
        (f"{head}\nprover commit\n{outcome}\n", 2, "message line too short"),
        (f"{head}\noutcome Accept 1 2\n", 2,
         "Accept outcome needs one payload token"),
        (f"{head}\noutcome Reject Bad_Reason\n", 2, "malformed Reject outcome"),
        (f"{head}\noutcome Maybe x\n", 2, "unknown outcome tag 'Maybe'"),
        # No payload has more than n + 1 entries; a longer one is refused
        # before any entry is converted, on a message line or the outcome.
        (f"{head}\nprover commit {ones(matrix.n + 2)} 1\n{outcome}\n", 2,
         f"payload of more than {matrix.n + 1} entries"),
        (f"{head}\noutcome Accept {ones(matrix.n + 2)}\n", 2,
         f"payload of more than {matrix.n + 1} entries"),
    ]
    for text_in, line, message in cases:
        with pytest.raises(ParseError) as e:
            parse_transcript(text_in)
        assert e.value.line == line
        assert str(e.value) == f"line {line}: {message}"
    longest = parse_transcript(
        f"{head}\nprover commit {ones(matrix.n + 1)} 1\n{outcome}\n")
    assert len(longest.messages[0][1].gen.coeffs) == matrix.n + 1
    # A 5000-digit challenge: the message comes from int()'s digit limit, or
    # from the range check where the Python version has no limit, so only the
    # line is pinned.  The same goes for 5000 digits in the header's n= or p=,
    # or in the outcome's Accept payload.
    digits = "1" * 5000
    at = next(i for i, line in enumerate(lines) if line.startswith("verifier challenge "))
    long = list(lines)
    long[at] = "verifier challenge " + digits
    body = "\n".join(lines[1:-1])
    for text_in, line in [
            ("\n".join(long) + "\n", at + 1),
            (f"{head.replace(f'n={matrix.n}', f'n={digits}')}\n{body}\n{outcome}\n", 1),
            (f"{head.replace(f'p={p}', f'p={digits}')}\n{body}\n{outcome}\n", 1),
            (f"{head}\n{body}\noutcome Accept {digits}\n", len(lines))]:
        with pytest.raises(ParseError) as e:
            parse_transcript(text_in)
        assert e.value.line == line
    assert at + 1 == 5


def test_transcript_header_format(matrix):
    transcript, _ = fs_session(matrix)
    head = transcript.render().split("\n", 1)[0]
    parts = head.split(" ")
    assert parts[0] == "certilin/1"
    assert parts[1] == "det-gamma"
    assert parts[2] == f"n={matrix.n}"
    assert parts[3] == f"p={matrix.field.p}"
    assert parts[4].startswith("matrix=") and len(parts[4]) == 7 + 64


def _edits(text):
    """The transcript as is, then structural edits of its message lines."""
    lines = text.rstrip("\n").split("\n")
    head, body, tail = lines[0], lines[1:-1], lines[-1]

    def join(mid):
        return "\n".join([head, *mid, tail]) + "\n"

    flip = {"prover": "verifier", "verifier": "prover"}
    yield "none", text
    for i, line in enumerate(body):
        yield f"drop {i}", join(body[:i] + body[i + 1:])
        yield f"duplicate {i}", join(body[:i + 1] + body[i:])
        role, rest = line.split(" ", 1)
        yield f"flip {i}", join(body[:i] + [f"{flip[role]} {rest}"] + body[i + 1:])
    for i in range(len(body) - 1):
        yield f"swap {i}", join(body[:i] + [body[i + 1], body[i]] + body[i + 2:])
    yield "strip", join([])


def test_replay_verdicts_of_edited_transcripts_pinned(fbig):
    # Honest Fiat-Shamir transcripts of every protocol, on a nonsingular and
    # a singular matrix, replayed as they are and after dropping,
    # duplicating, re-roling or swapping message lines, or stripping them
    # all.  The verdict and the verifier meter of each replay are pinned, so
    # any change to the replay path shows up here.  Each replay's verifier
    # ops stay within the protocol's budget wherever it states one.
    rng = Random(6)
    u = [fbig.sample(rng) for _ in range(6)]
    v = [fbig.sample(rng) for _ in range(6)]
    matrices = (random_nonsingular_dense_checked(fbig, 6, Random(7), 0.3),
                gen_singular(fbig, 6, Random(9)))
    h = hashlib.sha256()
    tally = {}
    bounded = 0
    for a in matrices:
        for protocol in PROTOCOL_IDS:
            kw = {"u": u, "v": v} if protocol.startswith("fauv") else {}
            transcript, _ = fiat_shamir(protocol, a,
                                        HonestProver(fbig, Random(1)), **kw)
            for label, text in _edits(transcript.render()):
                parsed = parse_transcript(text)
                out, meter = verify_noninteractive(parsed, a)
                # A hostile transcript is rejected within the verifier budget.
                bound = budget_report(replace(parsed, verifier_meter=meter),
                                      a).ops_bound
                if bound is not None:
                    bounded += 1
                    assert meter.field_ops <= bound, f"{protocol} {label}"
                verdict = (out.reason if isinstance(out, Reject)
                           else type(out).__name__)
                tally[verdict] = tally.get(verdict, 0) + 1
                h.update(f"{protocol} {label}: {render_outcome(out)} {meter}\n"
                         .encode())
    assert tally == {"Accept": 16, "challenge-mismatch": 6,
                     "malformed-transcript": 290}
    assert bounded == 190
    assert h.hexdigest() == (
        "90e61c107752df84595bb90d15518ac408bbadfa26dfed48fe30978455fbe139")


def _bump_first_entry(line, p):
    head, u, v = line.rsplit(" ", 2)
    first, rest = u.split(",", 1)
    return f"{head} {(int(first) + 1) % p},{rest} {v}"


def _drop_last_entry(line, p):
    head, u, v = line.rsplit(" ", 2)
    return f"{head} {u.rsplit(',', 1)[0]} {v}"


def _diagonal_announce(line, p):
    return "prover " + render_message(DiagonalAnnounce(tuple(range(1, 9))))


@pytest.mark.parametrize("protocol, prefix, edit, reason", [
    # A projection other than the one the verifier draws.
    ("minpoly", "verifier projection ", _bump_first_entry, "challenge-mismatch"),
    # A public projection one entry short.
    ("fauv", "verifier projection ", _drop_last_entry, "malformed-transcript"),
    # det-gamma's preconditioner line announcing a diagonal.
    ("det-gamma", "prover precond ", _diagonal_announce,
     "malformed-preconditioner"),
])
def test_replay_rejects_an_edited_setup_line(fbig, matrix, protocol, prefix,
                                            edit, reason):
    rng = Random(3)
    kw = ({"u": [fbig.sample(rng) for _ in range(8)],
           "v": [fbig.sample(rng) for _ in range(8)]}
          if protocol == "fauv" else {})
    transcript, _ = fs_session(matrix, protocol, **kw)
    lines = transcript.render().split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = edit(lines[at], fbig.p)
    parsed = parse_transcript("\n".join(lines))
    out, meter = verify_noninteractive(parsed, matrix)
    assert out == Reject(reason)
    assert budget_report(replace(parsed, verifier_meter=meter), matrix).ops_ok


def test_vector_wire_format_matches_the_per_element_reference():
    rng = Random(23)
    for p in (3, 10**9 + 7, 2**62 - 57):
        f = PrimeField(p)
        for n in (1, 2, 7, 8, 9, 300, 800):
            v = tuple(rng.randrange(p) for _ in range(n))
            assert _vec_bytes(v) == reference_vec_bytes(v)
            tok = ",".join(map(str, v))
            assert _parse_vec(f, tok, 3) == reference_parse_vec(f, tok, 3) == v
    assert _vec_bytes(()) == reference_vec_bytes(())
    assert _vec_bytes((2**64 - 1,)) == reference_vec_bytes((2**64 - 1,))
    for bad in (-1, 2**64):
        for encode in (_vec_bytes, reference_vec_bytes):
            with pytest.raises(OverflowError):
                encode((1, bad, 2))
    # Each malformed token fails with the per-token parser's message and
    # line: a leading zero, a sign, an empty part, a trailing comma, a
    # value equal to p, a non-digit and a 20-digit value.
    f = PrimeField(101)
    for tok in ("1,07,3", "+7", "1,,2", "1,2,", "5,101", "1,x,2", "",
                "3," + "1" * 20):
        with pytest.raises(ParseError) as got:
            _parse_vec(f, tok, 9)
        with pytest.raises(ParseError) as want:
            reference_parse_vec(f, tok, 9)
        assert (got.value.line, str(got.value)) == (want.value.line,
                                                    str(want.value))


# p just above 2^64 / 4.5: one chunk in nine falls at or above 4p and is
# rejected, so the interleavings below also cross rejections.
_REJECTING_PRIME = 4_100_000_000_000_000_249


def test_fs_stream_matches_the_per_draw_rehash():
    rng = Random(21)
    fields = [PrimeField(7), PrimeField(1_000_003),
              PrimeField(_REJECTING_PRIME)]
    for _ in range(60):
        material = bytearray(rng.randbytes(rng.randrange(1, 90)))
        keyed, reference = FiatShamirChallenges(), RehashingFiatShamir()
        for _ in range(30):
            if rng.random() < 0.4:
                material += rng.randbytes(rng.randrange(1, 30))
            # Runs of zero to five draws between messages.
            for _ in range(rng.randrange(6)):
                field = rng.choice(fields)
                assert (keyed.draw(field, material)
                        == reference.draw(field, material))


def test_fs_source_reused_for_a_second_session_draws_afresh(fbig, matrix):
    reused = FiatShamirChallenges()
    first, second = (
        certify_minpoly(matrix, HonestProver(fbig, Random(3)),
                        challenges=reused)[0].render() for _ in range(2))
    fresh, _ = certify_minpoly(matrix, HonestProver(fbig, Random(3)),
                               challenges=FiatShamirChallenges())
    assert first == second == fresh.render()
    # A new material object starts a new stream, even at an equal length
    # and at the address of a freed one.
    source = FiatShamirChallenges()
    draws = [source.draw(fbig, bytearray(b"header")) for _ in range(3)]
    assert draws == [FiatShamirChallenges().draw(fbig, b"header")] * 3


def test_minpoly_session_hashes_its_material_once_per_message(fbig,
                                                             monkeypatch):
    n = 50
    a = gen_nonsingular(fbig, n, Random(n), 5 / n)
    matrix_digest(a)  # cached before hashes are counted
    sha256 = hashlib.sha256
    hashed = []

    def counting_sha256(data=b""):
        # A chunk block hashes a 32-byte tag and an 8-byte counter; every
        # other input is session material.
        if len(data) != 40:
            hashed.append(len(data))
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    rendered = {}
    for source in (FiatShamirChallenges, RehashingFiatShamir):
        hashed.clear()
        t, outcome = certify_minpoly(a, HonestProver(fbig, Random(1)),
                                     challenges=source())
        assert isinstance(outcome, Accept)
        rendered[source] = t.render()
        # 2n projection entries drawn from the header, then one point
        # challenge after the projection, commitment and Bezout messages.
        assert len(hashed) == (2 if source is FiatShamirChallenges
                               else 2 * n + 1)
    assert rendered[FiatShamirChallenges] == rendered[RehashingFiatShamir]
