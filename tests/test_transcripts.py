import hashlib
from random import Random

import pytest

from certilin import (Accept, HonestProver, ParseError, PointChallenge,
                      Reject, ScriptedChallenges, UsageError,
                      certify_det_gamma, fiat_shamir, identity_matrix,
                      parse_transcript, verify_noninteractive)
from certilin.harness import (_corrupt_payload_byte, gen_singular,
                              random_nonsingular_dense_checked)
from certilin.provers import SingularDenialProver


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


def test_transcript_header_format(matrix):
    transcript, _ = fs_session(matrix)
    head = transcript.render().split("\n", 1)[0]
    parts = head.split(" ")
    assert parts[0] == "certilin/1"
    assert parts[1] == "det-gamma"
    assert parts[2] == f"n={matrix.n}"
    assert parts[3] == f"p={matrix.field.p}"
    assert parts[4].startswith("matrix=") and len(parts[4]) == 7 + 64
