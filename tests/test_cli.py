import contextlib
import io
from random import Random

import pytest

from certilin import (BadChallenge, HonestProver, PrimeField, emit_sms,
                      fiat_shamir, matrix_digest, parse_sms)
from certilin.cli import main
from certilin.harness import gen_nonsingular


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def kv(text):
    pairs = {}
    for line in text.strip().split("\n"):
        if "=" in line and " " not in line:
            k, v = line.split("=", 1)
            pairs[k] = v
    return pairs


def kv_row(line):
    return dict(tok.split("=", 1) for tok in line.strip().split(" "))


@pytest.fixture()
def matrix_file(tmp_path):
    # Seed 4 yields a nonsingular 10 x 10 sample (dense-oracle checked).
    path = tmp_path / "a.sms"
    code, _, _ = run_cli("gen", "--n", "10", "--density", "0.3",
                         "--modulus", "1000003", "--seed", "4",
                         "--matrix", str(path))
    assert code == 0
    return path


def identity_file(tmp_path, n, p):
    path = tmp_path / "ident.sms"
    lines = [f"{n} {n} {p}"] + [f"{i} {i} 1" for i in range(1, n + 1)] + ["0 0 0"]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_gen_roundtrips_and_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "m1.sms", tmp_path / "m2.sms"
    for path in (p1, p2):
        code, _, _ = run_cli("gen", "--n", "8", "--density", "0.5",
                             "--modulus", "101", "--seed", "3",
                             "--matrix", str(path))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    a = parse_sms(p1.read_text())
    assert a.n == 8 and a.field.p == 101


def test_gen_rejects_bad_density(tmp_path):
    code, _, _ = run_cli("gen", "--n", "4", "--density", "0", "--modulus",
                         "7", "--matrix", str(tmp_path / "x.sms"))
    assert code == 1


def test_gen_nnz_concentration(tmp_path):
    # Expected nnz = 0.05 * 100^2 = 500; generous binomial window.
    counts = []
    for seed in range(100):
        path = tmp_path / f"g{seed}.sms"
        code, out, _ = run_cli("gen", "--n", "100", "--density", "0.05",
                               "--modulus", "1000003", "--seed", str(seed),
                               "--matrix", str(path), "--format", "kv")
        assert code == 0
        counts.append(int(kv(out)["nnz"]))
    assert all(300 <= c <= 700 for c in counts)


def test_prove_verify_roundtrip(tmp_path, matrix_file):
    transcript = tmp_path / "t.txt"
    code, out, _ = run_cli("prove", "--protocol", "det-gamma",
                           "--matrix", str(matrix_file),
                           "--transcript", str(transcript),
                           "--seed", "2", "--format", "kv")
    assert code == 0
    assert kv(out)["outcome"] == "Accept"
    code, out, _ = run_cli("verify", "--transcript", str(transcript),
                           "--matrix", str(matrix_file), "--format", "kv")
    assert code == 0
    assert kv(out)["ops_within_budget"] == "True"


def test_prove_is_deterministic(tmp_path, matrix_file):
    t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
    outs = []
    for t in (t1, t2):
        code, out, _ = run_cli("prove", "--protocol", "det-diag",
                               "--matrix", str(matrix_file),
                               "--transcript", str(t), "--seed", "9",
                               "--format", "kv")
        assert code == 0
        outs.append(out)
    assert t1.read_bytes() == t2.read_bytes()
    assert outs[0] == outs[1]


def test_prove_minpoly_identity(tmp_path):
    path = identity_file(tmp_path, 4, 1000003)
    code, out, _ = run_cli("prove", "--protocol", "minpoly",
                           "--matrix", str(path), "--seed", "1",
                           "--format", "kv")
    assert code == 0
    assert kv(out)["result"] == "1000002,1"


def test_prove_field_too_small(tmp_path):
    path = identity_file(tmp_path, 10, 11)
    code, _, err = run_cli("prove", "--protocol", "minpoly",
                           "--matrix", str(path), "--seed", "1")
    assert code == 64
    assert "requires p >= 48" in err


def test_verify_detects_corruption(tmp_path, matrix_file):
    transcript = tmp_path / "t.txt"
    run_cli("prove", "--protocol", "det-gamma", "--matrix", str(matrix_file),
            "--transcript", str(transcript), "--seed", "2")
    text = transcript.read_text()
    lines = text.rstrip("\n").split("\n")
    target = next(i for i, ln in enumerate(lines) if ln.startswith("prover commit"))
    head, payload = lines[target].rsplit(" ", 1)
    first = payload.split(",")[0]
    flipped = str((int(first) + 1) % 1000003)
    lines[target] = head + " " + flipped + "," + payload.split(",", 1)[1]
    transcript.write_text("\n".join(lines) + "\n")
    code, _, _ = run_cli("verify", "--transcript", str(transcript),
                         "--matrix", str(matrix_file))
    assert code == 1


def test_verify_wrong_matrix_is_65(tmp_path, matrix_file):
    transcript = tmp_path / "t.txt"
    run_cli("prove", "--protocol", "det-gamma", "--matrix", str(matrix_file),
            "--transcript", str(transcript), "--seed", "2")
    other = identity_file(tmp_path, 10, 1000003)
    code, _, err = run_cli("verify", "--transcript", str(transcript),
                           "--matrix", str(other))
    assert code == 65


@pytest.mark.parametrize("n, p, field", [(10, 1000003, "digest"),
                                         (9, 1000003, "dimension"),
                                         (10, 1000033, "modulus")])
def test_verify_mismatch_names_the_header_field(tmp_path, matrix_file, n, p,
                                                field):
    # The library's MatrixMismatchError sets the exit code and the message.
    transcript = tmp_path / "t.txt"
    run_cli("prove", "--protocol", "det-gamma", "--matrix", str(matrix_file),
            "--transcript", str(transcript), "--seed", "2")
    code, out, err = run_cli("verify", "--transcript", str(transcript),
                             "--matrix", str(identity_file(tmp_path, n, p)))
    assert (code, out) == (65, "")
    assert err == f"error: transcript {field} does not match the matrix\n"


def test_prove_all_protocols(tmp_path, matrix_file):
    for protocol in ("fauv", "minpoly", "det-diag", "det-gamma",
                     "det-simple", "charpoly"):
        transcript = tmp_path / f"{protocol}.txt"
        code, out, err = run_cli("prove", "--protocol", protocol,
                                 "--matrix", str(matrix_file),
                                 "--transcript", str(transcript),
                                 "--seed", "4", "--format", "kv")
        assert code == 0, (protocol, err)
        code, _, _ = run_cli("verify", "--transcript", str(transcript),
                             "--matrix", str(matrix_file))
        assert code == 0, protocol


def test_attack_command_pass():
    code, out, _ = run_cli("attack", "--protocol", "fauv", "--strategy",
                           "wrong_generator", "--trials", "300", "--n", "10",
                           "--modulus", "1000003", "--seed", "1",
                           "--format", "kv")
    assert code == 0
    report = kv(out)
    assert report["verdict"] == "PASS"
    assert float(report["rejection_rate"]) >= 0.999


def test_attack_forged_bezout_label():
    code, out, _ = run_cli("attack", "--protocol", "fauv", "--strategy",
                           "forged_bezout", "--trials", "100", "--n", "8",
                           "--modulus", "1000003", "--seed", "2",
                           "--format", "kv")
    assert code == 0
    report = kv(out)
    assert report["label"] == "non-exposing"
    assert report["accepted"] == "100"


def test_attack_wrong_solution_exact():
    code, out, _ = run_cli("attack", "--protocol", "det-gamma", "--strategy",
                           "wrong_solution", "--trials", "50",
                           "--modulus", "1000003", "--seed", "3",
                           "--format", "kv")
    assert code == 0
    assert kv(out)["rejected"] == "50"


def test_bench_det_gamma_economy():
    code, out, _ = run_cli("bench", "--protocol", "det-gamma", "--sizes",
                           "10,20", "--seed", "1", "--format", "kv")
    assert code == 0
    for line in out.strip().split("\n"):
        row = kv_row(line)
        assert row["ok"] == "True"
        assert row["random_elements"] == "3"


def test_bench_det_diag_economy():
    code, out, _ = run_cli("bench", "--protocol", "det-diag", "--sizes", "10",
                           "--seed", "1", "--format", "kv")
    assert code == 0
    row = kv_row(out.strip().split("\n")[0])
    # 3n prover draws plus the merged challenge; within the 3n+2 budget.
    assert int(row["random_elements"]) == 31 <= 32


def test_bench_fauv_communication():
    code, out, _ = run_cli("bench", "--protocol", "fauv", "--sizes", "10",
                           "--seed", "1", "--format", "kv")
    assert code == 0
    row = kv_row(out.strip().split("\n")[0])
    assert int(row["elements_sent"]) <= 40


def test_selftest_small():
    code, out, _ = run_cli("selftest", "--max-n", "6", "--seeds", "4",
                           "--modulus", "1000003")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_selftest_without_seeds_is_a_usage_error(seeds):
    # No seed runs no cross-check, so it cannot report "0 failures".
    code, out, err = run_cli("selftest", "--max-n", "6", "--seeds", seeds)
    assert (code, out) == (1, "")
    assert err == "error: seeds must be >= 1\n"


def test_selftest_small_field_skips():
    code, out, _ = run_cli("selftest", "--max-n", "12", "--seeds", "7",
                           "--modulus", "101")
    assert code == 0
    assert "SKIP" in out and "field too small" in out


@pytest.mark.parametrize("argv", [
    ("selftest", "--max-n", "100"),
    ("attack", "--protocol", "fauv", "--strategy", "wrong_generator",
     "--trials", "0"),
    ("bench", "--protocol", "fauv", "--sizes", "0"),
    ("bench", "--protocol", "det-gamma", "--sizes", "10,0"),
    ("bench", "--protocol", "det-gamma", "--sizes", "3,x"),
    ("bench", "--protocol", "det-gamma", "--sizes", "10", "--density", "0"),
    ("bench", "--protocol", "det-gamma", "--sizes", "10", "--density", "2"),
])
def test_invalid_arguments_are_usage_errors(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_wrong_claim_is_not_a_strategy():
    # wrong_claim is charpoly's wrong_generator, not an attack of its own.
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["attack", "--protocol", "fauv", "--strategy", "wrong_claim"])
    assert exc.value.code == 2
    assert "invalid choice: 'wrong_claim'" in err.getvalue()


@pytest.mark.parametrize("command", ["prove-matrix", "verify-matrix",
                                     "verify-transcript", "gen-matrix",
                                     "prove-undecodable", "verify-undecodable"])
def test_unusable_paths_are_errors(tmp_path, matrix_file, command):
    # A directory where a file is expected, or a file that is not UTF-8 (it
    # starts with a UTF-16 byte-order mark): an OSError other than
    # FileNotFoundError, or a decoding error, must still end in "error: ..."
    # and exit 1.
    transcript = tmp_path / "t.txt"
    assert run_cli("prove", "--protocol", "det-gamma", "--matrix", str(matrix_file),
                   "--transcript", str(transcript))[0] == 0
    folder = str(tmp_path)
    undecodable = tmp_path / "utf16.txt"
    undecodable.write_bytes(b"\xff\xfe" + "4 4 7\n".encode("utf-16-le"))
    argv = {
        "prove-matrix": ("prove", "--protocol", "det-gamma", "--matrix", folder),
        "verify-matrix": ("verify", "--transcript", str(transcript), "--matrix", folder),
        "verify-transcript": ("verify", "--transcript", folder,
                              "--matrix", str(matrix_file)),
        "gen-matrix": ("gen", "--n", "4", "--density", "0.5", "--modulus", "7",
                       "--matrix", folder),
        "prove-undecodable": ("prove", "--protocol", "det-gamma",
                              "--matrix", str(undecodable)),
        "verify-undecodable": ("verify", "--transcript", str(undecodable),
                               "--matrix", str(matrix_file)),
    }[command]
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_verify_prints_bad_challenge_detail(tmp_path):
    # An honest fauv session whose two challenges hit a root: the verifier's
    # own randomness, not the prover, left it unproven.
    field = PrimeField(101)
    a = gen_nonsingular(field, 4, Random(87), 0.5)
    transcript, outcome = fiat_shamir("fauv", a, HonestProver(field, Random(87)),
                                      u=[1, 2, 3, 4], v=[4, 3, 2, 1])
    assert outcome == BadChallenge("unlucky-challenge")
    matrix, cert = tmp_path / "a.sms", tmp_path / "a.cert"
    matrix.write_text(emit_sms(a))
    cert.write_text(transcript.render())
    code, out, _ = run_cli("verify", "--transcript", str(cert),
                           "--matrix", str(matrix))
    assert code == 2
    assert "outcome: BadChallenge\ndetail: unlucky-challenge\n" in out


def test_verify_field_too_small_is_64(tmp_path):
    # The header matches the matrix, but det-gamma at n = 12 needs p >= 132.
    path = identity_file(tmp_path, 12, 101)
    digest = matrix_digest(parse_sms(path.read_text()))
    cert = tmp_path / "t.txt"
    cert.write_text(f"certilin/1 det-gamma n=12 p=101 matrix={digest}\n"
                    "outcome Reject malformed-transcript\n")
    code, out, err = run_cli("verify", "--transcript", str(cert),
                             "--matrix", str(path))
    assert code == 64
    assert out == ""
    assert "requires p >= 132" in err


@pytest.mark.parametrize("argv", [
    ("attack", "--protocol", "det-gamma", "--strategy", "wrong_generator",
     "--trials", "10", "--n", "12", "--modulus", "101"),
    ("bench", "--protocol", "det-gamma", "--sizes", "12", "--modulus", "101"),
])
def test_field_too_small_is_64_for_every_command(argv):
    code, out, err = run_cli(*argv)
    assert code == 64
    assert out == ""
    assert err == "error: protocol det-gamma requires p >= 132, got p = 101\n"


def test_bench_text_rows_match_kv_rows():
    argv = ("bench", "--protocol", "det-gamma", "--sizes", "6,10", "--seed", "1")
    code, text, _ = run_cli(*argv)
    assert code == 0
    _, kv_out, _ = run_cli(*argv, "--format", "kv")
    rows = [dict(tok.split("=", 1) for tok in line.split("  "))
            for line in text.strip().split("\n")]
    assert rows == [kv_row(line) for line in kv_out.strip().split("\n")]
    assert [row["n"] for row in rows] == ["6", "10"]


def test_bench_empty_size_list():
    code, out, err = run_cli("bench", "--protocol", "det-gamma", "--sizes", ",")
    assert code == 1
    assert out == ""
    assert err == "error: empty size list\n"


def test_verify_reports_the_malformed_line(tmp_path, matrix_file):
    transcript = tmp_path / "t.txt"
    run_cli("prove", "--protocol", "det-gamma", "--matrix", str(matrix_file),
            "--transcript", str(transcript), "--seed", "2")
    lines = transcript.read_text().split("\n")
    assert lines[2].startswith("prover commit ")
    lines[2] = "prover commit x"
    transcript.write_text("\n".join(lines))
    code, out, err = run_cli("verify", "--transcript", str(transcript),
                             "--matrix", str(matrix_file))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: line 3: ")


def test_verify_reads_any_sms_form_of_the_matrix(tmp_path):
    canonical, copy = tmp_path / "a.sms", tmp_path / "b.sms"
    code, _, _ = run_cli("gen", "--n", "30", "--density", "0.1",
                         "--modulus", "1000003", "--seed", "5",
                         "--matrix", str(canonical))
    assert code == 0
    head, *body = canonical.read_text().split("\n")[:-2]
    n, _, p = map(int, head.split())
    entries = [tuple(map(int, line.split())) for line in body]
    # The same matrix: entries shuffled, one value unreduced and negative,
    # one coordinate split across two lines, tabs and runs of spaces, blank
    # lines and CRLF endings.
    (i, j, v), (i2, j2, v2), *rest = entries
    lines = [f"{i}\t{j}  {v - 3 * p}", f"{i2} {j2} 1", f"  {i2}\t\t{j2} {v2 - 1}"]
    lines += [f"{a} {b} {c}" for a, b, c in rest]
    Random(5).shuffle(lines)
    lines[len(lines) // 2:len(lines) // 2] = ["", " \t "]
    copy.write_bytes("\r\n".join(["", f"{n}   {n}\t{p}", *lines, "0 0 0", ""])
                     .encode())
    assert parse_sms(copy.read_text()) == parse_sms(canonical.read_text())
    assert copy.read_bytes() != canonical.read_bytes()
    for protocol in ("det-gamma", "minpoly"):
        cert = tmp_path / f"{protocol}.cert"
        code, _, _ = run_cli("prove", "--protocol", protocol, "--seed", "2",
                             "--matrix", str(canonical), "--transcript", str(cert))
        assert code == 0
        want = run_cli("verify", "--transcript", str(cert), "--matrix", str(canonical))
        assert want[0] == 0 and "outcome: Accept" in want[1]
        assert run_cli("verify", "--transcript", str(cert), "--matrix", str(copy)) == want
