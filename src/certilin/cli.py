"""Command-line surface.

Subcommands: gen (random SMS matrix), prove (non-interactive session,
writes a transcript), verify (replay a transcript), attack (adversarial
trial harness), bench (budget table), selftest (oracle cross-checks).

Exit codes: 0 accept / pass, 1 reject or internal error, 2 bad challenge,
64 field-size precondition violated, 65 transcript/matrix mismatch.
Every command is deterministic given its flags; reports support a
machine-readable key=value format via --format kv.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from .blackbox import emit_sms, parse_sms
from .errors import (CertilinError, FieldTooSmallError, MatrixMismatchError,
                     ParseError, UsageError)
from .field import PrimeField
from .harness import (PROTOCOL_CHOICES, gen_sparse, run_attack, run_bench,
                      run_selftest, sample_projections, subseed)
from .messages import (Accept, Reject, outcome_exit_code, parse_transcript,
                       result_text)
from .protocol import budget_report, fiat_shamir, verify_noninteractive
from .provers import STRATEGIES, HonestProver

EXIT_FIELD_TOO_SMALL = 64
EXIT_MATRIX_MISMATCH = 65


class _Report:
    """Uniform text / key=value emission."""

    def __init__(self, fmt: str):
        self.kv = fmt == "kv"

    def emit(self, key: str, value):
        if self.kv:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")

    def row(self, pairs):
        if self.kv:
            print(" ".join(f"{k}={v}" for k, v in pairs))
        else:
            print("  ".join(f"{k}={v}" for k, v in pairs))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                             f"{exc.start}") from None


def _load_matrix(path: str):
    return parse_sms(_read_text(path))


def _check_density(density):
    if density is not None and not 0 < density <= 1:
        raise UsageError(f"density must be in (0, 1], got {density}")


def cmd_gen(args) -> int:
    _check_density(args.density)
    field = PrimeField(args.modulus)
    rng = subseed(args.seed, "gen", args.n, args.density)
    a = gen_sparse(field, args.n, args.density, rng)
    with open(args.matrix, "w", encoding="utf-8") as fh:
        fh.write(emit_sms(a))
    rep = _Report(args.format)
    rep.emit("matrix", args.matrix)
    rep.emit("n", a.n)
    rep.emit("p", field.p)
    rep.emit("nnz", a.nnz)
    return 0


def _emit_outcome(rep, outcome):
    rep.emit("outcome", type(outcome).__name__)
    if isinstance(outcome, Accept):
        rep.emit("result", result_text(outcome.result))
    elif isinstance(outcome, Reject):
        rep.emit("reason", outcome.reason)
    else:
        rep.emit("detail", outcome.detail)


def cmd_prove(args) -> int:
    a = _load_matrix(args.matrix)
    field = a.field
    rng = Random(args.seed)
    prover = HonestProver(field, rng)
    kwargs = sample_projections(args.protocol, field, a.n, rng)
    transcript, outcome = fiat_shamir(args.protocol, a, prover, **kwargs)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript.render())
    rep = _Report(args.format)
    rep.emit("protocol", transcript.protocol_id)
    rep.emit("n", transcript.n)
    rep.emit("p", transcript.p)
    _emit_outcome(rep, outcome)
    vm, pm = transcript.verifier_meter, transcript.prover_meter
    rep.emit("verifier_field_ops", vm.field_ops)
    rep.emit("verifier_matvec", vm.matvec)
    rep.emit("prover_matvec", pm.matvec)
    rep.emit("elements_sent", pm.elements_sent)
    rep.emit("random_elements", vm.random_draws + pm.random_draws)
    return outcome_exit_code(outcome)


def cmd_verify(args) -> int:
    a = _load_matrix(args.matrix)
    transcript = parse_transcript(_read_text(args.transcript))
    outcome, vm = verify_noninteractive(transcript, a)
    transcript.verifier_meter = vm
    rep = _Report(args.format)
    rep.emit("protocol", transcript.protocol_id)
    _emit_outcome(rep, outcome)
    rep.emit("verifier_field_ops", vm.field_ops)
    rep.emit("verifier_matvec", vm.matvec)
    budget = budget_report(transcript, a)
    if budget.ops_bound is not None:
        rep.emit("ops_budget", budget.ops_bound)
        rep.emit("ops_within_budget", budget.ops_ok)
        if not budget.ops_ok:
            print("warning: verifier budget overrun", file=sys.stderr)
    return outcome_exit_code(outcome)


def cmd_attack(args) -> int:
    report = run_attack(args.protocol, args.strategy, args.trials, args.n,
                        args.modulus, args.seed)
    rep = _Report(args.format)
    rep.emit("protocol", report.protocol)
    rep.emit("strategy", report.strategy)
    rep.emit("trials", report.trials)
    rep.emit("accepted", report.accepted)
    rep.emit("rejected", report.rejected)
    rep.emit("bad_challenge", report.bad_challenge)
    rep.emit("rejection_rate", f"{report.rejection_rate:.6f}")
    if report.bound is not None:
        rep.emit("bound", f"{report.bound:.6f}")
        rep.emit("allowance", f"{report.allowance:.6f}")
    if report.label:
        rep.emit("label", report.label)
    rep.emit("verdict", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise UsageError(f"sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise UsageError("empty size list")
    _check_density(args.density)
    rep = _Report(args.format)
    ok = True
    for nnz, row in run_bench(args.protocol, sizes, args.modulus, args.seed,
                              args.density):
        ok = ok and row.ok
        rep.row([
            ("protocol", row.protocol_id), ("n", row.n), ("nnz", nnz),
            ("verifier_ops", row.verifier_ops),
            ("ops_budget", row.ops_bound if row.ops_bound is not None else "-"),
            ("elements_sent", row.sent),
            ("sent_budget", row.sent_bound if row.sent_bound is not None else "-"),
            ("random_elements", row.random_draws + row.prover_draws),
            ("ok", row.ok),
        ])
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    report = run_selftest(args.max_n, args.seeds, args.modulus, args.seed)
    for line in report.lines:
        print(line)
    print(f"selftest: {report.failures} failures, {report.skipped} skipped")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="certilin",
        description="Interactive certificates for sparse linear algebra over Z_p")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, fmt=True, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if fmt:
            p.add_argument("--format", choices=("text", "kv"), default="text")

    g = sub.add_parser("gen", help="generate a random sparse SMS matrix file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--modulus", type=int, required=True)
    g.add_argument("--matrix", required=True, help="output path")
    common(g)
    g.set_defaults(func=cmd_gen)

    pr = sub.add_parser("prove", help="run a protocol non-interactively")
    pr.add_argument("--protocol", choices=PROTOCOL_CHOICES, required=True)
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--transcript", help="output transcript path")
    common(pr)
    pr.set_defaults(func=cmd_prove)

    ve = sub.add_parser("verify", help="replay a transcript")
    ve.add_argument("--transcript", required=True)
    ve.add_argument("--matrix", required=True)
    common(ve, seed=False)
    ve.set_defaults(func=cmd_verify)

    at = sub.add_parser("attack", help="adversarial soundness trials")
    at.add_argument("--protocol", choices=PROTOCOL_CHOICES, required=True)
    at.add_argument("--strategy", choices=tuple(STRATEGIES), required=True)
    at.add_argument("--trials", type=int, required=True)
    at.add_argument("--n", type=int, default=10)
    at.add_argument("--modulus", type=int, default=1_000_003)
    common(at)
    at.set_defaults(func=cmd_attack)

    be = sub.add_parser("bench", help="verifier budget table")
    be.add_argument("--protocol", choices=PROTOCOL_CHOICES, required=True)
    be.add_argument("--sizes", required=True, help="comma-separated sizes")
    be.add_argument("--modulus", type=int, default=1_000_003)
    be.add_argument("--density", type=float, default=None)
    common(be)
    be.set_defaults(func=cmd_bench)

    st = sub.add_parser("selftest", help="cross-check protocols vs dense oracles")
    st.add_argument("--max-n", type=int, default=12)
    st.add_argument("--seeds", type=int, default=20)
    st.add_argument("--modulus", type=int, default=1_000_003)
    common(st, fmt=False)
    st.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except FieldTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIELD_TOO_SMALL
    except MatrixMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATRIX_MISMATCH
    except (OSError, CertilinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
