"""Tests of the benchmark itself: spans, exact counts, checks and the CLI.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import copy
import gc
import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import certilin
from certilin import Accept, Poly
from perfbench import bench, workloads
from perfbench.tracer import ALL, SPANS, Tracer
from perfbench.workloads import TAMPERED_COPIES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@cache
def measure(name, seed, rounds, traced, attempt=0):
    """A fresh set-up and ``rounds`` whole rounds; traced runs trace even rounds.

    ``attempt`` only tells repeated runs with the same settings apart.
    The objects cached by earlier calls are frozen out of the collector, as
    a benchmark process has none; else full collections would grow with
    them and land in the spans' bookkeeping.
    """
    gc.collect()
    gc.freeze()
    workload = WORKLOADS[name](seed)
    tracer = Tracer() if traced else None
    pairs = list(bench.sessions(workload, 0, tracer, min_rounds=rounds))
    return workload, tracer, [s for s, _, _ in pairs], [t for _, t, _ in pairs]


def tally(name, seed, rounds, traced, attempt=0):
    _, _, sessions, flags = measure(name, seed, rounds, traced, attempt)
    return bench.Tally.of(zip(sessions, flags))


def layers(name, seed, rounds, attempt=0):
    tracer = measure(name, seed, rounds, True, attempt)[1]
    return bench.layer_metrics(tracer, tally(name, seed, rounds, True, attempt))


def report(name, seed, rounds, traced):
    return bench.end_to_end_report(tally(name, seed, rounds, traced), 1.0, 1.0)


@pytest.mark.parametrize("name", ALL)
def test_every_span_fires_where_expected(name):
    _, tracer, _, flags = measure(name, 1, 2, True)
    totals = tracer.totals()
    silent = [target for _, target, fires_on in SPANS
              if name in fires_on and totals[target][0] == 0]
    assert not silent, f"spans with no calls on {name}: {silent}"
    assert totals["session"][0] == sum(flags)


def test_every_binding_is_wrapped():
    tracer = Tracer()
    originals = {id(original) for _, _, original, _ in tracer._patches}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "certilin"]
    with tracer.installed():
        for probe in (certilin.provers.xgcd, certilin.protocol.matvec,
                      certilin.protocol.matrix_digest, certilin.harness.run_protocol):
            assert hasattr(probe, "__wrapped__")
        left = [(m.__name__, attr) for m in modules
                for attr, value in vars(m).items() if id(value) in originals]
        assert not left, f"unwrapped bindings while tracing: {left}"
    assert not hasattr(certilin.provers.xgcd, "__wrapped__")


@pytest.mark.parametrize("name", ALL)
def test_tracing_does_not_change_the_program(name):
    _, _, traced, flags = measure(name, 1, 2, True)
    _, _, plain, _ = measure(name, 1, 2, False)
    assert any(flags)
    assert len(traced) == len(plain)
    for a, b in zip(traced, plain):
        assert (a.kind, a.failure, a.accepted, a.verifier_ops, a.prover_matvecs,
                a.prover_field_ops, a.transcript_bytes) == (
                b.kind, b.failure, b.accepted, b.verifier_ops, b.prover_matvecs,
                b.prover_field_ops, b.transcript_bytes)
        if a.transcript is not None:
            assert a.transcript.render() == b.transcript.render()
            assert a.transcript.verifier_meter == b.transcript.verifier_meter
            assert a.transcript.prover_meter == b.transcript.prover_meter


@pytest.mark.parametrize("name", ALL)
def test_exact_counts_repeat(name):
    first, second = layers(name, 1, 2), layers(name, 1, 2, attempt=1)
    for metric in ("blackbox.apply_calls", "provers.prover_matvecs",
                   "challenges.hashed_bytes"):
        assert first[metric] == second[metric], metric
    assert first["blackbox.apply_calls"] > 0
    traced, plain = report(name, 1, 2, True), report(name, 1, 2, False)
    for metric in ("verifier_ops", "transcript_bytes"):
        assert (metric in traced) == (metric in plain)
        if metric in traced:
            assert traced[metric][0] == plain[metric][0], metric


@pytest.mark.parametrize("name", ALL)
def test_no_failures_on_two_seeds(name):
    for seed in (1, 2):
        _, _, sessions, _ = measure(name, seed, 1, False)
        assert [s.failure for s in sessions if s.failure] == []
        assert report(name, seed, 1, False)["fail_rate"][0] == 0


@pytest.mark.parametrize("name", ALL)
def test_layer_self_times_account_for_the_session(name):
    # Four rounds, traced and untraced in turn, so that a drift in host
    # speed between two rounds lands on both sides of the overhead.
    _, tracer, sessions, flags = measure(name, 1, 4, True)
    roots = [tracer.ends[i] - tracer.starts[i]
             for i in range(len(tracer.starts)) if tracer.parents[i] == -1]
    assert len(roots) == sum(flags)
    total_self = sum(self_s for _, self_s in tracer.totals().values())
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
    # Host stalls land in whichever span is open, so the bounds are loose.
    # Metrics of this same measurement: a second one would meet another host.
    run = bench.Tally.of(zip(sessions, flags))
    metrics = bench.layer_metrics(tracer, run)
    traced_mean = sum(s.seconds for s, t in zip(sessions, flags) if t) / sum(flags)
    listed = sum(metrics[m] for m in bench.LAYER_SECONDS)
    assert listed / traced_mean > 0.8
    overhead = max(metrics["trace.overhead_frac"], 0.0)
    assert 0.8 <= bench.accounted_frac(metrics, run) <= 1.2 + overhead


def test_session_cost_divides_by_the_kernel_times_around_each_session():
    ref = bench.Reference()
    ref.times = [1.0, 3.0, 1.0]
    session = workloads.Session
    run = bench.Tally.of([(session("a", 2.0), False, 0), (session("a", 4.0), False, 1),
                          (session("a", 6.0), False, 1), (session("b", 1.0), False, 0),
                          (session("b", 9.0), True, 0)])
    # a: 2/2, 4/2, 6/2, median 2; b: 1/2, its traced session left out.
    assert bench.session_cost_ref(run, ref) == (3 * 2 + 1 * 0.5) / 4


def test_forged_results_count_as_failures(monkeypatch):
    real = workloads.run_protocol

    def forging(protocol, a, prover, rng, **kwargs):
        transcript, outcome = real(protocol, a, prover, rng, **kwargs)
        if isinstance(outcome, Accept) and protocol == "det-gamma":
            outcome = Accept((outcome.result + 1) % a.field.p)
        if isinstance(outcome, Accept) and protocol == "minpoly":
            outcome = Accept(outcome.result + Poly.one(a.field))
        return transcript, outcome

    workload = WORKLOADS["small-trials"](3)
    monkeypatch.setattr(workloads, "run_protocol", forging)
    sessions = [job() for job in workload.round(0)]
    failed = {s.kind for s in sessions if s.failure == "wrong-result"}
    assert failed == {"det-gamma", "minpoly-pc"}
    rate = bench.end_to_end_report(bench.Tally.of((s, False) for s in sessions),
                                   1.0, 1.0)["fail_rate"][0]
    assert rate == 2 / len(workloads.SMALL_TRAFFIC)


def test_accepted_tampered_replay_counts_as_failure():
    workload = copy.copy(measure("verify-replay", 1, 1, False)[0])
    workload.tampered = {p: [text] * TAMPERED_COPIES for p, text in workload.texts.items()}
    sessions = [job() for job in workload.round(0)]
    tampered = [s for s in sessions if s.kind.endswith("/tampered")]
    assert tampered and all(s.failure == "tampered-accepted" for s in tampered)
    assert all(s.failure is None for s in sessions if s not in tampered)


def test_result_checks_reject_forgeries():
    inst = measure("large-prove", 1, 1, False)[0].inst
    p = inst.a.field.p
    assert workloads.result_ok("det-gamma", inst.det, inst)
    assert not workloads.result_ok("det-gamma", (inst.det + 1) % p, inst)
    coeffs = [0] * inst.a.n + [1]
    assert not workloads.result_ok("minpoly", Poly(inst.a.field, coeffs), inst)
    assert workloads.certified_failure(
        "minpoly", Accept(Poly(inst.a.field, coeffs)), inst) == "wrong-result"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == ["large-prove", "small-trials"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,names", [("0", bench.END_TO_END), ("1", bench.PER_LAYER)])
def test_cli_prints_every_metric(trace, names):
    out = run_cli(ROOT, "--workload", "small-trials", "--seed", "4",
                  "--seconds", "0.2", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: u for n, u, _ in names} == {n: m["unit"] for n, m in result["metrics"].items()}


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    out = run_cli(tmp_path, "--workload", "large-prove", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
