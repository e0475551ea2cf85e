"""Closed-loop runner and metric computation for the certilin benchmark.

One process, one client: the next session starts only after the previous
one has completed and been checked.  A run sets the workload up, then runs
whole rounds of sessions until ``seconds`` have passed.  Between rounds it
times further set-ups of the same workload (about ``SETUP_SAMPLES`` spread
over the window, and at least ``SETUP_REPEATS``) and reports their median,
so that ``setup_s`` sees the same host as the sessions do.  Between
sessions it also times a fixed reference kernel (``perfbench/reference.py``)
and reports ``session_cost_ref``, session time in units of the kernel time
measured around it, which cancels most of the drift in host speed;
``setup_s`` is scaled the same way, to a host where the kernel takes
``REFERENCE_HOST_S``.  The time of set-ups and kernel is left out of
``sessions_per_s``.

An untraced run reports the end-to-end metrics.  A traced run alternates
traced and untraced rounds: the traced rounds give the per-layer metrics,
and the untraced ones the reference for the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
from array import array
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from perfbench import reference
from perfbench.tracer import SPANS, Tracer
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 3
SETUP_SAMPLES = 30      # timed set-ups per run, spread over the measured window
SETUP_SHARE = 0.25      # at most this share of the window goes to set-ups
REFERENCE_EVERY_S = 2.0     # session time between two timings of the reference kernel
# The reference kernel's time on the 2-vCPU Xeon virtual machine where the
# baseline was measured (median 0.13 to 0.17 s a run); setup_s is scaled to it.
REFERENCE_HOST_S = 0.15
NAN = float("nan")

# The end-to-end metrics of the result line (and of BENCHMARK.json): they
# exist and are nonzero on every workload.  Raw wall-clock throughput and
# latency percentiles follow the host's drifting speed, so they are in the
# readable report only; session_cost_ref divides that drift out.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("session_cost_ref", "ref", "lower"),
    ("verifier_ops", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYER_SECONDS = tuple(dict.fromkeys(metric for metric, _, _ in SPANS))

PER_LAYER = (
    ("blackbox.apply_calls", "count", "lower"),
    ("blackbox.ns_per_nnz", "ns", "lower"),
    ("challenges.draws", "count", "lower"),
    ("challenges.hashed_bytes", "bytes", "lower"),
    ("protocol.prove_s_p50", "s", "lower"),
    ("protocol.verify_ms_p50", "ms", "lower"),
    ("protocol.bad_challenge", "count", "lower"),
    ("protocol.escapes", "count", "lower"),
    ("provers.prover_matvecs", "count", "lower"),
    ("provers.prover_field_ops", "count", "lower"),
    *((name, "s", "lower") for name in LAYER_SECONDS),
    ("trace.bench_self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Reference:
    """Timings of the reference kernel around the sessions of a run.

    The kernel is timed before the first session and again after each
    session that completes ``REFERENCE_EVERY_S`` seconds of session time,
    so the sessions fall into segments with a timing at either end.
    """

    def __init__(self):
        self.times = [reference.seconds()]
        self.paused = 0.0       # time spent on the kernel, off the session clock
        self.pending = 0.0      # session time in the open segment
        self.open = 0           # sessions in the open segment

    def after(self, session_s: float) -> int:
        """Segment of the session that just ended; closes it when it is full."""
        segment = len(self.times) - 1
        self.pending += session_s
        self.open += 1
        if self.pending >= REFERENCE_EVERY_S:
            self.close()
        return segment

    def close(self):
        """Time the kernel if the open segment holds any session."""
        if self.open:
            start = perf_counter()
            self.times.append(reference.seconds())
            self.paused += perf_counter() - start
            self.pending, self.open = 0.0, 0

    def around(self, segment: int) -> float:
        return (self.times[segment] + self.times[segment + 1]) / 2


class SetUps:
    """Timed set-ups of one workload: the first is kept, the others only timed.

    Each set-up is timed within a segment of ``ref``, so that its time can
    be scaled by the reference kernel timings around it.
    """

    def __init__(self, name: str, seed: int, seconds: float, ref: Reference):
        self.name, self.seed, self.seconds, self.ref = name, seed, seconds, ref
        self.times = []         # (seconds, reference segment)
        self.paused = 0.0       # time spent between rounds, off the session clock
        self.workload = self.build()

    def build(self):
        start = perf_counter()
        workload = WORKLOADS[self.name](self.seed)
        self.times.append((perf_counter() - start, self.ref.after(0.0)))
        return workload

    def between_rounds(self, elapsed: float):
        """Time one more set-up when the schedule and the share allow it."""
        due = self.seconds and len(self.times) < SETUP_SAMPLES * elapsed / self.seconds
        if due and self.paused <= SETUP_SHARE * elapsed:
            start = perf_counter()
            self.build()
            gc.collect()
            self.paused += perf_counter() - start

    def median(self) -> tuple[float, str]:
        """Median set-up time on a host where the kernel takes REFERENCE_HOST_S, and a note."""
        while len(self.times) < SETUP_REPEATS:
            self.build()
        self.ref.close()
        raw = statistics.median(t for t, _ in self.times)
        scaled = statistics.median(t / self.ref.around(segment) for t, segment in self.times)
        return scaled * REFERENCE_HOST_S, (
            f"median of {len(self.times)} set-ups, each scaled by the kernel timings "
            f"around it to a {REFERENCE_HOST_S} s kernel; unscaled {raw:.6g} s")


def sessions(workload, seconds: float, tracer: Tracer | None = None,
             min_rounds: int = 1, between_rounds=None, ref: Reference | None = None):
    """Yield (session, traced, segment) for whole rounds until ``seconds`` have passed.

    With a tracer, even rounds are traced and odd rounds are not.  A
    round's sessions are yielded after the library is unwrapped again, so
    callers never run inside the tracer.  ``between_rounds(elapsed)`` is
    called after each round, untraced.  With ``ref``, the reference kernel
    is timed between sessions and ``segment`` says which timings bracket
    the session; without it, ``segment`` is 0.
    """
    start = perf_counter()
    r = count = 0
    while r < min_rounds or perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 0
        done = []
        with tracer.installed() if traced else nullcontext():
            for job in workload.round(r):
                with tracer.session(count) if traced else nullcontext():
                    session = job()
                done.append((session, ref.after(session.seconds) if ref else 0))
                count += 1
        for session, segment in done:
            yield session, traced, segment
        r += 1
        if between_rounds is not None:
            between_rounds(perf_counter() - start)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q: int) -> tuple[float, int]:
    """The q-th percentile and how many values lie above it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut, sum(1 for v in values if v > cut)


class Tally:
    """What the metrics need from the sessions of a run, a few bytes each.

    Keeping whole session records would make the benchmark's own memory,
    and so ``peak_rss_mb``, grow with the number of sessions.
    """

    def __init__(self):
        self.kinds = {}                 # kind -> index, in order of appearance
        self.kind = array("B")
        self.traced = array("B")
        self.segment = array("I")       # reference timings around the session
        self.seconds = array("d")
        self.prove_s = array("d")       # NaN where a session does not prove
        self.verify_s = array("d")      # NaN where a session does not verify
        self.outcomes = {}              # kind -> Counter of bad challenges, escapes, failures
        self.failures = []              # (kind, failure) of the first failed sessions
        self.failed = 0
        self.verifier_ops = [0, 0]      # sum and count over accepted sessions
        self.transcript_bytes = [0, 0]  # sum and count over proving sessions
        self.prover_matvecs = [0, 0]
        self.prover_field_ops = [0, 0]

    @classmethod
    def of(cls, items):
        """From (session, traced) or (session, traced, segment) tuples."""
        tally = cls()
        for item in items:
            tally.add(*item)
        return tally

    def add(self, s, traced: bool, segment: int = 0):
        self.kind.append(self.kinds.setdefault(s.kind, len(self.kinds)))
        self.traced.append(traced)
        self.segment.append(segment)
        self.seconds.append(s.seconds)
        self.prove_s.append(NAN if s.prove_s is None else s.prove_s)
        self.verify_s.append(NAN if s.verify_s is None else s.verify_s)
        counts = self.outcomes.setdefault(s.kind, Counter())
        counts["bad challenges"] += s.bad_challenge
        counts["escapes"] += s.escape
        if s.failure:
            counts["failed"] += 1
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append((s.kind, s.failure))
        for total, value, take in ((self.verifier_ops, s.verifier_ops, s.accepted),
                                   (self.transcript_bytes, s.transcript_bytes,
                                    s.prove_s is not None),
                                   (self.prover_matvecs, s.prover_matvecs, True),
                                   (self.prover_field_ops, s.prover_field_ops, True)):
            if take and value is not None:
                total[0] += value
                total[1] += 1

    def __len__(self):
        return len(self.seconds)

    def pick(self, column, traced=None, kind=None):
        """Values of a column, without NaNs, optionally for one mode or kind."""
        k = None if kind is None else self.kinds[kind]
        return [v for v, t, c in zip(column, self.traced, self.kind)
                if v == v and (traced is None or t == traced) and (k is None or c == k)]


def _mean(total):
    return total[0] / total[1] if total[1] else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, trace_path=None) -> dict:
    """Set up and measure one workload; returns the result and a report."""
    ref = Reference()
    setups = SetUps(name, seed, seconds, ref)
    tracer = Tracer() if trace else None
    gc.collect()
    start = perf_counter()
    tally = Tally.of(sessions(setups.workload, seconds, tracer,
                              2 if trace else 1, setups.between_rounds, ref))
    wall = perf_counter() - start - setups.paused - ref.paused
    setup_s, setup_note = setups.median()      # closes the last kernel segment
    result = {"correct": not tally.failed, "attempted": len(tally),
              "failed": tally.failed}
    report = end_to_end_report(tally, wall, setup_s, setup_note, ref)
    if trace:
        metrics = layer_metrics(tracer, tally)
        if trace_path is not None:
            Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = {n: report[n][0] for n, _, _ in END_TO_END}
        units = {n: u for n, u, _ in END_TO_END}
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    return {"result": result, "report": report, "tally": tally, "wall": wall}


def session_cost_ref(tally: Tally, ref: Reference) -> float:
    """Session time over the reference kernel time around it, untraced sessions.

    The median for each session kind, averaged over the kinds in the
    proportions the workload runs them.  A median over all sessions would
    fall between the clusters of two kinds that cost different amounts.
    """
    costs = {}
    for kind, traced, segment, seconds in zip(tally.kind, tally.traced,
                                              tally.segment, tally.seconds):
        if not traced:
            costs.setdefault(kind, []).append(seconds / ref.around(segment))
    total = sum(len(c) for c in costs.values())
    return sum(len(c) * statistics.median(c) for c in costs.values()) / total


def end_to_end_report(tally: Tally, wall, setup_s, setup_note="",
                      ref: Reference | None = None) -> dict:
    """Every end-to-end metric that applies to the workload: name -> (value, unit, note)."""
    # Read before the lists below: their size follows the number of sessions.
    rss = peak_rss_mb()
    ms = [v * 1e3 for v in tally.seconds]
    out = {"setup_s": (setup_s, "s", setup_note)}
    if ref is not None:
        out["session_cost_ref"] = (
            session_cost_ref(tally, ref), "ref",
            f"session / reference kernel time, median per kind; {len(ref.times)} "
            f"kernel timings, median {statistics.median(ref.times) * 1e3:.1f} ms")
    out |= {
        "sessions_per_s": (len(ms) / wall, "1/s", f"{len(ms)} sessions in {wall:.2f} s"),
        "verifier_ops": (_mean(tally.verifier_ops), "count",
                         f"mean over {tally.verifier_ops[1]} accepted sessions"),
        "peak_rss_mb": (rss, "MB", "whole process, at the end of the measured phase"),
        "session_ms_p50": (statistics.median(ms), "ms", f"n={len(ms)}"),
    }
    if len(ms) >= 1000:
        p99, beyond = percentile(ms, 99)
        out["session_ms_p99"] = (p99, "ms", f"{beyond} sessions beyond")
    proves = tally.pick(tally.prove_s)
    if proves:
        out["prove_s_p50"] = (statistics.median(proves), "s",
                              f"n={len(proves)}, too few for a tail percentile")
    verifies = [v * 1e3 for v in tally.pick(tally.verify_s)]
    if verifies:
        out["verify_ms_p50"] = (statistics.median(verifies), "ms", f"n={len(verifies)}")
        if len(verifies) >= 200:
            p95, beyond = percentile(verifies, 95)
            out["verify_ms_p95"] = (p95, "ms", f"{beyond} replays beyond")
    if tally.transcript_bytes[1]:
        out["transcript_bytes"] = (_mean(tally.transcript_bytes), "bytes",
                                   "mean rendered transcript")
    out["fail_rate"] = (tally.failed / len(ms), "ratio", f"{tally.failed}/{len(ms)} sessions")
    return out


def layer_metrics(tracer: Tracer, tally: Tally) -> dict:
    """Per-layer metrics of a traced run, per traced session."""
    on, off = tally.pick(tally.seconds, True), tally.pick(tally.seconds, False)
    totals = tracer.totals()
    per = 1 / len(on)
    self_s = {metric: 0.0 for metric in LAYER_SECONDS}
    for metric, target, _ in SPANS:
        self_s[metric] += totals[target][1]
    metrics = {}
    metrics["blackbox.apply_calls"] = totals["certilin.blackbox:matvec"][0] * per
    apply_s = totals["certilin.blackbox:SparseMatrix.apply"][1]
    nnz = tracer.counters["nnz"]
    metrics["blackbox.ns_per_nnz"] = apply_s / nnz * 1e9 if nnz else 0.0
    metrics["challenges.draws"] = per * (
        totals["certilin.challenges:FiatShamirChallenges.draw"][0]
        + totals["certilin.challenges:RandomChallenges.draw"][0])
    metrics["challenges.hashed_bytes"] = tracer.counters["hashed_bytes"] * per
    proves, verifies = tally.pick(tally.prove_s, False), tally.pick(tally.verify_s, False)
    metrics["protocol.prove_s_p50"] = statistics.median(proves) if proves else 0.0
    metrics["protocol.verify_ms_p50"] = statistics.median(verifies) * 1e3 if verifies else 0.0
    metrics["protocol.bad_challenge"] = sum(c["bad challenges"] for c in tally.outcomes.values())
    metrics["protocol.escapes"] = sum(c["escapes"] for c in tally.outcomes.values())
    metrics["provers.prover_matvecs"] = _mean(tally.prover_matvecs)
    metrics["provers.prover_field_ops"] = _mean(tally.prover_field_ops)
    for metric in LAYER_SECONDS:
        metrics[metric] = self_s[metric] * per
    metrics["trace.bench_self_s"] = totals["session"][1] * per
    untraced = statistics.fmean(off)
    metrics["trace.overhead_frac"] = statistics.fmean(on) / untraced - 1
    return metrics


def accounted_frac(metrics: dict, tally: Tally) -> float:
    """The listed self times per traced session over the mean untraced session.

    Near 1 + trace.overhead_frac when the layers account for the session.
    """
    listed = sum(metrics[m] for m in LAYER_SECONDS)
    return listed / statistics.fmean(tally.pick(tally.seconds, False))


def format_report(name: str, seed: int, out: dict) -> str:
    result, tally = out["result"], out["tally"]
    lines = [f"certilin benchmark: workload {name}, seed {seed}, "
             f"{result['attempted']} sessions in {out['wall']:.2f} s "
             f"(closed loop, one client)"]
    for metric, (value, unit, note) in out["report"].items():
        lines.append(f"  {metric:<16} {value:>14.6g} {unit:<6} {note}")
    for kind, counts in tally.outcomes.items():
        ms = [v * 1e3 for v in tally.pick(tally.seconds, kind=kind)]
        extra = "".join(f", {label} {n}" for label, n in counts.items() if n)
        lines.append(f"  {kind:<28} {len(ms):>6} sessions, p50 "
                     f"{statistics.median(ms):.4g} ms{extra}")
    for kind, failure in tally.failures:
        lines.append(f"  FAILED {kind}: {failure}")
    if "trace.overhead_frac" in result["metrics"]:
        lines.append("  per layer (self time per traced session; the figures above"
                     " mix traced and untraced rounds):")
        metrics = {m: e["value"] for m, e in result["metrics"].items()}
        for metric, entry in result["metrics"].items():
            lines.append(f"    {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
        if metrics["protocol.prove_s_p50"] and metrics["protocol.verify_ms_p50"]:
            ratio = metrics["protocol.prove_s_p50"] * 1e3 / metrics["protocol.verify_ms_p50"]
            lines.append(f"    {'prove/verify (the asymmetry)':<30} {ratio:>14.6g} ratio")
        lines.append(f"    {'accounted (sum of self times)':<30} "
                     f"{accounted_frac(metrics, tally):>14.6g} ratio of untraced session")
    return "\n".join(lines)
