"""Span tracing from outside the library, for the per-layer metrics.

The tracer replaces public certilin functions and methods by timing
wrappers for the length of a traced round, and puts the originals back
afterwards.  A module-level function is wrapped at every name its callers
bind (``certilin.provers.xgcd`` as well as ``certilin.polynomial.xgcd``);
a method is wrapped on its class and on every subclass that overrides it.
Names that no longer exist are skipped, and the benchmark's tests report
any span that stops firing.

Each span records its name, start, end, parent span and session id in
memory; ``write`` stores them at the end of the run.  A span's self time
is its duration minus the time of its child spans, so the self times of
one session's spans add up to the session span's duration.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LP, ST, VR = "large-prove", "small-trials", "verify-replay"
ALL = (LP, ST, VR)

# (per-layer metric, span target "module:name", workloads where it must fire)
SPANS = (
    ("blackbox.apply_s", "certilin.blackbox:matvec", ALL),
    ("blackbox.apply_s", "certilin.blackbox:SparseMatrix.apply", ALL),
    ("blackbox.apply_s", "certilin.blackbox:ProductOp.apply", ALL),
    ("blackbox.apply_s", "certilin.blackbox:GammaMatrix.apply", ALL),
    ("blackbox.apply_s", "certilin.blackbox:DiagonalMatrix.apply", (ST,)),
    ("blackbox.apply_s", "certilin.blackbox:ShiftOp.apply", (ST,)),
    ("blackbox.digest_s", "certilin.blackbox:matrix_digest", ALL),
    ("krylov.sequence_s", "certilin.krylov:wiedemann_sequence", (LP, ST)),
    ("krylov.residue_s", "certilin.krylov:residue_polynomial", (LP, ST)),
    ("krylov.solve_shifted_s", "certilin.krylov:solve_shifted", (LP, ST)),
    ("polynomial.bm_s", "certilin.polynomial:berlekamp_massey", (LP, ST)),
    ("polynomial.xgcd_s", "certilin.polynomial:xgcd", (LP, ST)),
    ("polynomial.eval_s", "certilin.polynomial:Poly.eval", ALL),
    ("polynomial.gcd_s", "certilin.polynomial:poly_gcd", (ST,)),
    ("polynomial.gcd_s", "certilin.polynomial:poly_lcm", ()),
    ("challenges.draw_s", "certilin.challenges:FiatShamirChallenges.draw", (LP, VR)),
    ("challenges.draw_s", "certilin.challenges:RandomChallenges.draw", (ST,)),
    ("messages.render_s", "certilin.messages:Transcript.render", (LP,)),
    ("messages.parse_s", "certilin.messages:parse_transcript", (LP, VR)),
    ("messages.serialize_s", "certilin.messages:message_bytes", (LP, VR)),
    ("messages.serialize_s", "certilin.messages:header_bytes", (LP, VR)),
    ("protocol.certify_self_s", "certilin.protocol:fiat_shamir", (LP,)),
    ("protocol.certify_self_s", "certilin.protocol:certify_generator", (ST,)),
    ("protocol.certify_self_s", "certilin.protocol:certify_generator_merged", ()),
    ("protocol.certify_self_s", "certilin.protocol:certify_minpoly", (LP, ST)),
    ("protocol.certify_self_s", "certilin.protocol:certify_det_diag", (ST,)),
    ("protocol.certify_self_s", "certilin.protocol:certify_det_gamma", (LP, ST)),
    ("protocol.certify_self_s", "certilin.protocol:certify_det_simple", (ST,)),
    ("protocol.certify_self_s", "certilin.protocol:certify_charpoly", (ST,)),
    ("protocol.verifier_self_s", "certilin.protocol:verify_noninteractive", (LP, VR)),
    ("provers.precond_s", "certilin.provers:HonestProver.choose_gamma", (LP, ST)),
    ("provers.precond_s", "certilin.provers:HonestProver.choose_diagonal", (ST,)),
    ("provers.precond_s", "certilin.provers:HonestProver.choose_simple", (ST,)),
    ("provers.bezout_s", "certilin.provers:HonestProver.bezout", (LP, ST)),
    ("provers.solution_s", "certilin.provers:HonestProver.solution", (LP, ST)),
    ("provers.solution_s", "certilin.provers:HonestProver.simple_solution", (ST,)),
    ("provers.witness_s", "certilin.provers:HonestProver.singularity_witness", (LP, ST)),
    ("oracle.dense_s", "certilin.oracle:oracle_det", ()),
    ("oracle.dense_s", "certilin.oracle:oracle_charpoly", (ST,)),
    ("oracle.dense_s", "certilin.oracle:oracle_minpoly", (ST,)),
    ("oracle.dense_s", "certilin.oracle:oracle_kernel", (ST,)),
    ("oracle.dense_s", "certilin.oracle:oracle_solve", ()),
    ("oracle.dense_s", "certilin.oracle:dense_det", (ST,)),
    ("oracle.dense_s", "certilin.oracle:dense_solve", ()),
    ("oracle.dense_s", "certilin.oracle:dense_kernel", (ST,)),
    ("oracle.dense_s", "certilin.oracle:materialize", (ST,)),
    ("oracle.dense_s", "certilin.oracle:vector_minpoly", ()),
    ("harness.run_protocol_self_s", "certilin.harness:run_protocol", (ST,)),
)

SESSION = "session"     # the root span the benchmark opens around a session

# Amounts a span adds to a named counter on each call.
COUNTERS = {
    "certilin.blackbox:SparseMatrix.apply": ("nnz", lambda args: args[0].nnz),
    "certilin.challenges:FiatShamirChallenges.draw":
        ("hashed_bytes", lambda args: len(args[2])),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Wraps the SPANS targets while installed and records their spans."""

    def __init__(self):
        self.names = [SESSION] + list(dict.fromkeys(t for _, t, _ in SPANS))
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.parents = array("q")
        self.name_ids = array("H")
        self.session_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []        # [span id, name id, start, child time]
        self._session = -1
        self._patches = list(self._find_patches())

    # -- wrapping -----------------------------------------------------------

    def _find_patches(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] in ("certilin", "perfbench")]
        for idx, target in enumerate(self.names[1:], start=1):
            modname, qual = target.split(":")
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            counter = COUNTERS.get(target)
            if "." in qual:
                clsname, attr = qual.split(".")
                cls = getattr(mod, clsname, None)
                if cls is None:
                    continue
                for owner in (cls, *_subclasses(cls)):
                    if attr in vars(owner):
                        fn = vars(owner)[attr]
                        yield owner, attr, fn, self._wrap(idx, fn, counter)
            else:
                fn = getattr(mod, qual, None)
                if fn is None:
                    continue
                wrapped = self._wrap(idx, fn, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            yield m, attr, fn, wrapped

    def _wrap(self, idx, fn, counter):
        enter, leave = self._enter, self._leave
        counters = self.counters
        key, amount = counter or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if amount is not None:
                counters[key] += amount(args)
            frame = enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return traced

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap the library for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _enter(self, idx):
        stack = self._stack
        sid = len(self.starts)
        self.parents.append(stack[-1][0] if stack else -1)
        self.name_ids.append(idx)
        self.session_ids.append(self._session)
        self.ends.append(0.0)
        frame = [sid, idx, 0.0, 0.0]
        stack.append(frame)
        frame[2] = start = perf_counter()
        self.starts.append(start)
        return frame

    def _leave(self, frame):
        end = perf_counter()
        sid, idx, start, child = frame
        duration = end - start
        self._stack.pop()
        self.ends[sid] = end
        self.self_s[idx] += duration - child
        self.calls[idx] += 1
        if self._stack:
            self._stack[-1][3] += duration

    @contextmanager
    def session(self, session_id: int):
        """The root span of one session."""
        self._session = session_id
        frame = self._enter(0)
        try:
            yield
        finally:
            self._leave(frame)
            self._session = -1

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: (calls, total self time in seconds)."""
        return {name: (self.calls[i], self.self_s[i])
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Store every span as tab-separated text, gzip-compressed."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            out.write("# id\tparent\tname\tstart_s\tend_s\tsession\n")
            for sid in range(len(self.starts)):
                out.write(f"{sid}\t{self.parents[sid]}\t{self.names[self.name_ids[sid]]}\t"
                          f"{self.starts[sid] - t0:.9f}\t{self.ends[sid] - t0:.9f}\t"
                          f"{self.session_ids[sid]}\n")
