"""Hostile prover payloads end in ParseError or Reject, within budget.

Honest Fiat-Shamir transcripts of every protocol at n = 4 are pinned by
their sha256.  Each case edits one prover payload slot of one of them, the
slots and their encodings read from ``messages._LAYOUT``, and replays the
edited text through ``parse_transcript`` and ``verify_noninteractive``.
The edits: polynomials of degree n+1 and 2n+5, non-monic and zero
polynomials, a polynomial sharing a factor with the message's other one,
vectors of the wrong length, zero vectors and vectors with one entry
changed, changed scalars, and values >= p.  Nothing but ParseError or
Reject may come out, and wherever ``budget_report`` states an ops bound
the replay's verifier meter stays within it.  The field is large enough
that an edit escapes only if a hashed challenge repeats (about 1/p).
"""

import hashlib
from dataclasses import replace
from random import Random
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from certilin import (HonestProver, ParseError, Poly, PrimeField, Reject,
                      budget_report, fiat_shamir, parse_transcript,
                      verify_noninteractive)
from certilin.harness import gen_singular, random_nonsingular_dense_checked
from certilin.messages import _LAYOUT, POLY, SCALAR, VECTOR
from certilin.protocol import PROTOCOL_IDS, protocol_spec

N = 4
FIELD = PrimeField(10007)
P = FIELD.p


def _sessions():
    """(label, matrix, transcript text) of every honest pinned session."""
    # Matrix seed 752 is one whose hashed minpoly projections miss the
    # minimal polynomial, so the minpoly-pc transcript has a projection2.
    # The singular matrix has no zero column, so a witness with one entry
    # changed is never a kernel vector.
    a = random_nonsingular_dense_checked(FIELD, N, Random(752), 0.5)
    singular = gen_singular(FIELD, N, Random(1))
    rng = Random(3)
    u, v = FIELD.sample_vector(rng, N), FIELD.sample_vector(rng, N)
    cases = [(pid, a) for pid in PROTOCOL_IDS] + [
        (pid, singular) for pid in ("det-diag", "det-gamma", "det-simple")]
    out = []
    for pid, m in cases:
        kw = {"u": u, "v": v} if protocol_spec(pid).projections else {}
        transcript, _ = fiat_shamir(pid, m, HonestProver(FIELD, Random(1)),
                                    **kw)
        out.append((pid, m, transcript.render()))
    return out


SESSIONS = _sessions()


class Slot(NamedTuple):
    session: int
    line: int
    token: int
    kind: str
    encoding: object
    old: tuple  # the payload's values: coefficients, entries or (scalar,)
    other: Poly | None  # the message's other polynomial, if it has one


def _slots():
    slots = []
    for s, (_, _, text) in enumerate(SESSIONS):
        for line, (role, msg) in enumerate(parse_transcript(text).messages, 1):
            if role != "prover":
                continue
            lay = _LAYOUT[type(msg)]
            polys = [getattr(msg, name) for name, enc in lay.fields
                     if enc is POLY]
            for f, (name, enc) in enumerate(lay.fields):
                value = getattr(msg, name)
                old = (value.coeffs if enc is POLY
                       else value if enc is VECTOR else (value,))
                other = next((q for q in polys if q is not value), None)
                slots.append(Slot(s, line, 1 + len(lay.tags.split()) + f,
                                  msg.kind, enc, old, other))
    return slots


SLOTS = _slots()


def _monic(rng, degree):
    return [rng.randrange(P) for _ in range(degree)] + [1]


def _out_of_range(rng, slot):
    values = list(slot.old) or [0]
    values[rng.randrange(len(values))] = rng.randrange(P, 2 ** 64)
    return values


def _entry_changed(rng, slot):
    values = list(slot.old)
    j = rng.randrange(len(values))
    values[j] = (values[j] + rng.randrange(1, P)) % P
    return values


def _wrong_length(rng, slot):
    length = rng.choice([k for k in range(1, 2 * N + 6) if k != N])
    return [rng.randrange(P) for _ in range(length)]


def _common_factor(rng, slot):
    return list((Poly(FIELD, (rng.randrange(P), 1)) * slot.other).coeffs)


# Encoding -> edit name -> edit(rng, slot), returning the new values.
EDITS = {
    POLY: {
        "degree n+1": lambda rng, slot: _monic(rng, N + 1),
        "degree 2n+5": lambda rng, slot: _monic(rng, 2 * N + 5),
        "non-monic": lambda rng, slot: (
            [rng.randrange(P) for _ in range(max(len(slot.old) - 1, 0))]
            + [rng.randrange(2, P)]),
        "zero": lambda rng, slot: [],
        "common factor": _common_factor,
        "value >= p": _out_of_range,
    },
    VECTOR: {
        "wrong length": _wrong_length,
        "zero": lambda rng, slot: [0] * len(slot.old),
        "entry changed": _entry_changed,
        "value >= p": _out_of_range,
    },
    SCALAR: {
        "changed": _entry_changed,
        "value >= p": _out_of_range,
    },
}


def _replay(slot, values):
    """The session with the slot's token replaced: its reject reason (or
    "parse-error") and its verifier's matvec count; None if unchanged."""
    label, a, text = SESSIONS[slot.session]
    token = ",".join(map(str, values)) or "0"
    lines = text.split("\n")
    toks = lines[slot.line].split(" ")
    if toks[slot.token] == token:
        return None
    toks[slot.token] = token
    lines[slot.line] = " ".join(toks)
    try:
        parsed = parse_transcript("\n".join(lines))
    except ParseError:
        return "parse-error", 0
    outcome, meter = verify_noninteractive(parsed, a)
    where = f"{label}: {slot.kind} token {slot.token} <- {token}"
    assert isinstance(outcome, Reject), f"{where}: {outcome}"
    bound = budget_report(replace(parsed, verifier_meter=meter), a).ops_bound
    assert bound is None or meter.field_ops <= bound, where
    return outcome.reason, meter.matvec


def test_pinned_sessions_send_every_prover_message_kind():
    kinds = {msg.kind for _, _, text in SESSIONS
             for role, msg in parse_transcript(text).messages
             if role == "prover"}
    assert kinds == {"commit", "bezout", "solution", "precond", "witness",
                     "projection", "projection2"}
    rows = SESSIONS[-1][1].to_dense()
    assert all(any(row[j] for row in rows) for j in range(N))
    h = hashlib.sha256("".join(text for _, _, text in SESSIONS).encode())
    assert h.hexdigest() == (
        "c03478c600550da240e2b56e73c65955ec5a076e8be49fbafc55f1fa51c1713b")


@given(st.sampled_from(SLOTS), st.data(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_hostile_payload_is_parse_error_or_reject(slot, data, rng):
    name = data.draw(st.sampled_from(sorted(EDITS[slot.encoding])))
    _replay(slot, EDITS[slot.encoding][name](rng, slot))


def test_every_slot_and_edit_reaches_the_reject_paths():
    # Every edit of every slot once: together they reach each check that
    # guards a prover payload, the witness check both before its matvec
    # (wrong length, zero) and after it (a vector outside the kernel).
    reached = set()
    for i, slot in enumerate(SLOTS):
        for name, edit in EDITS[slot.encoding].items():
            verdict = _replay(slot, edit(Random(f"{i}:{name}"), slot))
            if verdict is not None:
                reached.add(verdict[0])
                if verdict[0] == "witness-check":
                    reached.add(f"witness-check/{verdict[1]}")
    assert reached >= {
        "parse-error", "challenge-mismatch", "malformed-commitment",
        "malformed-solution", "malformed-preconditioner", "witness-check/0",
        "witness-check/1", "gcd-check", "bezout-degree"}, reached
