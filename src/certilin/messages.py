"""Typed protocol messages, outcomes and the canonical transcript format.

A transcript is the full record of one session: a header identifying the
protocol, field, dimension and matrix, the ordered list of role-tagged
messages, and the final outcome.  This module is the only place the wire
format is written down.  Every payload attribute has one of three
encodings (scalar, vector, polynomial), each with two canonical forms:

* text for transcript files: decimal residues, vector entries and
  polynomial coefficients (low to high) joined by commas, the zero
  polynomial as "0"; lines use LF endings and single spaces;
* bytes fed to the Fiat-Shamir hash: scalars as 8-byte little-endian,
  vectors and polynomials prefixed by their length.

One table, ``_LAYOUT``, gives each message class its subtag and the
ordered (attribute, encoding) layout its attributes are built from;
rendering, byte serialization, parsing and the wire cost all read it.

Replaying a transcript through the verifier reproduces its verdict; any
byte flipped in a payload changes either the parse, the derived
challenges or a check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field, make_dataclass
from typing import Callable, NamedTuple

from .errors import ParseError, UsageError
from .field import PrimeField
from .meter import CostMeter
from .polynomial import Poly, _le_words

TRANSCRIPT_MAGIC = "certilin/1"

_DEC = re.compile(r"^(0|[1-9][0-9]*)$")
# Comma-joined canonical decimals of at most 19 digits: every residue mod
# p < 2**62 has at most 19, so a longer token goes to the per-token parser.
_CANONICAL_VEC = re.compile(
    r"(?:0|[1-9][0-9]{0,18})(?:,(?:0|[1-9][0-9]{0,18}))*\Z")


# -- the wire format -----------------------------------------------------


def _scalar_bytes(x: int) -> bytes:
    return int(x).to_bytes(8, "little")


def _vec_bytes(v) -> bytes:
    return _scalar_bytes(len(v)) + _le_words(v)


def _parse_scalar(field: PrimeField, tok: str, lineno: int) -> int:
    if not _DEC.match(tok):
        raise ParseError(lineno, f"not a canonical decimal: {tok!r}")
    val = int(tok)
    if val >= field.p:
        raise ParseError(lineno, f"value {val} out of range for p={field.p}")
    return val


def _parse_vec(field: PrimeField, tok: str, lineno: int) -> tuple:
    if _CANONICAL_VEC.match(tok):
        vec = tuple(map(int, tok.split(",")))
        if max(vec) < field.p:
            return vec
    # Not canonical: the per-token parser names the first bad token.
    return tuple(_parse_scalar(field, part, lineno) for part in tok.split(","))


def _parse_poly(field: PrimeField, tok: str, lineno: int) -> Poly:
    coeffs = _parse_vec(field, tok, lineno)
    # One text per polynomial: only the zero polynomial ends in a zero.
    if coeffs[-1] == 0 and tok != "0":
        raise ParseError(lineno, f"trailing zero coefficient: {tok!r}")
    return Poly(field, coeffs if tok != "0" else (), _canonical=True)


class Encoding(NamedTuple):
    """Canonical text, canonical bytes, strict parser and wire cost."""

    text: Callable
    to_bytes: Callable
    parse: Callable  # (field, token, lineno) -> value
    cost: Callable


SCALAR = Encoding(str, _scalar_bytes, _parse_scalar, lambda x: 1)
VECTOR = Encoding(lambda v: ",".join(map(str, v)), _vec_bytes, _parse_vec,
                  len)
# A polynomial is its coefficients, low to high; the leading 1 of a monic
# polynomial is implicit in its wire cost.
POLY = Encoding(lambda f: VECTOR.text(f.coeffs) or "0",
                lambda f: _vec_bytes(f.coeffs), _parse_poly,
                lambda f: len(f.coeffs) - f.is_monic())


class _Layout(NamedTuple):
    tags: str  # "<kind>" or "<kind> <subtag>", as the text line gives them
    tag_bytes: bytes  # the same tags, each NUL-terminated
    fields: tuple  # ordered (attribute, encoding) pairs


class _Table(dict):
    def __missing__(self, cls):
        raise UsageError(f"unknown message type {cls.__name__}")


# Message class -> layout.  A text line is "<role> <tags> <token>...", one
# token per field; the bytes are the role, NUL, the tag bytes and then each
# field's bytes in order.
_LAYOUT = _Table()


def _message(name, kind, fields, subtag=None):
    """A frozen message class whose attributes are its layout's, in order."""
    cls = make_dataclass(name, [attr for attr, _ in fields], frozen=True,
                         namespace={"kind": kind})
    cls.__module__ = __name__
    tags = [kind] if subtag is None else [kind, subtag]
    _LAYOUT[cls] = _Layout(" ".join(tags),
                           b"".join(t.encode() + b"\x00" for t in tags), fields)
    return cls


Projection = _message("Projection", "projection",
                      (("u", VECTOR), ("v", VECTOR)))
SecondaryProjection = _message("SecondaryProjection", "projection2",
                               (("u", VECTOR), ("v", VECTOR)))
Commitment = _message("Commitment", "commit", (("gen", POLY), ("res", POLY)))
Bezout = _message("Bezout", "bezout", (("phi", POLY), ("psi", POLY)))
PointChallenge = _message("PointChallenge", "challenge", (("value", SCALAR),))
Solution = _message("Solution", "solution", (("w", VECTOR),))
DiagonalAnnounce = _message("DiagonalAnnounce", "precond",
                            (("diag", VECTOR),), "diagonal")
GammaAnnounce = _message("GammaAnnounce", "precond",
                         (("s", SCALAR), ("t", SCALAR)), "gamma")
SingularityWitness = _message("SingularityWitness", "witness", (("w", VECTOR),))
_BY_TAGS = {lay.tags: cls for cls, lay in _LAYOUT.items()}


def wire_cost(msg) -> int:
    """Field elements the message puts on the wire."""
    cost = 0
    for name, enc in _LAYOUT[type(msg)].fields:
        cost += enc.cost(getattr(msg, name))
    return cost


def render_message(msg) -> str:
    lay = _LAYOUT[type(msg)]
    return " ".join([lay.tags]
                    + [enc.text(getattr(msg, name)) for name, enc in lay.fields])


def message_bytes(role: str, msg) -> bytes:
    lay = _LAYOUT[type(msg)]
    return (role.encode() + b"\x00" + lay.tag_bytes
            + b"".join([enc.to_bytes(getattr(msg, name))
                        for name, enc in lay.fields]))


def header_bytes(protocol_id: str, n: int, p: int, digest_hex: str) -> bytes:
    return (TRANSCRIPT_MAGIC.encode() + b"\x00" + protocol_id.encode() + b"\x00"
            + _scalar_bytes(n) + _scalar_bytes(p) + bytes.fromhex(digest_hex))


def _parse_message(field, kind, payload, lineno):
    cls = _BY_TAGS.get(kind)
    if cls is None:
        cls = _BY_TAGS.get(f"{kind} {payload[0]}")
        payload = payload[1:]
    if cls is None or len(payload) != len(_LAYOUT[cls].fields):
        raise ParseError(lineno, f"unknown or malformed message kind {kind!r}")
    return cls(*[enc.parse(field, tok, lineno)
                 for (_, enc), tok in zip(_LAYOUT[cls].fields, payload)])


# -- outcomes ----------------------------------------------------------------


@dataclass(frozen=True)
class SingularResult:
    """Certified det = 0; the witness lives in the message list."""

    def __str__(self):
        return "singular"


@dataclass(frozen=True)
class Accept:
    result: object  # Poly, int (determinant) or SingularResult


@dataclass(frozen=True)
class Reject:
    reason: str


@dataclass(frozen=True)
class BadChallenge:
    detail: str


Outcome = Accept | Reject | BadChallenge


# -- transcript -----------------------------------------------------------


@dataclass
class Transcript:
    protocol_id: str
    n: int
    p: int
    matrix_digest: str
    messages: list = dc_field(default_factory=list)  # (role, message)
    outcome: object = None
    # A live session's meters; a parsed transcript has none.
    verifier_meter: CostMeter | None = None
    prover_meter: CostMeter | None = None

    def render(self) -> str:
        lines = [f"{TRANSCRIPT_MAGIC} {self.protocol_id} n={self.n} "
                 f"p={self.p} matrix={self.matrix_digest}"]
        for role, msg in self.messages:
            lines.append(f"{role} {render_message(msg)}")
        lines.append(f"outcome {render_outcome(self.outcome)}")
        return "\n".join(lines) + "\n"


def result_text(result) -> str:
    """Text of an accepted result: a polynomial, a determinant or "singular"."""
    return POLY.text(result) if isinstance(result, Poly) else str(result)


def render_outcome(outcome) -> str:
    if isinstance(outcome, Accept):
        return f"Accept {result_text(outcome.result)}"
    if isinstance(outcome, Reject):
        return f"Reject {outcome.reason}"
    if isinstance(outcome, BadChallenge):
        return f"BadChallenge {outcome.detail}"
    raise UsageError(f"unknown outcome {outcome!r}")


# -- parsing --------------------------------------------------------------


_REASON = re.compile(r"^[a-z][a-z0-9-]*$")


def parse_transcript(text: str) -> Transcript:
    """Parse the canonical text form; strict about grammar and ranges."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty transcript")
    head = lines[0].split(" ")
    if len(head) != 5 or head[0] != TRANSCRIPT_MAGIC:
        raise ParseError(1, f"bad header, expected '{TRANSCRIPT_MAGIC} ...'")
    protocol_id = head[1]
    m_n = re.match(r"^n=([1-9][0-9]*)$", head[2])
    m_p = re.match(r"^p=([1-9][0-9]*)$", head[3])
    m_d = re.match(r"^matrix=([0-9a-f]{64})$", head[4])
    if not (m_n and m_p and m_d):
        raise ParseError(1, "malformed header fields")
    try:
        n, p = int(m_n.group(1)), int(m_p.group(1))
        field = PrimeField(p)
    except ValueError as exc:   # int()'s digit limit
        raise ParseError(1, str(exc)) from None
    except Exception as exc:
        raise ParseError(1, f"bad modulus: {exc}") from None
    t = Transcript(protocol_id, n, p, m_d.group(1))

    if len(lines) < 2:
        raise ParseError(2, "missing outcome line")
    # No vector or polynomial on the wire has more than n + 1 entries: a
    # longer payload is refused before any payload is converted.
    for lineno, line in enumerate(lines[1:], start=2):
        if any(tok.count(",") > n for tok in line.split(" ")):
            raise ParseError(lineno, f"payload of more than {n + 1} entries")
    for lineno, line in enumerate(lines[1:-1], start=2):
        toks = line.split(" ")
        if len(toks) < 3:
            raise ParseError(lineno, "message line too short")
        role, kind = toks[0], toks[1]
        if role not in ("prover", "verifier"):
            raise ParseError(lineno, f"unknown role {role!r}")
        payload = toks[2:]
        try:
            msg = _parse_message(field, kind, payload, lineno)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(lineno, str(exc)) from None
        t.messages.append((role, msg))

    last = lines[-1].split(" ")
    lineno = len(lines)
    if last[0] != "outcome" or len(last) < 2:
        raise ParseError(lineno, "missing outcome line")
    try:
        t.outcome = _parse_outcome(field, protocol_id, last[1:], lineno)
    except ValueError as exc:   # int()'s digit limit
        raise ParseError(lineno, str(exc)) from None
    return t


def _parse_outcome(field, protocol_id, toks, lineno):
    tag = toks[0]
    if tag == "Accept":
        if len(toks) != 2:
            raise ParseError(lineno, "Accept outcome needs one payload token")
        body = toks[1]
        if body == "singular":
            return Accept(SingularResult())
        from .protocol import _PROTOCOLS

        # A determinant protocol accepts a scalar; all others a polynomial.
        spec = _PROTOCOLS.get(protocol_id)
        if spec is not None and spec.result == "det":
            return Accept(_parse_scalar(field, body, lineno))
        return Accept(_parse_poly(field, body, lineno))
    if tag in ("Reject", "BadChallenge"):
        if len(toks) != 2 or not _REASON.match(toks[1]):
            raise ParseError(lineno, f"malformed {tag} outcome")
        return Reject(toks[1]) if tag == "Reject" else BadChallenge(toks[1])
    raise ParseError(lineno, f"unknown outcome tag {tag!r}")
