"""Typed protocol messages, outcomes and the canonical transcript format.

A transcript is the full record of one session: a header identifying the
protocol, field, dimension and matrix, the ordered list of role-tagged
messages, and the final outcome.  Two canonical encodings exist:

* a line-oriented text form for files (LF endings, single spaces, no
  trailing whitespace), used by the CLI;
* a byte form per message (scalars as 8-byte little-endian, vectors and
  polynomials length-prefixed), fed to the Fiat-Shamir hash.

Replaying a transcript through the verifier reproduces its verdict; any
byte flipped in a payload changes either the parse, the derived
challenges or a check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .errors import ParseError, UsageError
from .field import PrimeField
from .meter import CostMeter
from .polynomial import Poly

TRANSCRIPT_MAGIC = "certilin/1"

_DEC = re.compile(r"^(0|[1-9][0-9]*)$")


# -- message types -------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    u: tuple
    v: tuple
    kind = "projection"


@dataclass(frozen=True)
class SecondaryProjection:
    u: tuple
    v: tuple
    kind = "projection2"


@dataclass(frozen=True)
class Commitment:
    gen: Poly
    res: Poly
    kind = "commit"


@dataclass(frozen=True)
class Bezout:
    phi: Poly
    psi: Poly
    kind = "bezout"


@dataclass(frozen=True)
class PointChallenge:
    value: int
    kind = "challenge"


@dataclass(frozen=True)
class Solution:
    w: tuple
    kind = "solution"


@dataclass(frozen=True)
class DiagonalAnnounce:
    diag: tuple
    kind = "precond"


@dataclass(frozen=True)
class GammaAnnounce:
    s: int
    t: int
    kind = "precond"


@dataclass(frozen=True)
class SingularityWitness:
    w: tuple
    kind = "witness"


Message = (Projection | SecondaryProjection | Commitment | Bezout
           | PointChallenge | Solution | DiagonalAnnounce | GammaAnnounce
           | SingularityWitness)


def wire_cost(msg) -> int:
    """Field elements the message puts on the wire."""
    if isinstance(msg, (Projection, SecondaryProjection)):
        return len(msg.u) + len(msg.v)
    if isinstance(msg, Commitment):
        return msg.gen.wire_cost() + msg.res.wire_cost()
    if isinstance(msg, Bezout):
        return msg.phi.wire_cost() + msg.psi.wire_cost()
    if isinstance(msg, PointChallenge):
        return 1
    if isinstance(msg, (Solution, SingularityWitness)):
        return len(msg.w)
    if isinstance(msg, DiagonalAnnounce):
        return len(msg.diag)
    if isinstance(msg, GammaAnnounce):
        return 2
    raise UsageError(f"unknown message {msg!r}")


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


def outcome_exit_code(outcome) -> int:
    if isinstance(outcome, Accept):
        return 0
    if isinstance(outcome, BadChallenge):
        return 2
    return 1


# -- transcript -----------------------------------------------------------


@dataclass
class Transcript:
    protocol_id: str
    n: int
    p: int
    matrix_digest: str
    messages: list = dc_field(default_factory=list)  # (role, Message)
    outcome: object = None
    verifier_meter: CostMeter = dc_field(default_factory=CostMeter)
    prover_meter: CostMeter = dc_field(default_factory=CostMeter)

    def header_line(self) -> str:
        return (f"{TRANSCRIPT_MAGIC} {self.protocol_id} n={self.n} "
                f"p={self.p} matrix={self.matrix_digest}")

    def render(self) -> str:
        lines = [self.header_line()]
        for role, msg in self.messages:
            lines.append(f"{role} {render_message(msg)}")
        lines.append(f"outcome {render_outcome(self.outcome)}")
        return "\n".join(lines) + "\n"


def _vec_text(v) -> str:
    return ",".join(str(x) for x in v)


def render_message(msg) -> str:
    if isinstance(msg, Projection):
        return f"projection {_vec_text(msg.u)} {_vec_text(msg.v)}"
    if isinstance(msg, SecondaryProjection):
        return f"projection2 {_vec_text(msg.u)} {_vec_text(msg.v)}"
    if isinstance(msg, Commitment):
        return f"commit {msg.gen.to_text()} {msg.res.to_text()}"
    if isinstance(msg, Bezout):
        return f"bezout {msg.phi.to_text()} {msg.psi.to_text()}"
    if isinstance(msg, PointChallenge):
        return f"challenge {msg.value}"
    if isinstance(msg, Solution):
        return f"solution {_vec_text(msg.w)}"
    if isinstance(msg, DiagonalAnnounce):
        return f"precond diagonal {_vec_text(msg.diag)}"
    if isinstance(msg, GammaAnnounce):
        return f"precond gamma {msg.s} {msg.t}"
    if isinstance(msg, SingularityWitness):
        return f"witness {_vec_text(msg.w)}"
    raise UsageError(f"unknown message {msg!r}")


def render_outcome(outcome) -> str:
    if isinstance(outcome, Accept):
        r = outcome.result
        if isinstance(r, Poly):
            return f"Accept {r.to_text()}"
        if isinstance(r, SingularResult):
            return "Accept singular"
        return f"Accept {r}"
    if isinstance(outcome, Reject):
        return f"Reject {outcome.reason}"
    if isinstance(outcome, BadChallenge):
        return f"BadChallenge {outcome.detail}"
    raise UsageError(f"unknown outcome {outcome!r}")


# -- canonical bytes (Fiat-Shamir input) ------------------------------------


def _scalar_bytes(x: int) -> bytes:
    return int(x).to_bytes(8, "little")


def _vec_bytes(v) -> bytes:
    return _scalar_bytes(len(v)) + b"".join(_scalar_bytes(x) for x in v)


def _poly_bytes(f: Poly) -> bytes:
    return _vec_bytes(f.coeffs)


def message_bytes(role: str, msg) -> bytes:
    head = role.encode() + b"\x00" + msg.kind.encode() + b"\x00"
    if isinstance(msg, (Projection, SecondaryProjection)):
        return head + _vec_bytes(msg.u) + _vec_bytes(msg.v)
    if isinstance(msg, Commitment):
        return head + _poly_bytes(msg.gen) + _poly_bytes(msg.res)
    if isinstance(msg, Bezout):
        return head + _poly_bytes(msg.phi) + _poly_bytes(msg.psi)
    if isinstance(msg, PointChallenge):
        return head + _scalar_bytes(msg.value)
    if isinstance(msg, Solution):
        return head + _vec_bytes(msg.w)
    if isinstance(msg, DiagonalAnnounce):
        return head + b"diagonal\x00" + _vec_bytes(msg.diag)
    if isinstance(msg, GammaAnnounce):
        return head + b"gamma\x00" + _scalar_bytes(msg.s) + _scalar_bytes(msg.t)
    if isinstance(msg, SingularityWitness):
        return head + _vec_bytes(msg.w)
    raise UsageError(f"unknown message {msg!r}")


def header_bytes(protocol_id: str, n: int, p: int, digest_hex: str) -> bytes:
    return (TRANSCRIPT_MAGIC.encode() + b"\x00" + protocol_id.encode() + b"\x00"
            + _scalar_bytes(n) + _scalar_bytes(p) + bytes.fromhex(digest_hex))


# -- parsing --------------------------------------------------------------


def _parse_scalar(field: PrimeField, tok: str, lineno: int) -> int:
    if not _DEC.match(tok):
        raise ParseError(lineno, f"not a canonical decimal: {tok!r}")
    val = int(tok)
    if val >= field.p:
        raise ParseError(lineno, f"value {val} out of range for p={field.p}")
    return val


def _parse_vec(field: PrimeField, tok: str, lineno: int) -> tuple:
    return tuple(_parse_scalar(field, part, lineno) for part in tok.split(","))


def _parse_poly(field: PrimeField, tok: str, lineno: int) -> Poly:
    coeffs = _parse_vec(field, tok, lineno)
    # One text per polynomial: only the zero polynomial ends in a zero.
    if coeffs[-1] == 0 and tok != "0":
        raise ParseError(lineno, f"trailing zero coefficient: {tok!r}")
    return Poly(field, coeffs)


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
    n, p = int(m_n.group(1)), int(m_p.group(1))
    try:
        field = PrimeField(p)
    except Exception as exc:
        raise ParseError(1, f"bad modulus: {exc}") from None
    t = Transcript(protocol_id, n, p, m_d.group(1))

    if len(lines) < 2:
        raise ParseError(2, "missing outcome line")
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
    t.outcome = _parse_outcome(field, protocol_id, last[1:], lineno)
    return t


def _parse_message(field, kind, payload, lineno):
    if kind == "projection" and len(payload) == 2:
        return Projection(_parse_vec(field, payload[0], lineno),
                          _parse_vec(field, payload[1], lineno))
    if kind == "projection2" and len(payload) == 2:
        return SecondaryProjection(_parse_vec(field, payload[0], lineno),
                                   _parse_vec(field, payload[1], lineno))
    if kind == "commit" and len(payload) == 2:
        return Commitment(_parse_poly(field, payload[0], lineno),
                          _parse_poly(field, payload[1], lineno))
    if kind == "bezout" and len(payload) == 2:
        return Bezout(_parse_poly(field, payload[0], lineno),
                      _parse_poly(field, payload[1], lineno))
    if kind == "challenge" and len(payload) == 1:
        return PointChallenge(_parse_scalar(field, payload[0], lineno))
    if kind == "solution" and len(payload) == 1:
        return Solution(_parse_vec(field, payload[0], lineno))
    if kind == "precond" and len(payload) == 2 and payload[0] == "diagonal":
        return DiagonalAnnounce(_parse_vec(field, payload[1], lineno))
    if kind == "precond" and len(payload) == 3 and payload[0] == "gamma":
        return GammaAnnounce(_parse_scalar(field, payload[1], lineno),
                             _parse_scalar(field, payload[2], lineno))
    if kind == "witness" and len(payload) == 1:
        return SingularityWitness(_parse_vec(field, payload[0], lineno))
    raise ParseError(lineno, f"unknown or malformed message kind {kind!r}")


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
