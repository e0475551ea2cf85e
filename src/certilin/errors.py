"""Exception taxonomy shared across the library."""


class CertilinError(Exception):
    """Base class for all library errors."""


class UsageError(CertilinError):
    """Caller violated a precondition (dimension mismatch, wrong modulus, ...)."""


class DomainError(CertilinError):
    """Mathematically undefined request (inverse of zero, division by zero polynomial)."""


class ConfigError(CertilinError):
    """Invalid runtime configuration (bad modulus, unknown protocol, ...)."""


class FieldTooSmallError(ConfigError):
    """The field does not meet a protocol's size threshold."""

    def __init__(self, protocol: str, p: int, required: int):
        self.protocol = protocol
        self.p = p
        self.required = required
        super().__init__(f"protocol {protocol} requires p >= {required}, got p = {p}")


class ParseError(CertilinError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class MatrixMismatchError(UsageError):
    """A transcript's header names another matrix (modulus, dimension or digest)."""


class OracleCapError(UsageError):
    """Dense oracle requested above the configured dimension cap."""


class BadShiftError(CertilinError):
    """The shift hits a root of the annihilator; the shifted system is inconsistent."""


class IntegrityError(CertilinError):
    """An internal self-check failed (e.g. a residual that must vanish did not)."""


class ProtocolInternalError(CertilinError):
    """The honest prover exhausted its retry budget; usually the field is too small."""
