"""Interactive certificates for sparse linear algebra over prime fields.

The library certifies minimal polynomials and determinants of sparse n x n
matrices over Z_p with verifier cost linear in the input: one application
of the matrix plus O(n) field operations.  Protocols run either
interactively (seeded verifier randomness) or non-interactively through
the Fiat-Shamir transform, producing replayable transcripts.
"""

from .blackbox import (DiagonalMatrix, GammaMatrix, LinearOp, ProductOp,
                       ShiftOp, SparseMatrix, emit_sms, gamma_det,
                       matrix_digest, matvec, parse_sms)
from .challenges import FiatShamirChallenges, RandomChallenges
from .errors import (BadShiftError, CertilinError, ConfigError, DomainError,
                     FieldTooSmallError, IntegrityError, MatrixMismatchError,
                     OracleCapError, ParseError, ProtocolInternalError,
                     UsageError)
from .field import PrimeField, is_prime
from .krylov import (GeneratorPair, minimal_generator_pair,
                     residue_polynomial, solve_shifted, wiedemann_sequence)
from .messages import (Accept, BadChallenge, Bezout, Commitment, Outcome,
                       PointChallenge, Projection, Reject, SingularResult,
                       SingularityWitness, Solution, Transcript,
                       parse_transcript)
from .meter import CostMeter
from .oracle import (ORACLE_CAP, oracle_charpoly, oracle_det, oracle_kernel,
                     oracle_minpoly)
from .polynomial import Poly, berlekamp_massey, poly_gcd, poly_lcm, xgcd
from .protocol import (BudgetReport, budget_report, certify_charpoly,
                       certify_det_diag, certify_det_gamma,
                       certify_det_simple, certify_generator,
                       certify_minpoly, field_size_bound, fiat_shamir,
                       require_field_size, verify_noninteractive)
from .provers import HonestProver, adversarial_prover

__version__ = "0.1.0"
