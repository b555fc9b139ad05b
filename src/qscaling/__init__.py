"""Exact-arithmetic matrix-class analysis and positive-diagonal-scaling certificates.

The package classifies square rational matrices into the P / P0 / P0+ / Q
hierarchy from their principal minors, builds the invariant polynomials
of (D*A)^2 over all positive diagonal scalings D,
certifies or refutes their positivity on the open positive orthant, and
packages the whole pipeline as a counterexample checker and hunter.
"""

from .matrices import (
    CompoundMatrix,
    DEFAULT_ENUMERATION_GUARD,
    DimensionGuardError,
    IndexSet,
    MatrixParseError,
    RationalMatrix,
    compound,
    determinant,
    index_sets,
    mat_mul,
    matrix_from_dict,
    matrix_to_dict,
    minor,
    parse_matrix,
    parse_rational,
    render_matrix,
    render_rational,
    zero_rows_outside,
)
from .matrix_classes import (
    ClassReport,
    MinorPairWitness,
    MinorSumWitness,
    OrderGapWitness,
    PrincipalMinorWitness,
    Verdict,
    classify,
    is_anti_sign_symmetric,
    principal_minor_sums,
)
from .polynomial import SparsePolynomial
from .refute import (
    Claim,
    EvidenceGrade,
    HuntConfig,
    HypothesisStatus,
    CertifiedForAll,
    NoCounterexampleFound,
    RefutationReport,
    RefutationVerdict,
    RefutedAt,
    VerdictKind,
    evaluate_hypothesis,
    generate_candidates,
    hunt,
    verify_refutation,
)
from .reproduction import COUNTEREXAMPLE_MATRIX, ReproductionResult, run_reproduction
from .scaling import (
    Certificate,
    CertificateVerdict,
    CauchyBinetExpansion,
    CoefficientEvidence,
    DEFAULT_SYMBOLIC_GUARD,
    DiagonalScaling,
    QuadraticEvidence,
    WitnessEvidence,
    cauchy_binet_terms,
    certify_positive_on_orthant,
    sample_refute,
    scaled_square_symbolic,
    symbolic_q_invariants,
)

__version__ = "0.1.0"
