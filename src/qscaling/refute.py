"""Testing the implication "(D*A)^2 always Q" => "A^2 is P0+".

The hypothesis side quantifies over every positive diagonal D, so it is
settled by certificates when possible and probed by sampling otherwise;
the conclusion side is a plain classification of A^2. A matrix whose
hypothesis holds while A^2 fails P0+ refutes the implication. Three
published claims are tracked: the general statement, its restriction to
2x2 matrices, and its restriction to anti-sign-symmetric matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Sequence

from .matrices import RationalMatrix, _bareiss_int, _int_product, check_enumeration_dim, mat_mul, matrix_to_dict
from .matrix_classes import ClassReport, Verdict, classify, is_anti_sign_symmetric
from .polynomial import SparsePolynomial
from .scaling import (
    Certificate,
    CertificateVerdict,
    DiagonalScaling,
    WitnessEvidence,
    certify_positive_on_orthant,
    check_sampling_args,
    check_symbolic_dim,
    sample_refute,
    symbolic_q_invariants,
)


class Claim(Enum):
    """The implication variants a counterexample may refute."""

    GENERAL = "general"
    TWO_BY_TWO = "two_by_two"
    ANTI_SIGN_SYMMETRIC = "anti_sign_symmetric"


class VerdictKind(Enum):
    COUNTEREXAMPLE = "counterexample"
    CONSISTENT = "consistent"
    UNDETERMINED = "undetermined"


class EvidenceGrade(Enum):
    #: every invariant polynomial carries a positivity certificate
    CERTIFIED = "certified"
    #: the hypothesis rests on finite sampling only; evidence, not proof
    SAMPLING_ONLY = "sampling_only"


@dataclass(frozen=True)
class CertifiedForAll:
    certificates: tuple[Certificate, ...]

    def to_dict(self) -> dict:
        return {"status": "certified_for_all"}


@dataclass(frozen=True)
class NoCounterexampleFound:
    budget: int
    certificates: tuple[Certificate, ...]

    def to_dict(self) -> dict:
        return {"status": "no_counterexample_found", "budget": self.budget}


@dataclass(frozen=True)
class RefutedAt:
    scaling: DiagonalScaling
    certificates: tuple[Certificate, ...]

    def to_dict(self) -> dict:
        return {"status": "refuted", "scaling": self.scaling.to_dict()}


HypothesisStatus = CertifiedForAll | NoCounterexampleFound | RefutedAt


@dataclass(frozen=True)
class RefutationVerdict:
    kind: VerdictKind
    refuted_claims: tuple[Claim, ...] = ()
    evidence_grade: EvidenceGrade | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.refuted_claims:
            out["refuted_claims"] = [c.value for c in self.refuted_claims]
        if self.evidence_grade is not None:
            out["evidence_grade"] = self.evidence_grade.value
        return out


@dataclass(frozen=True)
class RefutationReport:
    """Everything verify_refutation derives for one matrix."""

    matrix: RationalMatrix
    squared: RationalMatrix
    hypothesis: HypothesisStatus
    conclusion: ClassReport
    anti_sign: Verdict
    verdict: RefutationVerdict

    @property
    def certificates(self) -> tuple[Certificate, ...]:
        return self.hypothesis.certificates

    @property
    def polynomials(self) -> tuple[SparsePolynomial, ...]:
        """p_1..p_n, as carried by their certificates."""
        return tuple(c.polynomial for c in self.certificates)

    def to_dict(self) -> dict:
        return {
            "matrix": matrix_to_dict(self.matrix),
            "squared": matrix_to_dict(self.squared),
            "invariants": invariants_to_dict(self.certificates),
            "hypothesis": self.hypothesis.to_dict(),
            "conclusion": self.conclusion.to_dict(),
            "anti_sign_symmetric": self.anti_sign.to_dict(),
            "two_by_two": self.matrix.n == 2,
            "verdict": self.verdict.to_dict(),
        }


def invariants_to_dict(certificates: Sequence[Certificate]) -> list[dict]:
    """The structured form of p_1..p_n, each with its certificate."""
    return [
        {"order": j, "polynomial": cert.polynomial.to_text(), "certificate": cert.to_dict()}
        for j, cert in enumerate(certificates, start=1)
    ]


def derive_verdict(
    hypothesis: HypothesisStatus, conclusion: ClassReport, n: int, anti_sign: Verdict
) -> RefutationVerdict:
    """Combine the two sides into a verdict; kept separate so reports can be re-derived."""
    if isinstance(hypothesis, RefutedAt):
        # the implication is vacuous for this matrix
        return RefutationVerdict(VerdictKind.CONSISTENT)
    conclusion_holds = conclusion.p0_plus.holds
    if isinstance(hypothesis, CertifiedForAll):
        if conclusion_holds:
            return RefutationVerdict(VerdictKind.CONSISTENT)
        grade = EvidenceGrade.CERTIFIED
    else:
        if conclusion_holds:
            # hypothesis unsettled and nothing refuted either way
            return RefutationVerdict(VerdictKind.UNDETERMINED)
        grade = EvidenceGrade.SAMPLING_ONLY
    claims = [Claim.GENERAL]
    if n == 2:
        claims.append(Claim.TWO_BY_TWO)
    if anti_sign.holds:
        claims.append(Claim.ANTI_SIGN_SYMMETRIC)
    return RefutationVerdict(VerdictKind.COUNTEREXAMPLE, tuple(claims), grade)


def evaluate_hypothesis(
    matrix: RationalMatrix,
    budget: int = 10_000,
    seed: int = 0,
    exponent_range: int = 3,
    max_dim: int | None = None,
) -> HypothesisStatus:
    """Certify or refute "(D*A)^2 is a Q-matrix for every positive diagonal D".

    The sampling arguments are checked up front, whether or not the
    certificates leave sampling to do. ``max_dim`` overrides both the
    symbolic-expansion and the sampling bound. ``symbolic_q_invariants``,
    ``certify_positive_on_orthant`` and ``sample_refute`` are called by
    their names in this module; ``sample_refute`` runs only when some p_j
    is INCONCLUSIVE and none is NOT_POSITIVE.
    """
    check_sampling_args(budget, exponent_range)
    certs = tuple(certify_positive_on_orthant(p) for p in symbolic_q_invariants(matrix, max_dim))
    for cert in certs:
        if isinstance(cert.evidence, WitnessEvidence):
            return RefutedAt(DiagonalScaling(cert.evidence.point), certs)
    if all(c.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT for c in certs):
        return CertifiedForAll(certs)
    witness = sample_refute(
        matrix, budget=budget, seed=seed, exponent_range=exponent_range, max_dim=max_dim
    )
    if witness is not None:
        return RefutedAt(witness, certs)
    return NoCounterexampleFound(budget, certs)


def verify_refutation(
    matrix: RationalMatrix,
    budget: int = 10_000,
    seed: int = 0,
    exponent_range: int = 3,
    max_dim: int | None = None,
) -> RefutationReport:
    """Test whether ``matrix`` refutes the implication (see module docstring).

    One call per layer, each by its name in this module:
    ``evaluate_hypothesis(A)``, then, in ``_report``,
    ``classify(mat_mul(A, A))`` and ``is_anti_sign_symmetric(A)``.
    ``max_dim`` overrides every dimension bound of the call, checked in that
    order. Every layer reads the integer matrix q*A that A stores, so A's
    denominators were cleared once, when it was built; ``mat_mul`` stores
    A^2 as (q*A)^2 over q^2 in lowest terms, and no Fraction of either
    matrix is made until its entries are read. ``hunt`` makes the same calls
    but stops after the first when it returns a ``RefutedAt``.
    """
    hypothesis = evaluate_hypothesis(
        matrix, budget=budget, seed=seed, exponent_range=exponent_range, max_dim=max_dim
    )
    return _report(matrix, hypothesis, max_dim)


def _report(matrix: RationalMatrix, hypothesis: HypothesisStatus, max_dim: int | None) -> RefutationReport:
    """The conclusion side of ``matrix`` and the verdict it gives with ``hypothesis``."""
    squared = mat_mul(matrix, matrix)
    conclusion = classify(squared, max_dim)
    anti_sign = is_anti_sign_symmetric(matrix, max_dim)
    verdict = derive_verdict(hypothesis, conclusion, matrix.n, anti_sign)
    return RefutationReport(
        matrix=matrix,
        squared=squared,
        hypothesis=hypothesis,
        conclusion=conclusion,
        anti_sign=anti_sign,
        verdict=verdict,
    )


HUNT_MODES = ("all", "nonsingular", "spd")


@dataclass(frozen=True)
class HuntConfig:
    """Deterministic random search for matrices that refute the implication.

    ``entry_range`` bounds the integer entries (for mode "spd" it bounds
    the entries of the factor B in B^T B + I). Candidate draws consume
    the generator row-major, entry by entry; that order is frozen so a
    (seed, count) pair always names the same candidate stream. The
    sampling exponent range is the constant ``exponent_range``.
    """

    dimension: int
    entry_range: int
    count: int
    budget: int = 10_000
    seed: int = 0
    mode: str = "all"
    exponent_range: ClassVar[int] = 3

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.entry_range < 1:
            raise ValueError("entry_range must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        check_sampling_args(self.budget, self.exponent_range)
        if self.mode not in HUNT_MODES:
            raise ValueError(f"mode must be one of {HUNT_MODES}, got {self.mode!r}")

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "entry_range": self.entry_range,
            "count": self.count,
            "budget": self.budget,
            "seed": self.seed,
            "mode": self.mode,
            "exponent_range": self.exponent_range,
        }


def _draw_rows(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def generate_candidates(cfg: HuntConfig):
    """Yield the candidate stream for ``cfg`` (deterministic in cfg.seed).

    Every mode draws integer rows and builds one matrix from them: "all"
    keeps the draw, "nonsingular" redraws while its Bareiss determinant is
    0, and "spd" forms B^T B + I from the drawn B in integers.
    """
    rng = random.Random(cfg.seed)
    n, bound = cfg.dimension, cfg.entry_range
    for _ in range(cfg.count):
        rows = _draw_rows(rng, n, bound)
        if cfg.mode == "nonsingular":
            while not _bareiss_int([row[:] for row in rows]):
                rows = _draw_rows(rng, n, bound)
        elif cfg.mode == "spd":
            # B^T B + I is symmetric positive definite with integer entries
            rows = _int_product(tuple(zip(*rows)), rows)
            for i, row in enumerate(rows):
                row[i] += 1
        yield RationalMatrix(tuple(map(tuple, rows)))


def hunt(cfg: HuntConfig, max_dim: int | None = None) -> list[RefutationReport]:
    """The non-consistent reports of verify_refutation over the candidate stream.

    Candidates are processed in stream order and each one's sampling seed
    is derived from (cfg.seed, index), so the report list is identical
    across runs with the same config. A refuted hypothesis ends a
    candidate: the implication holds vacuously, so its report would be
    CONSISTENT, and neither A^2 is built and classified nor A scanned for
    anti-sign symmetry. Every other candidate gets the report
    ``verify_refutation`` would give, from the same calls. ``max_dim``
    is passed on to every layer; both bounds a candidate can meet, the
    symbolic-expansion one and the enumeration one, are checked here
    before the first draw.
    """
    check_symbolic_dim(cfg.dimension, max_dim)
    check_enumeration_dim(cfg.dimension, max_dim)
    reports = []
    for index, candidate in enumerate(generate_candidates(cfg)):
        hypothesis = evaluate_hypothesis(
            candidate,
            budget=cfg.budget,
            seed=cfg.seed * 1_000_003 + index,
            exponent_range=cfg.exponent_range,
            max_dim=max_dim,
        )
        if isinstance(hypothesis, RefutedAt):
            continue
        report = _report(candidate, hypothesis, max_dim)
        if report.verdict.kind is not VerdictKind.CONSISTENT:
            reports.append(report)
    return reports
