"""Testing the implication "(D*A)^2 always Q" => "A^2 is P0+".

The hypothesis side quantifies over every positive diagonal D, so it is
settled by certificates when possible and probed by sampling otherwise;
the conclusion side is a plain classification of A^2, and a report reads
its verdict off the two. A matrix whose hypothesis holds while A^2 fails
P0+ refutes the implication. Three published claims are tracked: the
general statement, its restriction to 2x2 matrices, and its restriction
to anti-sign-symmetric matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import ClassVar, Iterator, Sequence

from .matrices import RationalMatrix, _bareiss_int, _product_kernel, check_enumeration_dim, mat_mul, matrix_to_dict
from .matrix_classes import ClassReport, Verdict, _p0_plus_holds, classify, is_anti_sign_symmetric
from .polynomial import SparsePolynomial
from .scaling import (
    Certificate,
    CertificateVerdict,
    DiagonalScaling,
    WitnessEvidence,
    _uniform_draws,
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

    @property
    def verdict(self) -> RefutationVerdict:
        """The two sides combined, read off the report's own parts."""
        hypothesis = self.hypothesis
        if isinstance(hypothesis, RefutedAt):
            # the implication is vacuous for this matrix
            return RefutationVerdict(VerdictKind.CONSISTENT)
        conclusion_holds = self.conclusion.p0_plus.holds
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
        if self.matrix.n == 2:
            claims.append(Claim.TWO_BY_TWO)
        if self.anti_sign.holds:
            claims.append(Claim.ANTI_SIGN_SYMMETRIC)
        return RefutationVerdict(VerdictKind.COUNTEREXAMPLE, tuple(claims), grade)

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
    their names in this module, each once at most; ``sample_refute`` runs
    only when some p_j is INCONCLUSIVE and none is NOT_POSITIVE, and it is
    passed the certificates made here, so no p_j is expanded or certified
    twice.
    """
    check_sampling_args(budget, exponent_range)
    certs = tuple(certify_positive_on_orthant(p) for p in symbolic_q_invariants(matrix, max_dim))
    for cert in certs:
        if isinstance(cert.evidence, WitnessEvidence):
            return RefutedAt(DiagonalScaling(cert.evidence.point), certs)
    if all(c.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT for c in certs):
        return CertifiedForAll(certs)
    witness = sample_refute(
        matrix, certs, budget=budget, seed=seed, exponent_range=exponent_range, max_dim=max_dim
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
    ``evaluate_hypothesis(A)``, ``mat_mul(A, A)``, then, in ``_report``,
    ``classify(A^2)`` and ``is_anti_sign_symmetric(A)``. ``max_dim``
    overrides every dimension bound of the call, checked in that order.
    Every layer reads the integer matrix q*A that A stores, so A's
    denominators were cleared once, when it was built; ``mat_mul`` stores
    A^2 as (q*A)^2 over q^2 in lowest terms, and no Fraction of either
    matrix is made until its entries are read. The whole report is always
    built; ``hunt`` makes the same calls but builds a report only for a
    candidate it returns.
    """
    hypothesis = evaluate_hypothesis(
        matrix, budget=budget, seed=seed, exponent_range=exponent_range, max_dim=max_dim
    )
    return _report(matrix, mat_mul(matrix, matrix), hypothesis, max_dim)


def _report(
    matrix: RationalMatrix, squared: RationalMatrix, hypothesis: HypothesisStatus, max_dim: int | None
) -> RefutationReport:
    """The report of ``matrix`` with ``hypothesis``, given its square.

    The caller squares ``matrix`` once and passes ``squared`` on, so
    ``hunt`` can test it for P0+ before deciding to build a report. The
    conclusion side is ``classify(squared)``, with its witnesses, minor sums
    and anti-sign pair scan, and ``matrix`` is scanned for anti-sign
    symmetry; the verdict is read off the report's parts.
    """
    return RefutationReport(
        matrix=matrix,
        squared=squared,
        hypothesis=hypothesis,
        conclusion=classify(squared, max_dim),
        anti_sign=is_anti_sign_symmetric(matrix, max_dim),
    )


HUNT_MODES = ("all", "nonsingular", "spd")


@dataclass(frozen=True)
class HuntConfig:
    """Deterministic random search for matrices that refute the implication.

    ``entry_range`` bounds the integer entries (for mode "spd" it bounds
    the entries of the factor B in B^T B + I). Candidate draws consume
    the generator row-major, entry by entry, each entry by rejection on
    ``getrandbits`` (see ``generate_candidates``); that order and that
    rule are frozen so a (seed, count) pair always names the same
    candidate stream. The sampling exponent range is the constant
    ``exponent_range``.
    """

    dimension: int
    entry_range: int
    count: int
    budget: int = 10_000
    seed: int = 0
    mode: str = "all"
    exponent_range: ClassVar[int] = 3

    def __post_init__(self):
        for name in ("dimension", "entry_range", "count", "budget", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is an int to isinstance
                raise ValueError(f"{name} must be an int, got {value!r}")
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


def _draw_rows(entries: Iterator[int], n: int) -> list[list[int]]:
    """The next n x n entries of ``entries``, row-major."""
    return [list(islice(entries, n)) for _ in range(n)]


def generate_candidates(cfg: HuntConfig):
    """Yield the candidate stream for ``cfg`` (deterministic in cfg.seed).

    Every mode draws integer rows and builds one matrix from them: "all"
    keeps the draw, "nonsingular" redraws while its Bareiss determinant is
    0, and "spd" forms B^T B + I from the drawn B in integers. Each entry
    is drawn from ``random.Random(cfg.seed)`` by the rule of
    ``_uniform_draws`` on [-entry_range, entry_range]: rejection on
    ``getrandbits`` of the width's bit length. The rule is this package's,
    not ``randint``'s (whose draws it matches on CPython 3.10 to 3.13), so
    a later Python that changes ``randint`` leaves the stream as it is.
    The rows are plain ints, drawn here or multiplied from them, so each
    candidate is stored from them over the denominator 1 directly
    (``RationalMatrix._from_ints``), equal with an equal hash to the matrix
    the public constructor would build, without re-checking every entry.
    """
    n, bound = cfg.dimension, cfg.entry_range
    entries = _uniform_draws(random.Random(cfg.seed), -bound, bound)
    for _ in range(cfg.count):
        rows = _draw_rows(entries, n)
        if cfg.mode == "nonsingular":
            while not _bareiss_int([row[:] for row in rows]):
                rows = _draw_rows(entries, n)
        elif cfg.mode == "spd":
            # B^T B + I is symmetric positive definite with integer entries
            rows = _product_kernel(n)(tuple(zip(*rows)), rows)
            for i, row in enumerate(rows):
                row[i] += 1
        yield RationalMatrix._from_ints(rows, 1)


def hunt(cfg: HuntConfig, max_dim: int | None = None) -> list[RefutationReport]:
    """The non-consistent reports of verify_refutation over the candidate stream.

    Candidates are processed in stream order and each one's sampling seed
    is derived from (cfg.seed, index), so the report list is identical
    across runs with the same config. Only a returned candidate gets a
    report: two early exits settle the CONSISTENT ones without one. A
    refuted hypothesis makes the implication vacuous, and A^2 is not built.
    Otherwise A is squared once with ``mat_mul``; when the hypothesis is
    certified and ``_p0_plus_holds(A^2)`` (classify's P0+ test without its
    witnesses, minor sums or pair scan), the implication holds for A, and
    neither is A^2 classified nor A scanned for anti-sign symmetry. Every
    other candidate is a COUNTEREXAMPLE or UNDETERMINED and gets the report
    ``verify_refutation`` would give, from the same calls. ``max_dim`` is
    passed on to every layer; both bounds a candidate can meet, the
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
        squared = mat_mul(candidate, candidate)
        if isinstance(hypothesis, CertifiedForAll) and _p0_plus_holds(squared):
            continue
        reports.append(_report(candidate, squared, hypothesis, max_dim))
    return reports
