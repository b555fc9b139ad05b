"""Built-in end-to-end analysis of the bundled counterexample matrix.

The 2x2 matrix [[1, 2], [-1, 5]] is anti-sign symmetric, every (D*A)^2
is a Q-matrix with a full certificate, and yet A^2 has a negative
diagonal entry and so is not even P0. It therefore refutes the
implication "(D*A)^2 always Q => A^2 is P0+" in all three tracked
variants. ``run_reproduction`` recomputes the whole analysis and checks
every derived value against frozen expected constants, so the CLI's
``reproduce`` command doubles as a self-test of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import IndexSet, RationalMatrix, determinant, minor
from .refute import RefutationReport, VerdictKind, verify_refutation
from .scaling import (
    CertificateVerdict,
    CoefficientEvidence,
    QuadraticEvidence,
    cauchy_binet_terms,
    scaled_square_symbolic,
)

COUNTEREXAMPLE_MATRIX = RationalMatrix(((1, 2), (-1, 5)))


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual, "ok": self.ok}


@dataclass(frozen=True)
class ReproductionResult:
    checks: tuple[Check, ...]
    report: RefutationReport

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_mismatch(self) -> Check | None:
        return next((c for c in self.checks if not c.ok), None)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "report": self.report.to_dict(),
        }


def _matrix_inline(matrix: RationalMatrix) -> str:
    return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in matrix.rows) + "]"


def _describe_certificate(cert) -> str:
    if not cert.verify():
        return "certificate does not verify"
    if cert.verdict is not CertificateVerdict.POSITIVE_ON_ORTHANT:
        return f"verdict {cert.verdict.value}"
    e = cert.evidence
    if isinstance(e, CoefficientEvidence):
        return "positive via nonnegative coefficients"
    # a POSITIVE_ON_ORTHANT certificate carries one of the two positive evidence kinds
    return f"positive via two-variable quadratic, b^2 = {e.b_squared} < 4ac = {e.four_ac}"


def _describe_p0(report, squared: RationalMatrix) -> str:
    witness = report.p0.witness
    if witness is None:
        return "holds"
    if not witness.reverify(squared):
        return "witness does not re-verify"
    return f"fails at {witness.index_set} with minor {witness.value}"


def _describe_verdict(report: RefutationReport) -> str:
    verdict = report.verdict
    if verdict.kind is not VerdictKind.COUNTEREXAMPLE:
        return verdict.kind.value
    claims = ", ".join(c.value for c in verdict.refuted_claims)
    return f"counterexample ({verdict.evidence_grade.value}): {claims}"


def run_reproduction() -> ReproductionResult:
    """Recompute the bundled analysis and compare it with the expected values.

    The pipeline runs once, through ``verify_refutation``; the checks on
    A^2, the p_j, their certificates and the class verdicts read its
    report. The checks accept any matrix, so a replaced
    ``COUNTEREXAMPLE_MATRIX`` shows up as mismatches, not as an error.
    """
    a = COUNTEREXAMPLE_MATRIX
    checks: list[Check] = []

    def add(name: str, expected: str, actual: str) -> None:
        checks.append(Check(name, expected, actual))

    report = verify_refutation(a)
    squared = report.squared

    add("det(A)", "7", str(determinant(a)))
    add("A^2", "[[-1, 12], [-6, 23]]", _matrix_inline(squared))

    symbolic = scaled_square_symbolic(a)
    expected_entries = (
        ("1*d1^2 - 2*d1*d2", "2*d1^2 + 10*d1*d2"),
        ("-1*d1*d2 - 5*d2^2", "-2*d1*d2 + 25*d2^2"),
    )
    for i in range(min(len(symbolic), 2)):
        for j in range(min(len(symbolic[i]), 2)):
            add(f"(D*A)^2 entry ({i + 1},{j + 1})", expected_entries[i][j], symbolic[i][j].to_text())

    expected_polys = ("1*d1^2 - 4*d1*d2 + 25*d2^2", "49*d1^2*d2^2")
    for j, poly in enumerate(report.polynomials, start=1):
        expected = expected_polys[j - 1] if j <= len(expected_polys) else "<unexpected order>"
        add(f"p{j}", expected, poly.to_text())

    certs = report.certificates
    if certs:
        add(
            "p1 certificate",
            "positive via two-variable quadratic, b^2 = 16 < 4ac = 100",
            _describe_certificate(certs[0]),
        )
        completion = (
            certs[0].evidence.completion_text()
            if isinstance(certs[0].evidence, QuadraticEvidence)
            else "<none>"
        )
        add("p1 completion", "(d1 - 2*d2)^2 + 21*d2^2", completion)
    if len(certs) > 1:
        add("p2 certificate", "positive via nonnegative coefficients", _describe_certificate(certs[1]))

    conclusion = report.conclusion
    add("principal minor sums of A^2", "22, 49", ", ".join(str(c) for c in conclusion.minor_sums))
    add("A^2 P0 verdict", "fails at {1} with minor -1", _describe_p0(conclusion, squared))

    add("anti-sign symmetry of A", "holds", "holds" if report.anti_sign.holds else "fails")
    if a.n >= 2:
        fwd = minor(a, IndexSet.of(a.n, 1), IndexSet.of(a.n, 2))
        back = minor(a, IndexSet.of(a.n, 2), IndexSet.of(a.n, 1))
        add("mirrored minor product at ({1}, {2})", "-2", str(fwd * back))

    alpha = IndexSet(a.n, tuple(range(1, a.n + 1)))
    expansion = cauchy_binet_terms(a, alpha)
    add("full-size product-minor expansion total", "49", str(expansion.total))
    add("det(A^2)", "49", str(determinant(squared)))

    add(
        "verdict",
        "counterexample (certified): general, two_by_two, anti_sign_symmetric",
        _describe_verdict(report),
    )

    return ReproductionResult(tuple(checks), report)
