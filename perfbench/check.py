"""Independent re-checks of every output the benchmark times.

The reference values come from the oracles in ``tests/oracles.py``
(Faddeev-LeVerrier principal-minor sums, Leibniz minors, list products),
not from the package's own Bareiss / compound / symbolic routes. Each
function returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import oracles  # noqa: E402
from qscaling import (  # noqa: E402
    CertificateVerdict,
    CertifiedForAll,
    MinorPairWitness,
    MinorSumWitness,
    NoCounterexampleFound,
    OrderGapWitness,
    PrincipalMinorWitness,
    RefutedAt,
    VerdictKind,
)


def _rows(matrix) -> list[list[Fraction]]:
    return [list(row) for row in matrix.rows]


def _is_upper_triangular(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(i))


def _principal_minors(rows, k: int) -> list[Fraction]:
    """Order-k principal minors; diagonal products for triangular input, else Leibniz."""
    n = len(rows)
    if _is_upper_triangular(rows):
        return [prod((rows[i][i] for i in s), start=Fraction(1)) for s in combinations(range(n), k)]
    return [oracles.brute_force_minor(rows, list(s), list(s)) for s in combinations(range(n), k)]


def _evaluate(poly, point) -> Fraction:
    return sum(
        (c * prod((x**e for x, e in zip(point, exps)), start=Fraction(1)) for exps, c in poly.terms()),
        Fraction(0),
    )


def _scaled_square(rows, diagonal) -> list[list[Fraction]]:
    scaled = [[d * a for a in row] for d, row in zip(diagonal, rows)]
    return oracles.list_matmul(scaled, scaled)


def check_anti_sign(matrix, verdict) -> list[str]:
    rows = _rows(matrix)
    if not verdict.holds:
        w = verdict.witness
        if not isinstance(w, MinorPairWitness) or w.row_set.members == w.col_set.members:
            return ["anti-sign failure without a mirrored-pair witness"]
        forward = oracles.brute_force_minor(rows, w.row_set.zero_based(), w.col_set.zero_based())
        backward = oracles.brute_force_minor(rows, w.col_set.zero_based(), w.row_set.zero_based())
        if not (w.reverify(matrix) and (forward, backward) == (w.forward, w.backward) and forward * backward > 0):
            return ["anti-sign witness does not re-verify"]
        return []
    if _is_upper_triangular(rows):
        return []  # one minor of every mirrored pair of a triangular matrix is 0
    n = len(rows)
    for k in range(1, n + 1):
        for a, b in combinations(list(combinations(range(n), k)), 2):
            if oracles.brute_force_minor(rows, a, b) * oracles.brute_force_minor(rows, b, a) > 0:
                return [f"anti-sign holds but {a} / {b} violates it"]
    return []


def check_class_report(matrix, report) -> list[str]:
    """P / P0 / P0+ / Q / anti-sign verdicts and the minor-sum vector of ``matrix``."""
    rows = _rows(matrix)
    n = len(rows)
    problems = []
    sums = oracles.faddeev_leverrier(rows)
    if list(report.minor_sums) != sums:
        problems.append("minor_sums differ from Faddeev-LeVerrier")
    first_bad = next((k for k, c in enumerate(sums, start=1) if c <= 0), None)
    expected_q = None if first_bad is None else (first_bad, sums[first_bad - 1])
    got_q = None if report.q.holds else report.q.witness
    if (got_q is None) != (expected_q is None) or (
        got_q is not None
        and not (isinstance(got_q, MinorSumWitness) and (got_q.order, got_q.value) == expected_q)
    ):
        problems.append("Q verdict or witness wrong")

    minors = {}

    def order(k):
        if k not in minors:
            minors[k] = _principal_minors(rows, k)
        return minors[k]

    for name, verdict, bad in (
        ("P", report.p, lambda m: m <= 0),
        ("P0", report.p0, lambda m: m < 0),
    ):
        if verdict.holds:
            if any(bad(m) for k in range(1, n + 1) for m in order(k)):
                problems.append(f"{name} holds but a principal minor violates it")
        else:
            w = verdict.witness
            if not (isinstance(w, PrincipalMinorWitness) and bad(w.value) and w.reverify(matrix)):
                problems.append(f"{name} witness does not re-verify")
            elif oracles.brute_force_minor(rows, w.index_set.zero_based(), w.index_set.zero_based()) != w.value:
                problems.append(f"{name} witness value differs from Leibniz")
    plus = report.p0_plus
    if plus.holds:
        if not report.p0.holds or not all(any(m > 0 for m in order(k)) for k in range(1, n + 1)):
            problems.append("P0+ holds but some order has no positive minor")
    elif isinstance(plus.witness, OrderGapWitness):
        if not report.p0.holds or any(m > 0 for m in order(plus.witness.order)):
            problems.append("P0+ order-gap witness is wrong")
    elif report.p0.holds or plus.witness != report.p0.witness:
        problems.append("P0+ failure does not carry the P0 witness")
    problems += check_anti_sign(matrix, report.anti_sign_symmetric)
    return problems


def check_classify_output(inp, output) -> list[str]:
    """classify(A) and principal_minor_sums(A) for one classify-wide input."""
    report, sums = output
    problems = check_class_report(inp.matrix, report)
    if list(sums) != list(report.minor_sums):
        problems.append("principal_minor_sums disagrees with classify")
    if inp.triangular and not report.anti_sign_symmetric.holds:
        problems.append("anti-sign fails on an upper-triangular matrix")
    return problems


def _expected_verdict(report):
    hypothesis, holds = report.hypothesis, report.conclusion.p0_plus.holds
    if isinstance(hypothesis, RefutedAt) or (holds and isinstance(hypothesis, CertifiedForAll)):
        return VerdictKind.CONSISTENT, (), None
    if holds:
        return VerdictKind.UNDETERMINED, (), None
    claims = ["general"] + ["two_by_two"] * (report.matrix.n == 2) + ["anti_sign_symmetric"] * report.anti_sign.holds
    grade = "certified" if isinstance(hypothesis, CertifiedForAll) else "sampling_only"
    return VerdictKind.COUNTEREXAMPLE, tuple(claims), grade


def check_hunt_report(inp, report) -> list[str]:
    """Every part of verify_refutation's report for one hunt candidate."""
    matrix = inp.candidate
    rows = _rows(matrix)
    n = len(rows)
    problems = []
    if report.matrix != matrix:
        return ["report is for another matrix"]
    if _rows(report.squared) != oracles.list_matmul(rows, rows):
        problems.append("A^2 is wrong")
    certs = report.certificates
    if len(report.polynomials) != n or len(certs) != n:
        return problems + ["wrong number of invariants"]
    point = [Fraction(i + 1, 2) for i in range(n)]
    at_point = oracles.faddeev_leverrier(_scaled_square(rows, point))
    for j, (poly, cert) in enumerate(zip(report.polynomials, certs), start=1):
        if cert.polynomial != poly or not cert.verify():
            problems.append(f"p{j} certificate does not verify")
        if _evaluate(poly, point) != at_point[j - 1]:
            problems.append(f"p{j} differs from the order-{j} minor sum of (D*A)^2")
    verdicts = [c.verdict for c in certs]
    hypothesis = report.hypothesis
    if isinstance(hypothesis, RefutedAt):
        d = hypothesis.scaling.diagonal
        if len(d) != n or not all(x > 0 for x in d):
            problems.append("refuting D is not a positive diagonal")
        elif min(oracles.faddeev_leverrier(_scaled_square(rows, d))) > 0:
            problems.append("refuting D leaves (D*A)^2 a Q-matrix")
        if CertificateVerdict.NOT_POSITIVE in verdicts:
            first = certs[verdicts.index(CertificateVerdict.NOT_POSITIVE)]
            if tuple(first.evidence.point) != tuple(d):
                problems.append("refuting D is not the first certificate witness")
    elif isinstance(hypothesis, CertifiedForAll):
        if any(v is not CertificateVerdict.POSITIVE_ON_ORTHANT for v in verdicts):
            problems.append("certified for all without a certificate for every p_j")
    elif isinstance(hypothesis, NoCounterexampleFound):
        if CertificateVerdict.NOT_POSITIVE in verdicts or CertificateVerdict.INCONCLUSIVE not in verdicts:
            problems.append("sampling ran although the certificates settled the hypothesis")
        if hypothesis.budget != inp.config.budget:
            problems.append("sampling budget differs from the configuration")
    else:
        problems.append(f"unknown hypothesis status {hypothesis!r}")
    problems += check_class_report(report.squared, report.conclusion)
    problems += check_anti_sign(matrix, report.anti_sign)
    verdict = report.verdict
    grade = verdict.evidence_grade.value if verdict.evidence_grade else None
    got = (verdict.kind, tuple(c.value for c in verdict.refuted_claims), grade)
    if got != _expected_verdict(report):
        problems.append(f"verdict {got} does not follow from the two sides")
    return problems
