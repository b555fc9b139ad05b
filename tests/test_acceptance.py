"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion; a failing criterion shows up as a failing test.
"""

import random

from qscaling import (
    CertificateVerdict,
    CertifiedForAll,
    Claim,
    CoefficientEvidence,
    EvidenceGrade,
    IndexSet,
    PrincipalMinorWitness,
    QuadraticEvidence,
    RationalMatrix,
    SparsePolynomial,
    VerdictKind,
    WitnessEvidence,
    cauchy_binet_terms,
    certify_positive_on_orthant,
    classify,
    compound,
    determinant,
    mat_mul,
    minor,
    principal_minor_sums,
    sample_refute,
    symbolic_q_invariants,
    verify_refutation,
    zero_rows_outside,
)
from qscaling.cli import main

from helpers import (
    assert_class_lattice,
    certificates_of,
    positive_points,
    random_int_matrix,
    random_rational_matrix,
    random_upper_triangular_positive_diagonal,
)
from legacy_routes import sums_by_compound_trace, sums_by_enumeration
from oracles import faddeev_leverrier

A_REF = RationalMatrix(((1, 2), (-1, 5)))
NILPOTENT = RationalMatrix(((0, 1), (0, 0)))


def _passed(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number}: PASS ({description})")


def test_criterion_1_reference_reproduction(capsys):
    assert determinant(A_REF) == 7

    squared = mat_mul(A_REF, A_REF)
    assert squared == RationalMatrix(((-1, 12), (-6, 23)))
    report = classify(squared)
    assert not report.p0.holds
    witness = report.p0.witness
    assert isinstance(witness, PrincipalMinorWitness)
    assert witness.index_set.members == (1,)

    p1, p2 = symbolic_q_invariants(A_REF)
    assert p1 == SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    assert p2 == SparsePolynomial(2, {(2, 2): 49})
    assert p1.to_text() == "1*d1^2 - 4*d1*d2 + 25*d2^2"
    assert p2.to_text() == "49*d1^2*d2^2"

    cert = certify_positive_on_orthant(p1)
    assert cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT
    evidence = cert.evidence
    assert isinstance(evidence, QuadraticEvidence)
    assert evidence.b_squared == 16
    assert evidence.four_ac == 100
    assert evidence.b_squared < evidence.four_ac
    assert evidence.completion_text() == "(d1 - 2*d2)^2 + 21*d2^2"
    assert evidence.expanded() == p1

    from qscaling import is_anti_sign_symmetric

    assert is_anti_sign_symmetric(A_REF).holds

    refutation = verify_refutation(A_REF)
    assert refutation.verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert refutation.verdict.refuted_claims == (
        Claim.GENERAL,
        Claim.TWO_BY_TWO,
        Claim.ANTI_SIGN_SYMMETRIC,
    )
    assert refutation.verdict.evidence_grade is EvidenceGrade.CERTIFIED
    assert isinstance(refutation.hypothesis, CertifiedForAll)

    assert main(["reproduce"]) == 0
    assert main(["reproduce", "--format", "structured"]) == 0
    capsys.readouterr()

    _passed(1, "reference matrix reproduction, exact")


def test_criterion_2_truncation_flaw_demonstration():
    rng = random.Random(20240801)
    alpha = IndexSet.of(3, 1, 2)
    strict_inequality_seen = 0
    for _ in range(100):
        m = random_int_matrix(rng, 3, bound=9)
        expansion = cauchy_binet_terms(m, alpha)
        squared = mat_mul(m, m)
        assert expansion.total == minor(squared, alpha, alpha)
        truncated = zero_rows_outside(m, alpha)
        truncated_squared = mat_mul(truncated, truncated)
        assert expansion.principal_term == minor(truncated_squared, alpha, alpha)
        if expansion.principal_term != expansion.total:
            strict_inequality_seen += 1
    assert strict_inequality_seen >= 1
    _passed(2, f"100 matrices, {strict_inequality_seen} with dropped cross terms")


def test_criterion_3_compound_multiplicativity():
    rng = random.Random(20240802)
    for n in (2, 3, 4, 5):
        for _ in range(200):
            a = random_rational_matrix(rng, n, num_bound=9, den_bound=3)
            b = random_rational_matrix(rng, n, num_bound=9, den_bound=3)
            ab = mat_mul(a, b)
            for k in range(1, n + 1):
                assert compound(ab, k).entries == mat_mul(
                    compound(a, k).entries, compound(b, k).entries
                )
    _passed(3, "200 pairs at each n in 2..5, all orders, exact")


def test_criterion_4_minor_sum_triple_agreement():
    rng = random.Random(20240803)
    for n in (2, 3, 4, 5):
        for _ in range(100):
            m = random_rational_matrix(rng, n, num_bound=9, den_bound=3)
            direct = sums_by_enumeration(m)
            via_compound = sums_by_compound_trace(m)
            via_recurrence = tuple(faddeev_leverrier([list(row) for row in m.rows]))
            assert direct == via_compound == via_recurrence
            assert principal_minor_sums(m) == direct
    _passed(4, "100 matrices at each n in 2..5, three routes agree exactly")


def test_criterion_5_class_lattice():
    rng = random.Random(20240804)
    for _ in range(500):
        m = random_upper_triangular_positive_diagonal(rng, rng.randint(2, 5))
        report = classify(m)
        assert report.p.holds
        assert_class_lattice(report)
    for _ in range(500):
        m = random_int_matrix(rng, rng.randint(2, 5), bound=9)
        assert_class_lattice(classify(m))
    _passed(5, "500 triangular all-P plus 500 unconstrained, implications intact")


def test_criterion_6_sampling_soundness_and_silence():
    budget = 10_000
    seed = 20240805

    reference, nilpotent = certificates_of(A_REF), certificates_of(NILPOTENT)

    silent_one = sample_refute(A_REF, reference, budget=budget, seed=seed, exponent_range=3)
    silent_two = sample_refute(A_REF, reference, budget=budget, seed=seed, exponent_range=3)
    assert silent_one is None and silent_two is None

    witness_one = sample_refute(NILPOTENT, nilpotent, budget=budget, seed=seed, exponent_range=3)
    witness_two = sample_refute(NILPOTENT, nilpotent, budget=budget, seed=seed, exponent_range=3)
    assert witness_one is not None
    assert witness_one == witness_two
    scaled = witness_one.apply_left(NILPOTENT)
    assert not classify(mat_mul(scaled, scaled)).q.holds
    _passed(6, "silent on the reference matrix, sound witness on the nilpotent one")


def test_criterion_7_certificate_soundness_suite():
    rng = random.Random(20240806)
    corpus = [
        SparsePolynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1}),  # (d1 - d2)^2
        SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}),  # d1^2 + d2^2
    ]
    for _ in range(50):
        corpus.extend(symbolic_q_invariants(random_int_matrix(rng, 2, bound=9)))

    positives = negatives = 0
    for p in corpus:
        cert = certify_positive_on_orthant(p)
        assert cert.verify()
        if cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT:
            positives += 1
            if isinstance(cert.evidence, QuadraticEvidence):
                assert cert.evidence.expanded() == p
            else:
                assert isinstance(cert.evidence, CoefficientEvidence)
                assert all(c > 0 for _, c in p.terms())
            for point in positive_points(20240807, p.n_vars, 100):
                assert p.evaluate(point) > 0
        else:
            assert cert.verdict is CertificateVerdict.NOT_POSITIVE
            negatives += 1
            assert isinstance(cert.evidence, WitnessEvidence)
            assert all(x > 0 for x in cert.evidence.point)
            assert p.evaluate(cert.evidence.point) == cert.evidence.value
            assert cert.evidence.value <= 0
    assert positives >= 1 and negatives >= 1
    _passed(7, f"{len(corpus)} certificates sound ({positives} positive, {negatives} refuted)")
