import dataclasses
import random
import typing
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscaling import (
    COUNTEREXAMPLE_MATRIX,
    Certificate,
    CertificateVerdict,
    CoefficientEvidence,
    DiagonalScaling,
    DimensionGuardError,
    IndexSet,
    QuadraticEvidence,
    RationalMatrix,
    SparsePolynomial,
    WitnessEvidence,
    cauchy_binet_terms,
    certify_positive_on_orthant,
    classify,
    evaluate_hypothesis,
    index_sets,
    mat_mul,
    minor,
    principal_minor_sums,
    sample_refute,
    scaled_square_symbolic,
    symbolic_q_invariants,
    verify_refutation,
    zero_rows_outside,
)
from qscaling import matrices as matrices_module
from qscaling import scaling as scaling_module
from qscaling.matrices import _scaled

from helpers import certificates_of, positive_points, random_int_matrix, random_rational_matrix
from legacy_routes import minor_by_fractions, reduce_direction_by_fractions
from oracles import brute_force_minor

A_REF = RationalMatrix(((1, 2), (-1, 5)))
NILPOTENT = RationalMatrix(((0, 1), (0, 0)))

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


# -- diagonal scalings ---------------------------------------------------------


@pytest.mark.parametrize(
    "diagonal, error",
    [
        ((Fraction(1), Fraction(0)), ValueError),
        ((2, Fraction(-1, 3)), ValueError),
        ((1.5, Fraction(2)), TypeError),
        ((), ValueError),
    ],
    ids=["zero", "negative", "float", "empty"],
)
def test_diagonal_scaling_rejects(diagonal, error):
    with pytest.raises(error):
        DiagonalScaling(diagonal)


def test_diagonal_scaling_validation_and_product():
    with pytest.raises(TypeError):
        DiagonalScaling((True, True))
    scaling = DiagonalScaling((Fraction(2), Fraction(3)))
    assert scaling.apply_left(A_REF) == RationalMatrix(((2, 4), (-3, 15)))


# -- symbolic invariants ---------------------------------------------------------


def test_scaled_square_symbolic_reference_entries():
    s = scaled_square_symbolic(A_REF)
    assert s[0][0].to_text() == "1*d1^2 - 2*d1*d2"
    assert s[0][1].to_text() == "2*d1^2 + 10*d1*d2"
    assert s[1][0].to_text() == "-1*d1*d2 - 5*d2^2"
    assert s[1][1].to_text() == "-2*d1*d2 + 25*d2^2"


def test_symbolic_invariants_reference():
    p1, p2 = symbolic_q_invariants(A_REF)
    assert p1 == SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    assert p2 == SparsePolynomial(2, {(2, 2): 49})


def test_symbolic_invariants_identity():
    p1, p2 = symbolic_q_invariants(RationalMatrix.identity(2))
    assert p1 == SparsePolynomial(2, {(2, 0): 1, (0, 2): 1})
    assert p2 == SparsePolynomial(2, {(2, 2): 1})


def _direct_invariants_at(matrix, diagonal):
    scaled = matrix.scale_rows(diagonal)
    return principal_minor_sums(mat_mul(scaled, scaled))


def test_symbolic_invariants_match_direct_evaluation():
    rng = random.Random(505)
    for _ in range(6):
        m = random_int_matrix(rng, 2, bound=6)
        polys = symbolic_q_invariants(m)
        for _ in range(20):
            d = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2))
            direct = _direct_invariants_at(m, d)
            assert tuple(p.evaluate(d) for p in polys) == direct


def test_symbolic_invariants_match_direct_evaluation_n3_n4():
    rng = random.Random(506)
    for n in (3, 4):
        m = random_int_matrix(rng, n, bound=4)
        polys = symbolic_q_invariants(m)
        for _ in range(3):
            d = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            assert tuple(p.evaluate(d) for p in polys) == _direct_invariants_at(m, d)


def test_symbolic_invariants_homogeneity():
    rng = random.Random(507)
    m = random_int_matrix(rng, 3, bound=5)
    for j, p in enumerate(symbolic_q_invariants(m), start=1):
        assert p.is_homogeneous(2 * j)


def test_top_invariant_factorizes():
    rng = random.Random(508)
    for n in (2, 3):
        m = random_int_matrix(rng, n, bound=5)
        top = symbolic_q_invariants(m)[-1]
        from qscaling import determinant

        expected = SparsePolynomial(n, {tuple([2] * n): determinant(m) ** 2})
        assert top == expected


def test_symbolic_guard():
    with pytest.raises(DimensionGuardError):
        symbolic_q_invariants(RationalMatrix.identity(7))
    polys = symbolic_q_invariants(RationalMatrix.identity(7), max_dim=7)
    assert len(polys) == 7


# -- certificates -----------------------------------------------------------------


def test_certificate_reference_quadratic():
    p1 = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    cert = certify_positive_on_orthant(p1)
    assert cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT
    evidence = cert.evidence
    assert isinstance(evidence, QuadraticEvidence)
    assert (evidence.a, evidence.b, evidence.c) == (1, -4, 25)
    assert evidence.b_squared == 16
    assert evidence.four_ac == 100
    assert evidence.completion_text() == "(d1 - 2*d2)^2 + 21*d2^2"
    assert evidence.expanded() == p1
    assert cert.verify()


def test_certificate_zero_on_diagonal_ray():
    p = SparsePolynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    assert isinstance(cert.evidence, WitnessEvidence)
    assert cert.evidence.point == (1, 1)
    assert cert.evidence.value == 0
    assert cert.verify()


def test_certificate_all_coefficients():
    p = SparsePolynomial(2, {(2, 0): 1, (0, 2): 1})
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT
    assert isinstance(cert.evidence, CoefficientEvidence)
    assert cert.verify()


def test_certificate_zero_polynomial():
    cert = certify_positive_on_orthant(SparsePolynomial.zero(2))
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    assert cert.evidence.value == 0
    assert cert.verify()


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0): 1, (1, 1): -4, (0, 2): 1},   # discriminant fails: 16 >= 4
        {(2, 0): -1, (1, 1): 1, (0, 2): 1},   # negative x^2 coefficient
        {(2, 0): 1, (1, 1): 1, (0, 2): -1},   # negative y^2 coefficient
        {(1, 1): -1, (0, 2): 1},              # a = 0, b < 0
        {(2, 0): 1, (1, 1): -3},              # c = 0, b < 0
        {(2, 0): 3, (1, 1): -12, (0, 2): 12},  # boundary: b^2 = 4ac exactly
        {(2, 0): -1, (1, 1): 2**600, (0, 2): 1},  # a < 0: (1, 0) is lifted by doubling d1 to 2^601
        {(2, 0): 1, (1, 1): 2**600, (0, 2): -1},  # the mirror, c < 0: d2 is doubled to 2^601
    ],
)
def test_failing_quadratics_get_exact_witnesses(terms):
    p = SparsePolynomial(2, terms)
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    witness = cert.evidence
    assert isinstance(witness, WitnessEvidence)
    assert all(x > 0 for x in witness.point)
    assert p.evaluate(witness.point) == witness.value <= 0
    assert cert.verify()


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@PROPERTY
@given(RATIONALS, RATIONALS, RATIONALS)
@example(Fraction(0), Fraction(-1), Fraction(1))  # a = 0
@example(Fraction(1), Fraction(-3), Fraction(0))  # c = 0
@example(Fraction(0), Fraction(-1), Fraction(0))  # a = c = 0
@example(Fraction(3), Fraction(-12), Fraction(12))  # b^2 = 4ac
@example(Fraction(-1), Fraction(2**600), Fraction(1))
@example(Fraction(1), Fraction(2**600), Fraction(-1))
def test_two_variable_quadratics_are_decided_with_the_adjugate_witness(a, b, c):
    p = SparsePolynomial(2, {(2, 0): a, (1, 1): b, (0, 2): c})
    assume(not p.is_zero)
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is not CertificateVerdict.INCONCLUSIVE
    positive = a >= 0 and c >= 0 and (b >= 0 or b * b < 4 * a * c)
    assert (cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT) == positive
    assert cert.verify()
    if a >= 0 and c >= 0 and not positive:
        # adj M >= 0 for M = [[2a, b], [b, 2c]], so the copositivity route fails at M itself when
        # det M = 4ac - b^2 < 0, and adj(M) 1 spans the kernel when it is 0: either way the
        # witness is adj(M) 1, of value (a + c - b)(4ac - b^2) <= 0
        assert cert.evidence.point == reduce_direction_by_fractions((2 * c - b, 2 * a - b))


def test_certificate_positive_kernel_vector_refutes_higher_arity():
    # (d1 - d2)^2 embedded in three variables: not a two-variable quadratic, but a
    # copositive form whose matrix has the positive kernel vector (1, 1, 2)
    p = SparsePolynomial(3, {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 1})
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    assert cert.evidence.point == (1, 1, 2)
    assert cert.evidence.value == 0
    assert cert.verify()


def test_certificate_inconclusive_is_honest():
    # positive definite quadratic form in three variables with a cross term:
    # positive on the orthant, which no implemented certificate records
    p = SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): -1})
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.INCONCLUSIVE
    assert cert.evidence is None
    assert cert.verify()


def test_positive_certificates_hold_at_sample_points():
    rng = random.Random(509)
    corpus = [
        SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}),
        SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25}),
    ]
    for _ in range(10):
        corpus.extend(symbolic_q_invariants(random_int_matrix(rng, 2, bound=5)))
    for p in corpus:
        cert = certify_positive_on_orthant(p)
        assert cert.verify()
        if cert.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT:
            for point in positive_points(42, p.n_vars, 25):
                assert p.evaluate(point) > 0


def test_certificate_serialization():
    p1 = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    doc = certify_positive_on_orthant(p1).to_dict()
    assert doc["verdict"] == "positive_on_orthant"
    assert doc["evidence"]["b_squared"] == "16"
    assert doc["evidence"]["completion_text"] == "(d1 - 2*d2)^2 + 21*d2^2"


def test_tampered_certificate_fails_verification():
    p1 = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    good = certify_positive_on_orthant(p1)
    other = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 3})
    tampered = Certificate(other, good.evidence)
    assert not tampered.verify()


def test_a_certificate_holds_its_polynomial_and_evidence_and_reads_the_verdict_off_the_evidence():
    assert [field.name for field in dataclasses.fields(Certificate)] == ["polynomial", "evidence"]
    for kind in typing.get_args(scaling_module.Evidence):
        # a class constant, not a field: no instance of the kind can state another verdict
        assert isinstance(vars(kind).get("verdict"), CertificateVerdict), kind
        assert "verdict" not in {field.name for field in dataclasses.fields(kind)}
    assert Certificate(SparsePolynomial(2, {(2, 0): -1}), None).verdict is CertificateVerdict.INCONCLUSIVE


@pytest.mark.parametrize("kind", typing.get_args(scaling_module.Evidence), ids=lambda kind: kind.__name__)
def test_every_evidence_kind_states_checks_describes_and_writes_itself(kind):
    # in its own class body, so no kind inherits another kind's check or text
    assert {"verdict", "holds_for", "describe", "to_dict"} <= set(vars(kind))


P1_REF = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
SQUARE = SparsePolynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})  # (d1 - d2)^2
D1, D2 = SparsePolynomial(2, {(1, 0): 1}), SparsePolynomial(2, {(0, 1): 1})
QUADRATIC = certify_positive_on_orthant(P1_REF)  # (d1 - 2*d2)^2 + 21*d2^2
WITNESS = certify_positive_on_orthant(SQUARE)  # value 0 at (1, 1)
COEFFICIENTS = certify_positive_on_orthant(SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}))
# the reference report's p_1 (a square completion) and p_2 = 49*d1^2*d2^2 (nonnegative coefficients)
REFERENCE_P1, REFERENCE_P2 = verify_refutation(COUNTEREXAMPLE_MATRIX).certificates


def _with(cert, polynomial=None, **changes):
    """``cert`` with its evidence's fields changed by ``changes``, and its polynomial by ``polynomial``."""
    return dataclasses.replace(
        cert, polynomial=polynomial or cert.polynomial, evidence=dataclasses.replace(cert.evidence, **changes)
    )


def _completion(*terms):
    return tuple((Fraction(m), form) for m, form in terms)


@pytest.mark.parametrize(
    "cert",
    [
        pytest.param(_with(WITNESS, value=Fraction(-1)), id="witness-changed-value"),
        pytest.param(_with(WITNESS, point=(Fraction(-1), Fraction(-1))), id="witness-coordinate-not-positive"),
        pytest.param(_with(WITNESS, point=(Fraction(1),) * 3), id="witness-wrong-point-length"),
        pytest.param(
            _with(WITNESS, point=(Fraction(1), Fraction(2)), value=Fraction(1)), id="witness-p-positive-there"
        ),
        pytest.param(
            dataclasses.replace(QUADRATIC, evidence=WitnessEvidence((Fraction(1), 1.5), Fraction(0))),
            id="witness-float-coordinate",
        ),
        pytest.param(_with(WITNESS, value=0.0), id="witness-float-value"),
        pytest.param(
            _with(COEFFICIENTS, positive_exponents=(1, 1), positive_coefficient=Fraction(0)),
            id="coefficients-absent-term-listed",
        ),
        pytest.param(_with(COEFFICIENTS, positive_coefficient=Fraction(2)), id="coefficients-wrong-coefficient"),
        pytest.param(
            _with(COEFFICIENTS, SparsePolynomial(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})),
            id="coefficients-negative-coefficient-in-p",
        ),
        pytest.param(_with(QUADRATIC, a=Fraction(2)), id="quadratic-changed-a"),
        pytest.param(
            # -d1^2 + d1*d2 - d2^2, negative on the whole orthant, with the completion certify would build
            _with(
                QUADRATIC,
                SparsePolynomial(2, {(2, 0): -1, (1, 1): 1, (0, 2): -1}),
                a=Fraction(-1),
                b=Fraction(1),
                c=Fraction(-1),
                completion=_completion((-1, D1 - D2 * Fraction(1, 2)), (Fraction(-3, 4), D2)),
            ),
            id="quadratic-a-and-c-negative",
        ),
        pytest.param(_with(QUADRATIC, b=Fraction(-3)), id="quadratic-changed-b"),
        pytest.param(_with(QUADRATIC, c=Fraction(24)), id="quadratic-changed-c"),
        pytest.param(
            # (d1 - d2)^2 expands exactly, but b^2 = 4ac: zero on the ray d1 = d2
            _with(
                QUADRATIC, SQUARE, a=Fraction(1), b=Fraction(-2), c=Fraction(1), completion=_completion((1, D1 - D2))
            ),
            id="quadratic-b-squared-not-below-4ac",
        ),
        pytest.param(
            _with(QUADRATIC, completion=_completion((1, D1 - 2 * D2), (22, D2), (-1, D2))),
            id="quadratic-negative-multiplier",
        ),
        pytest.param(
            _with(QUADRATIC, completion=_completion((1, D1 - 2 * D2), (21, D2), (0, D1))),
            id="quadratic-zero-multiplier",
        ),
        pytest.param(
            _with(QUADRATIC, completion=((1.0, D1 - 2 * D2), (Fraction(21), D2))), id="quadratic-float-multiplier"
        ),
        pytest.param(
            _with(QUADRATIC, completion=_completion((2, D1 - 2 * D2), (21, D2))),
            id="quadratic-completion-does-not-expand-to-p",
        ),
        pytest.param(
            # (d1 - 2*d2 + 1)^2 + 21*d2^2: the same a, b, c, and the completion expands to it
            _with(
                QUADRATIC,
                (D1 - 2 * D2 + 1) * (D1 - 2 * D2 + 1) + 21 * D2 * D2,
                completion=_completion((1, D1 - 2 * D2 + 1), (21, D2)),
            ),
            id="quadratic-p-not-homogeneous",
        ),
        pytest.param(
            _with(QUADRATIC, SparsePolynomial(3, {(2, 0, 0): 1, (1, 1, 0): -4, (0, 2, 0): 25})),
            id="quadratic-p-in-three-variables",
        ),
        pytest.param(
            _with(QUADRATIC, completion=_completion((1, SparsePolynomial(3, {(1, 0, 0): 1, (0, 1, 0): -2})), (21, D2))),
            id="quadratic-completion-form-in-three-variables",
        ),
        pytest.param(
            _with(QUADRATIC, completion=_completion((1, "d1 - 2*d2"), (21, D2))),
            id="quadratic-completion-form-is-a-string",
        ),
        pytest.param(
            # (1/4)*(2*d1 - 4*d2)^2 + 21*d2^2 expands to p_1 too, but it is not the completion certify builds
            _with(REFERENCE_P1, completion=_completion((Fraction(1, 4), 2 * D1 - 4 * D2), (21, D2))),
            id="quadratic-valid-completion-certify-does-not-build",
        ),
        pytest.param(dataclasses.replace(QUADRATIC, evidence="positive"), id="evidence-of-no-kind"),
        pytest.param(
            # states a verdict as the evidence kinds do, but is none of them
            dataclasses.replace(QUADRATIC, evidence=SimpleNamespace(verdict=CertificateVerdict.POSITIVE_ON_ORTHANT)),
            id="evidence-of-no-known-kind-stating-a-verdict",
        ),
        # one rule of shape for every kind: each number an int or a Fraction, each sequence a tuple of the right length
        pytest.param(_with(REFERENCE_P2, positive_coefficient=49.0), id="coefficients-float-coefficient"),
        pytest.param(_with(REFERENCE_P2, positive_exponents=5), id="coefficients-exponents-not-a-tuple"),
        pytest.param(_with(REFERENCE_P2, positive_exponents=None), id="coefficients-no-exponents"),
        pytest.param(_with(REFERENCE_P2, positive_exponents=(2.0, 2.0)), id="coefficients-float-exponent"),
        pytest.param(_with(REFERENCE_P1, a=1.0), id="quadratic-float-a"),
        pytest.param(_with(REFERENCE_P1, completion=5), id="quadratic-completion-not-a-tuple"),
        pytest.param(_with(REFERENCE_P1, completion=((1,),)), id="quadratic-completion-term-not-a-pair"),
        pytest.param(
            dataclasses.replace(REFERENCE_P1, evidence=WitnessEvidence(5, Fraction(0))), id="witness-point-not-a-tuple"
        ),
        pytest.param(dataclasses.replace(REFERENCE_P1, polynomial="x"), id="polynomial-is-a-string"),
        pytest.param(dataclasses.replace(REFERENCE_P1, polynomial=None), id="no-polynomial"),
        pytest.param(dataclasses.replace(REFERENCE_P1, polynomial=5), id="polynomial-is-an-int"),
    ],
)
def test_tampered_evidence_fails_verification_without_raising(cert):
    assert all(good.verify() for good in (QUADRATIC, WITNESS, COEFFICIENTS, REFERENCE_P1, REFERENCE_P2))
    assert cert.verify() is False
    # the verdict is read without raising too: evidence of no known kind states none
    if not isinstance(cert.evidence, scaling_module.Evidence):
        assert cert.verdict is CertificateVerdict.INCONCLUSIVE
        # and written as no evidence, next to that verdict
        assert cert.to_dict() == {"polynomial": cert.polynomial.to_text(), "verdict": "inconclusive", "evidence": None}
    # a known kind checks itself against any polynomial without raising
    elif isinstance(cert.polynomial, SparsePolynomial):
        assert cert.evidence.holds_for(cert.polynomial) is False


def test_a_builder_bug_cannot_confirm_its_own_completion(monkeypatch):
    # verify() rebuilds the completion with the builder certify used, so only the re-expansion catches a bad builder
    build, calls = scaling_module._quadratic_evidence, []

    def doubled(p, form):
        calls.append(p)
        evidence = build(p, form)
        first, (multiplier, d2) = evidence.completion
        return dataclasses.replace(evidence, completion=(first, (2 * multiplier, d2)))

    monkeypatch.setattr(scaling_module, "_quadratic_evidence", doubled)
    cert = certify_positive_on_orthant(P1_REF)
    assert isinstance(cert.evidence, QuadraticEvidence) and calls == [P1_REF]
    assert cert.evidence.completion[1][0] == 42
    assert cert.verify() is False
    # verify() rebuilt the same wrong completion, which the stored one equals; the re-expansion refused it
    assert calls == [P1_REF, P1_REF]
    assert cert.evidence.expanded() != P1_REF


# -- sampling refutation -----------------------------------------------------------


def test_sample_refute_reference_silent():
    assert sample_refute(A_REF, certificates_of(A_REF), budget=500, seed=11) is None


def test_sample_refute_negated_identity_silent():
    minus_identity = RationalMatrix(((-1, 0), (0, -1)))
    assert sample_refute(minus_identity, certificates_of(minus_identity), budget=200, seed=12) is None


def test_sample_refute_finds_nilpotent_witness():
    witness = sample_refute(NILPOTENT, certificates_of(NILPOTENT), budget=10, seed=13)
    assert witness is not None
    squared = mat_mul(witness.apply_left(NILPOTENT), witness.apply_left(NILPOTENT))
    assert not classify(squared).q.holds


def test_drawing_above_three_clears_denominators_once(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return _scaled(matrix)

    m = RationalMatrix(tuple(tuple(Fraction(i - j, 1 + (i + j) % 3) for j in range(4)) for i in range(4)))
    certs = certificates_of(m)
    monkeypatch.setattr(matrices_module, "_scaled", counted)
    monkeypatch.setattr(scaling_module, "_scaled", counted)
    sample_refute(m, certs, budget=5, seed=3)
    assert calls == [m]


def test_sample_refute_deterministic():
    nilpotent, reference = certificates_of(NILPOTENT), certificates_of(A_REF)
    first = sample_refute(NILPOTENT, nilpotent, budget=10, seed=21)
    second = sample_refute(NILPOTENT, nilpotent, budget=10, seed=21)
    assert first == second
    silent = sample_refute(A_REF, reference, budget=300, seed=21)
    assert silent == sample_refute(A_REF, reference, budget=300, seed=21)


def test_sample_refute_validates_budget():
    with pytest.raises(ValueError):
        sample_refute(A_REF, certificates_of(A_REF), budget=0)
    # the certificates of A_REF are conclusive, so sampling never runs: the
    # arguments are still rejected
    with pytest.raises(ValueError, match="budget"):
        evaluate_hypothesis(A_REF, budget=0)
    with pytest.raises(ValueError, match="exponent_range"):
        evaluate_hypothesis(A_REF, exponent_range=-1)


# -- product-minor expansion ---------------------------------------------------------


def test_cauchy_binet_reference_full_size():
    expansion = cauchy_binet_terms(A_REF, IndexSet.of(2, 1, 2))
    assert len(expansion.terms) == 1
    assert expansion.total == 49
    assert expansion.principal_term == 49
    squared = mat_mul(A_REF, A_REF)
    from qscaling import determinant

    assert expansion.total == determinant(squared)


def test_cauchy_binet_on_reference_3x3():
    m = RationalMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
    alpha = IndexSet.of(3, 1, 2)
    expansion = cauchy_binet_terms(m, alpha)
    rows = [list(row) for row in m.rows]
    betas = [term[0] for term in expansion.terms]
    assert [b.members for b in betas] == [(1, 2), (1, 3), (2, 3)]
    for beta, value in expansion.terms:
        expected = brute_force_minor(rows, alpha.zero_based(), beta.zero_based()) * brute_force_minor(
            rows, beta.zero_based(), alpha.zero_based()
        )
        assert value == expected
    assert expansion.total == minor(mat_mul(m, m), alpha, alpha)


def test_cauchy_binet_random_identity_and_truncation():
    rng = random.Random(510)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = random_rational_matrix(rng, n, num_bound=6, den_bound=2)
        k = rng.randint(1, n)
        members = tuple(sorted(rng.sample(range(1, n + 1), k)))
        alpha = IndexSet(n, members)
        expansion = cauchy_binet_terms(m, alpha)
        squared = mat_mul(m, m)
        assert expansion.total == minor(squared, alpha, alpha)
        truncated = zero_rows_outside(m, alpha)
        truncated_squared = mat_mul(truncated, truncated)
        assert expansion.principal_term == minor(m, alpha, alpha) ** 2
        assert expansion.principal_term == minor(truncated_squared, alpha, alpha)


def test_cauchy_binet_terms_equal_products_of_fraction_minors():
    rng = random.Random(512)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_rational_matrix(rng, n, num_bound=9, den_bound=5)
        k = rng.randint(0, n)
        alpha = IndexSet(n, tuple(sorted(rng.sample(range(1, n + 1), k))))
        expansion = cauchy_binet_terms(m, alpha)
        rows = alpha.zero_based()
        expected = [
            (beta, minor_by_fractions(m, rows, beta.zero_based()) * minor_by_fractions(m, beta.zero_based(), rows))
            for beta in index_sets(n, k)
        ]
        assert list(expansion.terms) == expected
        # the empty alpha has one beta, the empty set, and the order-0 minors are 1
        empty = IndexSet(n, ())
        assert cauchy_binet_terms(m, empty).terms == ((empty, 1),)


def test_cauchy_binet_terms_clear_denominators_once(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return _scaled(matrix)

    # both names, so a clear through matrices.minor is counted too
    monkeypatch.setattr(matrices_module, "_scaled", counting)
    monkeypatch.setattr(scaling_module, "_scaled", counting)
    m = random_rational_matrix(random.Random(513), 6, num_bound=9, den_bound=5)
    alpha = IndexSet.of(6, 2, 3, 5)
    expansion = cauchy_binet_terms(m, alpha)
    assert calls == [m]
    assert len(expansion.terms) == 20


def test_cauchy_binet_generic_shows_dropped_terms():
    rng = random.Random(511)
    saw_difference = False
    for _ in range(40):
        m = random_int_matrix(rng, 3, bound=5)
        expansion = cauchy_binet_terms(m, IndexSet.of(3, 1, 2))
        if expansion.total != expansion.principal_term:
            saw_difference = True
            break
    assert saw_difference
