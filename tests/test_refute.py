import math
import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import (
    CertificateVerdict,
    CertifiedForAll,
    Claim,
    DiagonalScaling,
    DimensionGuardError,
    EvidenceGrade,
    HuntConfig,
    NoCounterexampleFound,
    RationalMatrix,
    RefutationReport,
    RefutationVerdict,
    RefutedAt,
    VerdictKind,
    classify,
    evaluate_hypothesis,
    generate_candidates,
    hunt,
    mat_mul,
    symbolic_q_invariants,
    verify_refutation,
)
from qscaling import matrices, matrix_classes, refute
from qscaling.matrices import _scaled
from qscaling.refute import HUNT_MODES
from qscaling.scaling import _uniform_draws

from helpers import random_int_matrix
from legacy_routes import (
    derive_verdict,
    draw_rows_by_randint,
    generate_candidates_by_matrices,
    p0_plus_and_q_by_classify,
    verify_refutation_by_layers,
)
from oracles import brute_force_minor, list_matmul

A_REF = RationalMatrix(((1, 2), (-1, 5)))
NILPOTENT = RationalMatrix(((0, 1), (0, 0)))

# frozen after implementing the generator: with seed 52, the dim-2
# range-5 "all" stream emits the reference matrix at index 127, and with
# seed 16 the first dim-2 range-1 candidate is the zero matrix
SEED_EMITTING_REFERENCE = 52
INDEX_OF_REFERENCE = 127
SEED_EMITTING_ZERO_FIRST = 16


def test_verify_refutation_reference():
    report = verify_refutation(A_REF, budget=100, seed=0)
    assert isinstance(report.hypothesis, CertifiedForAll)
    assert not report.conclusion.p0.holds
    assert report.anti_sign.holds
    assert report.verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert report.verdict.refuted_claims == (Claim.GENERAL, Claim.TWO_BY_TWO, Claim.ANTI_SIGN_SYMMETRIC)
    assert report.verdict.evidence_grade is EvidenceGrade.CERTIFIED
    assert report.polynomials == tuple(symbolic_q_invariants(A_REF))


def test_verify_refutation_identity_consistent():
    report = verify_refutation(RationalMatrix.identity(2), budget=50, seed=0)
    assert isinstance(report.hypothesis, CertifiedForAll)
    assert report.conclusion.p0_plus.holds
    assert report.verdict.kind is VerdictKind.CONSISTENT


def test_verify_refutation_nilpotent_refuted_hypothesis():
    report = verify_refutation(NILPOTENT, budget=50, seed=0)
    assert isinstance(report.hypothesis, RefutedAt)
    assert report.hypothesis.scaling.diagonal == (1, 1)
    assert report.verdict.kind is VerdictKind.CONSISTENT
    scaled = report.hypothesis.scaling.apply_left(NILPOTENT)
    assert not classify(mat_mul(scaled, scaled)).q.holds
    assert report.polynomials == tuple(symbolic_q_invariants(NILPOTENT))


def test_evaluate_hypothesis_max_dim_raises_both_bounds():
    # max_dim raises the symbolic bound (6 by default) as well as sampling's
    identity = RationalMatrix.identity(7)
    with pytest.raises(DimensionGuardError):
        evaluate_hypothesis(identity)
    status = evaluate_hypothesis(identity, max_dim=7)
    assert isinstance(status, CertifiedForAll)
    assert [c.polynomial for c in status.certificates] == symbolic_q_invariants(identity, max_dim=7)


def test_verify_refutation_max_dim_raises_every_bound(monkeypatch):
    # with the enumeration bound lowered to 2, a 3x3 report needs max_dim to
    # reach classify(A^2) and the anti-sign scan as well as the hypothesis
    matrix = RationalMatrix(((3, 0, 3), (-2, 4, 3), (4, -1, 2)))
    cfg = HuntConfig(dimension=3, entry_range=3, count=4, budget=50)
    expected = verify_refutation(matrix, budget=50), hunt(cfg)
    monkeypatch.setattr("qscaling.matrices.DEFAULT_ENUMERATION_GUARD", 2)
    with pytest.raises(DimensionGuardError):
        verify_refutation(matrix, budget=50)
    assert (verify_refutation(matrix, budget=50, max_dim=3), hunt(cfg, max_dim=3)) == expected


# q = 2, and every entry of A^2 is 1/2: A^2 has its own q of 2, below q^2 = 4
HALVES_ENTRIES = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
HALVES = RationalMatrix(HALVES_ENTRIES)
# q = 6, and A^2 has its own q of 36; p_1 is INCONCLUSIVE, so the hypothesis reaches sample_refute
SAMPLED_3X3 = RationalMatrix(((Fraction(-2, 3), 0, 2), (Fraction(4, 3), Fraction(-1, 2), -1), (Fraction(-1, 2), 0, -2)))

view_entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 4)))


@st.composite
def rational_matrices(draw):
    """n = 1..4 with q > 1: one entry is an odd number over 2."""
    n = draw(st.integers(1, 4))
    rows = [[draw(view_entries) for _ in range(n)] for _ in range(n)]
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = Fraction(2 * draw(st.integers(-4, 3)) + 1, 2)
    return RationalMatrix(tuple(map(tuple, rows)))


def test_the_view_examples_are_what_they_say():
    assert _scaled(HALVES)[0] == 2 and _scaled(mat_mul(HALVES, HALVES))[0] == 2
    assert _scaled(SAMPLED_3X3)[0] == 6 and _scaled(mat_mul(SAMPLED_3X3, SAMPLED_3X3))[0] == 36
    report = verify_refutation(SAMPLED_3X3, budget=40, seed=3)
    assert isinstance(report.hypothesis, NoCounterexampleFound)
    assert report.certificates[0].verdict is CertificateVerdict.INCONCLUSIVE


@example(HALVES)
@example(SAMPLED_3X3)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rational_matrices())
def test_the_integer_view_gives_the_report_of_the_layer_by_layer_route(matrix):
    report = verify_refutation(matrix, budget=40, seed=3)
    expected = verify_refutation_by_layers(matrix, budget=40, seed=3)
    for field in fields(RefutationReport):
        assert getattr(report, field.name) == getattr(expected, field.name), field.name
    assert report.to_dict() == expected.to_dict()
    assert all(type(x) is Fraction for row in report.squared.rows for x in row)


def test_at_n_7_the_symbolic_bound_is_raised_first(monkeypatch):
    # with the enumeration bound lowered to 2, a 7x7 exceeds both; the symbolic one is checked first
    identity = RationalMatrix.identity(7)
    monkeypatch.setattr("qscaling.matrices.DEFAULT_ENUMERATION_GUARD", 2)
    for route in (verify_refutation, verify_refutation_by_layers):
        with pytest.raises(DimensionGuardError, match="symbolic-expansion bound 6"):
            route(identity, budget=10)
        with pytest.raises(ValueError, match="budget"):
            route(identity, budget=0)
    assert verify_refutation(identity, budget=10, max_dim=7) == verify_refutation_by_layers(
        identity, budget=10, max_dim=7
    )


def test_a_decided_candidate_clears_its_denominators_once(monkeypatch):
    # a fractional A is cleared by one lcm, when it is built; the report then reads the
    # integers A stores, and builds the Fraction rows of neither A nor A^2 until they are read
    cleared, read = [], []
    monkeypatch.setattr(matrices, "lcm", lambda *ds: cleared.append(ds) or math.lcm(*ds))
    rows = RationalMatrix.rows
    monkeypatch.setattr(RationalMatrix, "rows", property(lambda m: read.append(m) or rows.fget(m)))
    q_42 = ((Fraction(1, 2), -3, 0), (Fraction(2, 3), 1, Fraction(-5, 7)), (4, Fraction(1, 3), 2))
    for entries in (HALVES_ENTRIES, q_42, ((Fraction(1, 2), 0, 0), (0, Fraction(2, 3), 0), (0, 0, 3)), ((1, 2), (-1, 5))):
        cleared.clear()
        matrix = RationalMatrix(entries)
        fractional = any(type(x) is Fraction for row in entries for x in row)
        assert len(cleared) == fractional
        report = verify_refutation(matrix, budget=40, seed=3)
        assert isinstance(report.hypothesis, (CertifiedForAll, RefutedAt))
        assert not isinstance(report.hypothesis, RefutedAt) or any(
            cert.verdict is CertificateVerdict.NOT_POSITIVE for cert in report.certificates
        )
        assert len(cleared) == fractional and read == []
        assert [list(row) for row in report.squared.rows] == list_matmul(entries, entries)
        assert read == [report.squared]
        read.clear()


def test_a_report_holds_only_its_parts():
    # the verdict is read off them, so no report can state a verdict its parts do not give
    assert [field.name for field in fields(RefutationReport)] == [
        "matrix",
        "squared",
        "hypothesis",
        "conclusion",
        "anti_sign",
    ]


#: (A^2 is P0+, A is anti-sign symmetric, n): a matrix whose two sides are those
SIDES = {
    (True, True, 2): ((1, 0), (0, 1)),
    (True, False, 2): ((0, 1), (1, 0)),
    (False, True, 2): ((1, 2), (-1, 5)),  # P0 fails at {1}
    (False, False, 2): ((1, 1), (1, 1)),  # no positive minor of order 2
    (True, True, 3): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    (True, False, 3): ((0, 0, 2), (0, 1, 0), (1, 0, 0)),
    (False, True, 3): ((1, 2, 0), (-1, 5, 0), (0, 0, 1)),  # P0 fails at {1}
    (False, False, 3): ((1, 1, 0), (1, 1, 0), (0, 0, 1)),  # no positive minor of order 3
}
HYPOTHESES = {
    "refuted": lambda certs, n: RefutedAt(DiagonalScaling((1,) * n), certs),
    "certified": lambda certs, n: CertifiedForAll(certs),
    "sampled": lambda certs, n: NoCounterexampleFound(100, certs),
}
CONSISTENT, UNDETERMINED, COUNTEREXAMPLE = VerdictKind.CONSISTENT, VerdictKind.UNDETERMINED, VerdictKind.COUNTEREXAMPLE
GENERAL, TWO_BY_TWO, ANTI = Claim.GENERAL, Claim.TWO_BY_TWO, Claim.ANTI_SIGN_SYMMETRIC
CERTIFIED, SAMPLING_ONLY = EvidenceGrade.CERTIFIED, EvidenceGrade.SAMPLING_ONLY


@pytest.mark.parametrize(
    "hypothesis, p0_plus, anti_sign, n, kind, claims, grade",
    [
        ("refuted", True, True, 2, CONSISTENT, (), None),
        ("refuted", True, True, 3, CONSISTENT, (), None),
        ("refuted", True, False, 2, CONSISTENT, (), None),
        ("refuted", True, False, 3, CONSISTENT, (), None),
        ("refuted", False, True, 2, CONSISTENT, (), None),
        ("refuted", False, True, 3, CONSISTENT, (), None),
        ("refuted", False, False, 2, CONSISTENT, (), None),
        ("refuted", False, False, 3, CONSISTENT, (), None),
        ("certified", True, True, 2, CONSISTENT, (), None),
        ("certified", True, True, 3, CONSISTENT, (), None),
        ("certified", True, False, 2, CONSISTENT, (), None),
        ("certified", True, False, 3, CONSISTENT, (), None),
        ("certified", False, True, 2, COUNTEREXAMPLE, (GENERAL, TWO_BY_TWO, ANTI), CERTIFIED),
        ("certified", False, True, 3, COUNTEREXAMPLE, (GENERAL, ANTI), CERTIFIED),
        ("certified", False, False, 2, COUNTEREXAMPLE, (GENERAL, TWO_BY_TWO), CERTIFIED),
        ("certified", False, False, 3, COUNTEREXAMPLE, (GENERAL,), CERTIFIED),
        ("sampled", True, True, 2, UNDETERMINED, (), None),
        ("sampled", True, True, 3, UNDETERMINED, (), None),
        ("sampled", True, False, 2, UNDETERMINED, (), None),
        ("sampled", True, False, 3, UNDETERMINED, (), None),
        ("sampled", False, True, 2, COUNTEREXAMPLE, (GENERAL, TWO_BY_TWO, ANTI), SAMPLING_ONLY),
        ("sampled", False, True, 3, COUNTEREXAMPLE, (GENERAL, ANTI), SAMPLING_ONLY),
        ("sampled", False, False, 2, COUNTEREXAMPLE, (GENERAL, TWO_BY_TWO), SAMPLING_ONLY),
        ("sampled", False, False, 3, COUNTEREXAMPLE, (GENERAL,), SAMPLING_ONLY),
    ],
)
def test_the_verdict_is_read_off_the_two_sides(hypothesis, p0_plus, anti_sign, n, kind, claims, grade):
    real = verify_refutation(RationalMatrix(SIDES[p0_plus, anti_sign, n]), budget=50)
    assert (real.conclusion.p0_plus.holds, real.anti_sign.holds, real.matrix.n) == (p0_plus, anti_sign, n)
    report = replace(real, hypothesis=HYPOTHESES[hypothesis](real.certificates, n))
    assert report.verdict == RefutationVerdict(kind, claims, grade)
    assert report.to_dict()["verdict"] == report.verdict.to_dict()


@example(A_REF)
@example(NILPOTENT)
@example(SAMPLED_3X3)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rational_matrices())
def test_a_report_reads_its_verdicts_by_the_rules_it_once_stored_them_by(matrix):
    report = verify_refutation(matrix, budget=40, seed=3)
    conclusion = report.conclusion
    assert (conclusion.p0_plus, conclusion.q) == p0_plus_and_q_by_classify(conclusion)
    for make in HYPOTHESES.values():
        forged = replace(report, hypothesis=make(report.certificates, matrix.n))
        assert forged.verdict == derive_verdict(forged.hypothesis, conclusion, matrix.n, report.anti_sign)
    assert report.verdict == derive_verdict(report.hypothesis, conclusion, matrix.n, report.anti_sign)


def test_refuted_hypotheses_reverify():
    rng = random.Random(32)
    checked = 0
    for _ in range(40):
        m = random_int_matrix(rng, 2, bound=4)
        report = verify_refutation(m, budget=100, seed=6)
        if isinstance(report.hypothesis, RefutedAt):
            checked += 1
            scaled = report.hypothesis.scaling.apply_left(m)
            assert not classify(mat_mul(scaled, scaled)).q.holds
    assert checked > 0


def test_counterexample_never_reported_when_conclusion_holds():
    rng = random.Random(33)
    for _ in range(40):
        m = random_int_matrix(rng, 2, bound=4)
        report = verify_refutation(m, budget=100, seed=7)
        if report.conclusion.p0_plus.holds:
            assert report.verdict.kind is not VerdictKind.COUNTEREXAMPLE


def test_hunt_finds_the_reference_matrix():
    cfg = HuntConfig(
        dimension=2,
        entry_range=5,
        count=INDEX_OF_REFERENCE + 1,
        budget=50,
        seed=SEED_EMITTING_REFERENCE,
    )
    candidates = list(generate_candidates(cfg))
    assert candidates[INDEX_OF_REFERENCE] == A_REF
    reports = hunt(cfg)
    matching = [r for r in reports if r.matrix == A_REF]
    assert len(matching) == 1
    verdict = matching[0].verdict
    assert verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert verdict.refuted_claims == (Claim.GENERAL, Claim.TWO_BY_TWO, Claim.ANTI_SIGN_SYMMETRIC)


def test_hunt_deterministic():
    cfg = HuntConfig(dimension=2, entry_range=5, count=60, budget=50, seed=9)
    assert hunt(cfg) == hunt(cfg)


def test_hunt_zero_matrix_candidate_is_consistent():
    cfg = HuntConfig(dimension=2, entry_range=1, count=1, budget=10, seed=SEED_EMITTING_ZERO_FIRST)
    first = next(generate_candidates(cfg))
    assert all(all(e == 0 for e in row) for row in first.rows)
    assert hunt(cfg) == []


def test_hunt_spd_mode_is_quiet():
    cfg = HuntConfig(dimension=2, entry_range=3, count=40, budget=20, seed=7, mode="spd")
    for candidate in generate_candidates(cfg):
        assert candidate == candidate.transpose()
        assert classify(mat_mul(candidate, candidate)).p0_plus.holds
    assert hunt(cfg) == []


def test_hunt_nonsingular_mode():
    cfg = HuntConfig(dimension=2, entry_range=1, count=25, budget=10, seed=3, mode="nonsingular")
    from qscaling import determinant

    for candidate in generate_candidates(cfg):
        assert determinant(candidate) != 0


# the first candidate is the zero matrix
@example(mode="all", dimension=2, entry_range=1, count=1, seed=SEED_EMITTING_ZERO_FIRST)
# 14 singular draws are skipped on the way to the 20th candidate
@example(mode="nonsingular", dimension=2, entry_range=1, count=20, seed=0)
@example(mode="spd", dimension=5, entry_range=5, count=6, seed=1)
@settings(derandomize=True, database=None, deadline=None)
@given(
    mode=st.sampled_from(HUNT_MODES),
    dimension=st.integers(1, 5),
    entry_range=st.integers(1, 6),
    count=st.integers(1, 6),
    seed=st.integers(),
)
def test_candidate_stream_equals_the_matrix_oracle(mode, dimension, entry_range, count, seed):
    cfg = HuntConfig(dimension=dimension, entry_range=entry_range, count=count, seed=seed, mode=mode)
    assert list(generate_candidates(cfg)) == list(generate_candidates_by_matrices(cfg))


#: the first candidate of each mode at seed 2105, written out. The entry widths 11, 5 and 13 are
#: not 2^k - 1, so some getrandbits draws are rejected, and the nonsingular one is the third
#: draw of its stream, after two singular ones
@pytest.mark.parametrize(
    "cfg, rows",
    [
        pytest.param(
            HuntConfig(dimension=3, entry_range=5, count=1, seed=2105),
            ((-3, 4, 1), (-5, 1, 5), (2, -4, -4)),
            id="all",
        ),
        pytest.param(
            HuntConfig(dimension=2, entry_range=2, count=1, seed=2105, mode="nonsingular"),
            ((1, -2), (2, -2)),
            id="nonsingular",
        ),
        pytest.param(
            HuntConfig(dimension=3, entry_range=6, count=1, seed=2105, mode="spd"),
            ((42, 18, -30), (18, 62, -32), (-30, -32, 38)),
            id="spd",
        ),
    ],
)
def test_first_candidates_are_pinned(cfg, rows):
    assert list(generate_candidates(cfg)) == [RationalMatrix(rows)]


# width 1 still takes one bit per draw; widths 2^k - 1, 2^k and 2^k + 1; a width past 64 bits
@example(seed=0, n=3, bound=0)
@example(seed=1, n=2, bound=3)
@example(seed=2, n=2, bound=2**40)
@example(seed=3, n=5, bound=2**70 + 5)
@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(), n=st.integers(1, 5), bound=st.one_of(st.integers(0, 9), st.integers(0, 2**80)))
def test_rows_are_drawn_as_randint_draws_them(seed, n, bound):
    # randint's rule on CPython 3.10 to 3.13; the pinned candidates above hold the stream on any version
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert refute._draw_rows(_uniform_draws(ours, -bound, bound), n) == draw_rows_by_randint(theirs, n, bound)
        assert ours.getstate() == theirs.getstate()


def _non_consistent_reports(cfg: HuntConfig) -> list[RefutationReport]:
    """hunt's contract: verify_refutation per candidate with its seed, non-CONSISTENT reports kept."""
    reports = (
        verify_refutation(
            candidate, budget=cfg.budget, seed=cfg.seed * 1_000_003 + index, exponent_range=cfg.exponent_range
        )
        for index, candidate in enumerate(generate_candidates(cfg))
    )
    return [r for r in reports if r.verdict.kind is not VerdictKind.CONSISTENT]


# 2 refuted hypotheses among 4 candidates, one reported as undetermined
@example(HuntConfig(dimension=3, entry_range=3, count=4, budget=50))
# 31 refuted hypotheses and 5 counterexamples, the reference matrix the last of 128 candidates
@example(HuntConfig(dimension=2, entry_range=5, count=INDEX_OF_REFERENCE + 1, budget=5, seed=SEED_EMITTING_REFERENCE))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.builds(
        HuntConfig,
        dimension=st.integers(1, 4),
        entry_range=st.integers(1, 4),
        count=st.integers(1, 6),
        budget=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        mode=st.sampled_from(HUNT_MODES),
    )
)
def test_hunt_keeps_the_non_consistent_reports_of_verify_refutation(cfg):
    assert hunt(cfg) == _non_consistent_reports(cfg)


def _spy_on_layers(monkeypatch, *names):
    """The arguments each named layer of ``refute`` is called with, in call order."""
    seen = {name: [] for name in names}
    for name, calls in seen.items():
        layer = getattr(refute, name)
        monkeypatch.setattr(refute, name, lambda m, *rest, layer=layer, calls=calls: calls.append(m) or layer(m, *rest))
    return seen


def test_hunt_reads_the_conclusion_only_of_a_candidate_whose_hypothesis_stands(monkeypatch):
    # a refuted hypothesis makes the implication vacuous, so hunt skips A^2; a certified one
    # with a P0+ square makes it hold, so hunt skips classify(A^2) and the anti-sign scan
    cfg = HuntConfig(dimension=3, entry_range=5, count=30, budget=50, seed=1)
    candidates = list(generate_candidates(cfg))
    standing = [
        c
        for index, c in enumerate(candidates)
        if not isinstance(evaluate_hypothesis(c, budget=cfg.budget, seed=cfg.seed * 1_000_003 + index), RefutedAt)
    ]
    assert 0 < len(standing) < len(candidates)
    seen = _spy_on_layers(monkeypatch, "mat_mul", "classify", "is_anti_sign_symmetric")
    reports = hunt(cfg)
    assert 0 < len(reports) < len(standing)
    assert seen["mat_mul"] == standing
    assert seen["is_anti_sign_symmetric"] == [r.matrix for r in reports]
    assert seen["classify"] == [r.squared for r in reports]


def test_hunt_classifies_no_spd_candidate(monkeypatch):
    # B^T B + I is certified for all D and its square is positive definite, so every candidate is skipped
    cfg = HuntConfig(dimension=5, entry_range=5, count=6, seed=1, mode="spd")
    seen = _spy_on_layers(monkeypatch, "mat_mul", "classify", "is_anti_sign_symmetric")
    assert hunt(cfg) == []
    assert seen == {"mat_mul": list(generate_candidates(cfg)), "classify": [], "is_anti_sign_symmetric": []}


def test_hunt_reports_a_certified_candidate_whose_square_is_not_p0_plus_in_full():
    cfg = HuntConfig(dimension=2, entry_range=5, count=INDEX_OF_REFERENCE + 1, budget=5, seed=SEED_EMITTING_REFERENCE)
    last = hunt(cfg)[-1]
    assert last == verify_refutation(
        A_REF, budget=5, seed=SEED_EMITTING_REFERENCE * 1_000_003 + INDEX_OF_REFERENCE
    )
    assert isinstance(last.hypothesis, CertifiedForAll)
    assert not last.conclusion.p0_plus.holds
    assert last.verdict == RefutationVerdict(
        VerdictKind.COUNTEREXAMPLE,
        (Claim.GENERAL, Claim.TWO_BY_TWO, Claim.ANTI_SIGN_SYMMETRIC),
        EvidenceGrade.CERTIFIED,
    )


@st.composite
def symmetric_matrices(draw):
    """n = 1..7 with A = A^T, so A^2 is positive semidefinite and P0+ exactly when A is nonsingular."""
    n = draw(st.integers(1, 7))
    upper = {(i, j): draw(view_entries) for i in range(n) for j in range(i, n)}
    return RationalMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n)))


@example(A_REF)
@example(RationalMatrix.identity(7))
@example(RationalMatrix(((0, 0), (0, 0))))
# q = 2 at n = 7: A^2 is upper triangular with diagonal 1/4, so P0+
@example(RationalMatrix(tuple(tuple(Fraction(1 + (i == j), 2) * (i <= j) for j in range(7)) for i in range(7))))
# q = 2 at n = 7: A is symmetric of rank 4, so A^2 is P0 with no positive minor of order 5
@example(RationalMatrix(tuple(tuple(Fraction((i == j) + (i + j == 6 and i != j), 2) for j in range(7)) for i in range(7))))
# A^2 has a zero diagonal entry and is P0+ but not P
@example(RationalMatrix(((1, 0, Fraction(-1, 2)), (0, 1, Fraction(-1, 2)), (Fraction(-1, 2), 2, 2))))
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.one_of(rational_matrices(), symmetric_matrices()))
def test_the_p0_plus_test_of_hunt_agrees_with_classify(matrix):
    squared = mat_mul(matrix, matrix)
    assert matrix_classes._p0_plus_holds(squared) is classify(squared).p0_plus.holds


class _Drew(Exception):
    pass


def test_hunt_refuses_an_oversized_dimension_before_the_first_draw(monkeypatch):
    def no_draw(seed):
        raise _Drew

    monkeypatch.setattr("qscaling.refute.random.Random", no_draw)
    cfg = HuntConfig(dimension=7, entry_range=1, count=1, mode="spd")
    with pytest.raises(DimensionGuardError):
        hunt(cfg)
    with pytest.raises(_Drew):
        hunt(cfg, max_dim=7)


def test_hunt_refuses_a_dimension_over_the_enumeration_bound_before_the_first_draw(monkeypatch):
    # a refuted candidate never reaches classify's check, so hunt makes it up front
    def no_draw(seed):
        raise _Drew

    monkeypatch.setattr("qscaling.refute.random.Random", no_draw)
    monkeypatch.setattr("qscaling.matrices.DEFAULT_ENUMERATION_GUARD", 2)
    cfg = HuntConfig(dimension=3, entry_range=1, count=1)
    with pytest.raises(DimensionGuardError, match="enumeration"):
        hunt(cfg)
    with pytest.raises(_Drew):
        hunt(cfg, max_dim=3)


def test_hunt_config_validation():
    with pytest.raises(ValueError):
        HuntConfig(dimension=2, entry_range=5, count=0)
    with pytest.raises(ValueError):
        HuntConfig(dimension=0, entry_range=5, count=1)
    with pytest.raises(ValueError):
        HuntConfig(dimension=2, entry_range=0, count=1)
    with pytest.raises(ValueError):
        HuntConfig(dimension=2, entry_range=5, count=1, budget=0)
    with pytest.raises(ValueError):
        HuntConfig(dimension=2, entry_range=5, count=1, mode="weird")


def test_report_serialization_shape():
    doc = verify_refutation(A_REF, budget=50, seed=0).to_dict()
    assert doc["matrix"]["rows"] == [["1", "2"], ["-1", "5"]]
    assert doc["squared"]["rows"] == [["-1", "12"], ["-6", "23"]]
    assert doc["invariants"][0]["polynomial"] == "1*d1^2 - 4*d1*d2 + 25*d2^2"
    assert doc["hypothesis"] == {"status": "certified_for_all"}
    assert doc["verdict"]["kind"] == "counterexample"
    assert doc["verdict"]["refuted_claims"] == ["general", "two_by_two", "anti_sign_symmetric"]
    assert doc["two_by_two"] is True


def test_sampling_fallback_reaches_no_counterexample():
    # a positive diagonal 3x3 matrix whose invariants are positive but whose
    # p_2 has cross terms: certificates may pass or not, but whatever path is
    # taken the hypothesis must not be refuted and the verdict stays sane
    m = RationalMatrix(((2, 1, 0), (0, 2, 1), (1, 0, 2)))
    report = verify_refutation(m, budget=150, seed=4)
    assert isinstance(report.hypothesis, (CertifiedForAll, NoCounterexampleFound))
    assert report.verdict.kind in (VerdictKind.CONSISTENT, VerdictKind.UNDETERMINED)
    assert report.polynomials == tuple(symbolic_q_invariants(m))


#: candidate 318 of CANDIDATE_318_STREAM, which hunt reports as a sampling-only counterexample
#: although p_2 is negative at D_318 (ROADMAP item 10)
CANDIDATE_318_STREAM = HuntConfig(dimension=4, entry_range=4, count=800, seed=12, mode="nonsingular")
CANDIDATE_318 = RationalMatrix(((-4, 3, 0, 2), (-4, -4, -2, -1), (4, 3, -3, 1), (1, -4, 1, 2)))
D_318 = (3675, 2050, 8036, 1)


def test_candidate_318_is_in_its_stream_and_p2_is_negative_there():
    assert next(islice(generate_candidates(CANDIDATE_318_STREAM), 318, None)) == CANDIDATE_318
    assert symbolic_q_invariants(CANDIDATE_318)[1].evaluate(D_318) == -8472543323080196


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
def test_candidate_318_is_not_reported_as_a_counterexample():
    report = verify_refutation(CANDIDATE_318, budget=10_000, seed=CANDIDATE_318_STREAM.seed * 1_000_003 + 318)
    assert report.verdict.kind is not VerdictKind.COUNTEREXAMPLE


#: candidate 327 of CANDIDATE_327_STREAM, which reads as a sampling-only counterexample at budget 2000
#: although p_2 is negative at D_327 (ROADMAP item 10); sampling refutes it at budget 10 000
CANDIDATE_327_STREAM = HuntConfig(dimension=4, entry_range=3, count=600, seed=0)
CANDIDATE_327 = RationalMatrix(((-1, 0, -3, -2), (-3, -2, 3, 1), (0, 2, -2, 0), (-1, 3, 0, 3)))
D_327 = (129, 73, 1, 9417)


def test_candidate_327_is_in_its_stream_and_p2_is_negative_there():
    assert next(islice(generate_candidates(CANDIDATE_327_STREAM), 327, None)) == CANDIDATE_327
    assert symbolic_q_invariants(CANDIDATE_327)[1].evaluate(D_327) == -3239830920344


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
def test_candidate_327_is_not_reported_as_a_counterexample_at_budget_2000():
    report = verify_refutation(CANDIDATE_327, budget=2000, seed=327)
    assert report.verdict.kind is not VerdictKind.COUNTEREXAMPLE


# a certified counterexample with entries in {-1, 0, 1}; at n = 2 none exists (below)
TERNARY_4X4 = RationalMatrix(((1, 1, 0, 1), (1, 1, -1, 1), (1, -1, 1, 0), (0, 1, -1, 1)))


def test_certified_ternary_4x4_counterexample():
    report = verify_refutation(TERNARY_4X4, budget=500)
    assert isinstance(report.hypothesis, CertifiedForAll)
    assert [cert.verdict for cert in report.certificates] == [CertificateVerdict.POSITIVE_ON_ORTHANT] * 4
    assert all(cert.verify() for cert in report.certificates)
    assert report.verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert report.verdict.refuted_claims == (Claim.GENERAL,)
    assert report.verdict.evidence_grade is EvidenceGrade.CERTIFIED
    # A^2 fails P0+ at {2,4}, and the oracle's Leibniz minor of the oracle's product agrees
    witness = report.conclusion.p0_plus.witness
    assert (witness.index_set.members, witness.value) == ((2, 4), -1)
    rows = [list(row) for row in TERNARY_4X4.rows]
    assert brute_force_minor(list_matmul(rows, rows), [1, 3], [1, 3]) == -1
    assert not report.anti_sign.holds


def test_no_2x2_counterexample_has_entries_below_3():
    # covers every 2x2 with entries in {-1, 0, 1}; the smallest counterexample needs |entry| = 3
    for entries in product(range(-2, 3), repeat=4):
        report = verify_refutation(RationalMatrix((entries[:2], entries[2:])), budget=1)
        assert report.verdict.kind is not VerdictKind.COUNTEREXAMPLE


def _refutes_2x2(a11, a12, a21, a22) -> bool:
    """-|a11 a22| < a12 a21 < -min(a11^2, a22^2): the hypothesis holds and A^2 is not P0+."""
    return -abs(a11 * a22) < a12 * a21 < -min(a11**2, a22**2)


entries_2x2 = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))
matrices_2x2 = st.builds(
    lambda *e: RationalMatrix((e[:2], e[2:])), entries_2x2, entries_2x2, entries_2x2, entries_2x2
)


# a11 = 0: both bounds are 0, so no a12 a21 lies between them
@example(RationalMatrix(((0, 1), (-1, 2))))
# |a11| = |a22|: -|a11 a22| = -min(a11^2, a22^2), so the interval is empty
@example(RationalMatrix(((2, 1), (-3, 2))))
# a12 a21 = -min(a11^2, a22^2): A^2 = [[0, 4], [-4, 8]] has a zero diagonal entry and stays P0+
@example(RationalMatrix(((1, 1), (-1, 3))))
# a12 a21 = -|a11 a22| with det A != 0: p_1 = (d1 - 4 d2)^2 vanishes at d = (4, 1)
@example(RationalMatrix(((1, 2), (-2, 4))))
# a12 a21 = -|a11 a22| with det A = 0: p_2 = 0
@example(RationalMatrix(((1, 2), (-2, -4))))
# the smallest integer counterexample, max |entry| 3
@example(RationalMatrix(((3, 2), (-1, 1))))
# a 2x2 hypothesis is always decided by certificates, so the budget is never spent
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(matrices_2x2)
def test_2x2_counterexamples_are_the_closed_form(matrix):
    (a11, a12), (a21, a22) = matrix.rows
    report = verify_refutation(matrix, budget=1, seed=0)
    assert all(cert.verdict is not CertificateVerdict.INCONCLUSIVE for cert in report.certificates)
    refutes = report.verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert refutes == _refutes_2x2(a11, a12, a21, a22)
    if refutes:
        assert report.verdict.evidence_grade is EvidenceGrade.CERTIFIED
