import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from qscaling import (
    ClassReport,
    DimensionGuardError,
    IndexSet,
    MinorPairWitness,
    MinorSumWitness,
    OrderGapWitness,
    PrincipalMinorWitness,
    RationalMatrix,
    Verdict,
    classify,
    is_anti_sign_symmetric,
    mat_mul,
    matrices,
    principal_minor_sums,
)
from qscaling.matrix_classes import _index_set

from helpers import (
    assert_class_lattice,
    permutation_similarity,
    random_int_matrix,
    random_positive_rational,
    random_rational_matrix,
    random_upper_triangular_positive_diagonal,
)
from legacy_routes import sums_by_compound_trace
from oracles import brute_force_minor, faddeev_leverrier

A_REF = RationalMatrix(((1, 2), (-1, 5)))
A_REF_SQUARED = mat_mul(A_REF, A_REF)
NILPOTENT = RationalMatrix(((0, 1), (0, 0)))


def test_minor_sums_of_squared_reference():
    assert principal_minor_sums(A_REF_SQUARED) == (Fraction(22), Fraction(49))


def test_minor_sums_identity():
    for n in (1, 3, 5):
        sums = principal_minor_sums(RationalMatrix.identity(n))
        assert sums == tuple(Fraction(comb(n, j)) for j in range(1, n + 1))


def test_minor_sums_agree_with_faddeev_leverrier():
    rng = random.Random(111)
    for _ in range(10):
        m = random_int_matrix(rng, 4)
        expected = faddeev_leverrier([list(row) for row in m.rows])
        assert list(principal_minor_sums(m)) == expected


def test_sum_routes_agree_internally():
    rng = random.Random(112)
    for n in (2, 3, 4):
        m = random_rational_matrix(rng, n)
        assert principal_minor_sums(m) == sums_by_compound_trace(m)


def test_classify_squared_reference():
    report = classify(A_REF_SQUARED)
    assert not report.p0.holds
    witness = report.p0.witness
    assert isinstance(witness, PrincipalMinorWitness)
    assert witness.index_set.members == (1,)
    assert witness.value == Fraction(-1)
    assert witness.reverify(A_REF_SQUARED)
    assert not report.p.holds
    assert not report.p0_plus.holds
    assert report.q.holds
    assert report.minor_sums == (Fraction(22), Fraction(49))


def test_classify_identity():
    report = classify(RationalMatrix.identity(4))
    assert report.p.holds and report.p0.holds and report.p0_plus.holds and report.q.holds
    assert report.anti_sign_symmetric.holds


def test_classify_nilpotent():
    report = classify(NILPOTENT)
    assert report.p0.holds
    assert not report.p0_plus.holds
    assert isinstance(report.p0_plus.witness, OrderGapWitness)
    assert report.p0_plus.witness.order == 1
    assert not report.q.holds
    assert isinstance(report.q.witness, MinorSumWitness)
    assert report.q.witness.order == 1
    assert report.q.witness.value == 0
    assert not report.p.holds


def test_a_verdict_is_its_witness():
    assert [(field.name, field.kw_only) for field in fields(Verdict)] == [("witness", True)]
    with pytest.raises(TypeError):
        Verdict(True)  # no positional witness, so a bare truth value cannot pose as one
    assert Verdict().holds and Verdict().to_dict() == {"holds": True}
    gap = Verdict(witness=OrderGapWitness(2))
    assert not gap.holds and gap.to_dict() == {"holds": False, "witness": {"kind": "order_gap", "order": 2}}


def test_a_class_report_holds_only_its_minor_data_and_three_verdicts():
    assert [field.name for field in fields(ClassReport)] == [
        "minor_sums",
        "positive_minor_orders",
        "p",
        "p0",
        "anti_sign_symmetric",
    ]


FAILING_P0 = Verdict(witness=PrincipalMinorWitness(IndexSet.of(3, 2), Fraction(-1)))


@pytest.mark.parametrize(
    "sums, positive_orders, p0, p0_plus_witness, q_witness",
    [
        ((3, Fraction(1, 2), 2), (True, True, True), Verdict(), None, None),
        ((3, 0, 0), (True, False, False), Verdict(), OrderGapWitness(2), MinorSumWitness(2, Fraction(0))),
        ((-1, 2, -4), (True, True, False), FAILING_P0, FAILING_P0.witness, MinorSumWitness(1, Fraction(-1))),
    ],
)
def test_a_class_report_reads_n_p0_plus_and_q_off_its_minor_data(sums, positive_orders, p0, p0_plus_witness, q_witness):
    report = ClassReport(tuple(map(Fraction, sums)), positive_orders, p0, p0, Verdict())
    assert report.n == 3
    assert report.p0_plus == Verdict(witness=p0_plus_witness)
    assert report.q == Verdict(witness=q_witness)


def test_classify_reference_matrix_is_p():
    report = classify(A_REF)
    assert report.p.holds
    assert report.minor_sums == (Fraction(6), Fraction(7))


def test_anti_sign_symmetry():
    assert is_anti_sign_symmetric(A_REF).holds
    assert is_anti_sign_symmetric(RationalMatrix.identity(4)).holds

    ones = RationalMatrix(((1, 1), (1, 1)))
    verdict = is_anti_sign_symmetric(ones)
    assert not verdict.holds
    witness = verdict.witness
    assert isinstance(witness, MinorPairWitness)
    assert witness.row_set.members == (1,)
    assert witness.col_set.members == (2,)
    assert witness.product == 1
    assert witness.reverify(ones)


def _first_anti_sign_violation(m: RationalMatrix) -> Verdict:
    """Independent scan: the first pair (order, then a < b lexicographically) with positive product."""
    rows = [list(row) for row in m.rows]
    for k in range(1, m.n + 1):
        for a, b in combinations(combinations(range(m.n), k), 2):
            forward, backward = brute_force_minor(rows, a, b), brute_force_minor(rows, b, a)
            if forward * backward > 0:
                row_set = IndexSet(m.n, tuple(i + 1 for i in a))
                col_set = IndexSet(m.n, tuple(i + 1 for i in b))
                return Verdict(witness=MinorPairWitness(row_set, col_set, forward, backward))
    return Verdict()


def _order_one_anti_sign(rng: random.Random, n: int) -> RationalMatrix:
    """A random integer matrix with a_ij * a_ji <= 0, so any violation has order >= 2."""
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = -rows[i][j] * rng.randint(0, 2)
    return RationalMatrix(tuple(map(tuple, rows)))


def test_anti_sign_scan_stops_at_its_first_pair(monkeypatch):
    """The scan reads the order of its first violating pair whole, and builds no order above it."""
    # a_ij * a_ji <= 0, so order 1 has no violation; the first pair of order 2,
    # ({1,2}, {1,3}), has minors -2 and -6
    m = RationalMatrix(((-1, -2, 2, 2), (2, 0, -2, 2), (-2, 2, -2, 2), (-4, -2, -2, 1)))
    kernel = matrices._laplace_kernel
    built = []

    def counting(n, k):
        builder = kernel(n, k)

        def counted(last, lower):
            row = builder(last, lower)
            built.append((k, row))
            return row

        return counted

    monkeypatch.setattr(matrices, "_laplace_kernel", counting)
    a = [list(row) for row in m.rows]
    order_two = list(combinations(range(4), 2))
    for scan in (is_anti_sign_symmetric, lambda m: classify(m).anti_sign_symmetric):
        built.clear()
        witness = scan(m).witness
        assert (witness.row_set.members, witness.col_set.members) == ((1, 2), (1, 3))
        assert (witness.forward, witness.backward) == (-2, -6)
        # order 1 is the matrix itself, so only the 6 rows of order 2 are built; no row of order 3
        assert [k for k, _ in built] == [2] * 6
        assert [row for k, row in built if k == 2] == [
            [brute_force_minor(a, rows, cols) for cols in order_two] for rows in order_two
        ]


def test_classify_and_standalone_anti_sign_agree():
    rng = random.Random(113)
    # first violation at order 3, at ({1,2,3}, {2,3,4})
    cases = [RationalMatrix(((-2, 3, 0, 0), (-2, -2, 0, -1), (1, -2, -1, 0), (2, 2, -3, 0)))]
    for n in range(1, 6):
        upper = [random_upper_triangular_positive_diagonal(rng, n) for _ in range(2)]
        assert all(is_anti_sign_symmetric(m) == Verdict() for m in upper)
        cases += upper
        cases += [random_int_matrix(rng, n, bound=3) for _ in range(6)]
        cases += [_order_one_anti_sign(rng, n) for _ in range(4)]
    # rational entries (common denominator q > 1): the scan decides on q*A, and its
    # witness must be divided back to minors of A; positive row scalings keep the
    # order-one anti-sign property, so their violations have order >= 2
    for n in range(2, 6):
        cases += [random_rational_matrix(rng, n, num_bound=3) for _ in range(4)]
        cases += [
            _order_one_anti_sign(rng, n).scale_rows([random_positive_rational(rng) for _ in range(n)])
            for _ in range(4)
        ]
    for m in cases:
        verdict = is_anti_sign_symmetric(m)
        assert classify(m).anti_sign_symmetric == verdict
        assert verdict == _first_anti_sign_violation(m)


def test_each_cached_index_set_is_the_lexicographic_subset():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for a, members in enumerate(combinations(range(1, n + 1), k)):
                assert _index_set(n, k, a) == IndexSet(n, members)
                assert _index_set(n, k, a) is _index_set(n, k, a)


def test_witnesses_of_one_index_set_share_one_object():
    # P (and P0) fail at {1} for both; the first anti-sign pair of both is ({1}, {2})
    first, second = RationalMatrix(((-1, 0), (0, 1))), RationalMatrix(((-3, 1), (1, 2)))
    assert classify(first).p.witness.index_set is classify(second).p0.witness.index_set
    pair = is_anti_sign_symmetric(RationalMatrix(((1, 1), (1, 1)))).witness
    other = classify(RationalMatrix(((1, 2), (3, 4)))).anti_sign_symmetric.witness
    assert (other.row_set, other.col_set) == (pair.row_set, pair.col_set)
    assert other.row_set is pair.row_set and other.col_set is pair.col_set


def test_witnesses_reverify():
    rng = random.Random(114)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(2, 4))
        report = classify(m)
        for verdict in (report.p, report.p0):
            if verdict.witness is not None:
                assert verdict.witness.reverify(m)
        pair = report.anti_sign_symmetric.witness
        if pair is not None:
            assert pair.reverify(m)
            assert pair.product > 0


def test_implication_lattice_random():
    rng = random.Random(115)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(2, 4))
        assert_class_lattice(classify(m))


def test_upper_triangular_positive_diagonal_is_p():
    rng = random.Random(116)
    for _ in range(40):
        m = random_upper_triangular_positive_diagonal(rng, rng.randint(2, 5))
        report = classify(m)
        assert report.p.holds
        assert_class_lattice(report)


def test_permutation_invariance():
    rng = random.Random(117)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = random_int_matrix(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        original = classify(m)
        permuted = classify(permutation_similarity(m, perm))
        for name, verdict in original.verdicts().items():
            assert permuted.verdicts()[name].holds == verdict.holds, name


def test_dimension_guard():
    big = RationalMatrix.identity(13)
    with pytest.raises(DimensionGuardError):
        classify(big)
    with pytest.raises(DimensionGuardError):
        principal_minor_sums(big)
    with pytest.raises(DimensionGuardError):
        is_anti_sign_symmetric(big)
    with pytest.raises(DimensionGuardError):
        classify(RationalMatrix.identity(5), max_dim=4)


def test_report_serialization():
    doc = classify(A_REF_SQUARED).to_dict()
    assert doc["minor_sums"] == ["22", "49"]
    assert doc["P0"]["holds"] is False
    assert doc["P0"]["witness"] == {"kind": "principal_minor", "index_set": [1], "value": "-1"}
    assert doc["Q"]["holds"] is True
