"""The symmetries of the question: A -> -A, A^T, S A S and P A P^T.

For S a +-1 diagonal and P a permutation, D(-A) squares to (DA)^2,
D A^T is similar to (D A)^T, D S A S = S (D A) S, and D P A P^T is
P (D' A) P^T with the diagonal D' relabelled. So every p_j is unchanged,
up to that relabelling of d for P A P^T. The certificate of each p_j is
decided from p_j alone, and every strategy is blind to the order of the
variables, so its verdict is unchanged too. The principal minors of A^2
and the minor pairs of the anti-sign scan move into each other, so the
P0+ verdict of A^2 and anti-sign symmetry are unchanged as well.

Four more identities give known answers by construction. For a positive
diagonal E, (D E A E^-1)^2 = E (D A)^2 E^-1, so every p_j is equal. A
positive scalar c scales every p_j by c^(2j). For a nonsingular A,
det(A)^2 p_j(A^-1)(d) = (prod d)^2 p_{n-j}(A)(1/d), with p_0 = 1. And the
p_j of a direct sum are the convolution of the p_j of its summands, so
the bundled 2x2 counterexample plus an identity block is a counterexample:
each of its p_j is a sum of positive products, and its square fails P0+
where the 2x2 square does.

Inversion also keeps the other two parts of the answer. By Jacobi's
identity each minor of A^-1 is a complementary minor of A over det A,
times a sign that its mirrored pair shares, so anti-sign symmetry is
kept; and (A^-1)^2 = (A^2)^-1, whose principal minors are the
complementary ones of A^2 over det(A)^2 > 0, so the P0+ verdict of the
square is kept. At n <= 3 no verdict depends on the sampling budget,
since nothing draws there.

The square A^2 itself, built by ``mat_mul``, obeys the same identities,
whatever route multiplies: (A+B)^2 = A^2 + B^2 for a direct sum,
(A^T)^2 = (A^2)^T, (cA)^2 = c^2 A^2, (P A P^T)^2 = P A^2 P^T, and
(E A E^-1)^2 = E A^2 E^-1, whose principal minors are those of A^2. A
positive diagonal E with unequal entries makes the operands rational, so
the product runs with a denominator q != 1.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscaling import (
    COUNTEREXAMPLE_MATRIX,
    Claim,
    EvidenceGrade,
    HuntConfig,
    RationalMatrix,
    SparsePolynomial,
    VerdictKind,
    certify_positive_on_orthant,
    classify,
    determinant,
    generate_candidates,
    index_sets,
    is_anti_sign_symmetric,
    mat_mul,
    minor,
    symbolic_q_invariants,
    verify_refutation,
)

from helpers import permutation_similarity
from oracles import solve_linear

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def matrices_and_symmetries(draw):
    """A matrix with n = 2..5 and entries in [-4, 4], a +-1 diagonal and a permutation."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return RationalMatrix(tuple(map(tuple, rows))), signs, perm


def _relabel(p: SparsePolynomial, perm) -> SparsePolynomial:
    """p with d_{perm[i]} renamed d_i: the p_j of P A P^T from those of A."""
    return SparsePolynomial(p.n_vars, {tuple(e[k] for k in perm): c for e, c in p.terms()})


TRANSFORMS = {
    "negation": (lambda a, signs, perm: RationalMatrix(tuple(tuple(-x for x in row) for row in a.rows)), False),
    "transpose": (lambda a, signs, perm: a.transpose(), False),
    "signature": (
        lambda a, signs, perm: RationalMatrix(
            tuple(tuple(signs[i] * x * signs[k] for k, x in enumerate(row)) for i, row in enumerate(a.rows))
        ),
        False,
    ),
    "permutation": (lambda a, signs, perm: permutation_similarity(a, perm), True),
}


def _invariants(matrix: RationalMatrix):
    polys = symbolic_q_invariants(matrix)
    certificates = [certify_positive_on_orthant(p) for p in polys]
    assert all(cert.verify() for cert in certificates)
    return (
        polys,
        [cert.verdict for cert in certificates],
        classify(mat_mul(matrix, matrix)).p0_plus.holds,
        is_anti_sign_symmetric(matrix).holds,
    )


#: the form of p_1 fails copositivity, so p_1 is NOT_POSITIVE in every order of the
#: variables; a search with a fixed point budget found a witness only after this
#: permutation
PERMUTED = (
    RationalMatrix(((-4, -4, -1, 0, -1), (-2, 0, -2, 4, -1), (0, 0, 0, 3, -2), (4, 1, 3, 2, -3), (-1, 2, -1, 0, -3))),
    [1, -1, 1, 1, -1],
    [1, 3, 2, 4, 0],
)


@pytest.mark.parametrize("name", TRANSFORMS)
@example(drawn=PERMUTED)
@PROPERTY
@given(matrices_and_symmetries())
def test_symmetries_keep_every_invariant_and_verdict(name, drawn):
    matrix, signs, perm = drawn
    transform, relabels = TRANSFORMS[name]
    polys, verdicts, p0_plus, anti_sign = _invariants(matrix)
    moved_polys, moved_verdicts, moved_p0_plus, moved_anti_sign = _invariants(transform(matrix, signs, perm))
    if relabels:
        polys = [_relabel(p, perm) for p in polys]
    assert moved_polys == polys
    assert moved_verdicts == verdicts
    assert moved_p0_plus == p0_plus
    assert moved_anti_sign == anti_sign


@st.composite
def integer_matrices(draw, max_n=4):
    """A matrix with n = 1..max_n and entries in [-3, 3]."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    return RationalMatrix(tuple(map(tuple, rows)))


def _with_p0(matrix: RationalMatrix) -> list[SparsePolynomial]:
    """p_0 = 1, then p_1, ..., p_n of ``matrix``."""
    return [SparsePolynomial.constant(matrix.n, 1), *symbolic_q_invariants(matrix)]


def _direct_sum(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(row + (0,) * b.n for row in a.rows) + tuple((0,) * a.n + row for row in b.rows))


def _embed(p: SparsePolynomial, before: int, after: int) -> SparsePolynomial:
    """p with ``before`` variables in front of its own and ``after`` behind them."""
    return SparsePolynomial(before + p.n_vars + after, {(0,) * before + e + (0,) * after: c for e, c in p.terms()})


@PROPERTY
@given(integer_matrices(), st.data())
def test_the_pj_of_a_direct_sum_convolve_those_of_its_summands(a, data):
    b = data.draw(integer_matrices(max_n=min(4, 6 - a.n)))
    n = a.n + b.n
    pa = [_embed(p, 0, b.n) for p in _with_p0(a)]
    pb = [_embed(p, a.n, 0) for p in _with_p0(b)]
    expected = [
        sum((pa[i] * pb[j - i] for i in range(max(0, j - b.n), min(j, a.n) + 1)), SparsePolynomial.zero(n))
        for j in range(1, n + 1)
    ]
    assert symbolic_q_invariants(_direct_sum(a, b)) == expected


@PROPERTY
@given(integer_matrices(), st.lists(st.integers(1, 5), min_size=4, max_size=4))
def test_a_positive_diagonal_similarity_keeps_every_pj(a, e):
    moved = RationalMatrix(
        tuple(tuple(Fraction(e[i], e[k]) * x for k, x in enumerate(row)) for i, row in enumerate(a.rows))
    )
    assert symbolic_q_invariants(moved) == symbolic_q_invariants(a)


@PROPERTY
@given(integer_matrices(), st.integers(1, 5), st.integers(1, 5))
def test_a_positive_scalar_scales_each_pj_by_its_square_power(a, num, den):
    c = Fraction(num, den)
    scaled = RationalMatrix(tuple(tuple(c * x for x in row) for row in a.rows))
    expected = [p * c ** (2 * j) for j, p in enumerate(symbolic_q_invariants(a), start=1)]
    assert symbolic_q_invariants(scaled) == expected


def _diagonal_similarity(a: RationalMatrix, e) -> RationalMatrix:
    """E A E^-1 for the positive diagonal E = diag(e)."""
    return RationalMatrix(
        tuple(tuple(Fraction(e[i], e[k]) * x for k, x in enumerate(row)) for i, row in enumerate(a.rows))
    )


def _square(a: RationalMatrix) -> RationalMatrix:
    return mat_mul(a, a)


@PROPERTY
@given(integer_matrices(), st.data())
def test_the_square_of_a_direct_sum_is_the_direct_sum_of_the_squares(a, data):
    b = data.draw(integer_matrices(max_n=min(4, 6 - a.n)))
    assert _square(_direct_sum(a, b)) == _direct_sum(_square(a), _square(b))


@PROPERTY
@given(matrices_and_symmetries(), st.lists(st.integers(1, 5), min_size=5, max_size=5))
def test_the_square_commutes_with_transpose_and_permutation_similarity(drawn, e):
    matrix, _, perm = drawn
    a = _diagonal_similarity(matrix, e)
    square = _square(a)
    assert _square(a.transpose()) == square.transpose()
    assert _square(permutation_similarity(a, perm)) == permutation_similarity(square, perm)


@PROPERTY
@given(integer_matrices(max_n=5), st.integers(-5, 5), st.integers(1, 5))
def test_a_scalar_scales_the_square_by_its_square(a, num, den):
    c = Fraction(num, den)
    scaled = RationalMatrix(tuple(tuple(c * x for x in row) for row in a.rows))
    assert _square(scaled) == RationalMatrix(tuple(tuple(c * c * x for x in row) for row in _square(a).rows))


@PROPERTY
@given(integer_matrices(max_n=5), st.lists(st.integers(1, 5), min_size=5, max_size=5))
def test_a_positive_diagonal_similarity_keeps_every_principal_minor_of_the_square(a, e):
    square, moved = _square(a), _square(_diagonal_similarity(a, e))
    assert moved == _diagonal_similarity(square, e)
    for k in range(1, a.n + 1):
        for s in index_sets(a.n, k):
            assert minor(moved, s, s) == minor(square, s, s)


def _inverse(a: RationalMatrix) -> RationalMatrix:
    columns = [solve_linear(a.rows, [int(i == k) for i in range(a.n)]) for k in range(a.n)]
    return RationalMatrix(tuple(zip(*columns)))


@PROPERTY
@given(integer_matrices())
def test_inversion_mirrors_the_pj(a):
    det = determinant(a)
    assume(det != 0)
    n = a.n
    inverse = _inverse(a)
    # the monomial d^e at 1/d, times (prod d)^2, is d^(2 - e)
    mirrored = [SparsePolynomial(n, {tuple(2 - x for x in e): c for e, c in p.terms()}) for p in _with_p0(a)]
    assert [p * det**2 for p in symbolic_q_invariants(inverse)] == [mirrored[n - j] for j in range(1, n + 1)]


@settings(PROPERTY, max_examples=300)
@given(integer_matrices())
def test_inversion_keeps_anti_sign_symmetry_and_p0_plus_of_the_square(a):
    assume(determinant(a) != 0)
    inverse = _inverse(a)
    # Jacobi: each minor of A^-1 is a complementary minor of A over det A, with the sign of the pair
    assert is_anti_sign_symmetric(inverse).holds == is_anti_sign_symmetric(a).holds
    # (A^-1)^2 = (A^2)^-1, whose principal minors are the complementary ones of A^2 over det(A)^2 > 0
    assert classify(mat_mul(inverse, inverse)).p0_plus.holds == classify(mat_mul(a, a)).p0_plus.holds


def test_the_verdict_below_dimension_4_does_not_depend_on_the_budget():
    # every p_j at n <= 3 is decided by a certificate or skipped by sampling, so nothing draws
    for matrix in generate_candidates(HuntConfig(dimension=3, entry_range=2, count=300, seed=5)):
        least, most = (verify_refutation(matrix, budget=budget) for budget in (1, 10_000))
        assert least.verdict == most.verdict
        assert type(least.hypothesis) is type(most.hypothesis)
        assert least.hypothesis.certificates == most.hypothesis.certificates


def _reference_plus_identity(k: int) -> RationalMatrix:
    return _direct_sum(COUNTEREXAMPLE_MATRIX, RationalMatrix.identity(k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_reference_plus_an_identity_block_is_a_counterexample(k):
    verdict = verify_refutation(_reference_plus_identity(k), budget=200).verdict
    assert verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert verdict.refuted_claims == (Claim.GENERAL, Claim.ANTI_SIGN_SYMMETRIC)


@pytest.mark.parametrize(
    "k",
    [
        pytest.param(1, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
        pytest.param(2, marks=pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 2")),
        pytest.param(3, marks=pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 2")),
    ],
)
def test_the_reference_plus_an_identity_block_is_a_certified_counterexample(k):
    assert verify_refutation(_reference_plus_identity(k), budget=200).verdict.evidence_grade is EvidenceGrade.CERTIFIED
