"""The characteristic-polynomial route for p_j against the routes it replaced.

``symbolic_q_invariants`` builds p_j from the principal minors of A through
f(t)*f(-t) = det(I - t^2 (D*A)^2), and ``sample_refute`` evaluates the same
identity in integers. The references are the polynomial-matrix expansion,
the pair loop that the compiled expansion of ``_pj_kernel`` replaced and
the Fraction sampling loop in ``legacy_routes``, plus Faddeev-LeVerrier on
(D*A)^2 at concrete points. The pair loop is fast enough to check the
kernels past the default symbolic guard, at n = 7 and 8. ``symbolic_q_invariants`` wraps each p_j
without the public constructor's checks, so one property shows that every
p_j would pass them.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import (
    DiagonalScaling,
    RationalMatrix,
    SparsePolynomial,
    sample_refute,
    scaled_square_symbolic,
    symbolic_q_invariants,
)

from legacy_routes import (
    sample_refute_by_fractions,
    scaled_square_by_product,
    symbolic_q_invariants_by_expansion,
    symbolic_q_invariants_by_pairs,
)
from oracles import faddeev_leverrier, list_matmul

NILPOTENT = RationalMatrix(((0, 1), (0, 0)))
HITS_AT_DRAW_45 = RationalMatrix(((-3, 5, 1), (-2, 4, Fraction(5, 3)), (-4, Fraction(1, 2), -3)))

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 7)))
positive = st.builds(Fraction, st.integers(1, 200), st.integers(1, 200))


@st.composite
def matrices(draw, min_n=1, max_n=5, singular=False):
    n = draw(st.integers(min_n, max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if singular:
        # last row a multiple of the first (the zero row when n = 1)
        factor = draw(entries) if n > 1 else Fraction(0)
        rows[-1] = [factor * x for x in rows[0]]
    return RationalMatrix(tuple(tuple(row) for row in rows))


# q = 2 and p_2 = det(A)^2 (d1 d2)^2 = 0: the zero polynomial is stored over 1, not over q^4
@example(RationalMatrix(((0, 0), (0, Fraction(1, 2)))))
@PROPERTY
@given(st.one_of(matrices(), matrices(singular=True)))
def test_invariants_equal_polynomial_matrix_expansion(matrix):
    assert symbolic_q_invariants(matrix) == symbolic_q_invariants_by_expansion(matrix)


@settings(PROPERTY, max_examples=3)
@given(matrices(min_n=6, max_n=6))
def test_invariants_equal_polynomial_matrix_expansion_at_six(matrix):
    assert symbolic_q_invariants(matrix) == symbolic_q_invariants_by_expansion(matrix)


def _product(left, right):
    return RationalMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*right)) for row in left))


# every principal minor nonzero, so every product in every kernel at n = 7 counts
DENSE_7 = RationalMatrix(
    (
        (4, 6, 7, 6, 5, -8, 6),
        (0, -4, -8, 4, 3, 5, -9),
        (6, -2, 4, 9, 2, -7, -5),
        (-6, -7, -2, -4, -5, -2, -5),
        (2, -3, -4, 9, 8, 7, 5),
        (2, 0, 2, 6, 6, 5, 5),
        (4, 5, 3, 2, 7, -6, -1),
    )
)
UPPER_7 = RationalMatrix(
    (
        (7, 1, -9, 9, -2, 9, -9),
        (0, 3, -1, 7, -6, -1, 9),
        (0, 0, 1, -8, 7, -4, -8),
        (0, 0, 0, 5, -4, 1, -7),
        (0, 0, 0, 0, 2, 4, -5),
        (0, 0, 0, 0, 0, 9, 2),
        (0, 0, 0, 0, 0, 0, 3),
    )
)
# 8x5 times 5x8: rank 5, so every principal minor above order 5 is 0 and none below it is
RANK_5_8 = _product(
    (
        (0, -3, -3, -1, 4),
        (-2, -3, -3, -4, 1),
        (-2, 4, -1, 0, -3),
        (-3, -3, 0, -4, 3),
        (0, 1, 0, 0, 0),
        (-4, -2, 0, 2, -4),
        (4, 0, -4, 0, -3),
        (-2, 1, 3, -4, -1),
    ),
    (
        (3, 3, 1, 4, -4, 0, 3, 1),
        (0, -2, 1, 2, -3, -1, -4, -3),
        (-2, 2, 4, -4, -2, -2, -3, 1),
        (0, 4, -4, -3, 1, -3, -3, 4),
        (-4, -3, 3, -4, -3, -3, -1, -3),
    ),
)
# q = 30, and every principal minor nonzero
FRACTIONAL_7 = RationalMatrix(
    tuple(
        tuple(map(Fraction, row))
        for row in (
            ("9/2", "7", "-1", "3/5", "-8/3", "-5", "2"),
            ("-1", "-8/3", "9/5", "8/3", "2/5", "9", "7"),
            ("9", "-2", "8/3", "7", "-5/3", "-5/3", "3"),
            ("-1/5", "6", "5/2", "2", "-1", "-9/2", "2/3"),
            ("-6/5", "2/3", "-9", "9", "-8/5", "3", "9/2"),
            ("-9/2", "9", "8/5", "2/3", "-2/3", "-4", "-9/5"),
            ("4/5", "6", "1/5", "4/3", "5/3", "0", "-2/5"),
        )
    )
)


# the examples pass the default symbolic guard of 6 through max_dim, where the
# polynomial-matrix expansion is too slow to be the reference
@example(DENSE_7)
@example(UPPER_7)
@example(RANK_5_8)
@example(FRACTIONAL_7)
@PROPERTY
@given(st.one_of(matrices(), matrices(singular=True)))
def test_compiled_expansion_equals_pair_loop(matrix):
    invariants = symbolic_q_invariants(matrix, max_dim=matrix.n)
    assert invariants == symbolic_q_invariants_by_pairs(matrix)
    # each p_j is built in canonical term order, the order terms() reads the storage in
    for p in invariants:
        assert list(p._terms) == sorted(p._terms, key=lambda e: (sum(e), e), reverse=True)


# q = 42: p_j carries q^(2j) before it is divided out
@example(RationalMatrix(((Fraction(1, 2), -3, 0), (Fraction(2, 3), 1, Fraction(-5, 7)), (4, Fraction(1, 3), 2))))
@PROPERTY
@given(st.one_of(matrices(), matrices(singular=True)))
def test_invariants_pass_the_public_constructors_checks(matrix):
    for p in symbolic_q_invariants(matrix):
        assert p == SparsePolynomial(matrix.n, dict(p.terms()))
        for exponents, coefficient in p.terms():
            assert type(exponents) is tuple and len(exponents) == matrix.n
            assert all(type(e) is int and e >= 0 for e in exponents)
            assert type(coefficient) is Fraction and coefficient != 0


@PROPERTY
@given(matrices(singular=True))
def test_top_invariant_of_singular_matrix_vanishes(matrix):
    assert symbolic_q_invariants(matrix)[-1].is_zero


@PROPERTY
@given(st.data(), matrices())
def test_invariants_evaluate_to_principal_minor_sums(data, matrix):
    point = data.draw(st.lists(positive, min_size=matrix.n, max_size=matrix.n))
    scaled = [[d * a for a in row] for d, row in zip(point, matrix.rows)]
    sums = faddeev_leverrier(list_matmul(scaled, scaled))
    assert [p.evaluate(point) for p in symbolic_q_invariants(matrix)] == sums


@PROPERTY
@given(matrices())
def test_scaled_square_equals_polynomial_matrix_product(matrix):
    assert scaled_square_symbolic(matrix) == scaled_square_by_product(matrix)


# det A != 0, and the forms of A o A^T and adj A o adj(A)^T are positive on the
# orthant: the loop finds nothing, and sample_refute returns None without drawing
@example(RationalMatrix(((3, 0, 3), (-2, 4, 3), (4, -1, 2))), 40, 0, 3)
@example(RationalMatrix(((2, 1), (-1, Fraction(3, 2)))), 40, 5, 2)
@example(RationalMatrix(((Fraction(-2, 3),),)), 40, 9, 3)
@settings(PROPERTY, max_examples=200)
@given(
    st.one_of(matrices(max_n=4), matrices(max_n=4, singular=True)),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.integers(0, 3),
)
def test_integer_sampling_returns_the_fraction_loops_witness(matrix, budget, seed, exponent_range):
    expected = sample_refute_by_fractions(matrix, budget, seed, exponent_range)
    assert sample_refute(matrix, budget=budget, seed=seed, exponent_range=exponent_range) == expected


def test_sampling_witness_for_nilpotent_is_pinned():
    witness = sample_refute(NILPOTENT, budget=10, seed=13)
    assert witness == DiagonalScaling((Fraction(3, 20), Fraction(125)))


def test_sampling_witness_for_rational_three_by_three_is_pinned():
    assert sample_refute(HITS_AT_DRAW_45, budget=44, seed=7) is None
    witness = sample_refute(HITS_AT_DRAW_45, budget=300, seed=7)
    assert witness == DiagonalScaling((Fraction(9, 800), Fraction(9, 800), Fraction(3, 160)))
