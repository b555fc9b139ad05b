"""The integer principal-minor enumerator against Leibniz determinants and the per-subset route.

``matrices._principal_minors`` is the only place the package computes
principal minors; ``classify``, ``principal_minor_sums``,
``symbolic_q_invariants`` and ``sample_refute`` each run it on the integer
matrix q*A that a matrix stores. It returns plain integers, one list per
order k, holding det((q*A)[S]) for the k-subsets S in ``combinations``
order, and [1] for order 0. It walks a tree of index-set prefixes, one
Bareiss step per child, and falls back to one kernel call per set below
a zero pivot. Each node is one call of a function compiled per bordered
size m, whose Bareiss step is written out with constant indices; the sizes
up to 7 compile in ~7 ms and those up to 12 in ~50 ms, on first use. The
references here are the Leibniz determinant in ``oracles``, a
first-violation scan written against it, and
``legacy_routes.principal_minors_by_subset``, one kernel call per set, which
the tree must match integer for integer. Small entries in [-2, 2] put zero
pivots at every depth of the tree. The strategy stops at n = 7, so explicit
examples run the compiled steps of sizes 8 to 12: each size's code is its
own, and a fault in one is not seen at another.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import RationalMatrix, classify, principal_minor_sums
from qscaling import matrices as matrices_module
from qscaling.matrices import _principal_minors, _scaled

from legacy_routes import principal_minors_by_subset
from oracles import brute_force_minor

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # last row a multiple of the first (the zero row when n = 1)
        factor = draw(entries) if n > 1 else Fraction(0)
        rows[-1] = [factor * x for x in rows[0]]
    return RationalMatrix(tuple(tuple(row) for row in rows))


def oracle_minors(matrix):
    """(S, det(A[S])) for every nonempty S, by order, then lexicographically."""
    rows = [list(row) for row in matrix.rows]
    n = len(rows)
    return [
        (s, brute_force_minor(rows, list(s), list(s))) for k in range(1, n + 1) for s in combinations(range(n), k)
    ]


@PROPERTY
@given(matrices())
def test_enumerator_equals_scaled_leibniz_minors(matrix):
    q, scaled = _scaled(matrix)
    by_order = _principal_minors(scaled)
    assert by_order[0] == [1]
    assert [len(minors) for minors in by_order] == [comb(matrix.n, k) for k in range(matrix.n + 1)]
    assert all(type(v) is int for minors in by_order for v in minors)
    # oracle_minors lists the sets by order, then in combinations order
    assert [v for minors in by_order[1:] for v in minors] == [q ** len(s) * m for s, m in oracle_minors(matrix)]


@PROPERTY
@given(matrices())
def test_classify_matches_first_violation_of_oracle_scan(matrix):
    minors = oracle_minors(matrix)
    sums = [sum((v for s, v in minors if len(s) == k), Fraction(0)) for k in range(1, matrix.n + 1)]
    first_p = next(((s, v) for s, v in minors if v <= 0), None)
    first_p0 = next(((s, v) for s, v in minors if v < 0), None)

    report = classify(matrix)
    assert list(report.minor_sums) == sums
    assert list(principal_minor_sums(matrix)) == sums
    for verdict, first in ((report.p, first_p), (report.p0, first_p0)):
        assert verdict.holds == (first is None)
        if first is not None:
            s, v = first
            assert verdict.witness.index_set.members == tuple(i + 1 for i in s)
            assert verdict.witness.value == v


def matrix_of(rows):
    return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


# past the strategy's n = 7, one example per kind of tree
# 12x12 upper-triangular with a nonzero diagonal: no zero pivot, a node of every size up to 12
UPPER_12 = matrix_of(
    [
        [
            Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 2) if j > i else (-1) ** i * (1 + i % 3) if j == i else 0
            for j in range(12)
        ]
        for i in range(12)
    ]
)
# B^T B + I with b_ki = (k+1)(i+2) mod 5 - 2: dense and positive definite, so no zero pivot; it runs
# the terms b[i][a]*b[a][j] of every size, which are all zero on a triangular matrix
_B = [[(k + 1) * (i + 2) % 5 - 2 for i in range(12)] for k in range(12)]
DENSE_12 = matrix_of([[sum(b[i] * b[j] for b in _B) + (i == j) for j in range(12)] for i in range(12)])
# no zero minor of order 1 or 2; {1,2,3} (there row 3 = rows 1 + 2) and {2,8,9} are zero pivots at depth 3
ZERO_PIVOTS_AT_DEPTH_3_9 = matrix_of(
    [
        [-3, 0, -3, 3, 0, -2, 2, -3, -2],
        [-3, 1, -2, 2, 3, -2, -2, 2, -3],
        [-6, 1, -5, -2, 1, 2, 0, 1, 0],
        [-2, 1, -3, -3, -3, 3, 0, -1, -2],
        [-2, -1, 0, -1, 1, -2, -2, 2, -2],
        [0, 1, 2, 1, -3, -3, 3, -2, -1],
        [-2, -2, -2, 3, 3, 0, -3, -3, 2],
        [1, 3, 0, 2, 3, -2, -2, 3, 0],
        [2, -1, -2, -1, 2, 3, -2, 0, -3],
    ]
)
# U V with U 8x5 and V 5x8: rank 5, so every minor of order 6 and up is zero
_U = [[2, 0, 0, 2, -2], [1, -1, -2, -1, -2], [0, 1, -1, 1, 2], [-2, 2, -1, -2, -1],
      [1, 0, -1, 1, -1], [-2, -1, 2, 2, 1], [-1, -1, -2, -2, -1], [-1, -1, -1, 0, 0]]
_V = [[-1, 2, -1, -1, -1, 1, 0, -2], [0, 1, -1, -1, 0, -2, 0, 0], [2, 2, -2, 2, 0, -2, 0, 0],
      [0, 1, 0, -1, 1, 1, -1, -2], [0, -2, 0, 1, -2, 2, 1, 0]]
RANK_5_8 = matrix_of([[sum(u[k] * _V[k][j] for k in range(5)) for j in range(8)] for u in _U])

small_integers = st.builds(Fraction, st.integers(-2, 2))
small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def small_entry_matrices(draw):
    n = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([small_integers, small_rationals]))
    return RationalMatrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))


@settings(PROPERTY, max_examples=200)
@given(small_entry_matrices())
@example(matrix_of([[0] * 4] * 4))
# zero diagonal: every order-1 pivot is zero
@example(matrix_of([[0, 1, -1, 2], [2, 0, 1, 1], [-1, 1, 0, 1], [1, 2, -2, 0]]))
# the leading 2x2 is singular, the leading 3x3 is not
@example(matrix_of([[1, 1, 0, 2], [1, 1, 1, 0], [0, 1, 1, 1], [2, 0, 1, 1]]))
# rank one: every minor of order 2 and up is zero
@example(matrix_of([[u * v for v in (2, 1, -1, 3)] for u in (1, -2, 3, Fraction(1, 2))]))
# n = 12, 9 and 8, past the strategy's n = 7
@example(UPPER_12)
@example(DENSE_12)
@example(ZERO_PIVOTS_AT_DEPTH_3_9)
@example(RANK_5_8)
def test_tree_equals_per_subset_route(matrix):
    assert _principal_minors(_scaled(matrix)[1]) == principal_minors_by_subset(matrix)


def test_tree_without_zero_pivots_makes_no_kernel_call(monkeypatch):
    upper = matrix_of(
        [[2, -1, 3, 0, 1], [0, Fraction(1, 2), 4, -2, 0], [0, 0, -3, 1, 5], [0, 0, 0, 1, 2], [0, 0, 0, 0, -1]]
    )
    b = [[1, -2, 0, 3, 1], [2, 1, -1, 0, 2], [0, 3, 1, 1, -1], [-1, 0, 2, 1, 1], [1, 1, 0, -2, 3]]
    spd = matrix_of([[sum(b[k][i] * b[k][j] for k in range(5)) + (i == j) for j in range(5)] for i in range(5)])
    expected = [principal_minors_by_subset(m) for m in (upper, spd)]

    def no_kernel(rows):
        raise AssertionError("the tree called the kernel above a nonzero pivot")

    monkeypatch.setattr(matrices_module, "_bareiss_int", no_kernel)
    assert [_principal_minors(_scaled(m)[1]) for m in (upper, spd)] == expected


def test_sets_below_the_one_zero_pivot_take_one_kernel_call_each(monkeypatch):
    # a_11 = 0 and the trailing 3x3 is diagonal, so {1} is the only zero pivot on the tree
    matrix = matrix_of([[0, Fraction(1, 2), 1, 1], [1, 1, 0, 0], [Fraction(1, 3), 0, 1, 0], [1, 0, 0, 2]])
    expected = principal_minors_by_subset(matrix)
    kernel = matrices_module._bareiss_int
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(matrices_module, "_bareiss_int", counted)
    q, scaled = _scaled(matrix)
    assert _principal_minors(scaled) == expected
    # one call for each {1} + T with T a nonempty subset of {2, 3, 4}
    assert sorted(calls) == [2, 2, 2, 3, 3, 3, 4]
    # the tree starts from the stored q*A and never writes into it
    assert q == 6
    assert _scaled(matrix) == (q, tuple(tuple(q * x for x in row) for row in matrix.rows))
