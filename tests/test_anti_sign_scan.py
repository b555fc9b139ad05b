"""The anti-sign scan and its order-by-order compound rows, against square determinants.

``_first_positive_pair`` reads whole orders from ``_int_compounds``, which
builds every order from order 0 with the kernel compiled from the plan of
(n, k): the plan holds one record ``(s, below)`` per k-subset s, and row s
is a Laplace expansion along row s[-1] of q*A, over row ``below[-1]`` of
the order below. The references are ``legacy_routes.first_positive_pair_by_minors``,
two square Bareiss determinants per pair, which must give the same verdict
and witness, and ``_int_minor`` on every row set and column set, which
every compound must equal integer for integer. Upper-triangular matrices,
with or without a permutation similarity, make the scan visit every pair;
zero-heavy entries make singular minors and rows at every order. Fixed
matrices at n = 10 and 12, which the default enumeration bound admits,
check a sample of every order. The row kernel binds each operand entry to
a local, which its code object's local count pins.
"""

from fractions import Fraction
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import RationalMatrix, Verdict, classify, is_anti_sign_symmetric
from qscaling.matrices import (
    DEFAULT_ENUMERATION_GUARD,
    _bareiss_int,
    _int_compound,
    _int_compounds,
    _int_minor,
    _laplace_kernel,
    _laplace_plan,
    _scaled,
)

from legacy_routes import first_positive_pair_by_minors

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

integers = st.builds(Fraction, st.integers(-3, 3))
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
zero_heavy = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
positive = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))


@st.composite
def scan_matrices(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["integer", "rational", "zero_heavy", "order_one", "upper", "permuted_upper"]))
    entry = {"integer": integers, "rational": rationals, "zero_heavy": zero_heavy}.get(kind, rationals)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "order_one":
        # a_ij * a_ji <= 0, so any violation has order >= 2
        for i, j in combinations(range(n), 2):
            rows[j][i] = -rows[i][j] * draw(st.integers(0, 2))
    elif kind in ("upper", "permuted_upper"):
        # one minor of every mirrored pair is 0, so the scan visits every pair
        for i in range(n):
            rows[i][i] = draw(positive)
            rows[i][:i] = [Fraction(0)] * i
        if kind == "permuted_upper":
            perm = draw(st.permutations(range(n)))
            rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return RationalMatrix(tuple(map(tuple, rows)))


def matrix_of(rows):
    return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


@PROPERTY
@given(scan_matrices())
# the first violation is at order 3, at ({1,2,3}, {2,3,4})
@example(matrix_of([[-2, 3, 0, 0], [-2, -2, 0, -1], [1, -2, -1, 0], [2, 2, -3, 0]]))
# 7x7 rational: the first violation is the order-3 pair ({1,3,6}, {1,3,7})
@example(
    matrix_of(
        [
            [-3, 0, 2, 0, 0, 0, 1],
            [0, Fraction(-1, 2), 0, 0, Fraction(3, 2), Fraction(-3, 2), 0],
            [0, 0, Fraction(-2, 3), 0, 0, 2, 0],
            [0, 0, 0, Fraction(2, 3), 0, 0, 0],
            [0, 0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 3, -1],
            [Fraction(-1, 3), 0, 0, 0, 0, 0, 1],
        ]
    )
)
# 8x8 permuted upper-triangular: no violation, so the scan builds every row of orders 2..7
@example(
    matrix_of(
        [
            [2, 0, 0, Fraction(-3, 2), 0, 0, 2, 0],
            [-1, 2, 2, Fraction(1, 2), 0, -1, 0, -1],
            [-3, 0, 1, 2, 0, 1, Fraction(-1, 2), 0],
            [0, 0, 0, 4, 0, 0, 0, 0],
            [2, -1, 0, 0, 1, 0, Fraction(-1, 2), 0],
            [2, 0, 0, Fraction(-1, 2), 0, 5, 2, 0],
            [0, 0, 0, 2, 0, 0, 2, 0],
            [1, 0, Fraction(-1, 2), 2, 0, 0, 0, 2],
        ]
    )
)
def test_scan_gives_the_verdict_of_the_per_pair_minor_scan(matrix):
    expected = Verdict(witness=first_positive_pair_by_minors(*_scaled(matrix)))
    assert is_anti_sign_symmetric(matrix) == expected
    assert classify(matrix).anti_sign_symmetric == expected


@st.composite
def int_matrices(draw):
    """An n x n integer matrix, 1 <= n <= 7; often singular, with a repeated or zero row."""
    n = draw(st.integers(1, 7))
    rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[j] = [draw(st.integers(-2, 2)) * x for x in rows[i]]
    return rows


@PROPERTY
@given(int_matrices())
@example([[0] * 4] * 4)
# rank one: every minor of order 2 and up is zero
@example([[u * v for v in (2, 1, -1, 3, 1)] for u in (1, -2, 3, 1, 2)])
# beyond the strategy's n <= 7, rank deficient: the last two rows are row 1 minus row 3 and twice row 4
@example(
    [
        [-1, 0, -2, 0, 2, -1, -2, 1],
        [1, -2, -2, -1, 0, 1, 2, 1],
        [1, -1, -1, 0, 0, 0, 1, -2],
        [2, 1, 1, -2, -1, 2, -1, -2],
        [-1, -2, -2, -1, 0, 0, 0, 0],
        [-1, 2, -2, -2, 0, -1, -1, 2],
        [-2, 1, -1, 0, 2, -1, -3, 3],
        [4, 2, 2, -4, -2, 4, -2, -4],
    ]
)
@example(
    [
        [-2, 0, -2, -2, -1, -1, 2, 2, -2],
        [-1, -2, 2, -1, 0, -1, 1, 0, -2],
        [1, -2, -1, -1, -1, -1, -2, 0, -1],
        [2, 1, -1, -2, 1, 1, -2, -1, -1],
        [0, 1, -2, 0, -1, 0, 2, 0, -1],
        [-2, -2, 0, -2, 1, 0, 0, 1, 1],
        [-2, -2, 2, 1, -1, -2, 2, -2, 2],
        [-3, 2, -1, -1, 0, 0, 4, 2, -1],
        [4, 2, -2, -4, 2, 2, -4, -2, -2],
    ]
)
# and upper-triangular, the rows a full anti-sign scan builds
@example(
    [
        [2, -2, -1, 2, 1, 0, -1, -2],
        [0, 3, -2, 2, -1, 1, -1, -1],
        [0, 0, 1, -2, 0, -2, 0, 1],
        [0, 0, 0, 2, 2, -2, -1, -2],
        [0, 0, 0, 0, 2, 2, 0, -2],
        [0, 0, 0, 0, 0, 1, 2, -2],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 2],
    ]
)
@example(
    [
        [2, 1, -2, -1, 2, 1, 2, 1, 1],
        [0, 2, -2, 1, -2, 2, 1, 0, -1],
        [0, 0, 1, 0, 1, 0, 1, -1, 2],
        [0, 0, 0, 1, 0, -1, -2, 0, -2],
        [0, 0, 0, 0, 1, 1, -1, 2, -1],
        [0, 0, 0, 0, 0, 2, -2, -1, 0],
        [0, 0, 0, 0, 0, 0, 2, 2, -1],
        [0, 0, 0, 0, 0, 0, 0, 1, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 2],
    ]
)
def test_laplace_rows_equal_bareiss_rows(rows):
    n = len(rows)
    for k in range(n + 1):
        sets = list(combinations(range(n), k))
        if k:
            lower_sets = list(combinations(range(n), k - 1))
            # record a is the a-th k-subset s with the indices of s - s_i one order below
            plan = _laplace_plan(n, k)
            assert [s for s, _ in plan] == sets
            for s, below in plan:
                assert [lower_sets[j] for j in below] == [s[:i] + s[i + 1 :] for i in range(k)]
        assert _int_compound(rows, k) == [[_int_minor(rows, s, c) for c in sets] for s in sets]


def _lcg_entries(seed):
    """Integers in -3..3 from a fixed linear congruential sequence: the same on every run and interpreter."""
    while True:
        seed = (seed * 1103515245 + 12345) % 2**31
        yield (seed >> 16) % 7 - 3


def _dense(n):
    entries = _lcg_entries(n)
    return [[next(entries) for _ in range(n)] for _ in range(n)]


def _upper(n):
    entries = _lcg_entries(n + 100)
    rows = [[next(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = 1 + i % 3
    return rows


def _spread(count):
    """The first and last of ``count`` indices and about six evenly spaced between."""
    return sorted({*range(0, count, max(1, count // 6)), count - 1})


# the default enumeration bound lets `analyze` build every order at n = 10..12, above the property's n <= 7;
# a sample of entries per order, since all of them at n = 12 are C(24, 12) ~ 2.7 million determinants
@pytest.mark.parametrize("n", [10, DEFAULT_ENUMERATION_GUARD])
@pytest.mark.parametrize("build", [_dense, _upper])
def test_laplace_rows_at_the_default_bound_equal_square_determinants(build, n):
    rows = build(n)
    # _int_compound(rows, k) is order k of this one walk
    orders = _int_compounds(rows)
    assert next(orders) == [[1]]
    for k, compound in enumerate(islice(orders, n), start=1):
        sets = list(combinations(range(n), k))
        assert len(compound) == len(sets) and all(len(row) == len(sets) for row in compound)
        for r in _spread(len(sets)):
            for c in _spread(len(sets)):
                assert compound[r][c] == _int_minor(rows, sets[r], sets[c])
    # every example is nonsingular, so the top order is a nonzero determinant
    assert compound == [[_bareiss_int([row[:] for row in rows])]] != [[0]]


@pytest.mark.parametrize("n", range(1, 8))
def test_the_row_kernel_binds_every_operand_entry_to_a_local(n):
    # a row reads each entry of a and b once; the list display names them a0.., b0..
    for k in range(1, n + 1):
        code = _laplace_kernel(n, k).__code__
        assert code.co_varnames[:2] == ("a", "b")
        assert code.co_nlocals == 2 + n + comb(n, k - 1)
