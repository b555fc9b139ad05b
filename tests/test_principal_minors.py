"""The integer principal-minor enumerator against Leibniz determinants.

``principal_minors`` is the only place the package computes principal
minors; ``classify``, ``principal_minor_sums``, ``symbolic_q_invariants``
and ``sample_refute`` all read it. The references here are the Leibniz
determinant in ``oracles`` and a first-violation scan written against it.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qscaling import RationalMatrix, classify, principal_minor_sums
from qscaling.matrices import principal_minors

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
    q, scaled, by_order = principal_minors(matrix)
    denominators = [x.denominator for row in matrix.rows for x in row]
    assert all(q % d == 0 for d in denominators)
    assert scaled == [[q * x for x in row] for row in matrix.rows]
    assert by_order[0] == [((), 1)]
    listed = [(s, Fraction(v, q ** len(s))) for minors in by_order[1:] for s, v in minors]
    assert all(len(s) == k for k, minors in enumerate(by_order) for s, _ in minors)
    assert listed == oracle_minors(matrix)


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
