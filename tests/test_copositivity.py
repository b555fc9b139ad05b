"""Witnesses of non-positivity on the orthant, the Hadamard compounds M_j, and the draws they skip.

``_orthant_witness`` returns a z > 0 with z^T M z <= 0, or None when
x^T M x > 0 for every x > 0. Both of its halves read the adjugates of
principal submatrices B. When M is not copositive (the
Cottle-Habetler-Lemke criterion on integer minors) the witness is
adj(B) 1 for the failing B, lifted off the boundary; when M is
copositive and some z > 0 has M z = 0 it is the average of the vertices
of {z >= 0, M z = 0, sum z = 1}, each a nonzero row of adj(B) for a
singular B. The reference for copositivity is ``oracles.simplex_minimum``,
the exact minimum of the form on the simplex, and the reference for the
whole routine is ``legacy_routes.orthant_witness_by_cramer``, which solves
each vertex by Cramer's rule on a bordered system. p_j = z^T M_j z with z
the products of j of the d_i, and M_j = C_j(A) o C_j(A)^T is read from q*A
by ``legacy_routes._hadamard(_int_compound(q*A, j))``.
p_1 is a quadratic form in d and p_{n-1} is (prod d)^2 times one in 1/d, so
``_form_matrix`` also reads M_1 and, reordered, M_{n-1} from the polynomial's
integer numerators, as ``legacy_routes.form_matrix_by_fractions`` reads it from
its Fraction coefficients, together with the reading it chose, x = d or
x = 1/d; ``certify_positive_on_orthant`` turns a witness into a point d by
that reading, and decides every form through ``_orthant_witness``, which
``legacy_routes.certify_positive_on_orthant_by_two_rules`` holds it to.

For n <= 3 every p_j is p_1, p_{n-1} or p_n = det(A)^2 (prod d)^2, so the
certificates decide the hypothesis: when none of them is NOT_POSITIVE,
``sample_refute`` skips its draws and returns what they would, and
``evaluate_hypothesis`` never draws at all. The skip is held to the route it
replaced, ``legacy_routes.skips_sampling_by_compounds``, which tests the form
of every M_j of q*A; p_n = 0 (M_n = [[0]]) blocks it for a singular A.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscaling import (
    CertificateVerdict,
    DimensionGuardError,
    RationalMatrix,
    SparsePolynomial,
    certify_positive_on_orthant,
    evaluate_hypothesis,
    sample_refute,
    scaling,
    symbolic_q_invariants,
)
from qscaling.matrices import _int_compound, _scaled
from qscaling.scaling import _form_matrix, _orthant_witness

from legacy_routes import (
    _hadamard,
    certify_positive_on_orthant_by_two_rules,
    form_matrix_by_fractions,
    orthant_witness_by_cramer,
    sample_refute_by_fractions,
    skips_sampling_by_compounds,
)
from oracles import simplex_minimum

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

#: the matrix of tests/golden/q2_inconclusive_d3.txt: p_1 and p_2 are INCONCLUSIVE
Q2_INCONCLUSIVE_D3 = RationalMatrix(((3, 0, 3), (-2, 4, 3), (4, -1, 2)))

#: hunt candidates that reach sampling: HuntConfig(dimension=3, entry_range=5,
#: count=1, seed=k) for k = 2, 4, 19, 21
SAMPLED_HUNT_CANDIDATES = (
    RationalMatrix(((-5, -4, -4), (0, -3, 5), (-1, -1, 4))),
    RationalMatrix(((-2, -1, -4), (1, 2, -3), (-4, -4, -5))),
    RationalMatrix(((5, -5, 3), (-4, 3, -2), (1, 0, 3))),
    RationalMatrix(((-3, 1, 1), (5, -1, 2), (-2, 2, 3))),
)

#: the matrix of tests/golden/q2_psd_singular_d3.txt: p_1 = d1^2 + (2 d2 - d3)^2, so M_1 is
#: PSD and singular with kernel (0, 1, 2), and no positive vector lies in its kernel
PSD_SINGULAR_D3 = RationalMatrix(((1, -2, -2), (0, -2, -2), (0, 1, -1)))

SHORTCUT_MATRICES = (Q2_INCONCLUSIVE_D3, PSD_SINGULAR_D3) + SAMPLED_HUNT_CANDIDATES

#: HuntConfig(dimension=3, entry_range=5, count=1, seed=259): the forms of p_1 and p_2
#: fail copositivity, and both witnesses are lifted off the boundary
CANDIDATE_259 = RationalMatrix(((-5, 3, -4), (1, 4, 2), (5, -2, -4)))

#: the sampling skip also holds for 1x1 and 2x2 matrices, where certificates decide every p_j
SAMPLING_SHORTCUT_MATRICES = SHORTCUT_MATRICES + (
    RationalMatrix(((Fraction(-3, 2),),)),
    RationalMatrix(((Fraction(1, 2), 2), (-1, 5))),
)

#: det = 0 while the forms of M_1 and M_2 are positive: only M_3 = [[0]] blocks the skip
SINGULAR_D3 = RationalMatrix(((1, 1, -2), (0, -1, 1), (-2, 0, 2)))


def _symmetric(n: int, entry) -> list[list[int]]:
    return [[entry(i, k) for k in range(n)] for i in range(n)]


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices: free entries, B^T B (with kernels), B^T B + N with N >= 0, and +-v v^T.

    n <= 6, the largest form the default symbolic guard admits.
    """
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("entries", "gram", "gram_plus_nonnegative", "rank_one")))
    if kind == "entries":
        upper = {(i, k): draw(st.integers(-2, 9) if i == k else st.integers(-6, 6)) for i in range(n) for k in range(i, n)}
        return _symmetric(n, lambda i, k: upper[min(i, k), max(i, k)])
    if kind == "rank_one":
        v = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
        sign = draw(st.sampled_from((1, -1)))
        return _symmetric(n, lambda i, k: sign * v[i] * v[k])
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=n))
    extra = {(i, k): 0 for i in range(n) for k in range(i, n)}
    if kind == "gram_plus_nonnegative":
        extra = {key: draw(st.integers(0, 3)) for key in extra}
    return _symmetric(n, lambda i, k: sum(r[i] * r[k] for r in b) + extra[min(i, k), max(i, k)])


# a zero diagonal entry: x = e_1 gives 0 on the boundary, and every x > 0 a positive value
@example([[0, 1, 1], [1, 2, 1], [1, 1, 2]])
# m_12 = -sqrt(m_11 m_22): copositive, zero at (3, 2, 0) on the boundary
@example([[4, -6, 1], [-6, 9, 1], [1, 1, 1]])
# the kernel holds the positive vector (1, 1, 1): copositive, not positive
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
# det 0 and adj 0, yet (x1 + x2 + x3)^2 > 0
@example([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
# 2 (x1^2 + (2 x2 - x3)^2): PSD and singular, with the kernel (0, 1, 2) on the boundary
@example([[2, 0, 0], [0, 8, -4], [0, -4, 2]])
# the 1x1 zero form: its kernel vector is (1)
@example([[0]])
# not copositive at B = [[-1]]: (1, 0) is a boundary witness, and (2^t, 1) first goes negative at t = 4
@example([[-1, 0], [0, 100]])
@PROPERTY
@given(symmetric_matrices())
def test_orthant_witness_agrees_with_the_simplex_minimum(m):
    z = _orthant_witness(m)
    minimum = simplex_minimum(m)
    if z is None:
        # positive on the orthant: copositive, and positive at all-ones, one x > 0
        assert minimum >= 0
        assert sum(map(sum, m)) > 0
        return
    value = sum(x * entry * y for row, x in zip(m, z) for entry, y in zip(row, z))
    assert all(x > 0 for x in z)
    assert value <= 0
    if minimum < 0:
        assert value < 0
    else:
        # a zero of a copositive form at some z > 0 is a minimum, where the gradient 2 m z vanishes
        assert minimum == 0 and value == 0
        assert all(sum(entry * x for entry, x in zip(row, z)) == 0 for row in m)


#: M_1 of PSD_SINGULAR_D3, read from its p_1: the kernel (0, 1, 2) touches the boundary
PSD_SINGULAR_FORM, _ = _form_matrix(symbolic_q_invariants(PSD_SINGULAR_D3)[0])

#: (form, witness) pairs through the kernel branch, recorded with the Cramer route
KERNEL_BRANCH_CASES = (
    # every B is singular; the vertices are e_1, e_2, e_3
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (Fraction(1, 3),) * 3),
    ([[1, -1], [-1, 1]], (Fraction(1, 2),) * 2),
    # v v^T for v = (1, -1, 1, -1): the vertices are (1/2, 1/2) on the pairs of opposite sign
    ([[a * b for b in (1, -1, 1, -1)] for a in (1, -1, 1, -1)], (Fraction(1, 4),) * 4),
    # B = m[{1,2}, {1,2}] = 0 is singular with adj B = 0, and m has no positive kernel vector
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], None),
    # the one vertex e_2 leaves indices 1 and 3 uncovered
    ([[2, 0, 0], [0, 0, 0], [0, 0, 3]], None),
    (PSD_SINGULAR_FORM, None),
)


@st.composite
def kernel_leaning_forms(draw):
    """Symmetric integer matrices, most of them singular and copositive.

    B^T B with fewer rows than columns (rank < n), sometimes plus a
    zero-heavy N >= 0, and zero-heavy free entries; n <= 6, the largest
    form the default symbolic guard admits.
    """
    n = draw(st.integers(1, 6))
    small = st.sampled_from((0, 0, 0, 1, -1, 2, -2))
    kind = draw(st.sampled_from(("gram", "gram", "gram_plus_nonnegative", "entries")))
    if kind == "entries":
        upper = {(i, k): draw(small) for i in range(n) for k in range(i, n)}
        return _symmetric(n, lambda i, k: upper[min(i, k), max(i, k)])
    b = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=max(1, n - 1)))
    extra = {(i, k): 0 for i in range(n) for k in range(i, n)}
    if kind == "gram_plus_nonnegative":
        extra = {key: draw(st.sampled_from((0, 0, 0, 1, 2))) for key in extra}
    return _symmetric(n, lambda i, k: sum(r[i] * r[k] for r in b) + extra[min(i, k), max(i, k)])


@example(KERNEL_BRANCH_CASES[0][0])
@example(KERNEL_BRANCH_CASES[1][0])
@example(KERNEL_BRANCH_CASES[2][0])
@example(KERNEL_BRANCH_CASES[3][0])
@example(KERNEL_BRANCH_CASES[4][0])
@example(KERNEL_BRANCH_CASES[5][0])
@settings(PROPERTY, max_examples=500)
@given(kernel_leaning_forms())
def test_orthant_witness_equals_the_cramer_oracle(m):
    assert _orthant_witness(m) == orthant_witness_by_cramer(m)


@pytest.mark.parametrize("m, witness", KERNEL_BRANCH_CASES)
def test_kernel_branch_witnesses_are_pinned(m, witness):
    assert _orthant_witness(m) == witness


def _form(m: list[list[int]], inverse: bool) -> SparsePolynomial:
    """sum of m_ik x_i x_k with x = d, or (prod d)^2 times it with x = 1/d."""
    n = len(m)
    terms: dict[tuple[int, ...], int] = {}
    for i in range(n):
        for k in range(n):
            exponents = [0] * n
            exponents[i] += 1
            exponents[k] += 1
            key = tuple(2 - e if inverse else e for e in exponents)
            terms[key] = terms.get(key, 0) + m[i][k]
    return SparsePolynomial(n, terms)


entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 7)))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 5))
    return RationalMatrix(tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n)))


@example(Q2_INCONCLUSIVE_D3)
@example(RationalMatrix(((1, 2), (-1, 5))))
@settings(PROPERTY, max_examples=150)
@given(rational_matrices())
def test_forms_read_from_q_times_a_and_from_the_polynomial_agree(matrix):
    n = matrix.n
    polys = symbolic_q_invariants(matrix)
    q, scaled = _scaled(matrix)
    from_matrix = {1: _hadamard(_int_compound(scaled, 1))}
    assert _form(from_matrix[1], inverse=False) == polys[0] * q**2
    if n > 1:
        # the a-th (n-1)-subset in lexicographic order omits index n-1-a, the variable
        # whose reciprocal it carries in p_{n-1}
        from_matrix[n - 1] = [row[::-1] for row in _hadamard(_int_compound(scaled, n - 1))[::-1]]
        assert _form(from_matrix[n - 1], inverse=True) == polys[n - 2] * q ** (2 * n - 2)
    for j, p in enumerate(polys, start=1):
        read = _form_matrix(p)
        if p.is_zero or j not in from_matrix:
            # the middle orders, p_n (for n > 1) and zero polynomials have no form
            assert read is None
            continue
        # p_1 is read in d, also at n = 2 where p_1 is p_{n-1}, and p_{n-1} for n > 2 in 1/d
        read, inverse = read
        assert inverse == (j > 1)
        # a positive multiple of p, and a positive multiple of the matrix read from q*A
        rebuilt = _form(read, inverse=inverse)
        exponents, coefficient = rebuilt.terms()[0]
        ratio = coefficient / p.coefficient(exponents)
        assert ratio > 0 and p * ratio == rebuilt
        assert (_orthant_witness(read) is None) == (_orthant_witness(from_matrix[j]) is None)


def _read_by_fractions(p: SparsePolynomial) -> tuple[list[list[int]], bool] | None:
    """``form_matrix_by_fractions`` with its reading: x = d for a quadratic form, else x = 1/d."""
    m = form_matrix_by_fractions(p)
    return None if m is None else (m, not p.is_homogeneous(2))


# q = 42, and p_1 is INCONCLUSIVE
@example(RationalMatrix(((Fraction(1, 2), -3, 0), (Fraction(2, 3), 1, Fraction(-5, 7)), (4, Fraction(1, 3), 2))))
@example(RationalMatrix(((0, 0), (0, Fraction(1, 2)))))
@settings(PROPERTY, max_examples=150)
@given(rational_matrices().filter(lambda m: m.n > 1))
def test_form_matrix_read_from_numerators_equals_the_fraction_route(matrix):
    """The numerators over p's denominator are the integers the lcm of its Fraction denominators gives."""
    assume(_scaled(matrix)[0] > 1)
    polys = symbolic_q_invariants(matrix)
    for j in {1, matrix.n - 1}:
        assert _form_matrix(polys[j - 1]) == _read_by_fractions(polys[j - 1])
    assert all(certify_positive_on_orthant(p).verify() for p in polys)


@st.composite
def polynomials_near_forms(draw):
    """Polynomials in 1..5 variables: a quadratic form in d, (prod d)^2 times one in 1/d, or a mix of
    their exponents and any other with entries up to 3, so of mixed degrees."""
    n = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    by_d = pairs.map(lambda ik: tuple((i == ik[0]) + (i == ik[1]) for i in range(n)))
    by_inverse = by_d.map(lambda e: tuple(2 - k for k in e))
    mixed = st.one_of(by_d, by_inverse, st.tuples(*[st.integers(0, 3)] * n))
    exponents = draw(st.sampled_from((by_d, by_inverse, mixed)))
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return SparsePolynomial(n, draw(st.dictionaries(exponents, coefficients, max_size=8)))


# n = 1: the constant c is (d)^2 times c (1/d)^2, so its form is [[2c]]; a constant beside d^2 has none
@example(SparsePolynomial(1, {(0,): Fraction(3, 2)}))
@example(SparsePolynomial(1, {(0,): Fraction(3), (2,): Fraction(1)}))
# n = 2: both readings apply, and x = d is the one taken
@example(SparsePolynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-3), (0, 2): Fraction(2, 5)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(1)}))
# n = 3: p_{n-1}'s degree with an exponent of 3 has no form
@example(SparsePolynomial(3, {(2, 2, 0): Fraction(1), (3, 1, 0): Fraction(1)}))
@example(SparsePolynomial(3, {(2, 2, 0): Fraction(1), (2, 1, 1): Fraction(-1, 3), (1, 1, 0): Fraction(1)}))
@example(SparsePolynomial(4, {}))
@settings(PROPERTY, max_examples=150)
@given(polynomials_near_forms())
def test_form_matrix_of_any_polynomial_equals_the_fraction_route(p):
    assert _form_matrix(p) == _read_by_fractions(p)


@st.composite
def two_variable_forms(draw):
    """a*d1^2 + b*d1*d2 + c*d2^2 with rational a, c and b <= 0, so most reach the form route."""
    a, b, c = draw(entries), -abs(draw(entries)), draw(entries)
    return SparsePolynomial(2, {(2, 0): a, (1, 1): b, (0, 2): c})


# a = 0, c = 0, b^2 = 4ac, then entries of size 2^600: a positive form, a failing one, and a < 0
@example(SparsePolynomial(2, {(1, 1): Fraction(-1), (0, 2): Fraction(1)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-3)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(3), (1, 1): Fraction(-12), (0, 2): Fraction(12)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(2**600), (1, 1): Fraction(-(2**600)), (0, 2): Fraction(2**600)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(1), (1, 1): Fraction(-(2**600)), (0, 2): Fraction(1)}))
@example(SparsePolynomial(2, {(2, 0): Fraction(-1), (1, 1): Fraction(2**600), (0, 2): Fraction(1)}))
# a positive form in 1/d at n = 3, which stays INCONCLUSIVE, and the zero polynomial
@example(SparsePolynomial(3, {(2, 2, 0): Fraction(1), (2, 1, 1): Fraction(-1), (2, 0, 2): Fraction(1)}))
@example(SparsePolynomial(3, {}))
@settings(PROPERTY, max_examples=400)
@given(st.one_of(polynomials_near_forms().filter(lambda p: p.n_vars <= 4), two_variable_forms()))
def test_one_form_route_certifies_as_the_two_rules_did(p):
    assert certify_positive_on_orthant(p) == certify_positive_on_orthant_by_two_rules(p)


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(1, 4))
    return RationalMatrix(tuple(tuple(draw(st.integers(-5, 5)) for _ in range(n)) for _ in range(n)))


@example(RationalMatrix(((1, 2), (-1, 5))))
@example(CANDIDATE_259)
@example(PSD_SINGULAR_D3)
@settings(PROPERTY, max_examples=150)
@given(integer_matrices())
def test_one_form_route_certifies_every_pj_as_the_two_rules_did(matrix):
    for p in symbolic_q_invariants(matrix):
        assert certify_positive_on_orthant(p) == certify_positive_on_orthant_by_two_rules(p)


class _Drew(AssertionError):
    """Raised in place of ``random.Random``: the sampling loop was about to draw."""


def _raise(*args, **kwargs):
    raise _Drew("the search ran although the certificates rule out a witness")


@pytest.mark.parametrize("matrix", SAMPLING_SHORTCUT_MATRICES)
def test_sampling_shortcut_draws_nothing_and_agrees_with_the_fraction_loop(matrix, monkeypatch):
    expected = sample_refute_by_fractions(matrix, budget=60, seed=5, exponent_range=3)
    assert expected is None
    monkeypatch.setattr(scaling.random, "Random", _raise)
    assert sample_refute(matrix, budget=500, seed=5) is None


def test_singular_matrix_blocks_the_sampling_shortcut():
    _, scaled = _scaled(SINGULAR_D3)
    witnesses = [_orthant_witness(_hadamard(_int_compound(scaled, j))) for j in (1, 2, 3)]
    assert witnesses == [None, None, (Fraction(1),)]
    # p_3 = det(A)^2 (prod d)^2 vanishes, so the first draw is a witness
    expected = sample_refute_by_fractions(SINGULAR_D3, budget=60, seed=5, exponent_range=3)
    assert expected is not None
    assert sample_refute(SINGULAR_D3, budget=60, seed=5) == expected


@st.composite
def small_matrices(draw):
    """1x1 to 3x3 matrices, with integer entries or with rational ones."""
    n = draw(st.integers(1, 3))
    cell = draw(st.sampled_from((st.integers(-5, 5), entries)))
    return RationalMatrix(tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n)))


ZERO_MATRICES = tuple(RationalMatrix(((0,) * n,) * n) for n in (1, 2, 3))


@example(SINGULAR_D3)
@example(PSD_SINGULAR_D3)
@example(ZERO_MATRICES[0])
@example(ZERO_MATRICES[1])
@example(ZERO_MATRICES[2])
@example(RationalMatrix(((1, 2), (-1, 5))))
@example(SAMPLING_SHORTCUT_MATRICES[-1])
@PROPERTY
@given(small_matrices())
def test_sampling_shortcut_skips_exactly_where_every_compound_form_is_positive(matrix):
    # monkeypatch is a function-scoped fixture, which Hypothesis rejects under @given
    with patch.object(scaling.random, "Random", _raise):
        try:
            skipped = sample_refute(matrix, budget=1) is None
        except _Drew:
            skipped = False
    assert skipped == skips_sampling_by_compounds(matrix)


@example(SINGULAR_D3)
@example(PSD_SINGULAR_D3)
@example(Q2_INCONCLUSIVE_D3)
@example(ZERO_MATRICES[0])
@example(ZERO_MATRICES[1])
@example(ZERO_MATRICES[2])
@example(RationalMatrix(((Fraction(-3, 2),),)))
@PROPERTY
@given(small_matrices())
def test_evaluate_hypothesis_never_draws_below_dimension_4(matrix):
    with patch.object(scaling.random, "Random", _raise):
        evaluate_hypothesis(matrix)


@pytest.mark.parametrize("matrix", SHORTCUT_MATRICES + (CANDIDATE_259,))
def test_every_certificate_verifies(matrix):
    certs = [certify_positive_on_orthant(p) for p in symbolic_q_invariants(matrix)]
    assert all(cert.verify() for cert in certs)
    refuted = [cert.verdict is CertificateVerdict.NOT_POSITIVE for cert in certs]
    # the forms of p_1 and p_2 are positive on the orthant, except for candidate 259
    assert refuted == ([True, True, False] if matrix is CANDIDATE_259 else [False, False, False])


def test_boundary_witness_is_lifted_by_doubling():
    # B = [[-1]] gives (1, 0); (2^t, 1) has the value 100 - 4^t, first negative at t = 4
    assert _orthant_witness([[-1, 0], [0, 100]]) == (16, 1)


def test_copositivity_witness_of_candidate_259_is_pinned():
    p1 = symbolic_q_invariants(CANDIDATE_259)[0]
    cert = certify_positive_on_orthant(p1)
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    assert cert.evidence.point == (580, 72, 739)
    assert cert.evidence.value == -89024
    assert cert.verify()


def test_guards_raise_before_the_sampling_shortcut(monkeypatch):
    monkeypatch.setattr(scaling.random, "Random", _raise)
    with pytest.raises(ValueError, match="budget"):
        sample_refute(Q2_INCONCLUSIVE_D3, budget=0)
    with pytest.raises(ValueError, match="exponent_range"):
        sample_refute(Q2_INCONCLUSIVE_D3, exponent_range=-1)
    with pytest.raises(DimensionGuardError):
        sample_refute(Q2_INCONCLUSIVE_D3, max_dim=2)
