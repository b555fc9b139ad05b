"""The symmetries of the question: A -> -A, A^T, S A S and P A P^T.

For S a +-1 diagonal and P a permutation, D(-A) squares to (DA)^2,
D A^T is similar to (D A)^T, D S A S = S (D A) S, and D P A P^T is
P (D' A) P^T with the diagonal D' relabelled. So every p_j is unchanged,
up to that relabelling of d for P A P^T. The certificate of each p_j is
decided from p_j alone, and every strategy is blind to the order of the
variables, so its verdict is unchanged too. The principal minors of A^2
and the minor pairs of the anti-sign scan move into each other, so the
P0+ verdict of A^2 and anti-sign symmetry are unchanged as well.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import (
    RationalMatrix,
    SparsePolynomial,
    certify_positive_on_orthant,
    classify,
    is_anti_sign_symmetric,
    mat_mul,
    symbolic_q_invariants,
)

from helpers import permutation_similarity

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
