"""The integer grid of ``certify_positive_on_orthant`` against the Fraction grid it replaced.

The grid strategy now decides each sign at the integer point GRID_SCALE * x,
with every coefficient scaled to an integer by one positive factor, and
builds Fractions only for its witness. The reference is the Fraction loop in
``legacy_routes``; the certificates must be equal, witness point and value
included.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qscaling import CertificateVerdict, SparsePolynomial, certify_positive_on_orthant, symbolic_q_invariants
from qscaling.refute import HuntConfig, generate_candidates

from legacy_routes import grid_certificate_by_fractions

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

magnitudes = st.builds(
    lambda num, den, power: Fraction(num, den) * Fraction(10) ** power,
    st.integers(1, 9),
    st.sampled_from((1, 2, 3, 7)),
    st.integers(-2, 2),
)


@st.composite
def grid_polynomials(draw):
    """Rational, mostly non-homogeneous polynomials with one negative term.

    Up to five variables the epsilon patterns run, and from four on the
    GRID_BUDGET cut-off is reached; eleven variables skip the epsilon
    patterns.
    """
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 11)))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    terms = {e: draw(magnitudes) for e in draw(st.lists(exponents, max_size=5))}
    terms[draw(exponents)] = -draw(magnitudes)
    return SparsePolynomial(n, terms)


def reaches_grid(p: SparsePolynomial) -> bool:
    """Whether neither the coefficient test nor the two-variable quadratic decides p."""
    if p.is_zero or all(c > 0 for _, c in p.terms()):
        return False
    return not (p.n_vars == 2 and p.is_homogeneous(2))


# d1^2 - d1*d4 + d4^2/2 is positive (discriminant 1 - 2 < 0): the budget runs out
@example(SparsePolynomial(5, {(2, 0, 0, 0, 0): 1, (1, 0, 0, 1, 0): -1, (0, 0, 0, 2, 0): Fraction(1, 2)}))
# p_1 and p_2 of [[3, 0, 3], [-2, 4, 3], [4, -1, 2]], a quadratic form in d and
# (d1*d2*d3)^2 times one in 1/d, both with strictly copositive matrices, so
# positive on the orthant: the grid is skipped
@example(SparsePolynomial(3, {(2, 0, 0): 9, (1, 0, 1): 24, (0, 2, 0): 16, (0, 1, 1): -6, (0, 0, 2): 4}))
@example(
    SparsePolynomial(
        3,
        {(2, 2, 0): 144, (2, 1, 1): -90, (2, 0, 2): 36, (1, 2, 1): 336, (1, 1, 2): -96, (0, 2, 2): 121},
    )
)
# d1^2 + ... + d5^2 - d1*d4 is positive on the orthant: the grid is skipped
@example(
    SparsePolynomial(
        5, {(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1, (0, 0, 2, 0, 0): 1, (0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 2): 1, (1, 0, 0, 1, 0): -1}
    )
)
# (d11 - 10)^2 is zero at the sixth point, the fifth of the value grid: no
# epsilon patterns come first
@example(SparsePolynomial(11, {(0,) * 10 + (2,): 1, (0,) * 10 + (1,): -20, (0,) * 11: 100}))
@PROPERTY
@given(grid_polynomials())
def test_integer_grid_returns_the_fraction_grids_certificate(p):
    assume(reaches_grid(p))
    assert certify_positive_on_orthant(p) == grid_certificate_by_fractions(p)


def test_integer_grid_agrees_on_four_by_four_hunt_invariants():
    cfg = HuntConfig(dimension=4, entry_range=3, count=12, seed=0, budget=200)
    verdicts = []
    for candidate in generate_candidates(cfg):
        for p in symbolic_q_invariants(candidate):
            if reaches_grid(p):
                cert = certify_positive_on_orthant(p)
                assert cert == grid_certificate_by_fractions(p)
                verdicts.append(cert.verdict)
    assert verdicts.count(CertificateVerdict.NOT_POSITIVE) == 26
    assert verdicts.count(CertificateVerdict.INCONCLUSIVE) == 8


def test_non_homogeneous_witness_in_the_value_grid_is_pinned():
    # degree 3 down to 0, so each term is padded by its own power of GRID_SCALE;
    # the first point with p <= 0 is (10, 1, 100), deep in the value grid
    p = SparsePolynomial(
        3,
        {
            (1, 1, 1): Fraction(-1, 1000),
            (2, 0, 0): 1,
            (0, 2, 0): 1,
            (0, 0, 2): 1,
            (1, 0, 0): -20,
            (0, 1, 0): -1,
            (0, 0, 1): -200,
            (0, 0, 0): Fraction(80801, 8),
        },
    )
    cert = certify_positive_on_orthant(p)
    assert cert.verdict is CertificateVerdict.NOT_POSITIVE
    assert cert.evidence.point == (Fraction(10), Fraction(1), Fraction(100))
    assert cert.evidence.value == Fraction(-7, 8)
    assert cert.verify()
