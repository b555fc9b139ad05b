import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import COUNTEREXAMPLE_MATRIX, SparsePolynomial, verify_refutation

from legacy_routes import evaluate_by_terms

# fixed example order, so a run never depends on a saved example database
PROPERTY = settings(derandomize=True, database=None, deadline=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


def p_ref():
    # d1^2 - 4*d1*d2 + 25*d2^2
    return SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})


def test_construction_drops_zero_coefficients():
    p = SparsePolynomial(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms() == (((0, 1), Fraction(3)),)
    assert SparsePolynomial(2, {(1, 1): 0}).is_zero


def test_construction_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(0)
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(-1, 0): 1})
    for coeff in (0.5, True):
        with pytest.raises(TypeError):
            SparsePolynomial(2, {(1, 0): coeff})
    # exponents that are not ints: truncating {(1.5, 0.7): 1} would give d1
    for exponents in ((1.5, 0.7), (2.0, 0), ("1", 0), (True, 0)):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {exponents: 1})


def test_canonical_text():
    assert p_ref().to_text() == "1*d1^2 - 4*d1*d2 + 25*d2^2"
    assert SparsePolynomial(2, {(2, 2): 49}).to_text() == "49*d1^2*d2^2"
    assert SparsePolynomial.zero(3).to_text() == "0"
    assert SparsePolynomial.constant(2, -3).to_text() == "-3"
    mixed = SparsePolynomial(1, {(2,): 1, (1,): 1, (0,): 1})
    assert mixed.to_text() == "1*d1^2 + 1*d1 + 1"
    negative_lead = SparsePolynomial(2, {(1, 1): -1, (0, 2): -5})
    assert negative_lead.to_text() == "-1*d1*d2 - 5*d2^2"


def test_natural_text():
    form = SparsePolynomial(2, {(1, 0): 1, (0, 1): -2})
    assert form.to_natural_text() == "d1 - 2*d2"
    assert SparsePolynomial(2, {(0, 1): 1}).to_natural_text() == "d2"


def test_graded_lexicographic_order():
    p = SparsePolynomial(2, {(0, 2): 1, (1, 0): 1, (3, 0): 1})
    exponents = [e for e, _ in p.terms()]
    assert exponents == [(3, 0), (0, 2), (1, 0)]


def test_arithmetic_against_evaluation():
    rng = random.Random(404)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return SparsePolynomial(2, terms)

    for _ in range(50):
        p, q = random_poly(), random_poly()
        point = (Fraction(rng.randint(1, 9), rng.randint(1, 5)), Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p * 3).evaluate(point) == 3 * p.evaluate(point)
        assert (-p).evaluate(point) == -p.evaluate(point)


def test_homogeneity_helpers():
    assert p_ref().is_homogeneous(2)
    assert not p_ref().is_homogeneous(3)
    assert SparsePolynomial.zero(2).is_homogeneous(7)
    assert not SparsePolynomial(1, {(1,): 1, (0,): 1}).is_homogeneous(1)


def test_evaluate_validates_arity():
    with pytest.raises(ValueError):
        p_ref().evaluate((1,))


@st.composite
def polynomials_and_points(draw):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, rationals, max_size=6))
    point = draw(st.lists(rationals, min_size=n, max_size=n))
    return SparsePolynomial(n, terms), point


def point_of(*pairs):
    return [Fraction(*pair) for pair in pairs]


@example((SparsePolynomial.zero(2), point_of((1, 2), (3, 5))))
@example((SparsePolynomial.constant(3, Fraction(-7, 4)), point_of((1, 3), (2, 1), (5, 7))))
# degrees 3, 1 and 0 in one polynomial
@example((SparsePolynomial(2, {(2, 1): Fraction(2, 3), (0, 1): -5, (0, 0): Fraction(1, 6)}), point_of((3, 4), (5, 2))))
@example((p_ref(), point_of((-3, 1), (-1, 2))))
@example((SparsePolynomial(3, {(1, 1, 0): 1, (0, 1, 2): Fraction(-3, 8), (2, 0, 1): 4}), point_of((1, 2), (2, 3), (4, 9))))
@PROPERTY
@given(polynomials_and_points())
def test_evaluate_equals_per_term_fraction_loop(case):
    p, point = case
    assert p.evaluate(point) == evaluate_by_terms(p, point)


@st.composite
def polynomials_and_integer_points(draw):
    """(p, xs, d): a polynomial, integer coordinates and a common denominator, often 1."""
    n = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), rationals, max_size=6))
    xs = draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n))
    return SparsePolynomial(n, terms), xs, draw(st.sampled_from((1, 1, 2, 7, 12)))


# mixed degrees at d = 1, where no power of d is taken, and at d = 6
@example((SparsePolynomial(2, {(2, 1): Fraction(2, 3), (0, 1): -5, (0, 0): Fraction(1, 6)}), [3, -4], 1))
@example((SparsePolynomial(2, {(2, 1): Fraction(2, 3), (0, 1): -5, (0, 0): Fraction(1, 6)}), [3, -4], 6))
@example((SparsePolynomial.zero(3), [1, 2, 3], 5))
@PROPERTY
@given(polynomials_and_integer_points())
def test_value_at_integers_over_a_denominator_equals_per_term_fraction_loop(case):
    # the one integer sum behind evaluate, and behind the witness values of the certificates
    p, xs, d = case
    value = p._value_at(xs, d)
    assert type(value) is Fraction and value == evaluate_by_terms(p, [Fraction(x, d) for x in xs])


@st.composite
def numerators_over_a_denominator(draw):
    """(n, numerators, den, point): nonzero ints over den > 0, often sharing a factor with it."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    values = draw(st.dictionaries(exponents, st.integers(-12, 12).filter(bool), max_size=6))
    den = draw(st.integers(1, 12))
    factor = draw(st.sampled_from((1, 2, 3, 6, 12)))
    point = draw(st.lists(rationals.filter(bool), min_size=n, max_size=n))
    return n, {e: v * factor for e, v in values.items()}, den * factor, point


def _canonical_key(term):
    exponents = term[0]
    return sum(exponents), exponents


def _in_canonical_order(p):
    keys = [_canonical_key(t) for t in p.terms()]
    return keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)


def _all_fractions(*values):
    return all(type(c) is Fraction for c in values)


# the zero p_2 of the singular [[0, 0], [0, 1/2]], whose q = 2: kept over q^4 it would
# not equal the zero polynomial that the public constructor builds
@example((2, {}, 16, point_of((1, 2), (3, 1))))
# 6/8 and -4/8 share 2 with 8: stored as 3/4 and -1/2, over 4
@example((2, {(2, 0): 6, (0, 2): -4}, 8, point_of((1, 1), (2, 3))))
@example((1, {(0,): 5}, 5, point_of((7, 2))))
@PROPERTY
@given(numerators_over_a_denominator())
def test_internal_constructor_is_in_lowest_terms_and_reads_as_the_public_one(case):
    n, numerators, den, point = case
    # the internal constructor takes its terms in canonical order, as its callers build them
    internal = SparsePolynomial._from_terms(n, dict(sorted(numerators.items(), key=_canonical_key, reverse=True)), den)
    public = SparsePolynomial(n, {e: Fraction(v, den) for e, v in numerators.items()})
    assert internal == public
    # lowest terms; the zero polynomial over 1
    assert gcd(internal._den, *internal._terms.values()) == 1 and internal._den > 0
    assert internal._den == 1 or not internal.is_zero
    for p in (internal, public):
        terms = p.terms()
        assert terms == internal.terms() and _in_canonical_order(p)
        assert _all_fractions(*(c for _, c in terms))
        # (9, ...) lies past every drawn exponent, so it is absent
        for exponents in [e for e, _ in terms] + [(9,) * n]:
            coefficient = p.coefficient(exponents)
            assert _all_fractions(coefficient) and coefficient == internal.coefficient(exponents)
        if terms:
            lead = p.leading_term()
            assert lead == terms[0] and _all_fractions(lead[1])
        value = p.evaluate(point)
        assert _all_fractions(value) and value == evaluate_by_terms(internal, point)
        for degree in {sum(e) for e in numerators} | {0, 7}:
            assert p.is_homogeneous(degree) == internal.is_homogeneous(degree)
        assert p.has_positive_coefficients() == all(v > 0 for v in numerators.values())


@st.composite
def polynomial_pairs(draw):
    n = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), rationals, max_size=6)
    return SparsePolynomial(n, draw(terms)), SparsePolynomial(n, draw(terms))


# the right operand's term of degree 2 goes before the left one's of degree 1
@example((SparsePolynomial(2, {(1, 0): 1}), SparsePolynomial(2, {(2, 0): Fraction(1, 2), (0, 0): 3})), Fraction(2, 3))
@PROPERTY
@given(polynomial_pairs(), rationals)
def test_every_operation_stores_its_terms_in_canonical_order(pair, factor):
    p, r = pair
    for result in (p, -p, p * factor, p + factor, p + r, p - r, p * r):
        assert _in_canonical_order(result)
        assert result.is_zero or result.leading_term() == result.terms()[0]


def test_a_polynomial_is_immutable():
    p = SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25})
    for name, value in (("n_vars", 3), ("_terms", {}), ("_den", 2), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, value)
    for name in ("n_vars", "_terms", "_den"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(p, name)
    assert p.n_vars == 2 and p.evaluate((1, 1)) == 22
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        p.evaluate((1, 1, 1))


def test_a_polynomial_survives_pickle_and_deepcopy_and_hashes_as_it_compares():
    polynomials = [
        SparsePolynomial(2, {(2, 0): 1, (1, 1): -4, (0, 2): 25}),
        SparsePolynomial(3, {(1, 0, 0): Fraction(3, 4), (0, 0, 1): Fraction(-1, 6)}),
        SparsePolynomial.zero(1),
    ]
    for p in polynomials:
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(twin) is SparsePolynomial and twin == p and hash(twin) == hash(p)
            assert twin.to_text() == p.to_text() and twin._den == p._den
    # equal however they were built: by the public constructor, or by arithmetic
    assert hash(SparsePolynomial(1, {(1,): Fraction(1, 2)})) == hash(SparsePolynomial(1, {(1,): 1}) * Fraction(1, 2))
    assert len(set(polynomials + [copy.deepcopy(q) for q in polynomials])) == 3


def test_equal_reports_hash_equal():
    # frozen dataclasses all the way down, polynomials included
    report, again = verify_refutation(COUNTEREXAMPLE_MATRIX), verify_refutation(COUNTEREXAMPLE_MATRIX)
    assert report == again and hash(report) == hash(again)
    assert hash(report.hypothesis) == hash(again.hypothesis)
    assert {hash(c) for c in report.certificates} == {hash(c) for c in again.certificates}
