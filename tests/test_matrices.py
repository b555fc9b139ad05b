import copy
import pickle
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscaling import (
    DimensionGuardError,
    IndexSet,
    MatrixParseError,
    RationalMatrix,
    compound,
    determinant,
    index_sets,
    mat_mul,
    matrix_from_dict,
    matrix_to_dict,
    minor,
    parse_matrix,
    parse_rational,
    render_matrix,
    zero_rows_outside,
)
from qscaling import matrices as matrices_module
from qscaling.matrices import _bareiss_int, _coerce_rational, _int_minor, _int_product, _scaled

from helpers import random_rational_matrix
from legacy_routes import int_product_by_columns
from oracles import brute_force_minor, leibniz_determinant, list_matmul, two_by_two_determinant

A_REF = RationalMatrix(((1, 2), (-1, 5)))
M_335 = RationalMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10)))


# -- rational tokens ---------------------------------------------------------


@pytest.mark.parametrize(
    "token,value",
    [("7", Fraction(7)), ("-3", Fraction(-3)), ("1/2", Fraction(1, 2)), ("-9/6", Fraction(-3, 2)), ("0", Fraction(0))],
)
def test_parse_rational(token, value):
    assert parse_rational(token) == value


@pytest.mark.parametrize("token", ["", "3/-4", "1.5", "+-2", "a", "3/0", "1e3", "2 /3"])
def test_parse_rational_rejects(token):
    with pytest.raises(ValueError):
        parse_rational(token)


# -- index sets --------------------------------------------------------------


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(3, (2, 2))
    with pytest.raises(ValueError):
        IndexSet(3, (3, 1))
    with pytest.raises(ValueError):
        IndexSet(3, (4,))
    # members that are not ints: truncating them would read (1.9, 2.5) as
    # {1,2}, ("2",) as {2}, and turn the minor below into the (1|2) minor
    for members in ((1.9, 2.5), ("2",), (True,), (Fraction(2),)):
        with pytest.raises(ValueError):
            IndexSet(3, members)
    with pytest.raises(ValueError):
        minor(A_REF, IndexSet(2, (1.9,)), IndexSet(2, (2.2,)))
    assert IndexSet.of(4, 3, 1).members == (1, 3)
    assert IndexSet(3, [1, 3]).members == (1, 3)


def test_index_sets_enumerate_lexicographically():
    for n in range(1, 7):
        for k in range(0, n + 1):
            members = [s.members for s in index_sets(n, k)]
            assert members == sorted(members)
            assert len(set(members)) == len(members) == comb(n, k)


# -- minors and determinants -------------------------------------------------


def test_minor_reference_values():
    assert minor(A_REF, IndexSet.of(2, 1, 2), IndexSet.of(2, 1, 2)) == 7
    identity = RationalMatrix.identity(3)
    assert minor(identity, IndexSet.of(3, 1, 3), IndexSet.of(3, 1, 3)) == 1


def test_minor_against_two_by_two_oracle():
    # rows {1,2} x cols {2,3} of M_335 is [[2,3],[5,6]]
    expected = two_by_two_determinant([[Fraction(2), Fraction(3)], [Fraction(5), Fraction(6)]])
    assert expected == Fraction(-3)
    assert minor(M_335, IndexSet.of(3, 1, 2), IndexSet.of(3, 2, 3)) == expected


def test_minor_order_zero_convention():
    empty = IndexSet(2, ())
    assert minor(A_REF, empty, empty) == 1
    # the kernel owns the convention: the empty matrix has determinant 1
    _, scaled = _scaled(A_REF)
    assert _int_minor(scaled, (), ()) == 1


@st.composite
def square_int_matrices(draw):
    """A k x k integer matrix, 0 <= k <= 6; entries in [-2, 2] are often 0, so pivots are often missing."""
    k = draw(st.integers(0, 6))
    return [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(square_int_matrices())
@example([])  # the empty matrix: determinant 1
def test_bareiss_returns_the_determinant(rows):
    k = len(rows)
    assert _bareiss_int([row[:] for row in rows]) == brute_force_minor(rows, range(k), range(k))


def test_minor_errors():
    with pytest.raises(ValueError):
        minor(A_REF, IndexSet.of(2, 1), IndexSet.of(2, 1, 2))
    with pytest.raises(ValueError):
        minor(A_REF, IndexSet.of(5, 1, 3), IndexSet.of(5, 1, 3))


def test_determinant_reference_values():
    assert determinant(A_REF) == 7
    assert determinant(RationalMatrix.identity(6)) == 1
    expected = leibniz_determinant([list(row) for row in M_335.rows])
    assert expected == Fraction(-3)
    assert determinant(M_335) == expected


def test_determinant_matches_cofactor_and_leibniz():
    rng = random.Random(1001)
    for n in range(1, 6):
        for _ in range(8):
            m = random_rational_matrix(rng, n)
            assert determinant(m) == leibniz_determinant([list(row) for row in m.rows])


def test_determinant_singular():
    singular = RationalMatrix(((1, 2), (2, 4)))
    assert determinant(singular) == 0


# -- compound matrices ---------------------------------------------------------


def test_compound_reference_values():
    top = compound(A_REF, 2)
    assert top.entries.rows == ((Fraction(7),),)
    identity = RationalMatrix.identity(4)
    for j in range(1, 5):
        assert compound(identity, j).entries == RationalMatrix.identity(comb(4, j))


def test_compound_entries_match_minor_oracle():
    rng = random.Random(2002)
    m = random_rational_matrix(rng, 3)
    c = compound(m, 2)
    rows = [list(row) for row in m.rows]
    sets = list(index_sets(3, 2))
    for a, alpha in enumerate(sets):
        for b, beta in enumerate(sets):
            expected = brute_force_minor(rows, alpha.zero_based(), beta.zero_based())
            assert c.entries.rows[a][b] == expected
            assert minor(m, alpha, beta) == expected


def test_compound_edge_orders():
    rng = random.Random(2003)
    for n in range(1, 5):
        m = random_rational_matrix(rng, n)
        assert compound(m, 1).entries == m
        assert compound(m, n).entries.rows == ((determinant(m),),)


def test_compound_multiplicativity():
    rng = random.Random(2004)
    for n in range(2, 5):
        for _ in range(5):
            a = random_rational_matrix(rng, n)
            b = random_rational_matrix(rng, n)
            ab = mat_mul(a, b)
            for k in range(1, n + 1):
                left = compound(ab, k).entries
                right = mat_mul(compound(a, k).entries, compound(b, k).entries)
                assert left == right


def test_sylvester_franke():
    rng = random.Random(2005)
    for n in range(2, 6):
        m = random_rational_matrix(rng, n)
        d = determinant(m)
        for k in range(1, n + 1):
            assert determinant(compound(m, k).entries) == d ** comb(n - 1, k - 1)


def test_compound_guard():
    with pytest.raises(ValueError):
        compound(A_REF, 3)
    big = RationalMatrix.identity(13)
    with pytest.raises(DimensionGuardError):
        compound(big, 2)
    # the guard is configurable
    assert compound(big, 1, max_dim=13).entries == big


# -- products and row truncation ------------------------------------------------


def test_mat_mul_reference_values():
    assert mat_mul(A_REF, A_REF) == RationalMatrix(((-1, 12), (-6, 23)))
    identity = RationalMatrix.identity(3)
    m = RationalMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    assert mat_mul(identity, m) == m
    scaled = A_REF.scale_rows((Fraction(2), Fraction(3)))
    assert scaled == RationalMatrix(((2, 4), (-3, 15)))
    assert scaled == mat_mul(RationalMatrix.diagonal((2, 3)), A_REF)


@st.composite
def operand_pairs(draw):
    """Two n x n matrices whose entries draw their denominators from different sets."""
    n = draw(st.integers(1, 5))

    def operand(denominators):
        entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denominators))
        return RationalMatrix(tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n)))

    return operand((1, 2, 3, 7)), operand((1, 4, 5, 9, 11))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(operand_pairs())
def test_mat_mul_matches_the_fraction_product(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert [list(row) for row in product.rows] == list_matmul(a.rows, b.rows)
    assert all(type(x) is Fraction for row in product.rows for x in row)


def test_square_clears_denominators_once(monkeypatch):
    calls = []
    monkeypatch.setattr(matrices_module, "_scaled", lambda m: calls.append(m) or _scaled(m))
    a = RationalMatrix(((Fraction(1, 2), 3), (Fraction(-2, 3), 1)))
    assert mat_mul(a, a) == RationalMatrix(((-Fraction(7, 4), Fraction(9, 2)), (-1, -1)))
    assert calls == [a]
    mat_mul(a, RationalMatrix(a.rows))
    assert len(calls) == 3


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(A_REF, RationalMatrix.identity(3))


#: integer entries the product kernel must carry exactly: zero, small of either sign, and past 2^64
_PRODUCT_ENTRIES = st.one_of(
    st.integers(-9, 9), st.integers(2**64, 2**72), st.integers(-(2**72), -(2**64))
)


@st.composite
def integer_operand_pairs(draw):
    """Two n x n integer matrices, n = 1..8, each given as tuple rows or list rows; sometimes one object twice."""
    n = draw(st.integers(1, 8))

    def operand():
        rows = [[draw(_PRODUCT_ENTRIES) for _ in range(n)] for _ in range(n)]
        return rows if draw(st.booleans()) else tuple(map(tuple, rows))

    a = operand()
    return a, (a if draw(st.booleans()) else operand())


def _assert_fresh_product(a, b):
    """``_int_product(a, b)`` equals the column loop, as n fresh lists that share nothing with the operands."""
    expected = int_product_by_columns(a, b)
    product = _int_product(a, b)
    assert product == expected
    assert type(product) is list and len(product) == len(a)
    assert all(type(row) is list for row in product)
    operands = [row for operand in (a, b) for row in operand]
    assert not any(row is other for row in product for other in operands)
    assert len({id(row) for row in product}) == len(product)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_operand_pairs())
@example(([[0]], [[0]]))
@example((((2**64 + 1, -3), (0, -(2**70))), [[-(2**65), 7], [1, 0]]))
def test_the_product_kernel_matches_the_column_loop(pair):
    _assert_fresh_product(*pair)


@pytest.mark.parametrize("n", [12, 20, 40])
def test_the_product_kernel_matches_the_column_loop_past_the_strategy(n):
    # the property stops at n = 8; one kernel serves every n, with no size cap
    rng = random.Random(n)
    a = tuple(tuple(rng.randint(-(2**66), 2**66) for _ in range(n)) for _ in range(n))
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    _assert_fresh_product(a, b)
    _assert_fresh_product(b, b)


def test_a_product_row_can_be_changed_without_touching_anything_else():
    # generate_candidates adds the identity to B^T B in place
    a = [[1, 2, 0], [-1, 5, 3], [4, 0, -2]]
    b = tuple(map(tuple, a))
    before = _int_product(a, b)
    product = _int_product(a, b)
    product[0][0] += 1
    product[2].append(7)
    assert a == [list(row) for row in b] == [[1, 2, 0], [-1, 5, 3], [4, 0, -2]]
    assert before == int_product_by_columns(a, b) != product
    assert _int_product(a, b) == before


def test_zero_rows_outside():
    rng = random.Random(2006)
    m = random_rational_matrix(rng, 3)
    truncated = zero_rows_outside(m, IndexSet.of(3, 1, 2))
    assert truncated.rows[0] == m.rows[0]
    assert truncated.rows[1] == m.rows[1]
    assert all(e == 0 for e in truncated.rows[2])

    assert zero_rows_outside(m, IndexSet.of(3, 1, 2, 3)) == m
    assert zero_rows_outside(RationalMatrix.identity(3), IndexSet.of(3, 1)) == RationalMatrix.diagonal((1, 0, 0))
    with pytest.raises(ValueError):
        zero_rows_outside(m, IndexSet(3, ()))


# -- matrix formats ---------------------------------------------------------------


def test_parse_matrix_reference():
    text = "2\n1 2\n-1 5\n"
    assert parse_matrix(text) == A_REF
    assert render_matrix(A_REF) == text


def test_text_round_trip_bit_exact():
    rng = random.Random(3007)
    for n in (1, 2, 4):
        for _ in range(10):
            m = random_rational_matrix(rng, n, num_bound=50, den_bound=7)
            assert parse_matrix(render_matrix(m)) == m


def test_dict_round_trip_bit_exact():
    rng = random.Random(3008)
    for n in (1, 3, 5):
        m = random_rational_matrix(rng, n, num_bound=50, den_bound=7)
        doc = matrix_to_dict(m)
        assert matrix_from_dict(doc) == m


def test_parse_matrix_errors_carry_positions():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1 2\n-1\n")
    assert err.value.line == 3

    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1 x\n-1 5\n")
    assert err.value.line == 2
    assert err.value.column == 3

    with pytest.raises(MatrixParseError):
        parse_matrix("")
    with pytest.raises(MatrixParseError):
        parse_matrix("zero\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("1\n5\nextra\n")

    # digits outside ASCII: "²" is a digit to str.isdigit but not to int(),
    # and "٣" (Arabic-Indic three) would be read as 3
    for header in ("²", "٣"):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(f"{header}\n1 2 3\n4 5 6\n7 8 9\n")
        assert (err.value.line, err.value.column) == (1, 1)


def test_matrix_from_dict_errors():
    with pytest.raises(MatrixParseError):
        matrix_from_dict({"n": 2, "rows": [["1", "2"]]})
    with pytest.raises(MatrixParseError):
        matrix_from_dict({"n": 1, "rows": [[1]]})
    # bool is a subclass of int, but True is not a dimension
    with pytest.raises(MatrixParseError):
        matrix_from_dict({"n": True, "rows": [["3"]]})


def test_coerce_rational_takes_ints_and_fractions_but_not_bools():
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    assert _coerce_rational(3) == Fraction(3) and type(_coerce_rational(3)) is Fraction
    half = Fraction(1, 2)
    assert _coerce_rational(half) is half
    # subclasses pass the fallback isinstance checks
    assert _coerce_rational(Count(4)) == 4 and type(_coerce_rational(Count(4))) is Fraction
    ratio = Ratio(2, 3)
    assert _coerce_rational(ratio) is ratio
    for value in (True, False, 0.5, "1"):
        with pytest.raises(TypeError):
            _coerce_rational(value)


def test_matrix_rejects_floats_and_ragged_rows():
    with pytest.raises(TypeError):
        RationalMatrix(((0.5, 1), (1, 1)))
    # bool is a subclass of int, but True is not the rational 1
    with pytest.raises(TypeError):
        RationalMatrix(((True, False), (False, True)))
    with pytest.raises(ValueError):
        RationalMatrix(((1, 2), (3,)))


class _Count(int):
    pass


class _Ratio(Fraction):
    pass


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
mixed_entries = st.one_of(
    st.integers(-9, 9), small_rationals, st.integers(-9, 9).map(_Count), small_rationals.map(_Ratio)
)


@st.composite
def mixed_rows(draw):
    """n = 1..4 rows of ints, Fractions and subclasses of both, mixed."""
    n = draw(st.integers(1, 4))
    return [[draw(mixed_entries) for _ in range(n)] for _ in range(n)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@example([[1, 2], [-1, 5]], 1)
@example([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]], 6)
@example([[0]], 4)
@given(mixed_rows(), st.integers(1, 12))
def test_every_construction_stores_one_matrix_in_lowest_terms(rows, factor):
    values = [[Fraction(x) for x in row] for row in rows]
    q = lcm(*(x.denominator for row in values for x in row))
    qa = tuple(tuple(int(x * q) for x in row) for row in values)
    assert gcd(q, *(v for row in qa for v in row)) == 1
    built = [
        RationalMatrix(rows),
        RationalMatrix(values),
        # q*A with a factor that every entry shares with the denominator
        RationalMatrix._from_ints([[v * factor for v in row] for row in qa], q * factor),
        pickle.loads(pickle.dumps(RationalMatrix(rows))),
        copy.deepcopy(RationalMatrix(rows)),
    ]
    if q == 1:
        built.append(RationalMatrix([[int(x) for x in row] for row in values]))
    for matrix in built:
        assert matrix == built[0] and hash(matrix) == hash(built[0])
        assert _scaled(matrix) == (q, qa)
        assert [list(row) for row in matrix.rows] == values
        assert all(type(x) is Fraction for row in matrix.rows for x in row)
        assert parse_matrix(render_matrix(matrix)) == matrix
        assert repr(matrix) == f"RationalMatrix(rows={tuple(map(tuple, values))!r})"
        for field in ("rows", "n", "_q", "extra"):
            with pytest.raises(AttributeError):
                setattr(matrix, field, 1)
