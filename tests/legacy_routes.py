"""The routes the package used before its characteristic-polynomial core.

They are kept here, unchanged in substance, as references for the property
tests: ``symbolic_q_invariants_by_expansion`` multiplies out (D*A)^2 as a
polynomial matrix and sums mask-Laplace determinants of its principal
submatrices, and ``sample_refute_by_fractions`` squares each drawn D*A in
Fractions and sums its principal minors. Both are slow, which is why the
package no longer uses them.

``symbolic_q_invariants_by_pairs`` is how ``symbolic_q_invariants`` built
each p_j before its expansion was compiled per (n, j): a loop over the
pairs of nonzero principal minors of q*A on every call, one dict entry per
key (S & T, S ^ T), and an exponent tuple added up for each term. It is
the reference past the default symbolic guard, where the polynomial-matrix
expansion is too slow.

``sums_by_enumeration`` and ``sums_by_compound_trace`` are the two routes
``principal_minor_sums`` used to run and cross-assert at every call: Fraction
determinants of the principal submatrices, and the traces of the compound
matrices. The package now sums the integer minors of ``_principal_minors``.
``_det_rows`` is the Fraction determinant the package used for every
non-principal minor before all minors came from Bareiss on q*A: direct
formulas up to 3x3, then denominators cleared row by row;
``minor_by_fractions`` reads a minor of A through it.
``principal_minors_by_subset`` is how ``_principal_minors`` read every
principal minor before the shared-prefix tree: one kernel call on
(q*A)[S, S] for each index set S. The pair loop reads its minors there,
so that oracle shares no code with the tree it checks.
``int_product_by_columns`` is how ``mat_mul`` and the spd candidates'
draw multiplied two integer matrices before the product was compiled once
per size (``_product_kernel``): the columns of the right operand by
``zip``, and each entry one ``sum(map(mul, row, col))``. It matters as an
independent reference because ``mat_mul`` itself now runs the compiled
kernel it would be checked against, and so does
``generate_candidates_by_matrices``, which builds B^T B through
``mat_mul``. The references that share no code with the kernel are this
loop and ``tests/oracles.py:list_matmul``, through which
``perfbench/check.py`` re-checks every A^2 a benchmark run reports.
``evaluate_by_terms`` is how ``SparsePolynomial.evaluate`` summed a
polynomial before it worked over one common denominator: one Fraction
product per term and per power.
``form_matrix_by_fractions`` is how ``_form_matrix`` built its integer
matrix before a polynomial kept its coefficients as integers over one
denominator: the Fraction terms cleared by the lcm of their denominators.
``certify_positive_on_orthant_by_two_rules`` is how
``certify_positive_on_orthant`` decided a form before one route decided
them all: the closed form a > 0, c > 0, b^2 < 4ac for a positive
two-variable quadratic, ``_orthant_witness`` only for every other form, and
a second scan of the terms (``is_homogeneous(2)``) to read a witness back as
d or 1/d. Its matrix comes from ``form_matrix_by_fractions``, which is what
``_form_matrix`` returned then.
``reduce_direction_by_fractions`` and ``witness_evidence_by_fractions``
are how ``certify_positive_on_orthant`` recorded a witness z before it
read the point off the positive integers of z: the Fractions 1/z for the
1/d reading, scaled to coprime integers, and the value by ``evaluate``.
``quadratic_evidence_by_fractions`` is how it built the square completion
of a positive two-variable form before it read it off the integer matrix
of ``_form_matrix``: b/(2a) and (4ac - b^2)/(4a) in Fractions and both
linear forms through the checked constructor.
``skips_sampling_by_compounds`` is how ``sample_refute`` decided, for
n <= 3, that no draw can be a witness before it read the certificates:
``_orthant_witness`` on each Hadamard compound M_j = C_j(q*A) o C_j(q*A)^T
(``_hadamard``), the compounds of q*A walked in turn, skipping only when
every form is positive.
``orthant_witness_by_cramer`` is how ``_orthant_witness`` found the
vertices of {z >= 0, m z = 0, sum z = 1} before it read them from the
adjugates of singular principal submatrices: Cramer's rule on the bordered
system [m on the columns S; 1^T] x = [0; 1], for every support S and the
first nonsingular rows of it.
``lifted_witness_by_doubling`` is how ``_lifted_witness`` lifted a failing
direction x off the boundary before it computed the value of
z = 2^t x + e in closed form: z built and its value summed afresh for each
t = 0, 1, ..., with no bound, so an x that is no failing direction never
returns. The property test hands it failing directions only.
``generate_candidates_by_matrices`` is how ``generate_candidates`` built
each hunt candidate before it drew integer rows: a Fraction matrix per
draw, each entry by ``randint``, the Fraction determinant for the
nonsingular redraw, and B^T B + I as a matrix product plus the identity,
summed by what was ``RationalMatrix.__add__``. The property test holds
the integer stream to it element for element, since every hunt report and
golden depends on that stream. ``draw_rows_by_randint`` is how
``_draw_rows`` drew the rows before the rule of ``_uniform_draws`` became
the package's own: one ``randint`` per entry.
``first_positive_pair_by_minors`` is the anti-sign scan without compound
rows: the two minors of each pair as square Bareiss determinants of q*A,
in the scan's order of pairs. The property tests hold the package's scan
to it, witness for witness.
``verify_refutation_by_layers`` is ``verify_refutation`` written out as one
public call per layer, with ``evaluate_hypothesis`` inlined: the hypothesis
through ``symbolic_q_invariants``, whose certificates it passes on to
``sample_refute``, the conclusion through ``classify`` of
``mat_mul(A, A)``, whose least common denominator can be smaller than
q^2, and the anti-sign scan through ``is_anti_sign_symmetric``. It was the
reference while ``verify_refutation`` passed A's integer view to private
twins of those layers, and it still holds the report to the public calls.
``p0_plus_and_q_by_classify`` and ``derive_verdict`` are how the P0+ and
Q verdicts of a ``ClassReport`` and the verdict of a ``RefutationReport``
were computed and stored before each report read them off its own data:
the block at the end of ``classify``, and the function ``_report`` called
with the two sides, the matrix's size and its anti-sign verdict.
``parse_matrix_by_cursor`` is how ``parse_matrix`` walked the lines of a
text before it listed the indices of its non-blank lines once: a cursor
that skips blank lines and hands out the next line on each call, for the
header, each row and the check for trailing content. The property test
holds the parser to it, matrix for matrix and error position for error
position.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import gcd, lcm
from operator import add, mul
from typing import Sequence

from qscaling import (
    Certificate,
    CertificateVerdict,
    CertifiedForAll,
    Claim,
    ClassReport,
    CoefficientEvidence,
    DiagonalScaling,
    EvidenceGrade,
    HuntConfig,
    HypothesisStatus,
    IndexSet,
    MatrixParseError,
    MinorPairWitness,
    MinorSumWitness,
    NoCounterexampleFound,
    OrderGapWitness,
    RationalMatrix,
    RefutationReport,
    RefutationVerdict,
    QuadraticEvidence,
    RefutedAt,
    SparsePolynomial,
    Verdict,
    VerdictKind,
    WitnessEvidence,
    certify_positive_on_orthant,
    classify,
    compound,
    determinant,
    is_anti_sign_symmetric,
    mat_mul,
    parse_rational,
    sample_refute,
    symbolic_q_invariants,
)
from qscaling.matrices import _DIMENSION_TOKEN, _bareiss_int, _int_compounds, _int_minor, _scaled
from qscaling.scaling import _orthant_witness, _pair_weights, check_sampling_args

PolyMatrix = tuple[tuple[SparsePolynomial, ...], ...]


def scaled_matrix_symbolic(matrix: RationalMatrix) -> PolyMatrix:
    """D*A with the diagonal of D left as indeterminates d1..dn."""
    n = matrix.n
    out = []
    for i, row in enumerate(matrix.rows):
        exps = [0] * n
        exps[i] = 1
        out.append(tuple(SparsePolynomial(n, {tuple(exps): a}) for a in row))
    return tuple(out)


def poly_mat_mul(left: PolyMatrix, right: PolyMatrix) -> PolyMatrix:
    cols = tuple(zip(*right))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), SparsePolynomial.zero(row[0].n_vars)) for col in cols)
        for row in left
    )


def scaled_square_by_product(matrix: RationalMatrix) -> PolyMatrix:
    """(D*A)^2 entrywise, as the product of two polynomial matrices."""
    scaled = scaled_matrix_symbolic(matrix)
    return poly_mat_mul(scaled, scaled)


def poly_det(entries: list[tuple[SparsePolynomial, ...]]) -> SparsePolynomial:
    """Division-free determinant via Laplace expansion over column masks."""
    k = len(entries)
    n_vars = entries[0][0].n_vars
    table: dict[int, SparsePolynomial] = {0: SparsePolynomial.constant(n_vars, 1)}
    for r in range(k):
        row = entries[r]
        new_table: dict[int, SparsePolynomial] = {}
        for mask, sub_det in table.items():
            for j in range(k):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = row[j]
                if entry.is_zero:
                    continue
                position = (mask & (bit - 1)).bit_count()
                signed = entry * sub_det if (r + position) % 2 == 0 else -(entry * sub_det)
                key = mask | bit
                acc = new_table.get(key)
                new_table[key] = signed if acc is None else acc + signed
        table = new_table
        if not table:
            return SparsePolynomial.zero(n_vars)
    return table.get((1 << k) - 1, SparsePolynomial.zero(n_vars))


def symbolic_q_invariants_by_expansion(matrix: RationalMatrix) -> list[SparsePolynomial]:
    """p_1..p_n as sums of polynomial principal minors of the expanded (D*A)^2."""
    n = matrix.n
    squared = scaled_square_by_product(matrix)
    invariants = []
    for j in range(1, n + 1):
        total = SparsePolynomial.zero(n)
        for selection in combinations(range(n), j):
            sub = [tuple(squared[i][jj] for jj in selection) for i in selection]
            total = total + poly_det(sub)
        invariants.append(total)
    return invariants


def symbolic_q_invariants_by_pairs(matrix: RationalMatrix) -> list[SparsePolynomial]:
    """p_1..p_n by the pair loop over the nonzero principal minors of q*A.

    The minors are those of ``principal_minors_by_subset``, so the loop
    shares no code with the tree the compiled kernels read. Each is keyed
    by the bitmask of its index set, bit i for member i. A monomial of
    c_a * c_b is keyed by (S & T, S ^ T): exponent 2 on the first set, 1 on
    the second.
    """
    n = matrix.n
    q, _ = _scaled(matrix)
    by_order = [
        [(sum(1 << i for i in s), v) for s, v in zip(combinations(range(n), k), minors) if v]
        for k, minors in enumerate(principal_minors_by_subset(matrix))
    ]
    bits = [tuple(mask >> i & 1 for i in range(n)) for mask in range(1 << n)]
    doubled = [tuple(2 * b for b in row) for row in bits]
    invariants = []
    for j in range(1, n + 1):
        coefficients: dict[tuple[int, int], int] = {}
        for a, b, weight in _pair_weights(n, j):
            for s, x in by_order[a]:
                for t, y in by_order[b]:
                    key = (s & t, s ^ t)
                    coefficients[key] = coefficients.get(key, 0) + weight * x * y
        scale = q ** (2 * j)
        invariants.append(
            SparsePolynomial(
                n,
                {
                    tuple(map(add, doubled[twice], bits[once])): Fraction(value, scale)
                    for (twice, once), value in coefficients.items()
                },
            )
        )
    return invariants


def _det_rows(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a small row tuple; direct formulas up to 3x3, Bareiss above."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return rows[0][0]
    if k == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h
    scale = 1
    int_rows = []
    for row in rows:
        row_lcm = 1
        for e in row:
            row_lcm = lcm(row_lcm, e.denominator)
        scale *= row_lcm
        int_rows.append([e.numerator * (row_lcm // e.denominator) for e in row])
    return Fraction(_bareiss_int(int_rows), scale)


def minor_by_fractions(matrix: RationalMatrix, row_sel: Sequence[int], col_sel: Sequence[int]) -> Fraction:
    """The minor of A on 0-based rows and columns, by ``_det_rows`` (1 when both are empty)."""
    return _det_rows(tuple(tuple(matrix.rows[i][j] for j in col_sel) for i in row_sel))


def principal_minors_by_subset(matrix: RationalMatrix) -> list[list[int]]:
    """The integer principal minors of q*A as ``_principal_minors`` lists them, one kernel call per index set."""
    n = matrix.n
    _, scaled = _scaled(matrix)
    return [[_int_minor(scaled, s, s) for s in combinations(range(n), k)] for k in range(n + 1)]


def int_product_by_columns(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two square integer matrices, one ``sum(map(mul, row, col))`` per entry."""
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def parse_matrix_by_cursor(text: str) -> RationalMatrix:
    """The matrix text format read by a cursor over the lines, reporting 1-based line/column on errors."""
    lines = text.splitlines()
    pos = 0

    def next_content_line() -> int | None:
        nonlocal pos
        while pos < len(lines) and lines[pos].strip() == "":
            pos += 1
        if pos >= len(lines):
            return None
        here = pos
        pos += 1
        return here

    header_idx = next_content_line()
    if header_idx is None:
        raise MatrixParseError("empty input, expected a dimension line", line=1, column=1)
    header = lines[header_idx].strip()
    if not _DIMENSION_TOKEN.match(header) or int(header) < 1:
        raise MatrixParseError(f"expected a positive dimension, found {header!r}", line=header_idx + 1, column=1)
    n = int(header)

    rows = []
    for r in range(n):
        row_idx = next_content_line()
        if row_idx is None:
            raise MatrixParseError(f"expected {n} rows, found only {r}", line=len(lines) + 1, column=1)
        raw = lines[row_idx]
        tokens = list(re.finditer(r"\S+", raw))
        if len(tokens) != n:
            raise MatrixParseError(
                f"expected {n} entries in row {r + 1}, found {len(tokens)}",
                line=row_idx + 1,
                column=(tokens[-1].start() + 1 if tokens else 1),
            )
        row = []
        for match in tokens:
            try:
                row.append(parse_rational(match.group()))
            except ValueError as exc:
                raise MatrixParseError(str(exc), line=row_idx + 1, column=match.start() + 1) from None
        rows.append(tuple(row))

    trailing = next_content_line()
    if trailing is not None:
        raise MatrixParseError("unexpected content after the last matrix row", line=trailing + 1, column=1)
    return RationalMatrix(tuple(rows))


def evaluate_by_terms(p: SparsePolynomial, point: Sequence[Fraction]) -> Fraction:
    """p at ``point``, each term a Fraction product added to a Fraction total."""
    total = Fraction(0)
    for exps, coeff in p.terms():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x ** e
        total += value
    return total


def form_matrix_by_fractions(p: SparsePolynomial) -> list[list[int]] | None:
    """``_form_matrix`` of ``p``, each Fraction coefficient cleared by the lcm of the denominators."""
    n = p.n_vars
    terms = p.terms()
    if not terms:
        return None
    if p.is_homogeneous(2):
        marks = [e for e, _ in terms]
    elif p.is_homogeneous(2 * n - 2) and all(k <= 2 for e, _ in terms for k in e):
        marks = [tuple(2 - k for k in e) for e, _ in terms]
    else:
        return None
    common = lcm(*(c.denominator for _, c in terms))
    m = [[0] * n for _ in range(n)]
    for mark, (_, c) in zip(marks, terms):
        value = c.numerator * (common // c.denominator)
        i, k = [i for i, times in enumerate(mark) for _ in range(times)]
        if i == k:
            m[i][i] = 2 * value
        else:
            m[i][k] = m[k][i] = value
    return m


def reduce_direction_by_fractions(point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Scale a positive direction to coprime integer coordinates."""
    denominators = lcm(*(x.denominator for x in point))
    integers = [x.numerator * (denominators // x.denominator) for x in point]
    divisor = gcd(*integers)
    return tuple(Fraction(i // divisor) for i in integers)


def witness_evidence_by_fractions(p: SparsePolynomial, z: tuple[Fraction, ...], inverse: bool) -> WitnessEvidence:
    """The witness at d = z, or d = 1/z when ``inverse``: Fraction reciprocals, reduced, and ``evaluate`` there.

    ``z`` holds positive ints or Fractions; each is read as a Fraction, so 1/z stays exact.
    """
    point = reduce_direction_by_fractions(tuple(1 / Fraction(x) for x in z) if inverse else z)
    return WitnessEvidence(point, p.evaluate(point))


def quadratic_evidence_by_fractions(p: SparsePolynomial) -> QuadraticEvidence:
    """The square completion of a positive a*d1^2 + b*d1*d2 + c*d2^2, from its Fraction coefficients."""
    a, b, c = p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2))
    half = b / (2 * a)
    first_form = SparsePolynomial(2, {(1, 0): Fraction(1), (0, 1): half})
    second_form = SparsePolynomial(2, {(0, 1): Fraction(1)})
    completion = ((a, first_form), ((4 * a * c - b * b) / (4 * a), second_form))
    return QuadraticEvidence(a, b, c, completion)


def certify_positive_on_orthant_by_two_rules(p: SparsePolynomial) -> Certificate:
    """``certify_positive_on_orthant`` with the closed-form rule for a positive two-variable quadratic."""
    if p.is_zero:
        point = (Fraction(1),) * p.n_vars
        return Certificate(p, WitnessEvidence(point, Fraction(0)))

    if p.has_positive_coefficients():
        exps, coeff = p.leading_term()
        return Certificate(p, CoefficientEvidence(exps, coeff))

    if p.n_vars == 2 and p.is_homogeneous(2):
        a, b, c = p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2))
        # a failing quadratic goes to the copositivity route below for its witness
        if a > 0 and c > 0 and b * b < 4 * a * c:
            return Certificate(p, quadratic_evidence_by_fractions(p))

    form = form_matrix_by_fractions(p)
    z = None if form is None else _orthant_witness(form)
    if z is None:
        return Certificate(p, None)
    return Certificate(p, witness_evidence_by_fractions(p, z, not p.is_homogeneous(2)))


def _principal_minor_sum(rows, subsets) -> Fraction:
    total = Fraction(0)
    for s in subsets:
        total += _det_rows(tuple(tuple(rows[i][j] for j in s) for i in s))
    return total


def sums_by_enumeration(matrix: RationalMatrix) -> tuple[Fraction, ...]:
    """c_1..c_n as sums of Fraction determinants of the principal submatrices."""
    n = matrix.n
    return tuple(_principal_minor_sum(matrix.rows, combinations(range(n), k)) for k in range(1, n + 1))


def sums_by_compound_trace(matrix: RationalMatrix) -> tuple[Fraction, ...]:
    """c_1..c_n as the traces of the compound matrices of every order."""
    return tuple(compound(matrix, k).trace() for k in range(1, matrix.n + 1))


def _is_q_matrix_rows(rows, subset_lists) -> bool:
    return all(_principal_minor_sum(rows, subsets) > 0 for subsets in subset_lists)


def sample_refute_by_fractions(
    matrix: RationalMatrix, budget: int, seed: int, exponent_range: int
) -> DiagonalScaling | None:
    """The Fraction sampling loop, with the same draw order as ``sample_refute``."""
    n = matrix.n
    rng = random.Random(seed)
    powers = {e: Fraction(10) ** e for e in range(-exponent_range, exponent_range + 1)}
    subset_lists = [list(combinations(range(n), k)) for k in range(1, n + 1)]
    base_rows = matrix.rows
    for _ in range(budget):
        diag = tuple(
            Fraction(rng.randint(8, 16), 8) * powers[rng.randint(-exponent_range, exponent_range)]
            for _ in range(n)
        )
        scaled = [tuple(d * a for a in row) for d, row in zip(diag, base_rows)]
        cols = tuple(zip(*scaled))
        squared = [
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in scaled
        ]
        if not _is_q_matrix_rows(squared, subset_lists):
            return DiagonalScaling(diag)
    return None


def _hadamard(b: list[list[int]]) -> list[list[int]]:
    """B o B^T, the entrywise product of B with its transpose."""
    n = len(b)
    return [[b[i][k] * b[k][i] for k in range(n)] for i in range(n)]


def skips_sampling_by_compounds(matrix: RationalMatrix) -> bool:
    """For n <= 3: whether the form of every M_j of q*A is positive on the open orthant."""
    _, scaled = _scaled(matrix)
    return all(_orthant_witness(_hadamard(rows)) is None for rows in islice(_int_compounds(scaled), 1, None))


def orthant_witness_by_cramer(m: list[list[int]]) -> tuple[Fraction, ...] | None:
    """A z > 0 with z^T m z <= 0, or None when x^T m x > 0 for every x > 0.

    Kept as the reference for ``_orthant_witness``: it finds each kernel
    vertex by a second construction, Cramer's rule on a bordered system,
    independent of the adjugate rows the package reads.

    ``m`` is a symmetric integer matrix. The form is positive on the open
    orthant exactly when m is copositive and no z > 0 has m z = 0: a zero
    of a copositive form at some z > 0 is an interior minimum, where the
    gradient 2 m z vanishes. Each failure gives its own witness.

    Copositivity (Cottle-Habetler-Lemke): visiting the principal
    submatrices B in increasing order, m fails at the first B with
    det B < 0 and adj B >= 0 (the adjugate of a 1x1 matrix is (1), its
    order-0 minor). x = adj(B) 1 then gives x^T B x = det(B) 1^T adj(B) 1 < 0.
    Padded with zeros, x is a witness on the boundary. z = 2^t x with every
    zero entry set to 1 has the value 4^t x^T m x + O(2^t), so counting t
    up from 0 reaches a negative value.

    Positive kernel vector, for a copositive m with det m = 0: the z >= 0
    with m z = 0 and sum z = 1 form a polytope. Its vertices are the x > 0
    that solve [m on the columns S; 1^T] x = [0; 1] uniquely, for a support
    S; each is found by Cramer's rule on integer minors. A positive z
    exists exactly when the vertex supports cover every index, and the
    average of the vertices is then one, of value 0.
    """
    n = len(m)
    for k in range(1, n + 1):
        for s in combinations(range(n), k):
            det = _int_minor(m, s, s)
            if det >= 0:
                continue
            # adj B is symmetric; its (i, l) entry is (-1)^(i+l) det(B without row l and column i)
            adj = {}
            for i, l in combinations_with_replacement(range(k), 2):
                adj[i, l] = adj[l, i] = (-1) ** (i + l) * _int_minor(m, s[:l] + s[l + 1 :], s[:i] + s[i + 1 :])
                if adj[i, l] < 0:
                    break
            else:
                x = [sum(adj[i, l] for l in range(k)) for i in range(k)]
                divisor = gcd(*x)
                padded = [0] * n
                for i, v in zip(s, x):
                    padded[i] = v // divisor
                scale = 1
                while True:
                    z = [scale * v or 1 for v in padded]
                    if sum(z[i] * m[i][l] * z[l] for i in range(n) for l in range(n)) < 0:
                        return tuple(map(Fraction, z))
                    scale *= 2
    # det is now det m, the last minor visited
    if det:
        return None
    vertices = []
    for k in range(1, n + 1):
        cols = tuple(range(k))
        for s in combinations(range(n), k):
            # column k is the right-hand side
            bordered = [[m[i][j] for j in s] + [0] for i in range(n)] + [[1] * (k + 1)]
            # the first nonsingular rows in lexicographic order take each row that is
            # independent of the rows above it, so their equations imply every other
            # one; without the row of ones the right side is 0, and so is x
            for rows in combinations(range(n + 1), k):
                den = _int_minor(bordered, rows, cols)
                if den:
                    break
            else:
                continue  # dependent columns: the solution is not unique
            num = [_int_minor(bordered, rows, cols[:i] + (k,) + cols[i + 1 :]) for i in range(k)]
            if any(x * den <= 0 for x in num):
                continue
            vertices.append(dict(zip(s, (Fraction(x, den) for x in num))))
    if len({i for v in vertices for i in v}) < n:
        return None
    return tuple(sum(v.get(i, 0) for v in vertices) / len(vertices) for i in range(n))


def lifted_witness_by_doubling(m: list[list[int]], s: tuple[int, ...], x: Sequence[int]) -> tuple[int, ...]:
    """The first z = 2^t x + (1 off the support of x), t = 0, 1, ..., with z^T m z < 0; x on s, reduced, padded."""
    divisor = gcd(*x)
    padded = [0] * len(m)
    for i, v in zip(s, x):
        padded[i] = v // divisor
    scale = 1
    while True:
        z = [scale * v or 1 for v in padded]
        if sum(map(mul, z, [sum(map(mul, row, z)) for row in m])) < 0:
            return tuple(z)
        scale *= 2


def _draw_integer_matrix(rng: random.Random, n: int, bound: int) -> RationalMatrix:
    return RationalMatrix(
        tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
    )


def _matrix_sum(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.rows, b.rows)))


def draw_rows_by_randint(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    """n x n integers on [-bound, bound], row-major, one ``randint`` each."""
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def generate_candidates_by_matrices(cfg: HuntConfig):
    """``generate_candidates``'s stream, each candidate built from RationalMatrix operations."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        if cfg.mode == "all":
            yield _draw_integer_matrix(rng, cfg.dimension, cfg.entry_range)
        elif cfg.mode == "nonsingular":
            while True:
                candidate = _draw_integer_matrix(rng, cfg.dimension, cfg.entry_range)
                if determinant(candidate) != 0:
                    yield candidate
                    break
        else:  # spd: B^T B + I is symmetric positive definite with integer entries
            factor = _draw_integer_matrix(rng, cfg.dimension, cfg.entry_range)
            yield _matrix_sum(mat_mul(factor.transpose(), factor), RationalMatrix.identity(cfg.dimension))


def first_positive_pair_by_minors(q: int, scaled: list[list[int]]) -> MinorPairWitness | None:
    """The anti-sign scan's first pair with positive product, two square determinants per pair."""
    n = len(scaled)
    for k in range(1, n):
        for a, b in combinations(combinations(range(n), k), 2):
            forward, backward = _int_minor(scaled, a, b), _int_minor(scaled, b, a)
            if forward * backward > 0:
                scale = q**k
                return MinorPairWitness(
                    IndexSet(n, tuple(i + 1 for i in a)),
                    IndexSet(n, tuple(i + 1 for i in b)),
                    Fraction(forward, scale),
                    Fraction(backward, scale),
                )
    return None


def verify_refutation_by_layers(
    matrix: RationalMatrix,
    budget: int = 10_000,
    seed: int = 0,
    exponent_range: int = 3,
    max_dim: int | None = None,
) -> RefutationReport:
    """``verify_refutation``'s report from one public call per layer."""
    check_sampling_args(budget, exponent_range)
    certs = tuple(certify_positive_on_orthant(p) for p in symbolic_q_invariants(matrix, max_dim=max_dim))
    refuting = [c for c in certs if c.verdict is CertificateVerdict.NOT_POSITIVE]
    if refuting:
        hypothesis = RefutedAt(DiagonalScaling(refuting[0].evidence.point), certs)
    elif all(c.verdict is CertificateVerdict.POSITIVE_ON_ORTHANT for c in certs):
        hypothesis = CertifiedForAll(certs)
    else:
        witness = sample_refute(matrix, certs, budget=budget, seed=seed, exponent_range=exponent_range, max_dim=max_dim)
        hypothesis = NoCounterexampleFound(budget, certs) if witness is None else RefutedAt(witness, certs)
    squared = mat_mul(matrix, matrix)
    conclusion = classify(squared, max_dim=max_dim)
    anti_sign = is_anti_sign_symmetric(matrix, max_dim=max_dim)
    return RefutationReport(
        matrix=matrix,
        squared=squared,
        hypothesis=hypothesis,
        conclusion=conclusion,
        anti_sign=anti_sign,
    )


def p0_plus_and_q_by_classify(report: ClassReport) -> tuple[Verdict, Verdict]:
    """The P0+ and Q verdicts as ``classify`` built them from the minor data of ``report``."""
    sums, has_positive = report.minor_sums, list(report.positive_minor_orders)
    q_order = next((k for k, c_k in enumerate(sums, start=1) if c_k <= 0), None)
    q_witness = None if q_order is None else MinorSumWitness(q_order, sums[q_order - 1])
    p0_verdict = report.p0
    if not p0_verdict.holds:
        p0_plus = Verdict(witness=p0_verdict.witness)
    elif all(has_positive):
        p0_plus = Verdict()
    else:
        p0_plus = Verdict(witness=OrderGapWitness(has_positive.index(False) + 1))
    return p0_plus, Verdict(witness=q_witness)


def derive_verdict(
    hypothesis: HypothesisStatus, conclusion: ClassReport, n: int, anti_sign: Verdict
) -> RefutationVerdict:
    """Combine the two sides into a verdict; kept separate so reports can be re-derived."""
    if isinstance(hypothesis, RefutedAt):
        # the implication is vacuous for this matrix
        return RefutationVerdict(VerdictKind.CONSISTENT)
    conclusion_holds = conclusion.p0_plus.holds
    if isinstance(hypothesis, CertifiedForAll):
        if conclusion_holds:
            return RefutationVerdict(VerdictKind.CONSISTENT)
        grade = EvidenceGrade.CERTIFIED
    else:
        if conclusion_holds:
            # hypothesis unsettled and nothing refuted either way
            return RefutationVerdict(VerdictKind.UNDETERMINED)
        grade = EvidenceGrade.SAMPLING_ONLY
    claims = [Claim.GENERAL]
    if n == 2:
        claims.append(Claim.TWO_BY_TWO)
    if anti_sign.holds:
        claims.append(Claim.ANTI_SIGN_SYMMETRIC)
    return RefutationVerdict(VerdictKind.COUNTEREXAMPLE, tuple(claims), grade)
