"""Analysis of (D*A)^2 over all positive diagonal scalings D.

For an n x n rational matrix A and diagonal indeterminates d1..dn, the
order-j principal-minor sums of (D*A)^2 are polynomials p_j(d1..dn),
homogeneous of degree 2j. "(D*A)^2 is a Q-matrix for every positive D"
is exactly "every p_j is positive on the open positive orthant".

Every p_j comes from one identity. With f(t) = det(I + t*D*A) =
sum_k c_k t^k, where c_k = sum over |S| = k of det(A[S]) * prod_{i in S} d_i,
one has f(t)*f(-t) = det(I - t^2 (D*A)^2), so
p_j = (-1)^j * sum over a+b=2j of (-1)^b c_a c_b. Only the 2^n principal
minors of A enter, and they are plain numbers: symbolic_q_invariants
multiplies the c_k out as polynomials, and sample_refute evaluates them
in integers at each drawn point. sample_refute takes the certificates of
p_1..p_n from its caller and computes neither the p_j nor a certificate.

That positivity question is handled honestly: exact decisions prove or
refute it where they apply (nonnegative coefficients, and the quadratic
forms behind p_1 and p_{n-1}, below), and a certificate's verdict is read
off the evidence it records; exact sampling is the one search for a
refuting point, and anything else is reported inconclusive.

Each p_j is also a quadratic form z^T M_j z, where z lists the products
of j of the d_i. For p_1 (z_i = d_i) and p_{n-1} (z_i = (prod d)/d_i)
the map d -> z covers the open orthant, so the form read off the
polynomial decides p_j exactly: it is positive there, or it gives an
exact witness point. For n <= 3 every p_j is p_1, p_{n-1} or p_n = det(A)^2 (prod d)^2,
so the certificates decide the whole hypothesis, and sampling reads their
verdicts and returns without a draw when none of them refutes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations
from math import gcd, lcm
from operator import mul
from typing import Callable, ClassVar, Iterator, Sequence

from .matrices import (
    DimensionGuardError,
    IndexSet,
    RationalMatrix,
    _check_in_range,
    _coerce_rational,
    _compile,
    _int_compounds,
    _int_minor,
    _laplace_expansion,
    _laplace_plan,
    _principal_minors,
    _scaled,
    check_enumeration_dim,
    index_sets,
    render_rational,
)
from .polynomial import SparsePolynomial

#: symbolic expansion refuses dimensions above this bound by default. It bounds
#: the size of the output: p_j has a monomial for every exponent vector with
#: entries at most 2 summing to 2j, up to 141 monomials for p_3 at n = 6.
DEFAULT_SYMBOLIC_GUARD = 6

def check_symbolic_dim(n: int, max_dim: int | None = None) -> None:
    limit = DEFAULT_SYMBOLIC_GUARD if max_dim is None else max_dim
    if n > limit:
        raise DimensionGuardError(
            f"dimension {n} exceeds the symbolic-expansion bound {limit}; "
            "pass a larger max_dim to override"
        )


@dataclass(frozen=True)
class DiagonalScaling:
    """A strictly positive diagonal matrix, kept as its diagonal vector."""

    diagonal: tuple[Fraction, ...]

    def __post_init__(self):
        diag = tuple(map(_coerce_rational, self.diagonal))
        if not diag:
            raise ValueError("a diagonal scaling needs at least one entry")
        # a Fraction's denominator is positive, so its numerator carries its sign
        if any(d.numerator <= 0 for d in diag):
            raise ValueError(f"diagonal entries must be strictly positive, got {diag}")
        object.__setattr__(self, "diagonal", diag)

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def apply_left(self, matrix: RationalMatrix) -> RationalMatrix:
        """D*A, i.e. row i of A scaled by the i-th diagonal entry."""
        return matrix.scale_rows(self.diagonal)

    def to_dict(self) -> dict:
        return {"diagonal": [render_rational(d) for d in self.diagonal]}


# ---------------------------------------------------------------------------
# Symbolic invariants


def _pair_weights(n: int, j: int) -> list[tuple[int, int, int]]:
    """(a, b, w) with p_j = sum of w * c_a * c_b, from f(t)*f(-t) = det(I - t^2 (DA)^2).

    The t^(2j) coefficient of f(t)*f(-t) is sum over a+b=2j of (-1)^b c_a c_b,
    and that of det(I - t^2 M) is (-1)^j e_j(M); a and b share a parity, so
    the pairs (a, b) and (b, a) fold into one with weight 2.
    """
    return [
        (a, 2 * j - a, 1 if a == j else 2 * (-1) ** (j + a))
        for a in range(max(0, 2 * j - n), j + 1)
    ]


def scaled_square_symbolic(matrix: RationalMatrix) -> tuple[tuple[SparsePolynomial, ...], ...]:
    """(D*A)^2 entrywise: entry (i,k) is the sum over j of a_ij*a_jk*d_i*d_j."""
    n = matrix.n
    rows = matrix.rows

    def exponents(i: int, j: int) -> tuple[int, ...]:
        exps = [0] * n
        exps[i] += 1
        exps[j] += 1
        return tuple(exps)

    return tuple(
        tuple(
            SparsePolynomial(n, {exponents(i, j): rows[i][j] * rows[j][k] for j in range(n)})
            for k in range(n)
        )
        for i in range(n)
    )


@cache
def _subset_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """masks[k][a] is the bitmask of the a-th k-subset of range(n) in lexicographic order, bit i for member i."""
    return tuple(tuple(sum(1 << i for i in s) for s in combinations(range(n), k)) for k in range(n + 1))


#: per j, the exponents of p_j's terms and the compiled function that gives their coefficients
_PjKernel = tuple[tuple[tuple[int, ...], ...], Callable[[list[int]], list[int]]]


def _pj_kernel(n: int, j: int) -> _PjKernel:
    """The expansion of p_j over the principal minors, compiled into ``(exponents, pj)``.

    ``pj(m)`` takes the 2^n principal minors of q*A as one flat list, order
    after order as ``_principal_minors`` lists them (``m[0]`` is the empty
    set's 1), and returns the integer coefficients of q^(2j) * p_j, one per
    entry of ``exponents``. A monomial of c_a * c_b is keyed by
    (S & T, S ^ T): exponent 2 on the first set, 1 on the second. So the
    pairs of minors, their weights from ``_pair_weights`` and the keys they
    meet on depend on (n, j) alone. Each key becomes one expression
    ``w*m[x]*m[y] + ...`` with constant indices, a mirrored pair of one
    order (a = b = j) folded into one product of weight 2; the function
    returns the coefficients as one list display. The keys are listed in
    canonical term order (every term has degree 2j, so that is the
    exponents in decreasing lexicographic order), the order in which a
    ``SparsePolynomial`` stores its terms. A coefficient may be 0. The source is
    made only of integers, and ``_compile`` runs it with empty builtins;
    the per-n table ``_pj_kernels`` is its one caller. Every j of one n is
    compiled on first use, once per process, and the source grows as 4^n:
    the first call of ``symbolic_q_invariants`` takes ~15 ms at n = 6,
    ~40 ms at n = 7, ~140 ms and ~41 MB of peak memory at n = 8, and
    ~650 ms and ~109 MB at n = 9, against ~3, ~10, ~16 and ~57 ms and 19
    and 25 MB for the pair loop it replaced; a repeat call then takes ~4 ms
    at n = 8 and ~14 ms at n = 9, against ~10 and ~48 ms (2-core Xeon,
    Python 3.11.7, dense random integer matrix, whole process). The default
    symbolic guard stops at n = 6; only a ``max_dim`` override reaches the
    larger sizes.
    """
    masks = _subset_masks(n)
    # starts[k] is the flat index of the first k-subset
    starts = list(accumulate(map(len, masks), initial=0))
    products: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for a, b, weight in _pair_weights(n, j):
        for x, s in enumerate(masks[a], starts[a]):
            for y, t in enumerate(masks[b], starts[b]):
                if a == b and y < x:
                    continue
                w = weight if a != b or x == y else 2 * weight
                products.setdefault((s & t, s ^ t), []).append((w, x, y))
    keyed = sorted(
        ((tuple(2 * (twice >> i & 1) + (once >> i & 1) for i in range(n)), terms) for (twice, once), terms in products.items()),
        reverse=True,
    )
    entries = [
        " + ".join(f"m[{x}]*m[{y}]" if w == 1 else f"{w}*m[{x}]*m[{y}]" for w, x, y in terms) for _, terms in keyed
    ]
    pj = _compile(f"def pj(m):\n    return [{', '.join(entries)}]\n", "pj")
    return tuple(e for e, _ in keyed), pj


@cache
def _pj_kernels(n: int) -> tuple[_PjKernel, ...]:
    """The kernels of p_1..p_n, in order, built once per n and process.

    ``symbolic_q_invariants`` is its one reader, with one lookup per call.
    """
    return tuple(_pj_kernel(n, j) for j in range(1, n + 1))


def symbolic_q_invariants(matrix: RationalMatrix, max_dim: int | None = None) -> list[SparsePolynomial]:
    """The polynomials p_1..p_n: p_j sums all order-j principal minors of (D*A)^2.

    With f(t) = det(I + t*D*A) = sum_k c_k t^k, where c_k is the squarefree
    polynomial sum over |S| = k of det(A[S]) * prod_{i in S} d_i, one has
    f(t)*f(-t) = det(I - t^2 (D*A)^2), so p_j = (-1)^j sum over a+b=2j of
    (-1)^b c_a c_b. Only the 2^n principal minors of A enter. They are taken
    from the integer matrix q*A that A stores, listed flat, and the j-th
    kernel of the per-n table ``_pj_kernels(n)``, one lookup per call,
    turns them into the coefficients of q^(2j) * p_j. Each p_j keeps its
    nonzero ones as integer numerators over q^(2j); no Fraction is made
    until a coefficient is read.
    """
    n = matrix.n
    check_symbolic_dim(n, max_dim)
    q, scaled = _scaled(matrix)
    minors = list(chain.from_iterable(_principal_minors(scaled)))
    invariants = []
    for j, (exponents, pj) in enumerate(_pj_kernels(n), start=1):
        # the exponent tuples are distinct, well formed and in canonical order by construction
        invariants.append(
            SparsePolynomial._from_terms(n, {e: v for e, v in zip(exponents, pj(minors)) if v}, q ** (2 * j))
        )
    return invariants


# ---------------------------------------------------------------------------
# The Hadamard compounds M_j behind p_j, and positivity of their forms
#
# By Cauchy-Binet, p_j(d) = z^T M_j z, where z_a = prod_{i in a} d_i runs over
# the j-subsets a and M_j = C_j(A) o C_j(A)^T (o is the entrywise product), so
# M_j[a][b] = A[a|b] * A[b|a]. Every such z is positive, so when z^T M_j z > 0
# for every z > 0, p_j is positive on the open orthant. p_1 = d^T M_1 d,
# p_{n-1} = (prod d)^2 times a form in 1/d whose matrix is M_{n-1} with its
# rows and columns reordered, and p_n = det(A)^2 (prod d)^2 with
# M_n = [[det(A)^2]]. For these three the maps d -> z cover the open orthant,
# so the converse holds as well.


#: one record (s, reads) per k-subset s: reads[l][i] is (row, column, negate), where C_{k-1} holds adj B at (l, i)
_AdjugateTable = tuple[tuple[tuple[int, ...], tuple[tuple[tuple[int, int, bool], ...], ...]], ...]


@cache
def _adjugate_table(n: int, k: int) -> _AdjugateTable:
    """Where the adjugate of each order-k principal block is read in C_{k-1}, per (n, k).

    One record ``(s, reads)`` per k-subset s of range(n), in the order of
    ``_laplace_plan(n, k)``, from whose ``below`` it is built. For a
    symmetric B = m[s, s], adj B at (l, i) is (-1)^(i+l) times the minor of
    B without row l and column i, which C_{k-1}(m) holds at
    (below[l], below[i]); ``reads[l][i]`` is that row, that column and
    whether i + l is odd. It depends on (n, k) alone, so the indices and
    signs are worked out once per size and process. Its readers are the
    copositivity half, in the compound walk of ``_orthant_witness`` and in
    ``_walk_kernel``, which writes the reads into its source, and the
    kernel half, ``_vertex_average``.
    """
    return tuple(
        (s, tuple(tuple((jl, ji, bool((i + l) & 1)) for i, ji in enumerate(below)) for l, jl in enumerate(below)))
        for s, below in _laplace_plan(n, k)
    )


def _lifted_witness(m: list[list[int]], s: tuple[int, ...], x: Sequence[int]) -> tuple[int, ...]:
    """The copositivity half's witness: the first z = 2^t x + e, t = 0, 1, ..., with z^T m z < 0.

    ``x`` = adj(B) 1 > 0 for a failing block B = m[s, s], so x^T B x < 0;
    it is divided by its gcd first and padded with zeros to all n indices,
    and e is 1 where the padded x is 0 and 0 elsewhere. The value of z is
    4^t a + 2^t b + c with a = x^T m x, b = 2 x^T m e and c = e^T m e, so
    the three are computed once and only the doublings are counted; a < 0
    bounds them. An x with a >= 0 is no failing direction, and raises
    ``ValueError``.
    """
    divisor = gcd(*x)
    padded = [0] * len(m)
    for i, v in zip(s, x):
        padded[i] = v // divisor
    mx = [sum(map(mul, row, padded)) for row in m]
    a = sum(map(mul, padded, mx))
    if a >= 0:
        raise ValueError(f"x^T m x = {a} >= 0: x is not a failing direction of m")
    zeros = [i for i, v in enumerate(padded) if not v]
    b, c = 2 * sum([mx[i] for i in zeros]), sum([m[i][j] for i in zeros for j in zeros])
    scale = 1
    while (scale * a + b) * scale + c >= 0:
        scale *= 2
    return tuple([scale * v or 1 for v in padded])


def _vertex_average(m: list[list[int]]) -> tuple[int, ...] | None:
    """The kernel half's witness for a copositive m with det m = 0, or None when m z = 0 has no z > 0.

    The z >= 0 with m z = 0 and sum z = 1 form a polytope. Its vertices are
    the x > 0 on a support s with m x = 0 whose solution is unique up to
    scale. A positive z exists exactly when the vertex supports cover every
    index, and the average of the vertices is then one, of value 0; it is
    returned as its primitive integer vector.

    A vertex x on s lies in ker B for B = m[s, s], so B is singular. Since
    m is copositive, every y > 0 in ker B near x, padded with zeros, is a
    zero of the form on the orthant, so each (m y)_i with i not in s is
    >= 0 near x and 0 at x. These linear functions then vanish on all of
    ker B, so m y = 0 there, and uniqueness leaves ker B one line:
    rank B = k - 1. Any nonzero row of adj B spans that line. So s is a
    vertex support exactly when det B = 0, adj B has a nonzero row z,
    m z = 0 on all n rows and z is strictly one-signed.

    It walks the compounds of m once, as the copositivity half does: det B
    is the diagonal entry of C_k(m) at s, and the rows of adj B are read
    from C_{k-1}(m) through ``_adjugate_table``, up to the first nonzero
    one. It is the one reader of a singular block's adjugate; both routes
    of ``_orthant_witness`` call it after a walk in which no block failed.
    """
    n = len(m)
    vertices = []
    for k, rows in enumerate(_int_compounds(m)):
        if k:
            for a, (s, reads) in enumerate(_adjugate_table(n, k)):
                if rows[a][a]:
                    continue
                adj = ([-lower[jl][ji] if negate else lower[jl][ji] for jl, ji, negate in read] for read in reads)
                z = next(filter(any, adj), None)
                if z is None or any(sum(m[i][j] * v for j, v in zip(s, z)) for i in range(n)):
                    continue
                total = sum(z)
                if any(v * total <= 0 for v in z):
                    continue
                # the vertex is z / total, whichever sign z has
                vertices.append((s, z, total))
        lower = rows
    if len({i for s, _, _ in vertices for i in s}) < n:
        return None
    # the sum of the vertices times the lcm of the |total|: a positive integer multiple of their average
    common = lcm(*(total for _, _, total in vertices))
    average = [0] * n
    for s, z, total in vertices:
        for i, v in zip(s, z):
            average[i] += v * (common // total)
    divisor = gcd(*average)
    return tuple(v // divisor for v in average)


@cache
def _walk_kernel(n: int) -> Callable[..., tuple[int, ...] | None]:
    """The walk of ``_orthant_witness`` over an n x n form compiled into one straight-line function.

    ``walk(m)`` returns what the compound walk returns for the symmetric
    integer matrix ``m``. The two halves' witness helpers are bound when it
    is compiled, ``lift = _lifted_witness`` and ``average = _vertex_average``,
    so a call passes it the form alone and it holds nothing of a call. It
    binds the entries of m to locals ``m{r}_{c}``, C_1 = m, and names every
    entry of the order-k compound ``c{k}_{r}_{c}``, built order by order in
    ``_laplace_plan(n, k)`` order by the expansion that
    ``_laplace_expansion`` writes for the row kernels of ``_int_compounds``,
    so it holds the same integers. After each order comes one test per
    block B = m[s, s], in ``_adjugate_table(n, k)`` order: det B < 0 and
    every entry of adj B, read with the table's sign from the order below,
    >= 0, one ``and`` that stops at the first negative entry; it returns
    ``lift(m, s, adj(B) 1)``. So the source holds the copositivity half
    alone. When no block fails, det m != 0 returns None and det m = 0
    returns ``average(m)``, which finds a positive kernel vector itself.
    The source is made only of the plans' integers and fixed names, and
    ``_compile`` runs it with empty builtins and the two helpers. It is
    compiled once per n and process, on first use, and only for
    n <= ``_WALK_KERNEL_MAX``; ``_orthant_witness`` is its one caller.
    """

    def entry(k: int, r: int, c: int) -> str:
        # C_0 = [[1]], the order-0 minor, and C_1 = m
        return "1" if not k else f"m{r}_{c}" if k == 1 else f"c{k}_{r}_{c}"

    rows = "".join(f"({''.join(f'm{r}_{c}, ' for c in range(n))}), " for r in range(n))
    lines = ["def walk(m):", f"    {rows}= m"]
    for k in range(1, n + 1):
        if k > 1:
            plan = _laplace_plan(n, k)
            for r, (s, below_r) in enumerate(plan):
                for c, (t, below_c) in enumerate(plan):
                    # the row kernel's expansion, along row s[-1] of m
                    expansion = _laplace_expansion(
                        k, lambda i: f"m{s[-1]}_{t[i]}", lambda i: entry(k - 1, below_r[-1], below_c[i])
                    )
                    lines.append(f"    {entry(k, r, c)} = {expansion}")
        for a, (s, reads) in enumerate(_adjugate_table(n, k)):
            det = entry(k, a, a)
            adj = [[("-" if negate else "", entry(k - 1, jl, ji)) for jl, ji, negate in read] for read in reads]
            # the order-0 minor 1 needs no test
            tests = [f"{name} {'<=' if sign else '>='} 0" for row in adj for sign, name in row if name != "1"]
            sums = ["".join(f"{sign or '+'}{name}" for sign, name in row).lstrip("+") for row in adj]
            lines.append(f"    if {' and '.join([f'{det} < 0', *tests])}:")
            lines.append(f"        return lift(m, {s}, ({', '.join(sums)},))")
    lines.append(f"    if {entry(n, 0, 0)}:\n        return None\n    return average(m)")
    return _compile("\n".join(lines) + "\n", "walk", lift=_lifted_witness, average=_vertex_average)


#: the largest form that ``_orthant_witness`` decides through ``_walk_kernel``. Compiling one
#: kernel, once per size and process (Python 3.11.7, median of five processes; peak memory by
#: tracemalloc): n = 2 ~0.25 ms and 0.08 MB, n = 3 ~0.7 ms and 0.19 MB, n = 4 ~1.6 ms and 0.57 MB.
#: Above it the kernel holds every compound entry as a local, C(2n, n) - 1 of them (251, 923 and
#: 3431 at n = 5, 6, 7), and its compile grows to ~4.9 ms and 1.9 MB, ~20 ms and 6.6 MB, and
#: ~80 ms and 25 MB; at n = 7 a call on a random form took 41 us against the compound walk's
#: 28 us. Under the default symbolic guard, larger forms come only from p_1 and p_{n-1} of 5x5 and
#: 6x6 matrices; they keep the walk, which is also the reference the kernel is held to.
_WALK_KERNEL_MAX = 4


def _orthant_witness(m: list[list[int]]) -> tuple[int, ...] | None:
    """A z > 0 with z^T m z <= 0, as positive integers, or None when x^T m x > 0 for every x > 0.

    ``m`` is a symmetric integer matrix. The form is positive on the open
    orthant exactly when m is copositive and no z > 0 has m z = 0: a zero
    of a copositive form at some z > 0 is an interior minimum, where the
    gradient 2 m z vanishes. Each failure gives its own witness. The
    copositivity half reads the determinants and adjugates of the
    principal submatrices B = m[s, s] of order k = |s|, visited in
    increasing order, from one walk over the compounds of m: det B is the
    diagonal entry of C_k(m) at s, and adj B holds entries of C_{k-1}(m),
    the order the walk yielded before; for a 1x1 B that is adj B = (1),
    the order-0 minor. Each entry of adj B is read where the per-size
    ``_adjugate_table`` says, with its sign, one row at a time and only as
    far as the test needs, so only two orders are held at a time. When no
    block fails and det m = 0, the kernel half is ``_vertex_average(m)``,
    which walks the compounds again and reads the singular blocks.

    A form of size n <= ``_WALK_KERNEL_MAX`` takes the same walk compiled
    into one straight-line function, ``_walk_kernel(n)``, which returns
    the same value: the interpreted walk costs a generator step, a row
    kernel call per compound row and a loop per block, most of a 3x3
    form's time. Larger forms take the walk below: the kernel's frame and
    its compile grow with the number of compound entries, C(2n, n) - 1,
    and at n = 7 it is slower than the walk.

    Copositivity (Cottle-Habetler-Lemke): m fails at the first B with
    det B < 0 and adj B >= 0; a row with a negative entry ends the read of
    adj B. x = adj(B) 1, the row sums of adj B, then gives
    x^T B x = det(B) 1^T adj(B) 1 < 0. Padded with zeros, x is a witness
    on the boundary. z = 2^t x with every zero entry set to 1 has the
    value 4^t x^T m x + O(2^t), so counting t up from 0 reaches a negative
    value, and that z is returned (``_lifted_witness``).

    Positive kernel vector, for a copositive m with det m = 0: the average
    of the vertices of {z >= 0, m z = 0, sum z = 1} when their supports
    cover every index (``_vertex_average``, which proves the rule).
    """
    n = len(m)
    if n <= _WALK_KERNEL_MAX:
        return _walk_kernel(n)(m)
    for k, rows in enumerate(_int_compounds(m)):
        if k:
            for a, (s, reads) in enumerate(_adjugate_table(n, k)):
                det = rows[a][a]
                if det >= 0:
                    continue
                # the rows of adj B, each built when the test reaches it
                adj = ([-lower[jl][ji] if negate else lower[jl][ji] for jl, ji, negate in read] for read in reads)
                x = []
                for row in adj:
                    if min(row) < 0:
                        break
                    x.append(sum(row))
                else:
                    return _lifted_witness(m, s, x)
        lower = rows
    # det is now det m, the last minor visited
    if det:
        return None
    return _vertex_average(m)


@cache
def _form_entries(n: int) -> tuple[dict[tuple[int, ...], tuple[int, int]], dict[tuple[int, ...], tuple[int, int]]]:
    """Per n, the entry (i, k), i <= k, of the form that each exponent fills: for x = d, then for x = 1/d.

    x_i x_k is d_i d_k, or (prod d)^2 / (d_i d_k) with exponent 2 - e.
    """
    by_d, by_inverse = {}, {}
    for i in range(n):
        for k in range(i, n):
            e = [0] * n
            e[i] += 1
            e[k] += 1
            by_d[tuple(e)] = by_inverse[tuple(2 - x for x in e)] = (i, k)
    return by_d, by_inverse


def _form_matrix(p: SparsePolynomial) -> tuple[list[list[int]], bool] | None:
    """(M, inverse): a symmetric integer M with p = c * x^T M x for some c > 0, or None.

    x is d (``inverse`` False) when p is a quadratic form, as p_1 is. x is
    1/d (``inverse`` True) when p is (prod d)^2 times a quadratic form in
    1/d, that is homogeneous of degree 2n-2 with every exponent at most 2,
    as p_{n-1} is: a term then lacks 2 from the exponent of one variable or
    1 from each of two. Each term's entry is looked up in the tables of
    ``_form_entries``; the first term picks the reading, x = d when both
    apply (n = 2), and a term the table lacks gives None. The zero
    polynomial has no degree and gives None. The entries are read off the
    integer numerators of p over its denominator L, so c = 1/(2L).
    """
    n = p.n_vars
    terms = p._numerators()
    if not terms:
        return None
    by_d, by_inverse = _form_entries(n)
    inverse = next(iter(terms))[0] not in by_d
    entries = by_inverse if inverse else by_d
    m = [[0] * n for _ in range(n)]
    for e, value in terms:
        entry = entries.get(e)
        if entry is None:
            return None
        i, k = entry
        if i == k:
            m[i][i] = 2 * value
        else:
            m[i][k] = m[k][i] = value
    return m, inverse


# ---------------------------------------------------------------------------
# Positivity certificates on the open positive orthant


class CertificateVerdict(Enum):
    POSITIVE_ON_ORTHANT = "positive_on_orthant"
    NOT_POSITIVE = "not_positive"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CoefficientEvidence:
    """Every coefficient is nonnegative and the listed term is positive."""

    verdict: ClassVar[CertificateVerdict] = CertificateVerdict.POSITIVE_ON_ORTHANT
    positive_exponents: tuple[int, ...]
    positive_coefficient: Fraction

    def holds_for(self, p: SparsePolynomial) -> bool:
        return (
            _is_tuple(self.positive_exponents, p.n_vars)
            and all(type(k) is int for k in self.positive_exponents)
            and _is_rational(self.positive_coefficient)
            and self.positive_coefficient > 0
            and p.has_positive_coefficients()
            and p.coefficient(self.positive_exponents) == self.positive_coefficient
        )

    def describe(self) -> str:
        return "certified positive on the open positive orthant (all coefficients nonnegative)"

    def to_dict(self) -> dict:
        return {
            "kind": "nonnegative_coefficients",
            "positive_exponents": list(self.positive_exponents),
            "positive_coefficient": render_rational(self.positive_coefficient),
        }


@dataclass(frozen=True)
class QuadraticEvidence:
    """a*x^2 + b*x*y + c*y^2 with a, c > 0 and b^2 < 4ac, plus its completion.

    ``completion`` is a list of (multiplier, linear form) pairs with
    positive multipliers whose weighted squares re-expand to the
    polynomial exactly.
    """

    verdict: ClassVar[CertificateVerdict] = CertificateVerdict.POSITIVE_ON_ORTHANT
    a: Fraction
    b: Fraction
    c: Fraction
    completion: tuple[tuple[Fraction, SparsePolynomial], ...]

    @property
    def b_squared(self) -> Fraction:
        return self.b * self.b

    @property
    def four_ac(self) -> Fraction:
        return 4 * self.a * self.c

    def expanded(self) -> SparsePolynomial:
        total = SparsePolynomial.zero(2)
        for multiplier, form in self.completion:
            total = total + form * form * multiplier
        return total

    def completion_text(self) -> str:
        parts = []
        for multiplier, form in self.completion:
            terms = form.terms()
            body = form.to_natural_text()
            if not (len(terms) == 1 and abs(terms[0][1]) == 1):
                body = f"({body})"
            body += "^2"
            if multiplier != 1:
                body = f"{multiplier}*{body}"
            parts.append(body)
        return " + ".join(parts)

    def holds_for(self, p: SparsePolynomial) -> bool:
        return (
            p.n_vars == 2
            and p.is_homogeneous(2)
            and all(_is_rational(x) for x in (self.a, self.b, self.c))
            and (self.a, self.b, self.c) == (p.coefficient((2, 0)), p.coefficient((1, 1)), p.coefficient((0, 2)))
            and self.a > 0
            and self.c > 0
            and self.b_squared < self.four_ac
            and _is_tuple(self.completion)
            and all(
                _is_tuple(term, 2)
                and _is_rational(term[0])
                and term[0] > 0
                and isinstance(term[1], SparsePolynomial)
                and term[1].n_vars == 2
                for term in self.completion
            )
            and self.expanded() == p
        )

    def describe(self) -> str:
        return (
            "certified positive on the open positive orthant\n"
            f"    quadratic check: a = {self.a}, b = {self.b}, c = {self.c}; "
            f"b^2 = {self.b_squared} < 4ac = {self.four_ac}\n"
            f"    completion: {self.completion_text()}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": "two_variable_quadratic",
            "a": render_rational(self.a),
            "b": render_rational(self.b),
            "c": render_rational(self.c),
            "b_squared": render_rational(self.b_squared),
            "four_ac": render_rational(self.four_ac),
            "completion": [
                {"multiplier": render_rational(m), "form": form.to_text()}
                for m, form in self.completion
            ],
            "completion_text": self.completion_text(),
        }


@dataclass(frozen=True)
class WitnessEvidence:
    """A strictly positive point where the polynomial is not positive."""

    verdict: ClassVar[CertificateVerdict] = CertificateVerdict.NOT_POSITIVE
    point: tuple[Fraction, ...]
    value: Fraction

    def holds_for(self, p: SparsePolynomial) -> bool:
        return (
            _is_tuple(self.point, p.n_vars)
            and all(_is_rational(x) and x > 0 for x in self.point)
            and _is_rational(self.value)
            and self.value <= 0
            and p.evaluate(self.point) == self.value
        )

    def describe(self) -> str:
        point = ", ".join(render_rational(x) for x in self.point)
        return f"not positive: value {self.value} at d = ({point})"

    def to_dict(self) -> dict:
        return {
            "kind": "witness_point",
            "point": [render_rational(x) for x in self.point],
            "value": render_rational(self.value),
        }


Evidence = CoefficientEvidence | QuadraticEvidence | WitnessEvidence


def _is_rational(x) -> bool:
    """Whether ``x`` is an exact number: an ``int`` or a ``Fraction``, not a float or a bool."""
    return type(x) in (int, Fraction)


def _is_tuple(xs, length: int | None = None) -> bool:
    """Whether ``xs`` is a tuple, of ``length`` entries when one is given."""
    return type(xs) is tuple and (length is None or len(xs) == length)


@dataclass(frozen=True)
class Certificate:
    """A polynomial and the machine-checkable evidence on its sign on the open orthant."""

    polynomial: SparsePolynomial
    evidence: Evidence | None

    @property
    def verdict(self) -> CertificateVerdict:
        """The verdict that the evidence kind states; INCONCLUSIVE when there is no evidence of a known kind."""
        return self.evidence.verdict if isinstance(self.evidence, Evidence) else CertificateVerdict.INCONCLUSIVE

    def verify(self) -> bool:
        """Re-check the evidence against the polynomial from scratch: False, not an error, if malformed.

        One rule of shape for every kind: the polynomial is a
        ``SparsePolynomial``, each number is an ``int`` or a ``Fraction``, and
        each sequence a tuple of the right length.
        """
        p, e = self.polynomial, self.evidence
        return isinstance(p, SparsePolynomial) and (e is None or isinstance(e, Evidence) and e.holds_for(p))

    def to_dict(self) -> dict:
        """The polynomial, verdict and evidence; evidence of no known kind is null, as ``verdict`` reads it."""
        return {
            "polynomial": self.polynomial.to_text(),
            "verdict": self.verdict.value,
            "evidence": self.evidence.to_dict() if isinstance(self.evidence, Evidence) else None,
        }


def _witness_evidence(p: SparsePolynomial, z: tuple[int, ...], inverse: bool) -> WitnessEvidence:
    """The witness point d = z, or d = 1/z when ``inverse``, as one coprime integer vector, and p there.

    ``z`` is the positive integer vector of ``_orthant_witness``. The point
    is d = z, or d_i = lcm(z) / z_i for d = 1/z, divided by its gcd, so a
    positive multiple of z gives the same point; the value is one integer
    sum over p's numerators (``_value_at``).
    """
    if inverse:
        common = lcm(*z)
        z = [common // v for v in z]
    divisor = gcd(*z)
    point = [v // divisor for v in z]
    return WitnessEvidence(tuple(map(Fraction, point)), p._value_at(point))


#: d2, the second linear form of every two-variable square completion
_D2 = SparsePolynomial._from_terms(2, {(0, 1): 1}, 1)


def _quadratic_evidence(p: SparsePolynomial, form: list[list[int]]) -> QuadraticEvidence:
    """The square completion a*(d1 + b/(2a)*d2)^2 + (4ac - b^2)/(4a)*d2^2 of a positive two-variable form.

    ``form`` is ``_form_matrix``'s [[2A, B], [B, 2C]] for p = (A*d1^2 +
    B*d1*d2 + C*d2^2) / L with integers A, B, C. So the first linear form
    d1 + b/(2a)*d2 is (2A*d1 + B*d2) / (2A), the second is d2, and
    (4ac - b^2)/(4a) is a * det(form) / (2A)^2. The form is positive and
    has a negative coefficient, so A > 0, C > 0 and B < 0.
    """
    (twice_a, b_numerator), (_, twice_c) = form
    a = p.coefficient((2, 0))
    det = twice_a * twice_c - b_numerator * b_numerator
    completion = (
        (a, SparsePolynomial._from_terms(2, {(1, 0): twice_a, (0, 1): b_numerator}, twice_a)),
        (Fraction(a.numerator * det, a.denominator * twice_a * twice_a), _D2),
    )
    return QuadraticEvidence(a, p.coefficient((1, 1)), p.coefficient((0, 2)), completion)


def certify_positive_on_orthant(p: SparsePolynomial) -> Certificate:
    """Decide positivity of ``p`` on the open positive orthant where possible.

    Exact strategies, in fixed order: (a) all coefficients nonnegative with
    one positive; (b) for a quadratic form in d, or (prod d)^2 times one in
    1/d, as p_1 and p_{n-1} are, ``_orthant_witness`` on the integer matrix
    that ``_form_matrix`` reads. A witness z gives the point d = z or
    d = 1/z, by the reading ``_form_matrix`` chose, recorded as one coprime
    integer vector with p's value there (``_witness_evidence``). No witness
    means the form is positive on the orthant; a two-variable form
    a*d1^2 + b*d1*d2 + c*d2^2 then records its weighted square completion
    as evidence, built from the integers of that same matrix
    (``_quadratic_evidence``). It reaches (b) only with a negative
    coefficient, so there no witness means exactly a > 0, c > 0 and
    b^2 < 4ac. Anything left over is INCONCLUSIVE, which is a legitimate
    outcome, not an error: that includes a positive form in more than two
    variables, which no evidence kind records yet, and every other p,
    which sampling probes.
    """
    if p.is_zero:
        point = (Fraction(1),) * p.n_vars
        return Certificate(p, WitnessEvidence(point, Fraction(0)))

    if p.has_positive_coefficients():
        exps, coeff = p.leading_term()
        return Certificate(p, CoefficientEvidence(exps, coeff))

    read = _form_matrix(p)
    if read is None:
        return Certificate(p, None)
    form, inverse = read
    z = _orthant_witness(form)
    if z is not None:
        return Certificate(p, _witness_evidence(p, z, inverse))
    if p.n_vars != 2:
        return Certificate(p, None)
    return Certificate(p, _quadratic_evidence(p, form))


# ---------------------------------------------------------------------------
# Sampling refutation


def check_sampling_args(budget: int, exponent_range: int) -> None:
    """Raise ValueError for a sampling budget below 1 or a negative exponent range."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if exponent_range < 0:
        raise ValueError("exponent_range must be >= 0")


def _uniform_draws(rng: random.Random, low: int, high: int) -> Iterator[int]:
    """Endless integers uniform on [low, high], each drawn from ``rng`` when it is asked for.

    With width = high - low + 1, a draw is low + r for the first
    r = rng.getrandbits(width.bit_length()) below width. That is the rule
    ``rng.randint(low, high)`` follows on CPython 3.10 to 3.13, so the two
    consume the generator alike and yield the same integers; the rule is
    kept here because Python does not promise to keep ``randint``'s. Two
    streams of one ``rng`` interleave in the order they are asked.
    """
    width = high - low + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    while True:
        r = getrandbits(bits)
        if r < width:
            yield low + r


def sample_refute(
    matrix: RationalMatrix,
    certificates: Sequence[Certificate],
    budget: int = 10_000,
    seed: int = 0,
    exponent_range: int = 3,
    max_dim: int | None = None,
) -> DiagonalScaling | None:
    """Hunt for a positive diagonal D such that (D*A)^2 is not a Q-matrix.

    Draws ``budget`` scalings deterministically from ``seed``. Each
    diagonal entry is an exact rational m * 10^e with the mantissa m
    drawn uniformly from {8/8, 9/8, ..., 16/8} and the exponent e
    uniformly from [-exponent_range, exponent_range], each by the rule of
    ``_uniform_draws``; draws are consumed mantissa-then-exponent,
    coordinate by coordinate, which is part of the determinism contract.
    Returns the first witness found, or None.

    Each draw is tested in integers, through the identity described in
    :func:`symbolic_q_invariants`. Every p_j is homogeneous of degree 2j
    in d and in A, so evaluating it at the integer point
    8 * 10^exponent_range * d for the integer matrix q*A multiplies it by
    a positive factor and keeps its sign. The subset products of the point
    are built by bitmask, then c_k, then each p_j.

    ``certificates`` are those of p_1..p_n, in order, as
    ``certify_positive_on_orthant`` gives them for the polynomials of
    ``symbolic_q_invariants(matrix, max_dim)``; the caller has made them, and
    they are read here, not made again. A wrong count, or an entry that is
    not a ``Certificate``, raises ValueError before any draw, as a bad
    budget, exponent range or dimension does.

    When the certificates prove that no draw can be a witness, None is
    returned without drawing. For n <= 3 every p_j is p_1, p_{n-1} or p_n,
    and ``certify_positive_on_orthant`` finds each of them NOT_POSITIVE
    exactly when it is not positive on the orthant: p_n = det(A)^2 (prod d)^2
    is zero or has a positive coefficient, and p_1 and p_{n-1} are decided
    through their forms. So when no certificate is NOT_POSITIVE, every p_j
    is positive and no draw is made.
    """
    check_sampling_args(budget, exponent_range)
    n = matrix.n
    check_enumeration_dim(n, max_dim)
    if len(certificates) != n or not all(isinstance(c, Certificate) for c in certificates):
        raise ValueError(f"sampling a {n}x{n} matrix needs the {n} certificates of p_1..p_{n}, in order")
    if n <= 3 and all(c.verdict is not CertificateVerdict.NOT_POSITIVE for c in certificates):
        return None
    _, scaled = _scaled(matrix)
    # the nonzero minors of each order keyed by subset bitmask: the draws skip the zero ones
    by_order = [
        [(mask, v) for mask, v in zip(masks, minors) if v]
        for masks, minors in zip(_subset_masks(n), _principal_minors(scaled))
    ]
    rng = random.Random(seed)
    # the mantissa 8*m and the exponent shifted by exponent_range, from one generator
    mantissas = _uniform_draws(rng, 8, 16)
    shifted_exponents = _uniform_draws(rng, 0, 2 * exponent_range)
    weights = [_pair_weights(n, j) for j in range(1, n + 1)]
    lowest = [(mask & -mask).bit_length() - 1 for mask in range(1 << n)]
    powers = [10**k for k in range(2 * exponent_range + 1)]
    products = [1] * (1 << n)
    for _ in range(budget):
        point = [next(mantissas) * powers[next(shifted_exponents)] for _ in range(n)]
        # products[mask] = prod of point[i] over the bits i of mask
        for mask in range(1, 1 << n):
            products[mask] = products[mask & (mask - 1)] * point[lowest[mask]]
        c = [sum(value * products[mask] for mask, value in terms) for terms in by_order]
        for pairs in weights:
            if sum(w * c[a] * c[b] for a, b, w in pairs) <= 0:
                denominator = 8 * 10**exponent_range
                return DiagonalScaling(tuple(Fraction(x, denominator) for x in point))
    return None


# ---------------------------------------------------------------------------
# The product-minor expansion behind the flawed truncation argument


@dataclass(frozen=True)
class CauchyBinetExpansion:
    """Expansion of a principal minor of A^2 into products of minors of A.

    minor(A^2, alpha, alpha) = sum over |beta|=|alpha| of
    minor(A, alpha, beta) * minor(A, beta, alpha). The beta = alpha term
    is the square of the principal minor of A, which is what one gets
    from squaring the row-truncated matrix instead of truncating the
    square; the remaining terms are exactly what that shortcut drops.
    """

    alpha: IndexSet
    terms: tuple[tuple[IndexSet, Fraction], ...]

    @property
    def total(self) -> Fraction:
        return sum((t for _, t in self.terms), Fraction(0))

    @property
    def principal_term(self) -> Fraction:
        for beta, term in self.terms:
            if beta.members == self.alpha.members:
                return term
        raise LookupError("expansion is missing its beta = alpha term")


def cauchy_binet_terms(
    matrix: RationalMatrix, alpha: IndexSet, max_dim: int | None = None
) -> CauchyBinetExpansion:
    """All products minor(A, alpha, beta) * minor(A, beta, alpha) over |beta| = |alpha|.

    The denominators are cleared once: each minor is one square
    determinant of q*A, so a row and a column of the order-|alpha|
    compound take C(n, |alpha|) determinants each, and each product of
    two carries q^(2|alpha|).
    """
    n = matrix.n
    _check_in_range(matrix, alpha)
    check_enumeration_dim(n, max_dim)
    q, scaled = _scaled(matrix)
    rows = alpha.zero_based()
    scale = q ** (2 * len(alpha))
    terms = []
    for beta in index_sets(n, len(alpha)):
        cols = beta.zero_based()
        terms.append((beta, Fraction(_int_minor(scaled, rows, cols) * _int_minor(scaled, cols, rows), scale)))
    return CauchyBinetExpansion(alpha=alpha, terms=tuple(terms))
