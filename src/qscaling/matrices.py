"""Exact rational matrices, index sets, minors, and compound matrices.

A matrix stores integer numerators over one positive denominator, q*A
over q, and nothing else; it reads its entries as :class:`fractions.Fraction`
values built at each read, so every sign decision made downstream is exact,
and nothing in this package touches floating point. Matrices and index
sets are immutable after construction and safe to share between threads.

Matrix text format (consumed by the CLI): the first line is the dimension
``n``, followed by ``n`` lines of ``n`` whitespace-separated rationals,
each written ``p``, ``-p``, or ``p/q`` with ``q > 0``. ``parse_matrix`` /
``render_matrix`` round-trip this format bit-exactly, and
``matrix_from_dict`` / ``matrix_to_dict`` do the same for the structured
form ``{"n": ..., "rows": [["1", "2"], ...]}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, islice
from math import comb, gcd, lcm
from typing import Callable, Iterator, Sequence

#: Operations that enumerate all minors refuse dimensions above this bound
#: unless the caller overrides it; the minor count grows as sum_k C(n,k)^2.
DEFAULT_ENUMERATION_GUARD = 12

#: a square integer matrix as rows of ints: q*A as a RationalMatrix stores it (tuples), or one built to be stored (lists)
_IntRows = Sequence[Sequence[int]]


class DimensionGuardError(ValueError):
    """An enumerating operation was asked for a dimension above its bound."""


class MatrixParseError(ValueError):
    """Malformed matrix text or document; carries a line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


def _check_dim(n: int, max_dim: int | None, default: int, bound: str) -> None:
    """Raise DimensionGuardError if n exceeds ``max_dim``, or ``default`` when it is None.

    Every dimension bound of the package is enforced here; ``bound`` names
    it in the message.
    """
    limit = default if max_dim is None else max_dim
    if n > limit:
        raise DimensionGuardError(f"dimension {n} exceeds the {bound} bound {limit}; pass a larger max_dim to override")


def check_enumeration_dim(n: int, max_dim: int | None = None) -> None:
    """Raise DimensionGuardError if n exceeds the minor-enumeration bound.

    The bound is ``max_dim``, or ``DEFAULT_ENUMERATION_GUARD`` as it reads
    at the call when ``max_dim`` is None.
    """
    _check_dim(n, max_dim, DEFAULT_ENUMERATION_GUARD, "minor-enumeration")


_RATIONAL_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")
_DIMENSION_TOKEN = re.compile(r"[0-9]+\Z")


def parse_rational(token: str) -> Fraction:
    """Parse ``p``, ``-p``, or ``p/q`` (q > 0) into an exact Fraction."""
    if not _RATIONAL_TOKEN.match(token):
        raise ValueError(f"not a rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def render_rational(value: Fraction) -> str:
    """Lowest-terms ``p/q``; plain ``p`` when the denominator is 1."""
    return str(value)


def _coerce_rational(value) -> Fraction:
    # exact type tests first: for an int, isinstance(value, Fraction) is a failed ABC check
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing subset of {1..n}, addressing rows/columns.

    Indices are 1-based. The empty set is allowed only where an order-0
    minor (conventionally 1) makes sense.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        prev = 0
        for m in members:
            if type(m) is not int or m <= prev:
                raise ValueError(f"members must be strictly increasing ints in 1..{self.n}, got {members}")
            prev = m
        if members and members[-1] > self.n:
            raise ValueError(f"member {members[-1]} out of range 1..{self.n}")

    @classmethod
    def of(cls, n: int, *members: int) -> "IndexSet":
        return cls(n, tuple(sorted(members)))

    def zero_based(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


def index_sets(n: int, k: int) -> Iterator[IndexSet]:
    """All size-k subsets of {1..n} in lexicographic order."""
    for combo in combinations(range(1, n + 1), k):
        yield IndexSet(n, combo)


class _Immutable:
    """Refuses every assignment and deletion; a subclass writes its slots once, through their descriptors."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")


class RationalMatrix(_Immutable):
    """Immutable square matrix of exact rationals.

    Stored as integer numerators over one positive denominator q in lowest
    terms: the integer matrix q*A as tuple rows, with q the least common
    denominator of A's entries (1 for an integer matrix). So two equal
    matrices store the same integers, and every integer layer reads q*A as
    it is stored (``_scaled``). ``rows`` builds A's entries as Fractions at
    each read, and keeps nothing: the two slots are all a matrix holds.
    """

    __slots__ = ("_q", "_qa")

    def __init__(self, rows):
        qa = tuple(map(tuple, rows))
        if all(type(x) is int for row in qa for x in row):
            q = 1
        else:
            entries = [[_coerce_rational(x) for x in row] for row in qa]
            # over the least common denominator of reduced entries, the numerators share no factor with it
            q = lcm(*(x.denominator for row in entries for x in row))
            qa = tuple(tuple(x.numerator * (q // x.denominator) for x in row) for row in entries)
        if not qa:
            raise ValueError("matrix dimension must be at least 1")
        n = len(qa)
        for row in qa:
            if len(row) != n:
                raise ValueError(f"matrix must be square; got a row of length {len(row)} with {n} rows")
        self._init(q, qa)

    def _init(self, q: int, qa: tuple[tuple[int, ...], ...]) -> None:
        # through the slot descriptors, past the __setattr__ that refuses every assignment
        _SET_Q(self, q)
        _SET_QA(self, qa)

    @classmethod
    def _from_ints(cls, qa: _IntRows, q: int) -> "RationalMatrix":
        """The matrix with integer entries ``qa`` over ``q`` > 0; ``qa`` is square and nonempty.

        A factor that q shares with every entry is divided out, so the
        matrix is stored in lowest terms however it was given.
        """
        if q != 1:
            g = gcd(q, *chain.from_iterable(qa))
            if g != 1:
                q //= g
                qa = [[v // g for v in row] for row in qa]
        matrix = cls.__new__(cls)
        matrix._init(q, tuple(map(tuple, qa)))
        return matrix

    def __reduce__(self):
        # copy and pickle rebuild from the stored integers; the default would set the slots
        return (type(self)._from_ints, (self._qa, self._q))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._q == other._q and self._qa == other._qa

    def __hash__(self) -> int:
        return hash((self._q, self._qa))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rows={self.rows!r})"

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row-major, built at each read."""
        q = self._q
        return tuple(tuple(Fraction(v, q) for v in row) for row in self._qa)

    @property
    def n(self) -> int:
        return len(self._qa)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_ints([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def diagonal(cls, values: Sequence) -> "RationalMatrix":
        zero = Fraction(0)
        vals = [_coerce_rational(v) for v in values]
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n)))

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self._qa)), self._q)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._from_ints(tuple(zip(*self._qa)), self._q)

    def scale_rows(self, factors: Sequence) -> "RationalMatrix":
        """Left-multiplication by diag(factors): row i is scaled by factors[i]."""
        if len(factors) != self.n:
            raise ValueError(f"need {self.n} row factors, got {len(factors)}")
        coerced = [_coerce_rational(f) for f in factors]
        # each factor over the factors' common denominator m, so D*A = (m*D)(q*A) / (q*m)
        m = lcm(*(f.denominator for f in coerced))
        return RationalMatrix._from_ints(
            [[f.numerator * (m // f.denominator) * v for v in row] for f, row in zip(coerced, self._qa)],
            self._q * m,
        )


_SET_Q, _SET_QA = (RationalMatrix.__dict__[name].__set__ for name in RationalMatrix.__slots__)


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product; both operands must share the same dimension.

    Each operand's denominators are cleared once: (q_a*A)(q_b*B) is an
    integer product (one call of the kernel ``_product_kernel`` compiled
    for the size), and each entry is divided by q_a*q_b. A square A*A
    clears them once in all.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n}x{a.n} times {b.n}x{b.n}")
    qa, int_a = _scaled(a)
    qb, int_b = (qa, int_a) if b is a else _scaled(b)
    return RationalMatrix._from_ints(_product_kernel(a.n)(int_a, int_b), qa * qb)


def _bareiss_int(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free Bareiss elimination.

    The empty matrix has determinant 1, which makes the order-0 minor 1
    everywhere. A column with no pivot makes the determinant 0. Overwrites
    ``rows``; every caller passes a freshly built list.
    """
    k = len(rows)
    sign, prev = 1, 1
    for t in range(k - 1):
        for r in range(t, k):
            if rows[r][t]:
                break
        else:
            return 0
        if r != t:
            rows[t], rows[r] = rows[r], rows[t]
            sign = -sign
        pivot = rows[t]
        pc = pivot[t]
        for i in range(t + 1, k):
            row = rows[i]
            ric = row[t]
            for j in range(t + 1, k):
                # exact division: prev divides the 2x2 determinant by Sylvester's identity
                row[j] = (row[j] * pc - ric * pivot[j]) // prev
        prev = pc
    return sign * rows[-1][-1] if k else 1


def _scaled(matrix: RationalMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """q, the least common denominator of A's entries, and the integer matrix q*A.

    Both are what the matrix stores, returned as they are: no copy is made,
    and the rows are tuples, which no caller can change. For an integer A,
    q is 1 and the rows are its entries.
    """
    return matrix._q, matrix._qa


def _int_minor(scaled: _IntRows, row_sel: Sequence[int], col_sel: Sequence[int]) -> int:
    """det((q*A)[rows, cols]) for 0-based selections of size k: q^k times the minor of A.

    A single minor is one square determinant; a caller that needs a whole
    order of minors takes the compound from ``_int_compounds`` instead.
    """
    return _bareiss_int([[scaled[i][j] for j in col_sel] for i in row_sel])


def _compile(source: str, name: str, **bound: Callable) -> Callable:
    """The function ``name`` that ``source`` defines, run with empty builtins and the functions ``bound``.

    The one ``exec`` in the package. Its callers, the five kernel builders
    (``_product_kernel``, ``_laplace_kernel`` and ``_prefix_kernel`` here,
    ``_pj_kernel`` and ``_walk_kernel`` in ``scaling``), write source made
    only of integers and fixed names, so no input reaches generated code.
    A kernel that calls other functions, child kernels or the package's
    witness helpers, finds them under the names in ``bound``, bound once
    when it is compiled, so every call passes it only its data and its
    per-call sinks.
    """
    namespace: dict = {"__builtins__": {}, **bound}
    exec(source, namespace)
    return namespace[name]


@cache
def _product_kernel(n: int) -> Callable[[_IntRows, _IntRows], list[list[int]]]:
    """The product of two n x n integer matrices, n >= 1, compiled into one function ``product(a, b)``.

    The function binds the n^2 entries of ``b`` to locals in one nested
    unpack, ``(b0_0, b0_1, ...), (b1_0, ...), ... = b``, then loops over
    the rows of ``a``, unpacked as ``x0, ..., x{n-1}``, and appends for
    each one list display of n unrolled dot products,
    ``x0*b0_j + x1*b1_j + ... + x{n-1}*b{n-1}_j``. So a product makes no
    call per entry, reads each entry of ``b`` once, and returns fresh list
    rows, which no operand and no other product shares, so a caller may
    change them: ``generate_candidates`` adds the identity to B^T B in
    place. The operands may be tuples or lists. The source writes the n^2
    products of one row once, and the loop runs them for every row of
    ``a``, so it grows as n^2, not n^3; one path serves every n, with no
    size cap and no second route above one: compiling takes ~0.3 ms and
    0.08 MB of peak memory at n = 5, ~1.2 ms and 0.35 MB at n = 12 and
    ~14 ms and 3.7 MB at n = 40 (median of three processes, Python 3.11.7;
    the peak by tracemalloc, in a separate compile). The source is made
    only of integers and fixed names, and ``_compile`` runs it with empty
    builtins; it is compiled once per n and process, on first use. Its
    two readers are ``mat_mul`` and that generator.
    """
    b_rows = ", ".join("(" + "".join(f"b{r}_{c}, " for c in range(n)) + ")" for r in range(n))
    x_names = "".join(f"x{k}, " for k in range(n))
    dots = ", ".join(" + ".join(f"x{k}*b{k}_{j}" for k in range(n)) for j in range(n))
    return _compile(
        f"def product(a, b):\n    {b_rows}, = b\n    rows = []\n"
        f"    for {x_names}in a:\n        rows.append([{dots}])\n    return rows\n",
        "product",
    )


def _laplace_expansion(k: int, last: Callable[[int], str], lower: Callable[[int], str]) -> str:
    """The Laplace expansion of an order-k minor along its last row, as source.

    Position i pairs the entry ``last(i)`` of the last row with the minor
    ``lower(i)`` of the order below that omits column i, with the sign
    (-1)^(k-1+i): the term at position k-1 comes first with the sign +,
    then the signs alternate. Its two callers write it into their source:
    the row kernels of ``_laplace_kernel`` and the compiled walk of
    ``scaling._walk_kernel``.
    """
    terms = [f"{last(i)}*{lower(i)}" for i in range(k)]
    return terms[-1] + "".join(f" {'-' if (k - 1 - i) % 2 else '+'} {terms[i]}" for i in range(k - 2, -1, -1))


#: one record (s, below) per k-subset s: below[i] is the index of s - s_i one order below
_LaplacePlan = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@cache
def _laplace_plan(n: int, k: int) -> _LaplacePlan:
    """One record ``(s, below)`` per k-subset s of range(n), in lexicographic order.

    ``below[i]`` is the index of s - s_i among the (k-1)-subsets, also in
    lexicographic order. As a row set, s is row s[-1] of the matrix over
    row ``below[-1]`` of the order below; as a column set, the record gives
    the Laplace expansion of a minor on s along its last row.
    ``_laplace_kernel`` compiles the plan into the function that builds a row.
    """
    lower = {s: a for a, s in enumerate(combinations(range(n), k - 1))}
    return tuple((s, tuple(lower[s[:i] + s[i + 1 :]] for i in range(k))) for s in combinations(range(n), k))


@cache
def _laplace_kernel(n: int, k: int) -> Callable[[list[int], list[int]], list[int]]:
    """The plan of (n, k) compiled into one function ``row(a, b)`` that returns a whole compound row.

    Row S of the order-k compound of an integer matrix M is built from one
    row of the order below: ``a`` is row max S of M and ``b`` is row
    S - max S of the order-(k-1) compound. On the column set c, the minor
    expands along its last row as the sum over i of (-1)^(k-1+i)
    a[c[i]] * b[below[i]], with ``(c, below)`` the plan's record of c.
    Integer products only, so the row holds the same integers as the
    square determinants of its minors. The function first binds each
    operand entry to a local, ``a0, a1, ... = a`` and ``b0, b1, ... = b``,
    so each entry is read once. The row is then one list
    display with an expression per column set,
    ``a{c[-1]}*b{below[-1]} - a{c[-2]}*b{below[-2]} + ...`` as
    ``_laplace_expansion`` writes it, whose factors are named by the plan's
    integers; so building a row makes no call per entry. The source is
    made only of the plan's integers and the fixed operand names, and
    ``_compile`` runs it with empty builtins. It is
    compiled once per (n, k) and process, on first use, for the orders
    k = 2..n: order 1 is the matrix itself, so no kernel builds it. All
    orders at n = 7 take ~2 ms, and at n = 12 ~0.1 s and ~8 MB.
    ``_int_compounds`` is its one caller.
    """
    sums = [_laplace_expansion(k, lambda i: f"a{c[i]}", lambda i: f"b{below[i]}") for c, below in _laplace_plan(n, k)]
    a_names = "".join(f"a{i}, " for i in range(n))
    b_names = "".join(f"b{i}, " for i in range(comb(n, k - 1)))
    return _compile(f"def row(a, b):\n    {a_names}= a\n    {b_names}= b\n    return [{', '.join(sums)}]\n", "row")


def _int_compounds(scaled: _IntRows) -> Iterator[_IntRows]:
    """The integer compounds C_0 = [[1]], C_1, ..., C_n of q*A in turn, each as ``_int_compound`` gives it.

    The one builder of compound rows. C_1 is q*A itself, yielded as given,
    since every order-1 minor is an entry. Row s of order k >= 2 is one
    kernel call on row s[-1] of q*A and row ``below[-1]`` of the order
    yielded before it, so a caller that stops early builds no order above
    the last one it took. The next order reads the rows yielded, and C_1
    is the caller's own matrix, so a caller must not change them. The
    kernels' source is made only of the plans' integers and the fixed
    operand names, so the entries of q*A reach them only as call arguments.
    """
    n = len(scaled)
    yield [[1]]
    rows = scaled
    yield rows
    for k in range(2, n + 1):
        row = _laplace_kernel(n, k)
        rows = [row(scaled[s[-1]], rows[below[-1]]) for s, below in _laplace_plan(n, k)]
        yield rows


def _int_compound(scaled: _IntRows, k: int) -> _IntRows:
    """Every order-k minor of q*A, rows and columns indexed by the k-subsets in lexicographic order.

    Order 1 is ``scaled`` itself, not a copy.
    """
    return next(islice(_int_compounds(scaled), k, None))


@cache
def _prefix_layout(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The nonempty subsets of range(n) depth-first by prefix, and each order's positions in that list.

    Depth-first by prefix (a set, then every set that extends it, children
    in increasing order) is the lexicographic order of the tuples, so the
    sets below a set s follow it as one run of 2^(n-1-max s) - 1 sets.
    Entry k-1 of the second tuple holds, for the k-subsets in the order of
    ``combinations(range(n), k)``, the position of each in the first.
    """
    sets = sorted(s for k in range(1, n + 1) for s in combinations(range(n), k))
    position = {s: i for i, s in enumerate(sets)}
    return tuple(sets), tuple(tuple(position[s] for s in combinations(range(n), k)) for k in range(1, n + 1))


@cache
def _prefix_kernel(m: int) -> Callable[..., None]:
    """One node of the principal-minor tree with m >= 1 bordered minors per side, compiled into one function.

    The function is ``visit(b, d, out, below)``: ``b`` is the m x m matrix
    of bordered minors of a node P, b[i][j] = det((q*A)[P+i', P+j']) for
    the m indices i', j' above max P, and ``d`` is det((q*A)[P]). For each
    child a in turn it passes the child's minor b[a][a] to ``out``. When
    that minor p is nonzero, the child's bordered minors are one list
    display of one Bareiss step, (b[i][j]*p - b[i][a]*b[a][j]) // d for
    i, j > a (exact by Sylvester's identity), and the child is visited by
    the kernel of its size m-1-a, bound as ``k{m-1-a}`` when this one is
    compiled; the last child has nothing above it. When p is 0 that step
    would divide by zero, and ``below()`` appends the minors of every set
    below the child instead. So the minors reach ``out`` depth first by
    prefix. Nothing is written into ``b``, which at the root is q*A itself.
    The source is made only of integers, and ``_compile`` runs it with
    empty builtins and the kernels of sizes 1..m-1, built first through
    this cache. ``_principal_minors`` and the kernels of larger sizes are
    its callers; the two sinks come with each call, so a kernel holds
    nothing of one call after it.
    """
    body = [f"    {''.join(f'r{i}, ' for i in range(m))}= b"]
    for a in range(m):
        body += [f"    p = r{a}[{a}]", "    out(p)"]
        if a < m - 1:
            child = ", ".join(
                "[" + ", ".join(f"(r{i}[{j}]*p - r{i}[{a}]*r{a}[{j}])//d" for j in range(a + 1, m)) + "]"
                for i in range(a + 1, m)
            )
            body += ["    if p:", f"        k{m - 1 - a}([{child}], p, out, below)"]
            body += ["    else:", "        below()"]
    children = {f"k{size}": _prefix_kernel(size) for size in range(1, m)}
    return _compile("def visit(b, d, out, below):\n" + "\n".join(body) + "\n", "visit", **children)


def _minors_below(scaled: _IntRows, minors: list[int], sets: tuple[tuple[int, ...], ...]) -> None:
    """Append det((q*A)[T]) to ``minors`` for every set T below the last one listed, one square determinant each.

    ``sets`` is the depth-first list of ``_prefix_layout``, and ``minors``
    lists the minors of its first sets, the last one zero; the sets below
    that one are the run that follows it. ``_principal_minors`` binds it to
    one call's lists and passes it to the kernels, so the cached kernels
    hold no call's lists; it reads ``_int_minor``, and so ``_bareiss_int``,
    from this module at each call.
    """
    i = len(minors)
    last = sets[i - 1][-1]
    minors.extend(_int_minor(scaled, t, t) for t in sets[i : i + (1 << (len(scaled) - 1 - last)) - 1])


def _principal_minors(scaled: _IntRows) -> list[list[int]]:
    """Every principal minor of the integer matrix M = ``scaled``, grouped by order.

    Entry k lists det(M[S]) for the order-k index sets S in the order of
    ``combinations(range(n), k)``, zeros included; entry 0 is [1], the
    empty set's minor. Every caller passes the integers q*A that a matrix
    A stores over q in lowest terms (``_scaled``), so an order-k minor of A
    is the integer one over q^k.

    The sets are visited depth-first as a tree of prefixes. A node P holds
    det(M[P]) and the bordered minors b[i][j] = det(M[P+i, P+j]) for
    i, j > max P; the root holds 1 and M itself. The child P+p reads its
    minor as the pivot b[p][p], and one Bareiss step gives its bordered
    minors, so sets with a common prefix share its elimination (the
    fraction-free form of Griffin and Tsatsomeros's Schur-complement tree).
    Below a zero pivot that step would divide by zero, and each set there
    is one square determinant of M. A node with m bordered minors per
    side is one call of a function compiled once per m (``_prefix_kernel``),
    whose Bareiss step is one list display with constant indices, so the
    tree makes one call per node and none per entry. The minors come out
    depth first, and a layout cached per n puts them back by order and
    lexicographically. The root's kernel ``_prefix_kernel(n)``, which holds
    the kernels of every smaller size, and the layout are one cache lookup
    each per call, built on first use once per size and process: ~7 ms for
    n = 7, and ~50 ms and ~3 MB of peak memory for n = 12, the default
    enumeration bound (2-core Xeon, Python 3.11.7).
    """
    n = len(scaled)
    sets, orders = _prefix_layout(n)
    minors: list[int] = []
    _prefix_kernel(n)(scaled, 1, minors.append, partial(_minors_below, scaled, minors, sets))
    return [[1]] + [[minors[i] for i in order] for order in orders]


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant: the Bareiss determinant of the integer matrix q*A over q^n."""
    n = matrix.n
    q, scaled = _scaled(matrix)
    return Fraction(_int_minor(scaled, range(n), range(n)), q**n)


def _check_in_range(matrix: RationalMatrix, *sets: IndexSet) -> None:
    for index_set in sets:
        if index_set.members and index_set.members[-1] > matrix.n:
            raise ValueError(
                f"index {index_set.members[-1]} out of range for a {matrix.n}x{matrix.n} matrix"
            )


def minor(matrix: RationalMatrix, row_set: IndexSet, col_set: IndexSet) -> Fraction:
    """Determinant of the submatrix on rows ``row_set`` and columns ``col_set``.

    The order-0 minor (both sets empty) is 1 by convention.
    """
    if len(row_set) != len(col_set):
        raise ValueError(f"row and column sets must have equal size, got {len(row_set)} and {len(col_set)}")
    _check_in_range(matrix, row_set, col_set)
    q, scaled = _scaled(matrix)
    return Fraction(_int_minor(scaled, row_set.zero_based(), col_set.zero_based()), q ** len(row_set))


@dataclass(frozen=True)
class CompoundMatrix:
    """All order-j minors of a source matrix, indexed lexicographically.

    Row a and column b of ``entries`` hold the minor on the a-th and b-th
    size-j subsets of {1..n}, in the order of :func:`index_sets`.
    """

    source_n: int
    order: int
    entries: RationalMatrix

    def trace(self) -> Fraction:
        return self.entries.trace()


def compound(matrix: RationalMatrix, order: int, max_dim: int | None = None) -> CompoundMatrix:
    """The order-j compound: the C(n,j) x C(n,j) matrix of all order-j minors."""
    n = matrix.n
    if not 1 <= order <= n:
        raise ValueError(f"compound order must be in 1..{n}, got {order}")
    check_enumeration_dim(n, max_dim)
    q, scaled = _scaled(matrix)
    entries = RationalMatrix._from_ints(_int_compound(scaled, order), q**order)
    return CompoundMatrix(source_n=n, order=order, entries=entries)


def zero_rows_outside(matrix: RationalMatrix, alpha: IndexSet) -> RationalMatrix:
    """Copy of the matrix with every row outside ``alpha`` replaced by zeros.

    This is the exact limit of scaling the outside rows by epsilon as
    epsilon goes to 0. ``alpha`` must be nonempty.
    """
    if not alpha.members:
        raise ValueError("alpha must be a nonempty index set")
    _check_in_range(matrix, alpha)
    keep = set(alpha.zero_based())
    q, scaled = _scaled(matrix)
    rows = [row if i in keep else [0] * len(row) for i, row in enumerate(scaled)]
    return RationalMatrix._from_ints(rows, q)


# ---------------------------------------------------------------------------
# Text and structured-document formats


def parse_matrix(text: str) -> RationalMatrix:
    """Parse the matrix text format, reporting 1-based line/column on errors."""
    lines = text.splitlines()
    # the indices of the non-blank lines: the header, then n rows, then nothing
    content = [i for i, line in enumerate(lines) if line.strip()]
    if not content:
        raise MatrixParseError("empty input, expected a dimension line", line=1, column=1)
    header = lines[content[0]].strip()
    try:
        n = int(header) if _DIMENSION_TOKEN.match(header) else 0
    except ValueError:  # more digits than the interpreter converts to an int
        message = f"dimension of {len(header)} digits is too large"
        raise MatrixParseError(message, line=content[0] + 1, column=1) from None
    if n < 1:
        raise MatrixParseError(f"expected a positive dimension, found {header!r}", line=content[0] + 1, column=1)

    rows = []
    for r, row_idx in enumerate(content[1 : n + 1]):
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
    if len(rows) < n:
        raise MatrixParseError(f"expected {n} rows, found only {len(rows)}", line=len(lines) + 1, column=1)
    if len(content) > n + 1:
        raise MatrixParseError("unexpected content after the last matrix row", line=content[n + 1] + 1, column=1)
    return RationalMatrix(tuple(rows))


def render_matrix(matrix: RationalMatrix) -> str:
    lines = [str(matrix.n)]
    lines.extend(" ".join(render_rational(e) for e in row) for row in matrix.rows)
    return "\n".join(lines) + "\n"


def matrix_to_dict(matrix: RationalMatrix) -> dict:
    return {
        "n": matrix.n,
        "rows": [[render_rational(e) for e in row] for row in matrix.rows],
    }


def matrix_from_dict(document: dict) -> RationalMatrix:
    """Parse the structured form ``{"n": ..., "rows": [[str, ...], ...]}``."""
    if not isinstance(document, dict):
        raise MatrixParseError(f"expected an object, got {type(document).__name__}")
    n = document.get("n")
    rows = document.get("rows")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixParseError(f"field 'n' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixParseError(f"field 'rows' must be a list of {n} rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"rows[{i}] must be a list of {n} entries")
        out = []
        for j, token in enumerate(row):
            if not isinstance(token, str):
                raise MatrixParseError(f"rows[{i}][{j}] must be a rational string, got {token!r}")
            try:
                out.append(parse_rational(token))
            except ValueError as exc:
                raise MatrixParseError(f"rows[{i}][{j}]: {exc}") from None
        parsed.append(tuple(out))
    return RationalMatrix(tuple(parsed))
