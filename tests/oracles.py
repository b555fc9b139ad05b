"""Independent reference implementations used only to cross-check the package.

Everything here works on plain lists of Fractions and deliberately avoids
importing qscaling, so a bug in the package cannot hide inside its own
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt


def leibniz_determinant(rows) -> Fraction:
    """Permutation-sum determinant; fine up to n = 6 or so."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def two_by_two_determinant(rows) -> Fraction:
    (a, b), (c, d) = rows
    return a * d - b * c


def submatrix(rows, row_idx, col_idx):
    """Extract rows/columns by 0-based index lists."""
    return [[rows[i][j] for j in col_idx] for i in row_idx]


def brute_force_minor(rows, row_idx, col_idx) -> Fraction:
    if not row_idx:
        return Fraction(1)
    return leibniz_determinant(submatrix(rows, row_idx, col_idx))


def list_matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def list_trace(rows) -> Fraction:
    return sum((rows[i][i] for i in range(len(rows))), Fraction(0))


def faddeev_leverrier(rows) -> list[Fraction]:
    """Principal-minor sums e_1..e_n via the classical matrix recurrence.

    With det(x*I - A) = x^n + c_{n-1} x^{n-1} + ... + c_0 produced by
    M_k = A*M_{k-1} + c_{n-k+1}*I and c_{n-k} = -trace(A*M_k)/k, the sums
    of order-k principal minors are e_k = (-1)^k * c_{n-k}.
    """
    n = len(rows)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = {n: Fraction(1)}
    for k in range(1, n + 1):
        shift = coeffs[n - k + 1]
        m = list_matmul(rows, m)
        for i in range(n):
            m[i][i] += shift
        am = list_matmul(rows, m)
        coeffs[n - k] = -list_trace(am) / k
    return [(-1) ** k * coeffs[n - k] for k in range(1, n + 1)]


def solve_linear(rows, rhs) -> list[Fraction] | None:
    """The solution of rows * x = rhs by Gauss-Jordan elimination, or None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def simplex_minimum(m) -> Fraction:
    """The minimum of x^T m x over the simplex {x >= 0, sum x = 1}, for a symmetric m.

    The minimum is a KKT point inside the face of its support S:
    m[S] x = lam * 1 and sum x = 1, with value x^T m x = lam. Where that
    bordered system is singular the form is constant along a line of such
    points, which ends on a smaller face; so it suffices to list every
    support, solve the nonsingular systems and keep the solutions with
    x > 0 on S.
    """
    n = len(m)
    best = None
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            bordered = [[m[i][j] for j in support] + [-1] for i in support]
            bordered.append([1] * k + [0])
            solution = solve_linear(bordered, [0] * k + [1])
            if solution is None or any(x <= 0 for x in solution[:k]):
                continue
            value = solution[k]
            if best is None or value < best:
                best = value
    return best


def hadeler_copositive(m) -> bool:
    """Whether the symmetric 3x3 integer matrix m with square diagonal entries r_i^2 is copositive.

    Hadeler's criterion (1983), in integers: with t_ij = m_ij + r_i r_j and
    s = r1 r2 r3 + m12 r3 + m13 r2 + m23 r1, m is copositive exactly when
    every t_ij >= 0 and s + sqrt(2 t12 t13 t23) >= 0, that is, s >= 0 or
    2 t12 t13 t23 >= s^2. It reads no minor and no adjugate, so it shares
    nothing with the walk over principal submatrices it checks.
    """
    r = [isqrt(m[i][i]) if m[i][i] >= 0 else -1 for i in range(3)]
    if any(root < 0 or root * root != m[i][i] for i, root in enumerate(r)):
        raise ValueError("the criterion takes a diagonal of squares")
    t12, t13, t23 = (m[i][j] + r[i] * r[j] for i, j in ((0, 1), (0, 2), (1, 2)))
    if min(t12, t13, t23) < 0:
        return False
    s = r[0] * r[1] * r[2] + m[0][1] * r[2] + m[0][2] * r[1] + m[1][2] * r[0]
    return s >= 0 or 2 * t12 * t13 * t23 >= s * s
