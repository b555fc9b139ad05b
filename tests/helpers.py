"""Shared test utilities: seeded random matrices, certificates to sample with, and lattice assertions."""

from __future__ import annotations

import random
from fractions import Fraction

from qscaling import Certificate, RationalMatrix, certify_positive_on_orthant, symbolic_q_invariants


def random_int_matrix(rng: random.Random, n: int, bound: int = 9) -> RationalMatrix:
    return RationalMatrix(
        tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
    )


def random_rational(rng: random.Random, num_bound: int = 9, den_bound: int = 3) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_rational_matrix(
    rng: random.Random, n: int, num_bound: int = 9, den_bound: int = 3
) -> RationalMatrix:
    return RationalMatrix(
        tuple(tuple(random_rational(rng, num_bound, den_bound) for _ in range(n)) for _ in range(n))
    )


def random_positive_rational(rng: random.Random, num_bound: int = 9, den_bound: int = 9) -> Fraction:
    return Fraction(rng.randint(1, num_bound), rng.randint(1, den_bound))


def random_upper_triangular_positive_diagonal(rng: random.Random, n: int) -> RationalMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(Fraction(0))
            elif j == i:
                row.append(random_positive_rational(rng))
            else:
                row.append(random_rational(rng))
        rows.append(tuple(row))
    return RationalMatrix(tuple(rows))


def permutation_similarity(matrix: RationalMatrix, perm: list[int]) -> RationalMatrix:
    """P^T M P for the permutation sending position i to perm[i] (0-based)."""
    return RationalMatrix(
        tuple(tuple(matrix.rows[perm[i]][perm[j]] for j in range(matrix.n)) for i in range(matrix.n))
    )


def positive_points(seed: int, n_vars: int, count: int) -> list[tuple[Fraction, ...]]:
    """Deterministic strictly positive rational sample points."""
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n_vars))
        for _ in range(count)
    ]


def assert_class_lattice(report) -> None:
    """P => P0+ => P0, and P0+ => Q."""
    if report.p.holds:
        assert report.p0_plus.holds, "P must imply P0+"
    if report.p0_plus.holds:
        assert report.p0.holds, "P0+ must imply P0"
        assert report.q.holds, "P0+ must imply Q"


def certificates_of(matrix: RationalMatrix, max_dim: int | None = None) -> tuple[Certificate, ...]:
    """The certificates of p_1..p_n, in order: what ``sample_refute`` is passed with ``matrix``."""
    return tuple(certify_positive_on_orthant(p) for p in symbolic_q_invariants(matrix, max_dim))
