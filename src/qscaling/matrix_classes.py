"""Predicates for the P / P0 / P0+ / Q matrix-class hierarchy.

All comparisons are exact rational sign tests; there is no tolerance
parameter anywhere. "Q-matrix" is used in the Hershkowitz-Keller sense
(every sum of equal-order principal minors is positive), which is not
the LCP-literature notion of the same name.

Failing verdicts always come with a concrete witness that re-evaluates
to the violating sign; witnesses are the first violation in (order,
lexicographic) scan order, so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import (
    IndexSet,
    RationalMatrix,
    _int_compounds,
    _principal_minors,
    _scaled,
    check_enumeration_dim,
    index_sets,
    minor,
    render_rational,
)


@dataclass(frozen=True)
class PrincipalMinorWitness:
    """A principal minor whose sign violates the class under test."""

    index_set: IndexSet
    value: Fraction

    def reverify(self, matrix: RationalMatrix) -> bool:
        return minor(matrix, self.index_set, self.index_set) == self.value

    def to_dict(self) -> dict:
        return {
            "kind": "principal_minor",
            "index_set": list(self.index_set.members),
            "value": render_rational(self.value),
        }

    def describe(self) -> str:
        return f"principal minor at {self.index_set} is {self.value}"


@dataclass(frozen=True)
class OrderGapWitness:
    """An order with no strictly positive principal minor (P0+ failure)."""

    order: int

    def to_dict(self) -> dict:
        return {"kind": "order_gap", "order": self.order}

    def describe(self) -> str:
        return f"no positive principal minor of order {self.order}"


@dataclass(frozen=True)
class MinorSumWitness:
    """A non-positive sum of equal-order principal minors (Q failure)."""

    order: int
    value: Fraction

    def to_dict(self) -> dict:
        return {"kind": "minor_sum", "order": self.order, "value": render_rational(self.value)}

    def describe(self) -> str:
        return f"sum of order-{self.order} principal minors is {self.value}"


@dataclass(frozen=True)
class MinorPairWitness:
    """A pair of mirrored minors with positive product (anti-sign-symmetry failure)."""

    row_set: IndexSet
    col_set: IndexSet
    forward: Fraction
    backward: Fraction

    @property
    def product(self) -> Fraction:
        return self.forward * self.backward

    def reverify(self, matrix: RationalMatrix) -> bool:
        return (
            minor(matrix, self.row_set, self.col_set) == self.forward
            and minor(matrix, self.col_set, self.row_set) == self.backward
        )

    def to_dict(self) -> dict:
        return {
            "kind": "minor_pair",
            "row_set": list(self.row_set.members),
            "col_set": list(self.col_set.members),
            "forward": render_rational(self.forward),
            "backward": render_rational(self.backward),
            "product": render_rational(self.product),
        }

    def describe(self) -> str:
        return (
            f"minors at ({self.row_set}, {self.col_set}) are {self.forward} and "
            f"{self.backward}, product {self.product} > 0"
        )


Witness = PrincipalMinorWitness | OrderGapWitness | MinorSumWitness | MinorPairWitness


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None

    def to_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


@dataclass(frozen=True)
class ClassReport:
    """Verdicts for P, P0, P0+, Q, and anti-sign symmetry, with evidence.

    ``minor_sums`` is the full vector c_1..c_n of equal-order principal
    minor sums; ``positive_minor_orders[k-1]`` says whether some order-k
    principal minor is strictly positive.
    """

    n: int
    minor_sums: tuple[Fraction, ...]
    positive_minor_orders: tuple[bool, ...]
    p: Verdict
    p0: Verdict
    p0_plus: Verdict
    q: Verdict
    anti_sign_symmetric: Verdict

    def verdicts(self) -> dict[str, Verdict]:
        return {
            "P": self.p,
            "P0": self.p0,
            "P0+": self.p0_plus,
            "Q": self.q,
            "anti_sign_symmetric": self.anti_sign_symmetric,
        }

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "minor_sums": [render_rational(c) for c in self.minor_sums],
            "positive_minor_orders": list(self.positive_minor_orders),
            "P": self.p.to_dict(),
            "P0": self.p0.to_dict(),
            "P0_plus": self.p0_plus.to_dict(),
            "Q": self.q.to_dict(),
            "anti_sign_symmetric": self.anti_sign_symmetric.to_dict(),
        }


def principal_minor_sums(matrix: RationalMatrix, max_dim: int | None = None) -> tuple[Fraction, ...]:
    """The vector c_1..c_n, where c_k sums all order-k principal minors."""
    check_enumeration_dim(matrix.n, max_dim)
    q, scaled = _scaled(matrix)
    return _minor_sums(q, _principal_minors(scaled))


def _minor_sums(q: int, by_order: list[list[tuple[tuple[int, ...], int]]]) -> tuple[Fraction, ...]:
    """c_1..c_n from the integer principal minors of q*A, as ``_principal_minors`` groups them."""
    return tuple(Fraction(sum(v for _, v in by_order[k]), q**k) for k in range(1, len(by_order)))


def _first_positive_pair(q: int, scaled: list[list[int]]) -> MinorPairWitness | None:
    """The first mirrored pair of equal-order minors with positive product.

    ``scaled`` is q*A. Both minors of an order-k pair carry the same
    positive factor q^k, so the sign of their product is read from the
    integer minors of q*A; only the returned witness is divided back to
    minors of A. The orders are read in turn from ``_int_compounds``, and
    within an order the pairs (a, b) of k-subsets with a before b in
    lexicographic order; a principal minor is never paired with itself.
    The pair reads row a of the order-k compound at b and row b at a.
    Orders 0 and n have one index set each, so no pair. The scan returns
    at the first violation, so no order above it is built.
    """
    n = len(scaled)
    for k, rows in enumerate(_int_compounds(scaled)):
        for a, row_a in enumerate(rows):
            for b in range(a + 1, len(rows)):
                if row_a[b] * rows[b][a] > 0:
                    sets = list(index_sets(n, k))
                    scale = q**k
                    return MinorPairWitness(
                        sets[a], sets[b], Fraction(row_a[b], scale), Fraction(rows[b][a], scale)
                    )
    return None


def classify(matrix: RationalMatrix, max_dim: int | None = None) -> ClassReport:
    """Evaluate all five class predicates (see ``_classify``)."""
    check_enumeration_dim(matrix.n, max_dim)
    return _classify(*_scaled(matrix))


def _classify(q: int, scaled: list[list[int]]) -> ClassReport:
    """The five class predicates of the matrix ``scaled`` / q, from the integer matrix ``scaled``.

    P, P0, P0+ and Q read one pass over the principal minors of ``scaled``;
    an order-k minor of the matrix is the integer one over q^k. Anti-sign
    symmetry is the pair scan, ``_first_positive_pair``, on the same view.
    ``scaled`` may carry a larger q than the least common denominator, as
    (q*A)^2 does for A^2 over q^2: every verdict reads signs and every
    reported value is a reduced Fraction, so the report is the same.
    """
    n = len(scaled)
    by_order = _principal_minors(scaled)
    sums = _minor_sums(q, by_order)
    p_witness: PrincipalMinorWitness | None = None
    p0_witness: PrincipalMinorWitness | None = None
    has_positive: list[bool] = []
    for k in range(1, n + 1):
        minors = by_order[k]
        has_positive.append(any(v > 0 for _, v in minors))
        for s, v in minors:
            if v <= 0 and p_witness is None:
                p_witness = PrincipalMinorWitness(IndexSet(n, tuple(i + 1 for i in s)), Fraction(v, q**k))
            if v < 0 and p0_witness is None:
                p0_witness = PrincipalMinorWitness(IndexSet(n, tuple(i + 1 for i in s)), Fraction(v, q**k))

    q_order = next((k for k, c_k in enumerate(sums, start=1) if c_k <= 0), None)
    q_witness = None if q_order is None else MinorSumWitness(q_order, sums[q_order - 1])
    p0_verdict = Verdict(p0_witness is None, p0_witness)
    if not p0_verdict.holds:
        p0_plus = Verdict(False, p0_witness)
    elif all(has_positive):
        p0_plus = Verdict(True)
    else:
        p0_plus = Verdict(False, OrderGapWitness(has_positive.index(False) + 1))

    pair_witness = _first_positive_pair(q, scaled)
    return ClassReport(
        n=n,
        minor_sums=sums,
        positive_minor_orders=tuple(has_positive),
        p=Verdict(p_witness is None, p_witness),
        p0=p0_verdict,
        p0_plus=p0_plus,
        q=Verdict(q_witness is None, q_witness),
        anti_sign_symmetric=Verdict(pair_witness is None, pair_witness),
    )


def is_anti_sign_symmetric(matrix: RationalMatrix, max_dim: int | None = None) -> Verdict:
    """Check minor(a|b) * minor(b|a) <= 0 for all distinct equal-size a, b.

    The condition is only required for distinct index sets; a principal
    minor paired with itself is never tested. The same pair scan as
    ``classify``'s, so the two verdicts and witnesses agree.
    """
    check_enumeration_dim(matrix.n, max_dim)
    witness = _first_positive_pair(*_scaled(matrix))
    return Verdict(witness is None, witness)
