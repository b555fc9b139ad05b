"""Predicates for the P / P0 / P0+ / Q matrix-class hierarchy.

All comparisons are exact rational sign tests; there is no tolerance
parameter anywhere. "Q-matrix" is used in the Hershkowitz-Keller sense
(every sum of equal-order principal minors is positive), which is not
the LCP-literature notion of the same name.

A verdict is its witness: it fails exactly when it carries a concrete
violation that re-evaluates to the violating sign, the first in (order,
lexicographic) scan order, so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .matrices import (
    IndexSet,
    RationalMatrix,
    _IntRows,
    _int_compounds,
    _laplace_plan,
    _principal_minors,
    _scaled,
    check_enumeration_dim,
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


@dataclass(frozen=True, kw_only=True)
class Verdict:
    """A predicate's verdict: it holds exactly when there is no witness of a violation."""

    witness: Witness | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None

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
    principal minor is strictly positive. The P0+ and Q verdicts are read
    off these and the P0 verdict, so no report can state them apart from
    their evidence.
    """

    minor_sums: tuple[Fraction, ...]
    positive_minor_orders: tuple[bool, ...]
    p: Verdict
    p0: Verdict
    anti_sign_symmetric: Verdict

    @property
    def n(self) -> int:
        return len(self.minor_sums)

    @property
    def p0_plus(self) -> Verdict:
        """P0 with a positive principal minor of every order; else the P0 witness, or the first order without one."""
        if self.p0.holds and not all(self.positive_minor_orders):
            return Verdict(witness=OrderGapWitness(self.positive_minor_orders.index(False) + 1))
        return self.p0

    @property
    def q(self) -> Verdict:
        """Every c_k positive; else the first c_k <= 0."""
        order = next((k for k, c_k in enumerate(self.minor_sums, start=1) if c_k <= 0), None)
        return Verdict(witness=None if order is None else MinorSumWitness(order, self.minor_sums[order - 1]))

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


def _minor_sums(q: int, by_order: list[list[int]]) -> tuple[Fraction, ...]:
    """c_1..c_n from the integer principal minors of q*A, as ``_principal_minors`` groups them."""
    return tuple(Fraction(sum(by_order[k]), q**k) for k in range(1, len(by_order)))


@cache
def _index_set(n: int, k: int, a: int) -> IndexSet:
    """The a-th k-subset of {1..n} in lexicographic order, read from the cached ``_laplace_plan(n, k)``.

    Cached per (n, k, a): an index set is immutable, so every witness that
    names the same set holds the one object, built and validated once per
    process. Only the sets some witness names are ever built.
    """
    return IndexSet(n, tuple(i + 1 for i in _laplace_plan(n, k)[a][0]))


def _first_positive_pair(q: int, scaled: _IntRows) -> MinorPairWitness | None:
    """The first mirrored pair of equal-order minors with positive product.

    ``scaled`` is q*A. Both minors of an order-k pair carry the same
    positive factor q^k, so the sign of their product is read from the
    integer minors of q*A; only the returned witness is divided back to
    minors of A. The orders are read in turn from ``_int_compounds``, and
    within an order the pairs (a, b) of k-subsets with a before b in
    lexicographic order; a principal minor is never paired with itself.
    The pair reads row a of the order-k compound at b and row b at a.
    Orders 0 and n have one index set each, so no pair. The scan returns
    at the first violation, so no order above it is built, and
    ``_index_set`` reads the two index sets of the witness from the order's
    cached ``_laplace_plan``, which lists the k-subsets in the same order.
    """
    n = len(scaled)
    for k, rows in enumerate(_int_compounds(scaled)):
        for a, row_a in enumerate(rows):
            for b in range(a + 1, len(rows)):
                if row_a[b] * rows[b][a] > 0:
                    scale = q**k
                    return MinorPairWitness(
                        _index_set(n, k, a), _index_set(n, k, b), Fraction(row_a[b], scale), Fraction(rows[b][a], scale)
                    )
    return None


def classify(matrix: RationalMatrix, max_dim: int | None = None) -> ClassReport:
    """Evaluate all five class predicates from the integer matrix q*A that ``matrix`` stores.

    P, P0, the sums c_k and the orders with a positive minor read one pass
    over the principal minors of q*A, and the report reads P0+ and Q off
    them; an order-k minor of A is the integer one over q^k. Anti-sign
    symmetry is the pair scan, ``_first_positive_pair``, on the same integers.
    """
    check_enumeration_dim(matrix.n, max_dim)
    q, scaled = _scaled(matrix)
    n = len(scaled)
    by_order = _principal_minors(scaled)
    p_witness: PrincipalMinorWitness | None = None
    p0_witness: PrincipalMinorWitness | None = None
    has_positive: list[bool] = []
    for k in range(1, n + 1):
        minors = by_order[k]
        has_positive.append(max(minors) > 0)
        for a, v in enumerate(minors):
            if v <= 0 and p_witness is None:
                p_witness = PrincipalMinorWitness(_index_set(n, k, a), Fraction(v, q**k))
            if v < 0 and p0_witness is None:
                p0_witness = PrincipalMinorWitness(_index_set(n, k, a), Fraction(v, q**k))

    return ClassReport(
        minor_sums=_minor_sums(q, by_order),
        positive_minor_orders=tuple(has_positive),
        p=Verdict(witness=p_witness),
        p0=Verdict(witness=p0_witness),
        anti_sign_symmetric=Verdict(witness=_first_positive_pair(q, scaled)),
    )


def _p0_plus_holds(matrix: RationalMatrix) -> bool:
    """Whether ``classify(matrix).p0_plus`` holds, from the same principal minors of q*A and nothing else.

    Every minor is >= 0 and every order has a positive one; an order-k
    minor of A is the integer one over q^k > 0, so the signs are those of
    the integers. No witness, minor sum or anti-sign pair is built, and the
    caller checks the enumeration bound.
    """
    by_order = _principal_minors(_scaled(matrix)[1])
    return all(min(minors) >= 0 and max(minors) > 0 for minors in by_order[1:])


def is_anti_sign_symmetric(matrix: RationalMatrix, max_dim: int | None = None) -> Verdict:
    """Check minor(a|b) * minor(b|a) <= 0 for all distinct equal-size a, b.

    The condition is only required for distinct index sets; a principal
    minor paired with itself is never tested. The same pair scan as
    ``classify``'s, so the two verdicts and witnesses agree.
    """
    check_enumeration_dim(matrix.n, max_dim)
    return Verdict(witness=_first_positive_pair(*_scaled(matrix)))
