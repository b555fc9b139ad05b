"""Sparse multivariate polynomials over the rationals.

A polynomial in the scaling variables d1..dn is stored as integer
numerators over one positive denominator, in lowest terms: a map from
exponent tuples to nonzero ints and a ``den`` with
``gcd(den, *numerators) == 1``; the zero polynomial has ``den == 1``. The
coefficients are the Fractions numerator / den, and each one is made only
when it is read. The map holds its terms in canonical order:
graded-lexicographic, highest first (total degree, then the exponents).
Instances are immutable: the three slots are written once, when the
polynomial is built, any assignment raises, and every operation returns
a new polynomial.

The canonical text form lists the terms in that order and always spells
the coefficient: ``1*d1^2 - 4*d1*d2 + 25*d2^2``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import ItemsView, Mapping, Sequence

from .matrices import _coerce_rational


def _canonical(numerators: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The nonzero terms of ``numerators`` in canonical order: total degree, then the exponents, highest first."""
    return {e: numerators[e] for _, e in sorted(zip(map(sum, numerators), numerators), reverse=True) if numerators[e]}


class SparsePolynomial:
    """Polynomial with Fraction coefficients in a fixed number of variables."""

    __slots__ = ("n_vars", "_terms", "_den")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exponents, coeff in terms.items():
                exps = tuple(exponents)
                if len(exps) != n_vars:
                    raise ValueError(f"exponent tuple {exps} does not have {n_vars} entries")
                if any(type(e) is not int or e < 0 for e in exps):
                    raise ValueError(f"exponents must be nonnegative ints, got {exps}")
                value = _coerce_rational(coeff)
                if value:
                    cleaned[exps] = value
        # over the lcm of the reduced denominators, the numerators are already in lowest terms
        den = lcm(*(c.denominator for c in cleaned.values()))
        self._init(n_vars, _canonical({e: c.numerator * (den // c.denominator) for e, c in cleaned.items()}), den)

    def _init(self, n_vars: int, terms: dict[tuple[int, ...], int], den: int) -> None:
        # through the slot descriptors, past the __setattr__ that refuses every assignment
        _SET_N_VARS(self, n_vars)
        _SET_TERMS(self, terms)
        _SET_DEN(self, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_terms(cls, n_vars: int, numerators: dict[tuple[int, ...], int], den: int) -> "SparsePolynomial":
        """The polynomial with coefficients numerator / ``den``, without the checks of ``__init__``.

        For builders whose every key is already a length-``n_vars`` tuple of
        nonnegative ints and every value a nonzero int, over ``den`` > 0,
        with the keys in canonical order (see ``_canonical``). The common
        factor of ``den`` and the numerators is divided out, so the
        polynomial is stored in lowest terms; it takes ownership of the
        dict. No Fraction is made.
        """
        if not numerators:
            den = 1
        elif den != 1:
            divisor = gcd(den, *numerators.values())
            if divisor != 1:
                numerators = {e: v // divisor for e, v in numerators.items()}
                den //= divisor
        poly = cls.__new__(cls)
        poly._init(n_vars, numerators, den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: SparsePolynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: SparsePolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the stored integers; the default would set the slots
        return (type(self)._from_terms, (self.n_vars, dict(self._terms), self._den))

    @classmethod
    def zero(cls, n_vars: int) -> "SparsePolynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, value) -> "SparsePolynomial":
        return cls(n_vars, {tuple([0] * n_vars): value})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Terms in canonical (graded-lexicographic, highest-first) order: total degree, then the exponents."""
        den = self._den
        return tuple((e, Fraction(v, den)) for e, v in self._terms.items())

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """The first of ``terms()``, the first stored key; the polynomial must not be zero."""
        e = next(iter(self._terms))
        return e, Fraction(self._terms[e], self._den)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exponents), 0), self._den)

    def _numerators(self) -> ItemsView[tuple[int, ...], int]:
        """The (exponents, integer coefficient) terms of den * p, in canonical order.

        ``den`` is the least positive integer that clears every denominator
        of p, so these integers share no common factor with it.
        """
        return self._terms.items()

    def is_homogeneous(self, degree: int) -> bool:
        """Whether every term has total degree ``degree`` (vacuously true when zero)."""
        return set(map(sum, self._terms)) <= {degree}

    def has_positive_coefficients(self) -> bool:
        """Whether every coefficient is positive (vacuously true when zero), read from the numerators."""
        return min(self._terms.values(), default=1) > 0

    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at ``point``, summed as one integer over one denominator (see ``_value_at``)."""
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        coords = [_coerce_rational(x) for x in point]
        d = lcm(*(x.denominator for x in coords))
        return self._value_at([x.numerator * (d // x.denominator) for x in coords], d)

    def _value_at(self, xs: Sequence[int], d: int = 1) -> Fraction:
        """The exact value at the point x_i = xs[i] / d, for integers ``xs`` and ``d`` > 0.

        With the coefficients c = C / L over the stored denominator L and
        ``top`` the highest degree, a term of degree k contributes
        C * X^e * d^(top-k) to one integer numerator over L * d^top, and one
        Fraction is made. At d = 1 no power of d is taken.
        """
        if not self._terms:
            return Fraction(0)
        top = max(map(sum, self._terms)) if d != 1 else 0
        total = 0
        for exps, value in self._terms.items():
            if top:
                value *= d ** (top - sum(exps))
            for x, e in zip(xs, exps):
                if e:
                    value *= x ** e
            total += value
        return Fraction(total, self._den * d ** top)

    # -- arithmetic ----------------------------------------------------------

    def _require_same_vars(self, other: "SparsePolynomial") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError(f"variable count mismatch: {self.n_vars} vs {other.n_vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.n_vars, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_vars(other)
        # over the product of the two denominators; _from_terms reduces it
        merged = {e: v * other._den for e, v in self._terms.items()}
        for exps, v in other._terms.items():
            merged[exps] = merged.get(exps, 0) + v * self._den
        return SparsePolynomial._from_terms(self.n_vars, _canonical(merged), self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._from_terms(self.n_vars, {e: -v for e, v in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePolynomial) else -_coerce_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = _coerce_rational(other)
            scaled = {e: v * factor.numerator for e, v in self._terms.items()} if factor else {}
            return SparsePolynomial._from_terms(self.n_vars, scaled, self._den * factor.denominator)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_vars(other)
        product: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                product[key] = product.get(key, 0) + c1 * c2
        return SparsePolynomial._from_terms(self.n_vars, _canonical(product), self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (self.n_vars, self._den, self._terms) == (other.n_vars, other._den, other._terms)

    def __hash__(self) -> int:
        return hash((self.n_vars, self._den, frozenset(self._terms.items())))

    # -- rendering ------------------------------------------------------------

    def _render(self, natural: bool) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.terms():
            mono = "*".join(
                f"d{i}" if p == 1 else f"d{i}^{p}"
                for i, p in enumerate(exps, start=1)
                if p
            )
            magnitude = str(abs(coeff))
            if not mono:
                body = magnitude
            elif natural and abs(coeff) == 1:
                body = mono
            else:
                body = f"{magnitude}*{mono}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    def to_text(self) -> str:
        """Canonical text form with explicit coefficients."""
        return self._render(natural=False)

    def to_natural_text(self) -> str:
        """Human form that omits unit coefficients, e.g. ``d1 - 2*d2``."""
        return self._render(natural=True)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<SparsePolynomial {self.to_text()}>"


_SET_N_VARS, _SET_TERMS, _SET_DEN = (SparsePolynomial.__dict__[name].__set__ for name in SparsePolynomial.__slots__)
