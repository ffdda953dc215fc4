"""Formal polynomials with rational coefficients and rational exponents.

A value is a finite sum ``sum(c_i * t**r_i)`` stored as a map from exponent
to nonzero coefficient.  Exponent ``-inf`` encodes the term ``t**-inf = 0``
and is dropped on construction, which is what makes eternal cells invisible
to every invariant built on top of this ring.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import NonIntegerCoefficient
from .rationals import NEG_INF, as_fraction, as_weight, format_extended

_ZERO = Fraction(0)


class Polynomial(Record):
    """Immutable element of the exponent ring; supports +, -, * and exact ==."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        # Sums per exponent keyed by (numerator, denominator), kept as ints
        # while the coefficients are ints; each distinct exponent and sum
        # becomes a Fraction once, at the end.
        sums: dict[tuple[int, int], int | Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            if exp is NEG_INF:
                continue
            exp = as_fraction(exp)
            if type(coeff) is not int:
                coeff = as_fraction(coeff)
            key = (exp.numerator, exp.denominator)
            sums[key] = sums.get(key, 0) + coeff
        super().__init__({Fraction(*k): as_fraction(c) for k, c in sums.items() if c != 0})

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def one(cls) -> Polynomial:
        return cls([(0, 1)])

    @classmethod
    def monomial(cls, coeff, exp) -> Polynomial:
        """coeff * t**exp; the zero polynomial when coeff == 0 or exp is -inf."""
        return cls([(exp, coeff)])

    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(exponent, coefficient) pairs sorted by increasing exponent."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exp) -> Fraction:
        return self._terms.get(as_fraction(exp), _ZERO)

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        # a dict field is not hashable
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial([*self._terms.items(), *other._terms.items()])

    def __neg__(self):
        return Polynomial((e, -c) for e, c in self._terms.items())

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(
            (e1 + e2, c1 * c2) for e1, c1 in self._terms.items() for e2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def scale(self, factor) -> Polynomial:
        factor = as_fraction(factor)
        return Polynomial((e, c * factor) for e, c in self._terms.items())

    def derivative(self) -> Polynomial:
        """Formal d/dt: c*t**r -> c*r*t**(r-1); constant terms vanish."""
        return Polynomial((e - 1, c * e) for e, c in self._terms.items())

    def shift(self, amount) -> Polynomial:
        """Multiply by t**amount, i.e. add `amount` to every exponent."""
        amount = as_fraction(amount)
        return Polynomial((e + amount, c) for e, c in self._terms.items())

    def truncate(self, upto) -> Polynomial:
        """Keep exactly the terms with exponent <= upto (-inf keeps nothing)."""
        upto = as_weight(upto)
        return Polynomial((e, c) for e, c in self._terms.items() if e <= upto)

    def mod2(self) -> Polynomial:
        """Replace every integer coefficient by its parity in {0, 1}."""
        for e, c in self._terms.items():
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient {c} of t^{e} is not an integer")
        return Polynomial((e, c.numerator % 2) for e, c in self._terms.items())

    def at_one(self) -> Fraction:
        """Exact evaluation at t = 1: the sum of the coefficients."""
        return sum(self._terms.values(), _ZERO)

    def render(self) -> str:
        """Canonical text: terms by increasing exponent, `coeff*t^exp` each."""
        if not self._terms:
            return "0"
        return " + ".join(f"{format_extended(c)}*t^{format_extended(e)}" for e, c in self.terms())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()!r})"
