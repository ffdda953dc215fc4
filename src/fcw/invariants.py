"""Polynomial-valued invariants of a filtered complex.

The basepoint and eternal cells never contribute: their weight is ``-inf``
and ``t**-inf = 0`` in the exponent ring.  Everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .complexes import FilteredComplex
from .errors import EulerMismatch
from .polynomial import Polynomial


def size_polynomial(x: FilteredComplex) -> Polynomial:
    """Sum of t**weight over non-basepoint cells."""
    return Polynomial((c.weight, 1) for c in x.cells if c.id != x.basepoint)


def euler_polynomial(x: FilteredComplex, upto=None) -> Polynomial:
    """Signed sum of t**weight over non-basepoint cells with weight <= upto."""
    total = Polynomial((c.weight, (-1) ** c.dim) for c in x.cells if c.id != x.basepoint)
    if upto is not None:
        total = total.truncate(upto)
    return total


def weighted_euler_char(x: FilteredComplex, upto=None) -> Fraction:
    """d/dt of the Euler polynomial, evaluated at t = 1."""
    return euler_polynomial(x, upto).derivative().at_one()


def matching_number(x: FilteredComplex, y: FilteredComplex) -> int:
    """Half the number of mod-2 mismatched Euler-polynomial terms.

    Requires both complexes to have the same t=1 Euler value (the computable
    face of "same total space"); under it the mismatch count is even.
    """
    px, py = euler_polynomial(x), euler_polynomial(y)
    if px.at_one() != py.at_one():
        raise EulerMismatch(
            f"t=1 Euler values differ: {px.at_one()} vs {py.at_one()}"
        )
    mismatches = (px - py).mod2().at_one()
    assert mismatches.denominator == 1 and mismatches.numerator % 2 == 0
    return mismatches.numerator // 2


def k_class(x: FilteredComplex, n: int = 0) -> Polynomial:
    """Image of the degree-n stable class of x in the exponent ring."""
    sign = -1 if n % 2 else 1
    return euler_polynomial(x).scale(sign)


class InvariantReport(Record):
    """The headline exact invariants of one complex."""

    __slots__ = ("size_poly", "euler_poly", "cell_count", "weighted_size", "weighted_euler")

    def __init__(
        self,
        size_poly: Polynomial,
        euler_poly: Polynomial,
        cell_count: Fraction,
        weighted_size: Fraction,
        weighted_euler: Fraction,
    ):
        setattr_ = object.__setattr__
        setattr_(self, "size_poly", size_poly)
        setattr_(self, "euler_poly", euler_poly)
        setattr_(self, "cell_count", cell_count)
        setattr_(self, "weighted_size", weighted_size)
        setattr_(self, "weighted_euler", weighted_euler)


def invariant_report(x: FilteredComplex) -> InvariantReport:
    size = size_polynomial(x)
    euler = euler_polynomial(x)
    return InvariantReport(
        size_poly=size,
        euler_poly=euler,
        cell_count=size.at_one(),
        weighted_size=size.derivative().at_one(),
        weighted_euler=euler.derivative().at_one(),
    )
