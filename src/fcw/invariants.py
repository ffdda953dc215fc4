"""Polynomial-valued invariants of a filtered complex.

The basepoint and eternal cells never contribute: their weight is ``-inf``
and ``t**-inf = 0`` in the exponent ring.  Everything here is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ._record import Record
from .complexes import FilteredComplex
from .errors import EulerMismatch
from .polynomial import Polynomial
from .rationals import NEG_INF


def _weight_polynomial(x: FilteredComplex, signed: bool) -> Polynomial:
    """Sum of t**weight, times (-1)**dim if `signed`, over non-basepoint cells,
    from the number of cells of each weight rank and dimension."""
    rank = x._ranked()
    counts = Counter(zip(rank, x._dims))
    bp = x._index.get(x.basepoint)
    if bp is not None:
        counts[rank[bp], x._dims[bp]] -= 1
    level = [*x.spectrum(), NEG_INF]  # level[-1] is -inf
    return Polynomial((level[r], (-1) ** d * k if signed else k) for (r, d), k in counts.items() if k)


def size_polynomial(x: FilteredComplex) -> Polynomial:
    """Sum of t**weight over non-basepoint cells."""
    return _weight_polynomial(x, signed=False)


def euler_polynomial(x: FilteredComplex, upto=None) -> Polynomial:
    """Signed sum of t**weight over non-basepoint cells with weight <= upto."""
    total = _weight_polynomial(x, signed=True)
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


def invariant_report(x: FilteredComplex) -> InvariantReport:
    size = size_polynomial(x)
    euler = euler_polynomial(x)
    return InvariantReport(
        size, euler, size.at_one(), size.derivative().at_one(), euler.derivative().at_one()
    )
