"""Polynomial-valued invariants of a filtered complex.

The basepoint and eternal cells never contribute: their weight is ``-inf``
and ``t**-inf = 0`` in the exponent ring.  Everything here is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate

from ._record import Record, instance, integer
from .complexes import FilteredComplex
from .errors import EulerMismatch
from .polynomial import Polynomial


def _cell_counts(x: FilteredComplex) -> Counter:
    """The number of cells, basepoint included, of each (weight rank, dim);
    rank -1 stands for -inf.  The validity gate of every invariant."""
    return Counter(zip(instance(x, FilteredComplex).require_valid()._rank, x._dims))


def _weight_polynomial(x: FilteredComplex, counts: Counter, signed: bool) -> Polynomial:
    """Sum of t**weight, times (-1)**dim if `signed`, over non-basepoint cells,
    from `counts`, the table of _cell_counts(x)."""
    return Polynomial((x._levels[r], (-1) ** d * k if signed else k) for (r, d), k in counts.items())


def size_polynomial(x: FilteredComplex) -> Polynomial:
    """Sum of t**weight over non-basepoint cells."""
    return _weight_polynomial(x, _cell_counts(x), signed=False)


def euler_polynomial(x: FilteredComplex, upto=None) -> Polynomial:
    """Signed sum of t**weight over non-basepoint cells with weight <= upto."""
    total = _weight_polynomial(x, _cell_counts(x), signed=True)
    if upto is not None:
        total = total.truncate(upto)
    return total


def euler_curve(x: FilteredComplex) -> list[int]:
    """Euler characteristic of the sublevel at -inf and at each point of the
    spectrum, in increasing order.

    Over GF(2) as over any field it is the alternating count of the cells
    of weight <= r (Euler-Poincare), so the curve is the running sum of the
    signed cell counts per weight rank.
    """
    counts = _cell_counts(x)
    step = [0] * len(x._levels)  # step[r + 1]: signed count of rank r
    for (r, d), k in counts.items():
        step[r + 1] += (-1) ** d * k
    return list(accumulate(step))


def weighted_euler_char(x: FilteredComplex) -> Fraction:
    """d/dt of the Euler polynomial, evaluated at t = 1."""
    return euler_polynomial(x).derivative().at_one()


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
    sign = -1 if integer(n, "degree") % 2 else 1
    return euler_polynomial(x).scale(sign)


class InvariantReport(Record):
    """The headline exact invariants of one complex."""

    __slots__ = ("size_poly", "euler_poly", "cell_count", "weighted_size", "weighted_euler")


def invariant_report(x: FilteredComplex) -> InvariantReport:
    counts = _cell_counts(x)
    size = _weight_polynomial(x, counts, signed=False)
    euler = _weight_polynomial(x, counts, signed=True)
    return InvariantReport(
        size, euler, size.at_one(), size.derivative().at_one(), euler.derivative().at_one()
    )
