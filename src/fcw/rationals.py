"""Exact extended rationals: Fraction values, orderable -inf / +inf
sentinels, and the gates every exact value passes.

as_fraction passes an int or a Fraction, as_weight also -inf (a weight or a
level), as_extended both infinities (a bar's endpoint); each raises TypeError
on anything else.  The sentinels compare correctly against Fraction and int
but support no arithmetic, so accidental mixing fails loudly.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal  # loaded by fractions already: no start-up cost
from fractions import Fraction

from ._record import Record


class _Infinity(Record):
    """-inf (sign -1) or +inf (sign 1): below, or above, every int and Fraction.

    One instance per sign; other operands are not ordered against it
    (TypeError).
    """

    __slots__ = ("_sign",)

    def _ordered(op):
        # an extended value orders as its sign does: -1, 0 if finite, or 1
        def compare(self, other):
            if isinstance(other, _Infinity):
                return op(self._sign, other._sign)
            if isinstance(other, (int, Fraction)):
                return op(self._sign, 0)
            return NotImplemented

        return compare

    __lt__, __le__, __gt__, __ge__ = map(_ordered, (operator.lt, operator.le, operator.gt, operator.ge))
    del _ordered

    def __repr__(self):
        return "-inf" if self._sign < 0 else "inf"

    def __reduce__(self):
        # copy and pickle return the singleton, which `is` tests rely on
        return "NEG_INF" if self._sign < 0 else "POS_INF"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction to Fraction; reject floats to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def as_weight(x):
    """`x` if it is -inf, else `x` as a Fraction: a cell's weight or a level."""
    return x if x is NEG_INF else as_fraction(x)


def as_extended(x):
    """`x` if it is -inf or +inf, else `x` as a Fraction: a bar's endpoint."""
    return x if x is NEG_INF or x is POS_INF else as_fraction(x)


# An integer, p/q or a finite decimal, in ASCII digits: no exponent, no
# underscores, and at most _MAX_LENGTH characters.  A construction's weight can
# be longer: a filtered product adds two weights, and shift adds its amount.
# serialize_complex refuses to write such a weight, so fcw reads back every
# document it writes.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")
_MAX_LENGTH = 1000


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational ('3', '-1/2', '0.25'); ValueError otherwise."""
    s = text.strip()
    if len(s) > _MAX_LENGTH:
        raise ValueError(f"rational longer than {_MAX_LENGTH} characters")
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def format_extended(v) -> str:
    """An int, a Fraction in lowest terms, `-inf` or `inf`, exact at any
    length: Decimal converts an int past the 4300 digits str() stops at.
    parse_rational reads back every finite output of at most _MAX_LENGTH characters."""
    v = as_extended(v)
    if v is NEG_INF or v is POS_INF:
        return repr(v)
    text = str(Decimal(v.numerator))
    return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"
