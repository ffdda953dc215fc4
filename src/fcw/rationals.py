"""Exact extended rationals: Fraction values plus orderable -inf / +inf sentinels.

Cell weights live in {-inf} + Q, barcode deaths in Q + {+inf}.  The sentinels
compare correctly against Fraction and int but deliberately support no
arithmetic, so accidental mixing fails loudly.
"""

from __future__ import annotations

import re
from fractions import Fraction


class _NegInf:
    __slots__ = ()

    def __lt__(self, other):
        if other is NEG_INF:
            return False
        if other is POS_INF or isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __le__(self, other):
        if other is NEG_INF:
            return True
        return self.__lt__(other)

    def __gt__(self, other):
        if other is NEG_INF or other is POS_INF or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if other is NEG_INF:
            return True
        if other is POS_INF or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __repr__(self):
        return "-inf"

    def __reduce__(self):
        # copy and pickle return the singleton, which `is` tests rely on
        return "NEG_INF"


class _PosInf:
    __slots__ = ()

    def __lt__(self, other):
        if other is POS_INF or other is NEG_INF or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __le__(self, other):
        if other is POS_INF:
            return True
        if other is NEG_INF or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if other is POS_INF:
            return False
        if other is NEG_INF or isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if other is POS_INF:
            return True
        return self.__gt__(other)

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return "POS_INF"


NEG_INF = _NegInf()
POS_INF = _PosInf()

#: A cell weight / polynomial exponent bound: -inf or an exact rational.
Weight = "Fraction | _NegInf"

#: A barcode endpoint: -inf, an exact rational, or +inf.
Extended = "Fraction | _NegInf | _PosInf"


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction to Fraction; reject floats to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def is_finite(v) -> bool:
    return not (v is NEG_INF or v is POS_INF)


# An integer, p/q or a finite decimal, in ASCII digits: no exponent, no
# underscores.  The length bound keeps parsed values, and the sums the
# constructions and invariants make of a few of them, far below Python's
# 4300-digit int-to-str limit, so whatever parses can be printed again.
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


def parse_extended(text: str):
    """Parse '-inf', 'inf', or an exact rational ('3', '-1/2', '0.25')."""
    s = text.strip()
    if s == "-inf":
        return NEG_INF
    if s == "inf":
        return POS_INF
    return parse_rational(s)


def format_extended(v) -> str:
    """Lowest-terms rendering; inverse of parse_extended on its outputs."""
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "inf"
    return str(v)
