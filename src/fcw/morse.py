"""Critical-point data, the cell-attachment model, and cone-decomposition bounds.

A Morse datum is a list of (critical value, index) pairs.  It determines a
filtered complex up to attaching maps: each critical point contributes one
cell of dimension `index` appearing at its critical value, the lowest
minimum serving as the basepoint.  Without attaching data the boundaries
default to zero (a wedge-of-spheres model), which is exact for every
size/Euler invariant and a documented choice for homology.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction

from ._record import Record, instance, integer
from .complexes import FilteredComplex, _order, _rank_weights
from .errors import InvalidBoundaries, NegativeWeight, ParseError, UnsupportedCell, ValidationError
from .polynomial import Polynomial
from .rationals import as_fraction, parse_rational


class CriticalPoint(Record):
    """A critical value together with its Morse index."""

    __slots__ = ("value", "index")

    def __init__(self, value: Fraction, index: int):
        index = integer(index, "Morse index", nonnegative=True)
        super().__init__(as_fraction(value), index)
        if self.value < 0:
            raise ValueError(f"critical values must be nonnegative, got {self.value}")


class MorseDatum(Record):
    """A nonempty critical-point list containing at least one minimum."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(map(_critical_point, points))
        if not pts:
            raise ValueError("a Morse datum needs at least one critical point")
        if not any(p.index == 0 for p in pts):
            raise ValueError("a Morse datum needs a critical point of index 0")
        super().__init__(pts)


def _critical_point(p) -> CriticalPoint:
    """A CriticalPoint, or one made from a (value, index) pair."""
    if isinstance(p, CriticalPoint):
        return p
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return CriticalPoint(*p)
    raise TypeError(f"Morse datum entry must be a CriticalPoint or a (value, index) pair, got {p!r}")


def parse_morse_datum(text: str) -> MorseDatum:
    """One `value<TAB>index` pair a line, # comments and blank lines skipped; a line's error starts `line N: `."""
    points = []
    try:
        for lineno, raw in enumerate(instance(text, str).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"expected `value<TAB>index`, got {raw!r}")
            value = parse_rational(fields[0])
            if not (fields[1].isascii() and fields[1].isdigit()):
                raise ValueError(f"Morse index must be ASCII decimal digits, got {fields[1]!r}")
            try:
                points.append(CriticalPoint(value, int(fields[1])))
            except ValueError:  # ASCII digits, more than int() converts
                raise ValueError(f"Morse index has more than {sys.get_int_max_str_digits()} digits") from None
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    try:
        return MorseDatum(points)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def morse_complex(datum: MorseDatum, boundaries=None) -> FilteredComplex:
    """The attachment model: basepoint plus one cell per remaining critical point.

    Cells are named c1, c2, ... in (value, index) order; `boundaries`
    optionally maps a cell id to the ids its attaching sphere runs over
    (a list of distinct ids, or a map id -> integer coefficient reduced mod 2); any
    other `boundaries` or chain raises ParseError, naming the chain's cell.
    """
    points = instance(datum, MorseDatum).points
    rank, levels = _rank_weights([p.value for p in points], range(len(points)))
    order = _order(rank, [p.index for p in points])  # (value, index) order, comparing ints
    order.remove(next(i for i in order if points[i].index == 0))  # the lowest minimum is the basepoint
    names = [f"c{k}" for k in range(1, len(order) + 1)]
    attach = _normalise_boundaries({} if boundaries is None else boundaries)
    bounds = [attach.pop(name, ()) for name in names]
    if attach:
        raise InvalidBoundaries(f"boundaries given for unknown cells: {sorted(attach)}")
    built = FilteredComplex._build(
        ["pt", *names],
        [0, *(points[i].index for i in order)],
        [-1, *map(rank.__getitem__, order)], levels,
        [(), *bounds],
        "pt",
    )
    try:
        return built.require_valid()
    except ValidationError as exc:
        raise InvalidBoundaries(str(exc)) from exc


def _normalise_boundaries(boundaries) -> dict[str, frozenset]:
    if not isinstance(boundaries, dict):
        raise ParseError(f"boundaries must be a JSON object, got {type(boundaries).__name__}")
    out = {}
    for cell_id, chain in boundaries.items():
        if not isinstance(cell_id, str):
            raise ParseError(f"boundaries: cell id must be a string, got {cell_id!r}")
        if isinstance(chain, list) and all(isinstance(ref, str) for ref in chain):
            out[cell_id] = frozenset(chain)
            if len(out[cell_id]) < len(chain):  # a list is a set of ids, not a chain to reduce mod 2
                ordered = sorted(chain)
                twice = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
                raise ParseError(f"boundary of cell {cell_id} names {twice} twice")
        elif isinstance(chain, dict) and all(isinstance(k, str) and type(v) is int for k, v in chain.items()):
            out[cell_id] = frozenset(k for k, v in chain.items() if v % 2)
        else:
            raise ParseError(
                f"boundary of cell {cell_id} must be a list of cell ids "
                "or an object of integer coefficients"
            )
    return out


def bound_size_spheres(datum: MorseDatum) -> Fraction:
    """Upper bound for one-cell-at-a-time cone decompositions: sum of all values."""
    return sum((p.value for p in instance(datum, MorseDatum).points), Fraction(0))


def bound_size_wedges(datum: MorseDatum) -> Fraction:
    """Upper bound when simultaneous attachments are allowed: sum of distinct values."""
    return sum({p.value for p in instance(datum, MorseDatum).points}, Fraction(0))


class Linearization(Record):
    """An ordered list of (sphere dimension, weight) cone attachments."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        normalised = []
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise TypeError(f"linearization entry must be a (sphere dimension, weight) pair, got {entry!r}")
            k, r = integer(entry[0], "sphere dimension", nonnegative=True), as_fraction(entry[1])
            if r < 0:
                raise NegativeWeight(f"linearization weight {r} < 0")
            normalised.append((k, r))
        normalised.sort(key=lambda e: (e[1], e[0]))
        super().__init__(tuple(normalised))

    def __len__(self):
        return len(self.entries)


def canonical_linearization(x: FilteredComplex) -> Linearization:
    """One entry (dim-1, weight) per finite-weight cell: attach along its sphere.

    Eternal cells belong to the base the decomposition starts from and are
    skipped.  Finite-weight 0-cells have no attaching sphere and are
    rejected, as are negative weights.
    """
    entries = []
    rank, dims, levels = instance(x, FilteredComplex).require_valid()._rank, x._dims, x._levels
    low = bisect_left(levels, 0, 0, len(levels) - 1)  # ranks 0 to low - 1 weigh < 0
    for i in x._filtration_order():
        r = rank[i]
        if r < 0:  # -inf
            continue
        if r < low:
            raise NegativeWeight(f"cell {x._ids[i]} has weight {levels[r]} < 0")
        if dims[i] == 0:
            raise UnsupportedCell(f"finite-weight 0-cell {x._ids[i]} has no attaching sphere")
        entries.append((dims[i] - 1, levels[r]))
    return Linearization(entries)


class LinearizationStats(Record):
    """Cone count and total weight of a linearization, via its polynomial."""

    __slots__ = ("poly", "count", "weight")


def linearization_stats(lin: Linearization) -> LinearizationStats:
    poly = Polynomial((r, 1) for _, r in instance(lin, Linearization).entries)
    return LinearizationStats(poly, poly.at_one(), poly.derivative().at_one())


def euler_poly_rel(lin: Linearization) -> Polynomial:
    """Signed attachment polynomial: a k-sphere entry contributes (-1)**(k+1) * t**r."""
    return Polynomial((r, (-1) ** (k + 1)) for k, r in instance(lin, Linearization).entries)
