"""Critical-point data, the cell-attachment model, and cone-decomposition bounds.

A Morse datum is a list of (critical value, index) pairs.  It determines a
filtered complex up to attaching maps: each critical point contributes one
cell of dimension `index` appearing at its critical value, the lowest
minimum serving as the basepoint.  Without attaching data the boundaries
default to zero (a wedge-of-spheres model), which is exact for every
size/Euler invariant and a documented choice for homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Cell, FilteredComplex
from .errors import InvalidBoundaries, NegativeWeight, ParseError, UnsupportedCell
from .invariants import size_polynomial
from .polynomial import Polynomial
from .rationals import NEG_INF, as_fraction, is_finite, parse_rational


@dataclass(frozen=True)
class CriticalPoint:
    """A critical value together with its Morse index."""

    value: Fraction
    index: int

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.value < 0:
            raise ValueError(f"critical values must be nonnegative, got {self.value}")
        if self.index < 0:
            raise ValueError(f"Morse index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class MorseDatum:
    """A nonempty critical-point list containing at least one minimum."""

    points: tuple[CriticalPoint, ...]

    def __init__(self, points):
        pts = tuple(p if isinstance(p, CriticalPoint) else CriticalPoint(*p) for p in points)
        if not pts:
            raise ValueError("a Morse datum needs at least one critical point")
        if not any(p.index == 0 for p in pts):
            raise ValueError("a Morse datum needs a critical point of index 0")
        object.__setattr__(self, "points", pts)

    def sorted_points(self) -> tuple[CriticalPoint, ...]:
        return tuple(sorted(self.points, key=lambda p: (p.value, p.index)))


def parse_morse_datum(text: str) -> MorseDatum:
    """One `value<TAB>index` pair per line; blank lines and # comments skipped."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected `value<TAB>index`, got {raw!r}")
        try:
            value = parse_rational(fields[0])
            index = int(fields[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        try:
            points.append(CriticalPoint(value, index))
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
    (an iterable, or a map id -> integer coefficient reduced mod 2).
    """
    ordered = datum.sorted_points()
    base_index = next(i for i, p in enumerate(ordered) if p.index == 0)
    attach = _normalise_boundaries(boundaries)
    cells = [Cell("pt", 0, NEG_INF)]
    for i, p in enumerate(ordered):
        if i == base_index:
            continue
        name = f"c{len(cells)}"
        cells.append(Cell(name, p.index, p.value, attach.pop(name, frozenset())))
    if attach:
        raise InvalidBoundaries(f"boundaries given for unknown cells: {sorted(attach)}")
    built = FilteredComplex(cells, "pt")
    violations = built.validate()
    if violations:
        raise InvalidBoundaries("; ".join(str(v) for v in violations))
    return built


def _normalise_boundaries(boundaries) -> dict[str, frozenset]:
    if boundaries is None:
        return {}
    out = {}
    for cell_id, chain in boundaries.items():
        if isinstance(chain, dict):
            out[cell_id] = frozenset(k for k, v in chain.items() if int(v) % 2)
        else:
            out[cell_id] = frozenset(chain)
    return out


def bound_size_spheres(datum: MorseDatum) -> Fraction:
    """Upper bound for one-cell-at-a-time cone decompositions: sum of all values."""
    return sum((p.value for p in datum.points), Fraction(0))


def bound_size_wedges(datum: MorseDatum) -> Fraction:
    """Upper bound when simultaneous attachments are allowed: sum of distinct values."""
    return sum({p.value for p in datum.points}, Fraction(0))


@dataclass(frozen=True)
class Linearization:
    """An ordered list of (sphere dimension, weight) cone attachments."""

    entries: tuple[tuple[int, Fraction], ...]

    def __init__(self, entries):
        normalised = []
        for k, r in entries:
            if k < 0:
                raise ValueError(f"sphere dimension must be nonnegative, got {k}")
            r = as_fraction(r)
            if r < 0:
                raise NegativeWeight(f"linearization weight {r} < 0")
            normalised.append((k, r))
        normalised.sort(key=lambda e: (e[1], e[0]))
        object.__setattr__(self, "entries", tuple(normalised))

    def __len__(self):
        return len(self.entries)


def canonical_linearization(x: FilteredComplex) -> Linearization:
    """One entry (dim-1, weight) per finite-weight cell: attach along its sphere.

    Eternal cells belong to the base the decomposition starts from and are
    skipped.  Finite-weight 0-cells have no attaching sphere and are
    rejected, as are negative weights.
    """
    entries = []
    for c in sorted(x.cells, key=lambda c: (c.weight, c.dim, c.id)):
        if c.id == x.basepoint or not is_finite(c.weight):
            continue
        if c.weight < 0:
            raise NegativeWeight(f"cell {c.id} has weight {c.weight} < 0")
        if c.dim == 0:
            raise UnsupportedCell(f"finite-weight 0-cell {c.id} has no attaching sphere")
        entries.append((c.dim - 1, c.weight))
    return Linearization(entries)


@dataclass(frozen=True)
class LinearizationStats:
    """Cone count and total weight of a linearization, via its polynomial."""

    poly: Polynomial
    count: Fraction
    weight: Fraction


def linearization_stats(lin: Linearization) -> LinearizationStats:
    poly = Polynomial((r, 1) for _, r in lin.entries)
    return LinearizationStats(
        poly=poly,
        count=poly.at_one(),
        weight=poly.derivative().at_one(),
    )


def euler_poly_rel(lin: Linearization) -> Polynomial:
    """Signed attachment polynomial: a k-sphere entry contributes (-1)**(k+1) * t**r."""
    total = Polynomial.zero()
    for k, r in lin.entries:
        total = total + Polynomial.monomial((-1) ** (k + 1), r)
    return total


def recovered_size(x: FilteredComplex) -> Fraction:
    """Total weight of the canonical linearization; equals ev1 of d/dt size poly."""
    return size_polynomial(x).derivative().at_one()
