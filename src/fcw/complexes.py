"""Filtered CW complexes: finite pointed cell data with mod-2 boundaries.

A complex is a finite set of cells, each carrying a dimension, a weight
(the filtration level at which the cell appears; ``-inf`` for eternal
cells), and a mod-2 boundary chain referencing cells one dimension down.
All constructions here are pure: they return new complexes and never
mutate their inputs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType

from ._record import Record
from .errors import ValidationError
from .rationals import NEG_INF, as_fraction

_ID_PATTERN = re.compile(r"[A-Za-z0-9_.*-]+\Z")


def _as_weight(w):
    if w is NEG_INF:
        return w
    return as_fraction(w)


class Cell(Record):
    """One cell: identifier, dimension, weight, and mod-2 boundary ids."""

    __slots__ = ("id", "dim", "weight", "boundary")

    def __init__(self, id: str, dim: int, weight, boundary=frozenset()):
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"cell dimension must be an int, got {dim!r}")
        setattr_ = object.__setattr__
        setattr_(self, "id", id)
        setattr_(self, "dim", dim)
        setattr_(self, "weight", _as_weight(weight))
        setattr_(self, "boundary", frozenset(boundary))

    @property
    def eternal(self) -> bool:
        return self.weight is NEG_INF


class Violation(Record):
    """One broken invariant, attributed to the offending cell."""

    __slots__ = ("kind", "cell", "detail")

    def __init__(self, kind: str, cell: str, detail: str):
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "cell", cell)
        setattr_(self, "detail", detail)

    def __str__(self):
        return f"{self.kind}[{self.cell}]: {self.detail}"


class FilteredComplex:
    """Immutable filtered complex; construction only rejects duplicate ids."""

    __slots__ = ("_cells", "_basepoint", "_sorted", "_spectrum", "_ranks")

    def __init__(self, cells: Iterable[Cell], basepoint: str):
        table: dict[str, Cell] = {}
        for cell in cells:
            if cell.id in table:
                raise ValidationError(
                    [Violation("DuplicateCellId", cell.id, "cell id appears twice")]
                )
            table[cell.id] = cell
        self._cells = table
        self._basepoint = basepoint
        # two stable sorts give (dim, id) order without a key tuple per cell
        ordered = sorted(table.values(), key=attrgetter("id"))
        ordered.sort(key=attrgetter("dim"))
        self._sorted = tuple(ordered)
        self._spectrum = None
        self._ranks = None

    @property
    def basepoint(self) -> str:
        return self._basepoint

    @property
    def cells(self) -> tuple[Cell, ...]:
        """All cells sorted by (dim, id) -- the canonical enumeration order."""
        return self._sorted

    def cell(self, cell_id: str) -> Cell:
        return self._cells[cell_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.cells)

    def __len__(self):
        return len(self._cells)

    def __contains__(self, cell_id: str):
        return cell_id in self._cells

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self._basepoint == other._basepoint and self._cells == other._cells

    def __hash__(self):
        return hash((self._basepoint, frozenset(self._cells.values())))

    def __repr__(self):
        return f"FilteredComplex({len(self._cells)} cells, basepoint={self._basepoint!r})"

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Every broken invariant, in deterministic (dim, id) order."""
        out: list[Violation] = []
        cells = self._sorted
        rank = self.ranks()
        for c in cells:
            if not _ID_PATTERN.match(c.id):
                out.append(Violation("BadCellId", c.id, "id must match [A-Za-z0-9_.*-]+"))
            if c.dim < 0:
                out.append(Violation("NegativeDimension", c.id, f"dim {c.dim} < 0"))
        if self._basepoint not in self._cells:
            out.append(
                Violation("MissingBasepoint", self._basepoint, "basepoint id not among cells")
            )
        else:
            bp = self._cells[self._basepoint]
            if bp.dim != 0:
                out.append(Violation("BadBasepoint", bp.id, f"basepoint dim {bp.dim} != 0"))
            if not bp.eternal:
                out.append(Violation("BadBasepoint", bp.id, f"basepoint weight {bp.weight} is finite"))
            if bp.boundary:
                out.append(Violation("BadBasepoint", bp.id, "basepoint boundary not empty"))
        resolved = True
        table = self._cells
        for c in cells:
            top = rank[c.id]
            for ref in sorted(c.boundary):
                other = table.get(ref)
                if other is None:
                    out.append(Violation("MissingBoundaryCell", c.id, f"references unknown cell {ref}"))
                    resolved = False
                    continue
                if other.dim != c.dim - 1:
                    out.append(
                        Violation(
                            "BoundaryDimensionViolation",
                            c.id,
                            f"boundary cell {ref} has dim {other.dim}, expected {c.dim - 1}",
                        )
                    )
                if rank[ref] > top:
                    out.append(
                        Violation(
                            "WeightMonotonicityViolation",
                            c.id,
                            f"boundary cell {ref} has weight {other.weight} > {c.weight}",
                        )
                    )
        if resolved:
            for c in cells:
                odd = set()
                for ref in c.boundary:
                    odd ^= table[ref].boundary
                if odd:
                    out.append(
                        Violation(
                            "BoundarySquareViolation",
                            c.id,
                            f"boundary of boundary hits {sorted(odd)}",
                        )
                    )
        return out

    def require_valid(self) -> FilteredComplex:
        violations = self.validate()
        if violations:
            raise ValidationError(violations)
        return self

    # -- filtration views ---------------------------------------------------

    def sublevel(self, level) -> FilteredComplex:
        """The subcomplex of cells with weight <= level; weights retained."""
        level = _as_weight(level)
        kept = [c for c in self.cells if c.weight <= level or c.id == self._basepoint]
        return FilteredComplex(kept, self._basepoint)

    def spectrum(self) -> list[Fraction]:
        """Sorted distinct finite weights among the cells."""
        self.ranks()
        return list(self._spectrum)

    def ranks(self) -> Mapping[str, int]:
        """Each cell id's weight as an index into spectrum(); -1 for -inf.

        Ranks order exactly as the weights do, so the filtration order and
        the weight checks compare ints.  Built once per complex: weights are
        grouped by (numerator, denominator), a pair of ints that hashes fast
        where a Fraction does not, and only the distinct weights are sorted
        as Fractions.
        """
        if self._ranks is None:
            weights = list(map(attrgetter("weight"), self._sorted))
            # A parsed document shares one object per distinct weight string,
            # so grouping by identity first leaves few weights to key by value.
            objects = dict(zip(map(id, weights), weights))
            distinct = {(w.numerator, w.denominator): w for w in objects.values() if w is not NEG_INF}
            self._spectrum = tuple(sorted(distinct.values()))
            index = {(w.numerator, w.denominator): i for i, w in enumerate(self._spectrum)}
            rank_of = {
                oid: -1 if w is NEG_INF else index[w.numerator, w.denominator]
                for oid, w in objects.items()
            }
            self._ranks = MappingProxyType(
                dict(zip(map(attrgetter("id"), self._sorted), map(rank_of.__getitem__, map(id, weights))))
            )
        return self._ranks

    def euler_char_sublevel(self, level) -> int:
        """Unreduced Euler characteristic of the sublevel complex."""
        level = _as_weight(level)
        return sum((-1) ** c.dim for c in self._cells.values() if c.weight <= level)

    # -- reweighting --------------------------------------------------------

    def shift(self, amount) -> FilteredComplex:
        """Delay every finite weight by `amount`; eternal cells stay eternal."""
        amount = as_fraction(amount)
        cells = [
            Cell(c.id, c.dim, c.weight if c.eternal else c.weight + amount, c.boundary)
            for c in self.cells
        ]
        return FilteredComplex(cells, self._basepoint)

    def cutoff(self, floor) -> FilteredComplex:
        """Raise every non-basepoint weight to at least `floor`."""
        floor = as_fraction(floor)
        cells = []
        for c in self.cells:
            if c.id == self._basepoint:
                cells.append(c)
            elif c.eternal or c.weight < floor:
                cells.append(Cell(c.id, c.dim, floor, c.boundary))
            else:
                cells.append(c)
        return FilteredComplex(cells, self._basepoint)

    # -- suspension ---------------------------------------------------------

    def suspend(self) -> FilteredComplex:
        """Raise every non-basepoint cell one dimension, same weights."""
        bp = self._basepoint
        cells = [self._cells[bp]] if bp in self._cells else []
        for c in self.cells:
            if c.id == bp:
                continue
            cells.append(
                Cell(c.id, c.dim + 1, c.weight, frozenset(b for b in c.boundary if b != bp))
            )
        return FilteredComplex(cells, bp)

    # -- renaming -----------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> FilteredComplex:
        """Relabel cells; ids missing from the mapping keep their name."""
        new_id = lambda i: mapping.get(i, i)
        cells = [
            Cell(new_id(c.id), c.dim, c.weight, frozenset(new_id(b) for b in c.boundary))
            for c in self.cells
        ]
        return FilteredComplex(cells, new_id(self._basepoint))


# -- generators --------------------------------------------------------------


def point(basepoint_id: str = "pt") -> FilteredComplex:
    """The one-point complex."""
    return FilteredComplex([Cell(basepoint_id, 0, NEG_INF)], basepoint_id)


def sphere(k: int, level) -> FilteredComplex:
    """Basepoint plus a single k-cell appearing at `level` (boundary zero)."""
    if k < 0:
        raise ValueError(f"sphere dimension must be nonnegative, got {k}")
    return FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("c1", k, _as_weight(level))], "pt"
    )


# -- binary constructions -----------------------------------------------------


def wedge(x: FilteredComplex, y: FilteredComplex) -> FilteredComplex:
    """One-point union: operand cells prefixed `l.` / `r.`, basepoints merged."""
    cells = [Cell("pt", 0, NEG_INF)]
    for prefix, operand in (("l.", x), ("r.", y)):
        bp = operand.basepoint
        for c in operand.cells:
            if c.id == bp:
                continue
            boundary = frozenset("pt" if b == bp else prefix + b for b in c.boundary)
            cells.append(Cell(prefix + c.id, c.dim, c.weight, boundary))
    return FilteredComplex(cells, "pt")


def _pair_weight(wa, wb, filtered: bool):
    if filtered:
        # weights add, -inf absorbing
        if wa is NEG_INF or wb is NEG_INF:
            return NEG_INF
        return wa + wb
    if wa is NEG_INF:
        return wb
    if wb is NEG_INF:
        return wa
    return max(wa, wb)


def _pair_ids(left: Iterable[Cell], right: Iterable[Cell], reserved=()) -> dict:
    """Deterministic unique ids for cell pairs, `l.<a>*r.<b>` plus a collision guard."""
    used = set(reserved)
    table: dict[tuple[str, str], str] = {}
    for a in left:
        for b in right:
            base = f"l.{a.id}*r.{b.id}"
            name, k = base, 2
            while name in used:
                name = f"{base}*{k}"
                k += 1
            used.add(name)
            table[(a.id, b.id)] = name
    return table


def product(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    """Cellwise product; weights take the max (naive) or the sum (filtered)."""
    xc, yc = x.cells, y.cells
    names = _pair_ids(xc, yc)
    cells = []
    for a in xc:
        for b in yc:
            boundary = {names[(a2, b.id)] for a2 in a.boundary}
            boundary |= {names[(a.id, b2)] for b2 in b.boundary}
            cells.append(
                Cell(
                    names[(a.id, b.id)],
                    a.dim + b.dim,
                    _pair_weight(a.weight, b.weight, filtered),
                    frozenset(boundary),
                )
            )
    return FilteredComplex(cells, names[(x.basepoint, y.basepoint)])


def smash(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    """Product with the wedge collapsed: only pairs of non-basepoint cells survive."""
    xc = [c for c in x.cells if c.id != x.basepoint]
    yc = [c for c in y.cells if c.id != y.basepoint]
    names = _pair_ids(xc, yc, reserved=("pt",))
    cells = [Cell("pt", 0, NEG_INF)]
    for a in xc:
        for b in yc:
            boundary = {names[(a2, b.id)] for a2 in a.boundary if a2 != x.basepoint}
            boundary |= {names[(a.id, b2)] for b2 in b.boundary if b2 != y.basepoint}
            cells.append(
                Cell(
                    names[(a.id, b.id)],
                    a.dim + b.dim,
                    _pair_weight(a.weight, b.weight, filtered),
                    frozenset(boundary),
                )
            )
    return FilteredComplex(cells, "pt")
