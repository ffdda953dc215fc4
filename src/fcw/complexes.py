"""Filtered CW complexes: finite pointed cell data with mod-2 boundaries.

A complex is a finite set of cells, each carrying a dimension, a weight
(the filtration level at which the cell appears; ``-inf`` for eternal
cells), and a mod-2 boundary chain referencing cells one dimension down.
All constructions here are pure: they return new complexes and never
mutate their inputs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from . import _record
from ._record import Record, cell_id, instance, integer
from .errors import ValidationError
from .rationals import NEG_INF, as_fraction, as_weight

# the characters of [A-Za-z0-9_.*-]: a set test costs no regular-expression compile at import
_ID_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.*-")


def _rank_weights(weights, codes) -> tuple[tuple[int, ...], tuple]:
    """Each code's rank and the levels: the sorted distinct finite weights[c] over the codes c,
    then NEG_INF, so levels[rank] is the weight and rank -1 is -inf; an entry no code names gets
    no level.  Entries are grouped by (numerator, denominator), ints that hash fast."""
    named = {c: weights[c] for c in set(codes)}
    distinct = {(w.numerator, w.denominator): w for w in named.values() if w is not NEG_INF}
    levels = (*sorted(distinct.values()), NEG_INF)
    index = {(w.numerator, w.denominator): i for i, w in enumerate(levels[:-1])}
    rank_of = {c: -1 if w is NEG_INF else index[w.numerator, w.denominator] for c, w in named.items()}
    return tuple(map(rank_of.__getitem__, codes)), levels


def _order(primary, secondary) -> list[int]:
    """Positions sorted by (primary[i], secondary[i]): two stable sorts, no key tuple per position."""
    order = sorted(range(len(primary)), key=secondary.__getitem__)
    order.sort(key=primary.__getitem__)
    return order


def _inverse(order, n) -> list[int]:
    """at[order[j]] == j: where each position of range(n) listed in `order` goes."""
    at = [0] * n
    for j, i in enumerate(order):
        at[i] = j
    return at


class Cell(Record):
    """One cell: identifier, dimension, weight, and mod-2 boundary ids."""

    __slots__ = ("id", "dim", "weight", "boundary")

    def __init__(self, id: str, dim: int, weight, boundary=frozenset()):
        # a str would read as one id a character, a mapping as its keys
        if isinstance(boundary, (str, Mapping)):
            raise TypeError(f"cell boundary must be a collection of cell ids, got {boundary!r}")
        id, dim = cell_id(id), integer(dim, "cell dimension")
        super().__init__(id, dim, as_weight(weight), frozenset(map(cell_id, boundary)))

    @property
    def eternal(self) -> bool:
        return self.weight is NEG_INF


class Violation(Record):
    """One broken invariant, attributed to the offending cell."""

    __slots__ = ("kind", "cell", "detail")

    def __str__(self):
        return f"{self.kind}[{self.cell}]: {self.detail}"


class FilteredComplex:
    """Immutable filtered complex; construction only rejects duplicate ids.

    The cells live in parallel tuples in the canonical (dim, id) order:
    ``_ids``, ``_dims``, ``_rank`` and ``_bounds``, each boundary the sorted
    tuple of its cells' positions.  A weight is ``_levels[rank]``: the sorted
    distinct finite weights of the cells, then ``-inf`` for rank -1; _build
    takes each weight as a code into a table of weights, and _fill compacts
    the entries the codes name into the levels.  A boundary id naming no cell
    gets position ``len(self) + k``, ``k`` indexing the sorted ``_unknown``
    ids, so validate() can name it.  Validity and ``Cell`` records are made
    on first use; the views and constructions, whose operands pass
    require_valid(), build their valid result from positions.  The other
    modules of fcw read the tuples.
    """

    __slots__ = (
        "_basepoint", "_ids", "_dims", "_rank", "_levels", "_bounds", "_unknown",
        "_index", "_valid", "_cells",
    )

    def __init__(self, cells: Iterable[Cell], basepoint: str):
        cells = list(cells)
        for cell in cells:
            if not isinstance(cell, Cell):
                raise TypeError(f"complex entry must be a Cell, got {cell!r}")
        table = {id(c.weight): c.weight for c in cells}  # one entry per weight object
        code = dict(zip(table, range(len(table))))
        ids, dims, codes = [c.id for c in cells], [c.dim for c in cells], [code[id(c.weight)] for c in cells]
        self._fill(ids, dims, codes, [*table.values()], [c.boundary for c in cells], cell_id(basepoint))

    @classmethod
    def _build(cls, ids, dims, codes, weights, boundaries, basepoint, positions=False) -> FilteredComplex:
        """The constructor behind every complex: parallel lists in any order, cell i weighing
        weights[codes[i]] (code -1 only if weights ends in NEG_INF; _fill ranks only the named
        entries, once), each boundary its cells' distinct ids or, with `positions` (a
        construction's result, valid by construction), their positions in the lists."""
        x = cls.__new__(cls)
        x._fill(ids, dims, codes, weights, boundaries, basepoint, positions)
        return x

    def _lists(self, keep, dims) -> list[list]:
        """_build's ids, dims and codes into _levels of the cells at `keep`, position p of dimension dims[p]."""
        return [list(map(column.__getitem__, keep)) for column in (self._ids, dims, self._rank)]

    def _fill(self, ids, dims, codes, weights, boundaries, basepoint, positions=False):
        """_build's work on self; each weight is a Fraction or NEG_INF and each dimension an int."""
        n = len(ids)
        order = _order(dims, ids)
        self._ids = tuple(map(ids.__getitem__, order))
        self._index = index = dict(zip(self._ids, range(n)))
        if len(index) < n:
            seen = set()  # the first id given twice
            twice = next(cell_id for cell_id in ids if cell_id in seen or seen.add(cell_id))
            raise ValidationError([Violation("DuplicateCellId", twice, "cell id appears twice")])
        self._dims = tuple(map(dims.__getitem__, order))
        self._rank, self._levels = _rank_weights(weights, list(map(codes.__getitem__, order)))
        boundaries = list(map(boundaries.__getitem__, order))
        get = (_inverse(order, n) if positions else index).__getitem__  # list position or id -> canonical position
        self._unknown = ()
        try:
            self._bounds = tuple([tuple(sorted(map(get, refs))) for refs in boundaries])
        except KeyError:  # only named input can name an unknown id
            self._unknown = tuple(sorted(set().union(*boundaries) - index.keys()))
            index = {**index, **dict(zip(self._unknown, range(n, n + len(self._unknown))))}
            self._bounds = tuple([tuple(sorted(map(index.__getitem__, refs))) for refs in boundaries])
        self._basepoint, self._valid, self._cells = basepoint, positions or None, None

    def _reweighted(self, rank, levels) -> FilteredComplex:
        """The same cells with new ranks and levels that keep the order of
        the old ones and the basepoint at -inf, so validity carries over."""
        x = FilteredComplex.__new__(FilteredComplex)
        for name in self.__slots__:
            setattr(x, name, getattr(self, name))
        x._rank, x._levels, x._cells = rank, levels, None
        return x

    @property
    def basepoint(self) -> str:
        return self._basepoint

    @property
    def cells(self) -> tuple[Cell, ...]:
        """All cells sorted by (dim, id) -- the canonical enumeration order."""
        if self._cells is None:
            names = self._ids + self._unknown
            bounds = [[names[r] for r in bound] for bound in self._bounds]
            self._cells = tuple(map(Cell, self._ids, self._dims, map(self._levels.__getitem__, self._rank), bounds))
        return self._cells

    def cell(self, cell_id: str) -> Cell:
        return self.cells[self._index[_record.cell_id(cell_id)]]

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def __len__(self):
        return len(self._ids)

    def __contains__(self, cell_id: str):
        return cell_id in self._index

    def _key(self) -> tuple:
        return self._basepoint, self._ids, self._dims, self._rank, self._levels, self._bounds, self._unknown

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FilteredComplex({len(self)} cells, basepoint={self._basepoint!r})"

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Every broken invariant, in deterministic (dim, id) order.

        The checks compare positions, dimensions and ranks; messages are
        formatted, and boundary ids sorted, only for the faulty cells.
        """
        out: list[Violation] = []
        ids, dims, rank, levels, bounds = self._ids, self._dims, self._rank, self._levels, self._bounds
        n, names = len(ids), ids + self._unknown

        def flag(kind, cell_id, detail):
            out.append(Violation(kind, cell_id, detail))

        if not _ID_CHARS.issuperset("".join(ids)) or "" in self._index or (n and min(dims) < 0):
            for cell_id, dim in zip(ids, dims):
                if not (cell_id and _ID_CHARS.issuperset(cell_id)):
                    flag("BadCellId", cell_id, "id must match [A-Za-z0-9_.*-]+")
                if dim < 0:
                    flag("NegativeDimension", cell_id, f"dim {dim} < 0")
        bp = self._index.get(self._basepoint)
        if bp is None:
            flag("MissingBasepoint", self._basepoint, "basepoint id not among cells")
        else:
            if dims[bp] != 0:
                flag("BadBasepoint", ids[bp], f"basepoint dim {dims[bp]} != 0")
            if rank[bp] >= 0:
                flag("BadBasepoint", ids[bp], f"basepoint weight {levels[rank[bp]]} is finite")
            if bounds[bp]:
                flag("BadBasepoint", ids[bp], "basepoint boundary not empty")
        resolved = not self._unknown
        square = []  # ∂∂ = 0 is checked only when every boundary id resolves, and reported last
        for j, bound in enumerate(bounds):
            if not bound:
                continue
            dim, top = dims[j], rank[j]
            # positions sort by (dim, id), so the ends of a boundary bracket its dimensions
            one_down = bound[-1] < n and dims[bound[0]] == dim - 1 == dims[bound[-1]]
            if not (one_down and max(map(rank.__getitem__, bound)) <= top):
                for r in sorted(bound, key=names.__getitem__):
                    if r >= n:
                        flag("MissingBoundaryCell", ids[j], f"references unknown cell {names[r]}")
                        continue
                    if dims[r] != dim - 1:
                        detail = f"boundary cell {ids[r]} has dim {dims[r]}, expected {dim - 1}"
                        flag("BoundaryDimensionViolation", ids[j], detail)
                    if rank[r] > top:
                        detail = f"boundary cell {ids[r]} has weight {levels[rank[r]]} > {levels[top]}"
                        flag("WeightMonotonicityViolation", ids[j], detail)
            if resolved:
                # each cell of the boundaries' boundaries must appear an even number of
                # times; a boundary holds distinct positions, so parity is one XOR
                odd = set()
                for r in bound:
                    odd.symmetric_difference_update(bounds[r])
                if odd:
                    detail = f"boundary of boundary hits {sorted(map(ids.__getitem__, odd))}"
                    square.append(Violation("BoundarySquareViolation", ids[j], detail))
        return out + square

    def require_valid(self) -> FilteredComplex:
        """Self, or ValidationError with validate()'s list; success is remembered."""
        if self._valid is None:
            violations = self.validate()
            if violations:
                raise ValidationError(violations)
            self._valid = True
        return self

    # -- filtration views ---------------------------------------------------

    def sublevel(self, level) -> FilteredComplex:
        """The subcomplex of cells with weight <= level; weights retained."""
        top = bisect_right(self._levels, as_weight(level), 0, len(self._levels) - 1)  # ranks below weigh <= level
        kept = [i for i, r in enumerate(self.require_valid()._rank) if r < top]  # the basepoint weighs -inf
        # a kept cell's boundary cells weigh no more than it, so they are kept too
        at = _inverse(kept, len(self))
        bounds = [[at[r] for r in self._bounds[i]] for i in kept]
        return self._build(*self._lists(kept, self._dims), self._levels, bounds, self._basepoint, positions=True)

    def spectrum(self) -> list[Fraction]:
        """Sorted distinct finite weights among the cells."""
        return list(self._levels[:-1])

    def ranks(self) -> Mapping[str, int]:
        """Each cell id's weight as an index into spectrum(); -1 for -inf.

        Ranks order exactly as the weights do, so the filtration order and
        the weight checks compare ints.
        """
        return MappingProxyType(dict(zip(self._ids, self._rank)))

    def _filtration_order(self) -> list[int]:
        """Positions in the filtration's (weight, dim, id) order: the positions
        are in (dim, id) order and sorted() is stable, so a sort by rank."""
        return sorted(range(len(self._rank)), key=self._rank.__getitem__)

    def euler_char_sublevel(self, level) -> int:
        """Unreduced Euler characteristic of the sublevel complex."""
        self.require_valid()
        top = bisect_right(self._levels, as_weight(level), 0, len(self._levels) - 1)
        return sum((-1) ** d for d, r in zip(self._dims, self._rank) if r < top)

    # -- reweighting --------------------------------------------------------

    def shift(self, amount) -> FilteredComplex:
        """Delay every finite weight by `amount`; eternal cells stay eternal."""
        amount = as_fraction(amount)
        self.require_valid()
        return self._reweighted(self._rank, (*(w + amount for w in self._levels[:-1]), NEG_INF))

    def cutoff(self, floor) -> FilteredComplex:
        """Raise every non-basepoint weight to at least `floor`."""
        floor = as_fraction(floor)
        bp, levels, top = self.require_valid()._index[self._basepoint], self._levels, len(self._levels) - 1
        low = bisect_left(levels, floor, 0, top)  # ranks below low weigh < floor: they take code top, the floor
        codes = [r if r >= low or i == bp else top for i, r in enumerate(self._rank)]
        return self._reweighted(*_rank_weights((*levels[:-1], floor, NEG_INF), codes))

    # -- suspension ---------------------------------------------------------

    def suspend(self) -> FilteredComplex:
        """Raise every non-basepoint cell one dimension, same weights."""
        at = self.require_valid()._index[self._basepoint]
        dims = [d + (i != at) for i, d in enumerate(self._dims)]  # the basepoint's stays 0
        # the basepoint's own boundary is empty; the other cells drop it from theirs,
        # which keeps each boundary one dimension down and the parity of ∂∂
        bounds = [[r for r in bound if r != at] for bound in self._bounds]
        return self._build(*self._lists(range(len(self)), dims), self._levels, bounds, self._basepoint, positions=True)

    # -- renaming -----------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> FilteredComplex:
        """Relabel cells; ids missing from the mapping keep their name.  A
        new name that breaks the id grammar raises ValidationError."""
        instance(mapping, Mapping)
        names = [cell_id(mapping.get(name, name)) for name in self.require_valid()._ids]
        bounds = [[names[r] for r in bound] for bound in self._bounds]
        basepoint = names[self._index[self._basepoint]]
        return self._build(names, self._dims, self._rank, self._levels, bounds, basepoint).require_valid()


# -- generators --------------------------------------------------------------


def point(basepoint_id: str = "pt") -> FilteredComplex:
    """The one-point complex."""
    return FilteredComplex._build([cell_id(basepoint_id)], [0], [0], [NEG_INF], [()], basepoint_id)


def sphere(k: int, level) -> FilteredComplex:
    """Basepoint plus a single k-cell appearing at `level` (boundary zero)."""
    k = integer(k, "sphere dimension", nonnegative=True)
    return FilteredComplex._build(["pt", "c1"], [0, k], [0, 1], [NEG_INF, as_weight(level)], [(), ()], "pt")


# -- binary constructions: each operand passes require_valid() first ----------

# Each result is valid by construction, so it is built from positions: prefixed
# and pair ids keep the id grammar, and the product's mod-2 boundary, and its
# quotient by the wedge in the smash, square to zero and keep weights monotone.


def _operand(x) -> FilteredComplex:
    """`x` once it is a FilteredComplex that passes require_valid()."""
    return instance(x, FilteredComplex).require_valid()


def wedge(x: FilteredComplex, y: FilteredComplex) -> FilteredComplex:
    """One-point union: operand cells prefixed `l.` / `r.`, basepoints merged."""
    lists = ["pt"], [0], [-1], [()]  # codes index x's levels, then y's: each table ends in -inf
    for prefix, operand, offset in (("l.", _operand(x), 0), ("r.", _operand(y), len(x._levels))):
        bp, n, base = operand._index[operand.basepoint], len(operand), len(lists[0])
        keep = [*range(bp), *range(bp + 1, n)]
        at = [*range(base, base + bp), 0, *range(base + bp, base + n - 1)]  # the basepoint goes to pt
        ids, dims, ranks = operand._lists(keep, operand._dims)
        bounds = [[at[r] for r in operand._bounds[i]] for i in keep]
        for out, part in zip(lists, ([prefix + name for name in ids], dims, [r + offset for r in ranks], bounds)):
            out += part
    ids, dims, codes, bounds = lists
    return FilteredComplex._build(ids, dims, codes, (*x._levels, *y._levels), bounds, "pt", positions=True)


def _pair_weight(wa, wb, filtered: bool):
    if not filtered:
        return max(wa, wb)  # NEG_INF orders below every weight
    return NEG_INF if wa is NEG_INF or wb is NEG_INF else wa + wb  # weights add, -inf absorbing


def _pair_ids(left, right) -> list[str]:
    """Deterministic unique ids for the pairs of two id lists, row by row:
    `l.<a>*r.<b>` plus a collision guard."""
    names = {}  # the ids made so far, in order
    for a in left:
        for b in right:
            base = name = f"l.{a}*r.{b}"
            k = 2
            while name in names:
                name = f"{base}*{k}"
                k += 1
            names[name] = None
    return list(names)


def _pair_cells(x, y, skip_x, skip_y, filtered):
    """Parallel ids, dims, codes and boundary positions of the pairs of cells of the
    valid complexes x and y, then the table the codes index, leaving out cell `skip_x`
    of x and `skip_y` of y (positions, or None) as pair members and as boundary cells."""
    keep_x = [i for i in range(len(x)) if i != skip_x]
    keep_y = [j for j in range(len(y)) if j != skip_y]
    m = len(keep_y)
    at_x, at_y = _inverse(keep_x, len(x)), _inverse(keep_y, len(y))
    # a pair's boundary: (boundary of its x cell) x its y cell, and its x cell x (boundary
    # of its y cell); the two halves share no cell, as a boundary cell is one dimension down
    down_x = [[at_x[a] * m for a in x._bounds[i] if a != skip_x] for i in keep_x]
    down_y = [[at_y[b] for b in y._bounds[j] if b != skip_y] for j in keep_y]
    ids = _pair_ids(map(x._ids.__getitem__, keep_x), list(map(y._ids.__getitem__, keep_y)))
    rank_x, rank_y, nx, ny = x._rank, y._rank, len(x._levels), len(y._levels)
    # code a % nx * ny + b % ny names the pair of levels a and b, so the last, -inf with -inf, is -inf
    weights = [_pair_weight(wa, wb, filtered) for wa in x._levels for wb in y._levels]
    dims, codes, boundaries = [], [], []
    for p, i in enumerate(keep_x):
        row = rank_x[i] % nx * ny
        for q, j in enumerate(keep_y):
            dims.append(x._dims[i] + y._dims[j])
            codes.append(row + rank_y[j] % ny)
            boundaries.append([a + q for a in down_x[p]] + [p * m + b for b in down_y[q]])
    return ids, dims, codes, boundaries, weights


def product(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    """Cellwise product; weights take the max (naive) or the sum (filtered)."""
    ids, dims, codes, boundaries, weights = _pair_cells(_operand(x), _operand(y), None, None, filtered)
    basepoint = ids[x._index[x.basepoint] * len(y) + y._index[y.basepoint]]
    return FilteredComplex._build(ids, dims, codes, weights, boundaries, basepoint, positions=True)


def smash(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    """Product with the wedge collapsed: only pairs of non-basepoint cells survive."""
    skip_x, skip_y = _operand(x)._index[x.basepoint], _operand(y)._index[y.basepoint]
    ids, dims, codes, bounds, weights = _pair_cells(x, y, skip_x, skip_y, filtered)
    # pt goes last, so that the pairs keep the positions their boundaries hold
    return FilteredComplex._build([*ids, "pt"], [*dims, 0], [*codes, -1], weights, [*bounds, ()], "pt", positions=True)
