"""Sublevel persistent homology over GF(2) and exact bottleneck distance.

Bars are half-open intervals [birth, death) with ``-inf`` births allowed
(classes carried by eternal cells) and ``+inf`` deaths for classes that
never die.  All endpoint arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import max_bipartite_matching, reduce_pairing
from .complexes import FilteredComplex
from .errors import ValidationError
from .rationals import POS_INF, format_extended, is_finite


@dataclass(frozen=True)
class Bar:
    """One interval of a barcode in homological degree `dim`."""

    dim: int
    birth: object
    death: object

    def __post_init__(self):
        if not self.birth < self.death:
            raise ValueError(f"bar needs birth < death, got [{self.birth}, {self.death})")


def _bar_key(bar: Bar):
    return (bar.dim, bar.birth, bar.death)


class Barcode:
    """A finite multiset of bars; equality respects multiplicity."""

    __slots__ = ("_bars",)

    def __init__(self, bars=()):
        self._bars = tuple(sorted(bars, key=_bar_key))

    @property
    def bars(self) -> tuple[Bar, ...]:
        return self._bars

    def dims(self) -> list[int]:
        return sorted({b.dim for b in self._bars})

    def restrict(self, dim: int) -> Barcode:
        return Barcode(b for b in self._bars if b.dim == dim)

    def __len__(self):
        return len(self._bars)

    def __iter__(self):
        return iter(self._bars)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return self._bars == other._bars

    def __hash__(self):
        return hash(self._bars)

    def __repr__(self):
        return f"Barcode({len(self._bars)} bars)"

    def to_tsv(self) -> str:
        """Canonical TSV: header plus one (dim, birth, death) row per bar."""
        lines = ["dim\tbirth\tdeath"]
        for bar in self._bars:
            lines.append(
                f"{bar.dim}\t{format_extended(bar.birth)}\t{format_extended(bar.death)}"
            )
        return "\n".join(lines) + "\n"


def barcode(x: FilteredComplex) -> Barcode:
    """Persistence barcode of the sublevel filtration, over GF(2).

    Cells are ordered by (weight, dim, id) -- boundary-compatible because a
    boundary cell has strictly smaller dimension and no larger weight --
    and the standard column reduction pairs creators with destroyers.
    Pairs with equal weights are dropped.  A complex whose boundaries break
    that order (an unknown cell, a wrong dimension or a heavier boundary
    cell) raises ValidationError instead of yielding a wrong barcode.
    """
    order = sorted(x.cells, key=lambda c: (c.weight, c.dim, c.id))
    index = {c.id: i for i, c in enumerate(order)}
    columns = []
    for j, c in enumerate(order):
        # an unknown id maps to j itself, so it fails the same check
        rows = [index.get(b, j) for b in c.boundary]
        if rows and max(rows) >= j:
            raise ValidationError(x.validate())
        columns.append(rows)
    pair = reduce_pairing(columns)
    killed = set()
    bars = []
    for j, i in enumerate(pair):
        if i >= 0:
            killed.add(i)
            birth, death = order[i].weight, order[j].weight
            if birth < death:
                bars.append(Bar(order[i].dim, birth, death))
    for i, c in enumerate(order):
        if pair[i] < 0 and i not in killed:
            bars.append(Bar(c.dim, c.weight, POS_INF))
    return Barcode(bars)


def euler_from_barcode(bc: Barcode, level) -> int:
    """Alternating count of bars alive at `level` (birth <= level < death)."""
    return sum((-1) ** b.dim for b in bc.bars if b.birth <= level and level < b.death)


# -- bottleneck distance ------------------------------------------------------


def _slot_gap(a, b):
    # None encodes an infinite gap
    if not (is_finite(a) and is_finite(b)):
        return Fraction(0) if a is b else None
    return abs(a - b)


def _match_cost(u: Bar, v: Bar):
    births = _slot_gap(u.birth, v.birth)
    deaths = _slot_gap(u.death, v.death)
    if births is None or deaths is None:
        return None
    return max(births, deaths)


def _diagonal_cost(u: Bar):
    if is_finite(u.birth) and is_finite(u.death):
        return (u.death - u.birth) / 2
    return None


def _feasible(delta, cost, diag1, diag2, n1, n2) -> bool:
    # Left side: bars1 then diagonal copies of bars2; right side: bars2 then
    # diagonal copies of bars1.  A partial matching of cost <= delta exists
    # iff this graph has a perfect matching.
    adjacency = []
    for i in range(n1):
        row = [j for j in range(n2) if cost[i][j] is not None and cost[i][j] <= delta]
        if diag1[i] is not None and diag1[i] <= delta:
            row.append(n2 + i)
        adjacency.append(row)
    diagonal_targets = list(range(n2, n2 + n1))
    for j in range(n2):
        row = list(diagonal_targets)
        if diag2[j] is not None and diag2[j] <= delta:
            row.append(j)
        adjacency.append(row)
    return max_bipartite_matching(n1 + n2, n1 + n2, adjacency) == n1 + n2


def _bottleneck_single(bars1, bars2):
    n1, n2 = len(bars1), len(bars2)
    if n1 == 0 and n2 == 0:
        return Fraction(0)
    cost = [[_match_cost(u, v) for v in bars2] for u in bars1]
    diag1 = [_diagonal_cost(u) for u in bars1]
    diag2 = [_diagonal_cost(v) for v in bars2]
    candidates = {Fraction(0)}
    candidates.update(c for row in cost for c in row if c is not None)
    candidates.update(d for d in diag1 if d is not None)
    candidates.update(d for d in diag2 if d is not None)
    ordered = sorted(candidates)
    if not _feasible(ordered[-1], cost, diag1, diag2, n1, n2):
        return POS_INF
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(ordered[mid], cost, diag1, diag2, n1, n2):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def bottleneck(b1: Barcode, b2: Barcode, dim: int | None = None):
    """Exact bottleneck distance (a Fraction, or +inf when unmatchable).

    Matching cost between bars is the max of the birth and death gaps, with
    equal infinities at gap 0 and mixed infinite/finite slots at +inf; a bar
    may instead pay half its length to the diagonal (infinite bars cannot).
    With `dim` given only that degree is compared, otherwise the result is
    the max over all degrees present.  The answer is the least candidate
    value (a pairwise cost or half-length) at which a perfect matching
    exists, found by bisection over the sorted candidates.
    """
    if dim is not None:
        return _bottleneck_single(b1.restrict(dim).bars, b2.restrict(dim).bars)
    best = Fraction(0)
    for d in sorted(set(b1.dims()) | set(b2.dims())):
        value = _bottleneck_single(b1.restrict(d).bars, b2.restrict(d).bars)
        if value is POS_INF:
            return POS_INF
        if value > best:
            best = value
    return best
