"""Sublevel persistent homology over GF(2) and exact bottleneck distance.

Bars are half-open intervals [birth, death) with ``-inf`` births allowed
(classes carried by eternal cells) and ``+inf`` deaths for classes that
never die.  All endpoint arithmetic is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter, sub

from ._kernels import max_bipartite_matching, reduce_pairing
from ._record import Record, instance, integer
from .complexes import FilteredComplex, _inverse
from .rationals import NEG_INF, POS_INF, as_extended, as_weight, format_extended


class Bar(Record):
    """One interval [birth, death) of a barcode in the degree `dim`, a
    nonnegative int, with exact endpoints: Fractions, a -inf birth or a +inf
    death."""

    __slots__ = ("dim", "birth", "death")

    def __init__(self, dim: int, birth, death):
        dim = integer(dim, "bar degree", nonnegative=True)
        birth, death = map(as_extended, (birth, death))
        super().__init__(dim, birth, death)
        if not birth < death:
            raise ValueError(f"bar needs birth < death, got [{birth}, {death})")


class Barcode(Record):
    """A finite multiset of bars, kept sorted; equality respects multiplicity."""

    __slots__ = ("bars",)

    def __init__(self, bars=()):
        bars = tuple(bars)
        for bar in bars:
            if not isinstance(bar, Bar):
                raise TypeError(f"barcode entry must be a Bar, got {bar!r}")
        super().__init__(tuple(sorted(bars, key=Bar._key)))

    def dims(self) -> list[int]:
        return sorted({b.dim for b in self.bars})

    def restrict(self, dim: int) -> Barcode:
        dim = integer(dim, "degree", nonnegative=True)
        return Barcode(b for b in self.bars if b.dim == dim)

    def __len__(self):
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __repr__(self):
        return f"Barcode({len(self.bars)} bars)"

    def to_tsv(self) -> str:
        """Canonical TSV: header plus one (dim, birth, death) row per bar."""
        lines = ["dim\tbirth\tdeath"]
        for bar in self.bars:
            lines.append(
                f"{bar.dim}\t{format_extended(bar.birth)}\t{format_extended(bar.death)}"
            )
        return "\n".join(lines) + "\n"


def barcode(x: FilteredComplex) -> Barcode:
    """Persistence barcode of the sublevel filtration, over GF(2).

    Cells are ordered by (weight, dim, id) -- boundary-compatible because a
    boundary cell has strictly smaller dimension and no larger weight --
    and the column reduction with clearing pairs creators with destroyers.
    Pairs with equal weights are dropped.  Raises ValidationError with every
    violation validate() reports instead of yielding a wrong barcode.
    Weights are compared by their integer ranks (FilteredComplex.ranks), and
    the columns are the complex's boundary positions, renumbered.
    """
    rank = instance(x, FilteredComplex).require_valid()._rank
    order = x._filtration_order()
    at = _inverse(order, len(order))  # position -> index in the filtration order
    columns = [[at[r] for r in bound] for bound in map(x._bounds.__getitem__, order)]
    ranks = list(map(rank.__getitem__, order))
    dims = [x._dims[i] for i in order]
    partner = reduce_pairing(columns, dims)
    # level[r] is the weight of rank r: spectrum, then +inf, and -inf at -1
    level = [*x.spectrum(), POS_INF, NEG_INF]
    never = len(level) - 2
    bars = []
    for j, i in enumerate(partner):
        if i < 0:
            bars.append((dims[j], ranks[j], never))
        elif i < j and ranks[i] < ranks[j]:
            bars.append((dims[i], ranks[i], ranks[j]))
    # (dim, birth rank, death rank) orders bars as Barcode's (dim, birth,
    # death) key does, so Barcode's own sort finds them already in order
    bars.sort()
    return Barcode(Bar(dim, level[b], level[d]) for dim, b, d in bars)


def euler_from_barcode(bc: Barcode, level) -> int:
    """Alternating count of bars alive at `level` (birth <= level < death);
    `level` is -inf or a rational, as for FilteredComplex.sublevel."""
    bc, level = instance(bc, Barcode), as_weight(level)
    return sum((-1) ** b.dim for b in bc.bars if b.birth <= level and level < b.death)


# -- bottleneck distance ------------------------------------------------------


def _sorted_cost(left, right):
    """Cost of pairing two sorted sequences of values in order: the largest
    gap between paired values, 0 when nothing is paired."""
    return max(map(abs, map(sub, left, right)), default=0)


def _box(bar, others, births, delta) -> list[int]:
    """Indices of the bars of `others`, sorted with births `births`, that lie
    within L-infinity distance delta of `bar`."""
    b, d = bar
    lo = bisect_left(births, b - delta)
    hi = bisect_right(births, b + delta)
    return [j for j in range(lo, hi) if abs(others[j][1] - d) <= delta]


def _nearest(bar, others, births, best, floor) -> int:
    """The least of `best` and the costs of pairing `bar` with the bars of
    `others`, sorted with births `births`: a walk outward from its birth that
    stops once the birth gap alone reaches the least so far, or once that is
    at most `floor`."""
    b, d = bar
    k = bisect_left(births, b)
    for walk in (range(k, len(births)), range(k - 1, -1, -1)):
        for j in walk:
            gap = abs(births[j] - b)
            if gap >= best:
                break
            best = min(best, max(gap, abs(others[j][1] - d)))
            if best <= floor:
                return best
    return best


def _finite_bottleneck(left, right, low) -> Fraction:
    """Least delta >= low at which the sorted finite bars `left` and `right`
    admit a matching of cost <= delta, every unmatched bar paying half its
    length to the diagonal.

    Bars and low are scaled by S = 2 * lcm(their denominators) to even ints
    in the same order, so half-lengths are ints too.  Pairing the bars in
    sorted order and sending the rest to the diagonal is a matching, so with
    low it bounds the answer by U.  A bar is forced at delta when its
    half-length exceeds delta, and a matching within delta needs a pair only
    while one of its bars is forced.  So the answer is among low, U, the
    half-lengths and the costs of pairs within min(half-length, U) of a bar,
    and bisection over those in [low, U] finds the least delta at which, by
    the Mendelsohn-Dulmage theorem, one matching of cost <= delta covers
    every bar1 longer than 2*delta and another covers every such bar2.

    In a matching within delta each bar is paired at cost <= delta or sent
    to the diagonal at its half-length, so the answer is at least the floor
    F: the largest of low and each bar's min(half-length, U, cost to its
    nearest bar on the other side).  F is low, U, a half-length or a pair
    cost within min(half-length, U) of its bar, so it is a candidate, and it
    is tested first: when it is feasible, that one test settles the search.
    Otherwise bisection runs over the candidates above F.  Every delta tested
    is at least F and below U, where each forced bar's box holds its nearest
    bar of the other side, so no box is empty.
    """
    scale = 2 * lcm(low.denominator, *{v.denominator for bar in left + right for v in (bar.birth, bar.death)})

    def scaled(v) -> int:
        return v.numerator * (scale // v.denominator)

    bars1, bars2 = ([(scaled(bar.birth), scaled(bar.death)) for bar in bars] for bars in (left, right))
    low, paired = scaled(low), _sorted_cost(chain.from_iterable(bars1), chain.from_iterable(bars2))
    top = max(low, paired, *[(d - b) // 2 for b, d in bars1[len(bars2):] + bars2[len(bars1):]])
    if low == top:
        return Fraction(top, scale)
    # each side against the other side's bars, sorted by birth
    directions = [(bars1, bars2, [b for b, _ in bars2]), (bars2, bars1, [b for b, _ in bars1])]

    def feasible(delta) -> bool:
        # Mendelsohn-Dulmage: a delta-matching exists iff one matching covers
        # every forced bar1 and another every forced bar2.
        for bars, others, births in directions:
            adjacency = [_box((b, d), others, births, delta) for b, d in bars if d - b > 2 * delta]
            if max_bipartite_matching(len(adjacency), len(others), adjacency) < len(adjacency):
                return False
        return True

    floor = low
    for bars, others, births in directions:
        for b, d in bars:
            radius = min((d - b) // 2, top)
            if radius > floor:
                floor = max(floor, _nearest((b, d), others, births, radius, floor))
    if floor == top or feasible(floor):
        return Fraction(floor, scale)
    candidates = {top}
    for bars, others, births in directions:
        for b, d in bars:
            radius = min((d - b) // 2, top)
            candidates.add(radius)
            candidates.update(
                max(abs(others[j][0] - b), abs(others[j][1] - d))
                for j in _box((b, d), others, births, radius)
            )
    ordered = sorted(c for c in candidates if c > floor)
    # the least feasible candidate; the largest is feasible, so never tested
    return Fraction(ordered[bisect_left(ordered, True, hi=len(ordered) - 1, key=feasible)], scale)


def bottleneck(b1: Barcode, b2: Barcode, dim: int | None = None):
    """Exact bottleneck distance (a Fraction, or +inf when unmatchable).

    Matching cost between bars is the max of the birth and death gaps, with
    equal infinities at gap 0 and mixed infinite/finite slots at +inf; a bar
    may instead pay half its length to the diagonal (infinite bars cannot).
    With `dim` given only that degree is compared, otherwise the result is
    the max over all degrees present.

    Bars of different degrees or kinds (which endpoints are infinite) never
    match at a finite cost, and an infinite bar cannot go to the diagonal,
    so the distance is the max over the (degree, kind) groups.  An infinite
    group is +inf unless both sides hold the same number of its bars; then
    it is a bijection on one finite coordinate, where sorted order costs
    least, and it costs the largest gap of the sorted pairing.  Each
    degree's finite bars are searched from L, the most those groups cost.
    """
    for bc in (b1, b2):
        if not isinstance(bc, Barcode):
            raise TypeError(f"bottleneck compares two Barcodes, got {type(bc).__name__}")
    if dim is not None:
        b1, b2 = b1.restrict(dim), b2.restrict(dim)
    # (degree, -inf birth, +inf death) -> each side's bars, in Barcode order
    groups = ({}, {})
    for bc, group in zip((b1, b2), groups):
        for bar in bc.bars:
            group.setdefault((bar.dim, bar.birth is NEG_INF, bar.death is POS_INF), []).append(bar)
    low, searches = Fraction(0), []
    for kind in groups[0].keys() | groups[1].keys():
        left, right = (group.get(kind, []) for group in groups)
        if not (kind[1] or kind[2]):
            searches.append((left, right))
        elif len(left) != len(right):
            return POS_INF
        elif not (kind[1] and kind[2]):  # bars [-inf, inf) pair at 0, the others on their finite end
            end = attrgetter("death" if kind[1] else "birth")
            low = max(low, _sorted_cost(map(end, left), map(end, right)))
    return max((_finite_bottleneck(left, right, low) for left, right in searches), default=low)
