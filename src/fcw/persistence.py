"""Sublevel persistent homology over GF(2) and exact bottleneck distance.

Bars are half-open intervals [birth, death) with ``-inf`` births allowed
(classes carried by eternal cells) and ``+inf`` deaths for classes that
never die.  All endpoint arithmetic is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

from ._kernels import max_bipartite_matching, reduce_pairing
from ._record import Record, instance, integer
from .complexes import FilteredComplex
from .rationals import NEG_INF, POS_INF, as_fraction, format_extended


class Bar(Record):
    """One interval [birth, death) of a barcode in the degree `dim`, a
    nonnegative int, with exact endpoints: Fractions, a -inf birth or a +inf
    death."""

    __slots__ = ("dim", "birth", "death")

    def __init__(self, dim: int, birth, death):
        dim = integer(dim, "bar degree", nonnegative=True)
        birth, death = (v if v is NEG_INF or v is POS_INF else as_fraction(v) for v in (birth, death))
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
    # positions are in (dim, id) order and sorted() is stable: (rank, dim, id)
    order = sorted(range(len(rank)), key=rank.__getitem__)
    at = [0] * len(order)  # position -> index in the filtration order
    for j, i in enumerate(order):
        at[i] = j
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
    """Alternating count of bars alive at `level` (birth <= level < death)."""
    return sum((-1) ** b.dim for b in bc.bars if b.birth <= level and level < b.death)


# -- bottleneck distance ------------------------------------------------------


def _box(bar, others, births, delta) -> list[int]:
    """Indices of the bars of `others`, sorted with births `births`, that lie
    within L-infinity distance delta of `bar`."""
    b, d = bar
    lo = bisect_left(births, b - delta)
    hi = bisect_right(births, b + delta)
    return [j for j in range(lo, hi) if abs(others[j][1] - d) <= delta]


def _int_bottleneck(bars1, bars2, reach) -> int:
    """Least delta at which the (birth, death) int pairs admit a matching of
    cost <= delta, every unmatched bar paying half its length to the diagonal.
    Finite endpoints lie in [-reach, reach]; when the answer is above
    2 * reach, so is the int returned, which may then differ from it."""
    bars1, bars2 = sorted(bars1), sorted(bars2)
    # the sorted matching's cost `top` (U) and `low` (L): see bottleneck()
    kinds = {}
    for side, bars in enumerate((bars1, bars2)):
        for b, d in bars:
            kinds.setdefault((b < -reach, d > reach), ([], []))[side].append((b, d))
    top = low = 0
    for kind, (left, right) in kinds.items():
        cost = max([max(abs(b1 - b2), abs(d1 - d2)) for (b1, d1), (b2, d2) in zip(left, right)], default=0)
        if any(kind):
            low = max(low, cost)
        top = max(top, cost, *[(d - b) // 2 for b, d in left[len(right):] + right[len(left):]])
    if top > 2 * reach or low == top:
        return top
    # each side against the other side's bars, sorted by birth
    directions = [(bars1, bars2, [b for b, _ in bars2]), (bars2, bars1, [b for b, _ in bars1])]
    # A bar is forced at delta when its half-length exceeds delta.  A pair
    # costing c is an edge the matchings below can use only while one of its
    # bars is forced, so beyond 0 and the half-lengths the only candidates
    # are pairs within a bar's half-length of it; and none outside [low, top]
    # is needed.  The largest candidate, top, is feasible.
    candidates = {0, top}
    for bars, others, births in directions:
        for b, d in bars:
            radius = min((d - b) // 2, top)
            candidates.add(radius)
            candidates.update(
                max(abs(others[j][0] - b), abs(others[j][1] - d))
                for j in _box((b, d), others, births, radius)
            )
    ordered = sorted(c for c in candidates if c >= low)

    def feasible(delta) -> bool:
        # Mendelsohn-Dulmage: a delta-matching exists iff one matching covers
        # every forced bar1 and another every forced bar2.
        for bars, others, births in directions:
            adjacency = []
            for b, d in bars:
                if d - b > 2 * delta:
                    adjacency.append(_box((b, d), others, births, delta))
                    if not adjacency[-1]:
                        return False
            if max_bipartite_matching(len(adjacency), len(others), adjacency) < len(adjacency):
                return False
        return True

    # the least feasible candidate; the largest is feasible, so never tested
    return ordered[bisect_left(ordered, True, hi=len(ordered) - 1, key=feasible)]


def bottleneck(b1: Barcode, b2: Barcode, dim: int | None = None):
    """Exact bottleneck distance (a Fraction, or +inf when unmatchable).

    Matching cost between bars is the max of the birth and death gaps, with
    equal infinities at gap 0 and mixed infinite/finite slots at +inf; a bar
    may instead pay half its length to the diagonal (infinite bars cannot).
    With `dim` given only that degree is compared, otherwise the result is
    the max over all degrees present.

    The compared bars are one problem in ints.  Finite endpoints are scaled
    by S = 2 * lcm(denominators) to even ints in [-reach, reach], -inf and
    +inf to -far and far, far = 6 * reach + 2 (even, above 5 * reach).
    Pairing bars of different kinds (which endpoints are infinite) then
    costs at least far - reach, and an infinite bar's diagonal slot
    (far - reach) / 2: both above 2 * reach.  A finite distance is at most
    2 * reach: pair each kind's bars in any order, and send the finite bars
    to the diagonal.  So the max over the degrees of their int answers is S
    times a finite distance, and above 2 * reach for +inf.

    One matching is written down first: each kind's bars paired in sorted
    order, the rest sent to the diagonal.  Its cost U bounds the answer.
    Above 2 * reach it sent an infinite bar to the diagonal, and then every
    matching pays more than 2 * reach: +inf.  Otherwise a matching within
    2 * reach pairs each infinite kind within itself, where one coordinate
    varies and sorted order costs least, so the most L that the sorted
    pairs of infinite bars cost is at most the answer, and L = U is the
    answer.  Otherwise bisection over the
    sorted candidate values in [L, U] (0, U, the half-lengths, and the costs
    of pairs within min(half-length, U) of a bar) finds the least delta at
    which, by the Mendelsohn-Dulmage theorem, one matching of cost <= delta
    covers every bar1 longer than 2*delta and another covers every such
    bar2.  A bar's edges come from a delta-box around it, found by bisection
    over the other side's sorted births.
    """
    for bc in (b1, b2):
        if not isinstance(bc, Barcode):
            raise TypeError(f"bottleneck compares two Barcodes, got {type(bc).__name__}")
    if dim is not None:
        integer(dim, "degree", nonnegative=True)
    sides = [bc.bars if dim is None else [bar for bar in bc.bars if bar.dim == dim] for bc in (b1, b2)]
    finite = [v for bars in sides for bar in bars for v in (bar.birth, bar.death) if v is not NEG_INF and v is not POS_INF]
    scale = 2 * lcm(*{v.denominator for v in finite})
    reach = max((abs(v.numerator) * (scale // v.denominator) for v in finite), default=0)
    far = 6 * reach + 2

    def scaled(v) -> int:
        if v is NEG_INF:
            return -far
        if v is POS_INF:
            return far
        return v.numerator * (scale // v.denominator)

    groups = ({}, {})
    for bars, group in zip(sides, groups):
        for bar in bars:
            group.setdefault(bar.dim, []).append((scaled(bar.birth), scaled(bar.death)))
    worst = max(
        (_int_bottleneck(groups[0].get(d, []), groups[1].get(d, []), reach) for d in groups[0].keys() | groups[1].keys()),
        default=0,
    )
    return POS_INF if worst > 2 * reach else Fraction(worst, scale)
