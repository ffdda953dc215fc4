"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: homology
ranks come from plain Gaussian elimination, bottleneck values from
permutation enumeration or, for mid-size barcodes, from perfect matchings
of the diagonal-augmented graph in Fraction arithmetic, found by Kuhn's
augmenting-path algorithm (the library's Hopcroft-Karp is checked
against the same oracle).
`reference_barcode` orders cells by their Fraction weights and reduces
every column left to right, where the library orders cells by integer
ranks and reduces dimension by dimension with clearing.  `kunneth_barcode`
predicts the barcode of a filtered smash from its factors' barcodes alone,
and `barcode_euler_terms` the Euler polynomial from a barcode's endpoints.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

from fcw import Bar, Barcode, Cell, FilteredComplex, NEG_INF, POS_INF, format_extended

WEIGHT_POOL = [
    Fraction(-1),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 3),
    Fraction(4),
]

NONNEG_POOL = [w for w in WEIGHT_POOL if w >= 0]


def torus(a, b, c) -> FilteredComplex:
    """Basepoint, two 1-cells and one 2-cell, all boundaries zero mod 2."""
    return FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("a", 1, Fraction(a)),
            Cell("b", 1, Fraction(b)),
            Cell("f", 2, Fraction(c)),
        ],
        "pt",
    )


def two_sphere_two_peaks() -> FilteredComplex:
    """Height model with two maxima: 1-cell at 1/2 bounded by both 2-cells at 1."""
    return FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("m", 1, Fraction(1, 2)),
            Cell("n1", 2, Fraction(1), ["m"]),
            Cell("n2", 2, Fraction(1), ["m"]),
        ],
        "pt",
    )


# -- random valid complexes ---------------------------------------------------


def _cycle_space(cells: dict[str, Cell], eligible: list[str]) -> list[frozenset]:
    """Basis of the mod-2 cycles supported on the given cells."""
    rows: dict[str, int] = {}
    vectors = []
    for cid in eligible:
        vec = 0
        for ref in cells[cid].boundary:
            row = rows.setdefault(ref, len(rows))
            vec |= 1 << row
        vectors.append((vec, cid))
    pivots: dict[int, tuple[int, set]] = {}
    kernel = []
    for vec, cid in vectors:
        combo = {cid}
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = (vec, combo)
                combo = None
                break
            pvec, pcombo = pivots[top]
            vec ^= pvec
            combo ^= pcombo
        if combo is not None:
            kernel.append(frozenset(combo))
    return kernel


def random_complex(
    rng: random.Random,
    max_cells: int = 12,
    dims=(0, 1, 1, 2, 2, 3),
    weights=WEIGHT_POOL,
    eternal_prob: float = 0.15,
    min_cells: int = 1,
) -> FilteredComplex:
    """A random valid complex: each boundary is a random cycle at or below its
    weight.  Besides the basepoint it has min_cells to max_cells cells."""
    cells = {"pt": Cell("pt", 0, NEG_INF)}
    order = ["pt"]
    for i in range(rng.randint(min_cells, max_cells)):
        dim = rng.choice(dims)
        weight = NEG_INF if rng.random() < eternal_prob else rng.choice(weights)
        if dim == 0:
            boundary = frozenset()
        else:
            eligible = [
                cid
                for cid in order
                if cells[cid].dim == dim - 1 and cells[cid].weight <= weight
            ]
            boundary = frozenset()
            for basis_elt in _cycle_space(cells, eligible):
                if rng.random() < 0.5:
                    boundary ^= basis_elt
        cid = f"c{i}"
        cells[cid] = Cell(cid, dim, weight, boundary)
        order.append(cid)
    return FilteredComplex(cells.values(), "pt")


def random_linearizable_complex(rng: random.Random, max_cells: int = 10) -> FilteredComplex:
    """Random complex with no finite-weight 0-cells and nonnegative weights."""
    return random_complex(rng, max_cells, dims=(1, 1, 2, 2, 3), weights=NONNEG_POOL)


def random_barcode(rng: random.Random, max_bars: int = 8, dims=(0, 1, 2)) -> Barcode:
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        dim = rng.choice(dims)
        birth = NEG_INF if rng.random() < 0.2 else rng.choice(WEIGHT_POOL)
        if rng.random() < 0.25:
            death = POS_INF
        else:
            later = [w for w in WEIGHT_POOL if birth is NEG_INF or w > birth]
            death = rng.choice(later) if later else POS_INF
        bars.append(Bar(dim, birth, death))
    return Barcode(bars)


def grid_values(side: int, rng: random.Random) -> list[list[Fraction]]:
    """Random vertex values for a side x side grid."""
    return [[Fraction(rng.randrange(24), rng.choice((1, 2, 3, 4))) for _ in range(side)] for _ in range(side)]


def grid_document(side: int, rng: random.Random) -> str:
    """An `fcw/1` document of the lower-star complex of a grid with random values."""
    return lower_star_document(grid_values(side, rng))


def lower_star_document(value) -> str:
    """An `fcw/1` document of the lower-star cubical complex of the vertex
    grid with values `value[i][j]` (an edge or square takes the largest
    value among its vertices), plus a separate eternal basepoint."""
    side = len(value)
    cells = [("pt", 0, NEG_INF, ())]
    for i in range(side):
        for j in range(side):
            cells.append((f"v{i}_{j}", 0, value[i][j], ()))
    for i in range(side):
        for j in range(side - 1):
            cells.append((f"h{i}_{j}", 1, max(value[i][j], value[i][j + 1]), (f"v{i}_{j}", f"v{i}_{j + 1}")))
    for i in range(side - 1):
        for j in range(side):
            cells.append((f"u{i}_{j}", 1, max(value[i][j], value[i + 1][j]), (f"v{i}_{j}", f"v{i + 1}_{j}")))
    for i in range(side - 1):
        for j in range(side - 1):
            w = max(value[i][j], value[i][j + 1], value[i + 1][j], value[i + 1][j + 1])
            cells.append((f"s{i}_{j}", 2, w, (f"h{i}_{j}", f"h{i + 1}_{j}", f"u{i}_{j}", f"u{i}_{j + 1}")))
    records = [
        {"id": cid, "dim": dim, "weight": format_extended(w), "boundary": {ref: 1 for ref in refs}}
        for cid, dim, w, refs in cells
    ]
    return json.dumps({"format": "fcw/1", "basepoint": "pt", "cells": records})


# -- serialization oracle -----------------------------------------------------


def reference_serialize(x: FilteredComplex) -> str:
    """The canonical document through json.dumps over the complex's Cell records."""
    cells = [
        {
            "id": c.id,
            "dim": c.dim,
            "weight": format_extended(c.weight),
            "boundary": {ref: 1 for ref in sorted(c.boundary)},
        }
        for c in x.cells
    ]
    doc = {"format": "fcw/1", "basepoint": x.basepoint, "cells": cells}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- construction oracle --------------------------------------------------------
#
# The constructions rebuilt from Cell records alone, with the documented names:
# the wedge prefixes `l.` and `r.` and merges the two basepoints into `pt`; a pair
# of cells a, b is `l.<a>*r.<b>`, with `*k` (k = 2, 3, ...) appended, in row order,
# to a name already taken; the smash keeps the pairs of non-basepoint cells plus
# `pt`, and drops the pairs in the wedge from every boundary, as `suspend` drops
# the basepoint.


def reference_wedge(x: FilteredComplex, y: FilteredComplex) -> FilteredComplex:
    cells = [Cell("pt", 0, NEG_INF)]
    for prefix, z in (("l.", x), ("r.", y)):
        name = {c.id: prefix + c.id for c in z.cells} | {z.basepoint: "pt"}
        for c in z.cells:
            if c.id != z.basepoint:
                cells.append(Cell(name[c.id], c.dim, c.weight, {name[b] for b in c.boundary}))
    return FilteredComplex(cells, "pt")


def _reference_pairs(x: FilteredComplex, y: FilteredComplex, filtered: bool, smash: bool) -> FilteredComplex:
    left = [a for a in x.cells if not (smash and a.id == x.basepoint)]
    right = [b for b in y.cells if not (smash and b.id == y.basepoint)]
    names = {}
    for a in left:
        for b in right:
            name = base = f"l.{a.id}*r.{b.id}"
            k = 2
            while name in names.values():
                name, k = f"{base}*{k}", k + 1
            names[a.id, b.id] = name
    cells = [Cell("pt", 0, NEG_INF)] if smash else []
    for a in left:
        for b in right:
            if not filtered:
                weight = max(a.weight, b.weight)
            else:
                weight = NEG_INF if a.eternal or b.eternal else a.weight + b.weight
            # ∂(a x b) = ∂a x b + a x ∂b mod 2; a pair left out names no cell
            faces = [(e, b.id) for e in a.boundary] + [(a.id, e) for e in b.boundary]
            cells.append(Cell(names[a.id, b.id], a.dim + b.dim, weight, {names[f] for f in faces if f in names}))
    return FilteredComplex(cells, "pt" if smash else names[x.basepoint, y.basepoint])


def reference_product(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    return _reference_pairs(x, y, filtered, smash=False)


def reference_smash(x: FilteredComplex, y: FilteredComplex, filtered: bool = False) -> FilteredComplex:
    return _reference_pairs(x, y, filtered, smash=True)


def reference_suspend(x: FilteredComplex) -> FilteredComplex:
    bp = x.basepoint
    return FilteredComplex([Cell(c.id, c.dim + (c.id != bp), c.weight, c.boundary - {bp}) for c in x.cells], bp)


def reference_sublevel(x: FilteredComplex, level) -> FilteredComplex:
    return FilteredComplex([c for c in x.cells if c.weight <= level], x.basepoint)


# -- barcode oracle -----------------------------------------------------------


def reference_barcode(x: FilteredComplex) -> Barcode:
    """The sublevel barcode with cells sorted by (weight, dim, id) in Fraction
    comparisons and zero-length pairs dropped by Fraction `birth < death`.
    The reduction is the textbook one: add earlier reduced columns, each a
    set of rows, until the lowest row is unclaimed or the column is empty;
    pair[j] is the row column j kills, or -1."""
    order = sorted(x.cells, key=lambda c: (c.weight, c.dim, c.id))
    index = {c.id: i for i, c in enumerate(order)}
    claimed = {}  # lowest row -> the reduced column that claimed it
    pair = []
    for c in order:
        column = {index[b] for b in c.boundary}
        while column and max(column) in claimed:
            column ^= claimed[max(column)]
        low = max(column, default=-1)
        if column:
            claimed[low] = column
        pair.append(low)
    killed = {i for i in pair if i >= 0}
    bars = []
    for j, i in enumerate(pair):
        if i >= 0 and order[i].weight < order[j].weight:
            bars.append(Bar(order[i].dim, order[i].weight, order[j].weight))
    for i, c in enumerate(order):
        if pair[i] < 0 and i not in killed:
            bars.append(Bar(c.dim, c.weight, POS_INF))
    return Barcode(bars)


def reduced_barcode(x: FilteredComplex, barcode=reference_barcode) -> Barcode:
    """The barcode of x with its basepoint deleted from every boundary, less
    the basepoint's own [-inf, inf) bar: the barcode of chains relative to
    the basepoint."""
    bp = x.basepoint
    relative = FilteredComplex([Cell(c.id, c.dim, c.weight, c.boundary - {bp}) for c in x.cells], bp)
    bars = list(barcode(relative).bars)
    bars.remove(Bar(0, NEG_INF, POS_INF))
    return Barcode(bars)


def _plus(u, v):
    return POS_INF if u is POS_INF or v is POS_INF else u + v


def kunneth_barcode(x: FilteredComplex, y: FilteredComplex) -> Barcode:
    """The reduced barcode of smash(x, y, filtered=True) by the Kunneth formula
    for persistence modules (Bubenik-Milicevic 2021, Gakhar-Perea 2019):
    bars [a, b) in degree p of x and [c, d) in degree q of y, from the two
    reduced barcodes, give [a + c, min(a + d, b + c)) in degree p + q and,
    when b and d are finite, the Tor bar [max(a + d, b + c), b + d) in
    degree p + q + 1.  An eternal cell besides a basepoint would give a
    -inf birth, where -inf + d = -inf collapses bars, so it raises
    ValueError."""
    for factor in (x, y):
        eternal = [c.id for c in factor.cells if c.weight is NEG_INF and c.id != factor.basepoint]
        if eternal:
            raise ValueError(f"the Kunneth oracle needs no eternal cell but the basepoint, got {eternal}")
    bars, right = [], reduced_barcode(y).bars
    for u in reduced_barcode(x).bars:
        for v in right:
            a, b, c, d = u.birth, u.death, v.birth, v.death
            bars.append(Bar(u.dim + v.dim, a + c, min(_plus(a, d), _plus(b, c))))
            if b is not POS_INF and d is not POS_INF:
                bars.append(Bar(u.dim + v.dim + 1, max(a + d, b + c), b + d))
    return Barcode(bars)


def barcode_euler_terms(bc: Barcode) -> tuple:
    """The (exponent, coefficient) terms, by increasing exponent, of the sum
    over bars of (-1)^dim (t^birth - t^death), with t^-inf = t^inf = 0.

    For the barcode of x this is euler_polynomial(x).terms(): a finite pair
    gives its creator's term and its destroyer's, which cancel when their
    weights are equal, and a class that never dies its creator's.  The
    terms are summed in a Counter, not through Polynomial."""
    sums = Counter()
    for bar in bc.bars:
        sign = (-1) ** bar.dim
        if bar.birth is not NEG_INF:
            sums[bar.birth] += sign
        if bar.death is not POS_INF:
            sums[bar.death] -= sign
    return tuple(sorted((exp, coeff) for exp, coeff in sums.items() if coeff))


# -- homology oracle ----------------------------------------------------------


def _gf2_rank(columns: list[int]) -> int:
    basis: dict[int, int] = {}
    for vec in columns:
        while vec:
            top = vec.bit_length() - 1
            if top not in basis:
                basis[top] = vec
                break
            vec ^= basis[top]
    return len(basis)


def homology_ranks(x: FilteredComplex, level) -> dict[int, int]:
    """Betti numbers of the sublevel complex via Gaussian elimination."""
    sub = x.sublevel(level)
    by_dim: dict[int, list[Cell]] = {}
    for c in sub.cells:
        by_dim.setdefault(c.dim, []).append(c)
    boundary_rank: dict[int, int] = {}
    for d, group in by_dim.items():
        rows = {c.id: k for k, c in enumerate(by_dim.get(d - 1, []))}
        columns = []
        for c in group:
            vec = 0
            for ref in c.boundary:
                vec |= 1 << rows[ref]
            columns.append(vec)
        boundary_rank[d] = _gf2_rank(columns)
    betti = {}
    for d, group in by_dim.items():
        cycles = len(group) - boundary_rank.get(d, 0)
        betti[d] = cycles - boundary_rank.get(d + 1, 0)
    return betti


def bars_alive(bc: Barcode, level) -> dict[int, int]:
    alive: dict[int, int] = {}
    for bar in bc.bars:
        if bar.birth <= level and level < bar.death:
            alive[bar.dim] = alive.get(bar.dim, 0) + 1
    return alive


# -- bottleneck oracle ----------------------------------------------------------


def _finite(v) -> bool:
    return not (v is NEG_INF or v is POS_INF)


def _gap(a, b):
    if not (_finite(a) and _finite(b)):
        return Fraction(0) if a is b else None
    return abs(a - b)


def _pair_cost(u: Bar, v: Bar):
    births, deaths = _gap(u.birth, v.birth), _gap(u.death, v.death)
    if births is None or deaths is None:
        return None
    return max(births, deaths)


def _diag(u: Bar):
    if _finite(u.birth) and _finite(u.death):
        return (u.death - u.birth) / 2
    return None


def brute_bottleneck_single(bars1, bars2):
    """Minimum over all complete matchings (with diagonal slots) of the max cost.

    Returns None for +inf.  Only usable for a handful of bars per side.
    """
    n1, n2 = len(bars1), len(bars2)
    m = n1 + n2
    if m == 0:
        return Fraction(0)

    def cost(i, j):
        if i < n1 and j < n2:
            return _pair_cost(bars1[i], bars2[j])
        if i < n1:
            return _diag(bars1[i])
        if j < n2:
            return _diag(bars2[j])
        return Fraction(0)

    best = None
    for perm in permutations(range(m)):
        worst = Fraction(0)
        for i, j in enumerate(perm):
            c = cost(i, j)
            if c is None:
                worst = None
                break
            if c > worst:
                worst = c
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def brute_max_matching(n_left, n_right, adjacency):
    """Kuhn's augmenting-path algorithm, recursion-based (independent oracle)."""
    pair_v = [-1] * n_right

    def augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if pair_v[v] < 0 or augment(pair_v[v], seen):
                pair_v[v] = u
                return True
        return False

    return sum(1 for u in range(n_left) if augment(u, set()))


def _augmented_feasible(delta, cost, diag1, diag2, n1, n2) -> bool:
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
    return brute_max_matching(n1 + n2, n1 + n2, adjacency) == n1 + n2


def reference_bottleneck_single(bars1, bars2):
    """Least candidate (0, a pairwise cost or a half-length) at which the
    diagonal-augmented graph has a perfect matching, by bisection over every
    candidate; None for +inf.  Quadratic in the bars, so mid-size only."""
    n1, n2 = len(bars1), len(bars2)
    cost = [[_pair_cost(u, v) for v in bars2] for u in bars1]
    diag1 = [_diag(u) for u in bars1]
    diag2 = [_diag(v) for v in bars2]
    candidates = {Fraction(0)}
    candidates.update(c for row in cost for c in row if c is not None)
    candidates.update(d for d in diag1 + diag2 if d is not None)
    ordered = sorted(candidates)
    if not _augmented_feasible(ordered[-1], cost, diag1, diag2, n1, n2):
        return None
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _augmented_feasible(ordered[mid], cost, diag1, diag2, n1, n2):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def _over_degrees(single, b1: Barcode, b2: Barcode, dim=None):
    dims = [dim] if dim is not None else sorted(set(b1.dims()) | set(b2.dims()))
    best = Fraction(0)
    for d in dims:
        value = single(b1.restrict(d).bars, b2.restrict(d).bars)
        if value is None:
            return None
        if value > best:
            best = value
    return best


def brute_bottleneck(b1: Barcode, b2: Barcode):
    return _over_degrees(brute_bottleneck_single, b1, b2)


def reference_bottleneck(b1: Barcode, b2: Barcode, dim=None):
    """Bottleneck distance by the augmented-graph oracle; None for +inf."""
    return _over_degrees(reference_bottleneck_single, b1, b2, dim)
