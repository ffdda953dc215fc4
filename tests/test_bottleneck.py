"""Exact bottleneck distance against a permutation-enumeration oracle,
beyond its reach the augmented-graph reference algorithm, and at sizes
neither oracle reaches the shift and stability identities."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from helpers import (
    brute_bottleneck,
    grid_document,
    grid_values,
    lower_star_document,
    random_barcode,
    reference_bottleneck,
    two_sphere_two_peaks,
)

from fcw import (
    Bar,
    Barcode,
    NEG_INF,
    POS_INF,
    barcode,
    bottleneck,
    parse_complex,
    sphere,
)
from fcw import persistence

F = Fraction


def test_two_sphere_models_are_a_quarter_apart():
    left = barcode(sphere(2, 1))
    right = barcode(two_sphere_two_peaks())
    assert bottleneck(left, right) == F(1, 4)


def test_distance_to_self_is_zero():
    bc = barcode(two_sphere_two_peaks())
    assert bottleneck(bc, bc) == 0


def test_unmatched_infinite_bar_gives_infinity():
    assert bottleneck(Barcode([Bar(2, 1, POS_INF)]), Barcode()) is POS_INF


def test_unmatched_eternal_bar_gives_infinity():
    assert bottleneck(Barcode([Bar(0, NEG_INF, 1)]), Barcode()) is POS_INF


def test_eternal_births_match_at_death_gap():
    left = Barcode([Bar(0, NEG_INF, 1)])
    right = Barcode([Bar(0, NEG_INF, 3)])
    assert bottleneck(left, right) == 2


def test_eternal_cannot_match_finite_birth():
    left = Barcode([Bar(0, NEG_INF, POS_INF)])
    right = Barcode([Bar(0, 0, POS_INF)])
    assert bottleneck(left, right) is POS_INF


def test_finite_bars_prefer_diagonal_when_cheaper():
    left = Barcode([Bar(1, 0, 1)])
    right = Barcode([Bar(1, 10, 11)])
    # matching the two bars costs 10; each to the diagonal costs 1/2
    assert bottleneck(left, right) == F(1, 2)


def test_dim_restriction():
    left = Barcode([Bar(0, 0, 4), Bar(1, 0, 1)])
    right = Barcode([Bar(0, 0, 4)])
    assert bottleneck(left, right, dim=0) == 0
    assert bottleneck(left, right, dim=1) == F(1, 2)
    assert bottleneck(left, right) == F(1, 2)
    assert bottleneck(left, right, dim=7) == 0


def test_non_int_degree_is_rejected():
    left = Barcode([Bar(0, 0, 4), Bar(1, 0, 1)])
    for dim in (1.5, True, "1"):
        with pytest.raises(TypeError, match="degree must be an int"):
            bottleneck(left, Barcode(), dim=dim)


def test_only_barcodes_of_bars_are_compared():
    for bars, entry in (([(0, 1, 2)], r"\(0, 1, 2\)"), ("ab", "'a'")):
        with pytest.raises(TypeError, match=f"barcode entry must be a Bar, got {entry}"):
            Barcode(bars)
    for left, right, kind in (([Bar(0, 0, 1)], Barcode(), "list"), (Barcode(), None, "NoneType")):
        with pytest.raises(TypeError, match=f"bottleneck compares two Barcodes, got {kind}"):
            bottleneck(left, right)


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        bottleneck(Barcode(), Barcode(), dim=-1)


def test_matches_brute_force_on_small_barcodes():
    rng = random.Random(211)
    for _ in range(120):
        left = random_barcode(rng, max_bars=3, dims=(0, 1))
        right = random_barcode(rng, max_bars=3, dims=(0, 1))
        expected = brute_bottleneck(left, right)
        got = bottleneck(left, right)
        if expected is None:
            assert got is POS_INF
        else:
            assert got == expected


def test_pseudometric_axioms_on_random_barcodes():
    rng = random.Random(223)
    for _ in range(60):
        a = random_barcode(rng, max_bars=6)
        b = random_barcode(rng, max_bars=6)
        c = random_barcode(rng, max_bars=6)
        d_ab = bottleneck(a, b)
        d_ba = bottleneck(b, a)
        d_bc = bottleneck(b, c)
        d_ac = bottleneck(a, c)
        assert d_ab == d_ba
        assert bottleneck(a, a) == 0
        if d_ab is POS_INF or d_bc is POS_INF:
            continue
        assert d_ac is not POS_INF
        assert d_ac <= d_ab + d_bc


def test_empty_barcodes_are_at_distance_zero():
    assert bottleneck(Barcode(), Barcode()) == 0


# Pairwise-coprime denominators: the common scale is their product times 2.
DENOMINATORS = (7, 11, 13, 17, 19, 23)
# (birth infinite, death infinite)
FINITE = (False, False)
KINDS = (FINITE, (False, True), (True, False), (True, True))


def _value(rng, spread):
    return F(rng.randint(-spread, spread), rng.choice(DENOMINATORS))


def _bar(rng, dim, kind):
    birth = _value(rng, 60)
    death = birth + F(rng.randint(1, 40), rng.choice(DENOMINATORS))
    return Bar(dim, NEG_INF if kind[0] else birth, POS_INF if kind[1] else death)


def _nudge(rng, bar):
    """The bar with each finite endpoint moved a little, unless that empties it."""
    birth, death = (v if v is NEG_INF or v is POS_INF else v + _value(rng, 6) for v in (bar.birth, bar.death))
    return Bar(bar.dim, birth, death) if birth < death else bar


def mid_size_pair(rng, dims, unequal_kind=None):
    """Two barcodes with 20-60 finite bars and 0-4 bars of each infinite kind
    per degree: the right one nudges each left bar or replaces it by a fresh
    one.  With `unequal_kind`, one degree gets an extra bar of that kind."""
    left, right = [], []
    for dim in dims:
        for kind in KINDS:
            for _ in range(rng.randint(20, 60) if kind == FINITE else rng.randint(0, 4)):
                bar = _bar(rng, dim, kind)
                left.append(bar)
                right.append(_nudge(rng, bar) if rng.random() < 0.7 else _bar(rng, dim, kind))
    if unequal_kind is not None:
        rng.choice((left, right)).append(_bar(rng, rng.choice(dims), unequal_kind))
    return Barcode(left), Barcode(right)


def test_matches_reference_on_mid_size_barcodes():
    rng = random.Random(227)
    finite = 0
    for unequal_kind in (None, None, None, *KINDS[1:]):
        left, right = mid_size_pair(rng, (0, 1), unequal_kind)
        for dim in (None, 0, 1, 2):
            got = bottleneck(left, right, dim)
            expected = reference_bottleneck(left, right, dim)
            assert got == (POS_INF if expected is None else expected)
            finite += got is not POS_INF
    assert finite > 12  # unequal counts leave the other degree finite


def test_matches_reference_on_finite_bars_only():
    rng = random.Random(229)
    for _ in range(4):
        bars = [_bar(rng, 0, FINITE) for _ in range(rng.randint(20, 60))]
        left = Barcode(bars)
        right = Barcode(_nudge(rng, b) for b in bars if rng.random() < 0.8)
        assert bottleneck(left, right) == reference_bottleneck(left, right)
        assert bottleneck(right, left) == reference_bottleneck(right, left)


# -- exact identities at scale ------------------------------------------------


def affine(bc, k, a):
    """Every finite endpoint v of bc moved to k*v + a."""

    def move(v):
        return v if v is NEG_INF or v is POS_INF else k * v + a

    return Barcode(Bar(b.dim, move(b.birth), move(b.death)) for b in bc)


def test_shift_moves_grid_barcodes_by_exactly_the_shift():
    # A shift by a moves every bar by |a|, so the distance is at most |a|.  A
    # grid beside an eternal basepoint has an immortal H0 bar with a finite
    # birth, which can only go to the other immortal one: exactly |a|.
    rng = random.Random(269)
    for side in (20, 30, 40):
        x = parse_complex(grid_document(side, rng))
        bc = barcode(x)
        for a in (F(1, 3), F(-5, 2), F(7)):
            moved = barcode(x.shift(a))
            assert moved == affine(bc, 1, a)
            assert bottleneck(bc, moved) == abs(a)


def test_shift_moves_overlapping_bars_by_exactly_the_shift():
    # every bar within every other's half-length: the quadratic case.  The
    # infinite bar makes L = a, and pairing in sorted order costs a too, so
    # the search ends at once, unless one side has a short bar born before
    # the others: it goes to the diagonal, but the sorted pairing then costs
    # far more than a.
    rng = random.Random(271)
    a, short = F(5, 4), Bar(0, -50, -49)
    for n in (300, 1000):
        bars = [Bar(0, F(rng.randrange(400), 4), F(rng.randrange(4000, 4400), 4)) for _ in range(n)]
        bc = Barcode([*bars, Bar(0, F(3), POS_INF)])
        moved, longer = affine(bc, 1, a), Barcode([*bc, short])
        assert bottleneck(bc, moved) == a
        assert bottleneck(moved, bc) == a
        assert bottleneck(longer, moved) == a
        assert bottleneck(moved, longer) == a


def test_distance_scales_with_the_barcodes():
    # d(kA, kB) = k d(A, B) for k > 0: every pair and diagonal cost scales
    # by k, so an optimal matching stays optimal; +inf stays +inf
    rng = random.Random(307)
    for unequal_kind in (None, None, *KINDS[1:]):
        left, right = mid_size_pair(rng, (0, 1), unequal_kind)
        d = bottleneck(left, right)
        for p in (2, 3, 31, 101):
            for k in (F(1, p), F(p)):
                expected = d if d is POS_INF else k * d
                assert bottleneck(affine(left, k, 0), affine(right, k, 0)) == expected


def _primes(n):
    """The first n primes."""
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_each_degree_scales_only_its_own_finite_bars():
    # Degree 0: 1000 bars [k/p, inf) a side, each p a prime of its own, so
    # their common denominator has thousands of digits.  Degree 1: integer
    # bars [10j, 10j + 3) against [10j + 2, 10j + 5), each nearer the
    # diagonal (3/2) than its partner (2).  The whole distance is the
    # degree-0 sorted gap, the floor of the degree-1 search.
    rng = random.Random(311)
    primes = _primes(2000)
    births = [sorted(F(rng.randrange(1000 * p), p) for p in side) for side in (primes[:1000], primes[1000:])]
    gap = max(abs(u - v) for u, v in zip(*births))
    left, right = (
        Barcode([*(Bar(0, b, POS_INF) for b in ends), *(Bar(1, 10 * j + lag, 10 * j + lag + 3) for j in range(40))])
        for ends, lag in zip(births, (0, 2))
    )
    assert bottleneck(left, right, dim=0) == gap
    assert bottleneck(left, right, dim=1) == F(3, 2) < gap
    assert bottleneck(left, right) == max(bottleneck(left, right, dim=0), bottleneck(left, right, dim=1))
    assert bottleneck(right, left) == gap


def test_the_floor_of_a_finite_search_keeps_its_denominator():
    # L = 1/7 comes from degree 0, and degree 1's bars have denominator 1:
    # the search in degree 1 starts at 1/7 and must scale it exactly
    finite = [Bar(1, 0, 4), Bar(1, 2, 9)]
    left = Barcode([Bar(0, 0, POS_INF), *finite])
    right = Barcode([Bar(0, F(1, 7), POS_INF), *finite])
    assert bottleneck(left, right) == F(1, 7)
    assert bottleneck(left, right, dim=1) == 0


def test_many_infinite_bars_are_paired_in_sorted_order():
    # On one finite coordinate and without the diagonal, pairing in sorted
    # order is optimal: the distance is its largest gap.
    rng = random.Random(281)

    def ends():
        return [F(rng.randrange(10**6), rng.choice(DENOMINATORS)) for _ in range(1000)]

    births, deaths = (ends(), ends()), (ends(), ends())
    left, right = (
        Barcode([*(Bar(1, b, POS_INF) for b in births[side]), *(Bar(1, NEG_INF, d) for d in deaths[side])])
        for side in (0, 1)
    )
    gap = max(abs(u - v) for pair in (births, deaths) for u, v in zip(sorted(pair[0]), sorted(pair[1])))
    assert bottleneck(left, right) == gap
    # one kind with unequal counts leaves an infinite bar that nothing takes,
    # and only in its own degree
    assert bottleneck(left, Barcode(right.bars[1:])) is POS_INF
    assert bottleneck(Barcode(left.bars[:-1]), right) is POS_INF
    fewer = Barcode([*right.bars[1:], Bar(0, 0, 4)])
    assert bottleneck(left, fewer, dim=1) is POS_INF
    assert bottleneck(left, fewer, dim=0) == 2


def _scale_pair(rng, nudge, a):
    """Per side 1500 bars [b, inf) and 1500 bars [-inf, d), the right side's
    endpoints the left's moved by up to `nudge`, and finite bars of
    half-length above a, spaced more than 2a apart, that the right side holds
    moved by a.  The left side also has a short bar born before the others,
    so pairing the finite bars in sorted order costs far more than a.
    Returns the two barcodes and the largest gap of the infinite bars'
    sorted pairing."""
    left, right, gap = [], [], 0
    for kind in ("birth", "death"):
        ends = [F(rng.randrange(60000 * q), q) for q in rng.choices((1, 7, 11), k=1500)]
        moved = [v + F(rng.randrange(int(nudge * 7)), 7) for v in ends]
        gap = max(gap, *(abs(u - v) for u, v in zip(sorted(ends), sorted(moved))))
        for side, values in ((left, ends), (right, moved)):
            side.extend(Bar(0, v, POS_INF) if kind == "birth" else Bar(0, NEG_INF, v) for v in values)
    for k in range(40):
        birth = F(k * 2000)
        left.append(Bar(0, birth, birth + 1000))
        right.append(Bar(0, birth + a, birth + a + 1000))
    left.append(Bar(0, F(-50), F(-49)))
    return Barcode(left), Barcode(right), gap


def test_infinite_groups_and_finite_bars_at_scale():
    # Bars of different kinds never match, so the distance is the max of the
    # infinite bars' sorted gap and the finite bars' cost, exactly a: each
    # finite bar is nearer its own shift than any other bar or the diagonal.
    rng = random.Random(283)
    a = F(3000, 7)
    for nudge in (F(1000, 7), F(6000, 7)):
        left, right, gap = _scale_pair(rng, nudge, a)
        assert (gap < a) == (nudge < a)
        assert bottleneck(left, right) == max(gap, a)
        assert bottleneck(right, left, dim=0) == max(gap, a)


def test_stability_on_perturbed_grids():
    # Cohen-Steiner-Edelsbrunner-Harer: the barcodes of two lower-star
    # filtrations f, g of one grid are within max |f - g| of each other
    rng = random.Random(277)
    for side in (10, 20, 30):
        for spread in (1, 6, 24):
            f = grid_values(side, rng)
            g = [[v + F(rng.randint(-spread, spread), rng.choice((2, 3, 5))) for v in row] for row in f]
            eps = max(abs(u - v) for row_f, row_g in zip(f, g) for u, v in zip(row_f, row_g))
            bf, bg = (barcode(parse_complex(lower_star_document(v))) for v in (f, g))
            assert 0 < bottleneck(bf, bg) <= eps


@pytest.fixture
def matchings(monkeypatch):
    """A list that counts the feasibility tests' calls to the matching kernel."""
    calls, kernel = [], persistence.max_bipartite_matching

    def counted(n_left, n_right, adjacency):
        calls.append(n_left)
        return kernel(n_left, n_right, adjacency)

    monkeypatch.setattr(persistence, "max_bipartite_matching", counted)
    return calls


def test_a_perturbed_grid_is_settled_by_one_feasibility_test(matchings):
    # Every bar is paired or goes to the diagonal, so each bar's least cost
    # to a bar of the other side or to the diagonal bounds the distance from
    # below.  Here the largest of these bounds is the distance: one test at
    # it, two matchings, settles each finite degree.
    rng = random.Random(331)
    for side in (10, 20, 30):
        for spread in (1, 2, 4):
            f = grid_values(side, rng)
            g = [[v + F(rng.randint(-spread, spread), 24) for v in row] for row in f]
            bf, bg = (barcode(parse_complex(lower_star_document(v))) for v in (f, g))
            for dim in (0, 1):
                matchings.clear()
                assert 0 < bottleneck(bf, bg, dim) <= F(spread, 24)
                assert len(matchings) <= 2


def _crowds(rng, count):
    """Bars [100k, 100k + length) and, for each, `count` bars around it."""
    one, crowd = [], []
    for k in range(12):
        birth = F(100 * k)
        death = birth + rng.randint(20, 60)
        one.append(Bar(1, birth, death))
        for _ in range(count):
            early, late = (F(rng.randint(-6, 6), rng.choice((2, 3, 5))) for _ in range(2))
            crowd.append(Bar(1, birth + early, death + late))
    return Barcode(one), Barcode(crowd)


def test_bars_crowding_around_one_bar_compete_for_it(matchings):
    # Each crowded bar is near a partner, so the lower bound is small, but
    # only one of the crowd gets that partner and the rest pay their
    # half-lengths: the search goes on past its first test.
    rng = random.Random(337)
    for count in (2, 3):
        one, crowd = _crowds(rng, count)
        for left, right in ((one, crowd), (crowd, one)):
            matchings.clear()
            assert bottleneck(left, right) == reference_bottleneck(left, right)
            assert len(matchings) > 2


def test_the_lower_bound_stops_its_scan_where_a_birth_gap_ties():
    # Left bar j is [10 + j, 30 + 3j): half-length 10 + j, which is also its
    # birth gap to each right bar [0, 1).  Every other pair costs more, so
    # the distance is the longest half-length, 309, and each left bar's scan
    # stops at its first tie.  Walking on through the ties, or listing the
    # pairs within each half-length, would execute some n^2 lines here.
    n = 300
    left = Barcode(Bar(0, 10 + j, 30 + 3 * j) for j in range(n))
    right = Barcode(Bar(0, 0, 1) for _ in range(n))
    lines = []

    def trace(frame, event, arg):
        if frame.f_code.co_filename == persistence.__file__:
            lines.append(event)
            return trace
        return None

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        distance = bottleneck(left, right)
    finally:
        sys.settrace(before)
    assert distance == 10 + n - 1
    assert len(lines) < n * n
