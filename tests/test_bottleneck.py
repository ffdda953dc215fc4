"""Exact bottleneck distance against a permutation-enumeration oracle and,
beyond its reach, the augmented-graph reference algorithm."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import brute_bottleneck, random_barcode, reference_bottleneck, two_sphere_two_peaks

from fcw import (
    Bar,
    Barcode,
    NEG_INF,
    POS_INF,
    barcode,
    bottleneck,
    sphere,
)

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
