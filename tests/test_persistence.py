"""Barcode extraction cross-checked against a Gaussian-elimination oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import (
    bars_alive,
    homology_ranks,
    random_complex,
    torus,
    two_sphere_two_peaks,
)

from fcw import (
    Bar,
    Barcode,
    Cell,
    FilteredComplex,
    NEG_INF,
    POS_INF,
    ValidationError,
    barcode,
    euler_from_barcode,
    sphere,
)

F = Fraction


def test_barcode_of_single_peak_sphere():
    assert barcode(sphere(2, 1)) == Barcode(
        [Bar(0, NEG_INF, POS_INF), Bar(2, 1, POS_INF)]
    )


def test_barcode_of_two_peak_sphere():
    assert barcode(two_sphere_two_peaks()) == Barcode(
        [Bar(0, NEG_INF, POS_INF), Bar(1, F(1, 2), 1), Bar(2, 1, POS_INF)]
    )


def test_barcode_of_torus():
    assert barcode(torus(1, 2, 4)) == Barcode(
        [
            Bar(0, NEG_INF, POS_INF),
            Bar(1, 1, POS_INF),
            Bar(1, 2, POS_INF),
            Bar(2, 4, POS_INF),
        ]
    )


def test_equal_weight_pairs_are_dropped():
    # edge and killing disk appear together: no dim-1 bar at all
    x = FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("e", 1, 1),
            Cell("d", 2, 1, ["e"]),
        ],
        "pt",
    )
    assert barcode(x) == Barcode([Bar(0, NEG_INF, POS_INF)])


def test_eternal_birth_with_finite_death():
    x = FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("e", 1, NEG_INF),
            Cell("d", 2, 2, ["e"]),
        ],
        "pt",
    )
    assert barcode(x) == Barcode([Bar(0, NEG_INF, POS_INF), Bar(1, NEG_INF, 2)])


def test_bar_counts_match_homology_ranks():
    rng = random.Random(101)
    for _ in range(40):
        x = random_complex(rng)
        bc = barcode(x)
        for level in [NEG_INF] + x.spectrum():
            expected = {d: r for d, r in homology_ranks(x, level).items() if r}
            assert bars_alive(bc, level) == expected


def test_bars_born_at_a_weight_bounded_by_cells():
    rng = random.Random(103)
    for _ in range(30):
        x = random_complex(rng)
        bc = barcode(x)
        for level in x.spectrum():
            for d in bc.dims():
                born = sum(1 for b in bc.bars if b.dim == d and b.birth == level)
                cells = sum(1 for c in x.cells if c.dim == d and c.weight == level)
                assert born <= cells


def test_euler_from_barcode_examples():
    bc = barcode(two_sphere_two_peaks())
    assert euler_from_barcode(bc, F(3, 4)) == 0
    assert euler_from_barcode(bc, 1) == 2
    assert euler_from_barcode(bc, F(1, 4)) == 1  # only the eternal component
    empty_level = barcode(torus(1, 2, 4))
    assert euler_from_barcode(Barcode([Bar(1, 3, POS_INF)]), 0) == 0
    assert euler_from_barcode(empty_level, F(1, 2)) == 1


def test_euler_from_barcode_equals_cellular_euler():
    rng = random.Random(107)
    for _ in range(40):
        x = random_complex(rng)
        bc = barcode(x)
        for level in [NEG_INF] + x.spectrum():
            assert euler_from_barcode(bc, level) == x.euler_char_sublevel(level)


def test_reduction_is_independent_of_cell_names():
    rng = random.Random(109)
    for _ in range(25):
        x = random_complex(rng)
        ids = [i for i in x.ids() if i != "pt"]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        renamed = x.rename(dict(zip(ids, (f"z{k}_{s}" for k, s in enumerate(shuffled)))))
        assert barcode(renamed) == barcode(x)


def test_shift_covariance():
    rng = random.Random(113)
    for _ in range(25):
        x = random_complex(rng)
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        shifted = barcode(x.shift(a))
        expected = Barcode(
            Bar(
                b.dim,
                b.birth if b.birth is NEG_INF else b.birth + a,
                b.death if b.death is POS_INF else b.death + a,
            )
            for b in barcode(x).bars
        )
        assert shifted == expected


def test_bar_requires_birth_before_death():
    with pytest.raises(ValueError):
        Bar(0, 1, 1)
    with pytest.raises(ValueError):
        Bar(0, 2, 1)


def test_barcode_multiset_semantics():
    one = Barcode([Bar(1, 0, 1), Bar(1, 0, 1)])
    other = Barcode([Bar(1, 0, 1)])
    assert one != other
    assert len(one) == 2


def test_tsv_rendering_is_sorted_and_stable():
    got = barcode(two_sphere_two_peaks()).to_tsv()
    assert got == "dim\tbirth\tdeath\n0\t-inf\tinf\n1\t1/2\t1\n2\t1\tinf\n"



@pytest.mark.parametrize(
    "cells, kind",
    [
        # the 1-cell enters after the 2-cell it bounds
        ([Cell("e", 1, 2), Cell("f", 2, 1, ["e"])], "WeightMonotonicityViolation"),
        ([Cell("e", 1, 1, ["nope"])], "MissingBoundaryCell"),
        # equal weights: a boundary cell one dimension too high sorts after its coface
        ([Cell("e", 1, 1), Cell("f", 2, 1, ["e"]), Cell("g", 1, 1, ["f"])], "BoundaryDimensionViolation"),
    ],
)
def test_barcode_rejects_a_broken_filtration_order(cells, kind):
    x = FilteredComplex([Cell("pt", 0, NEG_INF), *cells], "pt")
    with pytest.raises(ValidationError) as info:
        barcode(x)
    assert kind in [v.kind for v in info.value.violations]
