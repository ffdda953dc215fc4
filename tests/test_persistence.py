"""Barcode extraction cross-checked against a Gaussian-elimination oracle."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from helpers import (
    barcode_euler_terms,
    bars_alive,
    grid_document,
    homology_ranks,
    kunneth_barcode,
    random_complex,
    reduced_barcode,
    reference_barcode,
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
    euler_polynomial,
    parse_complex,
    parse_document,
    smash,
    sphere,
)
from fcw.cli import run

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


def _mixed_weight_pool(rng):
    """Weights with denominators up to 10**6, equal values given both as int
    and as unreduced Fraction, and neighbours 10**-12 apart."""
    pool = []
    for _ in range(6):
        w = Fraction(rng.randint(-3 * 10**6, 3 * 10**6), rng.randint(1, 10**6))
        pool += [w, w + Fraction(1, 10**12), Fraction(w.numerator * 3, w.denominator * 3)]
    for k in (-1, 0, 2):
        pool += [k, Fraction(2 * k, 2), Fraction(k * 999_983, 999_983)]
    return pool


def test_barcode_equals_reference_on_library_built_complexes():
    rng = random.Random(4242)
    for _ in range(150):
        x = random_complex(
            rng, max_cells=30, weights=_mixed_weight_pool(rng), eternal_prob=0.2
        )
        assert barcode(x) == reference_barcode(x)


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


def test_barcode_endpoints_sum_to_the_euler_polynomial():
    rng = random.Random(109)
    for _ in range(300):
        x = random_complex(rng)
        assert barcode_euler_terms(barcode(x)) == euler_polynomial(x).terms()
    for side in (20, 30, 40):
        x = parse_complex(grid_document(side, rng))
        assert barcode_euler_terms(barcode(x)) == euler_polynomial(x).terms()


def test_filtered_grid_smash_barcode_sums_to_the_euler_polynomial():
    rng = random.Random(113)
    x, y = (parse_complex(grid_document(6, rng)) for _ in range(2))
    smashed = smash(x, y, filtered=True)
    assert len(smashed) == 14642
    assert barcode_euler_terms(barcode(smashed)) == euler_polynomial(smashed).terms()


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


def test_bar_coerces_exact_endpoints_and_keeps_the_infinities():
    bar = Bar(0, 1, 2)
    assert type(bar.birth) is Fraction and type(bar.death) is Fraction
    assert Bar(1, NEG_INF, POS_INF).birth is NEG_INF
    assert Bar(1, NEG_INF, POS_INF).death is POS_INF


@pytest.mark.parametrize("birth, death", [(0.5, 1), (0, 1.0), (Fraction(1), "2")])
def test_bar_rejects_an_endpoint_that_is_not_exact(birth, death):
    with pytest.raises(TypeError, match="expected an exact rational"):
        Bar(0, birth, death)


@pytest.mark.parametrize("dim", ["x", True, 1.0, None, -1])
def test_bar_rejects_a_degree_that_is_not_an_int(dim):
    # a negative int is an int but no degree
    error, rule = (ValueError, "nonnegative") if type(dim) is int else (TypeError, "an int")
    with pytest.raises(error, match=f"bar degree must be {rule}, got {dim!r}"):
        Bar(dim, 1, 2)


def test_barcode_multiset_semantics():
    one = Barcode([Bar(1, 0, 1), Bar(1, 0, 1)])
    other = Barcode([Bar(1, 0, 1)])
    assert one != other
    assert len(one) == 2
    assert repr(one) == "Barcode(2 bars)"


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


def _document(*cells):
    records = [{"id": "pt", "dim": 0, "weight": "-inf", "boundary": {}}]
    records += [{"id": i, "dim": d, "weight": w, "boundary": {b: 1 for b in bs}} for i, d, w, bs in cells]
    return json.dumps({"format": "fcw/1", "basepoint": "pt", "cells": records})


@pytest.mark.parametrize(
    "doc, kind",
    [
        # a 2-cell bounded by a 0-cell: an unchecked reduction gives the bar [1, 2) in degree 0
        (_document(("v", 0, "1", ()), ("f", 2, "2", ("v",))), "BoundaryDimensionViolation"),
        # a face whose boundary has a nonzero boundary: [2, 3) in degree 1 when unchecked
        (_document(("v", 0, "1", ()), ("e", 1, "2", ("v",)), ("f", 2, "3", ("e",))), "BoundarySquareViolation"),
    ],
    ids=["face-on-vertex", "nonzero-square"],
)
def test_barcode_rejects_what_validate_rejects(doc, kind):
    x = parse_document(doc)
    with pytest.raises(ValidationError) as info:
        barcode(x)
    assert info.value.violations == x.validate()
    assert kind in [v.kind for v in info.value.violations]


def test_barcode_validates_a_complex_once(monkeypatch):
    x = parse_complex(_document(("v", 0, "1", ()), ("e", 1, "2", ("v", "pt"))))

    def again(self):
        raise AssertionError("validated twice")

    monkeypatch.setattr(FilteredComplex, "validate", again)
    assert barcode(x) == barcode(x)
    # shift and cutoff keep validity: their results are not validated again
    barcode(x.shift(1))
    barcode(x.cutoff(F(3, 2)))


# -- the Kunneth referee ---------------------------------------------------------


@pytest.mark.parametrize("side", [6, 8])
def test_filtered_grid_smash_obeys_kunneth(tmp_path, side):
    rng = random.Random(side)
    paths = [tmp_path / "left.fcw", tmp_path / "right.fcw"]
    for path in paths:
        path.write_text(grid_document(side, rng))
    smashed = run(["smash", "--filtered", *map(str, paths)])
    assert smashed.exit_code == 0
    x, y = (parse_complex(path.read_text()) for path in paths)
    expected = kunneth_barcode(x, y)
    assert len(expected) > 10 * side
    assert reduced_barcode(parse_complex(smashed.payload), barcode) == expected


def test_filtered_smash_of_random_complexes_obeys_kunneth():
    rng = random.Random(4243)
    for _ in range(150):
        x, y = (random_complex(rng, max_cells=10, eternal_prob=0.0) for _ in range(2))
        assert reduced_barcode(smash(x, y, filtered=True), barcode) == kunneth_barcode(x, y)


def test_kunneth_oracle_refuses_an_eternal_cell_besides_the_basepoint():
    x = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF)], "pt")
    with pytest.raises(ValueError):
        kunneth_barcode(x, sphere(1, 0))
