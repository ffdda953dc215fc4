"""Validation and the cell-level constructions."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest
from helpers import (
    grid_document,
    random_complex,
    reference_product,
    reference_smash,
    reference_sublevel,
    reference_suspend,
    reference_wedge,
    torus,
    two_sphere_two_peaks,
)

from fcw import (
    Cell,
    FilteredComplex,
    NEG_INF,
    ValidationError,
    canonical_linearization,
    euler_polynomial,
    format_extended,
    invariant_report,
    k_class,
    matching_number,
    parse_complex,
    parse_document,
    point,
    product,
    serialize_complex,
    size_polynomial,
    smash,
    sphere,
    wedge,
    weighted_euler_char,
)
from fcw.invariants import euler_curve

F = Fraction


# -- validate -------------------------------------------------------------------


def test_torus_model_is_valid():
    assert torus(1, 2, 4).validate() == []


def test_weight_monotonicity_violation_detected():
    x = FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("e", 1, 2),
            Cell("f", 2, 1, ["e"]),
        ],
        "pt",
    )
    kinds = [v.kind for v in x.validate()]
    assert kinds == ["WeightMonotonicityViolation"]


def test_weight_monotonicity_compares_values_not_forms():
    equal = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("e", 1, 1), Cell("f", 2, F(2, 2), ["e"])], "pt"
    )
    assert equal.validate() == []
    heavier = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("e", 1, F(1, 2)), Cell("f", 2, F(1, 3), ["e"])], "pt"
    )
    assert [str(v) for v in heavier.validate()] == [
        "WeightMonotonicityViolation[f]: boundary cell e has weight 1/2 > 1/3"
    ]


def test_ranks_index_the_spectrum():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("q", 0, NEG_INF), Cell("a", 1, F(3, 2)),
         Cell("b", 1, F(-1, 3)), Cell("c", 1, 1), Cell("d", 2, F(6, 4))],
        "pt",
    )
    assert x.spectrum() == [F(-1, 3), 1, F(3, 2)]
    assert x.ranks() == {"pt": -1, "q": -1, "a": 2, "b": 0, "c": 1, "d": 2}


def test_extra_eternal_zero_cells_are_legal():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("q", 0, NEG_INF)],
        "pt",
    )
    assert x.validate() == []


def test_missing_boundary_reference_detected():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("e", 1, 1, ["ghost"])],
        "pt",
    )
    kinds = [v.kind for v in x.validate()]
    assert "MissingBoundaryCell" in kinds
    # a view is built only from a valid complex
    for view in (lambda: x.sublevel(1), x.suspend, lambda: x.rename({"e": "f"})):
        with pytest.raises(ValidationError) as info:
            view()
        assert [str(v) for v in info.value.violations] == ["MissingBoundaryCell[e]: references unknown cell ghost"]


def test_boundary_square_violation_detected():
    # f's boundary is a single edge whose own boundary is a single vertex
    x = FilteredComplex(
        [
            Cell("pt", 0, NEG_INF),
            Cell("v", 0, 1),
            Cell("e", 1, 1, ["v"]),
            Cell("f", 2, 1, ["e"]),
        ],
        "pt",
    )
    kinds = [v.kind for v in x.validate()]
    assert "BoundarySquareViolation" in kinds


def test_bad_basepoint_detected():
    x = FilteredComplex([Cell("pt", 0, F(1))], "pt")
    assert [v.kind for v in x.validate()] == ["BadBasepoint"]
    y = FilteredComplex([Cell("pt", 0, NEG_INF)], "elsewhere")
    assert [v.kind for v in y.validate()] == ["MissingBasepoint"]


def test_bad_cell_id_detected():
    x = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("bad id", 0, 1)], "pt")
    assert "BadCellId" in [v.kind for v in x.validate()]


def test_dimension_mismatch_detected():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("v", 0, 1), Cell("f", 2, 1, ["v"])],
        "pt",
    )
    assert "BoundaryDimensionViolation" in [v.kind for v in x.validate()]


def open_path_under_a_face(edges: int) -> FilteredComplex:
    """A 2-cell bounded by a path of edges from v0 to v<edges>: ∂∂ hits both ends."""
    cells = [Cell("pt", 0, NEG_INF), *(Cell(f"v{i}", 0, 1) for i in range(edges + 1))]
    cells += [Cell(f"e{i}", 1, 1, [f"v{i}", f"v{i + 1}"]) for i in range(edges)]
    cells.append(Cell("f", 2, 1, [f"e{i}" for i in range(edges)]))
    return FilteredComplex(cells, "pt")


def test_boundary_square_check_scales_linearly():
    def best_time(edges):
        x = open_path_under_a_face(edges)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            violations = x.validate()
            times.append(time.perf_counter() - start)
            assert [str(v) for v in violations] == [
                f"BoundarySquareViolation[f]: boundary of boundary hits ['v0', 'v{edges}']"
            ]
        return min(times)

    # ten times the boundary: a linear check takes about 10x, a quadratic one about 100x
    assert best_time(20000) < 30 * best_time(2000)


def alternating_pairs(pairs):
    """The basepoint, then per k an empty (2k+1)-cell and a (2k+2)-cell bounded
    by it: valid, with a dimension of its own for every other cell."""
    cells = [Cell("pt", 0, NEG_INF)]
    for k in range(pairs):
        cells += [Cell(f"a{k}", 2 * k + 1, 1), Cell(f"b{k}", 2 * k + 2, 1, [f"a{k}"])]
    return FilteredComplex(cells, "pt")


def test_validate_scales_linearly_in_the_number_of_dimensions():
    def best_time(cells):
        x = alternating_pairs(cells // 2)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert x.validate() == []
            times.append(time.perf_counter() - start)
        return min(times)

    # ten times the cells, and the dimensions: a linear check takes about 10x, a quadratic one about 100x
    assert best_time(20000) < 30 * best_time(2000)


def test_duplicate_ids_rejected_at_construction():
    with pytest.raises(ValidationError):
        FilteredComplex([Cell("pt", 0, NEG_INF), Cell("pt", 0, 1)], "pt")


# -- sublevel / spectrum ----------------------------------------------------------


def test_sublevel_of_torus_between_spectral_points():
    t = torus(1, 2, 4)
    assert t.sublevel(F(3, 2)).ids() == ("pt", "a")


def test_sublevel_at_minus_infinity_is_eternal_part():
    t = torus(1, 2, 4)
    assert t.sublevel(NEG_INF).ids() == ("pt",)


def test_sublevel_above_spectrum_is_whole_complex():
    t = torus(1, 2, 4)
    assert t.sublevel(4) == t
    assert t.sublevel(100) == t


def test_sublevel_monotone_in_level():
    rng = random.Random(7)
    for _ in range(25):
        x = random_complex(rng)
        levels = [NEG_INF] + x.spectrum()
        for lo, hi in zip(levels, levels[1:]):
            assert set(x.sublevel(lo).ids()) <= set(x.sublevel(hi).ids())


def test_spectrum_examples():
    assert torus(1, 2, 4).spectrum() == [1, 2, 4]
    assert point().spectrum() == []
    assert sphere(2, F(1, 2)).spectrum() == [F(1, 2)]
    eternal = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF)], "pt")
    assert eternal.spectrum() == []


# -- shift / cutoff ----------------------------------------------------------------


def test_shift_moves_sphere_level():
    assert sphere(2, 0).shift(F(5, 2)) == sphere(2, F(5, 2))


def test_shift_zero_and_inverse():
    t = torus(1, 2, 4)
    assert t.shift(0) == t
    assert t.shift(F(3, 7)).shift(F(-3, 7)) == t


def test_shift_keeps_eternal_cells():
    x = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF)], "pt")
    assert x.shift(10) == x


def test_cutoff_of_trivially_filtered_sphere():
    assert sphere(2, NEG_INF).cutoff(0) == sphere(2, 0)


def test_cutoff_below_minimum_is_identity():
    t = torus(1, 2, 4)
    assert t.cutoff(1) == t
    assert t.cutoff(0) == t


def test_cutoff_raises_weights_pointwise():
    t = torus(1, 2, 4).cutoff(3)
    assert [c.weight for c in t.cells if c.id != "pt"] == [3, 3, 4]


def test_cutoff_exempts_basepoint():
    assert point().cutoff(5) == point()


def _per_cell(x, weight_of, keep=lambda c: True):
    """x rebuilt from its Cell records, each weight mapped by weight_of."""
    return FilteredComplex([Cell(c.id, c.dim, weight_of(c), c.boundary) for c in x.cells if keep(c)], x.basepoint)


def test_reweighting_and_sublevels_match_their_per_cell_definitions():
    rng = random.Random(23)
    eternal_cells = 0
    for _ in range(40):
        x = random_complex(rng, eternal_prob=0.3)
        bp = x.basepoint
        eternal_cells += sum(c.eternal and c.id != bp for c in x.cells)
        points = x.spectrum()
        # below, on, between and above the spectral points
        floors = [F(-5), *points, *((a + b) / 2 for a, b in zip(points, points[1:])), F(10)]
        for a in (F(0), F(3, 7), F(-5, 2)):
            shifted = _per_cell(x, lambda c: c.weight if c.eternal else c.weight + a)
            got = x.shift(a)
            assert got == shifted and hash(got) == hash(shifted)
            assert got.ranks() == x.ranks()
        for f in floors:
            raised = _per_cell(x, lambda c: c.weight if c.id == bp or (not c.eternal and c.weight >= f) else f)
            got = x.cutoff(f)
            assert got == raised and hash(got) == hash(raised)
        for level in [NEG_INF, *floors]:
            below = _per_cell(x, lambda c: c.weight, keep=lambda c: c.weight <= level or c.id == bp)
            got = x.sublevel(level)
            assert got == below and hash(got) == hash(below)
            assert x.euler_char_sublevel(level) == sum((-1) ** c.dim for c in x.cells if c.weight <= level)
    assert eternal_cells > 0


def test_views_derive_their_result_without_rebuilding_it(monkeypatch):
    # sublevel, suspend, shift and cutoff keep their operand's cell order, so
    # each takes its result from the operand's tuples and never runs _fill; the
    # basepoint, renamed, sorts after the other 0-cells, so suspend must move it
    x = parse_complex(grid_document(6, random.Random(37))).rename({"pt": "z"})
    bp, points = x.basepoint, x.spectrum()
    floor = points[len(points) // 2]
    sublevels = [(r, reference_sublevel(x, r)) for r in (NEG_INF, *points, points[-1] + 1)]
    once = reference_suspend(x)
    twice = reference_suspend(once)
    shifted = _per_cell(x, lambda c: c.weight if c.eternal else c.weight + F(3, 7))
    raised = _per_cell(x, lambda c: c.weight if c.id == bp or (not c.eternal and c.weight >= floor) else floor)

    def rebuilt(*args):
        raise AssertionError("a view rebuilt its result")

    monkeypatch.setattr(FilteredComplex, "_fill", rebuilt)
    for level, reference in sublevels:
        assert x.sublevel(level) == reference
    assert x.suspend() == once
    assert x.suspend().suspend() == twice
    assert x.shift(F(3, 7)) == shifted
    assert x.cutoff(floor) == raised


def test_reweighting_keeps_a_complex_valid():
    rng = random.Random(29)
    eternal_cells = 0
    for _ in range(40):
        x = random_complex(rng, eternal_prob=0.3)
        eternal_cells += sum(c.eternal and c.id != x.basepoint for c in x.cells)
        points = x.spectrum()
        # below, on, between and above the spectral points
        floors = [F(-5), *points, *((a + b) / 2 for a, b in zip(points, points[1:])), F(10)]
        results = [x.shift(a) for a in (F(0), F(3, 7), F(-5, 2))] + [x.cutoff(f) for f in floors]
        for result in results:
            # validate() itself, not require_valid(): the carried-over flag is what is on trial
            assert FilteredComplex.validate(result) == []
    assert eternal_cells > 0


def test_views_and_constructions_keep_a_complex_valid():
    rng = random.Random(31)
    collisions = 0
    for _ in range(30):
        # ids with the separators of pair ids, so the product's collision guard runs too
        x = random_complex(rng, max_cells=8, eternal_prob=0.3).rename({"c1": "c2*r.c3"})
        y = random_complex(rng, max_cells=8, eternal_prob=0.3).rename({"c3": "c3*r.c1"})
        results = [x.sublevel(r) for r in (NEG_INF, *x.spectrum(), F(10))]
        results += [x.suspend(), x.suspend().suspend(), wedge(x, y), wedge(x.suspend(), y.sublevel(F(1)))]
        results += [build(x, y, filtered) for build in (product, smash) for filtered in (False, True)]
        collisions += any(cell_id.endswith("*2") for cell_id in results[-1].ids())
        for result in results:
            assert result._valid  # built marked valid, so require_valid() skips the check
            # validate() itself, not require_valid(): the flag set by construction is what is on trial
            assert FilteredComplex.validate(result) == []
    assert collisions > 0


def test_constructions_match_the_reference_built_from_cell_records():
    # the reference reads only x.cells, so every boundary is checked cell by cell
    rng = random.Random(26)
    collisions = 0
    for _ in range(40):
        # ids with the separators of pair ids, so the collision guard runs too
        x = random_complex(rng, max_cells=8, eternal_prob=0.3).rename({"c1": "c2*r.c3"})
        y = random_complex(rng, max_cells=8, eternal_prob=0.3).rename({"c3": "c3*r.c1"})
        cases = [(wedge(x, y), reference_wedge(x, y)), (x.suspend(), reference_suspend(x))]
        cases += [(x.sublevel(r), reference_sublevel(x, r)) for r in (NEG_INF, *x.spectrum())]
        for build, reference in ((product, reference_product), (smash, reference_smash)):
            cases += [(build(x, y, filtered), reference(x, y, filtered)) for filtered in (False, True)]
        collisions += any(cell_id.endswith("*2") for cell_id in cases[-1][1].ids())
        for got, expected in cases:
            assert got == expected
            assert serialize_complex(got) == serialize_complex(expected)
    assert collisions > 0


# -- wedge -------------------------------------------------------------------------


def test_wedge_with_point_is_renaming():
    t = torus(1, 2, 4)
    relabeled = t.rename({i: f"l.{i}" for i in t.ids() if i != "pt"})
    assert wedge(t, point()) == relabeled


def test_wedge_of_spheres_cells():
    w = wedge(sphere(1, F(1)), sphere(1, F(2)))
    assert w.validate() == []
    assert w.ids() == ("pt", "l.c1", "r.c1")
    assert [c.weight for c in w.cells] == [NEG_INF, 1, 2]


def test_wedge_additivity_of_euler_polynomial():
    rng = random.Random(11)
    for _ in range(30):
        x, y = random_complex(rng), random_complex(rng)
        assert euler_polynomial(wedge(x, y)) == euler_polynomial(x) + euler_polynomial(y)


def test_wedge_remaps_basepoint_boundaries():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("v", 0, 1), Cell("e", 1, 1, ["pt", "v"])],
        "pt",
    )
    w = wedge(x, x)
    assert w.validate() == []
    assert w.cell("l.e").boundary == frozenset({"pt", "l.v"})
    assert w.cell("r.e").boundary == frozenset({"pt", "r.v"})


# -- product -----------------------------------------------------------------------


def test_product_with_point_is_renaming():
    t = torus(1, 2, 4)
    relabeled = t.rename({i: f"l.{i}*r.pt" for i in t.ids()})
    assert product(t, point()) == relabeled


def test_product_weight_rules_cell_by_cell():
    rng = random.Random(13)
    for _ in range(20):
        x, y = random_complex(rng, max_cells=6), random_complex(rng, max_cells=6)
        for filtered in (False, True):
            p = product(x, y, filtered=filtered)
            assert p.validate() == []
            for a in x.cells:
                for b in y.cells:
                    got = p.cell(f"l.{a.id}*r.{b.id}")
                    assert got.dim == a.dim + b.dim
                    if filtered:
                        if a.eternal or b.eternal:
                            assert got.weight is NEG_INF
                        else:
                            assert got.weight == a.weight + b.weight
                    else:
                        if a.eternal:
                            assert got.weight == b.weight
                        elif b.eternal:
                            assert got.weight == a.weight
                        else:
                            assert got.weight == max(a.weight, b.weight)


def test_naive_product_is_levelwise():
    # the naive product is defined level by level: taking sublevels commutes with it
    rng = random.Random(83)
    for _ in range(15):
        x, y = random_complex(rng, max_cells=6), random_complex(rng, max_cells=6)
        p = product(x, y)
        for level in [NEG_INF] + p.spectrum():
            assert p.sublevel(level) == product(x.sublevel(level), y.sublevel(level))


def test_cell_id_must_be_a_string():
    with pytest.raises(TypeError, match="cell id must be a str, got 5"):
        Cell(5, 0, F(1))
    with pytest.raises(TypeError, match="cell id must be a str, got 5"):
        sphere(1, 1).rename({"c1": 5})
    with pytest.raises(TypeError, match="cell id must be a str, got None"):
        sphere(1, 1).rename({"pt": None})
    with pytest.raises(TypeError, match="cell id must be a str, got 5"):
        point(5)
    with pytest.raises(TypeError, match="cell id must be a str, got 5"):
        FilteredComplex([Cell("pt", 0, NEG_INF)], 5)
    with pytest.raises(TypeError, match="cell id must be a str, got 1"):
        Cell("e", 1, F(1), [1, "zz"])
    # a string is not read as one id a character
    with pytest.raises(TypeError, match="cell boundary must be a collection of cell ids, got 'v1'"):
        Cell("e", 1, F(1), "v1")
    # nor a mapping as its keys: a document would reduce {"v": 2} mod 2 to no id
    with pytest.raises(TypeError, match=r"cell boundary must be a collection of cell ids, got \{'v': 2\}"):
        Cell("e", 1, F(1), {"v": 2})


def test_cell_dimension_must_be_an_integer():
    with pytest.raises(TypeError):
        Cell("c", 1.5, F(1))
    with pytest.raises(TypeError):
        Cell("c", True, F(1))
    with pytest.raises(TypeError):
        sphere(1.5, 1)
    with pytest.raises(TypeError):
        sphere(True, 1)


def test_filtered_product_contains_eternal_wedge_copy():
    p = product(sphere(1, 1), sphere(2, 2), filtered=True)
    assert p.cell("l.c1*r.pt").weight is NEG_INF
    assert p.cell("l.pt*r.c1").weight is NEG_INF


def test_product_multiplicativity_of_euler_polynomial():
    rng = random.Random(17)
    for _ in range(25):
        x, y = random_complex(rng, max_cells=8), random_complex(rng, max_cells=8)
        assert euler_polynomial(product(x, y, filtered=True)) == euler_polynomial(x) * euler_polynomial(y)


# -- smash -------------------------------------------------------------------------


def test_smash_of_spheres_is_a_sphere():
    got = smash(sphere(1, F(1, 2)), sphere(2, F(3)), filtered=True)
    expected = sphere(3, F(7, 2)).rename({"c1": "l.c1*r.c1"})
    assert got == expected


def test_smash_multiplicativity_of_euler_polynomial():
    rng = random.Random(19)
    for _ in range(25):
        x, y = random_complex(rng, max_cells=8), random_complex(rng, max_cells=8)
        sm = smash(x, y, filtered=True)
        assert sm.validate() == []
        assert euler_polynomial(sm) == euler_polynomial(x) * euler_polynomial(y)


def test_smash_distributes_over_wedge_up_to_renaming():
    rng = random.Random(23)
    for _ in range(10):
        a = random_complex(rng, max_cells=5)
        x = random_complex(rng, max_cells=5)
        y = random_complex(rng, max_cells=5)
        lhs = smash(a, wedge(x, y), filtered=True)
        rhs = wedge(smash(a, x, filtered=True), smash(a, y, filtered=True))
        mapping = {}
        for ac in a.cells:
            if ac.id == a.basepoint:
                continue
            for side, operand in (("l", x), ("r", y)):
                for oc in operand.cells:
                    if oc.id == operand.basepoint:
                        continue
                    mapping[f"l.{ac.id}*r.{side}.{oc.id}"] = f"{side}.l.{ac.id}*r.{oc.id}"
        assert lhs.rename(mapping) == rhs


def test_smash_commutes_with_shift():
    rng = random.Random(29)
    for _ in range(10):
        x, y = random_complex(rng, max_cells=6), random_complex(rng, max_cells=6)
        a = F(5, 3)
        assert smash(x.shift(a), y, filtered=True) == smash(x, y, filtered=True).shift(a)


# -- suspension ----------------------------------------------------------------------


def test_suspend_sphere():
    assert sphere(2, 1).suspend() == sphere(3, 1)


def test_suspend_point():
    assert point().suspend() == point()


def test_suspend_negates_euler_polynomial():
    rng = random.Random(31)
    for _ in range(20):
        x = random_complex(rng)
        assert euler_polynomial(x.suspend()) == -euler_polynomial(x)


def test_suspend_agrees_with_smashing_a_circle():
    rng = random.Random(37)
    for _ in range(15):
        x = random_complex(rng, max_cells=8)
        via_smash = smash(sphere(1, 0), x, filtered=True)
        mapping = {i: f"l.c1*r.{i}" for i in x.ids() if i != "pt"}
        assert x.suspend().rename(mapping) == via_smash


# -- sphere / euler characteristic ------------------------------------------------------


def test_sphere_models():
    s = sphere(2, 1)
    assert s.validate() == []
    assert [(c.dim, c.weight) for c in s.cells] == [(0, NEG_INF), (2, 1)]
    s0 = sphere(0, 0)
    assert (s0.cell("c1").dim, s0.cell("c1").weight) == (0, 0)
    assert s0.cell("pt").eternal
    eternal = sphere(3, NEG_INF)
    assert eternal.cell("c1").eternal


def test_sphere_rejects_negative_dimension():
    with pytest.raises(ValueError):
        sphere(-1, 0)


def test_euler_char_sublevel_examples():
    t = torus(1, 2, 4)
    assert t.euler_char_sublevel(4) == 0
    assert t.euler_char_sublevel(NEG_INF) == 1
    s = sphere(2, 1)
    assert s.euler_char_sublevel(F(1, 2)) == 1
    assert s.euler_char_sublevel(1) == 2


def test_euler_char_sublevel_matches_truncated_polynomial():
    rng = random.Random(41)
    for _ in range(25):
        x = random_complex(rng)
        base = x.euler_char_sublevel(NEG_INF)
        for r in [NEG_INF] + x.spectrum():
            delta = euler_polynomial(x).truncate(r).at_one()
            assert x.euler_char_sublevel(r) - base == delta


# -- closure under constructions ---------------------------------------------------------


def test_constructions_preserve_validity():
    rng = random.Random(43)
    for _ in range(15):
        x, y = random_complex(rng, max_cells=6), random_complex(rng, max_cells=6)
        results = [
            wedge(x, y),
            product(x, y),
            product(x, y, filtered=True),
            smash(x, y),
            smash(x, y, filtered=True),
            x.suspend(),
            x.shift(F(1, 3)),
            x.cutoff(F(1, 2)),
            x.sublevel(F(1)),
        ]
        for result in results:
            assert result.validate() == []


INVALID_OPERANDS = {
    "heavier-boundary": [Cell("pt", 0, NEG_INF), Cell("e", 1, 2), Cell("f", 2, 1, ["e"])],
    "nonzero-square": [Cell("pt", 0, NEG_INF), Cell("v", 0, 1), Cell("e", 1, 1, ["v"]), Cell("f", 2, 1, ["e"])],
}


@pytest.mark.parametrize("cells", INVALID_OPERANDS.values(), ids=INVALID_OPERANDS)
@pytest.mark.parametrize("construction", [wedge, product, smash])
def test_constructions_reject_an_invalid_operand(construction, cells):
    bad, good = FilteredComplex(cells, "pt"), sphere(1, 0)
    assert bad.validate()
    for operands in ((bad, good), (good, bad)):
        with pytest.raises(ValidationError) as info:
            construction(*operands)
        assert info.value.violations == bad.validate()


INVALID_COMPLEXES = {
    "unknown-boundary-id": [Cell("pt", 0, NEG_INF), Cell("e", 1, 1, ["ghost"])],
    **INVALID_OPERANDS,
    "missing-basepoint": [Cell("q", 0, NEG_INF), Cell("e", 1, 1)],
    "finite-basepoint": [Cell("pt", 0, 1), Cell("e", 1, 2)],
}
# every function that computes from a complex, beside barcode and the constructions
VIEWS = {
    "sublevel": lambda x: x.sublevel(1),
    "suspend": lambda x: x.suspend(),
    "rename": lambda x: x.rename({}),
    "shift": lambda x: x.shift(1),
    "cutoff": lambda x: x.cutoff(0),
    "euler_char_sublevel": lambda x: x.euler_char_sublevel(1),
    "size_polynomial": size_polynomial,
    "euler_polynomial": euler_polynomial,
    "euler_curve": euler_curve,
    "invariant_report": invariant_report,
    "weighted_euler_char": weighted_euler_char,
    "k_class": k_class,
    "matching_number-left": lambda x: matching_number(x, point()),
    "matching_number-right": lambda x: matching_number(point(), x),
    "canonical_linearization": canonical_linearization,
}


@pytest.mark.parametrize("cells", INVALID_COMPLEXES.values(), ids=INVALID_COMPLEXES)
@pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS)
def test_views_reject_an_invalid_complex(view, cells):
    x = FilteredComplex(cells, "pt")
    assert x.validate()
    with pytest.raises(ValidationError) as info:
        view(x)
    assert info.value.violations == x.validate()


@pytest.mark.parametrize("cells", INVALID_COMPLEXES.values(), ids=INVALID_COMPLEXES)
def test_accessors_read_an_invalid_complex(cells):
    x = FilteredComplex(cells, "pt")
    with pytest.raises(ValidationError) as info:
        x.require_valid()
    assert info.value.violations == x.validate() != []
    assert parse_document(serialize_complex(x)) == x
    assert x.ids() == tuple(c.id for c in x.cells) and len(x) == len(cells)
    assert all(x.cell(c.id) == c and c.id in x for c in cells)
    assert x.basepoint == "pt" and x.spectrum() == sorted({c.weight for c in cells} - {NEG_INF})
    assert list(x.ranks()) == list(x.ids())
    assert x == FilteredComplex(cells, "pt") and hash(x) == hash(FilteredComplex(cells, "pt"))
    assert repr(x) == f"FilteredComplex({len(cells)} cells, basepoint='pt')"


@pytest.mark.parametrize(
    "mapping, kind",
    [({"e": "b c"}, "BadCellId"), ({"e": ""}, "BadCellId"), ({"e": "pt"}, "DuplicateCellId")],
)
def test_rename_rejects_a_name_that_makes_an_invalid_complex(mapping, kind):
    x = sphere(1, 1).rename({"c1": "e"})
    with pytest.raises(ValidationError) as info:
        x.rename(mapping)
    assert [v.kind for v in info.value.violations] == [kind]


def test_two_sphere_two_peaks_fixture_is_valid():
    assert two_sphere_two_peaks().validate() == []


# -- the complex as a value: equality, hash and records -----------------------------

SQUARE_CELLS = [
    Cell("pt", 0, NEG_INF),
    Cell("v", 0, F(1, 2)),
    Cell("e", 1, 1, ["v", "pt"]),
    Cell("l", 1, 2, ["v", "pt"]),
    Cell("d", 2, 3, ["e", "l"]),
]


def _document(cells, basepoint="pt", weight=format_extended) -> str:
    records = [
        {"boundary": {ref: 1 for ref in c.boundary}, "id": c.id, "weight": weight(c.weight), "dim": c.dim}
        for c in cells
    ]
    return json.dumps({"cells": records, "basepoint": basepoint, "format": "fcw/1"})


def test_equal_complexes_from_every_construction_route_hash_equal():
    built = FilteredComplex(SQUARE_CELLS, "pt")
    shuffled = SQUARE_CELLS[::-1]
    as_ints = [Cell(c.id, c.dim, int(c.weight) if c.weight in (1, 2, 3) else c.weight, c.boundary) for c in shuffled]
    unreduced = [
        Cell(c.id, c.dim, c.weight if c.weight is NEG_INF else F(6 * c.weight.numerator, 6 * c.weight.denominator), c.boundary)
        for c in shuffled
    ]
    odd_forms = {"1/2": "0.50", "1": "2/2", "2": "+2", "3": "3.0"}
    routes = [
        FilteredComplex(shuffled, "pt"),
        FilteredComplex(iter(as_ints), "pt"),
        FilteredComplex(unreduced, "pt"),
        parse_document(_document(shuffled)),
        parse_document(_document(SQUARE_CELLS, weight=lambda w: odd_forms.get(format_extended(w), "-inf"))),
        parse_document(serialize_complex(built)),
    ]
    for other in routes:
        assert other == built and built == other
        assert hash(other) == hash(built)
        assert other.cells == built.cells
    # parsed operands build the same constructions as library-built ones
    parsed = parse_document(_document(shuffled))
    for op in (wedge, product, smash):
        assert op(parsed, built) == op(built, built)
        assert hash(op(parsed, built)) == hash(op(built, built))
    smashed = smash(built, built, filtered=True)
    assert parse_document(serialize_complex(smashed)) == smashed


@pytest.mark.parametrize(
    "position, changed",
    [
        (1, Cell("w", 0, F(1, 2))),
        (1, Cell("v", 1, F(1, 2))),
        (1, Cell("v", 0, F(1, 3))),
        (1, Cell("v", 0, NEG_INF)),
        (2, Cell("e", 1, 1, ["v"])),
        (2, Cell("e", 1, 1, ["v", "pt", "ghost"])),
        (4, Cell("d", 2, 3, ["e", "l", "v"])),
    ],
)
def test_complexes_differing_in_one_field_are_unequal(position, changed):
    cells = list(SQUARE_CELLS)
    cells[position] = changed
    x, y = FilteredComplex(SQUARE_CELLS, "pt"), FilteredComplex(cells, "pt")
    assert x != y and y != x
    assert x != FilteredComplex(SQUARE_CELLS, "v")
    assert (x == SQUARE_CELLS) is False  # a value that is not a complex


def test_cells_and_cell_return_records_equal_to_the_input():
    rng = random.Random(83)
    for _ in range(20):
        source = random_complex(rng, max_cells=10)
        cells = list(source.cells)
        rng.shuffle(cells)
        for x in (FilteredComplex(cells, "pt"), parse_document(serialize_complex(source))):
            assert x.cells == tuple(sorted(cells, key=lambda c: (c.dim, c.id)))
            assert x.cells is x.cells
            for c in cells:
                assert x.cell(c.id) == c and c.id in x
            assert x.ids() == tuple(c.id for c in x.cells)
            assert len(x) == len(cells)
        with pytest.raises(KeyError):
            x.cell("absent")


def test_every_violation_kind_is_reported_in_order():
    resolved = FilteredComplex(
        [
            Cell("pt", 1, F(1), ["v"]),
            Cell("bad id", -1, 2),
            Cell("v", 0, 3),
            Cell("w", 0, F(1, 2)),
            Cell("e", 1, 1, ["v", "w", "f"]),
            Cell("f", 2, 5, ["e", "pt", "w"]),
        ],
        "pt",
    )
    assert [str(v) for v in resolved.validate()] == [
        "BadCellId[bad id]: id must match [A-Za-z0-9_.*-]+",
        "NegativeDimension[bad id]: dim -1 < 0",
        "BadBasepoint[pt]: basepoint dim 1 != 0",
        "BadBasepoint[pt]: basepoint weight 1 is finite",
        "BadBasepoint[pt]: basepoint boundary not empty",
        "BoundaryDimensionViolation[e]: boundary cell f has dim 2, expected 0",
        "WeightMonotonicityViolation[e]: boundary cell f has weight 5 > 1",
        "WeightMonotonicityViolation[e]: boundary cell v has weight 3 > 1",
        "WeightMonotonicityViolation[pt]: boundary cell v has weight 3 > 1",
        "BoundaryDimensionViolation[f]: boundary cell w has dim 0, expected 1",
        "BoundarySquareViolation[e]: boundary of boundary hits ['e', 'pt', 'w']",
        "BoundarySquareViolation[f]: boundary of boundary hits ['f', 'w']",
    ]
    unresolved = FilteredComplex(
        [
            Cell("x y", -2, 1),
            Cell("a", 0, 1),
            Cell("b", 1, 0, ["zz", "a", "ghost"]),
            Cell("c", 2, NEG_INF, ["nowhere", "b", "a"]),
        ],
        "base",
    )
    assert [str(v) for v in unresolved.validate()] == [
        "BadCellId[x y]: id must match [A-Za-z0-9_.*-]+",
        "NegativeDimension[x y]: dim -2 < 0",
        "MissingBasepoint[base]: basepoint id not among cells",
        "WeightMonotonicityViolation[b]: boundary cell a has weight 1 > 0",
        "MissingBoundaryCell[b]: references unknown cell ghost",
        "MissingBoundaryCell[b]: references unknown cell zz",
        "BoundaryDimensionViolation[c]: boundary cell a has dim 0, expected 1",
        "WeightMonotonicityViolation[c]: boundary cell a has weight 1 > -inf",
        "WeightMonotonicityViolation[c]: boundary cell b has weight 0 > -inf",
        "MissingBoundaryCell[c]: references unknown cell nowhere",
    ]
