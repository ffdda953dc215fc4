"""Critical-point ingestion, attachment models, and linearization bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import random_linearizable_complex, torus, two_sphere_two_peaks

from fcw import (
    Cell,
    CriticalPoint,
    FilteredComplex,
    InvalidBoundaries,
    Linearization,
    MorseDatum,
    NEG_INF,
    NegativeWeight,
    ParseError,
    Polynomial,
    UnsupportedCell,
    barcode,
    bound_size_spheres,
    bound_size_wedges,
    canonical_linearization,
    euler_poly_rel,
    euler_polynomial,
    linearization_stats,
    morse_complex,
    parse_morse_datum,
    point,
    size_polynomial,
    sphere,
)
from fcw.cli import run

F = Fraction


def datum(*points) -> MorseDatum:
    return MorseDatum([(F(v), i) for v, i in points])


def test_single_peak_datum_builds_a_sphere():
    assert morse_complex(datum((0, 0), (1, 2))) == sphere(2, 1)


def test_two_peak_datum_with_boundaries_builds_the_paper_model():
    built = morse_complex(
        datum((0, 0), (F(1, 2), 1), (1, 2), (1, 2)),
        boundaries={"c2": ["c1"], "c3": ["c1"]},
    )
    assert built.validate() == []
    assert barcode(built) == barcode(two_sphere_two_peaks())
    assert euler_polynomial(built) == euler_polynomial(two_sphere_two_peaks())


def test_minimum_only_datum_is_a_point():
    assert morse_complex(datum((0, 0))) == point()


def test_lowest_minimum_becomes_the_basepoint():
    built = morse_complex(datum((2, 0), (0, 0), (1, 1)))
    weights = {c.id: c.weight for c in built.cells}
    assert weights["pt"] is NEG_INF
    # remaining cells: the index-1 point at 1 and the higher minimum at 2
    assert sorted(v for k, v in weights.items() if k != "pt") == [1, 2]


def test_datum_requires_a_minimum():
    with pytest.raises(ValueError):
        MorseDatum([(F(1), 2)])
    with pytest.raises(ValueError):
        MorseDatum([])


def test_datum_rejects_negative_values():
    with pytest.raises(ValueError):
        MorseDatum([(F(-1), 0)])


def test_invalid_boundaries_rejected():
    with pytest.raises(InvalidBoundaries):
        morse_complex(datum((0, 0), (1, 2)), boundaries={"c1": ["ghost"]})
    with pytest.raises(InvalidBoundaries):
        morse_complex(datum((0, 0), (1, 2)), boundaries={"nope": ["c1"]})


@pytest.mark.parametrize("boundaries", [["c1"], "x", 5])
def test_boundaries_that_are_not_a_mapping_are_a_parse_error(boundaries):
    with pytest.raises(ParseError, match=r"^boundaries must be a JSON object, got "):
        morse_complex(datum((0, 0), (1, 2)), boundaries)


@pytest.mark.parametrize(
    "boundaries, message",
    [
        ({5: [], "x": []}, "boundaries: cell id must be a string, got 5"),  # once a bare TypeError from sorted()
        ({None: []}, "boundaries: cell id must be a string, got None"),
        ({"c1": {5: 1, "x": 1}}, "boundary of cell c1 must be a list of cell ids or an object of integer coefficients"),
    ],
)
def test_a_cell_id_that_is_not_a_string_is_a_parse_error(boundaries, message):
    with pytest.raises(ParseError) as caught:
        morse_complex(datum((0, 0), (1, 2)), boundaries)
    assert str(caught.value) == message


def test_a_list_chain_that_names_an_id_twice_is_a_parse_error(tmp_path):
    # read as a set it would attach c2 along c1, where {"c1": 2} reduces to the zero chain
    points = datum((0, 0), (1, 1), (2, 2))
    assert barcode(morse_complex(points, {"c2": {"c1": 2}})) == barcode(morse_complex(points))
    with pytest.raises(ParseError, match=r"^boundary of cell c2 names c1 twice$"):
        morse_complex(points, {"c2": ["c1", "c1"]})
    heights, attach = tmp_path / "heights.morse", tmp_path / "attach.json"
    heights.write_text("0\t0\n1\t1\n2\t2\n")
    attach.write_text('{"c2": ["c1", "c1"]}')
    result = run(["morse-build", str(heights), "--boundaries", str(attach)])
    assert (result.exit_code, result.error) == (2, f"ParseError: {attach}: boundary of cell c2 names c1 twice")


def test_morse_index_must_be_an_integer():
    for index in (1.5, 2.0, True, F(1)):
        with pytest.raises(TypeError):
            CriticalPoint(F(1), index)
        with pytest.raises(TypeError):
            MorseDatum([(F(0), 0), (F(1), index)])
    with pytest.raises(ValueError, match="Morse index must be nonnegative, got -1"):
        CriticalPoint(F(1), -1)


def test_parse_morse_datum():
    text = "# height model\n0\t0\n1/2\t1\n\n1\t2  # first peak\n1\t2\n"
    parsed = parse_morse_datum(text)
    assert parsed == datum((0, 0), (F(1, 2), 1), (1, 2), (1, 2))


def test_parse_morse_datum_errors():
    with pytest.raises(ParseError):
        parse_morse_datum("0\t0\nbroken line here\n")
    with pytest.raises(ParseError):
        parse_morse_datum("1\t1\n")  # no minimum
    with pytest.raises(ParseError):
        parse_morse_datum("-1\t0\n")


@pytest.mark.parametrize("index", ["1_0", "\u0663", "+1", "-1", "1.0", "0x1", "\uff11"])
def test_morse_index_is_ascii_decimal_digits(tmp_path, index):
    text = f"0\t0\n1\t{index}\n"
    with pytest.raises(ParseError, match=r"^line 2: "):
        parse_morse_datum(text)
    path = tmp_path / "points.morse"
    path.write_text(text, encoding="utf-8")
    result = run(["morse-build", str(path)])
    assert result.exit_code == 2 and result.error.startswith(f"ParseError: {path}: line 2: ")


def test_sphere_bound_examples():
    assert bound_size_spheres(datum((0, 0), (1, 2))) == 1
    assert bound_size_spheres(datum((0, 0), (F(1, 2), 1), (1, 2), (1, 2))) == F(5, 2)
    assert bound_size_spheres(datum((0, 0))) == 0


def test_wedge_bound_examples():
    assert bound_size_wedges(datum((0, 0), (F(1, 2), 1), (1, 2), (1, 2))) == F(3, 2)
    assert bound_size_wedges(datum((0, 0), (1, 2))) == 1


def test_wedge_bound_never_exceeds_sphere_bound():
    rng = random.Random(131)
    for _ in range(40):
        points = [(F(0), 0)] + [
            (F(rng.randint(0, 8), rng.randint(1, 3)), rng.randint(0, 3))
            for _ in range(rng.randint(0, 8))
        ]
        d = MorseDatum(points)
        assert bound_size_wedges(d) <= bound_size_spheres(d)


def test_bounds_monotone_under_extra_critical_points():
    base = [(F(0), 0), (F(1), 2)]
    d = MorseDatum(base)
    extended = MorseDatum(base + [(F(1, 2), 1)])
    assert bound_size_spheres(extended) >= bound_size_spheres(d)
    assert bound_size_wedges(extended) >= bound_size_wedges(d)


def test_basepoint_value_still_counts_in_sphere_bound():
    d = datum((1, 0), (2, 2))
    assert bound_size_spheres(d) == 3
    built = morse_complex(d)
    assert size_polynomial(built).derivative().at_one() == 2  # |X| excludes the basepoint


def test_canonical_linearization_of_torus():
    lin = canonical_linearization(torus(1, 2, 4))
    assert lin.entries == ((0, F(1)), (0, F(2)), (1, F(4)))


def test_canonical_linearization_of_sphere_and_point():
    assert canonical_linearization(sphere(2, 1)).entries == ((1, F(1)),)
    assert canonical_linearization(point()).entries == ()


def test_canonical_linearization_skips_eternal_cells():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF), Cell("d", 2, 2, ["e"])],
        "pt",
    )
    assert canonical_linearization(x).entries == ((1, F(2)),)


def test_canonical_linearization_rejects_finite_zero_cells():
    with pytest.raises(UnsupportedCell):
        canonical_linearization(sphere(0, 0))


def test_canonical_linearization_rejects_negative_weights():
    with pytest.raises(NegativeWeight):
        canonical_linearization(sphere(1, -1))


def test_canonical_linearization_reports_the_lowest_bad_cell_first():
    x = FilteredComplex(
        [Cell("pt", 0, NEG_INF), Cell("v", 0, F(2)), Cell("e", 1, F(-1, 2)), Cell("g", 1, F(-1))],
        "pt",
    )
    with pytest.raises(NegativeWeight, match="cell g "):
        canonical_linearization(x)


def test_linearization_entries_are_sorted_and_nonnegative():
    lin = Linearization([(1, F(2)), (0, F(2)), (3, F(1, 2))])
    assert lin.entries == ((3, F(1, 2)), (0, F(2)), (1, F(2)))
    assert len(lin) == 3
    with pytest.raises(NegativeWeight):
        Linearization([(0, F(-1))])
    with pytest.raises(ValueError, match="sphere dimension must be nonnegative, got -1"):
        Linearization([(-1, F(1))])
    for k in (0.5, True, "a"):
        with pytest.raises(TypeError, match=f"sphere dimension must be an int, got {k!r}"):
            Linearization([(k, F(1))])


def test_linearization_stats_of_torus():
    stats = linearization_stats(canonical_linearization(torus(1, 2, 4)))
    assert stats.poly == Polynomial([(1, 1), (2, 1), (4, 1)])
    assert stats.count == 3
    assert stats.weight == 7


def test_linearization_stats_of_empty():
    stats = linearization_stats(Linearization([]))
    assert stats.poly == Polynomial.zero()
    assert stats.count == 0
    assert stats.weight == 0


def test_cone_count_matches_critical_points():
    d = datum((0, 0), (F(1, 2), 1), (1, 2), (1, 2))
    built = morse_complex(d)
    stats = linearization_stats(canonical_linearization(built))
    assert stats.count == len(d.points) - 1  # basepoint absorbed


def test_euler_poly_rel_examples():
    assert euler_poly_rel(canonical_linearization(torus(1, 2, 4))) == euler_polynomial(torus(1, 2, 4))
    assert euler_poly_rel(Linearization([(1, F(1))])) == Polynomial.monomial(1, 1)
    assert euler_poly_rel(Linearization([])) == Polynomial.zero()


def test_chi_and_weight_recovery_on_random_complexes():
    rng = random.Random(137)
    for _ in range(40):
        x = random_linearizable_complex(rng)
        lin = canonical_linearization(x)
        assert euler_poly_rel(lin) == euler_polynomial(x)
        assert euler_poly_rel(lin).derivative() == euler_polynomial(x).derivative()
        stats = linearization_stats(lin)
        assert stats.weight == size_polynomial(x).derivative().at_one()


def test_morse_bound_consistency():
    rng = random.Random(139)
    for _ in range(40):
        points = [(F(0), 0)] + [
            (F(rng.randint(0, 6), rng.randint(1, 2)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 7))
        ]
        d = MorseDatum(points)
        built = morse_complex(d)
        weighted_size = size_polynomial(built).derivative().at_one()
        assert weighted_size <= bound_size_spheres(d)
        # the basepoint's critical value is 0 here, so the bound is tight
        assert weighted_size == bound_size_spheres(d)


# -- the Morse layer against plain Fraction arithmetic -------------------------


def _datum_text(rng, lowest_index):
    """Seeded `value<TAB>index` lines: repeated lines, ties in value across
    indices, and 1/2 spelled `1/2`, `0.5` and `2/4`."""
    lines = ["0\t0"]
    for _ in range(300):
        value = rng.choice((F(1, 2), F(rng.randint(0, 12), rng.choice((1, 3, 4)))))
        text = rng.choice(("1/2", "0.5", "2/4") if value == F(1, 2) else (str(value),))
        lines += [f"{text}\t{rng.randint(lowest_index, 3)}"] * rng.choice((1, 1, 2, 3))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _scanned(x):
    """canonical_linearization's entries, or its error, by a scan of the cells in (weight, dim, id) order."""
    entries = []
    for c in sorted((c for c in x.cells if not c.eternal), key=lambda c: (c.weight, c.dim, c.id)):
        if c.weight < 0:
            return f"NegativeWeight: cell {c.id} has weight {c.weight} < 0"
        if c.dim == 0:
            return f"UnsupportedCell: finite-weight 0-cell {c.id} has no attaching sphere"
        entries.append((c.dim - 1, c.weight))
    return tuple(sorted(entries, key=lambda e: (e[1], e[0])))


def _linearized(x):
    try:
        return canonical_linearization(x).entries
    except (NegativeWeight, UnsupportedCell) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("lowest_index", [0, 1])
def test_morse_layer_agrees_with_plain_fraction_arithmetic(lowest_index):
    rng = random.Random(283 + lowest_index)
    d = parse_morse_datum(_datum_text(rng, lowest_index))
    # cells named c1, c2, ... in the order of a plain sort, the lowest minimum left out
    ordered = sorted(d.points, key=lambda p: (p.value, p.index))
    ordered.remove(next(p for p in ordered if p.index == 0))
    built = morse_complex(d)
    want = {f"c{k}": (p.index, p.value) for k, p in enumerate(ordered, 1)}
    assert {c.id: (c.dim, c.weight) for c in built.cells if c.id != "pt"} == want
    values = [p.value for p in d.points]
    assert bound_size_spheres(d) == sum(values, F(0))
    assert bound_size_wedges(d) == sum(set(values), F(0))
    complexes = [built, built.shift(F(-1, 1000)), built.shift(F(-3, 2))]
    results = list(map(_linearized, complexes))
    assert results == list(map(_scanned, complexes))
    assert isinstance(results[0], tuple) == (lowest_index == 1)
    assert all(result.startswith("NegativeWeight") for result in results[1:])
