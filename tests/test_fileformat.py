"""The fcw/1 document format: exact parsing and canonical serialization."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import random

import pytest
from helpers import grid_document, random_complex, reference_serialize, torus

from fcw import (
    Cell,
    FilteredComplex,
    NEG_INF,
    POS_INF,
    ParseError,
    Polynomial,
    ValidationError,
    WeightTooLong,
    barcode,
    format_extended,
    parse_complex,
    parse_document,
    parse_weight,
    product,
    serialize_complex,
    smash,
    sphere,
    wedge,
)
from fcw.cli import run

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def test_torus_fixture_parses_to_the_model():
    assert parse_complex((FIXTURES / "torus.fcw").read_text()) == torus(1, 2, 4)


def test_round_trip_is_idempotent():
    text = (FIXTURES / "s2hprime.fcw").read_text()
    once = serialize_complex(parse_complex(text))
    twice = serialize_complex(parse_complex(once))
    assert once == twice == text


def test_round_trip_on_random_complexes():
    rng = random.Random(281)
    for _ in range(25):
        x = random_complex(rng)
        assert parse_complex(serialize_complex(x)) == x


def test_documents_written_by_every_construction_parse_back_equal():
    rng = random.Random(283)
    weights = [F(-3, 2), F(0), F(1, 3), F(5, 7), F(2)]
    for _ in range(25):
        x, y = random_complex(rng, max_cells=6), random_complex(rng, max_cells=6)
        written = [
            wedge(x, y),
            product(x, y),
            product(x, y, filtered=True),
            smash(x, y),
            smash(x, y, filtered=True),
            x.suspend(),
            x.shift(rng.choice(weights)),
            x.cutoff(rng.choice(weights)),
        ]
        for z in written:
            assert parse_complex(serialize_complex(z)) == z


def test_a_weight_longer_than_a_document_holds_is_not_written():
    at_bound = sphere(1, 10**999)  # "1" and 999 zeros: the longest weight that parses
    assert parse_complex(serialize_complex(at_bound)) == at_bound
    with pytest.raises(WeightTooLong, match=r"^cell c1: weight of 1001 characters, longer than the 1000"):
        serialize_complex(sphere(1, 10**1000))


def test_format_extended_prints_any_length_exactly():
    assert [format_extended(v) for v in (NEG_INF, POS_INF, 0, -3, F(-7, 2))] == ["-inf", "inf", "0", "-3", "-7/2"]
    # past the 4300 digits str() converts
    assert format_extended(F(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
    assert Polynomial.monomial(10**5000, F(1, 2)).render() == "1" + "0" * 5000 + "*t^1/2"


def test_serialized_sphere_golden_bytes():
    expected = (
        "{\n"
        '  "basepoint": "pt",\n'
        '  "cells": [\n'
        "    {\n"
        '      "boundary": {},\n'
        '      "dim": 0,\n'
        '      "id": "pt",\n'
        '      "weight": "-inf"\n'
        "    },\n"
        "    {\n"
        '      "boundary": {},\n'
        '      "dim": 2,\n'
        '      "id": "c1",\n'
        '      "weight": "1"\n'
        "    }\n"
        "  ],\n"
        '  "format": "fcw/1"\n'
        "}\n"
    )
    assert serialize_complex(sphere(2, 1)) == expected


def test_wedge_serialization_uses_side_prefixes():
    text = serialize_complex(wedge(sphere(1, 1), sphere(2, 2)))
    assert '"id": "l.c1"' in text
    assert '"id": "r.c1"' in text


def test_decimal_weights_parse_exactly():
    doc = serialize_complex(sphere(1, F(1, 2))).replace('"1/2"', '"0.5"')
    assert parse_complex(doc) == sphere(1, F(1, 2))


def test_weight_strings():
    assert parse_weight("-inf") is NEG_INF
    assert parse_weight(" -inf ") is NEG_INF
    assert parse_weight("3") == 3
    assert parse_weight("-7/2") == F(-7, 2)
    assert parse_weight("0.25") == F(1, 4)
    for text in ("inf", " inf "):
        with pytest.raises(ParseError, match="^weight `inf` is not allowed$"):
            parse_weight(text)
    with pytest.raises(ParseError, match=r"^not an exact rational: '\+inf'$"):
        parse_weight("+inf")
    with pytest.raises(ParseError):
        parse_weight("wat")
    with pytest.raises(ParseError):
        parse_weight("1/0")


@pytest.mark.parametrize(
    "text",
    ["1e5000", "1E2", "1_0", "inf/2", "1 / 2", "0x10", "\u0663", pytest.param("1" * 1001, id="1001-digits")],
)
def test_weights_outside_the_documented_grammar_are_rejected(text):
    with pytest.raises(ParseError):
        parse_weight(text)


def test_documented_weight_forms_parse():
    assert parse_weight("+3") == 3
    assert parse_weight("-0.5") == F(-1, 2)
    assert parse_weight(".5") == F(1, 2)
    assert parse_weight("5.") == 5
    assert parse_weight("10/4") == F(5, 2)
    assert parse_weight("1" * 1000) == int("1" * 1000)


def test_even_boundary_coefficients_drop_out():
    doc = (FIXTURES / "s2hprime.fcw").read_text().replace('"m": 1', '"m": 2')
    parsed = parse_complex(doc)
    assert parsed.cell("n1").boundary == frozenset()


def test_odd_boundary_coefficients_survive():
    doc = (FIXTURES / "s2hprime.fcw").read_text().replace('"m": 1', '"m": -3')
    parsed = parse_complex(doc)
    assert parsed.cell("n1").boundary == frozenset({"m"})


def test_malformed_documents_raise_parse_error(tmp_path):
    good = (FIXTURES / "torus.fcw").read_text()
    huge = "9" * 5000  # longer than the 4300 digits json.loads will convert to an int
    for bad in (
        "not json at all",
        "[1, 2]",
        good.replace('"fcw/1"', '"fcw/2"'),
        good.replace('"basepoint": "pt"', '"basepoint": 3'),
        '{"basepoint": "pt", "cells": {}, "format": "fcw/1"}',
        '{"basepoint": "pt", "cells": [1], "format": "fcw/1"}',
        good.replace('"dim": 2', '"degree": 2'),
        good.replace('"dim": 2', '"dim": "2"'),
        good.replace('"weight": "4"', '"weight": "oops"'),
        good.replace('"weight": "4"', '"weight": 4'),
        good.replace('"dim": 2', f'"dim": {huge}'),
        (FIXTURES / "s2hprime.fcw").read_text().replace('"m": 1', f'"m": {huge}', 1),
    ):
        with pytest.raises(ParseError):
            parse_complex(bad)
    listed = good.replace('"boundary": {},\n      "dim": 2', '"boundary": ["a"],\n      "dim": 2')
    with pytest.raises(ParseError, match="^cell #3: boundary must be an object$"):
        parse_complex(listed)
    path = tmp_path / "listed.fcw"
    path.write_text(listed)
    result = run(["validate", str(path)])
    assert (result.exit_code, result.error) == (2, f"ParseError: {path}: cell #3: boundary must be an object")


def test_unknown_keys_rejected():
    good = (FIXTURES / "torus.fcw").read_text()
    with pytest.raises(ParseError):
        parse_complex(good.replace('"format"', '"fmt"'))


def test_validation_failure_raises_with_cell_ids():
    doc = (FIXTURES / "s2hprime.fcw").read_text().replace('"m": 1', '"ghost": 1', 1)
    with pytest.raises(ValidationError) as err:
        parse_complex(doc)
    assert "ghost" in str(err.value)
    # the structural parse alone accepts it
    assert parse_document(doc).validate() != []


# -- each distinct weight string is parsed once per document ------------------


@pytest.mark.parametrize("weight", ["[]", "{}", "1", "null"])
def test_non_string_weights_are_parse_errors_naming_the_cell(tmp_path, weight):
    doc = (FIXTURES / "torus.fcw").read_text().replace('"weight": "4"', f'"weight": {weight}')
    with pytest.raises(ParseError, match=r"cell #3: weight must be a string"):
        parse_document(doc)
    path = tmp_path / "bad.fcw"
    path.write_text(doc)
    result = run(["euler", str(path)])
    assert result.exit_code == 2
    assert result.error.startswith(f"ParseError: {path}: cell #3:")


def test_cells_sharing_a_weight_string_get_equal_weights():
    doc = (FIXTURES / "torus.fcw").read_text().replace('"weight": "2"', '"weight": "1"')
    x = parse_complex(doc)
    assert x.cell("a").weight == x.cell("b").weight == 1
    assert x.ranks()["a"] == x.ranks()["b"]


def test_unreduced_and_reduced_weight_strings_parse_equal():
    doc = (FIXTURES / "torus.fcw").read_text()
    doc = doc.replace('"weight": "1"', '"weight": "2/4"').replace('"weight": "2"', '"weight": "1/2"')
    x = parse_complex(doc)
    assert x.cell("a").weight == x.cell("b").weight == F(1, 2)
    assert x.spectrum() == [F(1, 2), 4]


def test_cells_are_sorted_once():
    x = parse_complex((FIXTURES / "torus.fcw").read_text())
    assert x.cells is x.cells
    assert [c.id for c in x.cells] == ["pt", "a", "b", "f"]


# -- serialize_complex against json.dumps --------------------------------------------


def test_serialization_matches_the_json_dumps_oracle():
    rng = random.Random(97)
    complexes = [random_complex(rng, max_cells=14) for _ in range(40)]
    awkward = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\there\nnl", "é", "日本", "😀", "\ud800"]
    complexes.append(
        FilteredComplex(
            [Cell("pt", 0, NEG_INF, awkward[:2])]
            + [Cell(name, k % 3, F(k, 3), awkward[:k] + ["ghost", "pt"]) for k, name in enumerate(awkward)],
            "pt",
        )
    )
    complexes.append(FilteredComplex([], "pt"))
    complexes.append(FilteredComplex([Cell("pt", 0, NEG_INF), Cell("a", 1, 2), Cell("b", 0, F(-7, 2))], "nowhere"))
    x, y = parse_complex((FIXTURES / "s2h.fcw").read_text()), torus(1, 2, 4)
    complexes += [smash(x, y, filtered=True), smash(y, y), wedge(x, y)]
    for x in complexes:
        assert serialize_complex(x) == reference_serialize(x)
        assert parse_document(serialize_complex(x)) == x


def test_parse_validate_barcode_builds_no_cell_records(monkeypatch):
    doc = grid_document(12, random.Random(5))
    want = barcode(parse_complex(doc))

    def refuse(*args, **kwargs):
        raise AssertionError("a Cell record was built")

    monkeypatch.setattr(Cell, "__init__", refuse)
    x = parse_document(doc)
    assert x.validate() == []
    assert barcode(x) == want
    with pytest.raises(AssertionError):
        x.cells
