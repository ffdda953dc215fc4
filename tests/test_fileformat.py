"""The fcw/1 document format: exact parsing and canonical serialization."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from helpers import random_complex, torus

import random

from fcw import (
    NEG_INF,
    ParseError,
    ValidationError,
    parse_complex,
    parse_document,
    parse_weight,
    serialize_complex,
    sphere,
    wedge,
)

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
    assert parse_weight("3") == 3
    assert parse_weight("-7/2") == F(-7, 2)
    assert parse_weight("0.25") == F(1, 4)
    with pytest.raises(ParseError):
        parse_weight("inf")
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


def test_malformed_documents_raise_parse_error():
    good = (FIXTURES / "torus.fcw").read_text()
    for bad in (
        "not json at all",
        "[1, 2]",
        good.replace('"fcw/1"', '"fcw/2"'),
        good.replace('"basepoint": "pt"', '"basepoint": 3'),
        good.replace('"dim": 2', '"dim": "2"'),
        good.replace('"weight": "4"', '"weight": "oops"'),
        good.replace('"weight": "4"', '"weight": 4'),
    ):
        with pytest.raises(ParseError):
            parse_complex(bad)


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
