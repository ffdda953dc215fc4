"""The `fcw/1` JSON document format and its canonical serialization.

One complex per document.  Weights are strings (`-inf`, an integer, a
lowest-terms `p/q`, or a finite decimal) parsed exactly; boundary
coefficients are integers reduced mod 2 on load.  Serialization is
canonical -- cells sorted by (dim, id), keys sorted, weights in lowest
terms -- so identical complexes always produce identical bytes.
"""

from __future__ import annotations

import json

from .complexes import Cell, FilteredComplex
from .errors import ParseError, ValidationError
from .rationals import POS_INF, format_extended, parse_extended

FORMAT_TAG = "fcw/1"

_DOCUMENT_KEYS = {"format", "basepoint", "cells"}
_CELL_KEYS = {"id", "dim", "weight", "boundary"}


def parse_weight(text: str):
    """Parse a weight string; `inf` is rejected (weights live in {-inf} + Q)."""
    if not isinstance(text, str):
        raise ParseError(f"weight must be a string, got {type(text).__name__}")
    try:
        value = parse_extended(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if value is POS_INF:
        raise ParseError("weight `inf` is not allowed")
    return value


def load_json(text: str, what: str):
    """json.loads, with malformed and too deeply nested text as ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"invalid {what}: nested too deeply") from exc


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_cell(position: int, record, weights: dict) -> Cell:
    where = f"cell #{position}"
    if not isinstance(record, dict):
        raise ParseError(f"{where}: must be a JSON object")
    if set(record) != _CELL_KEYS:
        raise ParseError(f"{where}: keys must be exactly {sorted(_CELL_KEYS)}")
    if not isinstance(record["id"], str) or not record["id"]:
        raise ParseError(f"{where}: id must be a nonempty string")
    if not _plain_int(record["dim"]):
        raise ParseError(f"{where}: dim must be an integer")
    if not isinstance(record["boundary"], dict):
        raise ParseError(f"{where}: boundary must be an object")
    boundary = set()
    for ref, coeff in record["boundary"].items():
        if not _plain_int(coeff):
            raise ParseError(f"{where}: boundary coefficient for {ref!r} must be an integer")
        if coeff % 2:
            boundary.add(ref)
    text = record["weight"]
    try:
        if not isinstance(text, str):
            weight = parse_weight(text)  # the type check raises
        elif text in weights:
            weight = weights[text]
        else:
            weight = weights[text] = parse_weight(text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return Cell(record["id"], record["dim"], weight, frozenset(boundary))


def parse_document(text: str) -> FilteredComplex:
    """Structural parse only; the result may still fail validate()."""
    doc = load_json(text, "JSON")
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if set(doc) != _DOCUMENT_KEYS:
        raise ParseError(f"document keys must be exactly {sorted(_DOCUMENT_KEYS)}")
    if doc["format"] != FORMAT_TAG:
        raise ParseError(f"unsupported format tag {doc['format']!r} (expected {FORMAT_TAG!r})")
    if not isinstance(doc["basepoint"], str):
        raise ParseError("basepoint must be a string")
    if not isinstance(doc["cells"], list):
        raise ParseError("cells must be a list")
    weights = {}  # weight string -> parsed value: each distinct string is parsed once
    cells = [_parse_cell(k, record, weights) for k, record in enumerate(doc["cells"])]
    return FilteredComplex(cells, doc["basepoint"])


def parse_complex(text: str) -> FilteredComplex:
    """Parse and validate; raises ParseError or ValidationError."""
    built = parse_document(text)
    violations = built.validate()
    if violations:
        raise ValidationError(violations)
    return built


def serialize_complex(x: FilteredComplex) -> str:
    """Canonical document bytes; parse . serialize is the identity on these."""
    cells = [
        {
            "id": c.id,
            "dim": c.dim,
            "weight": format_extended(c.weight),
            "boundary": {ref: 1 for ref in sorted(c.boundary)},
        }
        for c in x.cells
    ]
    doc = {"format": FORMAT_TAG, "basepoint": x.basepoint, "cells": cells}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
