"""The `fcw/1` JSON document format and its canonical serialization.

One complex per document.  Weights are strings (`-inf`, an integer, a
lowest-terms `p/q`, or a finite decimal) parsed exactly; boundary
coefficients are integers reduced mod 2 on load.  Serialization is
canonical -- cells sorted by (dim, id), keys sorted, weights in lowest
terms -- so identical complexes always produce identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from ._record import instance
from .complexes import FilteredComplex
from .errors import ParseError, WeightTooLong
from .rationals import _MAX_LENGTH, NEG_INF, format_extended, parse_rational

FORMAT_TAG = "fcw/1"

_DOCUMENT_KEYS = {"format", "basepoint", "cells"}
_CELL_KEYS = {"id", "dim", "weight", "boundary"}


def parse_weight(text: str):
    """Parse a weight string, `-inf` or an exact rational; `inf` is rejected
    (weights live in {-inf} + Q).  fcw reads every weight here."""
    if not isinstance(text, str):
        raise ParseError(f"weight must be a string, got {type(text).__name__}")
    s = text.strip()
    if s == "-inf":
        return NEG_INF
    if s == "inf":
        raise ParseError("weight `inf` is not allowed")
    try:
        return parse_rational(s)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_json(text: str):
    """json.loads, with malformed, too deeply nested or overlong-integer text as ParseError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc


def parse_document(text: str) -> FilteredComplex:
    """Structural parse only, so the result may fail validate(); a cell's ParseError starts `cell #N: `."""
    doc = load_json(text)
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
    ids, dims, codes, boundaries, weights, code_of = [], [], [], [], [], {}
    # json.loads makes plain dicts and ints: `type(v) is int` tells an int from a bool
    try:
        for position, record in enumerate(doc["cells"]):
            if type(record) is not dict:
                raise ParseError("must be a JSON object")
            if record.keys() != _CELL_KEYS:
                raise ParseError(f"keys must be exactly {sorted(_CELL_KEYS)}")
            cell_id, dim, text, chain = record["id"], record["dim"], record["weight"], record["boundary"]
            if type(cell_id) is not str or not cell_id:
                raise ParseError("id must be a nonempty string")
            if type(dim) is not int:
                raise ParseError("dim must be an integer")
            if type(chain) is not dict:
                raise ParseError("boundary must be an object")
            refs = []
            for ref, coeff in chain.items():
                if type(coeff) is not int:
                    raise ParseError(f"boundary coefficient for {ref!r} must be an integer")
                if coeff % 2:
                    refs.append(ref)
            k = code_of.get(text) if type(text) is str else None  # each distinct weight string is parsed once
            if k is None:
                weights.append(parse_weight(text))  # a non-string raises
                k = code_of[text] = len(weights) - 1
            ids.append(cell_id)
            dims.append(dim)
            codes.append(k)
            boundaries.append(refs)
    except ParseError as exc:
        raise ParseError(f"cell #{position}: {exc}") from exc
    return FilteredComplex._build(ids, dims, codes, weights, boundaries, doc["basepoint"])


def parse_complex(text: str) -> FilteredComplex:
    """Parse and validate; raises ParseError or ValidationError."""
    return parse_document(text).require_valid()


# The canonical text, as json.dumps(doc, indent=2, sort_keys=True) lays it out
_DOCUMENT = '{\n  "basepoint": %s,\n  "cells": %s,\n  "format": "%s"\n}\n'
_CELL = '    {\n      "boundary": %s,\n      "dim": %d,\n      "id": %s,\n      "weight": "%s"\n    }'


def serialize_complex(x: FilteredComplex) -> str:
    """Canonical document bytes; parse . serialize is the identity on these.

    The text is exactly json.dumps(doc, indent=2, sort_keys=True) + "\\n" of
    the document, written straight from the complex's tuples: each id is
    escaped once and each distinct weight formatted once.  A weight longer
    than parse_document reads raises WeightTooLong naming a cell of that
    weight.
    """
    ids, dims, bounds = instance(x, FilteredComplex)._ids, x._dims, x._bounds
    n = len(ids)
    names = ids + x._unknown
    quoted = list(map(encode_basestring_ascii, names))
    weight_text = list(map(format_extended, x._levels))  # by rank; -1 is -inf
    for rank, text in enumerate(weight_text):
        if len(text) > _MAX_LENGTH:
            cell = ids[x._rank.index(rank)]
            detail = f"weight of {len(text)} characters, longer than the {_MAX_LENGTH} a document may hold"
            raise WeightTooLong(f"cell {cell}: {detail}")
    cells = []
    for j, rank in enumerate(x._rank):
        bound = bounds[j]
        if bound:
            # positions within one dimension are in id order already
            if bound[-1] >= n or dims[bound[0]] != dims[bound[-1]]:
                bound = sorted(bound, key=names.__getitem__)
            boundary = "{\n        " + ": 1,\n        ".join(map(quoted.__getitem__, bound)) + ": 1\n      }"
        else:
            boundary = "{}"
        cells.append(_CELL % (boundary, dims[j], quoted[j], weight_text[rank]))
    listed = "[\n" + ",\n".join(cells) + "\n  ]" if cells else "[]"
    return _DOCUMENT % (encode_basestring_ascii(x.basepoint), listed, FORMAT_TAG)
