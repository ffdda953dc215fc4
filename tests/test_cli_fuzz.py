"""Fuzzing `fcw/1` documents through the CLI: mutated fixtures never crash it.

Each example takes a fixture, changes some cells' ids, dimensions, weights or
boundaries (to valid, invalid and ill-typed values), and runs one read-only
command on the result.  The command must exit 0, 1 or 2 without raising, and
its exit code must agree with what the library says about the document.  A
document that validates must also serialize to a fixed point of
parse . serialize.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcw import ParseError, ValidationError, parse_complex, parse_document, serialize_complex
from fcw.cli import run

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.fcw"))
DOCUMENTS = [json.loads(path.read_text()) for path in FIXTURES]
COMMANDS = ["validate", "info", "barcode", "euler-curve", "euler", "size"]

IDS = st.sampled_from(["pt", "a", "b", "f", "m", "n1", "n2", "c1", "x", "", "bad id", "é"]) | st.text(
    min_size=1, max_size=4
)
WEIGHTS = st.sampled_from(
    ["-inf", "inf", "0", "1", "2", "4", "1/2", "2/4", "-1", "0.5", " 1 ", "+3", ".5",
     "1/0", "1e3", "1_0", "abc", "", "-", "1" * 1001]
) | st.fractions(max_denominator=10**6).map(str)
FIELDS = {
    "id": IDS,
    "dim": st.integers(-1, 4) | st.just(10**20),
    "weight": WEIGHTS,
    "boundary": st.dictionaries(IDS, st.integers(-3, 3), max_size=4),
}
# any field may instead get a value from this pool of other JSON types
ILL_TYPED = st.sampled_from([None, True, 1.5, 1, "1", [], {}, [1], {"a": 1}, {"a": True}, {"a": "1"}])


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    cells = doc["cells"]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(cells) - 1))
        field = draw(st.sampled_from(sorted(FIELDS)))
        wrong_type = draw(st.integers(0, 4)) == 4
        cells[k][field] = draw(ILL_TYPED if wrong_type else FIELDS[field])
    if draw(st.integers(0, 3)) == 3:  # a duplicate cell
        cells.append(json.loads(json.dumps(draw(st.sampled_from(cells)))))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.fcw"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_never_crash_the_cli(document_path, text, command):
    document_path.write_text(text, encoding="utf-8")
    result = run([command, str(document_path)])
    assert result.exit_code in (0, 1, 2)
    try:
        x = parse_document(text)
    except ParseError:
        assert result.exit_code == 2
        return
    except ValidationError:  # a duplicate id
        assert result.exit_code == 1
        return
    if x.validate():
        assert result.exit_code == 1
        return
    assert result.exit_code == 0, result.error
    once = serialize_complex(x)
    assert serialize_complex(parse_complex(once)) == once
