"""Fuzzing the CLI's inputs: mutated documents and Morse files never crash it.

Each document example takes a fixture, changes some cells' ids, dimensions,
weights or boundaries (to valid, invalid and ill-typed values), and runs one
read-only command on the result.  The command must exit 0, 1 or 2 without
raising, and its exit code must agree with what the library says about the
document.  A document that validates must also serialize to a fixed point of
parse . serialize.

Each Morse example mutates the lines of a Morse data file and, for
`morse-build`, a `--boundaries` JSON file, either of which may also carry
bytes that are not UTF-8.  `morse-bounds` and `morse-build` must exit 0, 1
or 2 as the library says, and `linearize` runs on every complex that
`morse-build` writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcw import (
    FCWError,
    ParseError,
    ValidationError,
    canonical_linearization,
    morse_complex,
    parse_complex,
    parse_document,
    parse_morse_datum,
    serialize_complex,
)
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
    except ParseError as exc:  # the CLI names the file before the library's message
        assert (result.exit_code, result.error) == (2, f"ParseError: {document_path}: {exc}")
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


MORSE_DATA = ["0\t0\n1/2\t1\n1\t2\n1\t2\n", "# a torus\n0 0\n1 1\n2 1\n4 2\n", "0\t0\n"]
MORSE_FIELDS = st.sampled_from(
    ["0", "1", "2", "1/2", "0.5", "-1", "-1/2", "1/0", "1e3", "inf", "x", "", "1.5", "٣", "1" * 1001, "9" * 5000]
) | st.fractions(min_value=0, max_value=10, max_denominator=100).map(str)
MORSE_LINES = st.builds(
    lambda fields, sep: sep.join(fields), st.lists(MORSE_FIELDS, min_size=0, max_size=3), st.sampled_from(["\t", " ", "  "])
) | st.sampled_from(["# comment", "", "0\t0 # min", "\t"])
CELL_IDS = st.sampled_from(["c1", "c2", "c3", "c4", "pt", "zz"])
CHAINS = (
    st.lists(CELL_IDS, max_size=3)
    | st.dictionaries(CELL_IDS, st.integers(-2, 3), max_size=3)
    | ILL_TYPED
    | st.dictionaries(CELL_IDS, ILL_TYPED, min_size=1, max_size=2)
)
BOUNDARIES = (
    st.dictionaries(CELL_IDS, CHAINS, max_size=4).map(json.dumps)
    | st.sampled_from(["[]", "5", "null", '{"c1": ', "", "[" * 100_000, "{" * 50_000])
)


@st.composite
def mutated_morse_data(draw):
    lines = draw(st.sampled_from(MORSE_DATA)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        line = draw(MORSE_LINES)
        if k < len(lines) and draw(st.booleans()):
            lines[k] = line
        else:
            lines.insert(k, line)
    return "\n".join(lines) + "\n"


def with_bad_bytes(draw, text: str) -> bytes:
    """text as UTF-8, sometimes with bytes spliced in that are not UTF-8."""
    data = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 4:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xd0\x00", b"\x80abc", b"\xed\xa0\x80"])) + data[k:]
    return data


def _exit_code(call) -> int:
    """The exit code the CLI owes for what `call` does in the library."""
    try:
        call()
    except ParseError:
        return 2
    except FCWError:
        return 1
    return 0


def _decoded(data: bytes):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _boundaries_object(data: bytes):
    """The JSON object in `data`, or None where the CLI must refuse the file."""
    text = _decoded(data)
    if text is None:
        return None
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


@st.composite
def morse_inputs(draw):
    datum = with_bad_bytes(draw, draw(mutated_morse_data()))
    boundaries = None
    if draw(st.booleans()):
        boundaries = with_bad_bytes(draw, draw(BOUNDARIES))
    return datum, boundaries


@pytest.fixture(scope="module")
def morse_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("morse")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=morse_inputs(), command=st.sampled_from(["morse-bounds", "morse-build"]))
def test_mutated_morse_files_never_crash_the_cli(morse_dir, inputs, command):
    datum_bytes, boundary_bytes = inputs
    datum_path, boundary_path = morse_dir / "data.morse", morse_dir / "attach.json"
    datum_path.write_bytes(datum_bytes)
    argv = [command, str(datum_path)]
    attached = command == "morse-build" and boundary_bytes is not None
    if attached:
        boundary_path.write_bytes(boundary_bytes)
        argv += ["--boundaries", str(boundary_path)]
    result = run(argv)
    assert result.exit_code in (0, 1, 2)

    text = _decoded(datum_bytes)
    boundaries = _boundaries_object(boundary_bytes) if attached else None
    if result.exit_code == 2:  # the error names the file at fault; the datum is read first
        datum_fails = text is None or _exit_code(lambda: parse_morse_datum(text)) == 2
        assert str(datum_path if datum_fails else boundary_path) in result.error, result.error
    if text is None or (attached and boundaries is None):
        assert result.exit_code == 2 and result.error.startswith("ParseError:")
        return
    if command == "morse-bounds":
        assert result.exit_code == _exit_code(lambda: parse_morse_datum(text)), result.error
        return
    assert result.exit_code == _exit_code(lambda: morse_complex(parse_morse_datum(text), boundaries)), result.error
    if result.exit_code == 0:
        (morse_dir / "built.fcw").write_text(result.payload, encoding="utf-8")
        linearized = run(["linearize", str(morse_dir / "built.fcw")])
        want = _exit_code(lambda: canonical_linearization(parse_complex(result.payload)))
        assert linearized.exit_code == want, linearized.error
