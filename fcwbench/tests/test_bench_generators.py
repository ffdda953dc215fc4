"""The workload generators: deterministic in the seed, and valid inputs."""

import pytest

import fcw
import workloads
from run import ROOT, WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_bytes_and_another_seed_other_bytes(name):
    first, again, other = (workloads.build(name, seed, ROOT) for seed in (1, 1, 2))
    assert first.files == again.files
    assert [op.args for op in first.ops] == [op.args for op in again.ops]
    generated = [f for f in first.files if f not in workloads.FIXTURES]
    assert generated
    assert all(first.files[f] != other.files[f] for f in generated)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_generated_complex_is_valid_and_round_trips(name):
    for file, text in workloads.build(name, 3, ROOT).files.items():
        if file.endswith(".fcw"):
            x = fcw.parse_document(text)
            assert x.validate() == [], file
            assert fcw.parse_document(fcw.serialize_complex(x)) == x


def test_morse_files_have_exactly_one_minimum_except_the_rejected_case():
    files = workloads.build("morse-batch", 4, ROOT).files
    morse_files = [f for f in files if f.endswith(".txt")]
    assert "m2min.txt" in morse_files
    for file in morse_files:
        datum = fcw.parse_morse_datum(files[file])
        minima = sum(1 for p in datum.points if p.index == 0)
        assert minima == (2 if file == "m2min.txt" else 1), file
        assert fcw.morse_complex(datum).validate() == []


def test_grid_sizes_span_the_documented_range():
    files = workloads.build("grid-barcode", 1, ROOT).files
    sizes = sorted(len(fcw.parse_document(files[f"grid{side}.fcw"])) for side in workloads.GRID_SIDES)
    assert 3400 < sizes[0] and sizes[-1] < 10000
