"""CLI behaviour: canonical payloads, exit codes, pipe closure."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from helpers import torus, two_sphere_two_peaks

from fcw import (
    NEG_INF,
    euler_polynomial,
    parse_complex,
    point,
    serialize_complex,
    sphere,
)
from fcw.cli import run

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"
TORUS = str(FIXTURES / "torus.fcw")
S2H = str(FIXTURES / "s2h.fcw")
S2HP = str(FIXTURES / "s2hprime.fcw")


def payload(*argv) -> str:
    result = run(list(argv))
    assert result.exit_code == 0, result.error
    return result.payload


def test_euler_of_torus():
    assert payload("euler", TORUS) == "-1*t^1 + -1*t^2 + 1*t^4\n"


def test_euler_flags():
    assert payload("euler", TORUS, "--upto", "2") == "-1*t^1 + -1*t^2\n"
    assert payload("euler", TORUS, "--derivative") == "-1*t^0 + -2*t^1 + 4*t^3\n"
    assert payload("euler", TORUS, "--at-one") == "-1\n"
    assert payload("euler", TORUS, "--derivative", "--at-one") == "1\n"
    assert payload("euler", TORUS, "--upto=-inf") == "0\n"


def test_size_and_weighted_euler():
    assert payload("size", TORUS) == "1*t^1 + 1*t^2 + 1*t^4\n"
    assert payload("weighted-euler", TORUS) == "1\n"


def test_match_command():
    assert payload("match", S2H, S2HP) == "1\n"


def test_kclass_command():
    assert payload("kclass", TORUS) == "-1*t^1 + -1*t^2 + 1*t^4\n"
    assert payload("kclass", TORUS, "-n", "1") == "1*t^1 + 1*t^2 + -1*t^4\n"


def test_barcode_command():
    assert payload("barcode", S2HP) == "dim\tbirth\tdeath\n0\t-inf\tinf\n1\t1/2\t1\n2\t1\tinf\n"


def test_euler_curve_command():
    assert payload("euler-curve", S2HP) == "r\teuler\n-inf\t1\n1/2\t0\n1\t2\n"


def test_bottleneck_command():
    assert payload("bottleneck", S2H, S2HP) == "1/4\n"
    assert payload("bottleneck", S2H, S2HP, "--dim", "0") == "0\n"


def test_info_command():
    assert payload("info", TORUS) == (
        "cells: 4\n"
        "eternal-cells: 1\n"
        "spectrum: 1 2 4\n"
        "min-finite-weight: 1\n"
        "max-finite-weight: 4\n"
        "cell-count: 3\n"
        "weighted-size: 7\n"
        "weighted-euler: 1\n"
        "dim 0: 1\n"
        "dim 1: 2\n"
        "dim 2: 1\n"
    )


def test_info_on_complex_without_finite_weights(tmp_path):
    trivial = tmp_path / "point.fcw"
    trivial.write_text(serialize_complex(point()))
    got = payload("info", str(trivial))
    assert "spectrum:\n" in got
    assert "min-finite-weight: none\n" in got
    assert "max-finite-weight: none\n" in got


def test_validate_command(tmp_path):
    assert payload("validate", TORUS) == "ok\n"
    bad = tmp_path / "bad.fcw"
    # drop the 2-cell below its boundary edge: weight monotonicity breaks
    text = (FIXTURES / "torus.fcw").read_text().replace('"weight": "4"', '"weight": "0"')
    breaking = text.replace('"boundary": {},\n      "dim": 2', '"boundary": {"a": 1},\n      "dim": 2')
    bad.write_text(breaking)
    result = run(["validate", str(bad)])
    assert result.exit_code == 1
    assert "WeightMonotonicityViolation" in result.payload


def test_constructions_round_trip_through_the_cli(tmp_path):
    doc = payload("smash", S2H, S2HP, "--filtered")
    built = tmp_path / "smash.fcw"
    built.write_text(doc)
    expected = euler_polynomial(sphere(2, 1)) * euler_polynomial(two_sphere_two_peaks())
    assert payload("euler", str(built)) == expected.render() + "\n"


def test_product_wedge_suspend_shift_cutoff(tmp_path):
    for args in (
        ["wedge", TORUS, S2H],
        ["product", TORUS, S2H],
        ["product", TORUS, S2H, "--filtered"],
        ["smash", TORUS, S2H],
        ["suspend", TORUS],
        ["shift", TORUS, "--by", "3/2"],
        ["cutoff", TORUS, "--at", "2"],
    ):
        doc = payload(*args)
        out = tmp_path / "out.fcw"
        out.write_text(doc)
        assert payload("validate", str(out)) == "ok\n"


def test_sphere_command():
    doc = payload("sphere", "-k", "2", "-l", "1")
    assert parse_complex(doc) == sphere(2, 1)
    eternal = payload("sphere", "-k", "3", "-l=-inf")
    assert parse_complex(eternal) == sphere(3, NEG_INF)


def test_morse_commands(tmp_path):
    datum = tmp_path / "heights.morse"
    datum.write_text("# two peaks\n0\t0\n1/2\t1\n1\t2\n1\t2\n")
    bounds = payload("morse-bounds", str(datum))
    assert bounds == "spheres: 5/2\nwedges: 3/2\n"
    attach = tmp_path / "attach.json"
    attach.write_text('{"c2": {"c1": 1}, "c3": ["c1"]}')
    doc = payload("morse-build", str(datum), "--boundaries", str(attach))
    built = tmp_path / "built.fcw"
    built.write_text(doc)
    assert payload("barcode", str(built)) == payload("barcode", S2HP)


def test_linearize_command():
    assert payload("linearize", TORUS) == (
        "lambda: 1*t^1 + 1*t^2 + 1*t^4\n"
        "count: 3\n"
        "weight: 7\n"
        "euler: -1*t^1 + -1*t^2 + 1*t^4\n"
    )


def test_shift_then_unshift_is_identity(tmp_path):
    shifted = tmp_path / "shifted.fcw"
    shifted.write_text(payload("shift", TORUS, "--by", "5/3"))
    back = payload("shift", str(shifted), "--by=-5/3")
    assert back == (FIXTURES / "torus.fcw").read_text()


def test_domain_error_exit_code():
    result = run(["match", TORUS, S2H])  # unequal t=1 Euler values
    assert result.exit_code == 1
    assert result.error.startswith("EulerMismatch")


def test_parse_error_exit_code(tmp_path):
    junk = tmp_path / "junk.fcw"
    junk.write_text("not json")
    result = run(["euler", str(junk)])
    assert result.exit_code == 2
    assert result.error.startswith("ParseError")
    missing = run(["euler", str(tmp_path / "nope.fcw")])
    assert missing.exit_code == 2


def test_usage_error_exit_code():
    assert run(["no-such-command"]).exit_code == 2
    assert run([]).exit_code == 2
    assert run(["shift", TORUS]).exit_code == 2  # --by is required
    assert run(["shift", TORUS, "--by=-inf"]).exit_code == 2


def test_exponent_notation_is_a_parse_error(tmp_path):
    assert run(["shift", TORUS, "--by", "1e5000"]).exit_code == 2
    doc = tmp_path / "big.fcw"
    doc.write_text(Path(TORUS).read_text().replace('"weight": "4"', '"weight": "1e5000"'))
    assert run(["euler", str(doc)]).exit_code == 2
    datum = tmp_path / "big.morse"
    datum.write_text("0\t0\n1e5000\t1\n")
    assert run(["morse-build", str(datum)]).exit_code == 2


def test_cli_import_loads_no_numeric_dependencies():
    code = "import sys, fcw.cli; print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_repeated_runs_are_byte_identical():
    for args in (["euler", TORUS], ["barcode", S2HP], ["product", TORUS, S2HP, "--filtered"]):
        assert payload(*args) == payload(*args)
