"""CLI behaviour: canonical payloads, exit codes, pipe closure."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import grid_document, random_barcode, torus, two_sphere_two_peaks

from fcw import (
    NEG_INF,
    POS_INF,
    Bar,
    Barcode,
    bottleneck,
    euler_polynomial,
    format_extended,
    parse_complex,
    point,
    serialize_complex,
    sphere,
)
from fcw.cli import build_parser, main, run

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
    assert payload("euler", S2HP, "--derivative") == "-1/2*t^-1/2 + 2*t^0\n"
    assert payload("euler", S2HP, "--at-one") == "1\n"


def test_size_and_weighted_euler():
    assert payload("size", TORUS) == "1*t^1 + 1*t^2 + 1*t^4\n"
    assert payload("weighted-euler", TORUS) == "1\n"
    assert payload("weighted-euler", S2HP) == "3/2\n"


def test_match_command():
    assert payload("match", S2H, S2HP) == "1\n"


def test_kclass_command():
    assert payload("kclass", TORUS) == "-1*t^1 + -1*t^2 + 1*t^4\n"
    assert payload("kclass", TORUS, "-n", "1") == "1*t^1 + 1*t^2 + -1*t^4\n"
    assert payload("kclass", S2HP, "-n", "1") == "1*t^1/2 + -2*t^1\n"


def test_barcode_command():
    assert payload("barcode", S2HP) == "dim\tbirth\tdeath\n0\t-inf\tinf\n1\t1/2\t1\n2\t1\tinf\n"


def test_euler_curve_command():
    assert payload("euler-curve", S2HP) == "r\teuler\n-inf\t1\n1/2\t0\n1\t2\n"


def test_bottleneck_command():
    assert payload("bottleneck", S2H, S2HP) == "1/4\n"
    assert payload("bottleneck", S2H, S2HP, "--dim", "0") == "0\n"


def test_bottleneck_rejects_a_negative_degree():
    result = run(["bottleneck", S2H, S2HP, "--dim", "-1"])
    assert (result.exit_code, result.payload) == (2, "")
    assert result.error == "ParseError: --dim must be nonnegative, got -1"


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


def test_validate_reports_a_duplicate_id_on_stdout(tmp_path):
    doubled = tmp_path / "doubled.fcw"
    text = (FIXTURES / "torus.fcw").read_text()
    doubled.write_text(text.replace('"id": "b"', '"id": "a"'))
    result = run(["validate", str(doubled)])
    assert (result.exit_code, result.payload, result.error) == (1, "DuplicateCellId[a]: cell id appears twice\n", "")


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


# exit code, stdout and stderr of each command that builds a complex, pinned by sha256:
# how a command builds its result may change, the bytes it prints may not
PINNED_INPUTS = {"torus": TORUS, "s2h": S2H, "s2hp": S2HP}
PINNED_BYTES = {
    "wedge torus s2h": "69c4cdceaf387ec990522cb803b7e4c9238b10ae5dd3b4c7051ba63d335996b0",
    "wedge s2h s2hp": "16a3ac382e1a2aee22d3cbcfbe0783573334f00cec1442c47c80e0519ea9b1a8",
    "wedge grid4 grid5": "66a853fc5a5234ff3fa678a29079dd8c8b160dfce786f0204ed21ff0f7bb1bef",
    "product torus s2h": "0513ac14f953f17c2fedf8c8110bf05aab30e2b2a8c912be068c2eb63f5cee54",
    "product s2h s2hp": "f6a244eb027778163e92eb4649ff3e83d60da4518077f0d81ffa1a1f0d7d6d92",
    "product grid4 grid5": "2595889d113a4665c22e4a6df1b3553c127f0c745e54c2cfb33205bb1d469bd4",
    "product torus s2h --filtered": "e3dd3bbe0abf8462c3a96ca3314681b8e40f54a23307b754736c136c1c6491cd",
    "product s2h s2hp --filtered": "597d59f472956f4b86a9d196ae5946c364186eb3a097db81bcec2852f9164310",
    "product grid4 grid5 --filtered": "3ff176c847a151404a06df1db11c721740be02e892de728fd155fde0c9a91bb0",
    "smash torus s2h": "7ad00b04ebbdc2273cb087858937707400442fea01a50b69f84cf2dd951c7b9e",
    "smash s2h s2hp": "eafdcd53f3256b54a8d4c846689e0beaef0c39ff3ae0b45cd462fe657dcbdd66",
    "smash grid4 grid5": "542f6a69227d8a6518a8d800317582b14b91659fa4c35f50d74d61784786f2a0",
    "smash torus s2h --filtered": "66d7b34305e1e62b056e14d3375e08441ec77f8f48219587e6303e78fa66090d",
    "smash s2h s2hp --filtered": "a2cb7952ab4fec1df81665f6a814c5fd4559183e98a7c275ed296d38b0bfbc16",
    "smash grid4 grid5 --filtered": "d5d3728f2990df981b717110bf5bb712e7f572ca68bd5a0d84beed24ab32eb85",
    "suspend torus": "9f62c837ea3672507ddde7abc4f7505a4eb29e162015c11ea6d24df40f4219a7",
    "suspend s2h": "00994aa0d9c8d045d176a0c6e3357b347ab9bd874eab187224d61b533fc9fcc7",
    "suspend s2hp": "9d173ebe5fef645ade6636f323d2b2b509068698d767d2ba7d9a65555ba01b0c",
    "suspend grid4": "f73ac7ded76c564f57345a8b67783cd839c22c22c720b0faec993635afb210ce",
    "suspend grid5": "a3c02361923626b07271e719342d638ad6d61ed5b8199f77d765a53d5476da9a",
    "shift torus --by 3/2": "4bc54a98824a53c3213eb66b4208eb9790eb322af2d642c620e09c1929e1547b",
    "shift s2h --by 3/2": "23d4f6058f36bf6ce98d3309f015826622c084ea9f9a3532aaf4df023d3f02bb",
    "shift s2hp --by 3/2": "d2907d63cba5021813d54ee033822eeb976f9ef1b1011d8af86ed9c68ec71bb6",
    "shift grid4 --by 3/2": "66c781f3d565303ea467904195d11f6c9f8efc8faa86b58fc35e3b582a65adeb",
    "shift grid5 --by 3/2": "a0a985e4e7e3451bddbc960581945c6fd2d1ed1f7eec743b8722eddee1344cbc",
    "cutoff torus --at 2": "79407f614260271c2b8bc4051c468b7c9e93249a76f4b5115bb173c23ec1ea87",
    "cutoff s2h --at 2": "b38829e41014cf4407b503901e7be9561757f1c92b257c7e12f0db2ab4d58026",
    "cutoff s2hp --at 2": "4a67e4f90433ab40c9506f9397626dc00b58803ffbf5085846a677ebeff67b7e",
    "cutoff grid4 --at 2": "9e4139b34ff5592d0bb5e743490c71d08781cb9dd82c853f7265b34e80c2baef",
    "cutoff grid5 --at 2": "80d0a56f8114934fd66bad93102ae3d446417e61718a188a6bf13fa37dc0477d",
    "sphere -k 0 -l=-inf": "7bf19edf18c19659904c7505d3cce711e13ff28c502e98c4515a1ec9abf25bd0",
    "sphere -k 0 -l 0": "1ec2bb5ba2d133f5baf3647171b3a7061bf0f5397015fa325de717d2f2dc9513",
    "sphere -k 0 -l 7/2": "4c869983c86471c29838230ddd838245eac1a8a1ec8e936df01fab6e5c05027c",
    "sphere -k 2 -l=-inf": "56f164b3108855eaacedd7f1add4c09d65d9adeec34520ee22e6edddff963a58",
    "sphere -k 2 -l 0": "fc7035457d5d68ee4b5f7f8c76589866785c59c673d1fb73ef9a9bbb0032f240",
    "sphere -k 2 -l 7/2": "d333a0284223ee6b8160b4ae018f55ae3be77f6c1008cb95c03994e8984987e5",
    "morse-build lonely": "7f04de00ba2aed58ee007e7179665cc68666d9e563e06c6b36425d323369b70b",
    "morse-build lonely --boundaries attach": "f7fb21cd0b55f7e208640f4ddbfd7c3733b8af95217b2d2494f009ffb9729be9",
    "validate ghost": "2c6993c188e28310d0963b113bb046cd877acc4634964c09d17626b8f07cb589",
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    """The fixtures, two lower-star grids of sides 4 and 5 with seeded values,
    a Morse datum `lonely` whose lowest minimum has a value no other point
    has, so that its level vanishes from the built complex, attaching maps
    `attach` for it, and `ghost`, a document whose boundary names an unknown id."""
    rng, inputs = random.Random(26), dict(PINNED_INPUTS)
    root = tmp_path_factory.mktemp("pinned")
    texts = {
        "lonely": "1/3\t0\n1/2\t0\n1/2\t1\n3/4\t1\n1\t2\n2\t1\n",
        "attach": '{"c2": ["c1", "pt"], "c3": {"c1": 1, "pt": 3}, "c4": ["c2", "c3"]}',
        "ghost": Path(S2HP).read_text().replace('"m": 1', '"ghost": 1', 1),
    }
    for side in (4, 5):
        texts[f"grid{side}"] = grid_document(side, rng)
    for name, text in texts.items():
        path = root / name
        path.write_text(text)
        inputs[name] = str(path)
    return inputs


def printed_digest(case, inputs) -> str:
    """sha256 of the exit code, stdout and stderr of the command `case`, whose
    words name files of `inputs` or are flags and flag values."""
    command, *words = case.split()
    result = run([command, *(inputs.get(word, word) for word in words)])
    printed = "\0".join([str(result.exit_code), result.payload, result.error])
    return hashlib.sha256(printed.encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED_BYTES)
def test_construction_commands_print_their_pinned_bytes(pinned_inputs, case):
    assert printed_digest(case, pinned_inputs) == PINNED_BYTES[case]


# the same for `bottleneck`: how it searches may change, the distance it prints may not
PINNED_BOTTLENECK = {
    "bottleneck torus s2h": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck torus s2h --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck torus s2h --dim 1": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck torus s2h --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2h torus": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck s2h torus --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2h torus --dim 1": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck s2h torus --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck torus s2hp": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck torus s2hp --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck torus s2hp --dim 1": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck torus s2hp --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2hp torus": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck s2hp torus --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2hp torus --dim 1": "c90ccbf5a0c82a7994714560deb8157f51325598c27cebd8958349c4c83275fa",  # inf
    "bottleneck s2hp torus --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2h s2hp": "905eec256538333b400e01989dd878b06389b010858305f4866f54436e0a0c65",  # 1/4
    "bottleneck s2h s2hp --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2h s2hp --dim 1": "905eec256538333b400e01989dd878b06389b010858305f4866f54436e0a0c65",  # 1/4
    "bottleneck s2h s2hp --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2hp s2h": "905eec256538333b400e01989dd878b06389b010858305f4866f54436e0a0c65",  # 1/4
    "bottleneck s2hp s2h --dim 0": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck s2hp s2h --dim 1": "905eec256538333b400e01989dd878b06389b010858305f4866f54436e0a0c65",  # 1/4
    "bottleneck s2hp s2h --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck grid4 grid5": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",  # 6
    "bottleneck grid4 grid5 --dim 0": "1a0474140706234edf7f1cc8c0f75e24f752773ccea2273beae7c056a7990c20",  # 9/2
    "bottleneck grid4 grid5 --dim 1": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",  # 6
    "bottleneck grid4 grid5 --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck grid5 grid4": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",  # 6
    "bottleneck grid5 grid4 --dim 0": "1a0474140706234edf7f1cc8c0f75e24f752773ccea2273beae7c056a7990c20",  # 9/2
    "bottleneck grid5 grid4 --dim 1": "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",  # 6
    "bottleneck grid5 grid4 --dim 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",  # 0
    "bottleneck torus s2h --dim 2": "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",  # 3
    "bottleneck peaks37 peaks41": "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",  # 1
    "bottleneck mixed37 mixed41": "7576410f3b85c88eb70620628abb7b0d187a6f57a13cec414efcf7aa52c859ba",  # 2
    "bottleneck mixed41 mixed37 --dim 0": "7576410f3b85c88eb70620628abb7b0d187a6f57a13cec414efcf7aa52c859ba",  # 2
    "bottleneck kinds37 kinds41": "9fc1b6dce51ad4c8f178d0292355fe1bf5ab0bea0dd8c5f957790968ab464e6f",  # 358180/67591
    "bottleneck kinds41 kinds37 --dim 0": "9fc1b6dce51ad4c8f178d0292355fe1bf5ab0bea0dd8c5f957790968ab464e6f",  # 358180/67591
    "bottleneck kinds37 kinds41 --dim 1": "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",  # 3
}


def _bottleneck_documents(m):
    """Two documents for the multiplier m, each a basepoint plus 0-cells
    v{k}: `mixed`, where a third of them are killed by an edge to the
    basepoint, so degree 0 mixes 400 bars [b, inf) with 200 bars [b, d);
    and `kinds`, 300 of them with a prime denominator each, plus 100
    integer bars [b, d) in degree 1 from 1-cells killed by 2-cells."""
    pt = {"id": "pt", "dim": 0, "weight": "-inf", "boundary": {}}
    mixed, kinds = [pt], [pt]
    for k in range(600):
        mixed.append({"id": f"v{k}", "dim": 0, "weight": f"{k * m % 101}/{k % 3 + 1}", "boundary": {}})
        if k % 3 == 0:
            weight = f"{k * m % 101 + k % 5 + 1}/{k % 3 + 1}"
            mixed.append({"id": f"e{k}", "dim": 1, "weight": weight, "boundary": {f"v{k}": 1, "pt": 1}})
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for k in range(300):
        kinds.append({"id": f"v{k}", "dim": 0, "weight": f"{k * m % 1009 * 20}/{primes[k + m]}", "boundary": {}})
    for k in range(100):
        kinds.append({"id": f"e{k}", "dim": 1, "weight": f"{k * m % 101}", "boundary": {}})
        kinds.append({"id": f"f{k}", "dim": 2, "weight": f"{k * m % 101 + k % 7 + 1}", "boundary": {f"e{k}": 1}})
    documents = {"mixed": mixed, "kinds": kinds}
    return {name: json.dumps({"format": "fcw/1", "basepoint": "pt", "cells": cells}) for name, cells in documents.items()}


@pytest.fixture(scope="module")
def bottleneck_inputs(pinned_inputs, tmp_path_factory):
    """The pinned inputs, and for m = 37 and 41: `peaks{m}`, built by
    `morse-build` from 300 Morse points without boundaries, so every bar is
    infinite; `mixed{m}` and `kinds{m}`, from _bottleneck_documents."""
    root, inputs = tmp_path_factory.mktemp("bottleneck"), dict(pinned_inputs)
    for m in (37, 41):
        morse = root / f"peaks{m}.morse"
        morse.write_text("".join(f"{k * m % 101}/{k % 3 + 1}\t{k and k % 3 + 1}\n" for k in range(300)))
        documents = {"peaks": payload("morse-build", str(morse)), **_bottleneck_documents(m)}
        for name, text in documents.items():
            path = root / f"{name}{m}.fcw"
            path.write_text(text)
            inputs[f"{name}{m}"] = str(path)
    return inputs


@pytest.mark.parametrize("case", PINNED_BOTTLENECK)
def test_bottleneck_prints_its_pinned_bytes(bottleneck_inputs, case):
    assert printed_digest(case, bottleneck_inputs) == PINNED_BOTTLENECK[case]


def _moved(rng, bar):
    """The bar with each finite endpoint moved a little, unless that empties it."""
    birth, death = (
        v if v is NEG_INF or v is POS_INF else v + F(rng.randint(-3, 3), rng.choice((2, 3, 7)))
        for v in (bar.birth, bar.death)
    )
    return Bar(bar.dim, birth, death) if birth < death else bar


def test_bottleneck_answers_to_seeded_pairs_are_pinned():
    # 300 pairs in degrees 0 and 1 that mix all four kinds of bar: the right
    # barcode moves each left bar a little and gains up to two random bars,
    # so about a third of the answers are inf
    rng, answers = random.Random(27), []
    for _ in range(300):
        left = random_barcode(rng, max_bars=24, dims=(0, 1))
        right = Barcode([*(_moved(rng, bar) for bar in left), *random_barcode(rng, max_bars=2, dims=(0, 1))])
        answers.extend(format_extended(bottleneck(left, right, dim)) for dim in (None, 0, 1))
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert digest == "c8051bf1c730f34945d87dd07a6ba80a0fc435895bbf201513e37b5b8dd26f85"


def test_sphere_command():
    doc = payload("sphere", "-k", "2", "-l", "1")
    assert parse_complex(doc) == sphere(2, 1)
    eternal = payload("sphere", "-k", "3", "-l=-inf")
    assert parse_complex(eternal) == sphere(3, NEG_INF)
    result = run(["sphere", "-k", "-1", "-l", "0"])
    assert (result.exit_code, result.payload) == (2, "")
    assert result.error == "ParseError: -k must be nonnegative, got -1"


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
    # 300 lines, repeated ones among them, with 1/2 spelled `1/2`, `0.5` and `2/4`
    spelled = (("1/2", "0.5", "2/4")[k % 3] if k % 4 == 0 else f"{k * 7 % 23}/{k % 6 + 1}" for k in range(300))
    datum.write_text("".join(f"{value}\t{k % 4}\n" for k, value in enumerate(spelled)))
    assert payload("morse-bounds", str(datum)) == "spheres: 2920/3\nwedges: 9057/20\n"
    built = payload("morse-build", str(datum)).encode()
    assert hashlib.sha256(built).hexdigest() == "13af3db0522956e96e2e434e422ee577e4b69c58f054ef6bb96579e51d04eb14"


def test_boundaries_for_the_basepoint_are_rejected(tmp_path):
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1\t2\n")
    attach = tmp_path / "attach.json"
    attach.write_text('{"pt": ["c1"]}')
    result = run(["morse-build", str(datum), "--boundaries", str(attach)])
    assert (result.exit_code, result.payload) == (1, "")
    assert result.error == "InvalidBoundaries: boundaries given for unknown cells: ['pt']"


@pytest.mark.parametrize("chain", ['5', '{"c1": "x"}', '"c1"'])
def test_malformed_boundary_chain_is_a_parse_error(tmp_path, chain):
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1/2\t1\n1\t2\n")
    attach = tmp_path / "attach.json"
    attach.write_text(f'{{"c2": {chain}}}')
    result = run(["morse-build", str(datum), "--boundaries", str(attach)])
    assert result.exit_code == 2
    assert result.error.startswith("ParseError") and "c2" in result.error


def test_linearize_command():
    assert payload("linearize", TORUS) == (
        "lambda: 1*t^1 + 1*t^2 + 1*t^4\n"
        "count: 3\n"
        "weight: 7\n"
        "euler: -1*t^1 + -1*t^2 + 1*t^4\n"
    )
    assert payload("linearize", S2HP) == "lambda: 1*t^1/2 + 2*t^1\ncount: 3\nweight: 5/2\neuler: -1*t^1/2 + 2*t^1\n"


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
    # a dim longer than the 4300 digits json.loads converts
    huge = tmp_path / "huge.fcw"
    huge.write_text(Path(TORUS).read_text().replace('"dim": 2', '"dim": ' + "9" * 5000))
    result = run(["validate", str(huge)])
    assert (result.exit_code, result.payload) == (2, "")
    assert result.error.startswith(f"ParseError: {huge}: invalid JSON: ")
    # `inf` is no weight, in a flag or in a document
    result = run(["shift", TORUS, "--by", "inf"])
    assert (result.exit_code, result.payload, result.error) == (2, "", "ParseError: --by: weight `inf` is not allowed")
    doc = tmp_path / "inf.fcw"
    doc.write_text(Path(TORUS).read_text().replace('"weight": "4"', '"weight": "inf"'))
    result = run(["validate", str(doc)])
    assert (result.exit_code, result.payload) == (2, "")
    assert result.error == f"ParseError: {doc}: cell #3: weight `inf` is not allowed"


def _load_errors(tmp_path, command):
    """(argv, the file at fault, exit code, message) for each bad input file
    of `command`; `{}` in the message stands for that file's path."""
    if command.startswith("morse-"):
        datum, broken = tmp_path / "ok.morse", tmp_path / "broken.morse"
        datum.write_text("0\t0\n1\t1\n")
        broken.write_text("0\t0\n1\tx\n")
        cases = [([command, str(broken)], broken, 2, "ParseError: {}: line 2: Morse index")]
        if command == "morse-build":
            for name, text, message in (
                ("truncated.json", '{"c1": ', "invalid JSON"),
                ("list.json", '["c1"]', "boundaries must be a JSON object, got list"),
                ("null.json", "null", "boundaries must be a JSON object, got null"),
                ("chain.json", '{"c1": 5}', "boundary of cell c1"),
            ):
                attach = tmp_path / name
                attach.write_text(text)
                cases.append(([command, str(datum), "--boundaries", str(attach)], attach, 2, "ParseError: {}: " + message))
        return cases
    broken, invalid = tmp_path / "broken.fcw", tmp_path / "invalid.fcw"
    broken.write_text('{"format": "fcw/1", "cells": [{')
    invalid.write_text((FIXTURES / "torus.fcw").read_text().replace('"weight": "-inf"', '"weight": "1"'))
    cases = [(["validate", str(broken)], broken, 2, "ParseError: {}: invalid JSON")]
    for bad, code, message in ((broken, 2, "ParseError: {}: invalid JSON"), (invalid, 1, "ValidationError: {}: BadBasepoint")):
        cases += [([command, *pair], bad, code, message) for pair in ((str(bad), TORUS), (TORUS, str(bad)))]
    return cases


@pytest.mark.parametrize("command", ["match", "bottleneck", "wedge", "morse-bounds", "morse-build"])
def test_a_load_error_names_its_file(tmp_path, command):
    for argv, bad, code, message in _load_errors(tmp_path, command):
        result = run(argv)
        assert (result.exit_code, result.payload) == (code, ""), argv
        assert result.error.startswith(message.format(bad)), result.error
        others = set(argv[1:]) - {str(bad), "--boundaries"}
        assert not any(other in result.error for other in others), result.error


def test_usage_error_exit_code():
    assert run(["no-such-command"]).exit_code == 2
    assert run([]).exit_code == 2
    assert run(["shift", TORUS]).exit_code == 2  # --by is required
    assert run(["shift", TORUS, "--by=-inf"]).exit_code == 2
    assert run(["barcode"]).error.splitlines()[0] == "usage: fcw barcode [-h] file"
    commands = "{validate,info,euler,size,weighted-euler,match,kclass,barcode,euler-curve,bottleneck,wedge,product,"
    commands += "smash,suspend,shift,cutoff,sphere,morse-build,morse-bounds,linearize}"
    assert commands in "".join(payload("--help").split())


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["barcode", "--help"], [], ["no-such-command"], ["barcode"], ["bottleneck", "a.fcw"], ["barcode", "a", "b"]],
)
def test_one_subcommand_parser_answers_as_the_full_parser(capsys, argv):
    try:
        build_parser().parse_args(argv)
        want_code = 0
    except SystemExit as exc:
        want_code = exc.code
    want = capsys.readouterr()
    result = run(argv)
    assert capsys.readouterr() == ("", "")  # run returns what argparse prints
    assert result.exit_code == want_code
    assert (result.payload, result.error + "\n" if result.error else "") == (want.out, want.err)
    assert want.out or want.err


def test_exponent_notation_is_a_parse_error(tmp_path):
    assert run(["shift", TORUS, "--by", "1e5000"]).exit_code == 2
    doc = tmp_path / "big.fcw"
    doc.write_text(Path(TORUS).read_text().replace('"weight": "4"', '"weight": "1e5000"'))
    assert run(["euler", str(doc)]).exit_code == 2
    datum = tmp_path / "big.morse"
    datum.write_text("0\t0\n1e5000\t1\n")
    assert run(["morse-build", str(datum)]).exit_code == 2


def _child_env(unbuffered=False) -> dict:
    """The environment of an fcw child process: this checkout's `src` first
    on the path, and stdout block-buffered unless `unbuffered`."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_cli_import_loads_no_numeric_dependencies(tmp_path):
    """A fresh `fcw` process loads only the layers its subcommand runs."""
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1\t2\n")
    env = _child_env()
    never = ["numpy", "numba", "dataclasses", "inspect"]
    for argv, unloaded in (
        (None, never + ["fcw.morse", "fcw.persistence", "fcw._kernels", "fcw.invariants", "fcw.polynomial"]),
        (["euler", TORUS], never + ["fcw.persistence", "fcw.morse"]),
        (["barcode", TORUS], never + ["fcw.morse", "fcw.invariants"]),
        (["euler-curve", TORUS], never + ["fcw.persistence", "fcw._kernels", "fcw.morse"]),
        (["linearize", TORUS], never + ["fcw.invariants", "fcw.persistence"]),
        (["morse-build", str(datum)], never + ["fcw.invariants", "fcw.persistence"]),
    ):
        code = "import sys, fcw.cli\n"
        if argv is not None:
            code += f"fcw.cli.main({argv!r})\n"
        code += f"print(sorted(set({unloaded!r}) & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]", argv


def test_non_utf8_input_is_a_parse_error_naming_the_file(tmp_path):
    binary = tmp_path / "binary.fcw"
    binary.write_bytes(b'{"format": "fcw/1", "cells": "\xff\xfe"}\n\xd0\x00')
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1\t1\n")
    for argv in (
        ["euler", str(binary)],
        ["morse-bounds", str(binary)],
        ["morse-build", str(datum), "--boundaries", str(binary)],
    ):
        result = run(argv)  # an exception escaping run() is what prints a traceback
        assert result.exit_code == 2
        assert result.error.startswith("ParseError:") and str(binary) in result.error


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1\t1\n")
    for argv in (["euler", str(deep)], ["morse-build", str(datum), "--boundaries", str(deep)]):
        result = run(argv)
        assert result.exit_code == 2
        assert result.error.startswith("ParseError:")


def test_overlong_json_integer_in_boundaries_is_a_parse_error(tmp_path):
    boundaries = tmp_path / "huge.json"
    # longer than the 4300 digits json.loads will convert to an int
    boundaries.write_text('{"c1": {"pt": %s}}' % ("9" * 5000))
    datum = tmp_path / "heights.morse"
    datum.write_text("0\t0\n1\t1\n")
    result = run(["morse-build", str(datum), "--boundaries", str(boundaries)])
    assert result.exit_code == 2
    assert result.error.startswith("ParseError:")


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def exact(text: str) -> Fraction:
    """`p` or `p/q` of any length: Decimal reads, and int() converts, past the
    4300 digits int(str) stops at."""
    numerator, _, denominator = text.partition("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))


def test_sums_longer_than_str_can_print_are_exact(tmp_path):
    # the sum of 1/p over 2 500 distinct primes has a denominator of about 9 700 digits
    values = [F(1, p) for p in primes(2500)]
    total = sum(values, F(0))
    datum = tmp_path / "primes.morse"
    datum.write_text("0\t0\n" + "".join(f"{v}\t1\n" for v in values))
    built = tmp_path / "primes.fcw"
    built.write_text(payload("morse-build", str(datum)))

    def fields(*argv):
        return dict(line.split(": ", 1) for line in payload(*argv).splitlines())

    bounds = fields("morse-bounds", str(datum))
    assert exact(bounds["spheres"]) == exact(bounds["wedges"]) == total
    info = fields("info", str(built))
    assert exact(info["cell-count"]) == 2500
    assert exact(info["weighted-size"]) == total
    assert exact(info["weighted-euler"]) == -total
    assert exact(payload("weighted-euler", str(built))) == -total
    assert exact(payload("euler", str(built), "--derivative", "--at-one")) == -total
    stats = fields("linearize", str(built))
    assert exact(stats["count"]) == 2500
    assert exact(stats["weight"]) == total


# two coprime 499-digit denominators: 1/P + 1/Q has a 997-digit denominator
P, Q = 10**498 + 1, 10**498 + 3


@pytest.mark.parametrize(
    "argv, cell",
    [
        (["product", "--filtered", "A.fcw", "B.fcw"], "l.c1*r.c1"),
        (["shift", "A.fcw", f"--by=1/{Q}"], "c1"),
    ],
    ids=["product", "shift"],
)
def test_a_weight_too_long_to_read_back_is_not_written(tmp_path, monkeypatch, argv, cell):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A.fcw").write_text(serialize_complex(sphere(1, F(1, P))))
    (tmp_path / "B.fcw").write_text(serialize_complex(sphere(1, F(1, Q))))
    result = run(argv)
    assert (result.exit_code, result.payload) == (1, "")
    assert result.error.startswith(f"WeightTooLong: cell {cell}: weight of ")
    assert "\n" not in result.error


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", TORUS, "--by", "abc"],
        ["cutoff", TORUS, "--at", "abc"],
        ["euler", TORUS, "--upto", "abc"],
        ["sphere", "-k", "1", "-l", "abc"],
    ],
    ids=["--by", "--at", "--upto", "-l"],
)
def test_a_bad_flag_value_names_the_flag(argv):
    result = run(argv)
    assert result.exit_code == 2
    assert result.error == f"ParseError: {argv[-2]}: not an exact rational: 'abc'"


def test_repeated_runs_are_byte_identical():
    for args in (["euler", TORUS], ["barcode", S2HP], ["product", TORUS, S2HP, "--filtered"]):
        assert payload(*args) == payload(*args)


# -- the process entry ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["barcode", S2HP], ["match", TORUS, S2H], ["euler", "no-such-file.fcw"], ["--help"], ["barcode"]],
    ids=["barcode", "domain-error", "parse-error", "help", "usage-error"],
)
def test_the_process_prints_what_run_returns(capsys, monkeypatch, argv):
    # buffered stdout and a small output: without the flush before the exit it would be lost
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    result = run(argv)
    assert capsys.readouterr() == ("", "")  # main alone writes, help and usage errors too
    proc = subprocess.run(
        [sys.executable, "-m", "fcw.cli", *argv], env=_child_env(), capture_output=True, text=True
    )
    assert proc.returncode == result.exit_code
    assert proc.stdout == result.payload
    assert proc.stderr == (result.error + "\n" if result.error else "")
    assert proc.stdout or proc.stderr


def test_main_leaves_the_collector_as_it_found_it(capsys):
    enabled = gc.isenabled()
    try:
        for state in (False, True):
            (gc.enable if state else gc.disable)()
            assert main(["barcode", S2HP]) == 0
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_failed_output_write_is_exit_1_with_one_line(unbuffered):
    # buffered, the write fails at the flush; unbuffered, at the write itself
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fcw.cli", "sphere", "-k", "1", "-l", "0"],
            env=_child_env(unbuffered), stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("OSError: cannot write output: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
