"""The benchmark's four workloads.

Each workload is a pure function of the seed: its input files, one *round*
of `fcw` operations in dependency order (a construction writes the file
that later operations of the round read), the untimed warm-up operations,
and for every operation a check of its output.  A run repeats whole rounds,
so the mix of operations is the same in every run.

Sizes are chosen so that a round takes a few seconds on a 2-core machine
and no single operation takes more than about a second with the numpy
kernels; see README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import fcw
import gen

# check(stdout, stderr, first stdout of every operation of the round by label)
Check = Callable[[str, str, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    """One `fcw` invocation; arguments name files in the work directory."""

    args: tuple
    check: Check
    out: str | None = None  # stdout goes to this input file of later operations
    exit_code: int = 0

    @property
    def label(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    name: str
    files: dict  # file name -> text
    ops: list  # one round
    # Untimed operations before the loop.  Every subcommand imports the whole
    # package, so one process fills the bytecode caches; with numba, they call
    # each kernel the round uses (the barcode reduction, and the matching of
    # `bottleneck`), whose compiled code is cached on disk at first use.
    warmup: list
    tail_q: int = 75  # the percentile reported as latency_tail_s
    # Labels of the operations replayed under tracemalloc; all when None.
    alloc_ops: frozenset | None = None

    def write(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def exit_only(out, err, outputs):
    return None


def text_is(want: str) -> Check:
    return lambda out, err, outputs: checks.same("output", out, want)


# -- grid-barcode ---------------------------------------------------------------

GRID_SIDES = (30, 40, 50)
ORACLE_LEVELS = 4  # Gaussian-elimination levels on the smallest grid


def _grid(rng, side):
    values = gen.grid_values(rng, side)
    cells = list(gen.grid_cells(values))
    return values, gen.model(cells), gen.document(cells)


def grid_barcode(rng: random.Random, root: Path) -> Workload:
    files, ops = {}, []
    for side in GRID_SIDES:
        values, model, doc = _grid(rng, side)
        name = f"grid{side}.fcw"
        files[name] = doc
        # The library cross-checks (Gaussian elimination, euler_char_sublevel)
        # are slow in exact arithmetic, so they run on the smallest grid only.
        if side == GRID_SIDES[0]:
            spectrum = sorted({w for _, w in model})
            step = len(spectrum) // ORACLE_LEVELS
            oracle, curve_levels = spectrum[step // 2 :: step], spectrum
        else:
            oracle, curve_levels = (), ()
        ops += _grid_ops(name, values, model, doc, oracle, curve_levels)
    # `validate` costs little more than start-up.  On the smallest and the
    # largest grid it makes a round of eleven operations, whose median is one
    # operation (`info` on the middle grid) rather than the mean of two
    # operations a sixth apart in cost.
    ops += [Op(("validate", f"grid{side}.fcw"), text_is("ok\n")) for side in (GRID_SIDES[0], GRID_SIDES[-1])]
    files["warm.fcw"] = _grid(rng, 4)[2]
    warmup = [Op(("barcode", "warm.fcw"), exit_only)]
    return Workload("grid-barcode", files, ops, warmup)


def _grid_ops(name, values, model, doc, oracle, curve_levels):
    return [
        Op(("barcode", name), lambda out, err, outputs: checks.grid_barcode(out, values, doc, oracle)),
        Op(
            ("euler-curve", name),
            lambda out, err, outputs: checks.euler_curve(out, model, doc, curve_levels),
        ),
        Op(("info", name), text_is(checks.info_text(model))),
    ]


# -- bottleneck-pairs -------------------------------------------------------------

# Bottleneck time grows with the square of the bar count, which varies from
# seed to seed, so the round spreads over many independent mid-sized pairs.
PAIR_SIDES = (18, 20, 21, 22, 24)
PERTURB_STEPS = 2  # vertex shifts of at most 2/24


def bottleneck_pairs(rng: random.Random, root: Path) -> Workload:
    files, ops = {}, []

    def grid(name, side):
        values = gen.grid_values(rng, side)
        files[name] = gen.document(gen.grid_cells(values))
        return values

    for side in PAIR_SIDES:
        moved, eps = gen.perturb(rng, grid(f"a{side}.fcw", side), PERTURB_STEPS)
        files[f"p{side}.fcw"] = gen.document(gen.grid_cells(moved))
        ops.append(Op(("bottleneck", f"a{side}.fcw", f"p{side}.fcw"), _within(eps)))
    ops.append(Op(("bottleneck", "p18.fcw", "a18.fcw"), _symmetric("bottleneck a18.fcw p18.fcw")))
    for (left, left_side), (right, right_side) in ((("x20.fcw", 20), ("y20.fcw", 20)), (("x18.fcw", 18), ("y24.fcw", 24))):
        grid(left, left_side)
        grid(right, right_side)
        ops.append(Op(("bottleneck", left, right), _finite))
        ops.append(Op(("bottleneck", right, left), _symmetric(f"bottleneck {left} {right}")))
    grid("s22.fcw", 22)
    ops.append(Op(("bottleneck", "s22.fcw", "s22.fcw"), text_is("0\n")))
    # 2 x 2 grids have at most six bars per degree and pair, few enough for
    # the permutation-enumeration oracle to give the exact distance.
    for k in (1, 2):
        left, right = f"t{k}a.fcw", f"t{k}b.fcw"
        grid(left, 2)
        grid(right, 2)
        ops.append(Op(("bottleneck", left, right), _exact(files[left], files[right])))
    full = "bottleneck a24.fcw p24.fcw"
    for dim in (0, 1):
        ops.append(Op(("bottleneck", "a24.fcw", "p24.fcw", "--dim", str(dim)), _degree(full, dim)))
    grid("warm.fcw", 4)
    warmup = [Op(("bottleneck", "warm.fcw", "warm.fcw"), exit_only)]
    # tracemalloc slows the bottleneck's Fraction arithmetic about sixfold,
    # so allocation peaks come from the pairs with the largest grids only.
    largest = frozenset({"bottleneck a24.fcw p24.fcw", "bottleneck x18.fcw y24.fcw"})
    return Workload("bottleneck-pairs", files, ops, warmup, alloc_ops=largest)


def _finite(out, err, outputs):
    d = checks.parse_scalar(out)
    if d == math.inf or d < 0:
        return f"distance {out.strip()} is not a finite nonnegative number"
    return None


def _within(eps) -> Check:
    def check(out, err, outputs):
        d = checks.parse_scalar(out)
        return None if d <= eps else f"distance {d} exceeds the perturbation size {eps}"

    return check


def _exact(left: str, right: str) -> Check:
    return lambda out, err, outputs: checks.bottleneck_oracle(out, left, right)


def _symmetric(reverse: str) -> Check:
    return lambda out, err, outputs: checks.same("d(a,b) vs d(b,a)", out, outputs[reverse])


def _degree(full: str, dim: int) -> Check:
    def check(out, err, outputs):
        d, whole = checks.parse_scalar(out), checks.parse_scalar(outputs[full])
        if d > whole:
            return f"degree-{dim} distance {d} exceeds the all-degree distance {whole}"
        other = outputs.get(full + f" --dim {1 - dim}")
        if other is not None and max(d, checks.parse_scalar(other)) != whole:
            return "max over degrees differs from the all-degree distance"
        return None

    return check


# -- algebra-io -------------------------------------------------------------------

# The three grids have the same side, so the two smashes and their read-backs cost
# about the same: most of a round is operations on 7k-cell documents, and
# both the median and the tail fall among them.
ALGEBRA_SIDES = {"a": 5, "b": 5, "c": 5}


def algebra_io(rng: random.Random, root: Path) -> Workload:
    files, m = {}, {}
    for key, side in ALGEBRA_SIDES.items():
        values, m[key], files[f"{key}.fcw"] = _grid(rng, side)
    smash_ab, smash_ac = gen.smash_model(m["a"], m["b"]), gen.smash_model(m["a"], m["c"])
    product_bc = gen.product_model(m["b"], m["c"])
    euler = {key: fcw.Polynomial(checks.euler_terms(model)) for key, model in m.items()}
    size = {key: fcw.Polynomial(checks.size_terms(model)) for key, model in m.items()}
    euler_ab = euler["a"] * euler["b"]
    ops = [
        Op(("smash", "a.fcw", "b.fcw", "--filtered"), _complex(smash_ab), out="ab.fcw"),
        Op(("smash", "a.fcw", "c.fcw", "--filtered"), _complex(smash_ac), out="ac.fcw"),
        Op(("product", "b.fcw", "c.fcw"), _complex(product_bc), out="bc.fcw"),
        Op(("wedge", "a.fcw", "b.fcw"), _complex(gen.wedge_model(m["a"], m["b"])), out="w_ab.fcw"),
        Op(("euler", "ab.fcw"), _poly(euler_ab, checks.euler_terms(smash_ab))),
        Op(("size", "ab.fcw"), _poly(size["a"] * size["b"], checks.size_terms(smash_ab))),
        Op(("kclass", "ab.fcw", "-n", "1"), _poly(euler_ab.scale(-1), None)),
        Op(("weighted-euler", "ab.fcw"), text_is(f"{checks.weighted(checks.euler_terms(smash_ab))}\n")),
        Op(("info", "ab.fcw"), text_is(checks.info_text(smash_ab))),
        Op(("euler", "ac.fcw"), _poly(euler["a"] * euler["c"], checks.euler_terms(smash_ac))),
        Op(("info", "ac.fcw"), text_is(checks.info_text(smash_ac))),
        Op(("match", "ab.fcw", "ac.fcw"), text_is(f"{_matching(smash_ab, smash_ac)}\n")),
        Op(("euler", "w_ab.fcw"), _poly(euler["a"] + euler["b"], None)),
        Op(("info", "bc.fcw"), text_is(checks.info_text(product_bc))),
    ]
    # Warm-up construction on a 2 x 2 grid: the same code, a fraction of the time.
    files["warm.fcw"] = _grid(rng, 2)[2]
    warmup = [Op(("smash", "warm.fcw", "warm.fcw", "--filtered"), exit_only, out="warm2.fcw")]
    return Workload("algebra-io", files, ops, warmup)


def _complex(model) -> Check:
    return lambda out, err, outputs: checks.complex_output(out, model)


def _poly(want: "fcw.Polynomial", terms) -> Check:
    """Output equals `want` (built with Polynomial's own + and *), and the
    model's terms when given."""

    def check(out, err, outputs):
        if terms is not None and checks.parse_render(out) != terms:
            return "polynomial differs from the model's"
        return checks.same("polynomial", out, want.render() + "\n")

    return check


def _matching(left, right) -> int:
    """Matching number of two models with equal Euler values at t = 1: half
    the odd coefficient gaps of their Euler polynomials."""
    gap = checks.euler_terms(left)
    for exp, coeff in checks.euler_terms(right).items():
        gap[exp] = gap.get(exp, 0) - coeff
    odd = sum(1 for c in gap.values() if c % 2)
    return odd // 2


# -- morse-batch ------------------------------------------------------------------

# Full pipelines on Morse data of every size; start-up sets their time but
# for euler-curve on the larger ones.  The tail is the quadratic euler-curve
# on complexes of CURVE_SIZES points, written by the generator: they are a
# quarter of a round, so p85 falls among them and not in the spread of
# start-up times.
MORSE_SIZES = (20, 100, 400, 1000)
CURVE_SIZES = (500, 600, 700, 800, 900)
MORSE_TAIL_Q = 85
FIXTURES = ("torus.fcw", "s2h.fcw", "s2hprime.fcw")


def morse_batch(rng: random.Random, root: Path) -> Workload:
    files, ops = {}, []
    for n in MORSE_SIZES:
        points = gen.morse_points(rng, n)
        files[f"m{n}.txt"] = gen.morse_text(points)
        ops += _morse_ops(f"m{n}.txt", f"b{n}.fcw", points)
    for n in CURVE_SIZES:
        model = gen.morse_model(gen.morse_points(rng, n))
        files[f"c{n}.fcw"] = gen.document(gen.morse_cells(model))
        ops.append(Op(("euler-curve", f"c{n}.fcw"), text_is(checks.euler_curve_text(model))))
    for name in FIXTURES:
        files[name] = (root / "tests" / "fixtures" / name).read_text(encoding="utf-8")
    ops += [
        Op(("euler", "torus.fcw"), text_is("-1*t^1 + -1*t^2 + 1*t^4\n")),
        Op(("match", "s2h.fcw", "s2hprime.fcw"), text_is("1\n")),
        Op(("bottleneck", "s2h.fcw", "s2hprime.fcw"), text_is("1/4\n")),
    ]
    # A second minimum becomes a finite-weight 0-cell, which `linearize` rejects.
    two_minima = gen.morse_points(rng, 30, minima=2)
    files["m2min.txt"] = gen.morse_text(two_minima)
    ops += [
        Op(("morse-build", "m2min.txt"), _complex(gen.morse_model(two_minima)), out="b2min.fcw"),
        Op(("linearize", "b2min.fcw"), _error("UnsupportedCell"), exit_code=1),
    ]
    warmup = [Op(("bottleneck", "s2h.fcw", "s2hprime.fcw"), exit_only)]
    return Workload("morse-batch", files, ops, warmup, tail_q=MORSE_TAIL_Q)


def _morse_ops(source, built, points):
    model = gen.morse_model(points)
    values = [v for v, _ in points]
    bounds = f"spheres: {sum(values, Fraction(0))}\nwedges: {sum(set(values), Fraction(0))}\n"
    lam = checks.size_terms(model)
    linearize = (
        f"lambda: {checks.render(lam)}\n"
        f"count: {len(model)}\n"
        f"weight: {checks.weighted(lam)}\n"
        f"euler: {checks.render(checks.euler_terms(model))}\n"
    )
    return [
        Op(("morse-bounds", source), text_is(bounds)),
        Op(("morse-build", source), _complex(model), out=built),
        Op(("linearize", built), text_is(linearize)),
        Op(("euler-curve", built), text_is(checks.euler_curve_text(model))),
    ]


def _error(name: str) -> Check:
    def check(out, err, outputs):
        if out or not err.startswith(name + ":"):
            return f"expected only a {name} message, got stdout {out[:40]!r}, stderr {err[:60]!r}"
        return None

    return check


# ---------------------------------------------------------------------------------

BY_NAME = {
    "grid-barcode": grid_barcode,
    "bottleneck-pairs": bottleneck_pairs,
    "algebra-io": algebra_io,
    "morse-batch": morse_batch,
}


def build(name: str, seed: int, root: Path) -> Workload:
    return BY_NAME[name](random.Random(f"{name}:{seed}"), root)
