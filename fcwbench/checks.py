"""Output checks for the fcw benchmark, run outside the timed region.

Expected texts are rebuilt from the generator's own models (see gen.py), so
most checks share no code with fcw.  Where a check is about fcw's own
algebra -- `Polynomial` products and sums, `euler_char_sublevel`,
`parse . serialize` -- it calls fcw, and the homology check calls the
Gaussian-elimination oracle in tests/helpers.py.  A check returns None when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import fcw
from helpers import brute_bottleneck, homology_ranks

# -- canonical text, rebuilt from models --------------------------------------


def signed_counts(model) -> dict:
    """weight -> signed cell count, zeros kept: the steps of the Euler curve."""
    out: dict = {}
    for dim, w in model:
        out[w] = out.get(w, 0) + (-1) ** dim
    return out


def euler_terms(model) -> dict:
    return {e: c for e, c in signed_counts(model).items() if c}


def size_terms(model) -> dict:
    return dict(Counter(w for _, w in model))


def render(terms: dict) -> str:
    """The `coeff*t^exp` rendering of fcw's Polynomial.render."""
    if not terms:
        return "0"
    return " + ".join(f"{Fraction(terms[e])}*t^{Fraction(e)}" for e in sorted(terms))


def parse_render(text: str) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, exp = term.split("*t^")
        out[Fraction(exp)] = Fraction(coeff)
    return out


def weighted(terms: dict) -> Fraction:
    """d/dt at t = 1."""
    return sum((Fraction(c) * e for e, c in terms.items()), Fraction(0))


def info_text(model) -> str:
    spectrum = sorted({w for _, w in model})
    dims = Counter(d for d, _ in model)
    dims[0] += 1  # the basepoint
    lines = [
        f"cells: {len(model) + 1}",
        "eternal-cells: 1",
        "spectrum:" + "".join(f" {v}" for v in spectrum),
        f"min-finite-weight: {spectrum[0]}",
        f"max-finite-weight: {spectrum[-1]}",
        f"cell-count: {len(model)}",
        f"weighted-size: {weighted(size_terms(model))}",
        f"weighted-euler: {weighted(euler_terms(model))}",
    ]
    lines += [f"dim {d}: {dims[d]}" for d in sorted(dims)]
    return "".join(f"{line}\n" for line in lines)


def euler_curve_text(model) -> str:
    """`r<TAB>euler` rows: -inf (basepoint only), then every spectral level."""
    steps = sorted(signed_counts(model).items())
    rows, chi = ["-inf\t1"], 1
    for level, delta in steps:
        chi += delta
        rows.append(f"{level}\t{chi}")
    return "r\teuler\n" + "".join(f"{row}\n" for row in rows)


def same(name: str, got: str, want: str):
    if got == want:
        return None
    return f"{name}: got {got[:80]!r}, expected {want[:80]!r}"


# -- complexes written by the program -------------------------------------------


def complex_output(text: str, model):
    """A construction's output: valid, canonical, and cell for cell the model."""
    try:
        x = fcw.parse_document(text)
    except fcw.FCWError as exc:
        return f"output does not parse: {exc}"
    violations = x.validate()
    if violations:
        return f"output fails validate(): {violations[0]}"
    if fcw.serialize_complex(x) != text:
        return "serialize(parse(output)) differs from the output"
    if fcw.parse_document(fcw.serialize_complex(x)) != x:
        return "parse(serialize(x)) != x"
    got = Counter((c.dim, c.weight) for c in x.cells if c.id != x.basepoint)
    if got != Counter(model):
        return "cells differ from the construction's model"
    return None


# -- barcodes -------------------------------------------------------------------


def parse_barcode(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "dim\tbirth\tdeath":
        raise ValueError("missing barcode header")
    bars = []
    for line in lines[1:]:
        dim, birth, death = line.split("\t")
        bars.append(
            (
                int(dim),
                -math.inf if birth == "-inf" else Fraction(birth),
                math.inf if death == "inf" else Fraction(death),
            )
        )
    return bars


def alive_counter(bars):
    """level -> {dim: bars alive}, by binary search over sorted endpoints."""
    births: dict = {}
    deaths: dict = {}
    for dim, b, d in bars:
        births.setdefault(dim, []).append(b)
        deaths.setdefault(dim, []).append(d)
    for table in (births, deaths):
        for values in table.values():
            values.sort()

    def alive(level) -> dict:
        out = {}
        for dim in births:
            n = bisect_right(births[dim], level) - bisect_right(deaths[dim], level)
            if n:
                out[dim] = n
        return out

    return alive


def grid_betti(values):
    """{level: (b0, b1)} of every sublevel of a lower-star grid plus basepoint.

    b0 comes from a union-find sweep over vertices and edges; a sublevel of
    a planar grid has no H2, so b1 = b0 - chi.
    """
    n = len(values)
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    events = []
    for i in range(n):
        for j in range(n):
            events.append((values[i][j], 0, (i, j), None))
            if j + 1 < n:
                events.append((max(values[i][j], values[i][j + 1]), 1, (i, j), (i, j + 1)))
            if i + 1 < n:
                events.append((max(values[i][j], values[i + 1][j]), 1, (i, j), (i + 1, j)))
            if i + 1 < n and j + 1 < n:
                w = max(values[i][j], values[i][j + 1], values[i + 1][j], values[i + 1][j + 1])
                events.append((w, 2, None, None))
    events.sort(key=lambda e: (e[0], e[1]))
    out = {}
    components, chi = 1, 1  # the basepoint
    for level, dim, a, b in events:
        chi += (-1) ** dim
        if dim == 0:
            parent[a] = a
            components += 1
        elif dim == 1:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                components -= 1
        out[level] = (components, components - chi)
    return out


def grid_barcode(text: str, values, document: str, oracle_levels=()):
    """Bars alive match the union-find Betti numbers at every level, and the
    Gaussian-elimination oracle at `oracle_levels`."""
    alive = alive_counter(parse_barcode(text))
    for level, (b0, b1) in grid_betti(values).items():
        want = {d: k for d, k in ((0, b0), (1, b1)) if k}
        if alive(level) != want:
            return f"bars alive at {level}: {alive(level)}, expected {want}"
    if oracle_levels:
        x = fcw.parse_complex(document)
        for level in oracle_levels:
            want = {d: k for d, k in homology_ranks(x, level).items() if k}
            if alive(level) != want:
                return f"bars alive at {level}: {alive(level)}, oracle says {want}"
    return None


def euler_curve(text: str, model, document: str, levels):
    """Rows equal the model's sweep, and FilteredComplex.euler_char_sublevel
    at `levels`."""
    problem = same("euler-curve", text, euler_curve_text(model))
    if problem or not levels:
        return problem
    x = fcw.parse_complex(document)
    rows = dict(line.split("\t") for line in text.splitlines()[1:])
    for level in levels:
        if int(rows[str(level)]) != x.euler_char_sublevel(level):
            return f"euler-curve at {level} differs from euler_char_sublevel"
    return None


# -- bottleneck -----------------------------------------------------------------


def parse_scalar(text: str):
    text = text.strip()
    return math.inf if text == "inf" else Fraction(text)


def bottleneck_oracle(text: str, left: str, right: str):
    """Equals tests/helpers.brute_bottleneck on the two documents' barcodes."""
    want = brute_bottleneck(fcw.barcode(fcw.parse_complex(left)), fcw.barcode(fcw.parse_complex(right)))
    return same("bottleneck", text, f"{'inf' if want is None else want}\n")
