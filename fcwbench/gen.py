"""Seeded input generators for the fcw benchmark.

Everything here is a pure function of a `random.Random` and size
arguments, and none of it imports fcw: the documents are written from
the generator's own cell lists, so the checks in `checks.py` can use those
lists as an oracle that shares no code with the program under test.

A *model* is the list of non-basepoint cells as `(dim, weight)` pairs.
Every generated complex has an eternal basepoint `pt` and only finite
weights elsewhere, so the model fixes cell counts and every Euler and
size polynomial.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Vertex values are k/q with q drawn from these denominators, so each value
# is a multiple of 1/24 and a grid's spectrum has at most 24 * VALUE_SPAN
# points.  That caps the O(bars x spectrum) euler-curve at a few seconds.
DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)
VALUE_SPAN = 8


def rational(rng, span: int = VALUE_SPAN) -> Fraction:
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randrange(span * q), q)


def grid_values(rng, side: int) -> list[list[Fraction]]:
    return [[rational(rng) for _ in range(side)] for _ in range(side)]


def perturb(rng, values, steps: int):
    """Shift each vertex by k/24 with |k| <= steps; returns (values, sup-norm shift)."""
    out, eps = [], Fraction(0)
    for row in values:
        new_row = []
        for v in row:
            delta = Fraction(rng.randint(-steps, steps), 24)
            eps = max(eps, abs(delta))
            new_row.append(v + delta)
        out.append(new_row)
    return out, eps


def grid_cells(values):
    """Lower-star cubical complex of an n x n vertex grid, plus basepoint `pt`.

    Yields `(id, dim, weight, boundary ids)`; an edge or square takes the
    largest value among its vertices.
    """
    n = len(values)
    yield "pt", 0, None, ()
    for i in range(n):
        for j in range(n):
            yield f"v{i}_{j}", 0, values[i][j], ()
    for i in range(n):
        for j in range(n - 1):
            yield f"h{i}_{j}", 1, max(values[i][j], values[i][j + 1]), (f"v{i}_{j}", f"v{i}_{j + 1}")
    for i in range(n - 1):
        for j in range(n):
            yield f"u{i}_{j}", 1, max(values[i][j], values[i + 1][j]), (f"v{i}_{j}", f"v{i + 1}_{j}")
    for i in range(n - 1):
        for j in range(n - 1):
            w = max(values[i][j], values[i][j + 1], values[i + 1][j], values[i + 1][j + 1])
            yield f"s{i}_{j}", 2, w, (f"h{i}_{j}", f"h{i + 1}_{j}", f"u{i}_{j}", f"u{i}_{j + 1}")


def document(cells) -> str:
    """An `fcw/1` document; compact and key-ordered as written, not canonical."""
    records = [
        {
            "id": cid,
            "dim": dim,
            "weight": "-inf" if weight is None else str(weight),
            "boundary": {ref: 1 for ref in boundary},
        }
        for cid, dim, weight, boundary in cells
    ]
    return json.dumps({"format": "fcw/1", "basepoint": "pt", "cells": records}, separators=(",", ":")) + "\n"


def model(cells) -> list[tuple[int, Fraction]]:
    return [(dim, weight) for cid, dim, weight, _ in cells if cid != "pt"]


def morse_points(rng, count: int, minima: int = 1) -> list[tuple[Fraction, int]]:
    """`count` critical points; the first `minima` have index 0, the rest 1..3.

    The lowest value belongs to an index-0 point, as for a Morse function.
    """
    points = [(Fraction(0), 0)]
    points += [(rational(rng, 16) + 1, 0) for _ in range(minima - 1)]
    points += [(rational(rng, 16) + 1, rng.randint(1, 3)) for _ in range(count - minima)]
    rng.shuffle(points)
    return points


def morse_text(points) -> str:
    return "# value\tindex\n" + "".join(f"{v}\t{k}\n" for v, k in points)


def morse_model(points) -> list[tuple[int, Fraction]]:
    """Cells of `morse-build`: the lowest index-0 point becomes the basepoint."""
    base = min((p for p in points if p[1] == 0), key=lambda p: p[0])
    rest = list(points)
    rest.remove(base)
    return [(k, v) for v, k in rest]


def morse_cells(model):
    """The attachment model of `morse-build` for a Morse model: basepoint
    plus one boundaryless cell per point."""
    yield "pt", 0, None, ()
    for k, (dim, weight) in enumerate(model, 1):
        yield f"c{k}", dim, weight, ()


# -- models of the constructions ---------------------------------------------


def smash_model(x, y):
    """`smash --filtered`: non-basepoint pairs, dims and weights add."""
    return [(da + db, wa + wb) for da, wa in x for db, wb in y]


def wedge_model(x, y):
    return list(x) + list(y)


def product_model(x, y):
    """Naive `product`: all pairs but the basepoint pair, weights take the max."""
    xs = [(0, None)] + list(x)
    ys = [(0, None)] + list(y)
    out = []
    for da, wa in xs:
        for db, wb in ys:
            if wa is None and wb is None:
                continue
            out.append((da + db, wb if wa is None else wa if wb is None else max(wa, wb)))
    return out
