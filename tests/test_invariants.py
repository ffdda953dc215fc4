"""Polynomial invariants, the matching number, and the stable-class laws."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from helpers import random_complex, torus, two_sphere_two_peaks

from fcw import (
    Cell,
    EulerMismatch,
    FilteredComplex,
    NEG_INF,
    Polynomial,
    barcode,
    euler_from_barcode,
    euler_polynomial,
    invariant_report,
    k_class,
    matching_number,
    point,
    size_polynomial,
    smash,
    sphere,
    wedge,
    weighted_euler_char,
)
from fcw.invariants import euler_curve

F = Fraction


def poly(*terms) -> Polynomial:
    return Polynomial(terms)


def test_size_polynomial_of_sphere():
    s = sphere(3, F(5, 2))
    assert size_polynomial(s) == poly((F(5, 2), 1))
    report = invariant_report(s)
    assert report.cell_count == 1
    assert report.weighted_size == F(5, 2)


def test_size_polynomial_of_torus():
    t = torus(1, 2, 4)
    assert size_polynomial(t) == poly((1, 1), (2, 1), (4, 1))
    assert invariant_report(t).weighted_size == 7


def test_size_polynomial_ignores_eternal_cells():
    x = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF)], "pt")
    assert size_polynomial(x) == Polynomial.zero()


def test_euler_polynomial_of_torus():
    assert euler_polynomial(torus(1, 2, 4)) == poly((1, -1), (2, -1), (4, 1))


def test_euler_polynomial_of_two_peak_sphere():
    assert euler_polynomial(two_sphere_two_peaks()) == poly((F(1, 2), -1), (1, 2))


def test_euler_polynomial_truncated_to_nothing():
    assert euler_polynomial(torus(1, 2, 4), upto=NEG_INF) == Polynomial.zero()


def test_weighted_euler_char_examples():
    assert weighted_euler_char(torus(1, 2, 4)) == 4 - (1 + 2)
    assert weighted_euler_char(sphere(2, 1)) == 1
    assert weighted_euler_char(two_sphere_two_peaks()) == F(3, 2)


def test_matching_number_of_the_two_sphere_models():
    assert matching_number(sphere(2, 1), two_sphere_two_peaks()) == 1


def test_matching_number_of_identical_complexes():
    t = torus(1, 2, 4)
    assert matching_number(t, t) == 0


def test_matching_number_of_reweighted_tori():
    assert matching_number(torus(1, 2, 4), torus(1, 3, 4)) == 1


def test_matching_number_requires_equal_euler_value():
    with pytest.raises(EulerMismatch):
        matching_number(sphere(0, 0), point())


def test_matching_number_parity_on_random_reweightings():
    # two filtrations of the same total complex always have an even mismatch count
    rng = random.Random(47)
    pool = [F(0), F(1, 2), F(1), F(2), F(3)]
    for _ in range(50):
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 8))]
        x = FilteredComplex(
            [Cell("pt", 0, NEG_INF)]
            + [Cell(f"c{i}", d, rng.choice(pool)) for i, d in enumerate(dims)],
            "pt",
        )
        y = FilteredComplex(
            [Cell("pt", 0, NEG_INF)]
            + [Cell(f"c{i}", d, rng.choice(pool)) for i, d in enumerate(dims)],
            "pt",
        )
        m = matching_number(x, y)
        assert isinstance(m, int) and m >= 0


def test_k_class_of_the_generator():
    assert k_class(sphere(0, 0), 0) == Polynomial.one()


def test_k_class_sign_law():
    t = torus(1, 2, 4)
    for n in range(-2, 3):
        assert k_class(t, n + 1) == -k_class(t, n)


def test_k_class_of_torus():
    assert k_class(torus(1, 2, 4), 0) == euler_polynomial(torus(1, 2, 4))


@pytest.mark.parametrize("n", [1.5, True, "a", None])
def test_k_class_degree_must_be_an_int(n):
    with pytest.raises(TypeError, match=r"^degree must be an int, got "):
        k_class(torus(1, 2, 4), n)


def test_k_class_ring_and_module_laws():
    rng = random.Random(53)
    for _ in range(25):
        x, y = random_complex(rng, max_cells=7), random_complex(rng, max_cells=7)
        n, m = rng.randint(-2, 2), rng.randint(-2, 2)
        assert k_class(wedge(x, y), n) == k_class(x, n) + k_class(y, n)
        assert k_class(smash(x, y, filtered=True), n + m) == k_class(x, n) * k_class(y, m)
        a = F(rng.randint(-4, 4), rng.randint(1, 5))
        assert k_class(x.shift(a), n) == k_class(x, n).shift(a)
        assert k_class(x.suspend(), n) == k_class(x, n + 1)


def test_shift_equivariance_of_euler_polynomial():
    rng = random.Random(59)
    for _ in range(25):
        x = random_complex(rng)
        a = F(rng.randint(-6, 6), rng.randint(1, 4))
        assert euler_polynomial(x.shift(a)) == euler_polynomial(x).shift(a)


def test_smash_product_rule_for_weighted_polynomial():
    rng = random.Random(61)
    for _ in range(25):
        x, y = random_complex(rng, max_cells=7), random_complex(rng, max_cells=7)
        cx, cy = euler_polynomial(x), euler_polynomial(y)
        lhs = euler_polynomial(smash(x, y, filtered=True)).derivative()
        assert lhs == cx * cy.derivative() + cy * cx.derivative()
        # scalar form at t=1
        w = weighted_euler_char(smash(x, y, filtered=True))
        assert w == cx.at_one() * weighted_euler_char(y) + cy.at_one() * weighted_euler_char(x)


def _minimal_max_gap(difference: Polynomial):
    """Exhaustive minimal-cost pairing of the +1 terms against the -1 terms."""
    plus = [e for e, c in difference.terms() if c == 1]
    minus = [e for e, c in difference.terms() if c == -1]
    assert len(plus) == len(minus)
    if not plus:
        return F(0)
    best = None
    for perm in permutations(range(len(minus))):
        worst = max(abs(plus[i] - minus[j]) for i, j in enumerate(perm))
        if best is None or worst < best:
            best = worst
    return best


def test_closeness_bound_on_the_paper_style_pairs():
    pairs = [
        (torus(1, 2, 4), torus(1, 3, 4)),
        (sphere(2, 1), two_sphere_two_peaks()),
        (torus(0, 1, 2), torus(F(1, 2), F(3, 2), 2)),
    ]
    rng = random.Random(67)
    # zero-boundary random complexes reweighted cell-by-cell stay comparable
    for _ in range(40):
        x = random_complex(rng, max_cells=6, eternal_prob=0.0)
        if any(c.boundary for c in x.cells):
            continue
        moved = FilteredComplex(
            [
                Cell(c.id, c.dim, c.weight if c.id == "pt" else c.weight + F(rng.randint(-1, 1), 2), c.boundary)
                for c in x.cells
            ],
            "pt",
        )
        pairs.append((x, moved))
    for x, y in pairs:
        diff = euler_polynomial(x) - euler_polynomial(y)
        if any(abs(c) != 1 for _, c in diff.terms()):
            continue
        m = matching_number(x, y)
        if m == 0:
            continue
        gap = _minimal_max_gap(diff)
        lhs = abs(weighted_euler_char(x) - weighted_euler_char(y))
        assert lhs / m <= gap


def test_invariant_report_consistency():
    rng = random.Random(71)
    for _ in range(20):
        x = random_complex(rng)
        report = invariant_report(x)
        assert report.size_poly == size_polynomial(x)
        assert report.euler_poly == euler_polynomial(x)
        assert report.cell_count == report.size_poly.at_one()
        assert report.weighted_size == report.size_poly.derivative().at_one()
        assert report.weighted_euler == report.euler_poly.derivative().at_one()


def test_euler_curve_examples():
    assert euler_curve(two_sphere_two_peaks()) == [1, 0, 2]
    assert euler_curve(torus(1, 2, 4)) == [1, 0, -1, 0]
    assert euler_curve(point()) == [1]
    eternal = FilteredComplex([Cell("pt", 0, NEG_INF), Cell("e", 1, NEG_INF), Cell("v", 0, F(3))], "pt")
    assert euler_curve(eternal) == [0, 1]


def test_euler_curve_equals_cellular_and_barcode_euler():
    rng = random.Random(109)
    eternal_seen = 0
    for k in range(80):
        x = random_complex(rng, max_cells=20, eternal_prob=0.3 if k % 2 else 0.15)
        eternal_seen += sum(r == -1 for r in x.ranks().values()) > 1
        bc = barcode(x)
        levels = [NEG_INF, *x.spectrum()]
        curve = euler_curve(x)
        assert curve == [x.euler_char_sublevel(r) for r in levels]
        assert curve == [euler_from_barcode(bc, r) for r in levels]
    assert eternal_seen >= 20  # eternal cells besides the basepoint
