"""Acceptance gate: the headline exact results, one criterion per test.

Every comparison is exact rational equality (tolerance zero).  Each test
prints a `criterion N ...: PASS/FAIL` line so the suite doubles as a
checklist; run with `pytest tests/test_acceptance.py -s`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from helpers import (
    random_barcode,
    random_complex,
    torus,
    two_sphere_two_peaks,
)

from fcw import (
    Bar,
    Barcode,
    Cell,
    FilteredComplex,
    NEG_INF,
    POS_INF,
    Polynomial,
    barcode,
    bottleneck,
    bound_size_spheres,
    canonical_linearization,
    euler_from_barcode,
    euler_poly_rel,
    euler_polynomial,
    invariant_report,
    k_class,
    linearization_stats,
    matching_number,
    parse_complex,
    product,
    size_polynomial,
    smash,
    sphere,
    wedge,
    weighted_euler_char,
)

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_complexes():
    return [
        parse_complex((FIXTURES / name).read_text())
        for name in ("torus.fcw", "s2h.fcw", "s2hprime.fcw")
    ]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def test_criterion_1_torus_invariants():
    with criterion(1, "torus invariants"):
        t = torus(1, 2, 4)
        assert euler_polynomial(t) == Polynomial([(1, -1), (2, -1), (4, 1)])
        report = invariant_report(t)
        assert report.cell_count == 3
        assert report.weighted_size == 7
        assert report.weighted_euler == 4 - (1 + 2)


def test_criterion_2_sphere_invariants():
    with criterion(2, "sphere invariants"):
        for k in (0, 1, 2, 3):
            for level in (F(0), F(1), F(1, 2)):
                s = sphere(k, level)
                report = invariant_report(s)
                assert report.cell_count == 1
                assert report.weighted_size == level
                assert euler_polynomial(s) == Polynomial.monomial((-1) ** k, level)


def test_criterion_3_two_sphere_example():
    with criterion(3, "two-sphere barcodes, bottleneck 1/4, Morse bounds"):
        single = sphere(2, 1)
        double = two_sphere_two_peaks()
        assert barcode(single) == Barcode([Bar(0, NEG_INF, POS_INF), Bar(2, 1, POS_INF)])
        assert barcode(double) == Barcode(
            [Bar(0, NEG_INF, POS_INF), Bar(1, F(1, 2), 1), Bar(2, 1, POS_INF)]
        )
        assert bottleneck(barcode(single), barcode(double)) == F(1, 4)
        from fcw import MorseDatum
        single_datum = MorseDatum([(F(0), 0), (F(1), 2)])
        double_datum = MorseDatum([(F(0), 0), (F(1, 2), 1), (F(1), 2), (F(1), 2)])
        assert bound_size_spheres(single_datum) == 1
        assert bound_size_spheres(double_datum) == F(5, 2)
        assert size_polynomial(single).derivative().at_one() == 1
        assert size_polynomial(double).derivative().at_one() == F(5, 2)


def test_criterion_4_identity_suite_on_random_pairs():
    with criterion(4, "wedge/product/smash/suspend/shift identities, 200 pairs"):
        rng = random.Random(1000)
        for seed in range(200):
            x = random_complex(rng, max_cells=12)
            y = random_complex(rng, max_cells=12)
            cx, cy = euler_polynomial(x), euler_polynomial(y)
            assert euler_polynomial(wedge(x, y)) == cx + cy
            filtered_product = euler_polynomial(product(x, y, filtered=True))
            filtered_smash = euler_polynomial(smash(x, y, filtered=True))
            assert filtered_product == filtered_smash == cx * cy
            smash_derivative = euler_polynomial(smash(x, y, filtered=True)).derivative()
            assert smash_derivative == cx * cy.derivative() + cy * cx.derivative()
            assert euler_polynomial(x.suspend()) == -cx
            a = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert euler_polynomial(x.shift(a)) == cx.shift(a)


def test_criterion_5_k_class_laws():
    with criterion(5, "stable-class generator, sign, module and ring laws"):
        assert k_class(sphere(0, 0), 0) == Polynomial.one()
        rng = random.Random(2000)
        for seed in range(200):
            x = random_complex(rng, max_cells=10)
            y = random_complex(rng, max_cells=10)
            n, m = rng.randint(-3, 3), rng.randint(-3, 3)
            assert k_class(x, n + 1) == -k_class(x, n)
            a = F(rng.randint(-4, 4), rng.randint(1, 4))
            assert k_class(x.shift(a), n) == k_class(x, n).shift(a)
            assert k_class(smash(x, y, filtered=True), n + m) == k_class(x, n) * k_class(y, m)


def test_criterion_6_homology_euler_consistency():
    with criterion(6, "barcode Euler equals cellular Euler at, between and below the spectral points"):
        rng = random.Random(3000)
        subjects = fixture_complexes() + [random_complex(rng) for _ in range(50)]
        for x in subjects:
            bc = barcode(x)
            base = x.euler_char_sublevel(NEG_INF)
            spectrum = x.spectrum()
            between = [(a + b) / 2 for a, b in zip(spectrum, spectrum[1:])]
            below = [spectrum[0] - 1] if spectrum else []
            for level in [NEG_INF, *below, *spectrum, *between]:
                cellular = x.euler_char_sublevel(level)
                assert euler_from_barcode(bc, level) == cellular
                assert euler_polynomial(x, upto=level).at_one() == cellular - base


def test_criterion_7_linearization_recovery():
    with criterion(7, "canonical linearization recovers Euler polynomial and size"):
        for x in fixture_complexes():
            lin = canonical_linearization(x)
            assert euler_poly_rel(lin) == euler_polynomial(x)
            stats = linearization_stats(lin)
            assert stats.weight == size_polynomial(x).derivative().at_one()


def test_criterion_8_matching_number():
    with criterion(8, "matching number values and parity guarantee"):
        assert matching_number(sphere(2, 1), two_sphere_two_peaks()) == 1
        rng = random.Random(4000)
        for seed in range(200):
            x = random_complex(rng, max_cells=10)
            assert matching_number(x, x) == 0
            # reweight the same cells: equal t=1 Euler values by construction
            pool = [F(0), F(1, 2), F(1), F(2), F(3)]
            dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 10))]
            left = FilteredComplex(
                [Cell("pt", 0, NEG_INF)]
                + [Cell(f"c{i}", d, rng.choice(pool)) for i, d in enumerate(dims)],
                "pt",
            )
            right = FilteredComplex(
                [Cell("pt", 0, NEG_INF)]
                + [Cell(f"c{i}", d, rng.choice(pool)) for i, d in enumerate(dims)],
                "pt",
            )
            m = matching_number(left, right)  # internal parity assertion must hold
            assert m >= 0


def test_criterion_9_bottleneck_pseudometric():
    with criterion(9, "bottleneck pseudometric axioms, 100 random triples"):
        rng = random.Random(5000)
        for seed in range(100):
            a = random_barcode(rng, max_bars=20)
            b = random_barcode(rng, max_bars=20)
            c = random_barcode(rng, max_bars=20)
            d_ab, d_ba = bottleneck(a, b), bottleneck(b, a)
            assert d_ab == d_ba
            assert bottleneck(a, a) == 0
            d_bc, d_ac = bottleneck(b, c), bottleneck(a, c)
            if d_ab is POS_INF or d_bc is POS_INF:
                continue
            assert d_ac is not POS_INF
            assert d_ac <= d_ab + d_bc
