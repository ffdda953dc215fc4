"""Ring arithmetic, differentiation and exact evaluation of exponent polynomials."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcw import NEG_INF, NonIntegerCoefficient, Polynomial

F = Fraction


def poly(*terms) -> Polynomial:
    return Polynomial(terms)


def test_monomial_eternal_exponent_is_zero():
    assert Polynomial.monomial(1, NEG_INF) == Polynomial.zero()


def test_monomial_zero_coefficient_is_zero():
    assert Polynomial.monomial(0, 3) == Polynomial.zero()
    assert poly((1, 2)).scale(0) == Polynomial.zero()
    assert not Polynomial.zero() and poly((1, 2))


def test_monomial_direct_construction():
    assert Polynomial.monomial(-1, F(1, 2)).render() == "-1*t^1/2"


@pytest.mark.parametrize("term", [(1, True), (1, 1.0), (1.5, 1), (True, 1), (F(1, 2), 0.5)])
def test_inexact_terms_are_rejected(term):
    with pytest.raises(TypeError):
        Polynomial([term])


def test_equal_exponents_in_any_form_sum_as_one_term():
    p = Polynomial([(1, 1), (F(2, 2), 2), (F(1, 2), F(1, 3)), (F(3, 6), 1)])
    assert p.terms() == ((F(1, 2), F(4, 3)), (F(1), F(3)))
    assert not Polynomial([(F(1, 2), 1), (F(2, 4), -1)])
    assert (p.coefficient(F(2, 4)), p.coefficient(1), p.coefficient(2)) == (F(4, 3), F(3), 0)


def test_add_cancels_terms():
    left = poly((1, 2), (F(1, 2), 1))
    assert left + poly((1, -1)) == poly((1, 1), (F(1, 2), 1))


def test_add_zero_is_identity():
    p = poly((1, -1), (2, -1), (4, 1))
    assert p + Polynomial.zero() == p


def test_add_assembles_torus_polynomial():
    a, b, c = F(1), F(2), F(4)
    total = Polynomial.monomial(-1, a) + Polynomial.monomial(-1, b) + Polynomial.monomial(1, c)
    assert total == poly((a, -1), (b, -1), (c, 1))


def test_mul_adds_exponents():
    assert Polynomial.monomial(1, F(1, 3)) * Polynomial.monomial(1, F(2, 3)) == poly((1, 1))


def test_mul_unit():
    p = poly((1, -1), (F(1, 2), 3))
    assert p * Polynomial.one() == p


def test_mul_scalar_gives_sphere_class():
    # (-1)**k * t^l, the class of the level-l k-sphere
    for k in range(4):
        got = Polynomial.monomial(1, F(3, 2)) * ((-1) ** k)
        assert got == Polynomial.monomial((-1) ** k, F(3, 2))
    # a str is neither a scalar nor a polynomial
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(got, "t")


def test_derivative_of_torus_polynomial():
    a, b, c = F(1), F(2), F(4)
    p = poly((a, -1), (b, -1), (c, 1))
    assert p.derivative() == poly((a - 1, -a), (b - 1, -b), (c - 1, c))


def test_derivative_of_constant_vanishes():
    assert poly((0, 5)).derivative() == Polynomial.zero()


def test_derivative_power_rule_on_fractional_exponent():
    assert poly((F(1, 2), 1)).derivative() == poly((F(-1, 2), F(1, 2)))


def test_shift_of_one_is_monomial():
    assert Polynomial.one().shift(F(5, 2)) == poly((F(5, 2), 1))


def test_shift_by_zero_is_identity():
    p = poly((1, 2), (F(-1, 3), 1))
    assert p.shift(0) == p


def test_shift_inverse():
    assert poly((1, 1)).shift(-1) == Polynomial.one()


def test_at_one_of_torus_is_reduced_euler():
    assert poly((1, -1), (2, -1), (4, 1)).at_one() == -1


def test_at_one_of_zero():
    assert Polynomial.zero().at_one() == 0


def test_at_one_of_derivative_gives_weighted_euler():
    a, b, c = F(1), F(2), F(4)
    p = poly((a, -1), (b, -1), (c, 1))
    assert p.derivative().at_one() == c - (a + b)


def test_truncate_keeps_small_exponents():
    p = poly((1, -1), (2, -1), (4, 1))
    assert p.truncate(2) == poly((1, -1), (2, -1))


def test_truncate_above_everything_is_identity():
    p = poly((1, -1), (4, 1))
    assert p.truncate(100) == p


def test_truncate_below_everything_is_zero():
    p = poly((1, -1), (4, 1))
    assert p.truncate(0) == Polynomial.zero()
    assert p.truncate(NEG_INF) == Polynomial.zero()


def test_mod2_flips_signs_to_plus_one():
    assert poly((F(1, 2), -1), (1, 1)).mod2() == poly((F(1, 2), 1), (1, 1))


def test_mod2_drops_even_coefficients():
    assert poly((3, 2)).mod2() == Polynomial.zero()
    assert Polynomial.zero().mod2() == Polynomial.zero()


def test_mod2_rejects_fractional_coefficients():
    with pytest.raises(NonIntegerCoefficient):
        poly((1, F(1, 2))).mod2()


def test_render_zero_and_ordering():
    assert Polynomial.zero().render() == "0"
    p = poly((1, 2), (F(1, 2), -1))
    assert p.render() == str(p) == "-1*t^1/2 + 2*t^1"
    assert repr(p) == "Polynomial('-1*t^1/2 + 2*t^1')"


# -- algebraic laws on random polynomials --------------------------------------

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=8).filter(lambda c: c != 0)
exponents = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polynomials = st.dictionaries(exponents, coefficients, max_size=5).map(Polynomial)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == Polynomial.zero()


@given(polynomials, polynomials)
def test_leibniz_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polynomials, rationals)
def test_derivative_of_shift(p, a):
    lhs = p.shift(a).derivative()
    rhs = p.derivative().shift(a) + Polynomial.monomial(a, a - 1) * p
    assert lhs == rhs


@given(polynomials, polynomials)
def test_at_one_is_a_ring_homomorphism(p, q):
    assert (p + q).at_one() == p.at_one() + q.at_one()
    assert (p * q).at_one() == p.at_one() * q.at_one()


@given(polynomials, rationals)
def test_truncate_splits_and_is_idempotent(p, r):
    low = p.truncate(r)
    assert low + (p - low) == p
    assert low.truncate(r) == low
