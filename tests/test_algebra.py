"""Unit and property tests for the exact arithmetic kernels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisym.algebra import (
    CharacterFunction,
    LiftPolynomial,
    NonUnitError,
    OrderMismatchError,
    TruncatedSeries,
    genus_line_factor,
)


# ---------------------------------------------------------------------------
# TruncatedSeries


def test_geometric_series_times_one_minus_x_is_one():
    geom = TruncatedSeries(5, [1] * 6)
    assert geom * TruncatedSeries(5, [1, -1]) == TruncatedSeries.one(5)


def test_inverse_of_one_plus_x_plus_x2():
    s = TruncatedSeries(4, [1, 1, 1])
    assert s.inverse() == TruncatedSeries(4, [1, -1, 0, 1, -1])


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NonUnitError):
        TruncatedSeries(3, [0, 1]).inverse()


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        TruncatedSeries(3, [1]) * TruncatedSeries(4, [1])
    with pytest.raises(OrderMismatchError):
        TruncatedSeries(3, [1]) + TruncatedSeries(2, [1])


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries(2, [1.0])
    with pytest.raises(TypeError):
        LiftPolynomial([0.5])


def test_pow_matches_repeated_product():
    s = TruncatedSeries(6, [1, 2, 3])
    p = TruncatedSeries.one(6)
    for _ in range(5):
        p = p * s
    assert s**5 == p
    assert s**0 == TruncatedSeries.one(6)


small_ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(small_ints, min_size=1, max_size=7), st.integers(1, 9))
def test_product_inverse_round_trip(tail, lead):
    order = 6
    s = TruncatedSeries(order, ([lead] + tail)[: order + 1])
    assert s * s.inverse() == TruncatedSeries.one(order)


@given(
    st.lists(small_ints, min_size=7, max_size=7),
    st.lists(small_ints, min_size=7, max_size=7),
    st.lists(small_ints, min_size=7, max_size=7),
)
def test_series_ring_axioms(a, b, c):
    order = 6
    sa, sb, sc = (TruncatedSeries(order, v) for v in (a, b, c))
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


# ---------------------------------------------------------------------------
# Genus line factors


def test_l_genus_factor_weight_one():
    assert genus_line_factor("l_genus", 1, 5) == TruncatedSeries(
        5, [1, 0, F(1, 3), 0, F(-1, 45), 0]
    )


def test_a_hat_factor_weight_one():
    assert genus_line_factor("a_hat", 1, 5) == TruncatedSeries(
        5, [1, 0, F(-1, 24), 0, F(7, 5760), 0]
    )


def test_chern_and_pontrjagin_factors():
    assert genus_line_factor("chern", 3, 4) == TruncatedSeries(4, [1, 3])
    assert genus_line_factor("pontrjagin", 3, 4) == TruncatedSeries(4, [1, 0, 9])


@pytest.mark.parametrize("kind", ["a_hat", "l_genus"])
def test_even_kinds_degenerate_at_weight_zero(kind):
    assert genus_line_factor(kind, 0, 6) == TruncatedSeries.one(6)


@pytest.mark.parametrize("kind", ["a_hat", "l_genus"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_even_kinds_are_even_series(kind, d):
    s = genus_line_factor(kind, d, 7)
    assert all(s.coefficient(k) == 0 for k in range(1, 8, 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hyperbolic_factors_against_sympy(d):
    # Independent symbolic route for the same Taylor coefficients.
    import sympy

    x = sympy.Symbol("x")
    order = 8
    lg = sympy.series(d * x / sympy.tanh(d * x), x, 0, order + 1).removeO()
    ah = sympy.series(
        (d * x / 2) / sympy.sinh(d * x / 2), x, 0, order + 1
    ).removeO()
    lg_ours = genus_line_factor("l_genus", d, order)
    ah_ours = genus_line_factor("a_hat", d, order)
    for k in range(order + 1):
        assert F(str(lg.coeff(x, k))) == lg_ours.coefficient(k)
        assert F(str(ah.coeff(x, k))) == ah_ours.coefficient(k)


def test_unknown_genus_kind_rejected():
    with pytest.raises(ValueError):
        genus_line_factor("todd", 1, 3)


# ---------------------------------------------------------------------------
# LiftPolynomial


def test_shifted_lift_cube():
    p = LiftPolynomial.shifted_lift(2) ** 3
    assert p == LiftPolynomial([8, 12, 6, 1])
    assert p(-2) == 0
    assert p(0) == 8


def test_lift_polynomial_trim_and_zero():
    assert LiftPolynomial([0, 0]).is_zero()
    assert LiftPolynomial([1, 0]).degree == 0
    assert LiftPolynomial().constant_value() == 0
    assert LiftPolynomial([5]).constant_value() == 5
    assert LiftPolynomial([5, 1]).constant_value() is None


@given(
    st.lists(small_ints, min_size=1, max_size=5),
    st.lists(small_ints, min_size=1, max_size=5),
    small_ints,
)
def test_lift_polynomial_evaluation_is_a_homomorphism(a, b, v):
    pa, pb = LiftPolynomial(a), LiftPolynomial(b)
    assert (pa + pb)(v) == pa(v) + pb(v)
    assert (pa * pb)(v) == pa(v) * pb(v)
    assert (pa - pb)(v) == pa(v) - pb(v)


@given(st.lists(small_ints, min_size=1, max_size=6), small_ints)
def test_lift_polynomial_scalar_action(a, s):
    pa = LiftPolynomial(a)
    assert s * pa == pa * s == LiftPolynomial([s * c for c in a])


# ---------------------------------------------------------------------------
# CharacterFunction


def point_factor(n):
    """(1 + q^-n) / (1 - q^-n), the one-weight signature factor."""
    return CharacterFunction.from_laurent({0: 1, -n: 1}, {0: 1, -n: -1})


def test_point_factor_normal_form_and_limit():
    f = point_factor(2)
    assert f == CharacterFunction((1, 0, 1), (-1, 0, 1))
    assert f.limit_at_infinity() == 1
    assert f.is_constant() is None


def test_laurent_translation_invariance():
    # q^k * num / (q^k * den) is the same function.
    f = CharacterFunction((1, 2), (3, 4))
    g = CharacterFunction((0, 0, 1, 2), (0, 0, 3, 4))
    assert f == g
    assert f.num == g.num and f.den == g.den


def test_surface_kernel_sum_collapses():
    # q/(1-q)^2 + q^-1/(1-q^-1)^2 = 2q/(1-q)^2: the two normal orientations
    # of a weight-one root give the same kernel.
    g1 = CharacterFunction((0, 1), (1, -2, 1))
    g2 = CharacterFunction.from_laurent({-1: 1}, {0: 1, -1: -2, -2: 1})
    assert g1 + g2 == 2 * g1


def test_constant_detection_by_cross_multiplication():
    f = CharacterFunction((2, -2), (1, -1))
    assert f.is_constant() == 2
    g = CharacterFunction((1, 1), (1, -1))
    assert g.is_constant() is None
    assert CharacterFunction.zero().is_constant() == 0


def test_difference_with_itself_is_constant_zero():
    f = point_factor(3) * point_factor(1)
    assert (f - f).is_constant() == 0


def test_limit_cases():
    assert CharacterFunction((1,), (1, -1)).limit_at_infinity() == 0
    assert CharacterFunction((1, -1), (1,)).limit_at_infinity() is None
    assert CharacterFunction.constant(F(5, 3)).limit_at_infinity() == F(5, 3)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        CharacterFunction((1,), (0,))


weight = st.integers(min_value=1, max_value=6)


@given(st.lists(weight, min_size=1, max_size=3), st.lists(weight, min_size=1, max_size=3))
def test_character_sum_commutes_and_globalizes_limits(ws1, ws2):
    f = sum((point_factor(n) for n in ws1), CharacterFunction.zero())
    g = sum((point_factor(n) for n in ws2), CharacterFunction.zero())
    assert f + g == g + f
    lf, lg = f.limit_at_infinity(), g.limit_at_infinity()
    assert (f + g).limit_at_infinity() == lf + lg


@settings(max_examples=200)
@given(st.lists(weight, min_size=1, max_size=3))
def test_point_product_limit_is_one(ws):
    f = CharacterFunction.constant(1)
    for n in ws:
        f = f * point_factor(n)
    assert f.limit_at_infinity() == 1
