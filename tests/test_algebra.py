"""Unit and property tests for the exact arithmetic kernels."""

import copy
import pickle
import re
from fractions import Fraction as F
from itertools import zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from cisym.algebra import (
    CharacterFunction,
    LiftPolynomial,
    NonUnitError,
    OrderMismatchError,
    TruncatedSeries,
    _lowest,
    _sum,
    _taylor_shift,
    _unit_line_factor,
)
from lift_reads import value_at


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


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries(2, [1.0])
    with pytest.raises(TypeError):
        LiftPolynomial([0.5])


@pytest.mark.parametrize("order", [2.5, "3", True, False, None, F(2)])
def test_non_integer_order_rejected(order):
    with pytest.raises(TypeError, match="truncation order must be an integer"):
        TruncatedSeries(order, [1])


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        TruncatedSeries(-1)


def test_more_coefficients_than_the_order_rejected():
    with pytest.raises(ValueError, match="more coefficients than the"
                                         " truncation order allows"):
        TruncatedSeries(1, [1, 2, 3])


def test_pow_matches_repeated_product():
    s = TruncatedSeries(6, [1, 2, 3])
    p = TruncatedSeries.one(6)
    for _ in range(5):
        p = p * s
    assert s**5 == p
    assert s**0 == TruncatedSeries.one(6)


@pytest.mark.parametrize("x", [TruncatedSeries(3, [1, 2]),
                               LiftPolynomial([1, 2])], ids=repr)
@pytest.mark.parametrize("exponent", [-1, 1.5, True, False])
def test_pow_takes_a_nonnegative_int_exponent(x, exponent):
    # A bool is rejected here as every other kernel entry rejects one.
    with pytest.raises(ValueError,
                       match="exponent must be a nonnegative integer"):
        x ** exponent


small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
)


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


# Differential tests: every TruncatedSeries operation against plain lists of
# Fractions, with the schoolbook algorithms written out here.


def ref_coeffs(order, cs):
    return [F(c) for c in cs] + [F(0)] * (order + 1 - len(cs))


def ref_mul(a, b):
    n = len(a) - 1
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0))
            for k in range(n + 1)]


def ref_pow(a, e):
    out = ref_coeffs(len(a) - 1, [1])
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_inverse(a):
    inv = [1 / a[0]]
    for k in range(1, len(a)):
        inv.append(-sum((a[j] * inv[k - j] for j in range(1, k + 1)), F(0))
                   / a[0])
    return inv


def assert_series(s: TruncatedSeries, ref):
    """s has the coefficients ref, and s is in its normal form."""
    assert s.order == len(ref) - 1
    values = [s.coefficient(k) for k in range(s.order + 1)]
    assert values == ref and all(type(v) is F for v in values)
    assert len(s.num) == s.order + 1
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    rebuilt = TruncatedSeries(s.order, ref)
    assert s == rebuilt and hash(s) == hash(rebuilt)


def series_inputs(count):
    """An order and `count` coefficient lists that fit it."""
    return st.integers(0, 7).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(rationals, max_size=n + 1)] * count))


@given(series_inputs(1))
def test_series_construction_matches_reference(args):
    order, a = args
    assert_series(TruncatedSeries(order, a), ref_coeffs(order, a))
    assert_series(TruncatedSeries.one(order), ref_coeffs(order, [1]))
    assert_series(TruncatedSeries(order), ref_coeffs(order, []))
    with pytest.raises(IndexError):
        TruncatedSeries(order, a).coefficient(order + 1)


@given(series_inputs(2))
def test_series_ring_operations_match_reference(args):
    order, a, b = args
    sa, sb = TruncatedSeries(order, a), TruncatedSeries(order, b)
    ra, rb = ref_coeffs(order, a), ref_coeffs(order, b)
    assert_series(-sa, [-x for x in ra])
    assert_series(sa * sb, ref_mul(ra, rb))
    assert (sa == sb) == (ra == rb)


@given(series_inputs(1), st.integers(0, 6))
def test_series_powers_match_reference(args, e):
    order, a = args
    assert_series(TruncatedSeries(order, a) ** e,
                  ref_pow(ref_coeffs(order, a), e))


@given(series_inputs(1), rationals.filter(lambda c: c != 0))
def test_series_inverse_matches_reference(args, c0):
    order, a = args
    cs = [c0] + a[1:]
    assert_series(TruncatedSeries(order, cs).inverse(),
                  ref_inverse(ref_coeffs(order, cs)))
    with pytest.raises(NonUnitError):
        TruncatedSeries(order, [0] + a[1:]).inverse()


@given(series_inputs(1), st.integers(-12, 12))
def test_series_rescaling_matches_reference(args, d):
    order, a = args
    assert_series(TruncatedSeries(order, a).rescaled(d),
                  [c * d**k for k, c in enumerate(ref_coeffs(order, a))])


@given(series_inputs(1), rationals.filter(lambda c: c != 0),
       st.integers(-12, 12), st.integers(-12, 12))
def test_rescaling_commutes_with_inverse_and_composes(args, c0, d, e):
    order, a = args
    s = TruncatedSeries(order, [c0] + a[1:])
    assert s.rescaled(d).inverse() == s.inverse().rescaled(d)
    assert s.rescaled(d).rescaled(e) == s.rescaled(d * e)


@pytest.mark.parametrize("bad", [2.0, True, F(1, 2)])
def test_rescaling_takes_an_integer(bad):
    with pytest.raises(TypeError):
        TruncatedSeries(2, [1, 1]).rescaled(bad)


@pytest.mark.parametrize("order, coeffs, text", [
    (0, (), "0 + O(x^1)"),
    (0, (3,), "3 + O(x^1)"),
    (3, (), "0 + O(x^4)"),
    (2, (0, 1), "1*x + O(x^3)"),
    (4, (1, -1, F(1, 2), 0, F(-7, 3)),
     "1 + -1*x + 1/2*x^2 + -7/3*x^4 + O(x^5)"),
    (5, (0, 0, 0, 0, 0, F(4, 18)), "2/9*x^5 + O(x^6)"),
    (3, (-1, 2, -3, 4), "-1 + 2*x + -3*x^2 + 4*x^3 + O(x^4)"),
])
def test_series_repr_is_pinned(order, coeffs, text):
    assert repr(TruncatedSeries(order, coeffs)) == text


def test_series_repr_after_arithmetic():
    assert repr(line_factor("a_hat", 1, 6)) == (
        "1 + -1/24*x^2 + 7/5760*x^4 + -31/967680*x^6 + O(x^7)")
    assert repr(line_factor("l_genus", 2, 4)) == (
        "1 + 4/3*x^2 + -16/45*x^4 + O(x^5)")
    assert repr(TruncatedSeries(3, [1, 1]) ** 4) == (
        "1 + 4*x + 6*x^2 + 4*x^3 + O(x^4)")
    assert repr(TruncatedSeries(2, [2, 1]).inverse()) == (
        "1/2 + -1/4*x + 1/8*x^2 + O(x^3)")


@pytest.mark.parametrize("bad", [0.5, True, "1"])
def test_series_rejects_non_exact_coefficients(bad):
    with pytest.raises(TypeError):
        TruncatedSeries(2, [1, bad])


# ---------------------------------------------------------------------------
# Genus line factors

GENUS_KINDS = ("a_hat", "l_genus")


def line_factor(kind, d, order):
    """The line factor of a genus at line weight d: the weight-1 factor at
    d*x, as invariants rescales it."""
    return _unit_line_factor(kind, order)[0].rescaled(d)


def test_l_genus_factor_weight_one():
    assert line_factor("l_genus", 1, 5) == TruncatedSeries(
        5, [1, 0, F(1, 3), 0, F(-1, 45), 0]
    )


def test_a_hat_factor_weight_one():
    assert line_factor("a_hat", 1, 5) == TruncatedSeries(
        5, [1, 0, F(-1, 24), 0, F(7, 5760), 0]
    )


@pytest.mark.parametrize("kind", ["a_hat", "l_genus"])
def test_even_kinds_degenerate_at_weight_zero(kind):
    assert line_factor(kind, 0, 6) == TruncatedSeries.one(6)


@pytest.mark.parametrize("kind", ["a_hat", "l_genus"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_even_kinds_are_even_series(kind, d):
    s = line_factor(kind, d, 7)
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
    lg_ours = line_factor("l_genus", d, order)
    ah_ours = line_factor("a_hat", d, order)
    for k in range(order + 1):
        assert F(str(lg.coeff(x, k))) == lg_ours.coefficient(k)
        assert F(str(ah.coeff(x, k))) == ah_ours.coefficient(k)


@given(st.sampled_from(GENUS_KINDS), st.integers(-30, 30), st.integers(0, 9))
def test_line_factor_at_weight_d_is_the_weight_one_factor_rescaled(
        kind, d, order):
    # invariants inverts once, at weight 1, and rescales the inverse to
    # each degree: that is the inverse of the factor at weight d.
    factor, inverse = _unit_line_factor(kind, order)
    assert inverse.rescaled(d) == factor.rescaled(d).inverse()


@given(st.sampled_from(GENUS_KINDS), st.integers(0, 12))
def test_unit_line_factor_times_its_inverse_is_one(kind, order):
    factor, inverse = _unit_line_factor(kind, order)
    assert factor * inverse == TruncatedSeries.one(order)


@pytest.mark.parametrize("kind", GENUS_KINDS)
@pytest.mark.parametrize("scale", [2.5, True])
def test_line_weight_must_be_an_integer(kind, scale):
    with pytest.raises(TypeError, match="scale must be an integer"):
        line_factor(kind, scale, 3)


# ---------------------------------------------------------------------------
# LiftPolynomial


def test_shifted_lift_cube():
    p = LiftPolynomial.shifted_lift(2) ** 3
    assert p == LiftPolynomial([8, 12, 6, 1])
    assert (p.num, p.den) == ((8, 12, 6, 1), 1)


def test_lift_polynomial_trim_and_zero():
    assert LiftPolynomial([0, 0]).is_zero()
    assert LiftPolynomial([0, 0]) == LiftPolynomial.constant(0)
    assert (LiftPolynomial([1, 0]).num, LiftPolynomial([1, 0]).den) == ((1,), 1)
    assert LiftPolynomial([5]) == LiftPolynomial.constant(5)
    assert LiftPolynomial([5, 1]).num == (5, 1)


@given(
    st.lists(small_ints, min_size=1, max_size=5),
    st.lists(small_ints, min_size=1, max_size=5),
    small_ints,
)
def test_lift_polynomial_evaluation_is_a_homomorphism(a, b, v):
    pa, pb = LiftPolynomial(a), LiftPolynomial(b)
    assert value_at(pa + pb, v) == value_at(pa, v) + value_at(pb, v)
    assert value_at(pa * pb, v) == value_at(pa, v) * value_at(pb, v)
    assert value_at(pa - pb, v) == value_at(pa, v) - value_at(pb, v)


@given(st.lists(small_ints, min_size=1, max_size=6), small_ints)
def test_lift_polynomial_scalar_action(a, s):
    pa = LiftPolynomial(a)
    assert s * pa == pa * s == LiftPolynomial([s * c for c in a])


# Differential tests: every LiftPolynomial operation against sympy's
# polynomials over QQ, built from the same coefficient lists.

L = sympy.Symbol("l")
coeff_lists = st.lists(rationals, max_size=5)


def reference(cs) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(F(c).numerator, F(c).denominator)
                       for c in reversed(cs)] or [0], L, domain=sympy.QQ)


def from_sympy(value) -> F:
    return F(int(value.p), int(value.q))


def assert_matches(p: LiftPolynomial, ref: sympy.Poly):
    """p and ref are the same polynomial, and p is in its normal form."""
    cs = [from_sympy(c) for c in reversed(ref.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    assert [F(c, p.den) for c in p.num] == cs
    assert p.is_zero() == (not cs)
    assert p.den > 0 and gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    q = LiftPolynomial(cs)
    assert p == q and hash(p) == hash(q)


@given(coeff_lists)
def test_lift_polynomial_construction_matches_sympy(a):
    assert_matches(LiftPolynomial(a), reference(a))
    assert_matches(LiftPolynomial(a + [0, 0]), reference(a))


@given(coeff_lists, coeff_lists)
def test_lift_polynomial_ring_operations_match_sympy(a, b):
    pa, pb = LiftPolynomial(a), LiftPolynomial(b)
    ra, rb = reference(a), reference(b)
    assert_matches(pa + pb, ra + rb)
    assert_matches(pa - pb, ra - rb)
    assert_matches(-pa, -ra)
    assert_matches(pa * pb, ra * rb)
    assert (pa == pb) == (ra == rb)


@given(coeff_lists)
def test_a_zero_operand_gives_the_other_one_back(a):
    p, zero = LiftPolynomial(a), LiftPolynomial()
    ref = reference(a)
    for got, want in ((p + zero, ref), (zero + p, ref), (p - zero, ref),
                      (zero - p, -ref)):
        assert_matches(got, want)
    assert (p + zero, zero + p, p - zero, zero - p) == (p, p, p, -p)


@given(coeff_lists, rationals)
def test_lift_polynomial_scalar_products_match_sympy(a, s):
    pa, ra = LiftPolynomial(a), reference(a)
    rs = sympy.Rational(F(s).numerator, F(s).denominator)
    assert_matches(pa * s, ra * rs)
    assert_matches(s * pa, ra * rs)
    assert_matches(pa * F(s), ra * rs)


@given(coeff_lists, st.integers(0, 4))
def test_lift_polynomial_powers_match_sympy(a, e):
    assert_matches(LiftPolynomial(a) ** e, reference(a) ** e)


@given(rationals, rationals, st.integers(0, 4))
def test_linear_powers_match_sympy(c0, c1, e):
    # Linear polynomials take the binomial route through __pow__.
    assert_matches(LiftPolynomial([c0, c1]) ** e, reference([c0, c1]) ** e)
    assert_matches(LiftPolynomial.shifted_lift(c0) ** e,
                   reference([c0, 1]) ** e)


@pytest.mark.parametrize("coeffs, text", [
    ((), "0"),
    ((-3,), "-3"),
    ((F(4, 6), 0, 0), "2/3"),
    ((5, 1), "l + 5"),
    ((0, F(-2, 3)), "-2/3*l"),
    ((0, 1, 0, 1), "l^3 + l"),
    ((F(1, 2), -1, 0, 1), "l^3 + -1*l + 1/2"),
    ((0, 0, F(3, 2), F(-7, 4)), "-7/4*l^3 + 3/2*l^2"),
    ((F(-1, 6), F(-1, 2), F(-1, 2), F(-1, 6)),
     "-1/6*l^3 + -1/2*l^2 + -1/2*l + -1/6"),
])
def test_lift_polynomial_repr_is_pinned(coeffs, text):
    assert repr(LiftPolynomial(coeffs)) == text


def test_lift_polynomial_repr_after_arithmetic():
    p = LiftPolynomial([F(1, 2), F(1, 3)]) * LiftPolynomial([F(2, 3), F(3, 2)])
    assert repr(p) == "1/2*l^2 + 35/36*l + 1/3"
    q = LiftPolynomial.shifted_lift(F(-1, 2)) ** 3 * F(4, 3)
    assert repr(q - LiftPolynomial([0, F(1, 2)])) == (
        "4/3*l^3 + -2*l^2 + 1/2*l + -1/6")


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1"])
def test_lift_polynomial_rejects_non_exact_scalars(bad):
    p = LiftPolynomial([1, 2])
    with pytest.raises(TypeError):
        p * bad
    with pytest.raises(TypeError):
        LiftPolynomial.constant(bad)


@pytest.mark.parametrize("index", [True, False, 1.0, 1.5])
def test_coefficient_indices_must_be_integers(index):
    # A bool would read as 0 or 1 and a float would escape as a bare
    # tuple-index error; both are refused with the index named.
    with pytest.raises(TypeError, match=re.escape(f"got {index!r}")):
        TruncatedSeries(3, [1, 2, 3]).coefficient(index)


@given(st.integers(-10**6, 10**6))
def test_an_integer_constant_has_the_parts_of_its_fraction(n):
    p, q = LiftPolynomial.constant(n), LiftPolynomial.constant(F(n))
    assert (p.num, p.den) == (q.num, q.den) and p == q
    assert all(type(x) is int for x in p.num + (p.den,))


@given(coeff_lists)
def test_equal_operands_subtract_to_the_canonical_zero(a):
    p, q = LiftPolynomial(a), LiftPolynomial(list(a))
    assert p is not q and p == q
    d = p - q
    assert d == LiftPolynomial() and (d.num, d.den) == ((), 1)


@given(coeff_lists, coeff_lists)
def test_unequal_operands_subtract_over_the_common_denominator(a, b):
    p, q = LiftPolynomial(a), LiftPolynomial(b)
    assume(p != q and p.num and q.num)
    d, want = p - q, _lowest(*_sum(p, q, -1))
    assert (d.num, d.den) == (want.num, want.den)


def test_equal_numerators_over_other_denominators_do_not_cancel():
    p, q = LiftPolynomial([1, 2]), LiftPolynomial([F(1, 2), 1])
    assert p.num == q.num and p.den != q.den
    assert p - q == LiftPolynomial([F(1, 2), 1])


# The integer Taylor shift that forms the local data and the search columns.

shift_ints = st.integers(-10**4, 10**4)
four_ints = st.tuples(shift_ints, shift_ints, shift_ints, shift_ints)


@given(four_ints, shift_ints)
def test_taylor_shift_is_the_sum_over_the_powers_of_the_shifted_lift(c, a):
    u = LiftPolynomial.shifted_lift(a)
    want = LiftPolynomial()
    for k, ck in enumerate(c):
        want = want + u**k * ck
    got = _taylor_shift(c, a)
    assert type(got) is tuple and all(type(x) is int for x in got)
    assert LiftPolynomial(got) == want


@given(four_ints, shift_ints, shift_ints)
def test_taylor_shift_is_a_group_action_of_the_lifts(c, a, b):
    assert _taylor_shift(_taylor_shift(c, a), b) == _taylor_shift(c, a + b)
    assert _taylor_shift(c, 0) == c


# ---------------------------------------------------------------------------
# CharacterFunction


def point_factor(n):
    """(1 + q^-n) / (1 - q^-n), the one-weight signature factor, written
    as (q^n + 1) / (q^n - 1): both parts multiplied through by q^n."""
    ends = (0,) * (n - 1)
    return CharacterFunction((1, *ends, 1), (-1, *ends, 1))


def test_point_factor_normal_form():
    f = point_factor(2)
    assert f == CharacterFunction((1, 0, 1), (-1, 0, 1))
    assert f.is_constant() is None


def test_surface_kernel_sum_collapses():
    # q/(1-q)^2 + q^-1/(1-q^-1)^2 = 2q/(1-q)^2: the two normal orientations
    # of a weight-one root give the same kernel.  The second is written
    # with both parts multiplied through by q^3, over another power of q
    # than g1, so the constructor must divide it out.
    g1 = CharacterFunction((0, 1), (1, -2, 1))
    g2 = CharacterFunction((0, 0, 1), (0, 1, -2, 1))
    assert (g2.num, g2.den) == (g1.num, g1.den)
    assert g1 + g2 == 2 * g1


def test_constant_detection_by_cross_multiplication():
    f = CharacterFunction((2, -2), (1, -1))
    assert f.is_constant() == 2
    g = CharacterFunction((1, 1), (1, -1))
    assert g.is_constant() is None
    assert CharacterFunction.zero().is_constant() == 0


def test_difference_with_itself_is_constant_zero():
    f = point_factor(3) * point_factor(1)
    assert (f + -f).is_constant() == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        CharacterFunction((1,), (0,))


weight = st.integers(min_value=1, max_value=6)


@given(st.lists(weight, min_size=1, max_size=3), st.lists(weight, min_size=1, max_size=3))
def test_character_sum_commutes(ws1, ws2):
    f = sum((point_factor(n) for n in ws1), CharacterFunction.zero())
    g = sum((point_factor(n) for n in ws2), CharacterFunction.zero())
    assert f + g == g + f


laurent = st.lists(st.integers(-6, 6), max_size=5)
nonzero_laurent = laurent.filter(any)


@given(nonzero_laurent, nonzero_laurent)
def test_a_zero_character_gives_the_other_one_back(n, d):
    f, zero = CharacterFunction(n, d), CharacterFunction.zero()
    assert f + zero is f and zero + f is f
    for z in (zero + zero, f + -f):
        assert (z.num, z.den) == ((), (1,))


@given(st.integers(-50, 50), nonzero_laurent)
def test_a_multiple_of_the_denominator_is_constant(c, den):
    f = CharacterFunction([c * d for d in den], den)
    assert f.is_constant() == c


def schoolbook(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def assert_character_normal_form(f: CharacterFunction):
    """No common power of q, joint content 1, lowest denominator
    coefficient positive, no trailing zeros; zero is 0/1."""
    assert f.den and f.den[-1] and (not f.num or f.num[-1])
    if not f.num:
        assert f.den == (1,)
        return
    assert f.num[0] or f.den[0]
    assert gcd(*f.num, *f.den) == 1
    assert next(c for c in f.den if c) > 0


def padded_lowest(num, den):
    """The canonical parts of num/den, formed by zero-padding both parts
    from their own valuations to the smaller one: a reference for the
    constructor, which slices instead."""
    n, d = list(num), list(den)
    while n and not n[-1]:
        n.pop()
    while not d[-1]:
        d.pop()
    if not n:
        return (), (1,)
    nv = next(i for i, c in enumerate(n) if c)
    dv = next(i for i, c in enumerate(d) if c)
    lead = min(nv, dv)
    n = [0] * (nv - lead) + n[nv:]
    d = [0] * (dv - lead) + d[dv:]
    g = gcd(*n, *d)
    sign = 1 if next(c for c in d if c) > 0 else -1
    return (tuple(sign * c // g for c in n), tuple(sign * c // g for c in d))


@given(laurent, nonzero_laurent, st.integers(0, 4), st.integers(0, 4))
def test_the_common_power_of_q_is_divided_out(num, den, j, k):
    # q^j num over q^k den, j and k drawn apart: the constructor's parts are
    # those of the padded alignment, and q^j num over q^j den is num/den.
    f = CharacterFunction([0] * j + num, [0] * k + den)
    assert (f.num, f.den) == padded_lowest([0] * j + num, [0] * k + den)
    assert_character_normal_form(f)
    g, h = CharacterFunction(num, den), CharacterFunction([0] * j + num,
                                                          [0] * j + den)
    assert (h.num, h.den) == (g.num, g.den)


@given(laurent, nonzero_laurent, laurent, nonzero_laurent,
       st.integers(-3, 3))
def test_character_operators_give_the_constructor_normal_form(
        n1, d1, n2, d2, k):
    # The operators build their results without the public constructor;
    # each must come out exactly as the constructor builds the raw parts.
    f, g = CharacterFunction(n1, d1), CharacterFunction(n2, d2)
    cross = [x + y for x, y in zip_longest(schoolbook(f.num, g.den),
                                           schoolbook(g.num, f.den),
                                           fillvalue=0)]
    for got, num, den in (
        (f * g, schoolbook(f.num, g.num), schoolbook(f.den, g.den)),
        (f + g, cross, schoolbook(f.den, g.den)),
        (-f, [-c for c in f.num], f.den),
        (f * k, [k * c for c in f.num], f.den),
    ):
        want = CharacterFunction(num, den)
        assert (got.num, got.den) == (want.num, want.den)
        assert_character_normal_form(got)


@given(laurent, nonzero_laurent, laurent,
       st.sampled_from(("drawn", "f", "-f")))
def test_a_sum_over_one_denominator_has_the_cross_multiplied_parts(
        n1, d1, n2, other):
    # Over one denominator the sum adds numerators first; its parts must be
    # those of the schoolbook cross-multiplied sum, (a + b) d over d d, and
    # a sum that cancels is the canonical zero.
    f = CharacterFunction(n1, d1)
    g = {"drawn": CharacterFunction(n2, f.den), "f": f, "-f": -f}[other]
    assume(g.den == f.den)
    cross = [x + y for x, y in zip_longest(schoolbook(f.num, g.den),
                                           schoolbook(g.num, f.den),
                                           fillvalue=0)]
    want = CharacterFunction(cross, schoolbook(f.den, g.den))
    got = f + g
    assert (got.num, got.den) == (want.num, want.den)
    assert_character_normal_form(got)
    if other == "-f" or not any(cross):
        assert (got.num, got.den) == ((), (1,))


# ---------------------------------------------------------------------------
# Behaviour the three kernels share


def kernel_samples():
    return [
        TruncatedSeries(0, [1]), TruncatedSeries(3, [F(1, 2), 0, -2]),
        TruncatedSeries(2), line_factor("a_hat", 3, 4),
        LiftPolynomial([1]), LiftPolynomial([F(-1, 3), 0, 2]), LiftPolynomial(),
        LiftPolynomial.shifted_lift(F(3, 2)) ** 3,
        CharacterFunction.constant(1), CharacterFunction.zero(),
        point_factor(2) * point_factor(3), CharacterFunction([2, -4], [6, 0, 2]),
    ]


@pytest.mark.parametrize("x", kernel_samples(), ids=repr)
@pytest.mark.parametrize("name", ["num", "den", "order", "other"])
def test_kernels_are_immutable(x, name):
    # Local data are shared between the leaves of a search call, so neither
    # assignment nor deletion may change one.
    before = (x.num, x.den)
    for change in (lambda: setattr(x, name, (1,)), lambda: delattr(x, name)):
        with pytest.raises(AttributeError,
                           match=f"^{type(x).__name__} is immutable$"):
            change()
        assert (x.num, x.den) == before
    assert repr(x)


@pytest.mark.parametrize("x", kernel_samples(), ids=repr)
def test_copies_and_pickles_rebuild_the_same_kernel(x):
    # dataclasses.asdict deep-copies a check's residual, so every kernel
    # must survive copy, deepcopy and a pickle round trip.
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        assert (y.num, y.den) == (x.num, x.den)


def test_equality_never_crosses_kernels():
    # The same parts, num = (1,), in each kernel.
    trio = [LiftPolynomial([1]), TruncatedSeries(0, [1]),
            CharacterFunction.constant(1)]
    for a in trio:
        for b in trio:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)


def test_structural_hash_agrees_with_equality():
    pairs = [
        (TruncatedSeries(2, [F(2, 4)]), TruncatedSeries(2, [F(1, 2), 0, 0])),
        (LiftPolynomial([F(6, 4), 0, 0]), LiftPolynomial.constant(F(3, 2))),
        (LiftPolynomial.shifted_lift(F(1, 2)), LiftPolynomial([F(1, 2), 1])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    with pytest.raises(TypeError):
        hash(CharacterFunction.constant(1))


@pytest.mark.parametrize("x", kernel_samples(), ids=repr)
def test_negation_keeps_the_normal_form(x):
    neg = -x
    assert type(neg) is type(x)
    if isinstance(x, CharacterFunction):
        rebuilt = CharacterFunction([-c for c in x.num], x.den)
        assert_character_normal_form(neg)
    elif isinstance(x, TruncatedSeries):
        rebuilt = TruncatedSeries(x.order, [F(-c, x.den) for c in x.num])
    else:
        rebuilt = LiftPolynomial([F(-c, x.den) for c in x.num])
    assert (neg.num, neg.den) == (rebuilt.num, rebuilt.den)
    assert -neg == x
    assert (-neg).num == x.num and (-neg).den == x.den


@pytest.mark.parametrize("order", range(7))
def test_series_order_is_the_numerator_count_minus_one(order):
    s = TruncatedSeries(order, [1, F(-1, 3), 2][:order + 1])
    for x in (s, TruncatedSeries(order), -s, s * s, s**3,
              s.inverse(), line_factor("l_genus", 2, order)):
        assert x.order == order and type(x.order) is int
        assert len(x.num) == order + 1
