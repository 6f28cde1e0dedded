"""The case analysis of the fixed-point templates as unbounded statements:
each holds for every weight, evaluation and lift, not only on a search box.
"""

from fractions import Fraction
from itertools import product
from math import prod

import sympy
from hypothesis import given
from hypothesis import strategies as st

from cisym.localization import (
    MAX_WEIGHT,
    AmbientData,
    Configuration,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    check_x3,
    p1x_local_datum,
    shift_lift,
    x3_local_datum,
    x3_sum,
)
from cisym.search import search_case
from lift_reads import coefficients

big = st.integers(-10**6, 10**6)
weights = st.integers(1, MAX_WEIGHT)


def four(weight, a, evs, b2, sign):
    return FourComponent(weight, a, *(evs if b2 else (0, 0, 0)), 3 * sign,
                         b2, sign, 2 + b2)


@st.composite
def normalized(draw):
    """A configuration of two_fours, four_plus_surface or single_four_b2_2
    with its normalized component at lift 0: the first component, or the
    surface (the last one)."""
    template = draw(st.sampled_from(("two_fours", "four_plus_surface",
                                     "single_four_b2_2")))
    evs = draw(st.tuples(big, big, big))
    if template == "two_fours":
        comps = (four(draw(weights), 0, evs, 0, 0),
                 four(draw(weights), draw(big), evs, 0, 0))
    elif template == "four_plus_surface":
        comps = (four(draw(weights), draw(big), evs, 0, 0),
                 SurfaceComponent((draw(weights), draw(weights)), 0, *evs, 2))
    else:
        comps = (four(draw(weights), 0, evs, 2,
                      draw(st.sampled_from((-2, 0, 2)))),)
    ambient = AmbientData(draw(st.integers(1, 10**6)), draw(big),
                          sum(c.chi for c in comps))
    # Weights up to the cap, coprime or not: the x^3 identity reads no flag.
    return Configuration(ambient, template, comps, Flags(effectiveness=False))


@given(normalized(), big)
def test_a_b2_zero_component_and_one_at_lift_zero_force_t_to_zero(cfg, delta):
    # A b2 = 0 component has x^3 datum 0, and a component at lift 0 has
    # none in row l^0, so row l^0 of the x^3 identity reads 0 = t.  No
    # t >= 1 passes, and a shift of every lift keeps the failure.
    total = x3_sum(cfg.components)
    assert not total.num or total.num[0] == 0
    residual = check_x3(cfg).residual
    assert Fraction(residual.num[0], residual.den) == -cfg.ambient.t
    for moved in (cfg, shift_lift(cfg, delta)):
        assert not check_x3(moved).passed


# ---------------------------------------------------------------------------
# Closed forms with symbolic weights, lifts and evaluations.  Every solve is
# linear (sympy.linsolve): the forced signs and lift relations are put in
# before the next row is solved.

L = sympy.Symbol("l")


def point_data(eps, r, q, a):
    """The x^3 and p1*x data of an isolated point of sign eps at lift a, with
    r = 1 / (product of its weights) and q = the sum of their squares."""
    u = L + a
    return eps * r * u**3, eps * q * r * u


def four_data(n, a, ev_x2, ev_xy, ev_y2, ev_p1):
    """The x^3 and p1*x data of a 4-dimensional component of weight n at
    lift a."""
    u = L + a
    return ((3 * ev_x2 * n**2 * u - 3 * ev_xy * n * u**2 + ev_y2 * u**3)
            / n**3, (ev_xy * n + ev_p1 * u) / n)


def rows(expr, count):
    """The l^0 .. l^(count-1) coefficients of expr."""
    coeffs = sympy.Poly(sympy.expand(expr), L).all_coeffs()[::-1]
    assert len(coeffs) <= count
    return coeffs + [sympy.Integer(0)] * (count - len(coeffs))


def fractions(expr):
    return [Fraction(int(c.p), int(c.q)) for c in rows(expr, 4)]


ints = st.integers(-50, 50)
small_weights = st.integers(1, 12)


@given(st.sampled_from((1, -1)), st.tuples(*[small_weights] * 3), ints,
       small_weights, ints, st.tuples(ints, ints, ints),
       st.sampled_from(((1, 1), (1, -1), (2, 2), (2, 0), (2, -2))))
def test_the_symbolic_data_are_the_package_data(eps, ws, a, n, b, evs, kind):
    point = PointComponent(eps, ws, a)
    px, pp = point_data(eps, sympy.Rational(1, prod(ws)),
                        sum(w * w for w in ws), a)
    assert coefficients(x3_local_datum(point)) == fractions(px)
    assert coefficients(p1x_local_datum(point)) == fractions(pp)
    b2, sign = kind
    four = FourComponent(n, b, *evs, 3 * sign, b2, sign, 2 + b2)
    fx, fp = four_data(sympy.Integer(n), b, *evs, 3 * sign)
    assert coefficients(x3_local_datum(four)) == fractions(fx)
    assert coefficients(p1x_local_datum(four)) == fractions(fp)


def test_four_plus_two_points_forces_t_to_zero():
    # The b2 = 0 component of weight n at lift 0 has data 0 (every
    # evaluation and ev_p1 vanish); the points have signs e1, e2, lifts a1,
    # a2 and reciprocal weight products r1, r2 > 0.  Row l^3 of the x^3
    # identity forces e2 = -e1 and equal weight products, row l^2 then
    # a2 = a1, and row l^0 reads 0 = t.
    n, r1, r2 = sympy.symbols("n r1 r2", positive=True)
    q1, q2, a1, a2, t = sympy.symbols("q1 q2 a1 a2 t")
    (fx, _) = four_data(n, 0, 0, 0, 0, 0)
    assert fx == 0
    for e1, e2 in product((1, -1), repeat=2):
        x3 = rows(fx + point_data(e1, r1, q1, a1)[0]
                  + point_data(e2, r2, q2, a2)[0] - t, 4)
        ((r,),) = sympy.linsolve([x3[3]], [r2])
        if e2 == e1:
            assert r.is_negative  # no weights have it
            continue
        assert r == r1
        x3 = [row.subs(r2, r1) for row in x3]
        assert sympy.linsolve([x3[2]], [a2]) == sympy.FiniteSet((a1,))
        assert [sympy.expand(row.subs(a2, a1)) for row in x3] == [-t, 0, 0, 0]


def test_cp2like_plus_point_has_positive_rho():
    # The b2 = 1 component of weight n sits at lift 0, the point of sign eps
    # at lift a, with reciprocal weight product r and weight square sum q.
    # The four x^3 rows and the p1*x rows l^1 and l^0 are linear in the
    # component's evaluations, ev_p1, t and s = rho * t, and fix all six:
    # t = eps a^3 r, and rho = (n^2 + q) / a^2 > 0.  No flag enters.
    n, r, q = sympy.symbols("n r q", positive=True)
    a = sympy.Symbol("a", real=True, nonzero=True)
    unknowns = sympy.symbols("ev_x2 ev_xy ev_y2 ev_p1 t s")
    t, s = unknowns[-2:]
    solved = {}
    for eps in (1, -1):
        fx, fp = four_data(n, 0, *unknowns[:4])
        px, pp = point_data(eps, r, q, a)
        ((*data, t_, s_),) = sympy.linsolve(
            rows(fx + px - t, 4) + rows(fp + pp - s, 2), unknowns)
        assert sympy.simplify(t_ - eps * a**3 * r) == 0
        rho = sympy.simplify(s_ / t_)
        assert sympy.simplify(rho - (n**2 + q) / a**2) == 0
        assert rho.is_positive
        solved[eps] = (*data, t_, rho)
        # At a = 0 the point adds nothing to row l^0 either: it reads 0 = t.
        assert rows(fx + point_data(eps, r, q, 0)[0] - t, 4)[0] == -t
    # The search's hit at (t, rho) = (1, 4) is this form at a = 1 and
    # weights (1, 1, 1).
    (hit,) = search_case("cp2like_plus_point", (1, 1), (4, 4))
    (four,) = hit.fours()
    (point,) = hit.points()
    assert (point.a, point.weights) == (1, (1, 1, 1))
    at = {n: four.weight, r: sympy.Rational(1, prod(point.weights)),
          q: sum(w * w for w in point.weights), a: point.a}
    assert [v.subs(at) for v in solved[point.eps]] == [
        four.ev_x2, four.ev_xy, four.ev_y2, four.ev_p1, hit.ambient.t,
        hit.ambient.rho]
