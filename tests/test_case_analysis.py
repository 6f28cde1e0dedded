"""The case analysis of the fixed-point templates as unbounded statements:
each holds for every weight, evaluation and lift, not only on a search box.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
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
    _divides_exactly_two,
    check_x3,
    p1x_local_datum,
    shift_lift,
    signature_local_datum,
    x3_local_datum,
    x3_sum,
)
from cisym.search import SearchBounds, SearchFlags, search_case
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


def surface_data(n1, n2, a, ev_x, ev_y1, ev_y2):
    """The x^3 and p1*x data of a fixed surface of weights (n1, n2) at lift
    a."""
    u = L + a
    m, q = n1 * n2, n1**2 + n2**2
    y = ev_y1 * n2 + ev_y2 * n1
    return ((3 * ev_x * m * u**2 - y * u**3) / m**2,
            (q * ev_x * m + (2 * (n1 * ev_y1 + n2 * ev_y2) * m - q * y) * u)
            / m**2)


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
       st.sampled_from(((1, 1), (1, -1), (2, 2), (2, 0), (2, -2))),
       st.tuples(small_weights, small_weights), ints,
       st.tuples(ints, ints, ints))
def test_the_symbolic_data_are_the_package_data(eps, ws, a, n, b, evs, kind,
                                                 sws, c, sevs):
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
    surface = SurfaceComponent(sws, c, *sevs, 2)
    sx, sp = surface_data(*map(sympy.Integer, sws), c, *sevs)
    assert coefficients(x3_local_datum(surface)) == fractions(sx)
    assert coefficients(p1x_local_datum(surface)) == fractions(sp)


Q = sympy.Symbol("q")


def surface_character(n1, n2, ev_y1, ev_y2):
    """The signature character of a fixed surface of weights (n1, n2):
    4 (edge(n2) kernel(n1) ev_y1 + edge(n1) kernel(n2) ev_y2), with
    edge(n) = (1 + q^n) / (1 - q^n) and kernel(n) = q^n / (1 - q^n)^2."""
    def edge(n):
        return (1 + Q**n) / (1 - Q**n)

    def kernel(n):
        return Q**n / (1 - Q**n)**2

    return 4 * (edge(n2) * kernel(n1) * ev_y1 + edge(n1) * kernel(n2) * ev_y2)


def character(c):
    """A CharacterFunction as a sympy expression in q."""
    def poly(coeffs):
        return sum(x * Q**k for k, x in enumerate(coeffs))
    return poly(c.num) / poly(c.den)


def test_the_data_of_an_equal_weight_surface_read_sigma_alone():
    # The weight-n normal summand of a surface with weights (n, n) is one
    # rank-2 complex bundle, so its x^3 and p1*x data and its signature
    # character read ev_y1 and ev_y2 only through sigma = ev_y1 + ev_y2: a
    # re-split (ev_y1 + k, ev_y2 - k) keeps each of them.  At weights
    # (1, 2) each one moves, so a sigma key holds for equal weights alone.
    n, a, ev_x, y1, y2, k = sympy.symbols("n a ev_x ev_y1 ev_y2 k")

    def data(n1, n2, ev_y1, ev_y2):
        return (*surface_data(n1, n2, a, ev_x, ev_y1, ev_y2),
                surface_character(n1, n2, ev_y1, ev_y2))

    for weights, keeps in (((n, n), True), ((1, 2), False)):
        for before, after in zip(data(*weights, y1, y2),
                                 data(*weights, y1 + k, y2 - k)):
            assert (sympy.simplify(after - before) == 0) == keeps, weights
    # The package's data at every n <= 6, against the forms above.
    for w in range(1, 7):
        for values in ((0, 0, 0, 0, 1), (3, -2, 5, -1, 4), (-4, 1, -6, 6, -7)):
            lift, x, e1, e2, shift = values
            surface = SurfaceComponent((w, w), lift, x, e1, e2, 2)
            moved = replace(surface, ev_y1=e1 + shift, ev_y2=e2 - shift)
            for datum in (x3_local_datum, p1x_local_datum,
                          signature_local_datum):
                assert datum(moved) == datum(surface), (w, values)
            sx, sp = surface_data(sympy.Integer(w), sympy.Integer(w), lift, x,
                                  e1, e2)
            assert coefficients(x3_local_datum(surface)) == fractions(sx)
            assert coefficients(p1x_local_datum(surface)) == fractions(sp)
            assert sympy.cancel(character(signature_local_datum(surface))
                                - surface_character(w, w, e1, e2)) == 0
    surface = SurfaceComponent((1, 2), 3, -2, 5, -1, 2)
    moved = replace(surface, ev_y1=6, ev_y2=-2)
    for datum in (x3_local_datum, p1x_local_datum, signature_local_datum):
        assert datum(moved) != datum(surface)


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


def test_two_surfaces_under_lemma64_has_positive_rho():
    # Under lemma64 (surface-structure) the surfaces have weights (n1, m)
    # and (n2, m) and second evaluations 0; the first sits at lift a, the
    # second at 0.  The x^3 rows and the p1*x rows l^1 and l^0 are
    # homogeneous in the four other evaluations, t and s = rho * t, with
    # determinant 18 a (n1 - n2)(n1 + n2) / (m^4 n1^3 n2^3).  So n1 != n2
    # leaves only t = 0, and n1 = n2 gives rho = 4 n1^2 / a^2 > 0.  At a = 0
    # neither surface adds to row l^0 of x^3, which reads 0 = t.
    n1, n2, m = sympy.symbols("n1 n2 m", positive=True)
    a = sympy.Symbol("a", real=True, nonzero=True)
    unknowns = sympy.symbols("ev_x1 ev_y1 ev_x2 ev_y2 t s")
    x1, y1, x2, y2, t, s = unknowns

    def identities(second, lift):
        fx, fp = surface_data(n1, m, lift, x1, y1, 0)
        gx, gp = surface_data(second, m, 0, x2, y2, 0)
        return rows(fx + gx - t, 4) + rows(fp + gp - s, 2)

    matrix, constants = sympy.linear_eq_to_matrix(identities(n2, a), unknowns)
    assert constants.is_zero_matrix
    assert sympy.simplify(matrix.det() - 18 * a * (n1 - n2) * (n1 + n2)
                          / (m**4 * n1**3 * n2**3)) == 0
    ((*_, t_, s_),) = sympy.linsolve(identities(n1, a), unknowns)
    rho = sympy.simplify(s_ / t_)
    assert sympy.simplify(rho - 4 * n1**2 / a**2) == 0
    assert rho.is_positive
    assert identities(n2, 0)[0] == -t
    # The search's hits have n1 = n2 and this rho; the semifree ones, at
    # n1 = 1, satisfy rho (a_X - a_Y)^2 = 4.
    for bounds, flags, count in (((5, 5, 10), SearchFlags(semifree=True), 14),
                                 ((3, 3, 6), SearchFlags(), 44)):
        hits = search_case("two_surfaces", (1, 10), (-10, 10),
                           SearchBounds(*bounds), flags)
        assert len(hits) == count
        for hit in hits:
            x, y = hit.surfaces()
            assert x.weights[0] == y.weights[0] and y.a == 0
            assert hit.ambient.rho == rho.subs({n1: x.weights[0], a: x.a})
            if flags.semifree:
                assert hit.ambient.rho * (x.a - y.a)**2 == 4


def test_surface_plus_two_points_under_lemma64_has_positive_rho():
    # The surface of weights (n1, n2) sits at lift 0, so it adds nothing to
    # row l^1 of x^3.  Weight-matching gives both points one weight multiset
    # w, with reciprocal product r and square sum q; the points have signs
    # e1, e2 and lifts a1, a2.  Row l^1 reads 3 r (e1 a1^2 + e2 a2^2) = 0.
    # With e2 = e1 that forces a1 = a2 = 0, and with e2 = -e1 it forces
    # a2 = a1 or a2 = -a1.  At a2 = a1 the points' data cancel, and row l^0
    # reads 0 = t.  At a2 = -a1 every row is linear in the surface's
    # evaluations, t and s = rho * t: t = 2 e1 a1^3 r and
    # rho = (q - n1^2 - n2^2) / a1^2, which is positive by
    # test_weight_divisibility_bounds_the_point_weights.
    n1, n2, r, q = sympy.symbols("n1 n2 r q", positive=True)
    a1, a2 = sympy.symbols("a1 a2", real=True)
    unknowns = sympy.symbols("ev_x ev_y1 ev_y2 t s")
    t, s = unknowns[3:]
    sx, sp = surface_data(n1, n2, 0, *unknowns[:3])
    solved = {}
    for e1, e2 in product((1, -1), repeat=2):

        def identities(lift):
            px1, pp1 = point_data(e1, r, q, a1)
            px2, pp2 = point_data(e2, r, q, lift)
            return rows(sx + px1 + px2 - t, 4) + rows(sp + pp1 + pp2 - s, 2)

        l1 = identities(a2)[1]
        if e2 == e1:
            assert sympy.expand(l1 - 3 * e1 * r * (a1**2 + a2**2)) == 0
            assert identities(a2)[0].subs({a1: 0, a2: 0}) == -t
            continue
        assert sympy.expand(l1 - 3 * e1 * r * (a1 - a2) * (a1 + a2)) == 0
        assert sympy.expand(identities(a1)[0]) == -t
        ((x_, _, _, t_, s_),) = sympy.linsolve(identities(-a1), unknowns)
        assert sympy.simplify(t_ - 2 * e1 * a1**3 * r) == 0
        assert sympy.simplify(x_ + 2 * e1 * a1 * n1 * n2 * r) == 0
        rho = sympy.simplify(s_ / t_)
        assert sympy.simplify(rho - (q - n1**2 - n2**2) / a1**2) == 0
        solved[e1] = (x_, t_, rho)
    # Each of the search's hits is this form at its weights and lifts.
    hits = search_case("surface_plus_two_points", (1, 10), (-10, 10),
                       SearchBounds(3, 3, 6))
    assert len(hits) == 41
    for hit in hits:
        (x,) = hit.surfaces()
        p, p2 = hit.points()
        assert (p2.eps, p2.a, sorted(p2.weights)) == (-p.eps, -p.a,
                                                     sorted(p.weights))
        at = {n1: x.weights[0], n2: x.weights[1], a1: p.a,
              r: sympy.Rational(1, prod(p.weights)),
              q: sum(w * w for w in p.weights)}
        assert [v.subs(at) for v in solved[p.eps]] == [
            x.ev_x, hit.ambient.t, hit.ambient.rho]


def test_weight_divisibility_bounds_the_point_weights():
    # Under weight-divisibility the point weights w of surface_plus_two_points
    # have sum(w^2) > n1^2 + n2^2 for the surface weights (n1, n2).  Proof:
    # let n = max(n1, n2).  If n = 1, sum(w^2) >= 3 > 2.  Otherwise n
    # divides exactly two of the three weights, each of which is then >= n,
    # and the third is >= 1, so sum(w^2) >= 2 n^2 + 1 > n1^2 + n2^2.  The
    # scan checks the bound and the conclusion on every admissible pair of
    # sorted surface and point weights up to 30.
    weights = range(1, 31)
    triples = [(w, sum(v * v for v in w))
               for w in combinations_with_replacement(weights, 3)]
    admissible = 0
    for pair in combinations_with_replacement(weights, 2):
        n, bound = max(pair), pair[0]**2 + pair[1]**2
        least = 2 * n * n + 1 if n > 1 else 3
        for w, square_sum in triples:
            if _divides_exactly_two(pair, w):
                admissible += 1
                assert square_sum >= least > bound
    assert admissible == 21455
