"""Tests for fixed-point components, local data, and the verifier."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cisym.algebra import CharacterFunction, LiftPolynomial
from cisym.configio import load_config
from cisym.invariants import CompleteIntersection, invariants
from cisym.localization import (
    _TEMPLATE_B2,
    CITATIONS,
    MAX_WEIGHT,
    TEMPLATES,
    AmbientData,
    Configuration,
    ConfigurationError,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    UnsupportedComponentError,
    check_lemma41,
    p1x_local_datum,
    p1x_sum,
    shift_lift,
    signature_checks,
    signature_local_datum,
    verify_case,
    x3_local_datum,
    x3_sum,
)
from linear_actions import (four_point_checks, projective_space_points,
                            quadric_points)
from test_acceptance import _random_configuration
from test_invariants import multidegrees


def zero_four(weight=1, a=0, b2=0, sign=0, chi=None):
    return FourComponent(weight, a, 0, 0, 0, 3 * sign, b2, sign,
                         (2 + b2) if chi is None else chi)


def cp3_configuration(rho=4):
    four = FourComponent(weight=1, a=0, ev_x2=-1, ev_xy=1, ev_y2=-1,
                         ev_p1=-3, b2=1, sign=-1, chi=3)
    point = PointComponent(eps=1, weights=(1, 1, 1), a=1)
    return Configuration(AmbientData(1, rho, 4), "cp2like_plus_point",
                         (four, point))


def quadric_configuration(rho=1):
    surface = SurfaceComponent((1, 1), 0, -2, 0, 0, 2)
    plus = PointComponent(1, (1, 1, 1), 1)
    minus = PointComponent(-1, (1, 1, 1), -1)
    return Configuration(AmbientData(2, rho, 4), "surface_plus_two_points",
                         (surface, plus, minus))


def semifree_surfaces(rho, t, a_x, ev_x, ev_y1):
    sx = SurfaceComponent((1, 1), a_x, ev_x, ev_y1, 0, 2)
    sy = SurfaceComponent((1, 1), 0, ev_x, -ev_y1, 0, 2)
    return Configuration(AmbientData(t, rho, 4), "two_surfaces", (sx, sy))


# ---------------------------------------------------------------------------
# Local data


def test_point_x3_datum():
    p = PointComponent(-1, (1, 2, 3), 1)
    datum = x3_local_datum(p)
    assert [datum.coefficient(k) for k in range(4)] == [
        Fraction(-1, 6), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 6)
    ]


def test_point_p1x_datum():
    p = PointComponent(-1, (1, 2, 3), 1)
    datum = p1x_local_datum(p)
    expected = LiftPolynomial([Fraction(-7, 3), Fraction(-7, 3)])
    assert datum == expected


def test_surface_x3_datum():
    s = SurfaceComponent((1, 2), 0, 1, 2, 3, 2)
    datum = x3_local_datum(s)
    assert datum.coefficient(3) == Fraction(-7, 4)
    assert datum.coefficient(2) == Fraction(3, 2)
    assert datum.coefficient(1) == 0
    assert datum.coefficient(0) == 0


def test_four_x3_datum():
    f = FourComponent(2, 1, 4, -2, 6, 0, 2, 0, 4)
    datum = x3_local_datum(f)
    assert [datum.coefficient(k) for k in range(4)] == [
        Fraction(33, 4), Fraction(45, 4), Fraction(15, 4), Fraction(3, 4)
    ]


def test_four_p1x_datum():
    f = FourComponent(2, 1, 4, -2, 6, 6, 2, 2, 4)
    datum = p1x_local_datum(f)
    assert datum == LiftPolynomial([Fraction(1), Fraction(3)])


@given(
    eps=st.sampled_from((-1, 1)),
    weights=st.tuples(*(st.integers(1, 6),) * 3),
    a=st.integers(-6, 6),
)
def test_point_x3_vanishes_at_minus_a(eps, weights, a):
    datum = x3_local_datum(PointComponent(eps, weights, a))
    assert datum(Fraction(-a)) == 0


@given(
    weights=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    a=st.integers(-6, 6),
    evs=st.tuples(*(st.integers(-8, 8),) * 3),
)
def test_surface_x3_vanishes_at_minus_a(weights, a, evs):
    s = SurfaceComponent(weights, a, evs[0], evs[1], evs[2], 2)
    assert x3_local_datum(s)(Fraction(-a)) == 0


def test_signature_datum_point_is_product_of_edge_factors():
    p = PointComponent(1, (1, 1, 1), 0)
    char = signature_local_datum(p)
    # ((q + 1)/(q - 1))^3: not constant, tends to 1
    assert char.is_constant() is None
    assert char.limit_at_infinity() == 1


def test_signature_datum_opposite_points_cancel():
    plus = signature_local_datum(PointComponent(1, (2, 3, 5), 4))
    minus = signature_local_datum(PointComponent(-1, (2, 3, 5), -1))
    total = plus + minus
    assert total.is_constant() == 0


def test_signature_datum_four_unsupported():
    with pytest.raises(UnsupportedComponentError):
        signature_local_datum(zero_four())


def test_x3_sum_is_componentwise():
    comps = (PointComponent(1, (1, 1, 1), 1),
             PointComponent(-1, (1, 1, 1), 1))
    assert x3_sum(comps).is_zero()
    assert p1x_sum(comps).is_zero()


def test_the_sums_add_through_the_lift_polynomial_operator(monkeypatch):
    # LiftPolynomial.__add__ is a boundary of the benchmark's tracer: x3_sum
    # runs from zero and goes through it for every datum, a zero one
    # included.
    added = []
    add = LiftPolynomial.__add__

    def counted(p, q):
        added.append(q.is_zero())
        return add(p, q)

    monkeypatch.setattr(LiftPolynomial, "__add__", counted)
    comps = (PointComponent(1, (1, 1, 1), 1), zero_four(),
             PointComponent(-1, (1, 2, 3), 2))
    assert x3_sum(comps) == add(x3_local_datum(comps[0]),
                                x3_local_datum(comps[2]))
    assert added == [False, True, False]


def _shifted_power(a: int, k: int) -> list[Fraction]:
    """(a + l)^k as coefficients of l^0..l^3."""
    return [Fraction(comb(k, j) * a ** (k - j)) if j <= k else Fraction(0)
            for j in range(4)]


def _reference_sums(components) -> tuple[list[Fraction], list[Fraction]]:
    """The localized x^3 and p1*x sums as plain Fraction coefficient lists
    (l^0..l^3), accumulated term by term from the local formulas."""
    x3 = [Fraction(0)] * 4
    p1x = [Fraction(0)] * 4

    def add(acc, k, a, scale):
        for j, c in enumerate(_shifted_power(a, k)):
            acc[j] += scale * c

    for c in components:
        if c.kind == "point":
            n1, n2, n3 = c.weights
            prod = n1 * n2 * n3
            add(x3, 3, c.a, Fraction(c.eps, prod))
            add(p1x, 1, c.a, Fraction(c.eps * (n1**2 + n2**2 + n3**2), prod))
        elif c.kind == "surface":
            n1, n2 = c.weights
            s = Fraction(c.ev_y1, n1) + Fraction(c.ev_y2, n2)
            add(x3, 3, c.a, -s / (n1 * n2))
            add(x3, 2, c.a, Fraction(3 * c.ev_x, n1 * n2))
            q = n1**2 + n2**2
            add(p1x, 1, c.a, -Fraction(q, n1 * n2) * s
                + Fraction(2 * (n1 * c.ev_y1 + n2 * c.ev_y2), n1 * n2))
            p1x[0] += Fraction(q * c.ev_x, n1 * n2)
        else:
            n = c.weight
            add(x3, 1, c.a, Fraction(3 * c.ev_x2, n))
            add(x3, 2, c.a, Fraction(-3 * c.ev_xy, n**2))
            add(x3, 3, c.a, Fraction(c.ev_y2, n**3))
            p1x[0] += c.ev_xy
            add(p1x, 1, c.a, Fraction(c.ev_p1, c.weight))
    return x3, p1x


def test_sums_match_plain_fraction_reference():
    # The first 200 configurations and lift shifts of criterion 9.
    rng = random.Random(987654321)
    for _ in range(200):
        cfg = _random_configuration(rng)
        moved = shift_lift(cfg, rng.randint(-6, 6))
        for comps in (cfg.components, moved.components):
            x3_ref, p1x_ref = _reference_sums(comps)
            for total, ref in ((x3_sum(comps), x3_ref),
                               (p1x_sum(comps), p1x_ref)):
                assert [total.coefficient(k) for k in range(6)] == ref + [0, 0]
                assert total.degree == max(
                    (k for k, c in enumerate(ref) if c), default=-1)


big = st.integers(-10**6, 10**6)
any_weight = st.integers(1, MAX_WEIGHT)
points = st.builds(PointComponent, st.sampled_from((-1, 1)),
                   st.tuples(any_weight, any_weight, any_weight), big)
surfaces = st.builds(SurfaceComponent, st.tuples(any_weight, any_weight),
                     big, big, big, big, st.just(2))


@st.composite
def fours(draw):
    b2 = draw(st.sampled_from((0, 1, 2)))
    sign = draw(st.sampled_from(range(-b2, b2 + 1, 2)))
    evs = draw(st.tuples(big, big, big)) if b2 else (0, 0, 0)
    return FourComponent(draw(any_weight), draw(big), *evs, 3 * sign, b2,
                         sign, 2 + b2)


@settings(max_examples=300)
@given(st.one_of(points, surfaces, fours()))
def test_local_data_match_plain_fraction_reference(c):
    # Each local datum, for every component kind with weights up to the cap
    # and lifts and evaluations up to 10^6, against the Fraction formulas.
    for datum, ref in zip((x3_local_datum(c), p1x_local_datum(c)),
                          _reference_sums((c,))):
        assert [datum.coefficient(k) for k in range(6)] == ref + [0, 0]
        assert datum.den > 0 and gcd(datum.den, *datum.num) == 1
        assert not datum.num or datum.num[-1] != 0
        rebuilt = LiftPolynomial(ref)
        assert datum == rebuilt and hash(datum) == hash(rebuilt)


small_weight = st.integers(1, 12)
character_components = st.one_of(
    st.builds(PointComponent, st.sampled_from((-1, 1)),
              st.tuples(small_weight, small_weight, small_weight), big),
    st.builds(SurfaceComponent, st.tuples(small_weight, small_weight),
              big, big, big, big, st.just(2)))


def _parts(x):
    return (x.num, x.den)


@settings(max_examples=200)
@given(st.lists(st.one_of(points, surfaces, fours()), max_size=3),
       st.lists(character_components, max_size=3))
def test_sums_fold_to_the_parts_of_a_fold_from_zero(comps, characters):
    # The sums run from zero; their parts must be those of this fold from
    # zero, which verify --json prints, for a list and for a generator of 0
    # to 3 components.
    for sum_, datum in ((x3_sum, x3_local_datum), (p1x_sum, p1x_local_datum)):
        want = LiftPolynomial()
        for c in comps:
            want = want + datum(c)
        assert _parts(sum_(comps)) == _parts(want)
        assert _parts(sum_(c for c in comps)) == _parts(want)
    # Characters grow with the weights, so their fold takes small ones; with
    # a 4-dimensional component only the limit identity is formed.
    limit_only = comps + [zero_four()]
    assert signature_checks(c for c in limit_only) == \
        signature_checks(limit_only)
    want = CharacterFunction.zero()
    for c in characters:
        want = want + signature_local_datum(c)
    for group in (characters, (c for c in characters)):
        results = signature_checks(group)
        assert results[0].name == "signature-rigidity"
        assert _parts(results[0].residual) == _parts(want)
        assert results == signature_checks(characters)


def test_sums_of_no_components_are_zero():
    assert _parts(x3_sum(())) == _parts(p1x_sum(iter(()))) == ((), 1)
    results = signature_checks(())
    assert [(r.name, r.passed) for r in results] == [
        ("signature-rigidity", True), ("signature-vanishing", True),
        ("signature-limit", True)]
    assert _parts(results[0].residual) == ((), (1,))


def _edge_uncached(n):
    return CharacterFunction((1,) + (0,) * (n - 1) + (1,),
                             (1,) + (0,) * (n - 1) + (-1,))


def _kernel_uncached(n):
    return CharacterFunction((0,) * n + (1,),
                             (1,) + (0,) * (n - 1) + (-2,) + (0,) * (n - 1)
                             + (1,))


def test_signature_datum_matches_uncached_product():
    # num/den, not just the function: the residual that verify prints is
    # the repr of the canonical parts.
    for ws in product(range(1, 8), repeat=3):
        for eps in (-1, 1):
            want = CharacterFunction.constant(-eps)
            for n in ws:
                want = want * _edge_uncached(n)
            got = signature_local_datum(PointComponent(eps, ws, 0))
            assert (got.num, got.den) == (want.num, want.den)
    for n1, n2 in product(range(1, 8), repeat=2):
        s = SurfaceComponent((n1, n2), 0, 0, 3, -2, 2)
        want = 4 * (_edge_uncached(n2) * _kernel_uncached(n1) * 3
                    + _edge_uncached(n1) * _kernel_uncached(n2) * -2)
        got = signature_local_datum(s)
        assert (got.num, got.den) == (want.num, want.den)


# ---------------------------------------------------------------------------
# Component invariants


def test_point_rejects_bad_eps():
    with pytest.raises(ConfigurationError):
        PointComponent(0, (1, 1, 1), 0)
    with pytest.raises(ConfigurationError):
        PointComponent(True, (1, 1, 1), 0)


def test_point_rejects_bad_weights():
    with pytest.raises(ConfigurationError):
        PointComponent(1, (1, 1), 0)
    with pytest.raises(ConfigurationError):
        PointComponent(1, (1, 0, 1), 0)


def test_weights_above_the_cap_rejected():
    # Construction only: no character is built at these weights.
    big = MAX_WEIGHT + 1
    with pytest.raises(ConfigurationError):
        PointComponent(1, (1, big, 1), 0)
    with pytest.raises(ConfigurationError):
        SurfaceComponent((big, 1), 0, 0, 0, 0, 2)
    with pytest.raises(ConfigurationError):
        FourComponent(big, 0, 0, 0, 0, 0, 0, 0, 2)
    assert PointComponent(1, (1, MAX_WEIGHT, 1), 0).weights[1] == MAX_WEIGHT


def test_surface_rejects_odd_or_large_chi():
    with pytest.raises(ConfigurationError):
        SurfaceComponent((1, 1), 0, 0, 0, 0, 1)
    with pytest.raises(ConfigurationError):
        SurfaceComponent((1, 1), 0, 0, 0, 0, 4)
    assert SurfaceComponent((1, 1), 0, 0, 0, 0, -2).chi == -2


def test_four_signature_bounds():
    with pytest.raises(ConfigurationError):
        zero_four(b2=0, sign=1)
    with pytest.raises(ConfigurationError):
        zero_four(b2=1, sign=0)
    with pytest.raises(ConfigurationError):
        FourComponent(1, 0, 0, 0, 0, 9, 2, 2, 4)  # ev_p1 != 3*sign


def test_four_signature_theorem_pinned():
    with pytest.raises(ConfigurationError):
        FourComponent(1, 0, 1, 0, 0, 0, 1, 1, 3)  # ev_p1 must be 3


def test_four_b2_zero_forces_zero_evaluations():
    with pytest.raises(ConfigurationError):
        FourComponent(1, 0, 1, 0, 0, 0, 0, 0, 2)


def test_four_chi_parity_and_bound():
    with pytest.raises(ConfigurationError):
        zero_four(chi=3)
    with pytest.raises(ConfigurationError):
        zero_four(chi=4)
    assert zero_four(chi=-2).chi == -2


def test_ambient_requires_positive_t_and_zero_sign():
    with pytest.raises(ConfigurationError):
        AmbientData(0, 0, 4)
    with pytest.raises(ConfigurationError):
        AmbientData(1, 0, 4, sign=1)


# ---------------------------------------------------------------------------
# Configuration validation


def test_template_component_mismatch():
    with pytest.raises(ConfigurationError):
        Configuration(AmbientData(1, 0, 4), "two_fours",
                      (zero_four(), PointComponent(1, (1, 1, 1), 0)))


def test_configuration_requires_its_record_types():
    cfg = quadric_configuration()
    ambient, comps, flags = cfg.ambient, cfg.components, cfg.flags
    for args in (((2, 1, 4), comps, flags),
                 (ambient, comps, {"lemma64": True}),
                 (ambient, comps[:2] + ((1, 1, 1),), flags),
                 (ambient, comps[:2] + (None,), flags)):
        with pytest.raises(ConfigurationError, match="must be"):
            Configuration(args[0], "surface_plus_two_points", *args[1:])


def test_unknown_template():
    with pytest.raises(ConfigurationError):
        Configuration(AmbientData(1, 0, 4), "mystery", (zero_four(),))


@pytest.mark.parametrize("template", [["two_fours"], None, 3])
def test_a_template_that_is_no_string_is_unknown(template):
    # An unhashable one too: the type is checked before the lookup.
    with pytest.raises(ConfigurationError, match="unknown template"):
        Configuration(AmbientData(1, 0, 4), template, (zero_four(),))


def test_template_b2_requirement():
    # single_four_b2_2 needs b2 = 2, so a b2 = 0 component is rejected; the
    # requirement is what keeps the even Betti numbers summing to 4.
    with pytest.raises(ConfigurationError):
        Configuration(AmbientData(1, 0, 2), "single_four_b2_2",
                      (zero_four(b2=0),))


# The even Betti numbers of the fixed set sum to 4: a point has 1, a surface
# 2 and a 4-dimensional component 2 + b2.
_BETTI = {"point": 1, "surface": 2, "four": 2}


def _component_with_b2(kind, b2):
    return {"point": PointComponent(1, (1, 1, 1), 0),
            "surface": SurfaceComponent((1, 1), 0, 0, 0, 0, 2),
            "four": zero_four(b2=b2, sign=b2 % 2)}[kind]


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_the_betti_budget_is_the_template_b2(template):
    kinds = TEMPLATES[template]
    left = 4 - sum(_BETTI[k] for k in kinds)
    n_fours = kinds.count("four")
    if not n_fours:
        assert left == 0
        assert template not in _TEMPLATE_B2
        return
    assert left == n_fours * _TEMPLATE_B2[template]
    for b2s in product((0, 1, 2), repeat=n_fours):
        it = iter(b2s)
        comps = tuple(_component_with_b2(k, next(it) if k == "four" else 0)
                      for k in kinds)
        fits = sum(b2s) == left
        try:
            Configuration(AmbientData(1, 0, 4), template, comps)
        except ConfigurationError as exc:
            assert not fits and "requires b2" in str(exc)
        else:
            assert fits


def test_the_betti_budget_admits_the_templates_and_four_points():
    # Every multiset of components whose even Betti numbers sum to 4, each
    # 4-dimensional component with its b2 <= 2: the seven templates, with
    # their b2, and four isolated points.
    parts = [("point", None), ("surface", None)] + [("four", b2)
                                                    for b2 in (0, 1, 2)]
    fitting = {tuple(sorted(combo))
               for r in range(1, 5)
               for combo in combinations_with_replacement(parts, r)
               if sum(_BETTI[k] + (b2 or 0) for k, b2 in combo) == 4}
    templates = {tuple(sorted((k, _TEMPLATE_B2[name] if k == "four" else None)
                              for k in kinds))
                 for name, kinds in TEMPLATES.items()}
    assert len(templates) == len(TEMPLATES) == 7
    assert fitting == templates | {(("point", None),) * 4}


def test_four_points_fit_no_threefold_with_rho_at_most_zero():
    # Why four isolated points are no template: the fixed set of a circle
    # action on M has chi(M) = 4 - b3, four points have chi = 4, and among
    # CP^3 and the threefolds with every degree >= 2 (degree sum <= 20) b3
    # vanishes only for CP^3 and the quadric.
    reports = [invariants(CompleteIntersection(3, d))
               for d in [(1,), *multidegrees(20, 2)]]
    assert len(reports) == 627
    assert sorted((r.t, r.rho) for r in reports if r.b3 == 0) == [(1, 4),
                                                                  (2, 1)]
    low = [r for r in reports if r.rho <= 0]
    assert len(low) == 625
    assert all(r.euler <= 0 and r.b3 >= 4 for r in low)


def test_convention_flag_requires_positive_point():
    comps = (zero_four(), PointComponent(-1, (1, 1, 1), 0),
             PointComponent(-1, (1, 1, 1), 1))
    with pytest.raises(ConfigurationError):
        Configuration(AmbientData(1, 0, 4), "four_plus_two_points", comps)
    cfg = Configuration(AmbientData(1, 0, 4), "four_plus_two_points", comps,
                        Flags(convention35=False))
    assert cfg.points()[0].eps == -1


def test_effectiveness_flag_requires_coprime_weights():
    comps = (SurfaceComponent((2, 4), 0, 0, 0, 0, 2),
             PointComponent(1, (1, 1, 1), 0),
             PointComponent(-1, (1, 1, 1), 1))
    with pytest.raises(ConfigurationError):
        Configuration(AmbientData(1, 0, 4), "surface_plus_two_points", comps)
    cfg = Configuration(AmbientData(1, 0, 4), "surface_plus_two_points",
                        comps, Flags(effectiveness=False))
    assert cfg.surfaces()[0].weights == (2, 4)


# ---------------------------------------------------------------------------
# Witnesses


DEMO_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def test_failed_gives_exactly_the_failing_checks_in_order():
    assert len(DEMO_CONFIGS) == 10
    verdicts = set()
    for path in DEMO_CONFIGS:
        report = verify_case(load_config(str(path)))
        failed = report.failed()
        assert failed == tuple(c for c in report.checks if not c.passed)
        assert (failed == ()) == report.consistent
        verdicts.add(report.consistent)
    assert verdicts == {False, True}


def test_cp3_configuration_is_consistent():
    report = verify_case(cp3_configuration())
    assert report.consistent
    names = [c.name for c in report.checks]
    assert "pontrjagin-restriction" in names
    assert "intersection-form" in names


def test_quadric_configuration_is_consistent():
    report = verify_case(quadric_configuration())
    assert report.consistent


def test_semifree_witness_is_consistent():
    report = verify_case(semifree_surfaces(rho=4, t=1, a_x=1, ev_x=1, ev_y1=2))
    assert report.consistent


# ---------------------------------------------------------------------------
# Canned contradictions


def failures(cfg):
    report = verify_case(cfg)
    assert not report.consistent
    return {c.name: c for c in report.checks if not c.passed}


def test_two_fours_cannot_reach_positive_t():
    cfg = Configuration(AmbientData(1, 0, 4), "two_fours",
                        (zero_four(), zero_four(a=1)))
    failed = failures(cfg)
    assert set(failed) == {"x3-localization"}
    assert failed["x3-localization"].residual == LiftPolynomial.constant(-1)
    assert failed["x3-localization"].citation == CITATIONS["x3-localization"]


def test_four_plus_surface_cannot_reach_positive_t():
    cfg = Configuration(
        AmbientData(1, 0, 4), "four_plus_surface",
        (zero_four(), SurfaceComponent((1, 1), 1, 0, 0, 0, 2)),
    )
    assert set(failures(cfg)) == {"x3-localization"}


def test_four_plus_two_points_equal_lifts_force_t_zero():
    cfg = Configuration(
        AmbientData(1, 0, 4), "four_plus_two_points",
        (zero_four(), PointComponent(1, (1, 1, 1), 1),
         PointComponent(-1, (1, 1, 1), 1)),
    )
    failed = failures(cfg)
    assert set(failed) == {"x3-localization"}
    # The local data cancel exactly, so the residual is the constant -t:
    # the identity would force t = 0.
    assert failed["x3-localization"].residual == LiftPolynomial.constant(-1)


def test_cp2like_zero_evaluations_violate_restriction():
    four = FourComponent(1, 0, 0, 0, 0, -3, 1, -1, 3)
    cfg = Configuration(AmbientData(1, 0, 4), "cp2like_plus_point",
                        (four, PointComponent(1, (1, 1, 1), 1)))
    failed = failures(cfg)
    assert "pontrjagin-restriction" in failed
    assert failed["pontrjagin-restriction"].residual == -3
    assert failed["pontrjagin-restriction"].citation == CITATIONS["pontrjagin-restriction"]


def test_semifree_negative_rho_breaks_closure():
    cfg = semifree_surfaces(rho=-4, t=1, a_x=1, ev_x=-1, ev_y1=-2)
    failed = failures(cfg)
    assert "semifree-closure" in failed
    assert failed["semifree-closure"].residual == 2
    assert failed["semifree-closure"].citation == CITATIONS["semifree-closure"]


def test_two_surfaces_negative_rho_breaks_slope():
    sx = SurfaceComponent((1, 2), 2, 1, 1, 0, 2)
    sy = SurfaceComponent((1, 2), 0, 1, -1, 0, 2)
    cfg = Configuration(AmbientData(2, -1, 4), "two_surfaces", (sx, sy))
    failed = failures(cfg)
    assert "pontrjagin-slope" in failed
    assert failed["pontrjagin-slope"].residual == -4


def test_surface_two_points_negative_rho_breaks_positivity():
    cfg = quadric_configuration(rho=-1)
    failed = failures(cfg)
    assert "point-pontrjagin-positivity" in failed
    assert failed["point-pontrjagin-positivity"].residual == -4
    assert "p1x-localization" in failed


def test_weight_divisibility_flags_impossible_geometry():
    # Surface weight 3 with point weights (1, 1, 2): 3 divides none of them.
    surface = SurfaceComponent((1, 3), 0, 0, -1, 0, 2)
    plus = PointComponent(1, (1, 1, 2), 1)
    minus = PointComponent(-1, (1, 1, 2), 1)
    cfg = Configuration(AmbientData(1, -4, 4), "surface_plus_two_points",
                        (surface, plus, minus))
    failed = failures(cfg)
    assert "weight-divisibility" in failed
    assert failed["weight-divisibility"].citation == CITATIONS["weight-divisibility"]
    without = Configuration(AmbientData(1, -4, 4), "surface_plus_two_points",
                            (surface, plus, minus), Flags(lemma64=False))
    assert "weight-divisibility" not in {
        c.name for c in verify_case(without).checks
    }


def test_weight_matching_flags_unequal_point_weights():
    surface = SurfaceComponent((1, 1), 0, 0, 0, 0, 2)
    plus = PointComponent(1, (1, 1, 1), 1)
    minus = PointComponent(-1, (1, 2, 2), 1)
    cfg = Configuration(AmbientData(1, 0, 4), "surface_plus_two_points",
                        (surface, plus, minus))
    assert "weight-matching" in failures(cfg)


def test_surface_structure_checks_shared_weight():
    sx = SurfaceComponent((1, 2), 1, 0, 0, 0, 2)
    sy = SurfaceComponent((1, 3), 0, 0, 0, 0, 2)
    cfg = Configuration(AmbientData(1, 0, 4), "two_surfaces", (sx, sy))
    assert "surface-structure" in failures(cfg)


def test_every_citation_is_the_base_name_of_an_emitted_check():
    cfgs = [load_config(str(path)) for path in DEMO_CONFIGS]
    cfgs.append(Configuration(AmbientData(1, 0, 4), "two_fours",
                              (zero_four(), zero_four(a=1))))
    bases = set()
    for cfg in cfgs:
        for check in verify_case(cfg).checks:
            base = check.name.partition("[")[0]
            assert check.citation == CITATIONS[base]
            bases.add(base)
    assert "intersection-form[1]" in {c.name for c in verify_case(cfgs[-1]).checks}
    assert bases == set(CITATIONS)


# ---------------------------------------------------------------------------
# Check lists of the two surface templates

_LEMMA64_CHECKS = {"weight-matching", "weight-divisibility",
                   "surface-structure"}
_RELATIONS = {"semifree-closure", "surface-restriction-product",
              "pontrjagin-slope", "point-pontrjagin-positivity"}

# sha256 of the verify_case check lists (name, passed, repr of the residual)
# of _surface_configurations() with every lift shifted by -2..2, lemma64 on
# then off for each.
SURFACE_CHECK_LISTS_DIGEST = (
    "58afba68d28d95f82c343305382fbab94fd0e7a3bd8e839cd4f87794453e0db3")


def _surface_configurations():
    demos = [load_config(str(path)) for path in DEMO_CONFIGS]
    ambient = AmbientData(1, -4, 4)
    plus = PointComponent(1, (1, 1, 2), 1)
    minus = PointComponent(-1, (1, 1, 2), 1)
    return [cfg for cfg in demos
            if cfg.template in ("two_surfaces", "surface_plus_two_points")] + [
        # surface-structure fails on the second weights
        Configuration(ambient, "two_surfaces",
                      (SurfaceComponent((1, 2), 1, 0, 0, 0, 2),
                       SurfaceComponent((1, 3), 0, 0, 0, 0, 2))),
        # ... and on a second evaluation alone
        Configuration(ambient, "two_surfaces",
                      (SurfaceComponent((1, 2), 1, 1, 1, 1, 2),
                       SurfaceComponent((1, 2), 0, 1, -1, 0, 2))),
        Configuration(ambient, "two_surfaces",
                      (SurfaceComponent((1, 1), 1, 1, 2, 0, 2),
                       SurfaceComponent((1, 1), 0, 1, -2, 3, 2))),
        # weight-matching fails
        Configuration(ambient, "surface_plus_two_points",
                      (SurfaceComponent((1, 1), 0, 0, 0, 0, 2), plus,
                       PointComponent(-1, (1, 2, 2), 1))),
        # weight-matching holds and weight-divisibility fails
        Configuration(ambient, "surface_plus_two_points",
                      (SurfaceComponent((1, 3), 0, 0, -1, 0, 2), plus,
                       minus)),
        # both hold
        Configuration(ambient, "surface_plus_two_points",
                      (SurfaceComponent((1, 2), 0, 1, -1, 0, 2), plus,
                       minus)),
    ]


def _check_list(cfg, lemma64):
    cfg = replace(cfg, flags=replace(cfg.flags, lemma64=lemma64))
    return [(c.name, c.passed, repr(c.residual))
            for c in verify_case(cfg).checks]


def test_surface_check_lists_with_lemma64_on_and_off_are_pinned():
    lists = []
    for cfg in _surface_configurations():
        for delta in range(-2, 3):
            shifted = shift_lift(cfg, delta)
            on = _check_list(shifted, True)
            off = _check_list(shifted, False)
            # lemma64 off drops exactly its own checks and keeps the
            # relations, in their place.
            assert off == [c for c in on if c[0] not in _LEMMA64_CHECKS]
            lists += [on, off]
    outcomes = {(name, passed) for checks in lists for name, passed, _ in checks}
    assert {(name, passed) for name in _LEMMA64_CHECKS
            for passed in (False, True)} <= outcomes
    assert _RELATIONS <= {name for name, _ in outcomes}
    text = repr(lists).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == SURFACE_CHECK_LISTS_DIGEST


# ---------------------------------------------------------------------------
# Signature rigidity branches


def test_single_point_never_rigid():
    results = signature_checks([PointComponent(1, (1, 2, 2), 0)], 0)
    assert [r.name for r in results] == ["signature-rigidity"]
    assert not results[0].passed
    assert results[0].citation == CITATIONS["signature-rigidity"]


def test_cancelling_points_rigid_vanishing_and_limit():
    comps = [PointComponent(1, (2, 3, 4), 1),
             PointComponent(-1, (2, 3, 4), -2)]
    results = {r.name: r for r in signature_checks(comps, 0)}
    assert results["signature-rigidity"].passed
    assert results["signature-vanishing"].passed
    assert results["signature-limit"].passed


def test_constant_must_match_ambient_signature():
    comps = [SurfaceComponent((1, 1), 0, 0, 0, 0, 2)]
    results = {r.name: r for r in signature_checks(comps, 5)}
    assert results["signature-rigidity"].passed
    assert not results["signature-vanishing"].passed
    assert results["signature-vanishing"].residual == -5


def test_fours_reduce_to_limit_identity():
    comps = [zero_four(b2=2, sign=2), PointComponent(-1, (1, 1, 1), 0)]
    results = signature_checks(comps, 0)
    assert [r.name for r in results] == ["signature-limit"]
    assert not results[0].passed  # 2 - 1 = 1 != 0
    assert results[0].residual == -1


@settings(max_examples=200)
@given(st.lists(character_components, max_size=4))
@example([PointComponent(1, (2, 3, 4), 1), PointComponent(-1, (2, 3, 4), -2)])
@example(list(quadric_configuration().components))
@example(projective_space_points((0, 1, 3, 7)))
def test_the_character_total_tends_to_the_sum_of_eps(comps):
    # So a rigid total's constant is its limit, and the rigid branch of
    # signature_checks reads the limit off the constant: its signature-limit
    # residual, constant - contributions, is always 0.
    total = sum(map(signature_local_datum, comps), CharacterFunction.zero())
    contributions = sum(c.signature_contribution for c in comps)
    assert total.limit_at_infinity() == contributions
    const = total.is_constant()
    if const is not None:
        assert const == contributions
        assert signature_checks(comps)[-1].residual == 0


def test_lemma41_direct_api():
    ambient = AmbientData(1, 4, 4)
    four = FourComponent(1, 0, -1, 1, -1, -3, 1, -1, 3)
    assert check_lemma41(four, -1, ambient).passed
    assert not check_lemma41(four, 0, ambient).passed


# ---------------------------------------------------------------------------
# Lift shifts


def test_shift_lift_moves_all_lift_weights():
    cfg = quadric_configuration()
    shifted = shift_lift(cfg, 3)
    assert [c.a for c in shifted.components] == [3, 4, 2]
    assert shifted.ambient == cfg.ambient


@given(delta=st.integers(-6, 6))
def test_shift_preserves_witness_consistency(delta):
    for cfg in (cp3_configuration(), quadric_configuration(),
                semifree_surfaces(4, 1, 1, 1, 2)):
        assert verify_case(shift_lift(cfg, delta)).consistent


@given(delta=st.integers(-5, 5), rho=st.integers(-6, 6))
@settings(max_examples=40)
def test_shift_preserves_every_check_flag(delta, rho):
    for base in (cp3_configuration(rho), quadric_configuration(rho)):
        before = verify_case(base).checks
        after = verify_case(shift_lift(base, delta)).checks
        assert [c.name for c in before] == [c.name for c in after]
        assert [c.passed for c in before] == [c.passed for c in after]


@given(
    delta=st.integers(-6, 6),
    a1=st.integers(-4, 4),
    a2=st.integers(-4, 4),
    weights=st.tuples(*(st.integers(1, 4),) * 3),
)
@settings(max_examples=60)
def test_shift_commutes_with_x3_sum(delta, a1, a2, weights):
    comps = (PointComponent(1, weights, a1), PointComponent(-1, weights, a2))
    shifted = tuple(PointComponent(c.eps, c.weights, c.a + delta)
                    for c in comps)
    original = x3_sum(comps)
    moved = x3_sum(shifted)
    for z in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
        assert moved(z) == original(z + delta)


# ---------------------------------------------------------------------------
# Generic linear actions: four isolated fixed points


_ALL_SIGNATURE_CHECKS_PASS = [("signature-rigidity", True),
                              ("signature-vanishing", True),
                              ("signature-limit", True)]


@pytest.mark.parametrize("degrees, points", [
    ((1,), projective_space_points((0, 1, 2, 3))),
    ((1,), projective_space_points((0, 1, 3, 7))),
    ((2,), quadric_points(1, 2)),
    ((2,), quadric_points(1, 3)),
], ids=["cp3-0123", "cp3-0137", "quadric-12", "quadric-13"])
def test_generic_linear_actions_give_their_manifolds_numbers(degrees, points):
    m = invariants(CompleteIntersection(3, degrees))
    x3, p1x, checks, chi = four_point_checks(points)
    assert (x3, p1x, chi) == (m.t, m.rho * m.t, m.euler)
    assert [(c.name, c.passed) for c in checks] == _ALL_SIGNATURE_CHECKS_PASS


def test_the_formal_four_points_at_rho_zero_pass_the_same_checks():
    # Four points at t = 6, rho = 0 that pass every check on point data.
    # What excludes them is the Euler characteristic: every threefold with
    # rho <= 0 has chi <= 0, not 4
    # (test_four_points_fit_no_threefold_with_rho_at_most_zero).  A later
    # check that rejects them must show here.
    points = [PointComponent(1, (1, 2, 5), 0), PointComponent(-1, (3, 4, 5), -5),
              PointComponent(-1, (1, 1, 4), 3), PointComponent(1, (1, 2, 3), 4)]
    x3, p1x, checks, chi = four_point_checks(points)
    assert (x3, p1x, chi) == (6, 0, 4)
    assert [(c.name, c.passed) for c in checks] == _ALL_SIGNATURE_CHECKS_PASS
