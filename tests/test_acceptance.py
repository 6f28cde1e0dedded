"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS" line when it succeeds (visible
with pytest -s); under pytest -v the per-test PASSED/FAILED line records the
same verdict.  Timing limits are asserted inside the relevant tests.
"""

import random
import time
from fractions import Fraction

import oracle

from cisym.algebra import LiftPolynomial
from cisym.classify import s1_verdict, theorem_hypotheses
from cisym.invariants import (
    CompleteIntersection,
    a_hat_genus,
    c1_coeff,
    euler_characteristic,
    invariants,
    is_spin,
    normalize,
    signature,
)
from cisym.localization import (
    CITATIONS,
    AmbientData,
    Configuration,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    shift_lift,
    signature_checks,
    verify_case,
    x3_sum,
)
from cisym.search import SearchBounds, SearchFlags, search_case
from lift_reads import at_shifted_lift
from test_invariants import multidegrees


def X(n, *degrees):
    return CompleteIntersection(n, degrees)


def test_criterion_1_euler_characteristics():
    start = time.monotonic()
    expected = {
        (3, (1,)): 4,
        (3, (2,)): 4,
        (3, (3,)): -6,
        (3, (4,)): -56,
        (3, (5,)): -200,
        (3, (2, 2)): 0,
        (1, (3,)): 0,
        (2, (4,)): 24,
    }
    for (n, degs), value in expected.items():
        assert euler_characteristic(X(n, *degs)) == value, (n, degs)
    # Curves in closed form: euler = t * (r + 2 - sum of degrees).
    for degs in multidegrees(10):
        ci = X(1, *degs)
        t = 1
        for d in degs:
            t *= d
        assert euler_characteristic(ci) == t * (len(degs) + 2 - sum(degs))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print("criterion 1: PASS - frozen Euler characteristics and the curve"
          " closed form agree")


def test_criterion_2_independent_oracle():
    euler_cases = [(3, (3,)), (3, (4,)), (3, (5,)), (3, (2, 2)), (2, (4,))]
    for n, degs in euler_cases:
        assert euler_characteristic(X(n, *degs)) == oracle.euler_ci(n, degs)
    signature_cases = [(2,), (3,), (4,), (6,), (2, 3)]
    for degs in signature_cases:
        ci = X(2, *degs)
        assert signature(ci) == oracle.signature_ci(2, degs)
        assert a_hat_genus(ci) == oracle.a_hat_ci(2, degs)
    print("criterion 2: PASS - naive-convolution oracle reproduces every"
          " frozen value")


def test_criterion_3_spin_surfaces():
    for degs in multidegrees(14):
        ci = X(2, *degs)
        if not is_spin(ci):
            continue
        sig = signature(ci)
        assert sig % 16 == 0, (degs, sig)
        a_hat = a_hat_genus(ci)
        assert a_hat == Fraction(-sig, 8)
        assert (a_hat == 0) == (c1_coeff(ci) > 0), degs
    print("criterion 3: PASS - spin surfaces satisfy divisibility by 16 and"
          " a_hat = -sign/8, vanishing exactly when c1 > 0")


def test_criterion_4_threefold_classification():
    admissible = {(1,), (2,)}
    for degs in multidegrees(14):
        ci = X(3, *degs)
        verdict = s1_verdict(ci)
        checklist = theorem_hypotheses(ci)
        normalized = normalize(ci).degrees
        assert verdict.admits == (normalized in admissible), degs
        assert verdict.admits == (not checklist.satisfied), degs
        if sum(normalized) >= 3:
            chi = euler_characteristic(ci)
            assert chi <= 0
            assert chi < 0 or normalized == (2, 2)
    print("criterion 4: PASS - threefold verdicts match the hypothesis"
          " checklist and the admissible set {(1), (2)}")


def _zero_four(weight=1, a=0, b2=0, sign=0, chi=None):
    return FourComponent(weight, a, 0, 0, 0, 3 * sign, b2, sign,
                         (2 + b2) if chi is None else chi)


def test_criterion_5_case_analysis_contradictions():
    def failing(cfg):
        report = verify_case(cfg)
        assert not report.consistent
        return {c.name: c for c in report.checks if not c.passed}

    # Two 4-dimensional components: the x^3 identity forces t = 0.
    failed = failing(Configuration(AmbientData(1, 0, 4), "two_fours",
                                   (_zero_four(), _zero_four(a=1))))
    assert set(failed) == {"x3-localization"}
    assert failed["x3-localization"].citation == CITATIONS["x3-localization"]

    # 4-dimensional component plus surface: same conclusion.
    failed = failing(Configuration(
        AmbientData(1, 0, 4), "four_plus_surface",
        (_zero_four(), SurfaceComponent((1, 1), 1, 0, 0, 0, 2))))
    assert set(failed) == {"x3-localization"}

    # 4-dimensional component plus two points: equal lift weights make the
    # local data cancel, so the residual is the constant -t (t would be 0).
    cfg = Configuration(
        AmbientData(1, 0, 4), "four_plus_two_points",
        (_zero_four(), PointComponent(1, (1, 1, 1), 1),
         PointComponent(-1, (1, 1, 1), 1)))
    failed = failing(cfg)
    residual = failed["x3-localization"].residual
    assert residual == LiftPolynomial.constant(-cfg.ambient.t)

    # b2 = 1 component with vanishing evaluations: the restriction identity
    # [p1] = (rho - gamma^2)[x^2] cannot produce ev_p1 = -3.
    failed = failing(Configuration(
        AmbientData(1, 0, 4), "cp2like_plus_point",
        (FourComponent(1, 0, 0, 0, 0, -3, 1, -1, 3),
         PointComponent(1, (1, 1, 1), 1))))
    assert "pontrjagin-restriction" in failed
    assert failed["pontrjagin-restriction"].residual == -3
    assert failed["pontrjagin-restriction"].citation == \
        CITATIONS["pontrjagin-restriction"]

    # Semifree two-surface case at rho = -4: the closure identity
    # t = rho * t * (a_X - a_Y)^2 / 4 leaves residual t*(1 - rho/4) = 2.
    sx = SurfaceComponent((1, 1), 1, -1, -2, 0, 2)
    sy = SurfaceComponent((1, 1), 0, -1, 2, 0, 2)
    failed = failing(Configuration(AmbientData(1, -4, 4), "two_surfaces",
                                   (sx, sy)))
    assert failed["semifree-closure"].residual == 2
    assert failed["semifree-closure"].citation == CITATIONS["semifree-closure"]

    # Non-semifree two-surface case: the slope identity rho*t = 4 n1 ex / n2
    # is positive, contradicting rho = -1.
    nx = SurfaceComponent((1, 2), 2, 1, 1, 0, 2)
    ny = SurfaceComponent((1, 2), 0, 1, -1, 0, 2)
    failed = failing(Configuration(AmbientData(2, -1, 4), "two_surfaces",
                                   (nx, ny)))
    assert failed["pontrjagin-slope"].residual == -4
    assert failed["pontrjagin-slope"].citation == CITATIONS["pontrjagin-slope"]

    # Surface plus two points with equal weights: positivity of
    # rho * t = 2 a (Q - R) / P contradicts rho = -1.
    surface = SurfaceComponent((1, 1), 0, -2, 0, 0, 2)
    failed = failing(Configuration(
        AmbientData(2, -1, 4), "surface_plus_two_points",
        (surface, PointComponent(1, (1, 1, 1), 1),
         PointComponent(-1, (1, 1, 1), -1))))
    assert failed["point-pontrjagin-positivity"].residual == -4
    assert failed["point-pontrjagin-positivity"].citation == \
        CITATIONS["point-pontrjagin-positivity"]
    print("criterion 5: PASS - every canned contradiction fails at the"
          " expected check with the expected residual and citation")


def test_criterion_6_nonpositive_rho_search_is_empty():
    start = time.monotonic()
    bounds = SearchBounds(max_weight=5, max_abs_a=5, max_abs_eval=10)
    for template in ("two_fours", "four_plus_surface",
                     "four_plus_two_points", "cp2like_plus_point",
                     "single_four_b2_2", "two_surfaces",
                     "surface_plus_two_points"):
        hits = search_case(template, t_range=(1, 10), rho_range=(-10, 0),
                           bounds=bounds, flags=SearchFlags())
        assert hits == [], template
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"criterion 6: PASS - all seven templates are empty for"
          f" rho <= 0 within bounds ({elapsed:.1f}s)")


def test_criterion_7_semifree_positive_rho_hits():
    hits = search_case("two_surfaces", t_range=(1, 10), rho_range=(-10, 10),
                       bounds=SearchBounds(5, 5, 10),
                       flags=SearchFlags(semifree=True))
    assert hits, "expected semifree solutions at positive rho"
    assert {cfg.ambient.rho for cfg in hits} == {1, 4}
    for cfg in hits:
        sx, sy = cfg.surfaces()
        assert cfg.ambient.rho * (sx.a - sy.a) ** 2 == 4
    print(f"criterion 7: PASS - semifree two-surface solutions occur exactly"
          f" at rho in {{1, 4}} ({len(hits)} hits)")


def test_criterion_8_rigidity_statistics():
    start = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(10**4):
        point = PointComponent(
            rng.choice((-1, 1)),
            tuple(rng.randint(1, 5) for _ in range(3)),
            rng.randint(-5, 5),
        )
        results = signature_checks([point])
        assert [r.name for r in results] == ["signature-rigidity"]
        assert not results[0].passed
    for _ in range(10**4):
        eps = rng.choice((-1, 1))
        weights = tuple(rng.randint(1, 5) for _ in range(3))
        pair = [
            PointComponent(eps, weights, rng.randint(-5, 5)),
            PointComponent(-eps, weights, rng.randint(-5, 5)),
        ]
        results = {r.name: r for r in signature_checks(pair)}
        assert results["signature-rigidity"].passed
        assert results["signature-vanishing"].passed
        assert results["signature-limit"].passed
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"criterion 8: PASS - 10^4 lone points are never rigid and 10^4"
          f" cancelling pairs are rigid with matching constant, limit and"
          f" signature sum ({elapsed:.1f}s)")


def _random_configuration(rng):
    loose = Flags(effectiveness=False, convention35=False, lemma64=True)

    def point():
        return PointComponent(rng.choice((-1, 1)),
                              tuple(rng.randint(1, 4) for _ in range(3)),
                              rng.randint(-4, 4))

    def surface():
        return SurfaceComponent(
            (rng.randint(1, 4), rng.randint(1, 4)), rng.randint(-4, 4),
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5),
            rng.choice((2, 0, -2)),
        )

    def four(b2):
        sign = rng.choice({0: (0,), 1: (-1, 1), 2: (-2, 0, 2)}[b2])
        if b2 == 0:
            evs = (0, 0, 0)
        else:
            evs = tuple(rng.randint(-5, 5) for _ in range(3))
        chi = 2 + b2 - 2 * rng.randint(0, 2)
        return FourComponent(rng.randint(1, 4), rng.randint(-4, 4),
                             evs[0], evs[1], evs[2], 3 * sign, b2, sign, chi)

    template = rng.choice((
        "two_fours", "four_plus_surface", "four_plus_two_points",
        "cp2like_plus_point", "single_four_b2_2", "two_surfaces",
        "surface_plus_two_points",
    ))
    builders = {
        "two_fours": lambda: (four(0), four(0)),
        "four_plus_surface": lambda: (four(0), surface()),
        "four_plus_two_points": lambda: (four(0), point(), point()),
        "cp2like_plus_point": lambda: (four(1), point()),
        "single_four_b2_2": lambda: (four(2),),
        "two_surfaces": lambda: (surface(), surface()),
        "surface_plus_two_points": lambda: (surface(), point(), point()),
    }
    ambient = AmbientData(rng.randint(1, 6), rng.randint(-5, 5),
                          rng.randint(-4, 8), 0)
    return Configuration(ambient, template, builders[template](), loose)


def test_criterion_9_lift_shift_invariance():
    rng = random.Random(987654321)
    for _ in range(10**3):
        cfg = _random_configuration(rng)
        delta = rng.randint(-6, 6)
        moved = shift_lift(cfg, delta)
        assert x3_sum(moved.components) == at_shifted_lift(
            x3_sum(cfg.components), delta)
        before = verify_case(cfg).checks
        after = verify_case(moved).checks
        assert [c.name for c in before] == [c.name for c in after]
        assert [c.passed for c in before] == [c.passed for c in after]
    print("criterion 9: PASS - 10^3 random configurations keep every check"
          " verdict under lift shifts, and the x^3 sum commutes with the"
          " shift")
