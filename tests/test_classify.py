"""Classification verdicts and the 6-manifold hypothesis checklist."""

import pytest

from cisym.classify import (
    REASON_ADMITS,
    REASON_OBSTRUCTED,
    REASON_OUT_OF_SCOPE,
    s1_verdict,
    theorem_hypotheses,
)
from cisym.invariants import CompleteIntersection, c1_coeff, normalize

from test_invariants import multidegrees


def X(n, *degrees):
    return CompleteIntersection(n, degrees)


def test_threefold_verdicts():
    assert s1_verdict(X(3, 1)).admits is True
    assert s1_verdict(X(3, 2)).admits is True
    assert s1_verdict(X(3, 3)).admits is False
    assert s1_verdict(X(3, 2, 2)).admits is False
    assert s1_verdict(X(3, 1, 2)).admits is True  # normalizes to the quadric


def test_surface_and_curve_verdicts():
    for n in (1, 2):
        assert s1_verdict(X(n, 2, 2)).admits is True
        assert s1_verdict(X(n, 3)).admits is True
        assert s1_verdict(X(n, 4)).admits is False
        assert s1_verdict(X(n, 2, 3)).admits is False


def test_out_of_scope_above_dimension_three():
    v = s1_verdict(X(4, 2))
    assert v.admits is None
    assert v.reason == REASON_OUT_OF_SCOPE


def test_reasons_and_evidence():
    v = s1_verdict(X(3, 4))
    assert v.reason == REASON_OBSTRUCTED
    assert v.evidence.rho == -11
    assert s1_verdict(X(3, 2)).reason == REASON_ADMITS
    assert v.normalized == (4,)


def test_surface_verdict_equals_positive_c1_sweep():
    for degs in multidegrees(14):
        ci = CompleteIntersection(2, degs)
        assert s1_verdict(ci).admits == (c1_coeff(normalize(ci)) > 0)


def test_threefold_verdict_equals_hypothesis_failure_sweep():
    # admits <=> the non-existence hypotheses do NOT all hold, and
    # admits <=> normalized multidegree in {(1), (2)}.
    for degs in multidegrees(14):
        ci = CompleteIntersection(3, degs)
        verdict = s1_verdict(ci)
        checklist = theorem_hypotheses(normalize(ci))
        assert verdict.admits == (not checklist.satisfied)
        assert verdict.admits == (normalize(ci).degrees in {(1,), (2,)})


def test_threefold_euler_small_once_degrees_grow():
    # For every normalized multidegree with sum >= 3 the Euler characteristic
    # is <= 0 (so in particular < 4), with equality only at (2,2); checked
    # exhaustively in the tested range.
    from cisym.invariants import euler_characteristic

    for degs in multidegrees(14, min_part=2):
        if sum(degs) >= 3:
            chi = euler_characteristic(CompleteIntersection(3, degs))
            assert chi <= 0
            assert chi < 0 or degs == (2, 2)


def test_checklist_items():
    cl = theorem_hypotheses(X(3, 3))
    names = [i.name for i in cl.items]
    assert names == [
        "homology_shape",
        "rho_nonpositive",
        "top_power_nonzero",
        "euler_below_four",
    ]
    assert cl.satisfied
    cl2 = theorem_hypotheses(X(3, 2))
    assert not cl2.satisfied
    assert [i.holds for i in cl2.items] == [True, False, True, False]


def test_verdict_carries_the_threefold_checklist():
    for degs in multidegrees(8):
        verdict = s1_verdict(X(3, *degs))
        assert verdict.hypotheses == theorem_hypotheses(X(3, *degs))
        assert verdict.evidence == verdict.hypotheses.evidence
    for n in (1, 2, 4, 5):
        assert s1_verdict(X(n, 2, 3)).hypotheses is None


def test_checklist_requires_n3():
    with pytest.raises(ValueError):
        theorem_hypotheses(X(2, 3))
