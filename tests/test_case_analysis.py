"""The case analysis of the fixed-point templates as unbounded statements:
each holds for every weight, evaluation and lift, not only on a search box.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cisym.localization import (
    MAX_WEIGHT,
    AmbientData,
    Configuration,
    Flags,
    FourComponent,
    SurfaceComponent,
    check_x3,
    shift_lift,
    x3_sum,
)

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
