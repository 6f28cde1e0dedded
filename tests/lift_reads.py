"""Values of lift polynomials read off their canonical parts, for tests:
the coefficients, the value at a lift, and the polynomial at a shifted lift.
"""

from fractions import Fraction

from cisym.algebra import LiftPolynomial


def coefficients(poly, count=4):
    """The l^0 .. l^(count-1) coefficients of poly, num[k] / den, padded
    with zeros."""
    assert len(poly.num) <= count
    return ([Fraction(c, poly.den) for c in poly.num]
            + [Fraction(0)] * (count - len(poly.num)))


def value_at(poly, v):
    """poly at l = v."""
    return sum((Fraction(c, poly.den) * Fraction(v) ** k
                for k, c in enumerate(poly.num)), Fraction(0))


def at_shifted_lift(poly, d):
    """poly(l + d), summed over the powers of l + d."""
    u = LiftPolynomial.shifted_lift(d)
    return sum((u**k * Fraction(c, poly.den) for k, c in enumerate(poly.num)),
               LiftPolynomial())
