"""Fixed points of generic linear circle actions on CP^3 and the quadric
Q^3, derived from the coordinate weights alone.

A generic action has four isolated fixed points and no other fixed
component, so its data fit none of TEMPLATES; they are checked with the
sums and the signature checks directly.  The only names taken from cisym
are the point type, the two localization sums and the signature checks.
"""

from fractions import Fraction
from math import prod

from cisym.localization import PointComponent, p1x_sum, signature_checks, x3_sum


def fixed_point(w, i, others):
    """The fixed point e_i of coordinate weights w, whose tangent space is
    spanned by the coordinates `others`: its signed tangent weights are
    w_j - w_i, eps is the sign of their product, the normal weights are
    their absolute values, sorted, and the lift is -w_i."""
    tangent = [w[j] - w[i] for j in others]
    eps = 1 if prod(tangent) > 0 else -1
    return PointComponent(eps, tuple(sorted(abs(n) for n in tangent)), -w[i])


def projective_space_points(w):
    """CP^3 with distinct coordinate weights w: e_i has tangent weights
    w_j - w_i, j != i."""
    return [fixed_point(w, i, [j for j in range(4) if j != i])
            for i in range(4)]


# The coordinate that x_i pairs with in x0^2 + x1 x2 + x3 x4.
_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}


def quadric_points(alpha, beta):
    """Q^3 = {x0^2 + x1 x2 + x3 x4 = 0} in CP^4 with coordinate weights
    (0, alpha, -alpha, beta, -beta), alpha and beta nonzero and alpha !=
    +-beta: the fixed points are e_1 .. e_4, and the tangent space of Q^3 at
    e_i drops the partner coordinate's direction from that of CP^4."""
    w = (0, alpha, -alpha, beta, -beta)
    return [fixed_point(w, i, [j for j in range(5) if j not in (i, _PARTNER[i])])
            for i in range(1, 5)]


def _constant(poly):
    """The value of a constant lift polynomial, read off its parts; None
    if it depends on the lift."""
    if len(poly.num) > 1:
        return None
    return Fraction(poly.num[0] if poly.num else 0, poly.den)


def four_point_checks(points):
    """(x3_sum, p1x_sum, the signature checks, chi) of isolated fixed
    points: x^3 and p1*x as constants (None when a sum is not constant),
    and chi the number of points."""
    return (_constant(x3_sum(points)), _constant(p1x_sum(points)),
            signature_checks(points), len(points))
