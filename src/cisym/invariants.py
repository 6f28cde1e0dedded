"""Topological invariants of smooth complete intersections.

X_n(d_1, ..., d_r) is the transverse intersection of r hypersurfaces of the
given degrees in complex projective (n+r)-space; its real dimension is 2n.
All invariants are computed from the multiplicative structure of the stable
tangent bundle: (n+r+1) hyperplane line factors divided by one factor per
defining degree.  The Euler characteristic is an integer recurrence; only
the signature and the A-hat genus build series.  Everything is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .algebra import TruncatedSeries, _unit_line_factor

MAX_DEGREE = 10**6
MAX_FACTORS = 64
# The L and A-hat series behind one even-n invariants() call grow faster
# than n^3, so the library caps n; the CLI answers n <= 6 only.
MAX_DIMENSION = 32


class ParityError(ValueError):
    """Raised when an invariant of 4k-dimensional manifolds is requested in
    the wrong parity."""


@dataclass(frozen=True)
class CompleteIntersection:
    """A complete intersection of complex dimension n and multidegree
    (d_1, ..., d_r), degrees sorted ascending."""

    n: int
    degrees: tuple[int, ...]

    def __init__(self, n: int, degrees) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("complex dimension n must be a positive integer")
        if n > MAX_DIMENSION:
            raise ValueError(
                f"complex dimensions above {MAX_DIMENSION} are not supported")
        raw = tuple(degrees)
        if not raw:
            raise ValueError("at least one degree is required")
        if len(raw) > MAX_FACTORS:
            raise ValueError(f"at most {MAX_FACTORS} degrees are supported")
        for d in raw:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError("degrees must be positive integers")
            if d > MAX_DEGREE:
                raise ValueError(f"degrees above {MAX_DEGREE} are not supported")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", tuple(sorted(raw)))

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def ambient_lines(self) -> int:
        """Number of hyperplane line factors of the ambient restriction."""
        return self.n + self.r + 1

    def __repr__(self) -> str:
        return f"X_{self.n}({', '.join(str(d) for d in self.degrees)})"


def normalize(ci: CompleteIntersection) -> CompleteIntersection:
    """Drop degree-1 factors (a degree-1 hypersurface is a hyperplane, so it
    only lowers the ambient dimension).  The empty result is the degree-(1)
    projective space itself."""
    ds = tuple(d for d in ci.degrees if d != 1)
    if not ds:
        ds = (1,)
    return CompleteIntersection(ci.n, ds)


def degree_product(ci: CompleteIntersection) -> int:
    t = 1
    for d in ci.degrees:
        t *= d
    return t


def evaluate_top(ci: CompleteIntersection, f: TruncatedSeries) -> Fraction:
    """Evaluate a degree-2n cohomology expression on the fundamental class:
    the x^n coefficient times the hyperplane self-intersection number
    t = d_1 * ... * d_r."""
    if f.order < ci.n:
        raise ValueError(
            f"series truncated at order {f.order} cannot be evaluated in"
            f" dimension n = {ci.n}"
        )
    return degree_product(ci) * f.coefficient(ci.n)


def _virtual_genus_series(ci: CompleteIntersection, kind: str) -> TruncatedSeries:
    """Genus series of the stable tangent bundle: ambient line factors over
    the factors of the defining degrees.

    The factor at line weight d is the weight-1 factor f at d*x, and so is
    its inverse, so f and its inverse are built once and each distinct
    degree takes the inverse rescaled by d."""
    line, inverse = _unit_line_factor(kind, ci.n)
    total = line ** ci.ambient_lines
    for d, m in Counter(ci.degrees).items():
        total = total * inverse.rescaled(d) ** m
    return total


def pontrjagin_coeff(ci: CompleteIntersection) -> int:
    """rho with p_1 = rho * x^2."""
    return ci.ambient_lines - sum(d * d for d in ci.degrees)


def c1_coeff(ci: CompleteIntersection) -> int:
    """Coefficient of the first Chern class with respect to x."""
    return ci.ambient_lines - sum(ci.degrees)


def euler_characteristic(ci: CompleteIntersection) -> int:
    """t * [x^n] (1 + x)^(n+r+1) / prod(1 + d_i x), in integers: the
    binomial coefficients, then one ascending division by 1 + d x per degree."""
    c = [comb(ci.ambient_lines, m) for m in range(ci.n + 1)]
    for d in ci.degrees:
        for m in range(1, ci.n + 1):
            c[m] -= d * c[m - 1]
    return degree_product(ci) * c[ci.n]


def signature(ci: CompleteIntersection) -> int:
    """Signature of the intersection form, for even complex dimension."""
    if ci.n % 2:
        raise ParityError(
            "the signature lives in dimensions divisible by 4; n must be even"
        )
    sigma = evaluate_top(ci, _virtual_genus_series(ci, "l_genus"))
    assert sigma.denominator == 1
    return int(sigma)


def a_hat_genus(ci: CompleteIntersection) -> Fraction:
    """The A-hat genus, for even complex dimension.  Rational in general;
    an integer on spin manifolds."""
    if ci.n % 2:
        raise ParityError("the A-hat genus requires even complex dimension n")
    return evaluate_top(ci, _virtual_genus_series(ci, "a_hat"))


def is_spin(ci: CompleteIntersection) -> bool:
    """Spin iff the first Chern class is even."""
    return c1_coeff(ci) % 2 == 0


@dataclass(frozen=True)
class InvariantReport:
    ci: CompleteIntersection
    t: int
    c1_coeff: int
    rho: int
    euler: int
    spin: bool
    signature: Optional[int]
    a_hat: Optional[Fraction]
    b3: Optional[int]


def invariants(ci: CompleteIntersection) -> InvariantReport:
    """All implemented invariants in one report.  signature and a_hat are
    present only for even n; b3 only for n = 3, where the even Betti numbers
    are 1, 1, 1, 1 and so b3 = 4 - euler."""
    chi = euler_characteristic(ci)
    even = ci.n % 2 == 0
    return InvariantReport(
        ci=ci,
        t=degree_product(ci),
        c1_coeff=c1_coeff(ci),
        rho=pontrjagin_coeff(ci),
        euler=chi,
        spin=is_spin(ci),
        signature=signature(ci) if even else None,
        a_hat=a_hat_genus(ci) if even else None,
        b3=(4 - chi) if ci.n == 3 else None,
    )
