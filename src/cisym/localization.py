"""Fixed-point data of circle actions on 6-manifolds with b2 = 1, and the
consistency checks that equivariant localization imposes on it.

The manifolds in scope have torsion-free homology, b1 = 0, a degree-2
generator x with x^3 = t > 0 and first Pontrjagin class rho * x^2; their
even Betti numbers sum to 4, as do those of the fixed-point set of a circle
action.  Eight component patterns fit that budget; seven are TEMPLATES.  The
eighth, four isolated points, is excluded by the Euler characteristic: the
fixed set has chi(M) = 4 - b3 for a complete intersection M, b3 = 0 only for
CP^3 and Q^3, and four points have chi = 4.  Each fixed component Z carries
a lift weight a_Z, normal weights, and integer evaluations of restricted
classes.
Localization turns the global numbers t and rho*t into sums of local data,
polynomial identities in the lift parameter l; the equivariant signature
gives a further rigidity constraint in the circle parameter.

Each local datum is formed as integer numerators over one denominator: the
coefficients of the powers of u = l + a are combined in integers and the
sum is reduced once (a point's datum is one power of u times one exact
scalar).  The signature characters are products of per-weight factors;
_edge(n) and _kernel(n) are built once per weight and reused, a table of at
most MAX_WEIGHT entries each.  The sums of the local data run from zero; the
kernels' zero rule makes their first addition return the first datum.

Within one search_case call, each local datum is computed once per distinct
key.  The call enters a fresh memo (_LOCAL_DATA), one dict for every datum,
and resets it when it returns or raises.  A key is a plain tuple, hashed and
compared in C: the function that computes the datum, the component's kind,
and the values of the fields the datum reads (every field for the x^3 and
p1*x data; eps and weights of a point, weights, ev_y1 and ev_y2 of a
surface for the signature character).  So verify_case in a leaf reuses the
leaf's data, while outside a search each datum is computed directly, before
any key is built.  No cache outlives the call: a signature character grows
with its weights, so a cache for the whole process would have no safe size.

A Configuration bundles ambient numbers, components, a template name, and
normalization flags.  verify_case runs every applicable check and reports
each one with a citation naming the violated constraint.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import gcd
from operator import attrgetter
from typing import (Callable, Iterable, Optional, Sequence, TypeVar, Union,
                    get_args)

from .algebra import CharacterFunction, LiftPolynomial, _lowest


class ConfigurationError(ValueError):
    """Structural problem: the data cannot even be assembled (as opposed to a
    failed consistency check)."""


class UnsupportedComponentError(ValueError):
    """Raised when asking for a local datum the component kind does not have."""


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


# Normal weights above this are rejected.  A component's signature character
# allocates Laurent polynomials whose degree grows with its weights, so a
# single weight of 10^9 in a verify document would exhaust memory.  The cap
# lies far above the weights of the search box and of the case analysis.
MAX_WEIGHT = 1000


def _weight(value, what: str) -> int:
    w = _int(value, what)
    if w < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {w}")
    if w > MAX_WEIGHT:
        raise ConfigurationError(f"{what} must be <= {MAX_WEIGHT}")
    return w


# ---------------------------------------------------------------------------
# Components


@dataclass(frozen=True)
class PointComponent:
    """An isolated fixed point: orientation sign eps, three positive normal
    weights, lift weight a.  chi = 1; its contribution to the signature sum
    is eps."""

    eps: int
    weights: tuple[int, int, int]
    a: int

    def __post_init__(self):
        if isinstance(self.eps, bool) or self.eps not in (-1, 1):
            raise ConfigurationError(f"point eps must be +1 or -1, got {self.eps!r}")
        ws = tuple(_weight(w, "point weight") for w in self.weights)
        if len(ws) != 3:
            raise ConfigurationError("a point has exactly three normal weights")
        object.__setattr__(self, "weights", ws)
        _int(self.a, "lift weight")

    kind = "point"
    chi = 1

    @property
    def signature_contribution(self) -> int:
        return self.eps


@dataclass(frozen=True)
class SurfaceComponent:
    """A fixed surface: two positive normal weights, lift weight a, integer
    evaluations ev_x = [x|Z], ev_y1, ev_y2 of the normal roots, and an even
    Euler characteristic chi <= 2.  Its signature contribution is 0."""

    weights: tuple[int, int]
    a: int
    ev_x: int
    ev_y1: int
    ev_y2: int
    chi: int

    def __post_init__(self):
        ws = tuple(_weight(w, "surface weight") for w in self.weights)
        if len(ws) != 2:
            raise ConfigurationError("a surface has exactly two normal weights")
        object.__setattr__(self, "weights", ws)
        c = _int(self.chi, "surface chi")
        if c % 2 or c > 2:
            raise ConfigurationError("surface chi must be even and <= 2")
        _int(self.a, "lift weight")
        for name in ("ev_x", "ev_y1", "ev_y2"):
            _int(getattr(self, name), name)

    kind = "surface"
    signature_contribution = 0


@dataclass(frozen=True)
class FourComponent:
    """A 4-dimensional fixed component: one positive normal weight, lift
    weight a, evaluations ev_x2 = [x^2|Z], ev_xy = [x*y|Z], ev_y2 = [y^2|Z],
    ev_p1 = [p1(Z)]|Z, rank b2 of the even middle cohomology, signature, and
    Euler characteristic.

    Type-level facts for closed oriented 4-manifolds: |sign| <= b2 with
    sign == b2 (mod 2); ev_p1 == 3 * sign (the signature theorem); b2 = 0
    forces every evaluation to vanish; chi <= 2 + b2 with chi == b2 (mod 2).
    """

    weight: int
    a: int
    ev_x2: int
    ev_xy: int
    ev_y2: int
    ev_p1: int
    b2: int
    sign: int
    chi: int

    def __post_init__(self):
        _weight(self.weight, "4-dimensional component weight")
        b = _int(self.b2, "b2")
        if b not in (0, 1, 2):
            raise ConfigurationError("b2 of a 4-dimensional component is 0, 1 or 2")
        s = _int(self.sign, "sign")
        if abs(s) > b or (s - b) % 2:
            raise ConfigurationError(
                "signature must satisfy |sign| <= b2 and sign == b2 (mod 2)"
            )
        if _int(self.ev_p1, "ev_p1") != 3 * s:
            raise ConfigurationError(
                "ev_p1 must equal 3*sign (signature theorem for closed"
                " oriented 4-manifolds)"
            )
        evs = [_int(getattr(self, k), k) for k in ("ev_x2", "ev_xy", "ev_y2")]
        if b == 0 and any(evs):
            raise ConfigurationError(
                "b2 = 0 leaves no degree-2 classes: all evaluations must vanish"
            )
        c = _int(self.chi, "chi")
        if c > 2 + b or (c - b) % 2:
            raise ConfigurationError(
                "chi must be <= 2 + b2 and of the same parity as b2"
            )
        _int(self.a, "lift weight")

    kind = "four"

    @property
    def weights(self) -> tuple[int]:
        return (self.weight,)

    @property
    def signature_contribution(self) -> int:
        return self.sign


Component = Union[PointComponent, SurfaceComponent, FourComponent]
_COMPONENT_TYPES = get_args(Component)  # a tuple, which isinstance reads fast


@dataclass(frozen=True)
class AmbientData:
    """Global numbers of the ambient 6-manifold: x^3 = t > 0, p1 = rho*x^2,
    Euler characteristic, and the (vanishing) signature."""

    t: int
    rho: int
    euler: int
    sign: int = 0

    def __post_init__(self):
        _int(self.rho, "rho")
        _int(self.euler, "euler")
        if _int(self.t, "t") < 1:
            raise ConfigurationError("t = x^3 must be a positive integer")
        if _int(self.sign, "sign") != 0:
            raise ConfigurationError(
                "6-manifolds have vanishing signature; ambient sign must be 0"
            )


@dataclass(frozen=True)
class Flags:
    """Normalization and restriction flags.

    effectiveness: the action is effective, so no cyclic subgroup fixes a
    neighborhood of a component; every component's normal weights are
    coprime (a 4-dimensional component then has weight 1).
    convention35: orientations are normalized by the inverse-action flip so
    that some isolated fixed point has eps = +1.
    lemma64: impose the cyclic-subgroup fixed-set geometry (equal point
    weight multisets, weight divisibility, shared second surface weight).
    """

    effectiveness: bool = True
    convention35: bool = True
    lemma64: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"flag {name} must be a bool, got {value!r}")


TEMPLATES: dict[str, tuple[str, ...]] = {
    "two_fours": ("four", "four"),
    "four_plus_surface": ("four", "surface"),
    "four_plus_two_points": ("four", "point", "point"),
    "cp2like_plus_point": ("four", "point"),
    "single_four_b2_2": ("four",),
    "two_surfaces": ("surface", "surface"),
    "surface_plus_two_points": ("surface", "point", "point"),
}

# b2 of every 4-dimensional component.  The even Betti numbers of the fixed
# set sum to 4, a point counting 1, a surface 2 and a 4-dimensional component
# 2 + b2, so the template's other components fix it.
_TEMPLATE_B2 = {
    "two_fours": 0,
    "four_plus_surface": 0,
    "four_plus_two_points": 0,
    "cp2like_plus_point": 1,
    "single_four_b2_2": 2,
}


@dataclass(frozen=True)
class Configuration:
    ambient: AmbientData
    template: str
    components: tuple[Component, ...]
    flags: Flags = Flags()

    def __post_init__(self):
        if not isinstance(self.ambient, AmbientData):
            raise ConfigurationError(
                f"ambient must be an AmbientData, got {self.ambient!r}")
        if not isinstance(self.flags, Flags):
            raise ConfigurationError(f"flags must be a Flags, got {self.flags!r}")
        if not isinstance(self.template, str) or self.template not in TEMPLATES:
            raise ConfigurationError(f"unknown template {self.template!r}")
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, _COMPONENT_TYPES):
                raise ConfigurationError(
                    "components must be PointComponent, SurfaceComponent or"
                    f" FourComponent, got {c!r}")
        object.__setattr__(self, "components", comps)
        kinds = tuple(sorted(c.kind for c in comps))
        if kinds != tuple(sorted(TEMPLATES[self.template])):
            raise ConfigurationError(
                f"template {self.template} expects components"
                f" {TEMPLATES[self.template]}, got {tuple(c.kind for c in comps)}"
            )
        required_b2 = _TEMPLATE_B2.get(self.template)
        for c in comps:
            if c.kind == "four" and required_b2 is not None and c.b2 != required_b2:
                raise ConfigurationError(
                    f"template {self.template} requires b2 = {required_b2}"
                    f" on 4-dimensional components, got {c.b2}"
                )
        if self.flags.convention35:
            points = [c for c in comps if c.kind == "point"]
            if points and not any(p.eps == 1 for p in points):
                raise ConfigurationError(
                    "orientation convention: some isolated fixed point must"
                    " have eps = +1 (apply the inverse-action flip)"
                )
        if self.flags.effectiveness:
            for c in comps:
                g = gcd(*c.weights)
                if g != 1:
                    raise ConfigurationError(
                        "effectiveness: the normal weights of every fixed"
                        f" component must be coprime, got gcd {g}"
                    )

    def points(self) -> tuple[PointComponent, ...]:
        return tuple(c for c in self.components if c.kind == "point")

    def surfaces(self) -> tuple[SurfaceComponent, ...]:
        return tuple(c for c in self.components if c.kind == "surface")

    def fours(self) -> tuple[FourComponent, ...]:
        return tuple(c for c in self.components if c.kind == "four")


def shift_lift(cfg: Configuration, delta: int) -> Configuration:
    """Re-choose the lift of the action: every component's a shifts by delta.
    All verdicts are invariant under this."""
    d = _int(delta, "delta")
    comps = tuple(replace(c, a=c.a + d) for c in cfg.components)
    return replace(cfg, components=comps)


# ---------------------------------------------------------------------------
# Local data


def _in_lift(u: LiftPolynomial, coeffs: Sequence[int],
             den: int) -> LiftPolynomial:
    """sum_k coeffs[k] * u^k / den for u = l + a, formed as integer
    numerators and reduced once."""
    num = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        if c:
            power = (1,) if k == 0 else u.num if k == 1 else (u**k).num
            for i, b in enumerate(power):
                num[i] += c * b
    return _lowest(num, den)


_Datum = TypeVar("_Datum", LiftPolynomial, CharacterFunction)

# The memo of the search_case call in progress, one dict for every local
# datum; None outside a search.
_LOCAL_DATA: ContextVar[Optional[dict[tuple, object]]] = ContextVar(
    "cisym_local_data", default=None)


def _local(compute: Callable[[Component], _Datum], c: Component,
           reads: Optional[Callable[[Component], tuple]] = None) -> _Datum:
    """compute(c), memoized within a search_case call under the key
    (compute, c.kind, the values of the fields it reads).  reads gives those
    values; by default they are every field, c.__dict__.values() in field
    order: the dataclass __init__ sets the fields in that order, and
    __post_init__ and search._copy only reassign existing ones, which keeps
    their place."""
    memo = _LOCAL_DATA.get()
    if memo is None:
        return compute(c)
    key = (compute, c.kind,
           *(c.__dict__.values() if reads is None else reads(c)))
    datum = memo.get(key)
    if datum is None:
        datum = memo[key] = compute(c)
    return datum


def x3_local_datum(c: Component) -> LiftPolynomial:
    """Local contribution of a fixed component to the localized x^3 = t, as a
    polynomial in the lift parameter l."""
    return _local(_x3_local_datum, c)


def p1x_local_datum(c: Component) -> LiftPolynomial:
    """Local contribution to the localized p1 * x = rho * t."""
    return _local(_p1x_local_datum, c)


def _x3_local_datum(c: Component) -> LiftPolynomial:
    u = LiftPolynomial.shifted_lift(c.a)
    if c.kind == "point":
        n1, n2, n3 = c.weights
        return u**3 * Fraction(c.eps, n1 * n2 * n3)
    if c.kind == "surface":
        # (3 ev_x m u^2 - (ev_y1 n2 + ev_y2 n1) u^3) / m^2, with m = n1 n2
        n1, n2 = c.weights
        m = n1 * n2
        return _in_lift(u, (0, 0, 3 * c.ev_x * m,
                            -(c.ev_y1 * n2 + c.ev_y2 * n1)), m * m)
    # (3 ev_x2 n1^2 u - 3 ev_xy n1 u^2 + ev_y2 u^3) / n1^3
    n1 = c.weight
    return _in_lift(u, (0, 3 * c.ev_x2 * n1 * n1, -3 * c.ev_xy * n1, c.ev_y2),
                    n1**3)


def _p1x_local_datum(c: Component) -> LiftPolynomial:
    u = LiftPolynomial.shifted_lift(c.a)
    if c.kind == "point":
        n1, n2, n3 = c.weights
        return u * Fraction(c.eps * (n1**2 + n2**2 + n3**2), n1 * n2 * n3)
    if c.kind == "surface":
        # (q ev_x m + (2 (n1 ev_y1 + n2 ev_y2) m - q (ev_y1 n2 + ev_y2 n1)) u)
        # / m^2, with m = n1 n2 and q = n1^2 + n2^2
        n1, n2 = c.weights
        m = n1 * n2
        q = n1**2 + n2**2
        slope = (2 * (n1 * c.ev_y1 + n2 * c.ev_y2) * m
                 - q * (c.ev_y1 * n2 + c.ev_y2 * n1))
        return _in_lift(u, (q * c.ev_x * m, slope), m * m)
    # (ev_xy n1 + ev_p1 u) / n1
    return _in_lift(u, (c.ev_xy * c.weight, c.ev_p1), c.weight)


@cache
def _edge(n: int) -> CharacterFunction:
    """(1 + q^n) / (1 - q^n)."""
    num = [0] * (n + 1)
    den = [0] * (n + 1)
    num[0] = num[n] = 1
    den[0], den[n] = 1, -1
    return CharacterFunction(num, den)


@cache
def _kernel(n: int) -> CharacterFunction:
    """q^n / (1 - q^n)^2."""
    num = [0] * (n + 1)
    num[n] = 1
    den = [0] * (2 * n + 1)
    den[0], den[n], den[2 * n] = 1, -2, 1
    return CharacterFunction(num, den)


# The fields a signature character reads, by component kind.
_SIGNATURE_READS = {"point": attrgetter("eps", "weights"),
                    "surface": attrgetter("weights", "ev_y1", "ev_y2")}


def signature_local_datum(c: Component) -> CharacterFunction:
    """Local contribution to the equivariant signature, a rational function
    of the circle parameter.  4-dimensional components carry none; only the
    limit identity constrains them."""
    reads = _SIGNATURE_READS.get(c.kind)
    if reads is None:
        raise UnsupportedComponentError(
            "4-dimensional components have no signature character datum"
        )
    return _local(_signature_local_datum, c, reads)


def _signature_local_datum(c: Component) -> CharacterFunction:
    if c.kind == "point":
        # (1 + q^-n)/(1 - q^-n) == -(1 + q^n)/(1 - q^n), for each of the
        # three weights.
        acc = CharacterFunction.constant(-c.eps)
        for n in c.weights:
            acc = acc * _edge(n)
        return acc
    n1, n2 = c.weights
    term1 = _edge(n2) * _kernel(n1) * c.ev_y1
    term2 = _edge(n1) * _kernel(n2) * c.ev_y2
    return 4 * (term1 + term2)


_ZERO = LiftPolynomial()
_ZERO_CHARACTER = CharacterFunction.zero()


def x3_sum(components: Iterable[Component]) -> LiftPolynomial:
    return sum(map(x3_local_datum, components), _ZERO)


def p1x_sum(components: Iterable[Component]) -> LiftPolynomial:
    return sum(map(p1x_local_datum, components), _ZERO)


# ---------------------------------------------------------------------------
# Checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    citation: str
    residual: object = None


CITATIONS = {
    "euler-characteristic": (
        "the Euler characteristic of the manifold equals the sum over the"
        " fixed components"
    ),
    "x3-localization": (
        "localization of x^3: the local data must sum to the constant"
        " polynomial t, identically in the lift parameter l"
    ),
    "p1x-localization": (
        "localization of p1*x: the local data must sum to the constant"
        " polynomial rho*t, identically in the lift parameter l"
    ),
    "signature-rigidity": (
        "the equivariant signature is rigid: the character sum of the local"
        " data must be constant in the circle parameter"
    ),
    "signature-vanishing": (
        "the constant value of the equivariant signature equals the"
        " signature of the 6-manifold, which vanishes"
    ),
    "signature-limit": (
        "letting the circle parameter grow, the equivariant signature tends"
        " to the sum of the component signatures (eps for isolated points),"
        " which must equal the vanishing ambient signature"
    ),
    "pontrjagin-restriction": (
        "restriction to a 4-dimensional component: [p1] = (rho - gamma^2) *"
        " [x^2] and [x^2] = t * gamma for an integer Poincare-dual"
        " coefficient gamma"
    ),
    "intersection-form": (
        "the evaluations on a 4-dimensional component must fit a unimodular"
        " intersection form of the given rank and signature (definiteness"
        " and Gram-determinant constraints)"
    ),
    "weight-matching": (
        "the 4-dimensional fixed set of the cyclic subgroup generated by a"
        " surface weight contains both isolated fixed points, forcing equal"
        " normal weight multisets at the two points"
    ),
    "weight-divisibility": (
        "each surface normal weight > 1 divides exactly two of the three"
        " normal weights at each isolated fixed point (the cyclic-subgroup"
        " fixed submanifold through the surface is 4-dimensional and"
        " contains both points)"
    ),
    "surface-structure": (
        "for two fixed surfaces the normal bundles share their second"
        " weight and the second normal evaluations vanish (trivial-summand"
        " normalization of the weight splitting)"
    ),
    "semifree-closure": (
        "semifree two-surface closure: combining the x^3 and p1*x"
        " localizations gives t = (a_X - a_Y)^2 * rho * t / 4, so the"
        " residual t * (1 - rho*(a_X - a_Y)^2/4) must vanish"
    ),
    "surface-restriction-product": (
        "two-surface relation: t = (a_X - a_Y)^2 * [x|X] / (n1 * n2)"
    ),
    "pontrjagin-slope": (
        "two-surface relation: rho * t = 4 * n1 * [x|X] / n2, which is"
        " positive, contradicting rho <= 0"
    ),
    "point-pontrjagin-positivity": (
        "surface plus two points: rho * t = 2 * a_pt * (sum of squared point"
        " weights - sum of squared surface weights) / (product of point"
        " weights), and weight divisibility makes the right-hand side"
        " positive, contradicting rho <= 0"
    ),
}


def _result(name: str, passed: bool, residual: object = None) -> CheckResult:
    """A check cited by its base name, any "[i]" suffix dropped."""
    return CheckResult(name, passed, CITATIONS[name.partition("[")[0]],
                       residual)


def check_euler(cfg: Configuration) -> CheckResult:
    total = sum(c.chi for c in cfg.components)
    return _result(
        "euler-characteristic",
        total == cfg.ambient.euler,
        cfg.ambient.euler - total,
    )


def check_x3(cfg: Configuration) -> CheckResult:
    residual = x3_sum(cfg.components) - LiftPolynomial.constant(cfg.ambient.t)
    return _result("x3-localization", residual.is_zero(), residual)


def check_p1x(cfg: Configuration) -> CheckResult:
    residual = p1x_sum(cfg.components) - LiftPolynomial.constant(
        cfg.ambient.rho * cfg.ambient.t
    )
    return _result("p1x-localization", residual.is_zero(), residual)


def signature_checks(
    components: Iterable[Component], sign_m: int = 0
) -> list[CheckResult]:
    """Rigidity checks on a component multiset.

    Without 4-dimensional components the full character sum is formed: it
    must be constant, the constant must equal sign_m, and the limit must
    match the sum of component signatures.  With 4-dimensional components
    only the limit identity applies (they carry no character datum).
    """
    components = tuple(components)  # read three times below
    results: list[CheckResult] = []
    contributions = sum(c.signature_contribution for c in components)
    if any(c.kind == "four" for c in components):
        results.append(
            _result("signature-limit", contributions == sign_m,
                    sign_m - contributions)
        )
        return results
    total = sum(map(signature_local_datum, components), _ZERO_CHARACTER)
    const = total.is_constant()
    results.append(_result("signature-rigidity", const is not None, total))
    if const is not None:
        # A constant character's limit is that constant.
        results.append(_result("signature-vanishing", const == sign_m, const - sign_m))
        results.append(_result("signature-limit", const == contributions == sign_m,
                               const - contributions))
    return results


def check_lemma41(
    f: FourComponent, gamma: int, ambient: AmbientData
) -> CheckResult:
    """Restriction of p1 and x^2 to a 4-dimensional component with
    Poincare-dual coefficient gamma: [x^2|F] = t*gamma and
    [p1|F] = (rho - gamma^2)*[x^2|F].  With sign(F) = 0 and rho <= 0 this
    forces gamma = 0 and [x^2|F] = 0."""
    g = _int(gamma, "gamma")
    ok = (
        f.ev_x2 == ambient.t * g
        and f.ev_p1 == (ambient.rho - g * g) * f.ev_x2
    )
    residual = f.ev_p1 - (ambient.rho - g * g) * f.ev_x2
    return _result("pontrjagin-restriction", ok, residual)


def _intersection_form_check(f: FourComponent, label: str) -> CheckResult:
    det = f.ev_x2 * f.ev_y2 - f.ev_xy**2
    ok = True
    if f.b2 == 1:
        s = f.sign
        ok = det == 0 and s * f.ev_x2 >= 0 and s * f.ev_y2 >= 0
    elif f.b2 == 2:
        if f.sign == 0:
            ok = det <= 0
        else:
            s = f.sign // 2
            ok = det >= 0 and s * f.ev_x2 >= 0 and s * f.ev_y2 >= 0
    # b2 == 0 has nothing to check beyond the type-level vanishing.
    return _result(label, ok, det)


def _four_checks(cfg: Configuration) -> list[CheckResult]:
    results = []
    fours = cfg.fours()
    t = cfg.ambient.t
    for i, f in enumerate(fours):
        suffix = f"[{i}]" if len(fours) > 1 else ""
        results.append(_intersection_form_check(f, f"intersection-form{suffix}"))
        if f.ev_x2 % t == 0:
            res = check_lemma41(f, f.ev_x2 // t, cfg.ambient)
            passed, residual = res.passed, res.residual
        else:
            passed, residual = False, Fraction(f.ev_x2, t)
        results.append(_result("pontrjagin-restriction" + suffix, passed, residual))
    return results


# The lemma64 rules on normal weights alone, shared with the search.
def _weight_multiset(weights: tuple[int, ...]) -> tuple[int, ...]:
    """The key that weight-matching compares: the sorted weights."""
    return tuple(sorted(weights))


def _divides_exactly_two(pair: tuple[int, int],
                         triple: tuple[int, int, int]) -> bool:
    """weight-divisibility: each surface weight above 1 divides exactly two
    of a point's weights."""
    for w in pair:
        if w > 1 and sum(1 for m in triple if m % w == 0) != 2:
            return False
    return True


def _second_weight(weights: tuple[int, int]) -> int:
    """The key that surface-structure compares: a surface's second weight."""
    return weights[1]


def _surface_checks(cfg: Configuration) -> list[CheckResult]:
    """The lemma64 checks of a surface template, when the flag is set, then
    its named relations, derived from the raw sums; they identify which
    display of the case analysis a failing configuration violates."""
    results = []
    t, rho = cfg.ambient.t, cfg.ambient.rho
    if cfg.template == "two_surfaces":
        x, y = cfg.surfaces()
        structured = (_second_weight(x.weights) == _second_weight(y.weights)
                      and x.ev_y2 == 0 and y.ev_y2 == 0)
        if cfg.flags.lemma64:
            results.append(_result("surface-structure", structured))
        delta = x.a - y.a
        if all(w == 1 for w in x.weights + y.weights):
            residual = t - Fraction(rho * t * delta**2, 4)
            results.append(_result("semifree-closure", residual == 0, residual))
        if structured:
            n1, n2 = x.weights
            res_t = t - Fraction(delta**2 * x.ev_x, n1 * n2)
            results.append(
                _result("surface-restriction-product", res_t == 0, res_t)
            )
            res_s = rho * t - Fraction(4 * n1 * x.ev_x, n2)
            results.append(_result("pontrjagin-slope", res_s == 0, res_s))
    elif cfg.template == "surface_plus_two_points":
        (x,) = cfg.surfaces()
        pt, q = cfg.points()
        matched = _weight_multiset(pt.weights) == _weight_multiset(q.weights)
        if cfg.flags.lemma64:
            results.append(_result("weight-matching", matched))
            ok = all(_divides_exactly_two(x.weights, p.weights) for p in (pt, q))
            results.append(_result("weight-divisibility", ok))
        if matched:
            a_rel = pt.a - x.a
            big_q = sum(w * w for w in pt.weights)
            big_r = sum(w * w for w in x.weights)
            prod = pt.weights[0] * pt.weights[1] * pt.weights[2]
            residual = rho * t - Fraction(2 * a_rel * (big_q - big_r), prod)
            results.append(
                _result("point-pontrjagin-positivity", residual == 0, residual)
            )
    return results


@dataclass(frozen=True)
class VerificationReport:
    cfg: Configuration
    checks: tuple[CheckResult, ...]

    @property
    def consistent(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_case(cfg: Configuration) -> VerificationReport:
    """Run every applicable consistency check on a configuration."""
    checks: list[CheckResult] = [
        check_euler(cfg),
        check_x3(cfg),
        check_p1x(cfg),
    ]
    checks.extend(signature_checks(cfg.components, cfg.ambient.sign))
    checks.extend(_four_checks(cfg))
    checks.extend(_surface_checks(cfg))
    return VerificationReport(cfg, tuple(checks))
