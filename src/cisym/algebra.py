"""Exact arithmetic kernels: truncated power series, polynomials in the lift
parameter, and quotients of integer polynomials in the circle parameter q.

Every kernel computes in integers; `fractions.Fraction` appears only at the
boundary, for exact inputs and for coefficients read back, and floats are
rejected there.  All normal forms are canonical so that equality is exact
and output is deterministic.

The three kernels share one canonical-form core, `_Exact`: immutable
integer parts `num` over `den`, made by one constructor, with one negation
and one structural equality and hash (which CharacterFunction overrides),
and copies and pickles rebuild an instance from its parts.  Lift
polynomials add over one common denominator (_sum); series are only
multiplied, raised to powers, inverted and rescaled.  Lift polynomials and
characters share one term printer and one zero rule for sums (a zero
operand gives the other one back, already canonical).  Two characters
over one denominator d add their numerators first: a/d + b/d gets the parts
(a + b) d and d d that cross-multiplication gives, and a sum that cancels
is the canonical zero at once.  A series' truncation order is not stored;
it is its numerator count minus one.

One integer Taylor shift, _taylor_shift, gives the coefficients of
c0 + c1 u + c2 u^2 + c3 u^3 in l for u = l + a, in closed form.  It serves
both the search solver's columns at each lift and, through _in_lift, the
local data of surfaces and 4-dimensional components; a point's datum stays
one power of u times one scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Raised when two truncated series of different truncation order meet."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term vanishes."""


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats outright."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact arithmetic only, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# The canonical-form core shared by the three kernels


_set = object.__setattr__


class _Exact:
    """Integer parts `num` and `den` in a kernel's canonical form.

    Instances are immutable.  The normal forms of a series and of a lift
    polynomial are unique, so equality and the hash are structural;
    CharacterFunction, whose parts keep common polynomial factors, decides
    equality by cross-multiplication and is unhashable.
    """

    __slots__ = ("num", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __neg__(self):
        # Every normal form fixes its sign by den, so -num over den stays
        # canonical.
        return _new(type(self), tuple(-c for c in self.num), self.den)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __reduce__(self):
        # copy, deepcopy (and so dataclasses.asdict) and pickle rebuild the
        # instance from its parts through _new: the public constructors
        # take coefficients, not parts.
        return _new, (type(self), self.num, self.den)


def _new(cls: type, num: tuple, den):
    """A `cls` from parts already in its normal form.  Every kernel
    instance is made here: the public constructors are `__new__`s."""
    x = object.__new__(cls)
    _set(x, "num", num)
    _set(x, "den", den)
    return x


def _reduced(cls: type, num: Sequence[int], den: int):
    """num/den, for den > 0, as a `cls` in lowest terms (numerators that are
    all zero get den = 1)."""
    g = gcd(den, *num)
    if g == 1:
        return _new(cls, tuple(num), den)
    return _new(cls, tuple(c // g for c in num), den // g)


def _parts(coeffs: Iterable[Scalar]) -> tuple[list[int], int]:
    """Exact scalars as integer numerators over their least common
    denominator."""
    cs = [as_rational(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _sum(p: LiftPolynomial, q: LiftPolynomial,
         sign: int) -> tuple[list[int], int]:
    """p + sign * q over the least common denominator, not yet reduced; the
    shorter numerator list counts as padded with zeros."""
    a, b = p.num, q.num
    g = gcd(p.den, q.den)
    sa, sb = q.den // g, sign * (p.den // g)
    if len(a) < len(b):
        a, b, sa, sb = b, a, sb, sa
    out = [sa * c for c in a]
    for i, c in enumerate(b):
        out[i] += sb * c
    return out, p.den // g * q.den


def _index(k) -> int:
    """k as a coefficient index: an int, never a bool or a float."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"coefficient index must be an integer, got {k!r}")
    return k


def _taylor_shift(coeffs: Sequence[int], a: int) -> tuple[int, int, int, int]:
    """The coefficients of sum_k coeffs[k] (l + a)^k in l, low to high, for
    exactly four integer coeffs (c0, c1, c2, c3), in closed form."""
    c0, c1, c2, c3 = coeffs
    return (c0 + a * (c1 + a * (c2 + a * c3)),
            c1 + a * (2 * c2 + 3 * a * c3),
            c2 + 3 * a * c3,
            c3)


def _in_lift(a: int, coeffs: tuple[int, ...], den: int) -> LiftPolynomial:
    """sum_k coeffs[k] * (l + a)^k / den, for at most four integer coeffs
    (padded with zeros to four), by the integer Taylor shift and reduced
    once."""
    return _lowest(_taylor_shift(coeffs + (0,) * (4 - len(coeffs)), a), den)


def _terms(num: Sequence[int], den: int, var: str) -> str:
    """The nonzero terms of sum num[k]/den * var^k, highest power first
    ("0" if there are none)."""
    terms = []
    for k in range(len(num) - 1, -1, -1):
        if not num[k]:
            continue
        c = num[k] if den == 1 else Fraction(num[k], den)
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{k}" if c == 1 else f"{c}*{var}^{k}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# Truncated power series


class TruncatedSeries(_Exact):
    """A formal power series sum_k c_k x^k known through x^order.

    Coefficients are exact rationals, stored as order + 1 integer numerators
    `num` over one positive common denominator `den`, in lowest terms (the
    numerators and den have gcd 1), so equality is structural.  The order is
    not stored: it is len(num) - 1.  Arithmetic requires matching orders;
    there is no implicit re-truncation.
    """

    __slots__ = ()

    def __new__(cls, order: int, coeffs: Iterable[Scalar] = ()):
        if not isinstance(order, int) or isinstance(order, bool):
            raise TypeError("truncation order must be an integer")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        num, den = _parts(coeffs)
        if len(num) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        num.extend([0] * (order + 1 - len(num)))
        return _reduced(TruncatedSeries, num, den)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, [1])

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= _index(k) <= self.order:
            raise IndexError(f"coefficient x^{k} outside truncation order {self.order}")
        return Fraction(self.num[k], self.den)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if len(self.num) != len(other.num):
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        b = other.num
        n = len(b)
        out = [0] * n
        for i, c in enumerate(self.num):
            if c:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += c * b[j]
        return _reduced(TruncatedSeries, out, self.den * other.den)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if (not isinstance(exponent, int) or isinstance(exponent, bool)
                or exponent < 0):
            raise ValueError("series exponent must be a nonnegative integer")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return TruncatedSeries.one(self.order) if result is None else result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, by an integer triangular solve.

        For numerators a_k with c0 = a_0, the inverse of sum a_k x^k is
        sum B_k x^k / c0^(k+1) with B_0 = 1 and
        B_k = -sum_{j=1..k} a_j * B_(k-j) * c0^(j-1), so the inverse of the
        series is den * B_k * c0^(order-k) / c0^(order+1).
        """
        a = self.num
        c0 = a[0]
        if c0 == 0:
            raise NonUnitError("series with zero constant term has no inverse")
        n = len(a) - 1
        powers = [1]
        for _ in range(n + 1):
            powers.append(powers[-1] * c0)
        big = [1]
        for k in range(1, n + 1):
            big.append(-sum(a[j] * big[k - j] * powers[j - 1]
                            for j in range(1, k + 1) if a[j]))
        # The sign of c0^(order+1) moves to the numerators, keeping den > 0.
        scale = self.den if powers[n + 1] > 0 else -self.den
        return _reduced(
            TruncatedSeries,
            [scale * big[k] * powers[n - k] for k in range(n + 1)],
            abs(powers[n + 1]))

    def rescaled(self, scale: int) -> "TruncatedSeries":
        """The series at scale*x: coefficient k times scale^k."""
        if not isinstance(scale, int) or isinstance(scale, bool):
            raise TypeError("scale must be an integer")
        num = []
        power = 1
        for c in self.num:
            num.append(c * power)
            power *= scale
        return _reduced(TruncatedSeries, num, self.den)

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.num):
            if c == 0:
                continue
            c = Fraction(c, self.den)
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(x^{self.order + 1})"


def _unit_line_factor(kind: str, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The line factor of a genus at weight 1, and its inverse, with at most
    one inversion each: (x/2)/sinh(x/2) for kind "a_hat", x/tanh(x) for
    kind "l_genus".  Both are even series with exact rational coefficients;
    the factor at line weight d is the weight-1 factor rescaled by d."""
    # The Taylor coefficients through x^(2m), m = order // 2, as integer
    # numerators over their common denominator: (2m+1)! at u = x,
    # 4^m * (2m+1)! at u = x/2.
    m = order // 2
    top = factorial(2 * m + 1)
    sinh_over = [0] * (order + 1)
    if kind == "a_hat":
        # The factor inverts sinh(u)/u at u = x/2, which is its inverse.
        for k in range(m + 1):
            sinh_over[2 * k] = 4 ** (m - k) * (top // factorial(2 * k + 1))
        ratio = _reduced(TruncatedSeries, sinh_over, 4**m * top)
        return ratio.inverse(), ratio
    # u/tanh(u) = cosh(u) / (sinh(u)/u) at u = x; the common denominator
    # cancels in the quotient.
    cosh = [0] * (order + 1)
    for k in range(m + 1):
        cosh[2 * k] = top // factorial(2 * k)
        sinh_over[2 * k] = top // factorial(2 * k + 1)
    factor = (_reduced(TruncatedSeries, cosh, 1)
              * _reduced(TruncatedSeries, sinh_over, 1).inverse())
    return factor, factor.inverse()


# ---------------------------------------------------------------------------
# Polynomials in the lift parameter l


def _lowest(num: Sequence[int], den: int) -> LiftPolynomial:
    """num/den, for den > 0, as a LiftPolynomial with trailing zeros trimmed
    and in lowest terms."""
    return _reduced(LiftPolynomial, _trim(num), den)


class LiftPolynomial(_Exact):
    """A polynomial in the lift parameter l with exact rational coefficients.

    Stored as integer numerators `num`, low to high with trailing zeros
    trimmed, over one positive common denominator `den`, in lowest terms
    (the numerators and den have gcd 1).  The zero polynomial is num = (),
    den = 1, so equality is structural.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        return _lowest(*_parts(coeffs))

    @classmethod
    def constant(cls, c: Scalar) -> "LiftPolynomial":
        if type(c) is int:
            return _new(LiftPolynomial, (c,) if c else (), 1)
        v = as_rational(c)
        return _new(LiftPolynomial, (v.numerator,) if v else (), v.denominator)

    @classmethod
    def shifted_lift(cls, a: Scalar) -> "LiftPolynomial":
        """The linear polynomial a + l."""
        if type(a) is int:
            return _new(LiftPolynomial, (a, 1), 1)
        v = as_rational(a)
        return _new(LiftPolynomial, (v.numerator, v.denominator), v.denominator)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "LiftPolynomial") -> "LiftPolynomial":
        if not isinstance(other, LiftPolynomial):
            return NotImplemented
        # A zero operand gives the other one back (negated for 0 - q in
        # __sub__): it is already canonical and immutable.
        if not other.num:
            return self
        if not self.num:
            return other
        return _lowest(*_sum(self, other, 1))

    def __sub__(self, other: "LiftPolynomial") -> "LiftPolynomial":
        if not isinstance(other, LiftPolynomial):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        # Equal operands give the canonical zero, as the zero rule does.
        if self.num == other.num and self.den == other.den:
            return _new(LiftPolynomial, (), 1)
        return _lowest(*_sum(self, other, -1))

    def __mul__(self, other: Union["LiftPolynomial", Scalar]) -> "LiftPolynomial":
        if isinstance(other, LiftPolynomial):
            return _lowest(_pmul(self.num, other.num), self.den * other.den)
        scalar = as_rational(other)
        return _lowest([scalar.numerator * c for c in self.num],
                       self.den * scalar.denominator)

    def __rmul__(self, other: Scalar) -> "LiftPolynomial":
        return self * other

    def __pow__(self, exponent: int) -> "LiftPolynomial":
        if (not isinstance(exponent, int) or isinstance(exponent, bool)
                or exponent < 0):
            raise ValueError("polynomial exponent must be a nonnegative integer")
        # A power of a primitive integer polynomial is primitive (Gauss's
        # lemma), so the result is already in lowest terms.
        num = self.num
        if len(num) == 2:  # binomial expansion of (c0 + c1*l)^exponent
            c0, c1 = num
            out = tuple(comb(exponent, k) * c0 ** (exponent - k) * c1**k
                        for k in range(exponent + 1))
        else:
            out = (1,)
            for _ in range(exponent):
                out = _pmul(out, num)
        return _new(LiftPolynomial, out, self.den**exponent)

    def __repr__(self) -> str:
        return _terms(self.num, self.den, "l")


# ---------------------------------------------------------------------------
# Integer polynomial helpers (shared by LiftPolynomial and CharacterFunction)


def _trim(cs: Sequence[int]) -> tuple[int, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return _trim(out)


def _pscale(a: Sequence[int], s: int) -> tuple[int, ...]:
    if s == 0:
        return ()
    return _trim([s * c for c in a])


def _valuation(a: Sequence[int]) -> int:
    for i, c in enumerate(a):
        if c:
            return i
    return 0


def _character_lowest(num: Sequence[int],
                      den: Sequence[int]) -> CharacterFunction:
    """num/den, for integer coefficient sequences, in canonical form."""
    n = _trim(num)
    d = _trim(den)
    if not d:
        raise ZeroDivisionError("character function with zero denominator")
    if not n:
        return _new(CharacterFunction, (), (1,))
    # Divide both parts by their common power of q.
    lead = min(_valuation(n), _valuation(d))
    n = n[lead:]
    d = d[lead:]
    g = gcd(*n, *d)
    if g > 1:
        n = tuple(c // g for c in n)
        d = tuple(c // g for c in d)
    if d[_valuation(d)] < 0:
        n = tuple(-c for c in n)
        d = tuple(-c for c in d)
    return _new(CharacterFunction, n, d)


class CharacterFunction(_Exact):
    """A rational function of the circle parameter q, num/den with integer
    polynomial numerator and denominator in q.

    Canonical form: the common power of q is divided out, so at least one
    part has a nonzero constant term, the joint integer content is divided
    away, and the sign is fixed by making the denominator's lowest nonzero
    coefficient positive.  Equality and constancy are decided by exact
    cross-multiplication, never by sampling.
    """

    __slots__ = ()

    def __new__(cls, num: Sequence[int], den: Sequence[int]):
        for c in tuple(num) + tuple(den):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("character coefficients must be integers")
        return _character_lowest(num, den)

    @classmethod
    def zero(cls) -> "CharacterFunction":
        return cls((), (1,))

    @classmethod
    def constant(cls, c: Scalar) -> "CharacterFunction":
        f = as_rational(c)
        return cls((f.numerator,), (f.denominator,))

    def __add__(self, other: "CharacterFunction") -> "CharacterFunction":
        if not isinstance(other, CharacterFunction):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            # a/d + b/d has the parts (a + b) d and d d of the cross-
            # multiplied sum, by bilinearity, from two products, not three.
            num = _padd(self.num, other.num)
            if not num:
                return _new(CharacterFunction, (), (1,))
            num = _pmul(num, self.den)
        else:
            num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return _character_lowest(num, _pmul(self.den, other.den))

    def __mul__(self, other: Union["CharacterFunction", int]) -> "CharacterFunction":
        if isinstance(other, CharacterFunction):
            return _character_lowest(
                _pmul(self.num, other.num), _pmul(self.den, other.den)
            )
        if isinstance(other, int) and not isinstance(other, bool):
            return _character_lowest(_pscale(self.num, other), self.den)
        return NotImplemented

    def __rmul__(self, other: int) -> "CharacterFunction":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharacterFunction):
            return NotImplemented
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    __hash__ = None  # type: ignore[assignment]

    def is_constant(self) -> Optional[Fraction]:
        """The constant value if num = c * den as polynomials, else None."""
        if not self.num:
            return Fraction(0)
        k = _valuation(self.den)
        p, q = self.num[k] if k < len(self.num) else 0, self.den[k]
        # num * q == den * p, checked coefficientwise in integers.
        width = max(len(self.num), len(self.den))
        for i in range(width):
            a = self.num[i] if i < len(self.num) else 0
            b = self.den[i] if i < len(self.den) else 0
            if a * q != b * p:
                return None
        return Fraction(p, q)

    def __repr__(self) -> str:
        return f"({_terms(self.num, 1, 'q')})/({_terms(self.den, 1, 'q')})"
