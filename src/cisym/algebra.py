"""Exact arithmetic kernels: truncated power series, polynomials in the lift
parameter, and Laurent rational functions of the circle parameter.

Every kernel computes in integers; `fractions.Fraction` appears only at the
boundary, for exact inputs and for coefficients read back, and floats are
rejected there.  All normal forms are canonical so that equality is exact
and output is deterministic.

The three kernels share one canonical-form core, `_Exact`: immutable
integer parts `num` over `den`, made by one constructor, with one negation
and one structural equality and hash (which CharacterFunction overrides).
Series and lift polynomials share one common-denominator sum, lift
polynomials and characters one term printer and one zero rule for sums (a
zero operand gives the other one back, already canonical).  A series'
truncation order is not stored; it is its numerator count minus one.
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


def _sum(p: _Exact, q: _Exact, sign: int) -> tuple[list[int], int]:
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

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, [])

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient x^{k} outside truncation order {self.order}")
        return Fraction(self.num[k], self.den)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if len(self.num) != len(other.num):
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return _reduced(TruncatedSeries, *_sum(self, other, 1))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return _reduced(TruncatedSeries, *_sum(self, other, -1))

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
        if not isinstance(exponent, int) or exponent < 0:
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


GENUS_KINDS = ("chern", "pontrjagin", "a_hat", "l_genus")


def _unit_line_factor(kind: str, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """A genus's line factor at weight 1 and its inverse, with at most one
    inversion each."""
    if kind == "chern":
        factor = TruncatedSeries(order, [1, 1][:order + 1])
        return factor, factor.inverse()
    if kind == "pontrjagin":
        factor = TruncatedSeries(order, [1, 0, 1][:order + 1])
        return factor, factor.inverse()
    if kind not in ("a_hat", "l_genus"):
        raise ValueError(f"unknown genus kind {kind!r}; expected one of {GENUS_KINDS}")
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


def genus_line_factor(kind: str, scale: int, order: int) -> TruncatedSeries:
    """The multiplicative one-line factor of a genus, at line weight `scale`.

    chern       1 + d*x
    pontrjagin  1 + d^2*x^2
    a_hat       (d*x/2) / sinh(d*x/2)
    l_genus     d*x / tanh(d*x)

    Each is the weight-1 factor at d*x.  The last two are even series with
    exact rational coefficients; at d = 0 every factor degenerates to 1.
    """
    return _unit_line_factor(kind, order)[0].rescaled(scale)


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
        v = as_rational(c)
        return _new(LiftPolynomial, (v.numerator,) if v else (), v.denominator)

    @classmethod
    def shifted_lift(cls, a: Scalar) -> "LiftPolynomial":
        """The linear polynomial a + l."""
        if type(a) is int:
            return _new(LiftPolynomial, (a, 1), 1)
        v = as_rational(a)
        return _new(LiftPolynomial, (v.numerator, v.denominator), v.denominator)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative coefficient index")
        return Fraction(self.num[k], self.den) if k < len(self.num) else Fraction(0)

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if degree > 0."""
        if len(self.num) > 1:
            return None
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __call__(self, value: Scalar) -> Fraction:
        v = as_rational(value)
        if not self.num:
            return Fraction(0)
        p, q = v.numerator, v.denominator
        # Horner's scheme on num(p/q) * q^degree, all in integers.
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, self.den * (scale // q))

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
        return _lowest(*_sum(self, other, -1))

    def __mul__(self, other: Union["LiftPolynomial", Scalar]) -> "LiftPolynomial":
        if isinstance(other, LiftPolynomial):
            return _lowest(_pmul(self.num, other.num), self.den * other.den)
        if type(other) is int:
            p, q = other, 1
        else:
            scalar = other if type(other) is Fraction else as_rational(other)
            p, q = scalar.numerator, scalar.denominator
        return _lowest([p * c for c in self.num], self.den * q)

    def __rmul__(self, other: Scalar) -> "LiftPolynomial":
        return self * other

    def __pow__(self, exponent: int) -> "LiftPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
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
# Integer Laurent-polynomial helpers (shared by LiftPolynomial and
# CharacterFunction)


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


def _character_lowest(num: Sequence[int], den: Sequence[int],
                      num_shift: int = 0,
                      den_shift: int = 0) -> CharacterFunction:
    """num/den, for integer coefficient sequences, in canonical form."""
    n = _trim(num)
    d = _trim(den)
    if not d:
        raise ZeroDivisionError("character function with zero denominator")
    if not n:
        return _new(CharacterFunction, (), (1,))
    # Shift both parts to a common valuation zero.
    nv = _valuation(n)
    dv = _valuation(d)
    lead = min(nv + num_shift, dv + den_shift)
    n = (0,) * (nv + num_shift - lead) + n[nv:]
    d = (0,) * (dv + den_shift - lead) + d[dv:]
    g = gcd(*n, *d)
    if g > 1:
        n = tuple(c // g for c in n)
        d = tuple(c // g for c in d)
    if d[_valuation(d)] < 0:
        n = tuple(-c for c in n)
        d = tuple(-c for c in d)
    return _new(CharacterFunction, n, d)


class CharacterFunction(_Exact):
    """A rational function of the circle parameter, num/den with integer
    Laurent-polynomial numerator and denominator.

    Canonical form: the common power of the variable is factored out so both
    parts are ordinary polynomials with at least one nonzero constant term,
    the joint integer content is divided away, and the sign is fixed by
    making the denominator's lowest nonzero coefficient positive.  Equality
    and constancy are decided by exact cross-multiplication, never by
    sampling.
    """

    __slots__ = ()

    def __new__(
        cls,
        num: Sequence[int],
        den: Sequence[int],
        *,
        num_shift: int = 0,
        den_shift: int = 0,
    ):
        for c in tuple(num) + tuple(den):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("character coefficients must be integers")
        return _character_lowest(num, den, num_shift, den_shift)

    @classmethod
    def zero(cls) -> "CharacterFunction":
        return cls((), (1,))

    @classmethod
    def constant(cls, c: Scalar) -> "CharacterFunction":
        f = as_rational(c)
        return cls((f.numerator,), (f.denominator,))

    @classmethod
    def from_laurent(
        cls, num: dict[int, int], den: dict[int, int]
    ) -> "CharacterFunction":
        """Build from {power: coefficient} maps, powers possibly negative."""

        def to_poly(m: dict[int, int]) -> tuple[tuple[int, ...], int]:
            if not m:
                return (), 0
            lo = min(m)
            hi = max(m)
            cs = [0] * (hi - lo + 1)
            for p, c in m.items():
                cs[p - lo] = c
            return tuple(cs), lo

        n, ns = to_poly(num)
        d, ds = to_poly(den)
        return cls(n, d, num_shift=ns, den_shift=ds)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "CharacterFunction") -> "CharacterFunction":
        if not isinstance(other, CharacterFunction):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return _character_lowest(num, _pmul(self.den, other.den))

    def __sub__(self, other: "CharacterFunction") -> "CharacterFunction":
        if not isinstance(other, CharacterFunction):
            return NotImplemented
        return self + (-other)

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
        """The constant value if num = c * den as Laurent polynomials, else None."""
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

    def limit_at_infinity(self) -> Optional[Fraction]:
        """The limit as the circle parameter grows without bound.

        Degree comparison of numerator and denominator: smaller degree gives
        0, equal degrees give the leading-coefficient ratio, larger degree
        diverges (None).
        """
        if not self.num:
            return Fraction(0)
        dn = len(self.num) - 1
        dd = len(self.den) - 1
        if dn < dd:
            return Fraction(0)
        if dn == dd:
            return Fraction(self.num[-1], self.den[-1])
        return None

    def __repr__(self) -> str:
        return f"({_terms(self.num, 1, 'q')})/({_terms(self.den, 1, 'q')})"
