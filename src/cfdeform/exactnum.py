"""Exact arithmetic building blocks: dense integer polynomials, reduced
rational functions, and truncated power series with rational coefficients.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction``.  Polynomials are dense ascending coefficient tuples:
the walk's pairs are dense, with degree up to about 2,000 at the CLI's
term-sum cap, so a sparse representation would save nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "RingPoly",
    "format_terms",
    "poly_content",
    "poly_divexact",
    "poly_gcd",
    "RationalFunction",
    "TruncatedSeries",
    "series_of_ratfun",
]


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class RingPoly:
    """Univariate polynomial over the integers, ascending dense coefficients.

    Canonical form has no trailing zero coefficient; the zero polynomial is
    the empty tuple and its ``degree()`` is ``None``.  Instances are
    immutable and mix freely with ints in arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    @classmethod
    def constant(cls, c: int) -> "RingPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "RingPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "RingPoly":
        return cls((0,) * exponent + (coefficient,))

    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __call__(self, point):
        """Evaluate by Horner's rule; result type follows the point's type."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    @staticmethod
    def _coerce(other) -> "RingPoly | None":
        if isinstance(other, RingPoly):
            return other
        if isinstance(other, int):
            return RingPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        # Zero terms are common in the walk's levels; they cost nothing.
        if not b:
            return self
        if not a:
            return o
        if len(a) < len(b):
            a, b = b, a
        return RingPoly(list(map(operator.add, a, b)) + list(a[len(b) :]))

    __radd__ = __add__

    def __neg__(self):
        return RingPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return RingPoly()
        # So are unit entries: multiplying by the constant 1 is free.
        if a == (1,):
            return o
        if b == (1,):
            return self
        # The outer loop skips zeros, so it runs over the operand with fewer
        # nonzero coefficients: a power of the variable costs one pass.
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i in itertools.compress(range(len(a)), a):
            c = a[i]
            for j, d in enumerate(b):
                out[i + j] += c * d
        return RingPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = RingPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # Constants hash like the int they equal, so mixed keys stay sane.
        if len(self.coeffs) <= 1:
            return hash(self.constant_term)
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_terms(self.coeffs, "p", descending=True)

    def __repr__(self):
        return f"RingPoly({list(self.coeffs)!r})"


def format_terms(
    coeffs: Sequence, var: str, *, latex: bool = False, descending: bool = False
) -> str:
    """Render ascending coefficients (ints or Fractions) as a sum of terms.

    Text style spaces the signs and parenthesizes a fractional coefficient
    of a power ("2p^2 - (1/2)p + 1"); LaTeX style packs the signs and braces
    exponents and fractions ("2p^{2}-\\frac{1}{2}p+1").  Zero renders as "0".
    """
    indices = range(len(coeffs) - 1, -1, -1) if descending else range(len(coeffs))
    parts: list[str] = []
    for i in indices:
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        fractional = isinstance(mag, Fraction) and mag.denominator != 1
        if fractional and latex:
            mag_str = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        elif fractional and i > 0:
            mag_str = f"({mag})"
        else:
            mag_str = str(mag)
        if i == 0:
            body = mag_str
        else:
            head = "" if mag == 1 else mag_str
            power = var if i == 1 else (f"{var}^{{{i}}}" if latex else f"{var}^{i}")
            body = head + power
        parts.append(sign + body if latex or not parts else f"{sign} {body}")
    if not parts:
        return "0"
    return "".join(parts) if latex else " ".join(parts)


def poly_content(a: RingPoly) -> int:
    return math.gcd(*a.coeffs)


def poly_divexact(a: RingPoly, b: RingPoly) -> RingPoly:
    """Exact division; raises ArithmeticError when b does not divide a, at
    the first quotient coefficient that is not an integer."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    bs, rem = b.coeffs, list(a.coeffs)
    width, bl = len(bs), bs[-1]
    out = [0] * max(len(rem) - width + 1, 0)
    # Each step clears the top coefficient of what is left, rem[: shift + width].
    for shift in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[shift + width - 1], bl)
        if r:
            raise ArithmeticError("polynomial division is not exact")
        if q:
            out[shift] = q
            for i, c in enumerate(bs):
                rem[shift + i] -= q * c
    if any(rem[: width - 1]):
        raise ArithmeticError("polynomial division is not exact")
    return RingPoly(out)


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # Pseudo-remainder of primitive integer polynomials, list form.
    lb = b[-1]
    a = list(a)
    while len(a) >= len(b):
        la = a[-1]
        shift = len(a) - len(b)
        a = [lb * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    if g in (0, 1):
        return a
    return [c // g for c in a]


def poly_gcd(a: RingPoly, b: RingPoly) -> RingPoly:
    """Greatest common divisor, primitive with positive leading coefficient.

    Primitive pseudo-remainder sequence; contents are handled separately so
    intermediate coefficients stay subresultant-bounded.
    """
    if a.is_zero() and b.is_zero():
        return RingPoly()
    if a.is_zero():
        a, b = b, a
    if b.is_zero():
        return -a if a.leading_coefficient < 0 else a
    content = math.gcd(poly_content(a), poly_content(b))
    fa = _primitive(list(a.coeffs))
    fb = _primitive(list(b.coeffs))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    if fa[-1] < 0:
        fa = [-c for c in fa]
    return RingPoly([content * c for c in fa])


class RationalFunction:
    """Reduced quotient of integer polynomials.

    Normal form: numerator and denominator coprime with integer coefficients,
    no shared content, and positive leading coefficient on the denominator.
    Construction from any num/den pair normalizes, so equal values compare
    equal componentwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = self._as_poly(num)
        den = self._as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        g = poly_gcd(num, den)
        if not g.is_zero() and g != RingPoly((1,)):
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        if den.leading_coefficient < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def normal(cls, num: RingPoly, den: RingPoly) -> "RationalFunction":
        """Wrap a pair that is already in normal form, without reducing it again."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @staticmethod
    def _as_poly(v) -> RingPoly:
        if isinstance(v, RingPoly):
            return v
        if isinstance(v, int):
            return RingPoly((v,))
        raise TypeError(f"cannot build a rational function from {type(v).__name__}")

    @staticmethod
    def _coerce(other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (RingPoly, int)):
            return RationalFunction(other, 1)
        return None

    def is_polynomial(self) -> bool:
        return self.den == RingPoly((1,))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def inverse(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int):
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, point) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return Fraction(self.num(point)) / Fraction(d)

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"


class TruncatedSeries:
    """Taylor expansion at the origin, truncated at a fixed order.

    Coefficients are exact (ints or Fractions).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int):
        return self.coeffs[i]

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) == self.agreement(other)

    def agreement(self, other: "TruncatedSeries") -> int:
        """Number of leading coefficients the two series share."""
        for i, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return i
        return min(len(self.coeffs), len(other.coeffs))

    def __hash__(self):
        return hash(tuple(Fraction(c) for c in self.coeffs))

    def is_integral(self) -> tuple[bool, int | None]:
        """Whether every coefficient is an integer, plus the first bad index."""
        for i, c in enumerate(self.coeffs):
            if isinstance(c, Fraction) and c.denominator != 1:
                return False, i
        return True, None

    def __str__(self):
        return f"{format_terms(self.coeffs, 'p')} + O(p^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def series_of_ratfun(f, order: int) -> TruncatedSeries:
    """First ``order + 1`` Taylor coefficients of a rational function at 0.

    Accepts a RationalFunction or a (num, den) pair of RingPoly, reduced or
    not.  A pair whose den has constant term 0 first cancels the common
    power of the variable; after that any pair expands exactly as its
    reduced RationalFunction would, with the same coefficients, and raises
    ZeroDivisionError exactly when the reduced value has a pole at 0.
    """
    if isinstance(f, RationalFunction):
        num, den = f.num, f.den
    else:
        num, den = f
    if order < 0:
        raise ValueError("order must be nonnegative")
    ncs, dcs = num.coeffs, den.coeffs
    if dcs[:1] == (0,):
        # Cancel the common power of the variable; any left in den is a pole.
        k = next(i for i, c in enumerate(dcs) if c)
        k = next((i for i, c in enumerate(ncs[:k]) if c), k)
        ncs, dcs = ncs[k:], dcs[k:]
    d0 = dcs[0] if dcs else 0
    if d0 == 0:
        raise ZeroDivisionError("no Taylor expansion at origin")
    # c_n = (num_n - sum_j d_j c_(n-j)) / d0 runs in integers: a_n = c_n d0^(n+1)
    # satisfies a_n = num_n d0^n - sum_j d_j d0^(j-1) a_(n-j), so the loop
    # never reduces a Fraction and each coefficient is reduced once.  A unit
    # d0 is its own inverse, which keeps an integer series in ints.
    scaled = [d0]  # scaled[j] = d_j d0^(j-1) for 1 <= j <= order
    power = 1
    for d in dcs[1:order + 1]:
        scaled.append(d * power)
        power *= d0
    unit = d0 in (1, -1)
    ints: list[int] = []
    out: list = []
    power = 1
    for n in range(order + 1):
        acc = ncs[n] * power if n < len(ncs) else 0
        for j in range(1, min(n, len(scaled) - 1) + 1):
            acc -= scaled[j] * ints[n - j]
        ints.append(acc)
        power *= d0
        out.append(acc * power if unit else Fraction(acc, power))
    return TruncatedSeries(out)
