"""The four-parameter deformation machinery.

A parameter matrix U = (p q; r s) determines a unique function f with
f(1) = 1 satisfying

    f(1 + x)       = p f(x) + q f(1/x)
    f(x / (1 + x)) = r f(x) + s f(1/x)

on the positive rationals.  The deformation of x is the quotient
f(x) / f(1/x).  Entries may be integers or polynomials in one formal
variable; the recursion is the same either way.  Every positive rational
is one word in the moves x -> 1 + x and x -> x / (1 + x), which act on the
pair (f(x), f(1/x)) as the matrices (p q; s r) and (r s; q p).  The walk of
two moves is also the one path from a source to a series
(stabilized_series): a rational expands exactly, an irrational from its
last two convergents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .contfrac import CFExpansion, StreamingCF, cf_expand
from .errors import (
    DegenerateParametersError,
    DomainError,
    EvaluationError,
    StabilizationError,
    TermsExhaustedError,
)
from .exactnum import RationalFunction, RingPoly, TruncatedSeries, poly_divexact, series_of_ratfun

__all__ = [
    "UParams",
    "FPair",
    "Move",
    "SZeroParams",
    "DescendingCF",
    "U_NUM",
    "U_CON",
    "U_SZERO_POLY",
    "U_RZERO_POLY",
    "level",
    "walk",
    "stabilization_proved",
    "stabilized_series",
    "f_pair",
    "quantize",
    "codenominator",
    "j_quotient",
    "shift_by_integer",
    "szero_cf_form",
    "golden_closed_form",
    "golden_iterate",
    "fibonacci_poly_extend",
    "rzero_descending_cf",
]


class FPair(NamedTuple):
    """The value pair (f(x), f(1/x)) for one parameter matrix."""

    fx: object
    finv: object

    def quotient(self, moves: tuple[Move, Move] | None = None) -> Fraction | RationalFunction:
        """The deformed value f(x) / f(1/x), reduced: a Fraction for integer pairs,
        a RationalFunction for polynomial ones, which need ``moves``, the two
        moves whose walk gave the pair, to reduce without a gcd (_reduced);
        EvaluationError if f(1/x) = 0."""
        if self.finv == 0:
            raise EvaluationError("quantization undefined: f(1/x) = 0")
        if not isinstance(self.fx, RingPoly):
            return Fraction(self.fx, self.finv)
        if moves is None:
            raise TypeError("a polynomial pair reduces by the moves of its walk")
        return _reduced(self.fx, self.finv, moves)


def _valuation(a: RingPoly) -> int:
    """The power of the variable that divides a nonzero a."""
    return next(i for i, c in enumerate(a.coeffs) if c)


def _det_factors(move: Move) -> list[RingPoly] | None:
    """The irreducible factors of the move's determinant other than the
    variable, primitive with positive leading coefficient, or None if what
    is left after the variable is zero or of degree above 2.  A quadratic
    splits exactly when its discriminant is a square."""
    a, b, c, d = move.entries
    det = a * d - b * c
    cs = det.coeffs[_valuation(det) :] if det else ()
    if not cs or len(cs) > 3:
        return None
    split = [cs]
    if len(cs) == 3:
        c0, c1, c2 = cs
        disc = c1 * c1 - 4 * c2 * c0
        root = math.isqrt(max(disc, 0))
        if root * root == disc:
            # 4 c2 (c2 p^2 + c1 p + c0) = (2 c2 p + c1 - root) (2 c2 p + c1 + root)
            split = [(c1 - root, 2 * c2), (c1 + root, 2 * c2)]
    out: list[RingPoly] = []
    for f in split:
        g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
        f = RingPoly([c // g for c in f])
        if f.degree() and f not in out:
            out.append(f)
    return out


def _exact_quotient(a: RingPoly, f: RingPoly) -> RingPoly | None:
    """a / f if f divides a, else None."""
    try:
        return poly_divexact(a, f)
    except ArithmeticError:
        return None


def _reduced(fx: RingPoly, finv: RingPoly, moves: tuple[Move, Move]) -> RationalFunction:
    """fx / finv in RationalFunction's normal form, for the pair of a walk of
    ``moves``, without a gcd.

    The pair is W (1, 1) for a word W of the moves, and adj(W) (fx, finv) =
    det(W) (1, 1), so every common divisor of fx and finv divides det(W), a
    power of the determinant that both moves share.  Its irreducible
    factors are the integer content, the variable and the factors of that
    determinant: each is stripped while it divides both entries.  A
    determinant that leaves a factor of degree above 2 falls back to
    poly_gcd.
    """
    if fx.is_zero():
        return RationalFunction.normal(fx, RingPoly.constant(1))
    factors = _det_factors(moves[0])
    if factors is None:
        return RationalFunction(fx, finv)
    low = min(_valuation(fx), _valuation(finv))
    num, den = RingPoly(fx.coeffs[low:]), RingPoly(finv.coeffs[low:])
    for f in factors:
        while (n := _exact_quotient(num, f)) and (d := _exact_quotient(den, f)):
            num, den = n, d
    g = math.gcd(*num.coeffs, *den.coeffs)
    if den.leading_coefficient < 0:
        g = -g
    if g != 1:
        num, den = RingPoly([c // g for c in num.coeffs]), RingPoly([c // g for c in den.coeffs])
    return RationalFunction.normal(num, den)


class Move:
    """The matrix (a b; c d) of one move, acting on a pair as
    (x, y) -> (a x + b y, c x + d y).  Its entries are all RingPoly if any
    is and ints otherwise, and ``one`` is the unit of their ring."""

    __slots__ = ("entries", "one")

    def __init__(self, *entries):
        self.one = RingPoly.constant(1) if any(isinstance(v, RingPoly) for v in entries) else 1
        self.entries = tuple(v * self.one for v in entries)


@dataclass(frozen=True)
class UParams:
    """Parameter matrix (p q; r s) with nonzero determinant q*s - r*p.

    Entries are ints or RingPoly in a single formal variable.  Degenerate
    matrices are rejected at construction; tests that deliberately need one
    must go through :meth:`unchecked`.
    """

    p: int | RingPoly
    q: int | RingPoly
    r: int | RingPoly
    s: int | RingPoly

    def __post_init__(self):
        for name in ("p", "q", "r", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, RingPoly)):
                raise TypeError(f"entry {name} must be an int or RingPoly, got {type(v).__name__}")
        if self.delta == 0:
            raise DegenerateParametersError("determinant q*s - r*p must be nonzero")

    @classmethod
    def unchecked(cls, p, q, r, s) -> "UParams":
        u = object.__new__(cls)
        object.__setattr__(u, "p", p)
        object.__setattr__(u, "q", q)
        object.__setattr__(u, "r", r)
        object.__setattr__(u, "s", s)
        return u

    @classmethod
    def parse(cls, text: str) -> "UParams":
        """Parse four comma-separated entries, integers or the formal variable p."""
        tokens = [t.strip() for t in text.split(",")]
        if len(tokens) != 4:
            raise DomainError(f"expected four comma-separated entries, got {text!r}")
        entries = []
        for tok in tokens:
            if tok == "p":
                entries.append(RingPoly.variable())
            else:
                try:
                    entries.append(int(tok))
                except ValueError:
                    raise DomainError(f"entry {tok!r} is neither an integer nor 'p'") from None
        return cls(*entries)

    @property
    def delta(self):
        return self.q * self.s - self.r * self.p

    @property
    def symbolic(self) -> bool:
        return any(isinstance(v, RingPoly) for v in (self.p, self.q, self.r, self.s))

    @functools.cached_property
    def moves(self) -> tuple[Move, Move]:
        """Up (p q; s r) and down (r s; q p), both of determinant -delta."""
        return Move(self.p, self.q, self.s, self.r), Move(self.r, self.s, self.q, self.p)

    def entries(self) -> tuple:
        """(p, q, r, s), all RingPoly when the matrix is symbolic."""
        one = RingPoly.constant(1) if self.symbolic else 1
        return tuple(v * one for v in (self.p, self.q, self.r, self.s))

    def __str__(self):
        return f"({self.p},{self.q};{self.r},{self.s})"


U_NUM = UParams(1, 1, 1, 0)
U_CON = UParams(1, 1, 0, 1)
U_SZERO_POLY = UParams(RingPoly.variable(), 1, 1, 0)
U_RZERO_POLY = UParams(RingPoly.variable(), 1, 0, 1)


def _terms_of(x) -> tuple[int, ...]:
    if isinstance(x, CFExpansion):
        return x.terms
    if isinstance(x, (list, tuple)):
        return CFExpansion(tuple(x)).terms
    return cf_expand(x).terms


@functools.lru_cache(maxsize=1024)
def level(move: Move, n: int) -> tuple:
    """move^n as its rows (a, b, c, d), built as M^(k+1) = M^k M: squaring
    would multiply dense powers, which is slower."""
    a, b, c, d = move.entries
    x, y, z, w = move.one, 0 * move.one, 0 * move.one, move.one
    for _ in range(n):
        x, y, z, w = x * a + y * c, x * b + y * d, z * a + w * c, z * b + w * d
    return x, y, z, w


def walk(moves: tuple[Move, Move], x) -> FPair:
    """up^n0 down^n1 up^n2 ... (1, 1) for x = [n0, ..., nk] and a deformation's
    moves (up, down), the last run one move short: x's word of moves from 1,
    applied to the pair at 1, so [..., n] and [..., n-1, 1] give the same
    pair.  The levels act on the vector, never on each other."""
    terms = _terms_of(x)
    fx = finv = moves[0].one
    last = len(terms) - 1
    for i in range(last, -1, -1):
        a, b, c, d = level(moves[i % 2], terms[i] - (i == last))
        fx, finv = a * fx + b * finv, c * fx + d * finv
    return FPair(fx, finv)


def stabilization_proved(moves: tuple[Move, Move]) -> bool:
    """Whether consecutive deformed convergents agree by proof (stabilized_series).

    True when the moves are symbolic, both are singular at t = 0, and each
    of the four two-letter words keeps the denominator of (1, 1) nonzero at
    t = 0.  A singular 2x2 matrix is a column times a row, so a word's
    denominator at 0 is one factor per first letter, per adjacent pair of
    letters and per last letter: the two-letter words decide every word.
    """
    if not all(isinstance(m.one, RingPoly) for m in moves):
        return False
    at0 = [tuple(v.constant_term for v in m.entries) for m in moves]
    if any(a * d - b * c for a, b, c, d in at0):
        return False
    # The denominator of X Y (1, 1) is (c, d) . Y (1, 1), for every X and Y.
    return all(c * (e + f) + d * (g + h) for _, _, c, d in at0 for e, f, g, h in at0)


def stabilized_series(source, order: int, moves: tuple[Move, Move]) -> TruncatedSeries:
    """Coefficients 0..order of a deformed value: the one path from a source
    to a series.

    A rational, a CFExpansion or a term tuple expands exactly, from its
    walk.  A StreamingCF is stabilised: terms are pulled, an invalid one
    refused with DomainError, until a = terms[:-1] has term sum at least
    order + 2; ``moves`` are walked along a and along terms, and both
    expansions must agree.  Integer moves have no series: DomainError.

    Where ``stabilization_proved(moves)``, agreement is a theorem and a
    mismatch is an internal error.  The pairs are W (1, 1) and W X Y^m
    (1, 1), with W the word of a (sum(a) - 1 moves), X the move of a's last
    run and Y the other one.  Both moves are singular at t = 0, so num_a
    den_b - num_b den_a = det(W) det((1, 1), X Y^m (1, 1)) is divisible by
    t^(sum(a) - 1), where sum(a) - 1 >= order + 1, and both denominators are
    nonzero at t = 0, so both expansions agree through index order.
    Elsewhere a mismatch is the expected StabilizationError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not all(isinstance(m.one, RingPoly) for m in moves):
        raise DomainError("series extraction needs the formal variable in U")
    if not isinstance(source, StreamingCF):
        return series_of_ratfun(walk(moves, source), order)
    it, name = source.terms(), source.name
    terms: list[int] = []
    while sum(terms[:-1]) < order + 2:
        try:
            terms.append(next(it))
        except StopIteration:
            raise TermsExhaustedError(
                f"continued fraction terms exhausted: {name} cannot reach order {order}"
            ) from None
        if terms[-1] < 0 or (len(terms) > 1 and terms[-1] < 1):
            raise DomainError(f"invalid continued fraction terms {terms}")
    prev = series_of_ratfun(walk(moves, terms[:-1]), order)
    last = series_of_ratfun(walk(moves, terms), order)
    if prev != last:
        message = (
            f"consecutive deformed convergents of {name} disagree at index "
            f"{prev.agreement(last)} of order {order} (prefix sums "
            f"{sum(terms[:-1])} and {sum(terms)}, {len(terms)} terms pulled)"
        )
        if stabilization_proved(moves):
            message = "internal error: " + message
        raise StabilizationError(message, series_a=prev, series_b=last)
    return last


def f_pair(u: UParams, x) -> FPair:
    """Solve the defining system along the continued fraction of x: the walk
    of u's two moves from the pair (1, 1) at 1."""
    return walk(u.moves, x)


def quantize(u: UParams, x) -> Fraction | RationalFunction:
    """The deformed value f(x) / f(1/x), reduced (FPair.quotient)."""
    return f_pair(u, x).quotient(u.moves)


def codenominator(x) -> int:
    """The reciprocal-argument companion of the (1,1;0,1) solution.

    Extends the Fibonacci sequence to positive rational arguments: on
    integers n it returns the n-th Fibonacci number, and it satisfies
    F(2 + x) = F(1 + x) + F(x).
    """
    return f_pair(U_CON, x).finv


def j_quotient(x) -> Fraction:
    """The involution x -> con(x) / con(1/x), with con the (1,1;0,1) solution."""
    return f_pair(U_CON, x).quotient()


@dataclass(frozen=True)
class SZeroParams:
    """Derived parameters P = p/r, Q = q/r of a matrix with s = 0."""

    P: Fraction | RationalFunction
    Q: Fraction | RationalFunction

    @classmethod
    def from_matrix(cls, u: UParams) -> "SZeroParams":
        if u.s != 0:
            raise DomainError("formula requires s = 0")
        if u.r == 0:
            raise DomainError("formula requires r != 0")
        if u.symbolic:
            return cls(RationalFunction(u.p, u.r), RationalFunction(u.q, u.r))
        return cls(Fraction(u.p, u.r), Fraction(u.q, u.r))


def _one_like(value):
    return value**0


def _geometric_sum(base, n: int):
    """1 + base + ... + base^(n-1), exact, valid for base = 1 as well."""
    total = _one_like(base) * 0
    cur = _one_like(base)
    for _ in range(n):
        total = total + cur
        cur = cur * base
    return total


def shift_by_integer(u: UParams, value, n: int):
    """Shift a deformed value by an integer: P^n * value + (1+...+P^(n-1)) Q.

    Requires s = 0 and r != 0.  The P = 1 case needs no separate branch,
    the geometric sum degenerates to n there.
    """
    if n < 0:
        raise DomainError("shift distance must be nonnegative")
    sz = SZeroParams.from_matrix(u)
    return value * sz.P**n + _geometric_sum(sz.P, n) * sz.Q


def _deformed_integer(P, Q, n: int):
    # Deformed value of the integer n: P^(n-1) + (1 + ... + P^(n-2)) Q.
    return P ** (n - 1) + _geometric_sum(P, n - 1) * Q


def szero_cf_form(u: UParams, cf) -> Fraction | RationalFunction:
    """Evaluate the s = 0 nested-fraction form of a finite expansion.

    Level i contributes partial quotient (1 + ... + P^(n_i - 1)) Q and
    partial numerator P^(n_i); the innermost level is the deformed value of
    the final term.  For finite expansions this equals ``quantize`` exactly.
    """
    terms = _terms_of(cf)
    sz = SZeroParams.from_matrix(u)
    P, Q = sz.P, sz.Q
    value = _deformed_integer(P, Q, terms[-1])
    for depth in range(len(terms) - 2, -1, -1):
        n = terms[depth]
        try:
            value = _geometric_sum(P, n) * Q + P**n / value
        except ZeroDivisionError:
            raise EvaluationError(
                f"nested fraction hit a zero denominator at depth {depth}", depth=depth
            ) from None
    return value


def golden_closed_form(P, Q) -> float:
    """Positive root of t^2 - Q t - P = 0, as a float."""
    pf, qf = float(P), float(Q)
    disc = qf * qf + 4.0 * pf
    if disc < 0:
        raise DomainError("negative discriminant: no real value")
    return (qf + math.sqrt(disc)) / 2.0


def golden_iterate(P, Q, tol: float = 1e-9, max_iter: int = 60) -> tuple[float, int]:
    """Iterate t <- Q + P/t from t = 1 until successive change <= tol.

    Returns the value and the number of iterations used.  For positive P, Q
    this converges to the positive root of t^2 - Q t - P.
    """
    pf, qf = float(P), float(Q)
    t = 1.0
    for i in range(1, max_iter + 1):
        if t == 0.0:
            raise EvaluationError("iteration hit zero")
        nt = qf + pf / t
        if abs(nt - t) <= tol:
            return nt, i
        t = nt
    raise ArithmeticError(f"iteration did not settle within {max_iter} steps")


def fibonacci_poly_extend(x) -> RingPoly:
    """Rational-argument extension of the Fibonacci polynomials.

    The (p,1;0,1) solution: on integers n >= 1 it reproduces the classical
    recurrence F_n = p F_(n-1) + F_(n-2) with starting values 1 and 1 + p.
    """
    return f_pair(U_RZERO_POLY, x).fx


@dataclass(frozen=True)
class DescendingCF:
    """Descending nested-fraction form of a (p,1;0,1)-deformed value.

    ``levels`` are the partial denominators, each of the shape c*p (with an
    additive 1 on the innermost level); the value is
    levels[0] + 1/(levels[1] + 1/(...)).
    """

    levels: tuple[RingPoly, ...]

    @property
    def p_count(self) -> int:
        return sum(lvl.coeffs[1] for lvl in self.levels)

    def value(self) -> RationalFunction:
        out = RationalFunction(self.levels[-1])
        for lvl in reversed(self.levels[:-1]):
            out = lvl + out.inverse()
        return out

    def __str__(self):
        return " + 1/(".join(str(lvl) for lvl in self.levels) + ")" * (len(self.levels) - 1)


def rzero_descending_cf(x) -> DescendingCF:
    """Build the descending expansion of the (p,1;0,1) deformation of x > 1.

    Expanding one unit at a time turns each term n into n partial
    denominators p, and the block boundaries merge additively, bumping the
    coefficient (consecutive term-1 blocks stack further).  The total count
    of p's is the term sum of x minus one.
    """
    terms = _terms_of(x)
    if CFExpansion(terms).value() <= 1:
        raise DomainError("descending expansion requires x > 1")
    last = terms[-1]
    levels = [[1, 0] for _ in range(last - 2)] + [[1, 1]]
    for n in reversed(terms[:-1]):
        levels[0][0] += 1
        levels = [[1, 0] for _ in range(n - 1)] + levels
    return DescendingCF(tuple(RingPoly((d, c)) for c, d in levels))
