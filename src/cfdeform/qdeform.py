"""The alternating q-bracket deformation of rationals, for comparison.

A continued fraction of even length [a1, ..., a2m] deforms as the tower

    [a1]_q + q^a1 / ([a2]_q' + q^-a2 / ([a3]_q + q^a3 / ( ... / [a2m]_q')))

with [a]_q = 1 + q + ... + q^(a-1) at odd positions and the q -> 1/q
flavour [a]_q' = q^(1-a) [a]_q at even positions.  Odd-length expansions
are first rewritten via [..., n] = [..., n-1, 1], which leaves the value
unchanged; a leading 0 term (values below one) enters the tower as the zero
bracket.  The tower is evaluated as a product of 2x2 polynomial matrices
acting on a (numerator, denominator) pair, which comes out already in
lowest terms.  Consecutive prefixes differ by a power of q, which proves
how many terms of an irrational the q-series needs.
"""

from __future__ import annotations

from .contfrac import CFExpansion, StreamingCF, cf_expand, stabilized_series
from .exactnum import RationalFunction, RingPoly, TruncatedSeries, series_of_ratfun

__all__ = ["q_int", "q_pair", "q_deform", "q_deform_series", "even_length_terms"]


def q_int(a: int, inverse: bool = False) -> RationalFunction:
    """The bracket [a]_q = 1 + q + ... + q^(a-1), or its q -> 1/q companion
    q^(1-a) [a]_q, cleared to a quotient of polynomials."""
    if a < 0:
        raise ValueError("q-bracket of a negative integer")
    if a == 0:
        return RationalFunction(0)
    numerator = RingPoly((1,) * a)
    if not inverse:
        return RationalFunction(numerator)
    return RationalFunction(numerator, RingPoly.monomial(a - 1))


def even_length_terms(cf) -> tuple[int, ...]:
    """Rewrite to even length via [..., n] = [..., n-1, 1] when needed."""
    terms = cf.terms if isinstance(cf, CFExpansion) else tuple(cf)
    if len(terms) % 2 == 1:
        terms = terms[:-1] + (terms[-1] - 1, 1)
    return terms


def q_pair(cf) -> tuple[RingPoly, RingPoly]:
    """Numerator and denominator of the q-deformation, already reduced.

    Runs the tower from the innermost level as a pair recursion,

        start:      (num, den) = ([a]_q, q^(a-1))            for the last term a
        even index: (num, den) <- ([a]_q num + q^a den, num)
        odd index:  (num, den) <- (q [a]_q num + den, q^a num)

    with no gcd anywhere.  Each level is a matrix of determinant -q^a, every
    coefficient stays nonnegative and the outermost level leaves a
    denominator with constant term 1, so the pair is the normal form that
    RationalFunction would produce.
    """
    if isinstance(cf, (list, tuple)):
        cf = CFExpansion(tuple(cf))
    elif not isinstance(cf, CFExpansion):
        cf = cf_expand(cf)
    terms = even_length_terms(cf)
    last = terms[-1]
    num, den = RingPoly((1,) * last), RingPoly.monomial(last - 1)
    for i in range(len(terms) - 2, -1, -1):
        a = terms[i]
        if i % 2 == 0:
            num, den = RingPoly((1,) * a) * num + RingPoly.monomial(a) * den, num
        else:
            num, den = RingPoly((0,) + (1,) * a) * num + den, RingPoly.monomial(a) * num
    return num, den


def q_deform(cf) -> RationalFunction:
    """Deform a positive rational (given as value or expansion) in q.

    Evaluating the result at q = 1 returns the undeformed value.
    """
    return RationalFunction(*q_pair(cf))


def q_deform_series(source, order: int) -> TruncatedSeries:
    """Taylor coefficients of the q-deformation at q = 0.

    Finite expansions (or rationals) expand exactly; streaming sources pull
    the proved number of terms (contfrac.stabilized_series) and check that
    the last two prefix deformations agree on all order+1 coefficients.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(source, StreamingCF):
        return stabilized_series(
            source, order, lambda ts: (q_pair(ts[:-1]), q_pair(ts)), lambda ts: True
        )
    return series_of_ratfun(q_pair(source), order)
