"""The alternating q-bracket deformation of rationals, for comparison.

A continued fraction [a1, ..., an] deforms as the tower

    [a1]_q + q^a1 / ([a2]_q' + q^-a2 / ([a3]_q + q^a3 / ( ... )))

with [a]_q = 1 + q + ... + q^(a-1) at odd positions and the q -> 1/q
flavour [a]_q' = q^(1-a) [a]_q at even positions; a leading 0 term (values
below one) enters as the zero bracket.  The tower is the walk of udeform
with step-up matrices alternating between (q,1;1,0) and (1,q;q,0), so
each level is a 2x2 polynomial matrix of determinant -q^a acting on a
(numerator, denominator) pair, which comes out already in lowest terms.
The walk starts from the swap-invariant pair (1, 1), so odd-length
expansions need no rewriting and [..., n] and [..., n-1, 1] give the same
pair.  Consecutive prefixes differ by a power of q, which proves how many
terms of an irrational the q-series needs.
"""

from __future__ import annotations

from .contfrac import StreamingCF, stabilized_series
from .exactnum import RationalFunction, RingPoly, TruncatedSeries, series_of_ratfun
from .udeform import FPair, UParams, walk

__all__ = ["q_int", "q_pair", "q_deform", "q_deform_series"]


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


# The step-up matrices of even and odd term indices, (q,1;1,0) and (1,q;q,0).
_q = RingPoly.variable()
_Q_STEPS = (UParams(_q, 1, 1, 0), UParams(1, _q, _q, 0))


def q_pair(cf) -> FPair:
    """Numerator and denominator of the q-deformation, already reduced.

    The walk of udeform with step-up matrices (q,1;1,0) at even term
    indices and (1,q;q,0) at odd ones.  A term a at index i is the level

        even i: (num, den) <- ([a]_q num + q^a den, num)
        odd i:  (num, den) <- (q [a]_q num + den, q^a num)

    of determinant -q^a; the levels act from the last term to the first on
    the start (1, 1), the last with a - 1 in place of a.  There is no gcd
    anywhere: every coefficient stays nonnegative and the outermost level
    leaves a denominator with constant term 1, so the pair is the normal
    form that RationalFunction would produce.
    """
    return walk(_Q_STEPS, cf)


def q_deform(cf) -> RationalFunction:
    """Deform a positive rational (given as value or expansion) in q.

    Evaluating the result at q = 1 returns the undeformed value.
    """
    return q_pair(cf).quotient()


def q_deform_series(source, order: int) -> TruncatedSeries:
    """Taylor coefficients of the q-deformation at q = 0.

    Finite expansions (or rationals) expand exactly; streaming sources pull
    the proved number of terms (contfrac.stabilized_series) and check that
    the last two prefix deformations agree on all order+1 coefficients.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(source, StreamingCF):
        return stabilized_series(source, order, q_pair, lambda terms: True)
    return series_of_ratfun(q_pair(source), order)
