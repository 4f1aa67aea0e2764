"""The q-deformation of rationals of Morier-Genoud and Ovsienko, for comparison.

[x]_q for x = [a1, ..., an] is the tower [a1]_q + q^a1 / ([a2]_(1/q) +
q^-a2 / ([a3]_q + q^a3 / (...))), with [a]_q = 1 + q + ... + q^(a-1).  It
is fixed by [1]_q = 1 and the two moves

    [x + 1]_q       = q [x]_q + 1
    [x / (1 + x)]_q = q [x]_q / (1 + q [x]_q)

which act on its (numerator, denominator) pair as the up matrix (q,1;0,1)
and the down matrix (q,0;q,1), both of determinant q.  The pair is the
walk of udeform over these two moves, and the series of a rational or of
an irrational is udeform's one path to a series over them.  At p = q,
(p,1;1,0) and q share the up move t -> pt + 1, and q's down matrix is q
times (p,1;1,0)'s down matrix at p = 1/q (t -> t/(t + 1/q) against
t -> t/(t + p)).
"""

from __future__ import annotations

from .exactnum import RationalFunction, RingPoly, TruncatedSeries
from .udeform import FPair, Move, stabilized_series, walk

__all__ = ["Q_MOVES", "q_int", "q_pair", "q_deform", "q_deform_series"]


def q_int(a: int) -> RationalFunction:
    """The bracket [a]_q = 1 + q + ... + q^(a-1)."""
    if a < 0:
        raise ValueError("q-bracket of a negative integer")
    return RationalFunction(RingPoly((1,) * a))


_q = RingPoly.variable()
Q_MOVES = Move(_q, 1, 0, 1), Move(_q, 0, _q, 1)


def q_pair(cf) -> FPair:
    """Numerator and denominator of the q-deformation, already reduced.

    The walk of Q_MOVES from (1, 1), the pair of [1]_q.  There is no gcd
    anywhere: the word W of x's moves has determinant a power of q, and
    adj(W) (num, den) = det(W) (1, 1), so every common divisor of the pair
    divides a power of q; the denominator has constant term 1 and every
    coefficient stays nonnegative, so the pair is the normal form that
    RationalFunction would produce.
    """
    return walk(Q_MOVES, cf)


def q_deform(cf) -> RationalFunction:
    """Deform a positive rational (given as value or expansion) in q.

    Evaluating the result at q = 1 returns the undeformed value.
    """
    return q_pair(cf).quotient(Q_MOVES)


def q_deform_series(source, order: int) -> TruncatedSeries:
    """Taylor coefficients of the q-deformation at q = 0: the one path
    (udeform.stabilized_series) over Q_MOVES, exact for a rational and
    proved to stabilise for a StreamingCF, since Q_MOVES meets
    stabilization_proved."""
    return stabilized_series(source, order, Q_MOVES)
