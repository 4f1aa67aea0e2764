"""Independent references for checking benchmark results.

Nothing here imports cfdeform.  Polynomials are ascending lists of ints,
values are fractions.Fraction, and the deformation pair (f(x), f(1/x)) is
recomputed by walking the two moves x -> 1+x and x -> x/(1+x) from 1, with
the update rules read off the defining equations.  The q-deformation is
rebuilt as an unreduced tower of Laurent polynomials, so no gcd is involved.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

# A Mersenne prime; identities between polynomials of degree d are checked at
# random points modulo it, and a false pass has probability at most d / MOD.
MOD = (1 << 61) - 1


# ---------------------------------------------------------------------------
# Continued fractions and the path from 1


def cf_terms(x: Fraction) -> tuple[int, ...]:
    """Canonical continued fraction of a positive rational (last term >= 2
    unless the value is 1)."""
    num, den = x.numerator, x.denominator
    terms = []
    while den:
        q, r = divmod(num, den)
        terms.append(q)
        num, den = den, r
    if len(terms) > 1 and terms[-1] == 1:
        terms = terms[:-2] + [terms[-2] + 1]
    return tuple(terms)


def path_from_one(x: Fraction) -> list[tuple[bool, int]]:
    """Run-length encoded moves that reach x from 1: (True, k) is k steps of
    x -> 1+x, (False, k) is k steps of x -> x/(1+x)."""
    num, den = x.numerator, x.denominator
    runs = []
    while num != den:
        if num > den:
            k = (num - 1) // den
            num -= k * den
            runs.append((True, k))
        else:
            k = (den - 1) // num
            den -= k * num
            runs.append((False, k))
    runs.reverse()
    return runs


def rational_at_depth(rng: random.Random, depth: int) -> Fraction:
    """Uniformly random positive rational with term sum ``depth``: a random
    word of depth - 1 moves applied to 1."""
    num, den = 1, 1
    for _ in range(depth - 1):
        if rng.random() < 0.5:
            num += den
        else:
            den += num
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Dense integer polynomials as lists


def padd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def mul_trunc(a, b, n: int) -> list:
    """First n coefficients of a*b."""
    out = [0] * n
    for i in range(min(len(a), n)):
        c = a[i]
        if c:
            for j in range(min(len(b), n - i)):
                out[i + j] += c * b[j]
    return out


def peval_mod(coeffs, t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % MOD
    return acc


# ---------------------------------------------------------------------------
# The deformation pair by walking the moves


def walk_pair(entries, x: Fraction, add, mul, one):
    """(f(x), f(1/x)) for U = (p q; r s) over any ring given by add/mul."""
    p, q, r, s = entries
    fx = finv = one
    for up, k in path_from_one(x):
        for _ in range(k):
            if up:
                fx, finv = add(mul(p, fx), mul(q, finv)), add(mul(s, fx), mul(r, finv))
            else:
                fx, finv = add(mul(r, fx), mul(s, finv)), add(mul(q, fx), mul(p, finv))
    return fx, finv


# The two one-variable families, entries as polynomials: p = [0, 1].
SZERO = ([0, 1], [1], [1], [])
RZERO = ([0, 1], [1], [], [1])


def poly_pair(family, x: Fraction):
    return walk_pair(family, x, padd, pmul, [1])


def pair_mod(family, x: Fraction, t: int):
    """The pair evaluated at p = t, modulo MOD."""
    entries = tuple(peval_mod(e, t) for e in family)
    return walk_pair(
        entries, x, lambda a, b: (a + b) % MOD, lambda a, b: a * b % MOD, 1
    )


def value_at_one(family, x: Fraction) -> Fraction:
    """The deformed value at p = 1, from an integer walk."""
    entries = tuple(sum(e) for e in family)
    fx, finv = walk_pair(entries, x, lambda a, b: a + b, lambda a, b: a * b, 1)
    return Fraction(fx, finv)


# ---------------------------------------------------------------------------
# The q-deformation as an unreduced tower


def _ladd(a, b):
    # Laurent polynomials are (coefficients, lowest exponent).
    (ac, al), (bc, bl) = a, b
    if not ac:
        return b
    if not bc:
        return a
    low = min(al, bl)
    return padd([0] * (al - low) + ac, [0] * (bl - low) + bc), low


def _lmul(a, b):
    return pmul(a[0], b[0]), a[1] + b[1]


def q_tower(x: Fraction) -> tuple[list[int], list[int]]:
    """Unreduced numerator and denominator of the q-deformation of x.

    Even-length expansion [a1, ..., a2m]; odd positions contribute the
    bracket [a]_q and q^a, even positions q^(1-a) [a]_q and q^-a.
    """
    terms = cf_terms(x)
    if len(terms) % 2:
        terms = terms[:-1] + (terms[-1] - 1, 1)
    a = terms[-1]
    num, den = ([1] * a, 1 - a), ([1], 0)
    for i in range(len(terms) - 2, -1, -1):
        a = terms[i]
        inverse = i % 2 == 1
        bracket = ([1] * a, 1 - a if inverse else 0)
        power = ([1], -a if inverse else a)
        num, den = _ladd(_lmul(bracket, num), _lmul(power, den)), num
    return _as_quotient(num, den)


def _as_quotient(num, den):
    def strip(lp):
        cs, low = lp
        k = 0
        while k < len(cs) and cs[k] == 0:
            k += 1
        return cs[k:], low + k

    (nc, nl), (dc, dl) = strip(num), strip(den)
    shift = nl - dl
    if shift < 0:
        raise ValueError("q-tower has a pole at q = 0")
    return [0] * shift + nc, dc


# ---------------------------------------------------------------------------
# Reference sequences


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def a004148(count: int) -> list[int]:
    """Generalized Catalan numbers: A = 1 + x A + x^2 A (A - 1)."""
    a = [1]
    for n in range(1, count):
        acc = a[n - 1]
        for j in range(1, n - 1):
            acc += a[n - 2 - j] * a[j]
        a.append(acc)
    return a


def golden_p_series(order: int) -> list[int]:
    """(p,1;1,0) golden ratio: 1, then alternating Catalan numbers."""
    return [1] + [(-1) ** (k - 1) * catalan(k - 1) for k in range(1, order + 1)]


def golden_q_series(order: int) -> list[int]:
    """q-deformed golden ratio: 1, 0, then alternating A004148."""
    a = a004148(order)
    return [1, 0][: order + 1] + [(-1) ** k * a[k - 1] for k in range(2, order + 1)]
