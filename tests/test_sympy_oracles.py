"""Exact polynomial arithmetic checked against sympy as an independent oracle."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfdeform.exactnum import RationalFunction, RingPoly, poly_gcd, series_of_ratfun

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

polys = st.lists(st.integers(-9, 9), max_size=6).map(RingPoly)
nonzero_polys = polys.filter(lambda f: not f.is_zero())


def to_sympy(f: RingPoly):
    return sympy.Poly.from_list(list(reversed(f.coeffs)) or [0], X, domain="ZZ")


def from_sympy(f) -> RingPoly:
    return RingPoly(int(c) for c in reversed(f.all_coeffs()))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(polys, polys, polys)
def test_poly_gcd_matches_sympy(common, a, b):
    # Multiplying in a common factor makes nontrivial gcds frequent.
    a, b = common * a, common * b
    assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(nonzero_polys, polys, nonzero_polys)
def test_ratfun_normal_form_matches_sympy(common, num, den):
    f = RationalFunction(common * num, common * den)
    assert f.den.leading_coefficient > 0
    assert to_sympy(f.num).gcd(to_sympy(f.den)) == sympy.Poly(1, X, domain="ZZ")
    # Same value: the cross products agree, multiplied out by sympy.
    assert to_sympy(f.num) * to_sympy(den) == to_sympy(f.den) * to_sympy(num)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(polys, nonzero_polys, st.integers(0, 12))
def test_series_of_ratfun_matches_sympy(num, den, order):
    assume(den.constant_term != 0)
    series = series_of_ratfun((num, den), order)
    # The truncated series is num / den modulo x^(order + 1), by sympy's
    # extended Euclid over the rationals.
    modulus = sympy.Poly(X ** (order + 1), X, domain="QQ")
    inverse = sympy.Poly(to_sympy(den), domain="QQ").invert(modulus)
    expected = (sympy.Poly(to_sympy(num), domain="QQ") * inverse).rem(modulus)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    assert list(series) == coeffs
    if den.constant_term in (1, -1):
        assert all(type(c) is int for c in series)
