import random
import tracemalloc
from fractions import Fraction

import pytest
from oracles import matrix_grid

from cfdeform.analysis import enumerate_rationals
from cfdeform.exactnum import (
    RationalFunction,
    RingPoly,
    TruncatedSeries,
    format_terms,
    poly_content,
    poly_divexact,
    poly_gcd,
    series_of_ratfun,
)
from cfdeform.udeform import UParams, f_pair

P = RingPoly.variable()


def test_binomial_square():
    assert (1 + P) * (1 + P) == RingPoly([1, 2, 1])


def test_zero_absorbs():
    f = RingPoly([3, 0, 2])
    assert f * RingPoly() == RingPoly()
    assert (f * 0).is_zero()


def test_evaluation_at_one_gives_coefficient_sum():
    assert RingPoly([1, 1, 1, 1, 1])(1) == 5
    assert RingPoly([1, 4, 5, 3, 3, 1])(1) == 17


def test_degree_and_zero_degree():
    assert RingPoly().degree() is None
    assert RingPoly([7]).degree() == 0
    assert (P**5).degree() == 5


def test_mixed_int_arithmetic():
    assert 2 * (1 + P) == RingPoly([2, 2])
    assert (P + 1) - 1 == P
    assert 1 - P == RingPoly([1, -1])


def test_no_trailing_zeros():
    assert RingPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert (P - P).coeffs == ()


def _random_poly(rng):
    return RingPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])


RINGS = {
    "integers": (lambda rng: rng.randint(-50, 50), 0, 1),
    "integer polynomials": (_random_poly, RingPoly(), RingPoly([1])),
}


@pytest.mark.parametrize("ring", RINGS)
def test_ring_axioms_on_random_triples(ring):
    sample, zero, one = RINGS[ring]
    rng = random.Random(20240601)
    for _ in range(120):
        a, b, c = (sample(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a


def test_ratfun_removes_common_factor():
    assert RationalFunction(P**2 - 1, P - 1) == RationalFunction(P + 1, 1)


def test_ratfun_keeps_coprime_pair():
    f = RationalFunction(RingPoly([1, 3, 3]), RingPoly([1, 2, 2]))
    assert f.num == RingPoly([1, 3, 3])
    assert f.den == RingPoly([1, 2, 2])


def test_ratfun_sign_normalization():
    f = RationalFunction(-P, RingPoly([-1]))
    assert f.num == P
    assert f.den == RingPoly([1])
    g = RationalFunction(P, -(1 + P))
    assert g.den.leading_coefficient > 0


def test_ratfun_content_normalization():
    f = RationalFunction(RingPoly([2, 2]), RingPoly([2]))
    assert f.num == 1 + P
    assert f.den == RingPoly([1])


def test_ratfun_scale_invariance_and_idempotence():
    rng = random.Random(7)
    for _ in range(40):
        a, b, g = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        if b.is_zero() or g.is_zero():
            continue
        direct = RationalFunction(a, b)
        scaled = RationalFunction(a * g, b * g)
        assert direct == scaled
        again = RationalFunction(direct.num, direct.den)
        assert again.num == direct.num and again.den == direct.den


def test_ratfun_evaluation_invariance_at_twenty_points():
    rng = random.Random(99)
    a, b, g = RingPoly([2, -3, 1]), RingPoly([1, 4]), RingPoly([5, 1, 1])
    raw_num, raw_den = a * g, b * g
    reduced = RationalFunction(raw_num, raw_den)
    points = 0
    while points < 20:
        pt = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        if raw_den(pt) == 0:
            continue
        assert reduced.evaluate(pt) == Fraction(raw_num(pt)) / Fraction(raw_den(pt))
        points += 1


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        RationalFunction(P, RingPoly())


def test_ratfun_field_ops():
    half = RationalFunction(1, RingPoly([1, 1]))
    assert half + half == RationalFunction(2, RingPoly([1, 1]))
    assert (half * (1 + P)) == RationalFunction(1, 1)
    assert half.inverse() == RationalFunction(RingPoly([1, 1]), 1)
    with pytest.raises(ZeroDivisionError):
        half / RationalFunction(0, 1)


def test_poly_gcd_basics():
    assert poly_gcd(P**2 - 1, P - 1) == P - 1
    assert poly_gcd(RingPoly([6]), RingPoly([4])) == RingPoly([2])
    assert poly_gcd(RingPoly(), -P) == P


def test_series_geometric():
    s = series_of_ratfun(RationalFunction(1, 1 - P), 4)
    assert list(s) == [1, 1, 1, 1, 1]
    assert s.is_integral() == (True, None)


def test_series_of_reduced_quotients():
    from oracles import QUANT_7_5, QUANT_19_31, SERIES_7_5, SERIES_19_31

    f = RationalFunction(RingPoly(QUANT_7_5[0]), RingPoly(QUANT_7_5[1]))
    assert list(series_of_ratfun(f, 14)) == SERIES_7_5
    g = RationalFunction(RingPoly(QUANT_19_31[0]), RingPoly(QUANT_19_31[1]))
    assert list(series_of_ratfun(g, 14)) == SERIES_19_31


def test_series_times_denominator_recovers_numerator():
    rng = random.Random(41)
    for _ in range(30):
        num = _random_poly(rng)
        den = RingPoly([1] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
        order = rng.randint(0, 12)
        s = series_of_ratfun((num, den), order)
        back = [0] * (order + 1)
        for i, c in enumerate(s):
            if c == 0:
                continue
            for j, d in enumerate(den.coeffs):
                if i + j <= order:
                    back[i + j] += c * d
        expected = [(num.coeffs[i] if i < len(num.coeffs) else 0) for i in range(order + 1)]
        assert back == expected


def test_series_requires_unit_at_origin():
    with pytest.raises(ZeroDivisionError, match="no Taylor expansion at origin"):
        series_of_ratfun((RingPoly([1]), P), 3)


def _expansion_or_pole(pair):
    # Coefficients as strings, so 3 and Fraction(3) read alike; None for a pole.
    try:
        return [str(c) for c in series_of_ratfun(pair, 12)]
    except ZeroDivisionError:
        return None


def _reduced_expansion_or_pole(pair):
    # The reference: reduce first; a reduced value with den(0) = 0 has a pole.
    if not pair[1]:
        return None
    value = RationalFunction(*pair)
    if value.den.constant_term == 0:
        return None
    return [str(c) for c in series_of_ratfun(value, 12)]


def test_raw_pair_cancels_the_common_power_of_the_variable():
    # (p^2 + p) / (p^3 + p^2 + p) = (1 - p^2) / (1 - p^3)
    assert list(series_of_ratfun((P**2 + P, P**3 + P**2 + P), 12)) == [1, 0, -1] * 4 + [1]
    assert list(series_of_ratfun((P**2, P), 3)) == [0, 1, 0, 0]
    assert list(series_of_ratfun((RingPoly(), P**2), 2)) == [0, 0, 0]
    assert list(series_of_ratfun((RingPoly([2]), RingPoly([2, 2])), 3)) == [1, -1, 1, -1]
    for pair in [(P, P**2), (RingPoly([1]), RingPoly()), (RingPoly([3, 1]), P**3 + P)]:
        with pytest.raises(ZeroDivisionError, match="no Taylor expansion at origin"):
            series_of_ratfun(pair, 3)


@pytest.mark.parametrize(
    "u_text", ["p,1,1,0", "p,1,0,1", "p,p,1,0", "p,1,p,0", "1,p,p,0", "2,p,1,0", "p,2,1,1"]
)
def test_raw_pair_expands_as_its_reduced_value(u_text):
    u = UParams.parse(u_text)
    for x, _ in enumerate_rationals(9):
        pair = f_pair(u, x)
        assert _expansion_or_pole(pair) == _reduced_expansion_or_pole(pair), x


def test_poly_divexact_divides_exactly_or_raises():
    rng = random.Random(5)
    for divisor in (P - 1, 2 * P + 3, P * P + P + 1, 3 * P * P - 2, RingPoly((-4,))):
        for _ in range(20):
            quotient = _random_poly(rng)
            shifted = quotient * P ** rng.randrange(4)
            assert poly_divexact(shifted * divisor, divisor) == shifted
            if divisor.degree():
                with pytest.raises(ArithmeticError):
                    poly_divexact(shifted * divisor + 1, divisor)
    with pytest.raises(ArithmeticError):
        poly_divexact(P + 1, P * P)
    with pytest.raises(ArithmeticError):
        poly_divexact(P**3 + 1, 2 * P + 1)  # inexact at the leading step
    assert poly_divexact(RingPoly(), P + 1) == RingPoly()


def test_poly_content():
    assert poly_content(RingPoly([6, -4, 10])) == 2
    assert poly_content(RingPoly([-3])) == 3
    assert poly_content(RingPoly()) == 0


def test_series_fractional_path_detects_nonintegrality():
    s = series_of_ratfun((RingPoly([1]), RingPoly([2, -1])), 3)
    assert list(s) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert s.is_integral() == (False, 0)
    constant_half = TruncatedSeries([Fraction(1, 2)])
    assert constant_half.is_integral() == (False, 0)


def test_series_truncate_keeps_the_leading_coefficients():
    a = TruncatedSeries([1, 2, 3, 4])
    assert a.truncate(2) == TruncatedSeries([1, 2, 3])
    assert a.truncate(0).order == 0
    assert a.truncate(3) is a and a.truncate(9) is a


def test_fraction_constructor_invariants():
    f = Fraction(6, -4)
    assert f.denominator > 0
    assert f == Fraction(-3, 2)
    from math import gcd

    rng = random.Random(3)
    for _ in range(50):
        fr = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
        assert gcd(fr.numerator, fr.denominator) == 1 and fr.denominator > 0


def test_series_agreement_counts_shared_leading_coefficients():
    a = TruncatedSeries([1, 2, 3, 4])
    assert a.agreement(a) == 4
    assert a.agreement(TruncatedSeries([1, 2, 5, 4])) == 2
    assert a.agreement(TruncatedSeries([0, 2, 3, 4])) == 0
    assert a.agreement(TruncatedSeries([1, 2])) == 2
    assert a != TruncatedSeries([1, 2])


def test_format_terms_parenthesizes_fractional_coefficients_in_text():
    coeffs = [Fraction(-1, 2), Fraction(3, 4), 2]
    assert format_terms(coeffs, "p") == "-1/2 + (3/4)p + 2p^2"
    assert format_terms(coeffs, "p", latex=True) == r"-\frac{1}{2}+\frac{3}{4}p+2p^{2}"


def _fraction_series(num, den, order):
    # The recurrence c_n = (num_n - sum_j den_j c_(n-j)) / den_0, in Fractions.
    ncs, dcs = num.coeffs, den.coeffs
    out = []
    for n in range(order + 1):
        acc = Fraction(ncs[n] if n < len(ncs) else 0)
        for j in range(1, min(n, len(dcs) - 1) + 1):
            acc -= dcs[j] * out[n - j]
        out.append(acc / dcs[0])
    return out


def test_series_with_a_nonunit_constant_term_matches_the_fraction_recurrence():
    # den(0) of 276 bits: the integer path must give the same coefficients.
    pair = f_pair(UParams.parse("-1,2,p,2"), Fraction(2816596318483412024, 1036167879649219395))
    assert abs(pair.finv.constant_term).bit_length() == 276
    assert list(series_of_ratfun(pair, 60)) == _fraction_series(*pair, 60)
    rng = random.Random(12)
    grid, xs = matrix_grid(), [x for x, _ in enumerate_rationals(8)]
    checked = 0
    while checked < 60:
        pair = f_pair(UParams.parse(rng.choice(grid)), rng.choice(xs))
        if abs(pair.finv.constant_term) > 1:
            series = series_of_ratfun(pair, 12)
            assert list(series) == _fraction_series(*pair, 12)
            assert all(isinstance(c, Fraction) for c in series)
            checked += 1


def test_series_work_at_a_low_order_does_not_grow_with_the_denominator_degree():
    # den(0) of 793 bits over a degree-600 den: order 2 reads only den_1, den_2.
    num = RingPoly([5, 7])
    den = RingPoly([3**500] + [2**64 + j for j in range(600)])
    tracemalloc.start()
    try:
        series = series_of_ratfun((num, den), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(series) == _fraction_series(num, den, 2)
    assert peak < 1 << 20

