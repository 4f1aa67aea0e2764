from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    Q_7_5,
    Q_7_5_SERIES,
    Q_19_31,
    Q_19_31_SERIES,
    Q_GOLDEN_SERIES_21,
    forbid_walk_gcd,
    q_moves_oracle,
    term_tuples,
)

from cfdeform.contfrac import StreamingCF, cf_expand, cf_value
from cfdeform.errors import TermsExhaustedError
from cfdeform.exactnum import RationalFunction, RingPoly, series_of_ratfun
from cfdeform.qdeform import q_deform, q_deform_series, q_int, q_pair

Q = RingPoly.variable()


def test_q_int_examples():
    assert q_int(2) == RationalFunction(RingPoly([1, 1]), 1)
    assert q_int(1) == RationalFunction(1, 1)
    assert q_int(0) == RationalFunction(0, 1)
    with pytest.raises(ValueError):
        q_int(-1)


def test_deform_displays():
    assert q_deform(Fraction(7, 5)) == RationalFunction(RingPoly(Q_7_5[0]), RingPoly(Q_7_5[1]))
    assert q_deform(Fraction(19, 31)) == RationalFunction(
        RingPoly(Q_19_31[0]), RingPoly(Q_19_31[1])
    )
    assert q_deform(1) == RationalFunction(1, 1)


def test_q_deform_keeps_the_pair_as_it_is(monkeypatch, rationals_ell_10):
    # q_pair is already the normal form: q_deform takes no gcd and keeps it.
    forbid_walk_gcd(monkeypatch)
    for x, _ in rationals_ell_10:
        pair, value = q_pair(x), q_deform(x)
        assert (value.num, value.den) == (pair.fx, pair.finv)


def test_rewrite_choice_does_not_change_value():
    assert q_deform([1, 2, 2]) == q_deform([1, 2, 1, 1])
    assert q_deform([2, 2]) == q_deform([2, 1, 1])


def test_specialization_at_one(rationals_ell_12):
    for x, d in rationals_ell_12:
        if d > 10:
            continue
        assert q_deform(x).evaluate(1) == x


def test_shift_law():
    # [x + 1] = q [x] + 1, a structural identity of the bracket deformation.
    qvar = RationalFunction(Q, 1)
    for x in [Fraction(2, 5), Fraction(7, 5), Fraction(19, 31), Fraction(3, 1)]:
        assert q_deform(x + 1) == qvar * q_deform(x) + 1


def test_reversal_symmetry():
    # Substituting q -> 1/q and clearing powers sends [x] to 1/[1/x]:
    # den[1/x] is the reversed numerator of [x], and num[1/x] is the
    # reversed denominator shifted up by the degree gap.
    for x in [Fraction(7, 5), Fraction(19, 31), Fraction(5, 2), Fraction(31, 19)]:
        v = q_deform(x)
        w = q_deform(1 / x)
        gap = v.num.degree() - v.den.degree()
        assert gap >= 0
        assert w.den == RingPoly(tuple(reversed(v.num.coeffs)))
        assert w.num == RingPoly.monomial(gap) * RingPoly(tuple(reversed(v.den.coeffs)))


def test_series_displays():
    assert list(q_deform_series(Fraction(7, 5), 12)) == Q_7_5_SERIES
    assert list(q_deform_series(Fraction(19, 31), 14)) == Q_19_31_SERIES
    assert list(q_deform_series(1, 5)) == [1, 0, 0, 0, 0, 0]


def test_golden_stream_series():
    assert list(q_deform_series(StreamingCF.golden(), 20)) == Q_GOLDEN_SERIES_21


def _alternating_a004148(order):
    # Coefficients of A = 1 + xA + x^2 A (A - 1), the generating function of
    # A004148, with the golden q-series shape: 1, 0, then a_(k-1) signed
    # by (-1)^k.
    a = [1, 1]
    while len(a) < order:
        n = len(a)
        conv = sum(a[k] * a[n - 2 - k] for k in range(n - 1))
        a.append(a[n - 1] + conv - a[n - 2])
    return [1, 0] + [(-1) ** k * a[k - 1] for k in range(2, order + 1)]


def test_golden_stream_series_order_100():
    assert _alternating_a004148(20) == Q_GOLDEN_SERIES_21
    assert list(q_deform_series(StreamingCF.golden(), 100)) == _alternating_a004148(100)


@pytest.mark.parametrize(
    "source, length", [(StreamingCF.e_pattern(), 60), (StreamingCF.pi_embedded(), 22)],
    ids=["e", "pi"],
)
def test_constant_series_equal_a_long_convergent(source, length):
    expected = series_of_ratfun(q_pair(source.take(length)), 40)
    assert q_deform_series(source, 40) == expected


def test_pair_recursion_is_already_reduced(rationals_ell_10):
    # The gcd-free pair must be the normal form RationalFunction produces,
    # for every rational of term sum at most 10.
    for x, _ in rationals_ell_10:
        num, den = q_pair(x)
        reduced = RationalFunction(num, den)
        assert (reduced.num, reduced.den) == (num, den), x
        assert den.constant_term == 1


def test_pair_is_the_breadth_first_walk_of_the_modular_relations(rationals_ell_12):
    # q_pair against (N, D) -> (qN + D, D), (qN, qN + D) from (1, 1), which
    # uses no matrix of the package; the oracle's pairs are normal forms.
    table = q_moves_oracle(12)
    assert len(table) == len(rationals_ell_12) == 4095
    for x, _ in rationals_ell_12:
        num, den = table[x]
        assert q_pair(x) == (num, den), x
        reduced = RationalFunction(num, den)
        assert (reduced.num, reduced.den) == (num, den), x


def _assert_cross_difference_is_power(terms):
    # For a = terms[:-1] and b = terms, num_a den_b - num_b den_a is +-q^v
    # with v = sum(a) - 1 (len(a) even) or sum(b) - 1 (len(a) odd), and both
    # denominators have constant term 1: the proof behind the q pull count.
    a, b = terms[:-1], terms
    num_a, den_a = q_pair(a)
    num_b, den_b = q_pair(b)
    v = sum(a) - 1 if len(a) % 2 == 0 else sum(b) - 1
    cross = num_a * den_b - num_b * den_a
    assert cross in (RingPoly.monomial(v), RingPoly.monomial(v, -1)), terms
    assert den_a.constant_term == den_b.constant_term == 1, terms


def test_cross_difference_of_consecutive_prefixes():
    checked = 0
    for terms in term_tuples(10):
        if len(terms) >= 2 and terms[:-1] != (0,):
            _assert_cross_difference_is_power(terms)
            checked += 1
    assert checked == 2026


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=16),
)
def test_cross_difference_on_longer_expansions(n0, tail):
    _assert_cross_difference_is_power((n0, *tail))


@pytest.mark.parametrize("order", [0, 1, 5, 20, 60])
def test_golden_stream_pulls_order_plus_three_terms(order):
    pulled = []

    def counted():
        while True:
            pulled.append(1)
            yield 1

    series = q_deform_series(StreamingCF("counted golden", counted), order)
    assert list(series) == list(q_deform_series(StreamingCF.golden(), order))
    assert len(pulled) == order + 3


def test_stream_exhaustion():
    with pytest.raises(TermsExhaustedError):
        q_deform_series(StreamingCF.literal([3, 7]), 30)


def test_deform_of_expansion_object():
    exp = cf_expand(Fraction(7, 5))
    assert q_deform(exp) == q_deform(Fraction(7, 5))
    assert cf_value(exp) == Fraction(7, 5)


def _bracket(a, inverse):
    # [a]_q, or its q -> 1/q flavour q^(1-a) [a]_q at even positions.
    return q_int(a) / RationalFunction(Q ** (a - 1)) if inverse else q_int(a)


def _literal_tower(terms):
    # The alternating tower evaluated on the terms as given, without the
    # even-length tail rewrite.
    last_inverse = (len(terms) - 1) % 2 == 1
    value = _bracket(terms[-1], last_inverse)
    for i in range(len(terms) - 2, -1, -1):
        inverse = i % 2 == 1
        power = terms[i] if not inverse else -terms[i]
        if power >= 0:
            step = RationalFunction(RingPoly.monomial(power), 1)
        else:
            step = RationalFunction(1, RingPoly.monomial(-power))
        value = _bracket(terms[i], inverse) + step / value
    return value


def test_tail_rewrite_agrees_with_literal_odd_tower(rationals_ell_10):
    # The even-length normalization must not change the deformed value: the
    # tower applied literally to an odd-length expansion gives the same
    # rational function.
    for x, d in rationals_ell_10:
        if d > 8:
            continue
        terms = cf_expand(x).terms
        if len(terms) % 2 == 0 or terms == (1,):
            continue
        assert _literal_tower(terms) == q_deform(x)
