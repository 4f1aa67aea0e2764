from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cfdeform.contfrac import (
    CFExpansion,
    StreamingCF,
    cf_expand,
    cf_value,
    convergents,
    ell,
    format_cf,
    j_rewrite,
    parse_cf,
    parse_rational,
)
from cfdeform.errors import DomainError, TermsExhaustedError
from cfdeform.udeform import j_quotient


def test_expand_examples():
    assert cf_expand(Fraction(17, 31)).terms == (0, 1, 1, 4, 1, 2)
    assert cf_expand(1).terms == (1,)
    assert cf_expand(Fraction(7, 5)).terms == (1, 2, 2)
    assert cf_expand(Fraction(29, 13)).terms == (2, 4, 3)


def test_value_examples():
    assert cf_value([0, 1, 1, 4, 1, 2]) == Fraction(17, 31)
    assert cf_value([1]) == 1
    assert cf_value([2, 1, 2, 1, 1, 4]) == Fraction(87, 32)


def test_roundtrip_up_to_500():
    for q in range(1, 501):
        for p in range(1, 501):
            if gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            exp = cf_expand(x)
            assert exp.is_canonical
            assert cf_value(exp) == x


def test_expansion_is_canonical():
    for p, q in [(1, 1), (5, 2), (2, 5), (355, 113), (113, 355)]:
        exp = cf_expand(Fraction(p, q))
        assert len(exp) == 1 or exp.terms[-1] >= 2


def test_validation_rejects_bad_terms():
    with pytest.raises(DomainError):
        CFExpansion((0,))
    with pytest.raises(DomainError):
        CFExpansion((1, 0))
    with pytest.raises(DomainError):
        CFExpansion((-1, 2))
    with pytest.raises(DomainError):
        CFExpansion(())
    with pytest.raises(DomainError):
        cf_expand(Fraction(-3, 2))
    with pytest.raises(DomainError):
        cf_expand(0)


def test_ell_examples():
    assert ell(1) == 1
    assert ell(Fraction(17, 31)) == 9
    assert ell(Fraction(7, 5)) == 5
    assert ell(Fraction(1, 3)) == 3


def test_ell_shift_identities(rationals_ell_12):
    for x, depth in rationals_ell_12:
        assert ell(1 + x) == depth + 1
        assert ell(x / (1 + x)) == depth + 1


def test_e_pattern_first_fifteen_terms():
    assert StreamingCF.e_pattern().take(15) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1, 1, 10]


def test_pi_source_is_finite():
    src = StreamingCF.pi_embedded()
    terms = src.take(22)
    assert terms[:5] == [3, 7, 15, 1, 292]
    assert sum(terms) == 439
    with pytest.raises(TermsExhaustedError):
        src.take(23)


def test_periodic_and_literal_sources():
    assert StreamingCF.periodic([2], [1, 4]).take(6) == [2, 1, 4, 1, 4, 1]
    assert StreamingCF.golden().take(4) == [1, 1, 1, 1]
    lit = StreamingCF.literal([3, 7])
    assert lit.take(2) == [3, 7]
    with pytest.raises(TermsExhaustedError):
        lit.take(3)


def test_independent_pulls_do_not_interfere():
    src = StreamingCF.e_pattern()
    assert src.take(3) == [2, 1, 2]
    assert src.take(3) == [2, 1, 2]


def test_convergents_examples():
    assert convergents(StreamingCF.e_pattern(), 4) == [2, 3, Fraction(8, 3), Fraction(11, 4)]
    assert convergents(StreamingCF.golden(), 3) == [1, 2, Fraction(3, 2)]
    assert convergents(StreamingCF.pi_embedded(), 2) == [3, Fraction(22, 7)]
    with pytest.raises(TermsExhaustedError):
        convergents(StreamingCF.literal([1]), 2)


def test_j_rewrite_examples():
    image = j_rewrite([2, 2])
    assert cf_value(image) == Fraction(4, 3)
    assert image.is_canonical
    assert j_rewrite([1, 2]).terms == (3,)
    assert cf_value(j_rewrite([0, 2])) == Fraction(1, 2)


def test_j_rewrite_input_contract():
    # Every canonical expansion is taken, single terms included.
    assert j_rewrite([5]).terms == (1, 1, 1, 2)
    assert j_rewrite([0, 5]).terms == (0, 1, 1, 1, 2)
    assert j_rewrite([1]).terms == (1,)
    with pytest.raises(DomainError):
        j_rewrite([2, 1])  # non-canonical


def test_j_rewrite_matches_quotient(rationals_ell_10):
    for x, _ in rationals_ell_10:
        assert cf_value(j_rewrite(cf_expand(x))) == j_quotient(x)


def test_j_rewrite_is_involution(rationals_ell_10):
    for x, _ in rationals_ell_10:
        assert cf_value(j_rewrite(j_rewrite(cf_expand(x)))) == x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.integers(1, 30), min_size=1, max_size=10))
def test_j_rewrite_is_the_quotient_up_to_term_sum_300(below_one, terms):
    x = cf_value([0, *terms] if below_one else terms)
    image = j_rewrite(cf_expand(x))
    assert image == cf_expand(j_quotient(x))
    assert j_rewrite(image) == cf_expand(x)


def test_parse_and_format():
    assert parse_rational("17/31") == Fraction(17, 31)
    assert parse_rational("3") == 3
    assert parse_cf("[2,1,2,1,1,4]").terms == (2, 1, 2, 1, 1, 4)
    assert format_cf((0, 1, 1, 4, 1, 2)) == "[0,1,1,4,1,2]"
    assert parse_cf(format_cf(cf_expand(Fraction(355, 113)))) == cf_expand(Fraction(355, 113))


def test_parse_rejects_garbage():
    for bad in ["0", "-3/2", "abc", "1/0"]:
        with pytest.raises(DomainError):
            parse_rational(bad)
    for bad in ["2,3", "[]", "[1,x]"]:
        with pytest.raises(DomainError):
            parse_cf(bad)
