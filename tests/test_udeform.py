import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    QUANT_7_5,
    QUANT_19_31,
    RZERO_17_2_DEN,
    RZERO_TABLE,
    SZERO_TABLE,
    enumerate_by_moves,
    forbid_walk_gcd,
    matrix_grid,
    step_ascent,
    term_tuples,
)

from cfdeform.analysis import enumerate_rationals
from cfdeform.contfrac import StreamingCF, cf_expand, cf_value, ell, j_rewrite
from cfdeform.errors import DegenerateParametersError, DomainError, EvaluationError
from cfdeform.exactnum import RationalFunction, RingPoly, series_of_ratfun
from cfdeform.qdeform import Q_MOVES, q_pair
from cfdeform.udeform import (
    U_CON,
    U_NUM,
    U_RZERO_POLY,
    U_SZERO_POLY,
    Move,
    UParams,
    codenominator,
    f_pair,
    fibonacci_poly_extend,
    golden_closed_form,
    golden_iterate,
    j_quotient,
    level,
    quantize,
    rzero_descending_cf,
    shift_by_integer,
    stabilization_proved,
    stabilized_series,
    szero_cf_form,
    walk,
)

P = RingPoly.variable()

INTEGER_MATRICES = [
    U_NUM,
    U_CON,
    UParams(2, 1, 1, 0),
    UParams(1, 2, 1, 0),
    UParams(2, 3, 1, 1),
]
ALL_MATRICES = INTEGER_MATRICES + [U_SZERO_POLY, U_RZERO_POLY]


def test_numerator_family_returns_numerators():
    pair = f_pair(U_NUM, Fraction(17, 31))
    assert pair == (17, 31)
    assert f_pair(U_NUM, Fraction(29, 13)) == (29, 13)


def test_value_at_one_is_seed():
    for u in ALL_MATRICES:
        pair = f_pair(u, 1)
        assert pair.fx == 1 and pair.finv == 1


def test_small_integer_values():
    u = UParams(2, 3, 5, 7)
    assert f_pair(u, 2) == (5, 12)        # p + q and r + s
    assert f_pair(u, Fraction(1, 2)) == (12, 5)


def test_solution_tables():
    for x, coeffs in SZERO_TABLE.items():
        assert f_pair(U_SZERO_POLY, x).fx == RingPoly(coeffs)
    for x, coeffs in RZERO_TABLE.items():
        assert f_pair(U_RZERO_POLY, x).fx == RingPoly(coeffs)


def test_representation_independence():
    # The value pair depends on the value only, not on which equivalent term
    # list describes it (the pair at 1 is swap-invariant).
    for u in ALL_MATRICES:
        assert f_pair(u, [2, 1]) == f_pair(u, [3])
        assert f_pair(u, [1, 2, 1, 1]) == f_pair(u, Fraction(7, 5))


C = RingPoly.constant
WALK_MATRICES = [
    U_NUM,
    UParams(2, -3, 1, 1),
    U_SZERO_POLY,
    U_RZERO_POLY,
    UParams(C(2), C(1), C(-1), C(3)),
]


@pytest.mark.parametrize("u", WALK_MATRICES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 292, 1000])
def test_walk_matches_step_ascent_on_single_terms(u, n):
    assert f_pair(u, [n]) == step_ascent(u, [n])


@pytest.mark.parametrize("u", WALK_MATRICES, ids=str)
def test_walk_matches_step_ascent_on_mixed_expansions(u):
    for terms in [*term_tuples(10), [3, 7, 15, 1, 292], [2, 1, 2, 1, 1, 4, 1, 1, 6],
                  [1] * 20, [64, 1, 65, 2]]:
        assert f_pair(u, terms) == step_ascent(u, terms), terms


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=1, max_value=9), max_size=8),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
)
def test_walk_ignores_trailing_one_rewrite(n0, middle, n, single):
    # [..., n] and [..., n-1, 1] are the same rational, of odd and even
    # length in turn; both pair functions take either directly.
    head = () if single else (n0, *middle)
    terms, rewritten = (*head, n), (*head, n - 1, 1)
    assert f_pair(U_SZERO_POLY, terms) == f_pair(U_SZERO_POLY, rewritten)
    assert f_pair(UParams(2, 3, 1, 1), terms) == f_pair(UParams(2, 3, 1, 1), rewritten)
    assert q_pair(terms) == q_pair(rewritten)


def _within_term_sum(terms, cap=60):
    kept = []
    for t in terms:
        if sum(kept) + t > cap:
            break
        kept.append(t)
    return kept


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=40).map(_within_term_sum),
    st.sampled_from(WALK_MATRICES),
)
def test_reciprocal_swaps_the_pair(terms, u):
    # f_pair(u, x) = (f(x), f(1/x)) whichever of x and 1/x the walk starts from.
    x = cf_value(terms)
    fx, finv = f_pair(u, x)
    assert f_pair(u, 1 / x) == (finv, fx)


def test_level_cache_keeps_integer_and_symbolic_apart():
    # The constant-RingPoly matrix equals the integer one and hashes alike,
    # yet it must compute in RingPoly; the level cache keys on each matrix's
    # own moves, whichever runs first.
    constant_one = UParams(C(1), 1, 1, 0)
    assert constant_one == U_NUM and hash(constant_one) == hash(U_NUM)
    x = Fraction(17, 31)
    for first, second in ((U_NUM, constant_one), (constant_one, U_NUM)):
        level.cache_clear()
        f_pair(first, x)
        pair = f_pair(second, x)
        kind = RingPoly if second.symbolic else int
        assert all(type(v) is kind for v in pair), (first, pair)
        assert pair == (17, 31)


@pytest.mark.parametrize("terms", [(), (0,), (2, 0), (-1,)])
def test_walk_rejects_invalid_terms_before_any_level(terms):
    before = level.cache_info()
    for call in (lambda: f_pair(U_SZERO_POLY, terms), lambda: f_pair(U_NUM, list(terms)),
                 lambda: q_pair(terms), lambda: walk(U_CON.moves, terms)):
        with pytest.raises(DomainError):
            call()
    after = level.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_one_matrix_shares_its_levels_across_walks():
    level.cache_clear()
    u = UParams.parse("p,1,1,0")
    for _ in range(3):
        f_pair(u, [5, 7, 9])
    info = level.cache_info()
    assert (info.misses, info.hits) == (3, 6)


def test_grid_walks_commute_with_specialization():
    grid = matrix_grid()
    # f_pair(U, x) at p = c is the integer walk of U(c), degenerate or not.
    rng = random.Random(2020)
    rationals = [x for x, _ in enumerate_by_moves(8)]
    for text in rng.sample(grid, 40):
        u = UParams.parse(text)
        for c in range(-2, 4):
            u_c = UParams.unchecked(*(v(c) for v in u.entries()))
            for x in rng.sample(rationals, 20):
                assert tuple(v(c) for v in f_pair(u, x)) == f_pair(u_c, x), (text, c, x)


def _every_short_word_keeps_its_denominator(at0, length):
    # Brute force on the moves at t = 0: the pairs W (1, 1) for every word W
    # of at most `length` moves, one letter prepended at a time; equal pairs
    # merge.
    pairs = {(1, 1)}
    for _ in range(length):
        pairs = {(a * x + b * y, c * x + d * y) for a, b, c, d in at0 for x, y in pairs}
        if any(y == 0 for _, y in pairs):
            return False
    return True


def test_stabilization_criterion_matches_every_word_up_to_length_12():
    cases = {text: UParams.parse(text).moves for text in matrix_grid()}
    # Off the grid: up up and down down keep their denominators at t = 0,
    # but up down (1, 1) is (0, 0) there.
    cases["mixed"] = Move(1, P, 1, 0), Move(P, 0, 0, 1)
    proved = []
    for name, moves in cases.items():
        at0 = [tuple(v.constant_term for v in m.entries) for m in moves]
        singular = all(a * d == b * c for a, b, c, d in at0)
        expected = singular and _every_short_word_keeps_its_denominator(at0, 12)
        assert stabilization_proved(moves) == expected, name
        if expected:
            proved.append(name)
    assert len(proved) == 48
    assert "p,1,1,0" in proved and "1,0,p,1" in proved
    assert "p,1,0,1" not in proved and "p,p,1,0" not in proved and "mixed" not in proved
    assert stabilization_proved(Q_MOVES) and stabilization_proved(U_SZERO_POLY.moves)
    assert not stabilization_proved(U_RZERO_POLY.moves)
    assert not stabilization_proved(U_NUM.moves) and not stabilization_proved(U_CON.moves)


def test_defining_equations_sweep(rationals_ell_10):
    sample = [x for x, d in rationals_ell_10 if d <= 8]
    for u in ALL_MATRICES:
        p, q, r, s = u.entries()
        for x in sample:
            fx, finv = f_pair(u, x)
            up = f_pair(u, 1 + x)
            down = f_pair(u, x / (1 + x))
            assert up.fx == p * fx + q * finv
            assert up.finv == s * fx + r * finv
            assert down.fx == r * fx + s * finv
            assert down.finv == q * fx + p * finv


def test_double_step_relation(rationals_ell_10):
    sample = [x for x, d in rationals_ell_10 if d <= 8]
    for u in ALL_MATRICES:
        p, q, r, s = u.entries()
        for x in sample:
            fx, finv = f_pair(u, x)
            up = f_pair(u, 1 + x)
            two = f_pair(u, 2 + x)
            assert two.fx == p * up.fx + q * r * finv + q * s * fx


def test_quantize_displays():
    assert quantize(U_SZERO_POLY, Fraction(7, 5)) == RationalFunction(
        RingPoly(QUANT_7_5[0]), RingPoly(QUANT_7_5[1])
    )
    assert quantize(U_SZERO_POLY, Fraction(19, 31)) == RationalFunction(
        RingPoly(QUANT_19_31[0]), RingPoly(QUANT_19_31[1])
    )


def test_walk_pairs_reduce_to_the_gcd_normal_form_without_a_gcd(monkeypatch):
    # Every grid matrix at every rational of term sum <= 8: quantize, with no
    # gcd of large operands, gives RationalFunction's normal form by poly_gcd.
    xs = [x for x, _ in enumerate_rationals(8)]
    zero_fx = negative_den = 0
    for text in matrix_grid():
        u = UParams.parse(text)
        pairs = [f_pair(u, x) for x in xs]
        with monkeypatch.context() as m:
            forbid_walk_gcd(m)
            values = [quantize(u, x) if pair.finv else None for x, pair in zip(xs, pairs)]
        for x, pair, value in zip(xs, pairs, values):
            if value is not None:
                want = RationalFunction(pair.fx, pair.finv)
                assert (value.num, value.den) == (want.num, want.den), (text, x)
                zero_fx += pair.fx.is_zero()
                negative_den += pair.finv.leading_coefficient < 0
    # f(x) = 0 reduces to 0/1; a negative leading coefficient moves to num.
    assert zero_fx == 468 and negative_den == 13660


def test_a_linear_factor_of_the_determinant_is_stripped_each_time(monkeypatch):
    # Under (p,1;-1,-1) the moves' determinant is 1 - p, and p - 1 divides
    # the pair at 400 exactly 199 times.
    u = UParams.parse("p,1,-1,-1")
    pair = f_pair(u, 400)
    want = RationalFunction(pair.fx, pair.finv)
    forbid_walk_gcd(monkeypatch)
    value = quantize(u, 400)
    assert (value.num, value.den) == (want.num, want.den)
    assert pair.fx.degree() - value.num.degree() == 199
    assert pair.finv.degree() - value.den.degree() == 199


@pytest.mark.parametrize(
    "u, gcd_free",
    [
        (UParams(P, 1, P - 2, -1), True),  # determinant (p - 1)^2
        (UParams(P, 1, P - 2, 1), True),  # p^2 - 2p - 1, irreducible
        (UParams(P * P, 1, P + 1, 1), False),  # p^3 + p^2 - 1: poly_gcd
    ],
    ids=["double-root", "irreducible-quadratic", "cubic"],
)
def test_determinants_outside_the_grid_reduce_to_the_normal_form(monkeypatch, u, gcd_free):
    xs = [x for x, _ in enumerate_rationals(8)]
    pairs = [f_pair(u, x) for x in xs]
    if gcd_free:
        forbid_walk_gcd(monkeypatch)
    values = [quantize(u, x) for x in xs]
    monkeypatch.undo()
    for pair, value in zip(pairs, values):
        want = RationalFunction(pair.fx, pair.finv)
        assert (value.num, value.den) == (want.num, want.den)


def test_only_a_polynomial_pair_needs_its_moves():
    assert f_pair(UParams(1, 1, 0, 1), Fraction(19, 31)).quotient() == Fraction(3, 16)
    with pytest.raises(TypeError, match="moves of its walk"):
        f_pair(UParams(P, 1, 1, 0), Fraction(19, 31)).quotient()


def test_quantize_fixed_points_and_two():
    for u in ALL_MATRICES:
        value = quantize(u, 1)
        assert value == 1 or value == RationalFunction(1, 1)
    assert quantize(UParams(2, 3, 5, 7), 2) == Fraction(5, 12)


def test_numerator_family_quantizes_to_identity(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 8:
            continue
        assert quantize(U_NUM, x) == x


def test_con_family_quantizes_to_involution(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 8:
            continue
        image = quantize(U_CON, x)
        assert image == j_quotient(x)
        assert quantize(U_CON, image) == x


def test_reciprocal_law(rationals_ell_10):
    sample = [x for x, d in rationals_ell_10 if d <= 8]
    for u in (U_SZERO_POLY, U_RZERO_POLY, UParams(2, 3, 1, 1)):
        for x in sample:
            left = quantize(u, 1 / x)
            right = quantize(u, x)
            if isinstance(right, RationalFunction):
                assert left == right.inverse()
            else:
                assert left == 1 / right


def test_specialization_at_one_gives_numerator(rationals_ell_12):
    for x, _ in rationals_ell_12:
        assert f_pair(U_SZERO_POLY, x).fx(1) == x.numerator


def test_degenerate_matrix_rejected():
    with pytest.raises(DegenerateParametersError):
        UParams(1, 1, 2, 2)
    with pytest.raises(DegenerateParametersError):
        UParams.parse("1,1,2,2")
    u = UParams.unchecked(1, 1, 2, 2)
    assert u.delta == 0


def test_parse_matrix():
    u = UParams.parse("p,1,1,0")
    assert u == U_SZERO_POLY and u.symbolic
    assert UParams.parse("2,3,1,1") == UParams(2, 3, 1, 1)
    with pytest.raises(DomainError):
        UParams.parse("1,2,3")
    with pytest.raises(DomainError):
        UParams.parse("1,2,3,x")


def test_codenominator_values():
    assert codenominator(Fraction(4, 9)) == 11
    assert codenominator(6) == 8
    assert codenominator(1) == 1


def test_codenominator_matches_fibonacci_on_integers():
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 26):
        assert codenominator(n) == fib[n - 1]


def test_codenominator_fibonacci_recursion(rationals_ell_12):
    for x, d in rationals_ell_12:
        if d > 10:
            continue
        assert codenominator(2 + x) == codenominator(1 + x) + codenominator(x)


def test_j_quotient_examples():
    assert j_quotient(1) == 1
    assert j_quotient(Fraction(5, 2)) == Fraction(4, 3)
    assert j_quotient(Fraction(1, 5)) == Fraction(5, 8)


def test_j_quotient_involution(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 8:
            continue
        assert j_quotient(j_quotient(x)) == x


def test_shift_by_integer():
    one = RationalFunction(1, 1)
    assert shift_by_integer(U_SZERO_POLY, one, 0) == one
    assert shift_by_integer(U_SZERO_POLY, one, 2) == RationalFunction(RingPoly([1, 1, 1]), 1)
    u = UParams(2, 1, 1, 0)
    assert shift_by_integer(u, Fraction(1), 3) == 15
    assert quantize(u, 4) == 15
    flat = UParams(1, 2, 1, 0)  # P = 1 here, the geometric sum degenerates
    assert shift_by_integer(flat, Fraction(1), 2) == 5
    assert quantize(flat, 3) == 5
    with pytest.raises(DomainError):
        shift_by_integer(U_RZERO_POLY, one, 1)
    with pytest.raises(DomainError):
        shift_by_integer(U_SZERO_POLY, one, -1)


def test_szero_form_examples():
    assert szero_cf_form(U_SZERO_POLY, [1, 2, 2]) == quantize(U_SZERO_POLY, Fraction(7, 5))
    assert szero_cf_form(U_SZERO_POLY, [1]) == RationalFunction(1, 1)
    u = UParams(1, 2, 1, 0)
    assert szero_cf_form(u, [2, 3]) == Fraction(21, 5)
    assert szero_cf_form(u, [2, 3]) == quantize(u, Fraction(7, 3))


def test_szero_form_matches_quantize(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 8:
            continue
        assert szero_cf_form(U_SZERO_POLY, cf_expand(x)) == quantize(U_SZERO_POLY, x)


def test_szero_form_reports_zero_division_depth():
    u = UParams(-1, 1, 1, 0)
    with pytest.raises(EvaluationError) as err:
        szero_cf_form(u, [1, 1, 1])
    assert err.value.depth == 0


def test_golden_closed_form():
    assert abs(golden_closed_form(1, 1) - (1 + 5**0.5) / 2) < 1e-12
    assert golden_closed_form(0, 1) == 1
    assert golden_closed_form(2, 1) == 2
    with pytest.raises(DomainError):
        golden_closed_form(-1, 1)


def test_golden_iteration_converges():
    value, steps = golden_iterate(1, 1, tol=1e-9, max_iter=60)
    assert steps <= 60
    assert abs(value - golden_closed_form(1, 1)) <= 1e-9
    value, steps = golden_iterate(2, 1, tol=1e-9, max_iter=60)
    assert abs(value - 2) <= 1e-9


def test_fibonacci_extension_table_rows():
    assert fibonacci_poly_extend(Fraction(5, 3)) == RingPoly([1, 3])
    assert fibonacci_poly_extend(Fraction(3, 4)) == RingPoly([1, 1])
    assert fibonacci_poly_extend(Fraction(17, 2)) == RingPoly(RZERO_TABLE[Fraction(17, 2)])


def test_fibonacci_extension_integer_recursion():
    values = {1: fibonacci_poly_extend(1), 2: fibonacci_poly_extend(2)}
    assert values[1] == RingPoly([1])
    assert values[2] == RingPoly([1, 1])
    for n in range(3, 13):
        values[n] = fibonacci_poly_extend(n)
        assert values[n] == P * values[n - 1] + values[n - 2]


def test_fibonacci_ratio_family():
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    for n in range(1, 7):
        assert fibonacci_poly_extend(Fraction(fib[n - 1], fib[n])) == RingPoly([1])
        expected = RingPoly([1, n - 1]) if n > 1 else RingPoly([1])
        assert fibonacci_poly_extend(Fraction(fib[n], fib[n - 1])) == expected


def test_descending_form_examples():
    form = rzero_descending_cf(3)
    assert form.p_count == 2
    assert form.value() == quantize(U_RZERO_POLY, 3)
    assert form.value() == RationalFunction(RingPoly([1, 1, 1]), RingPoly([1, 1]))

    big = rzero_descending_cf(Fraction(17, 2))
    assert big.value() == RationalFunction(
        RingPoly(RZERO_TABLE[Fraction(17, 2)]), RingPoly(RZERO_17_2_DEN)
    )

    assert rzero_descending_cf(Fraction(7, 5)).p_count == ell(Fraction(7, 5)) - 1


def test_descending_form_sweep(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 8 or x <= 1:
            continue
        form = rzero_descending_cf(x)
        assert form.value() == quantize(U_RZERO_POLY, x)
        assert form.p_count == d - 1


def test_descending_levels_are_the_runs_of_the_involution_word():
    # Two independent paths: the descending form's p-coefficients of x are
    # the runs of j(x)'s move word, i.e. j(x)'s terms with the last one less
    # one and any leading 0 dropped.
    inputs = [x for x, _ in enumerate_rationals(13) if x > 1]
    assert len(inputs) == 4095
    for x in inputs:
        runs = list(j_rewrite(cf_expand(x)).terms)
        runs[-1] -= 1
        if runs[0] == 0:
            runs.pop(0)
        assert [lvl.coeffs[1] for lvl in rzero_descending_cf(x).levels] == runs


def test_descending_form_rejects_small_values():
    with pytest.raises(DomainError):
        rzero_descending_cf(1)
    with pytest.raises(DomainError):
        rzero_descending_cf(Fraction(2, 3))


def test_variable_allowed_in_any_entry(rationals_ell_10):
    # One formal variable may occupy any subset of the four entries.
    exotic = [UParams.parse("p,1,p,0"), UParams.parse("1,p,1,0")]
    assert quantize(exotic[0], 2) == RationalFunction(RingPoly([1, 1]), P)
    assert f_pair(exotic[1], Fraction(3, 2)).fx == RingPoly([1, 1, 1])
    sample = [x for x, d in rationals_ell_10 if d <= 6]
    for u in exotic:
        p, q, r, s = u.entries()
        for x in sample:
            fx, finv = f_pair(u, x)
            up = f_pair(u, 1 + x)
            down = f_pair(u, x / (1 + x))
            assert up.fx == p * fx + q * finv
            assert down.fx == r * fx + s * finv


def _series_or_pole(expand):
    try:
        return expand()
    except ZeroDivisionError:
        return "pole"


def test_finite_sources_expand_exactly_on_the_one_path(rationals_ell_10):
    # A rational, its expansion, its term tuple and the tuple ending in 1
    # all give the series of their walk, or all meet its pole at 0.
    rng = random.Random(22)
    cases = [UParams.parse(text).moves for text in rng.sample(matrix_grid(), 12)] + [Q_MOVES]
    xs = [x for x, _ in rng.sample(rationals_ell_10, 40)]
    for moves in cases:
        for x in xs:
            expected = _series_or_pole(lambda: series_of_ratfun(walk(moves, x), 8))
            terms = cf_expand(x).terms
            long_form = terms[:-1] + (terms[-1] - 1, 1) if terms[-1] > 1 else terms
            for source in (x, cf_expand(x), terms, long_form):
                assert _series_or_pole(lambda: stabilized_series(source, 8, moves)) == expected


@pytest.mark.parametrize("source", [StreamingCF.golden(), Fraction(7, 5), (1, 2, 2)],
                         ids=["stream", "rational", "terms"])
def test_integer_moves_have_no_series(source):
    for u in INTEGER_MATRICES:
        with pytest.raises(DomainError, match="series extraction needs the formal variable"):
            stabilized_series(source, 5, u.moves)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        stabilized_series(source, -1, Q_MOVES)
