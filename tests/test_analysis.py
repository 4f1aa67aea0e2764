import concurrent.futures
import itertools
import json
import multiprocessing
import os
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (
    E_CF_PREFIX_15,
    E_SERIES_40,
    GOLDEN_SERIES_20,
    PI_SERIES_40,
    Q_GOLDEN_SERIES_21,
    bfs_sweep,
    classical_convergents,
    enumerate_by_moves,
    matrix_grid,
)

from cfdeform import analysis, udeform
from cfdeform.analysis import (
    CATALAN,
    FIBONACCI,
    GENERALIZED_CATALAN,
    PROPERTIES,
    bfs_oracle,
    check_anti_unimodality,
    check_sign_alternation,
    check_unimodality,
    convergent_determinant,
    convergent_polys,
    e_series_parity_report,
    enumerate_rationals,
    irrational_series,
    match_reference,
    observation_report,
    run_property_sweep,
    stabilization_depth,
)
from cfdeform.contfrac import StreamingCF, cf_expand, ell
from cfdeform.errors import DomainError, StabilizationError, TermsExhaustedError
from cfdeform.exactnum import RingPoly, TruncatedSeries, series_of_ratfun
from cfdeform.qdeform import q_deform_series
from cfdeform.udeform import (
    U_CON,
    U_NUM,
    U_RZERO_POLY,
    U_SZERO_POLY,
    FPair,
    UParams,
    f_pair,
    quantize,
)


def test_enumeration_counts_and_uniqueness():
    for bound in (1, 4, 8):
        items = enumerate_rationals(bound)
        assert len(items) == 2**bound - 1
        assert len({x for x, _ in items}) == len(items)
        for x, depth in items:
            assert sum(cf_expand(x).terms) == depth


def test_walk_reaches_each_rational_once_at_its_term_sum():
    # The table-size guarantee of the sweeps: every input of term sum at
    # most ell, once, at the depth of its term sum, in breadth-first order.
    for bound in range(1, 15):
        items = enumerate_rationals(bound)
        assert items == enumerate_by_moves(bound)
        assert len({x for x, _ in items}) == len(items) == 2**bound - 1
        assert list(bfs_oracle(U_CON, bound)) == [x for x, _ in items]
    assert all(ell(x) == depth for x, depth in items)


def test_bfs_oracle_level_two():
    u = UParams(2, 3, 5, 7)
    table = bfs_oracle(u, 2)
    assert table[Fraction(1)] == (1, 1)
    assert table[Fraction(2)] == (5, 12)
    assert table[Fraction(1, 2)] == (12, 5)


def test_bfs_oracle_numerator_family():
    table = bfs_oracle(U_NUM, 8)
    assert len(table) == 2**8 - 1
    for x, pair in table.items():
        assert pair.fx == x.numerator
        assert pair.finv == x.denominator


def test_bfs_oracle_matches_recursion_symbolic():
    table = bfs_oracle(U_SZERO_POLY, 9)
    for x, pair in table.items():
        assert f_pair(U_SZERO_POLY, x) == pair


def test_convergent_polys_basics():
    pairs = convergent_polys([1, 1])
    assert pairs[1].fx == RingPoly([1, 1])
    assert pairs[1].finv == RingPoly([1])

    pairs = convergent_polys([2, 2])
    value = quantize(U_SZERO_POLY, Fraction(5, 2))
    assert pairs[-1].fx * value.den == pairs[-1].finv * value.num

    pairs = convergent_polys([1, 2, 2])
    det = convergent_determinant(pairs, 2)
    assert det == -(RingPoly.monomial(3))


def test_determinant_identity_on_streams():
    for source in (StreamingCF.golden(), StreamingCF.e_pattern(), StreamingCF.pi_embedded()):
        terms = []
        it = source.terms()
        while sum(terms) < 15:
            terms.append(next(it))
        pairs = convergent_polys(terms)
        for k in range(1, len(pairs)):
            expected = RingPoly.monomial(sum(terms[:k]), 1 if k % 2 == 1 else -1)
            assert convergent_determinant(pairs, k) == expected


def test_determinant_identity_over_rationals(rationals_ell_10):
    for x, d in rationals_ell_10:
        terms = cf_expand(x).terms
        if len(terms) < 2 or d > 8:
            continue
        pairs = convergent_polys(terms)
        for k in range(1, len(pairs)):
            expected = RingPoly.monomial(sum(terms[:k]), 1 if k % 2 == 1 else -1)
            assert convergent_determinant(pairs, k) == expected


def test_convergent_recursion_matches_solution_pairs():
    # Two structurally different computations of the same pairs: the product
    # of the walk's level matrices and the classical two-term recursion.
    for terms in ([2, 1, 2, 1, 1, 4], [0, 3, 1, 4], [1], [5, 64, 1, 2]):
        assert convergent_polys(terms) == classical_convergents(terms), terms
    assert convergent_polys([0, 2])[0] == (RingPoly(), RingPoly([1]))


def test_golden_series_to_order_ten():
    series = irrational_series(StreamingCF.golden(), U_SZERO_POLY, 10)
    assert list(series) == GOLDEN_SERIES_20[:11]


def test_e_series_low_orders():
    series = irrational_series(StreamingCF.e_pattern(), U_SZERO_POLY, 12)
    assert list(series) == E_SERIES_40[:13]


def test_pi_series_low_orders():
    series = irrational_series(StreamingCF.pi_embedded(), U_SZERO_POLY, 13)
    assert list(series) == PI_SERIES_40[:14]


def test_reciprocal_golden_series_inverts():
    series = irrational_series(StreamingCF.periodic([0], [1]), U_SZERO_POLY, 12)
    golden = irrational_series(StreamingCF.golden(), U_SZERO_POLY, 12)
    product = [sum(series[i] * golden[n - i] for i in range(n + 1)) for n in range(13)]
    assert product == [1] + [0] * 12


def test_unstabilized_convergent_tail_differs_from_limit():
    # Expanding one convergent past its guaranteed prefix yields coefficients
    # that later convergents overturn: only the first 10 survive here.
    pair = convergent_polys([1] * 10)[-1]
    s = series_of_ratfun(pair, 19)
    assert list(s)[:10] == GOLDEN_SERIES_20[:10]
    assert list(s)[10] != GOLDEN_SERIES_20[10]


def test_rzero_golden_does_not_stabilize():
    with pytest.raises(StabilizationError) as err:
        irrational_series(StreamingCF.golden(), U_RZERO_POLY, 5)
    assert err.value.series_a is not None
    assert err.value.series_b is not None
    assert err.value.series_a != err.value.series_b


def test_stabilization_error_names_first_differing_index():
    with pytest.raises(StabilizationError) as err:
        irrational_series(StreamingCF.golden(), U_RZERO_POLY, 5)
    a, b = err.value.series_a, err.value.series_b
    index = next(i for i in range(len(a)) if a[i] != b[i])
    assert index == 1
    message = str(err.value)
    assert f"at index {index} of order 5" in message
    assert "periodic([],[1])" in message
    assert "prefix sums 7 and 8, 8 terms pulled" in message
    assert not message.startswith("internal error")


def _disagreeing_pairs(terms):
    # Prefixes of odd and even length expand to 1 and 1 - t + t^2 - ...
    one = RingPoly((1,))
    return (one, one) if len(terms) % 2 else (one, RingPoly((1, 1)))


@pytest.mark.parametrize(
    "call, proved",
    [
        (lambda: q_deform_series(StreamingCF.golden(), 5), True),
        (lambda: irrational_series(StreamingCF.golden(), U_SZERO_POLY, 5), True),
        (lambda: irrational_series(StreamingCF.periodic([0], [1]), U_SZERO_POLY, 5), True),
        (lambda: irrational_series(StreamingCF.golden(), U_RZERO_POLY, 5), False),
        (lambda: irrational_series(StreamingCF.golden(), UParams.parse("1,0,p,1"), 5), True),
        (lambda: irrational_series(StreamingCF.golden(), UParams.parse("p,p,1,0"), 5), False),
    ],
    ids=["q", "szero", "szero-below-one", "rzero", "1,0,p,1", "p,p,1,0"],
)
def test_disagreement_is_internal_error_only_where_proved(monkeypatch, call, proved):
    monkeypatch.setattr(udeform, "walk", lambda moves, terms: _disagreeing_pairs(terms))
    with pytest.raises(StabilizationError) as err:
        call()
    assert str(err.value).startswith("internal error: ") == proved
    assert "at index 1 of order 5" in str(err.value)


def test_proved_grid_series_equal_a_long_convergent():
    for text in matrix_grid():
        u = UParams.parse(text)
        if not udeform.stabilization_proved(u.moves):
            continue
        for source in (StreamingCF.golden(), StreamingCF.e_pattern(),
                       StreamingCF.periodic([0], [1])):
            expected = series_of_ratfun(f_pair(u, source.take(60)), 12)
            assert irrational_series(source, u, 12) == expected, (text, source.name)


def _invalid_source(preperiod, period):
    # Raises after 1,000 pulls, so a loop that never checks its terms fails fast.
    def gen():
        yield from itertools.islice(StreamingCF.periodic(preperiod, period).terms(), 1000)
        raise RuntimeError("1,000 terms pulled from an invalid source")

    return StreamingCF("invalid", gen)


@pytest.mark.parametrize(
    "preperiod, period, pulled", [((), (0,), "[0, 0]"), ((3,), (-1,), "[3, -1]")]
)
@pytest.mark.parametrize(
    "series",
    [lambda s: irrational_series(s, U_SZERO_POLY, 5), lambda s: q_deform_series(s, 5)],
    ids=["u", "q"],
)
def test_invalid_source_is_refused_at_the_first_bad_term(series, preperiod, period, pulled):
    with pytest.raises(DomainError) as err:
        series(_invalid_source(preperiod, period))
    assert str(err.value) == f"invalid continued fraction terms {pulled}"


def test_series_source_exhaustion():
    with pytest.raises(TermsExhaustedError):
        irrational_series(StreamingCF.literal([3, 7]), U_SZERO_POLY, 39)


def test_series_rejects_other_matrices():
    with pytest.raises(DomainError):
        irrational_series(StreamingCF.golden(), U_NUM, 5)


def test_stabilization_depth_examples():
    assert stabilization_depth([1, 1], [1, 1, 1], 10) >= 2
    assert stabilization_depth([2], [2, 1], 10) >= 2
    assert stabilization_depth([2, 2], [2, 2], 7) == 8
    # The shorter prefix [1] has term sum 1 and the expansions differ at
    # index 1 already, which pins the guaranteed prefix at the shorter sum.
    assert stabilization_depth([1], [1, 2], 6) == 1
    with pytest.raises(DomainError):
        stabilization_depth([1, 2], [2, 2, 1], 5)


def test_stabilization_bound_sweep(rationals_ell_10):
    for x, d in rationals_ell_10:
        if d > 7:
            continue
        terms = cf_expand(x).terms
        if terms[0] == 0 or len(terms) < 2:
            continue
        expand_to = d + 2
        for k in range(1, len(terms)):
            depth = stabilization_depth(terms[:k], terms[: k + 1], expand_to)
            assert depth >= sum(terms[:k])


def test_unimodality_checker():
    assert check_unimodality(RingPoly([1, 4, 5, 3, 3, 1])).holds
    assert check_unimodality(RingPoly([1])).holds
    report = check_unimodality(RingPoly([2, 1, 2]))
    assert not report.holds
    assert report.counterexample == {"index": 1}
    with pytest.raises(DomainError):
        check_unimodality(RingPoly([1, -2, 1]))
    with pytest.raises(DomainError):
        check_unimodality(RingPoly())


def test_anti_unimodality_checker():
    assert check_anti_unimodality(RingPoly([1])).holds
    report = check_anti_unimodality(RingPoly([1, 2]))
    assert not report.holds and report.counterexample == {"index": 0}
    assert check_anti_unimodality(RingPoly([3, 1, 2])).holds
    # The 17/2 row of the rational-index table breaks the stated zigzag at
    # the constant term; recorded as a finding about the observation.
    report = check_anti_unimodality(RingPoly([1, 4, 14, 10, 25, 6, 13, 1, 2]))
    assert not report.holds and report.counterexample == {"index": 0}


def test_sign_alternation_checker():
    s_19_31 = series_of_ratfun(quantize(U_SZERO_POLY, Fraction(19, 31)), 14)
    report = check_sign_alternation(s_19_31)
    assert report.holds and "zero_indices" not in report.details

    s_7_5 = series_of_ratfun(quantize(U_SZERO_POLY, Fraction(7, 5)), 14)
    report = check_sign_alternation(s_7_5)
    assert not report.holds
    assert report.counterexample == {"index": 1}
    assert report.details["zero_indices"] == [3, 7, 11]

    geometric = TruncatedSeries([1, 1, 1, 1])
    report = check_sign_alternation(geometric)
    assert not report.holds and report.counterexample == {"index": 1}


def test_match_reference_patterns():
    golden = irrational_series(StreamingCF.golden(), U_SZERO_POLY, 19)
    assert match_reference(golden, CATALAN, signed=True, head=(1,), offset=1).holds

    qgolden = TruncatedSeries(Q_GOLDEN_SERIES_21)
    assert match_reference(
        qgolden, GENERALIZED_CATALAN, signed=True, head=(1, 0), offset=1
    ).holds

    e_series = TruncatedSeries(E_SERIES_40[:20])
    report = match_reference(e_series, CATALAN, signed=True, head=(1,), offset=1)
    assert not report.holds


def test_reference_sequences_are_the_published_segments():
    from math import comb

    assert len(CATALAN.terms) == 25
    for n, value in enumerate(CATALAN.terms):
        assert value == comb(2 * n, n) // (n + 1)

    assert len(FIBONACCI.terms) == 25
    for i in range(2, 25):
        assert FIBONACCI.terms[i] == FIBONACCI.terms[i - 1] + FIBONACCI.terms[i - 2]

    # Independent derivation from the generating function
    # (1 - x + x^2 - sqrt(1 - 2x - x^2 - 2x^3 + x^4)) / (2 x^2).
    order = 30
    inner = [Fraction(c) for c in (1, -2, -1, -2, 1)]
    root = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = inner[n] if n < len(inner) else Fraction(0)
        for j in range(1, n):
            acc -= root[j] * root[n - j]
        root[n] = acc / 2
    numerator = [1 - root[0], -1 - root[1], 1 - root[2]] + [-root[i] for i in range(3, order + 1)]
    derived = [numerator[i + 2] / 2 for i in range(25)]
    assert list(GENERALIZED_CATALAN.terms) == [int(v) for v in derived]


def test_e_parity_report_records_finding():
    report = e_series_parity_report()
    assert report.tested == 11
    assert not report.holds
    assert report.counterexample == {"index": 17}
    # Re-verify in isolation against the frozen series.
    c = E_SERIES_40
    assert not abs(c[17]) < max(abs(c[16]), abs(c[18]))


def test_property_report_serializes():
    report = run_property_sweep("integrality", U_SZERO_POLY, 5, order=10)
    data = report.as_dict()
    assert set(data) >= {"property", "holds", "counterexample", "tested"}
    json.dumps(data)
    assert report.holds and report.tested == 2**5 - 1


def test_parallel_sweep_matches_serial():
    serial = run_property_sweep("integrality", U_SZERO_POLY, 6, order=10, jobs=1)
    parallel = run_property_sweep("integrality", U_SZERO_POLY, 6, order=10, jobs=2)
    assert serial.as_dict() == parallel.as_dict()
    s2 = run_property_sweep("anti-unimodality", U_RZERO_POLY, 6, jobs=1)
    p2 = run_property_sweep("anti-unimodality", U_RZERO_POLY, 6, jobs=2)
    assert s2.as_dict() == p2.as_dict()


def test_involution_row_reads_the_walks_pair(monkeypatch):
    # One f_pair per input, for the image's own pair; x's pair is the walk's.
    calls = []
    real = udeform.f_pair
    monkeypatch.setattr(udeform, "f_pair", lambda u, x: calls.append(x) or real(u, x))
    monkeypatch.setattr("cfdeform.analysis.f_pair", udeform.f_pair)
    report = run_property_sweep("involution", U_CON, 8)
    assert report.holds and report.tested == len(calls) == 2**8 - 1


def test_involution_row_rewrites_every_input_and_its_image(monkeypatch):
    # No length guard: integers and single-term images are rewritten too.
    calls = []
    real = analysis.j_rewrite
    monkeypatch.setattr(analysis, "j_rewrite", lambda cf: calls.append(cf) or real(cf))
    report = run_property_sweep("involution", U_CON, 8)
    assert report.holds and len(calls) == 2 * (2**8 - 1)


@pytest.mark.parametrize("name", ["defining-equations", "integrality"])
def test_parallel_sweep_keeps_non_variable_polynomial_entries(monkeypatch, name):
    # p + 1 is symbolic but not the bare variable; workers must sweep it as
    # given, not as the integer matrix (1,1;1,0).
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    u = UParams(RingPoly([1, 1]), 1, 1, 0)
    serial = run_property_sweep(name, u, 6, order=10, jobs=1)
    parallel = run_property_sweep(name, u, 6, order=10, jobs=2)
    assert parallel.as_dict() == serial.as_dict()
    assert serial.details["u"] == str(u)


class _InlineExecutor:
    """Stand-in for ProcessPoolExecutor: records its worker count, pickles
    each chunk's arguments as a process boundary would, and runs the chunk
    in this process only when its result is asked for."""

    instances: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.futures = []
        _InlineExecutor.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = _LazyFuture(fn, pickle.loads(pickle.dumps(args)))
        self.futures.append(future)
        return future


class _LazyFuture:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.ran = self.cancelled = False

    def result(self):
        self.ran = True
        return self.fn(*self.args)

    def cancel(self):
        self.cancelled = not self.ran
        return self.cancelled


@pytest.fixture
def inline_pool(monkeypatch):
    _InlineExecutor.instances = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    return _InlineExecutor.instances


def test_parallel_sweep_clamps_worker_count(monkeypatch, inline_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    report = run_property_sweep("defining-equations", U_SZERO_POLY, 6, jobs=1000)
    assert inline_pool[-1].max_workers == 3
    assert {f.args[1] for f in inline_pool[-1].futures} == {U_SZERO_POLY}
    assert report.holds and report.tested == 2**6 - 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_property_sweep("defining-equations", U_SZERO_POLY, 2, jobs=64)
    assert inline_pool[-1].max_workers == 3  # three rationals: 1 here, 2 and 1/2 as subtrees
    assert len(inline_pool[-1].futures) == 2
    run_property_sweep("defining-equations", U_SZERO_POLY, 1, jobs=64)
    assert len(inline_pool) == 2  # one rational runs in this process


def _stub_f_pair(monkeypatch, bad, raises):
    """f_pair, wrong or raising at the inputs in ``bad``."""

    def stub(u, x):
        if x not in bad:
            return f_pair(u, x)
        if raises:
            raise ZeroDivisionError("stub pole")
        return FPair(0, 0)

    monkeypatch.setattr("cfdeform.analysis.f_pair", stub)


def _outcome(name, u, max_ell, **kwargs):
    try:
        return run_property_sweep(name, u, max_ell, **kwargs).as_dict()
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("raises", [False, True], ids=["wrong", "raises"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "bad, first",
    [
        # 6 (depth 6) is reached before 1/2 (depth 2); 1/2 is above the subtrees.
        ((Fraction(6), Fraction(1, 2)), Fraction(1, 2)),
        # 6 is in the first subtree at depth 4, 1/5 (depth 5) in the last.
        ((Fraction(6), Fraction(1, 5)), Fraction(1, 5)),
        # 15/4 (depth 7) is in the second subtree, queued before 6 failed.
        ((Fraction(6), Fraction(15, 4)), Fraction(6)),
    ],
    ids=["above", "across", "below"],
)
def test_the_first_failure_in_breadth_first_order_wins(
    monkeypatch, inline_pool, bad, first, jobs, raises
):
    _stub_f_pair(monkeypatch, set(bad), raises)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    position = [x for x, _ in enumerate_rationals(7)].index(first) + 1
    if raises:
        expected = f"oracle-equivalence at x = {first}: stub pole"
    else:
        expected = {
            "property": "oracle-equivalence",
            "holds": False,
            "counterexample": {"x": str(first)},
            "tested": position,
        }
    assert _outcome("oracle-equivalence", U_SZERO_POLY, 7, jobs=jobs) == expected
    assert position == {Fraction(1, 2): 3, Fraction(1, 5): 31, Fraction(6): 32}[first]
    if jobs > 1 and first == Fraction(1, 5):
        # Eight subtrees at depth 4, four queued at a time: those queued after
        # the failure at depth 6 stop above it.
        assert [f.args[3] for f in inline_pool[-1].futures] == [7] * 4 + [5] * 4


def test_defining_equations_computes_each_value_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "cfdeform.analysis.f_pair", lambda u, x: calls.append(x) or f_pair(u, x)
    )
    report = run_property_sweep("defining-equations", U_SZERO_POLY, 8)
    assert report.holds and report.tested == 2**8 - 1
    assert len(calls) == len(set(calls)) == 5 * 2**7 - 1 == 639


def test_sweep_memory_does_not_grow_with_the_tree():
    # The level cache is filled first, so the peaks are the walks' own.
    run_property_sweep("oracle-equivalence", U_CON, 14)
    tracemalloc.start()
    try:
        run_property_sweep("oracle-equivalence", U_CON, 10)
        small = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_property_sweep("oracle-equivalence", U_CON, 14)
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large <= 2 * small


def _third_root_fails(monkeypatch, raises):
    # Four workers: sixteen subtrees rooted at depth 5, eight queued at a
    # time.  The third root fails, so the seven queued after it cannot hold
    # an earlier input.
    root = enumerate_rationals(5)[2**4 - 1 + 2][0]
    _stub_f_pair(monkeypatch, {root}, raises)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return root, _outcome("oracle-equivalence", U_SZERO_POLY, 8, jobs=4)


def _assert_cancelled_after_third(pool):
    assert [f.ran for f in pool.futures] == [True] * 3 + [False] * 7
    assert all(f.cancelled for f in pool.futures[3:])


def test_parallel_sweep_cancels_queued_chunks(monkeypatch, inline_pool):
    root, outcome = _third_root_fails(monkeypatch, raises=False)
    assert outcome["counterexample"] == {"x": str(root)}
    assert outcome["tested"] == 2**4 - 1 + 3
    _assert_cancelled_after_third(inline_pool[-1])


def test_parallel_sweep_error_names_the_input_and_cancels_queued_chunks(
    monkeypatch, inline_pool
):
    # Under (p,p;1,0), x = 1/2 has the pair (1, 2p): a pole above the
    # subtrees, so the pool never starts.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(DomainError, match=r"^integrality at x = 1/2: no Taylor expansion"):
        run_property_sweep("integrality", UParams.parse("p,p,1,0"), 8, jobs=4)
    assert not inline_pool
    root, outcome = _third_root_fails(monkeypatch, raises=True)
    assert outcome == f"oracle-equivalence at x = {root}: stub pole"
    _assert_cancelled_after_third(inline_pool[-1])


def _oracle_cases():
    grid = matrix_grid()
    for name, row in PROPERTIES.items():
        yield pytest.param(name, row.u, id=name)
        if row.matrix == "any":
            for text in (grid[0], grid[len(grid) // 2]):
                yield pytest.param(name, UParams.parse(text), id=f"{name}-{text}")


@pytest.mark.parametrize("name, u", _oracle_cases())
def test_chunked_sweep_matches_serial(monkeypatch, inline_pool, name, u):
    # Serial and subtree runs both equal the breadth-first loop over bfs_oracle.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for max_ell in range(1, 9):
        expected = bfs_sweep(name, u, max_ell, order=10)
        assert run_property_sweep(name, u, max_ell, order=10).as_dict() == expected
        pools = len(inline_pool)
        assert run_property_sweep(name, u, max_ell, order=10, jobs=2).as_dict() == expected
    # At ell 8 the pool walks the subtrees rooted at depth 4, unless a failure above stops it.
    assert len(inline_pool) - pools == (expected["tested"] > 2**3 - 1)
    if len(inline_pool) > pools:
        assert len(inline_pool[-1].futures) > 1


def test_oracle_equivalence_reports_the_first_wrong_pair(monkeypatch, inline_pool):
    bad = Fraction(5, 7)  # term sum 5: [0, 1, 2, 2]
    real = f_pair
    monkeypatch.setattr(
        "cfdeform.analysis.f_pair", lambda u, x: FPair(0, 0) if x == bad else real(u, x)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_property_sweep("oracle-equivalence", U_SZERO_POLY, 7)
    chunked = run_property_sweep("oracle-equivalence", U_SZERO_POLY, 7, jobs=2)
    assert len(inline_pool[-1].futures) > 1
    position = [x for x, _ in enumerate_rationals(7)].index(bad) + 1
    assert 2**4 <= position < 2**5
    expected = {
        "property": "oracle-equivalence",
        "holds": False,
        "counterexample": {"x": "5/7"},
        "tested": position,
    }
    assert serial.as_dict() == chunked.as_dict() == expected


def test_deep_sweeps_root_their_subtrees_deeper(monkeypatch, inline_pool):
    # At ell 18 the roots sit at depth 18 - 12 = 6, so no subtree holds more
    # than 2**13 - 1 inputs and a failure at depth 4 stops before the pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    u = UParams.parse("2,-1,1,3")
    _stub_f_pair(monkeypatch, {Fraction(4)}, False)
    assert _outcome("oracle-equivalence", u, 18, jobs=2)["counterexample"] == {"x": "4"}
    assert not inline_pool
    first_root = enumerate_rationals(6)[2**5 - 1][0]
    _stub_f_pair(monkeypatch, {first_root}, False)
    assert _outcome("oracle-equivalence", u, 18, jobs=2)["tested"] == 2**5
    assert {f.args[4] for f in inline_pool[-1].futures} == {6}


def test_parallel_sweep_matches_serial_in_spawned_workers(monkeypatch):
    # Fresh interpreters rebuild the matrix, its entry types and its moves.
    spawn = multiprocessing.get_context("spawn")
    real = concurrent.futures.ProcessPoolExecutor
    pools = []

    def spawned_pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers, mp_context=spawn)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawned_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cases = [
        ("integrality", UParams.parse("p,1,1,0")),
        ("oracle-equivalence", UParams.parse("2,3,1,1")),
        ("oracle-equivalence", UParams(RingPoly([1, 1]), 1, 1, 0)),
    ]
    for name, u in cases:
        serial = run_property_sweep(name, u, 8).as_dict()
        assert run_property_sweep(name, u, 8, jobs=2).as_dict() == serial, (name, u)
    assert pools == [2, 2, 2]


@pytest.mark.parametrize("jobs", [0, -4])
def test_sweep_needs_positive_jobs(jobs):
    with pytest.raises(DomainError, match="jobs must be at least 1"):
        run_property_sweep("involution", U_CON, 3, jobs=jobs)


@pytest.mark.parametrize("name", ["oracle-equivalence", "defining-equations", "involution"])
def test_sweep_needs_positive_max_ell(name):
    for max_ell in (0, -1):
        with pytest.raises(DomainError):
            run_property_sweep(name, U_CON, max_ell)


def test_symbolic_sweeps_reject_integer_matrix():
    for name in ("integrality", "unimodality", "anti-unimodality", "alternation"):
        with pytest.raises(DomainError, match="symbolic"):
            run_property_sweep(name, UParams(2, 3, 1, 1), 4)


def test_observation_report_structure():
    report = observation_report(max_ell=6, order=10)
    assert set(report) == {
        "unimodality",
        "anti_unimodality",
        "sign_alternation",
        "e_series_parity",
    }
    json.dumps(report)
    anti = report["anti_unimodality"]
    assert not anti["holds"]
    x = Fraction(anti["counterexample"]["x"])
    recheck = check_anti_unimodality(f_pair(U_RZERO_POLY, x).fx)
    assert not recheck.holds
    assert recheck.counterexample["index"] == anti["counterexample"]["index"]


def test_e_prefix_constant_matches_pattern():
    assert StreamingCF.e_pattern().take(15) == E_CF_PREFIX_15


def test_integrality_sweep_order_20(rationals_ell_12):
    for u in (U_SZERO_POLY, U_RZERO_POLY):
        for x, _ in rationals_ell_12:
            fp = f_pair(u, x)
            ok, index = series_of_ratfun((fp.fx, fp.finv), 20).is_integral()
            assert ok, (str(u), x, index)
