"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every expected value is either a table/display anchor verified against its
defining recursion or an independently derived frozen oracle (see
oracles.py).  Each criterion prints a single pass line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import (
    E_SERIES_40,
    GOLDEN_SERIES_20,
    PI_SERIES_40,
    Q_7_5,
    Q_7_5_SERIES,
    Q_19_31,
    Q_19_31_SERIES,
    Q_GOLDEN_SERIES_21,
    QUANT_7_5,
    QUANT_19_31,
    RZERO_17_2_SERIES,
    RZERO_TABLE,
    SERIES_7_5,
    SERIES_19_31,
    SZERO_TABLE,
)

from cfdeform.analysis import (
    CATALAN,
    GENERALIZED_CATALAN,
    bfs_oracle,
    check_anti_unimodality,
    check_sign_alternation,
    check_unimodality,
    convergent_determinant,
    convergent_polys,
    enumerate_rationals,
    irrational_series,
    match_reference,
    observation_report,
    run_property_sweep,
    stabilization_depth,
)
from cfdeform.contfrac import StreamingCF, cf_expand, j_rewrite, cf_value
from cfdeform.exactnum import RationalFunction, RingPoly, series_of_ratfun
from cfdeform.qdeform import q_deform, q_deform_series
from cfdeform.udeform import (
    U_CON,
    U_NUM,
    U_RZERO_POLY,
    U_SZERO_POLY,
    UParams,
    codenominator,
    f_pair,
    golden_closed_form,
    golden_iterate,
    j_quotient,
    quantize,
    rzero_descending_cf,
    szero_cf_form,
)

INTEGER_MATRICES = [
    U_NUM,
    U_CON,
    UParams(2, 1, 1, 0),
    UParams(1, 2, 1, 0),
    UParams(2, 3, 1, 1),
]
ALL_MATRICES = INTEGER_MATRICES + [U_SZERO_POLY, U_RZERO_POLY]


def _announce(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_polynomial_tables():
    for x, coeffs in SZERO_TABLE.items():
        assert f_pair(U_SZERO_POLY, x).fx == RingPoly(coeffs), f"s=0 table row {x}"
    for x, coeffs in RZERO_TABLE.items():
        assert f_pair(U_RZERO_POLY, x).fx == RingPoly(coeffs), f"r=0 table row {x}"
    _announce(1, "polynomial tables")


def test_criterion_2_rational_function_quantizations():
    assert quantize(U_SZERO_POLY, Fraction(7, 5)) == RationalFunction(
        RingPoly(QUANT_7_5[0]), RingPoly(QUANT_7_5[1])
    )
    assert quantize(U_SZERO_POLY, Fraction(19, 31)) == RationalFunction(
        RingPoly(QUANT_19_31[0]), RingPoly(QUANT_19_31[1])
    )
    _announce(2, "rational-function quantizations")


def test_criterion_3_series_reproductions():
    assert list(series_of_ratfun(quantize(U_SZERO_POLY, Fraction(7, 5)), 14)) == SERIES_7_5
    assert list(series_of_ratfun(quantize(U_SZERO_POLY, Fraction(19, 31)), 14)) == SERIES_19_31

    golden = irrational_series(StreamingCF.golden(), U_SZERO_POLY, 19)
    assert list(golden) == GOLDEN_SERIES_20
    assert match_reference(golden, CATALAN, signed=True, head=(1,), offset=1).holds

    assert list(irrational_series(StreamingCF.e_pattern(), U_SZERO_POLY, 39)) == E_SERIES_40
    assert list(irrational_series(StreamingCF.pi_embedded(), U_SZERO_POLY, 39)) == PI_SERIES_40

    assert list(series_of_ratfun(quantize(U_RZERO_POLY, Fraction(17, 2)), 8)) == RZERO_17_2_SERIES

    assert q_deform(Fraction(7, 5)) == RationalFunction(RingPoly(Q_7_5[0]), RingPoly(Q_7_5[1]))
    assert list(q_deform_series(Fraction(7, 5), 12)) == Q_7_5_SERIES
    assert q_deform(Fraction(19, 31)) == RationalFunction(
        RingPoly(Q_19_31[0]), RingPoly(Q_19_31[1])
    )
    assert list(q_deform_series(Fraction(19, 31), 14)) == Q_19_31_SERIES

    qgolden = q_deform_series(StreamingCF.golden(), 20)
    assert list(qgolden) == Q_GOLDEN_SERIES_21
    assert match_reference(
        qgolden, GENERALIZED_CATALAN, signed=True, head=(1, 0), offset=1
    ).holds
    _announce(3, "series reproductions")


@pytest.fixture(scope="module")
def swept_rationals():
    return enumerate_rationals(10)


def test_criterion_4_theorem_suites(swept_rationals):
    assert len(swept_rationals) == 1023

    # Defining equations, the double-step relation, and the independence of
    # the breadth-first oracle, for five integer matrices and both families.
    for u in ALL_MATRICES:
        report = run_property_sweep("defining-equations", u, 10)
        assert report.holds, (str(u), report.counterexample)
        oracle = run_property_sweep("oracle-equivalence", u, 12)
        assert oracle.holds and oracle.tested == 4095, (str(u), oracle.counterexample)

    # Reciprocal law, exact.
    for u in (U_SZERO_POLY, U_RZERO_POLY, UParams(2, 3, 1, 1)):
        for x, _ in swept_rationals:
            left = quantize(u, 1 / x)
            right = quantize(u, x)
            assert left == (right.inverse() if isinstance(right, RationalFunction) else 1 / right)

    # Specializing the formal variable to 1 recovers the numerator.
    for x, _ in swept_rationals:
        assert f_pair(U_SZERO_POLY, x).fx(1) == x.numerator

    # Integral Taylor coefficients to order 20 under both families.
    for u in (U_SZERO_POLY, U_RZERO_POLY):
        report = run_property_sweep("integrality", u, 10, order=20)
        assert report.holds, report.counterexample

    # Involution, both as a quotient and as the term rewriting.
    report = run_property_sweep("involution", U_CON, 10)
    assert report.holds, report.counterexample
    assert j_quotient(j_quotient(Fraction(19, 31))) == Fraction(19, 31)

    # The codenominator extends the Fibonacci sequence.
    assert codenominator(Fraction(4, 9)) == 11
    for x, _ in swept_rationals:
        assert codenominator(2 + x) == codenominator(1 + x) + codenominator(x)

    # Nested-fraction form of the s = 0 family agrees with the quotient.
    for x, _ in swept_rationals:
        assert szero_cf_form(U_SZERO_POLY, cf_expand(x)) == quantize(U_SZERO_POLY, x)

    # Descending form of the r = 0 family: same value, and the count of
    # variable occurrences is the term sum minus one.
    for x, depth in swept_rationals:
        if x <= 1:
            continue
        form = rzero_descending_cf(x)
        assert form.value() == quantize(U_RZERO_POLY, x)
        assert form.p_count == depth - 1

    # Determinant identity of the deformed convergents.
    for x, depth in swept_rationals:
        terms = cf_expand(x).terms
        if len(terms) < 2:
            continue
        pairs = convergent_polys(terms)
        for k in range(1, len(pairs)):
            expected = RingPoly.monomial(sum(terms[:k]), 1 if k % 2 == 1 else -1)
            assert convergent_determinant(pairs, k) == expected

    # Stabilization: consecutive deformed convergents agree at least through
    # the term sum of the shorter prefix (x >= 1).
    for x, depth in swept_rationals:
        terms = cf_expand(x).terms
        if terms[0] == 0 or len(terms) < 2:
            continue
        for k in range(1, len(terms)):
            depth_k = stabilization_depth(terms[:k], terms[: k + 1], depth + 2)
            assert depth_k >= sum(terms[:k]), (x, k)

    _announce(4, "theorem suites")


def test_criterion_5_numeric_closed_form():
    value, steps = golden_iterate(1, 1, tol=1e-9, max_iter=60)
    assert steps <= 60
    assert abs(value - golden_closed_form(1, 1)) <= 1e-9
    assert abs(golden_closed_form(1, 1) - (1 + 5**0.5) / 2) < 1e-12

    value, steps = golden_iterate(2, 1, tol=1e-9, max_iter=60)
    assert steps <= 60
    assert abs(value - 2.0) <= 1e-9
    _announce(5, "numeric closed form")


def test_criterion_6_observation_ledger(tmp_path):
    report = observation_report(max_ell=12, order=20)
    path = tmp_path / "observations.json"
    path.write_text(json.dumps(report, indent=2))
    parsed = json.loads(path.read_text())
    assert set(parsed) == {
        "unimodality",
        "anti_unimodality",
        "sign_alternation",
        "e_series_parity",
    }

    # Any recorded counterexample must re-verify when re-run in isolation.
    uni = parsed["unimodality"]
    if not uni["holds"]:
        x = Fraction(uni["counterexample"]["x"])
        again = check_unimodality(f_pair(U_SZERO_POLY, x).fx)
        assert not again.holds
        assert again.counterexample["index"] == uni["counterexample"]["index"]

    anti = parsed["anti_unimodality"]
    if not anti["holds"]:
        x = Fraction(anti["counterexample"]["x"])
        again = check_anti_unimodality(f_pair(U_RZERO_POLY, x).fx)
        assert not again.holds
        assert again.counterexample["index"] == anti["counterexample"]["index"]

    alt = parsed["sign_alternation"]
    if not alt["holds"]:
        x = Fraction(alt["counterexample"]["x"])
        fp = f_pair(U_SZERO_POLY, x)
        again = check_sign_alternation(series_of_ratfun((fp.fx, fp.finv), 20))
        assert not again.holds
        assert again.counterexample["index"] == alt["counterexample"]["index"]

    par = parsed["e_series_parity"]
    if not par["holds"]:
        idx = par["counterexample"]["index"]
        c = E_SERIES_40
        assert not abs(c[idx]) < max(abs(c[idx - 1]), abs(c[idx + 1]))

    print(json.dumps(parsed))
    _announce(6, "observation ledger")


def _cli(*args, env_extra=None):
    import os

    # The child imports this checkout's package, installed or not.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cfdeform", *args], capture_output=True, env=env
    )


def test_criterion_7_cli_contract():
    commands = [
        ("eval", "--u", "p,1,1,0", "--x", "29/13"),
        ("series", "--u", "p,1,1,0", "--const", "e", "--order", "39"),
        ("qseries", "--x", "19/31", "--order", "14"),
        ("compare", "--x", "7/5", "--order", "14"),
        ("check", "--property", "involution", "--max-ell", "8"),
        ("cf", "--j", "5/2"),
    ]
    for args in commands:
        first = _cli(*args, "--format", "json")
        second = _cli(*args, "--format", "json")
        assert first.returncode == 0, first.stderr.decode()
        assert first.stdout == second.stdout, args
        doc = json.loads(first.stdout)
        assert set(doc) == {"command", "input", "result", "version"}
        assert doc["command"] == args[0]

    # Documented error exits: malformed input, degenerate matrix,
    # stabilization failure.
    assert _cli("eval", "--u", "p,1,1,0", "--x", "zebra").returncode == 1
    assert _cli("check", "--property", "no-such-thing").returncode == 1
    assert _cli("eval", "--u", "1,1,2,2", "--x", "3").returncode == 2
    failing = _cli(
        "series", "--u", "p,1,0,1", "--const", "golden", "--heuristic", "--order", "5"
    )
    assert failing.returncode == 3
    _announce(7, "CLI contract")
