import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    E_SERIES_40,
    PI_SERIES_40,
    Q_7_5_SERIES,
    Q_GOLDEN_SERIES_21,
    RZERO_17_2_SERIES,
    SERIES_19_31,
    Q_19_31_SERIES,
    forbid_walk_gcd,
    matrix_grid,
)

from cfdeform import udeform
from cfdeform.analysis import PROPERTIES, irrational_series
from cfdeform.cli import MAX_TERM_SUM, main
from cfdeform.contfrac import StreamingCF
from cfdeform.exactnum import RationalFunction
from cfdeform.qdeform import q_deform_series
from cfdeform.udeform import UParams, f_pair, j_quotient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    # The child imports this checkout's package, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "cfdeform", *args],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, env_extra=None):
    code, out, err = run_cli(*args, "--format", "json", env_extra=env_extra)
    assert code == 0, err.decode()
    return json.loads(out)


def test_eval_symbolic_row():
    doc = run_json("eval", "--u", "p,1,1,0", "--x", "29/13")
    assert set(doc) == {"command", "input", "result", "version"}
    assert doc["command"] == "eval"
    assert doc["result"]["fx"] == ["1", "3", "6", "7", "7", "4", "1"]
    assert doc["result"]["quantization"]["num"] == ["1", "3", "6", "7", "7", "4", "1"]


def test_eval_numerator_matrix():
    doc = run_json("eval", "--u", "1,1,1,0", "--x", "17/31")
    assert doc["result"]["fx"] == ["17"]
    assert doc["result"]["finv"] == ["31"]
    assert doc["result"]["quantization"] == {"num": ["17"], "den": ["31"]}


def test_eval_con_matrix_gives_involution_image():
    doc = run_json("eval", "--u", "1,1,0,1", "--x", "9/4")
    image = j_quotient(Fraction(9, 4))
    assert doc["result"]["quantization"] == {
        "num": [str(image.numerator)],
        "den": [str(image.denominator)],
    }


def test_series_rational_rzero():
    doc = run_json("series", "--u", "p,1,0,1", "--x", "17/2", "--order", "8")
    assert doc["result"]["coefficients"] == [str(c) for c in RZERO_17_2_SERIES]


def test_series_const_e():
    doc = run_json("series", "--u", "p,1,1,0", "--const", "e", "--order", "39")
    assert doc["result"]["coefficients"] == [str(c) for c in E_SERIES_40]


def test_series_const_pi():
    doc = run_json("series", "--u", "p,1,1,0", "--const", "pi", "--order", "39")
    assert doc["result"]["coefficients"] == [str(c) for c in PI_SERIES_40]


def test_qseries_rational_and_constant():
    doc = run_json("qseries", "--x", "7/5", "--order", "12")
    assert doc["result"]["coefficients"] == [str(c) for c in Q_7_5_SERIES]
    doc = run_json("qseries", "--x", "1", "--order", "5")
    assert doc["result"]["coefficients"] == ["1", "0", "0", "0", "0", "0"]
    doc = run_json("qseries", "--const", "golden", "--order", "20")
    assert doc["result"]["coefficients"] == [str(c) for c in Q_GOLDEN_SERIES_21]
    for name, source in (("e", StreamingCF.e_pattern()), ("pi", StreamingCF.pi_embedded())):
        doc = run_json("qseries", "--const", name, "--order", "40")
        assert doc["result"]["coefficients"] == [str(c) for c in q_deform_series(source, 40)]


def test_compare_19_31():
    doc = run_json("compare", "--x", "19/31", "--order", "14")
    assert doc["result"]["u_series"] == [str(c) for c in SERIES_19_31]
    assert doc["result"]["q_series"] == [str(c) for c in Q_19_31_SERIES]


def test_compare_one_is_constant():
    doc = run_json("compare", "--x", "1", "--order", "3")
    assert doc["result"]["u_series"] == ["1", "0", "0", "0"]
    assert doc["result"]["q_series"] == ["1", "0", "0", "0"]


def test_cf_command():
    doc = run_json("cf", "--x", "17/31")
    assert doc["result"] == {"terms": [0, 1, 1, 4, 1, 2], "ell": 9}
    doc = run_json("cf", "--x", "1")
    assert doc["result"] == {"terms": [1], "ell": 1}
    doc = run_json("cf", "--j", "5/2")
    assert doc["result"]["rewritten"] == [1, 3]
    assert doc["result"]["value"] == "4/3"
    doc = run_json("cf", "--j", "5")  # a single term takes the same rule
    assert Fraction(doc["result"]["value"]) == j_quotient(5)


def test_cf_j_rewrites_without_walking(monkeypatch, capsys):
    # cf --j has one path for every rational: the rewrite, never the walk.
    def no_walk(*args):
        raise AssertionError("udeform.walk called")

    monkeypatch.setattr(udeform, "walk", no_walk)
    for arg, image in [("5", "8/5"), ("1/5", "5/8")]:
        assert main(["cf", "--j", arg]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(f"= {image}")


def test_check_hard_properties_pass():
    code, out, _ = run_cli(
        "check", "--property", "integrality", "--u", "p,1,1,0",
        "--max-ell", "7", "--order", "12", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True

    code, out, _ = run_cli(
        "check", "--property", "oracle-equivalence", "--u", "2,3,1,1",
        "--max-ell", "8", "--format", "json",
    )
    assert code == 0

    code, _, _ = run_cli("check", "--property", "involution", "--max-ell", "8")
    assert code == 0


def test_check_observation_exit_is_zero_despite_finding():
    code, out, _ = run_cli(
        "check", "--property", "anti-unimodality", "--max-ell", "8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["holds"] is False
    assert doc["result"]["counterexample"]["x"] == "3/2"


def test_check_jobs_deterministic():
    a = run_json("check", "--property", "defining-equations", "--u", "2,1,1,0",
                 "--max-ell", "6", "--jobs", "1")
    b = run_json("check", "--property", "defining-equations", "--u", "2,1,1,0",
                 "--max-ell", "6", "--jobs", "2")
    assert a["result"] == b["result"]


def test_exit_code_malformed_input():
    code, _, err = run_cli("eval", "--u", "p,1,1,0", "--x", "abc")
    assert code == 1 and err
    code, _, _ = run_cli("eval", "--u", "p,1,1", "--x", "2")
    assert code == 1
    code, _, _ = run_cli("check", "--property", "no-such-thing")
    assert code == 1
    code, _, _ = run_cli("series", "--u", "p,1,1,0", "--x", "7/5", "--order", "300")
    assert code == 1


def test_exit_code_degenerate_matrix():
    code, _, err = run_cli("eval", "--u", "1,1,2,2", "--x", "3")
    assert code == 2
    assert b"determinant" in err


def test_exit_code_stabilization_failure():
    code, _, err = run_cli(
        "series", "--u", "p,1,0,1", "--const", "golden", "--heuristic", "--order", "5"
    )
    assert code == 3
    code, _, _ = run_cli(
        "series", "--u", "p,1,1,0", "--const", "pi", "--order", "360",
        env_extra={"UDEFORM_MAX_ORDER": "400"},
    )
    assert code == 3


def test_heuristic_flag_required_for_rzero_constants():
    code, _, _ = run_cli("series", "--u", "p,1,0,1", "--const", "golden", "--order", "5")
    assert code == 1


def test_constants_follow_the_stabilization_criterion():
    doc = run_json("series", "--u", "1,0,p,1", "--const", "e", "--order", "40")
    expected = irrational_series(StreamingCF.e_pattern(), UParams.parse("1,0,p,1"), 40)
    assert doc["result"]["coefficients"] == [str(c) for c in expected]
    code, out, err = run_cli("series", "--u", "p,p,1,0", "--const", "golden", "--order", "8")
    assert code == 1 and out == b""
    assert b"pass --heuristic" in err


def test_max_order_env_cap():
    code, _, _ = run_cli(
        "series", "--u", "p,1,1,0", "--x", "7/5", "--order", "30",
        env_extra={"UDEFORM_MAX_ORDER": "20"},
    )
    assert code == 1


def test_observation_check_needs_symbolic_matrix():
    for name in ("unimodality", "anti-unimodality", "alternation", "integrality"):
        code, out, err = run_cli("check", "--property", name, "--u", "2,3,1,1", "--max-ell", "5")
        assert code == 1 and out == b""
        assert b"Traceback" not in err and err.count(b"\n") == 1
        assert b"symbolic" in err


@pytest.mark.parametrize(
    "name, u, stated",
    [("stabilization", "2,3,1,1", b"(p,1;1,0)"), ("involution", "p,1,1,0", b"(1,1;0,1)")],
)
def test_fixed_matrix_property_refuses_other_matrix(name, u, stated):
    code, out, err = run_cli("check", "--property", name, "--u", u, "--max-ell", "5")
    assert code == 1 and out == b""
    assert b"Traceback" not in err and err.count(b"\n") == 1
    assert stated in err


def test_constant_series_refuses_other_matrix():
    code, out, err = run_cli("series", "--u", "p,p,1,0", "--const", "e", "--order", "5")
    assert code == 1 and out == b""
    assert b"Traceback" not in err and err.count(b"\n") == 1


def test_max_order_env_must_be_nonnegative_integer():
    for raw in ("abc", "-3", "2.5"):
        code, out, err = run_cli(
            "qseries", "--x", "7/5", "--order", "5", env_extra={"UDEFORM_MAX_ORDER": raw}
        )
        assert code == 1 and out == b""
        assert b"Traceback" not in err and err.count(b"\n") == 1
        assert b"UDEFORM_MAX_ORDER" in err


@pytest.mark.parametrize(
    "max_ell, message",
    [("-1", b"at least 1"), ("0", b"at least 1"), ("21", b"max-ell 21 exceeds the cap 20")],
)
def test_max_ell_outside_one_to_twenty_is_refused(max_ell, message):
    # Before, -1 gave a false "violated" oracle-equivalence report and 0 a
    # vacuous "holds"; above 20 the enumeration outgrows memory.
    for name in ("oracle-equivalence", "involution"):
        code, out, err = run_cli("check", "--property", name, "--max-ell", max_ell)
        assert code == 1 and out == b""
        assert b"Traceback" not in err and err.count(b"\n") == 1
        assert message in err


def test_byte_determinism():
    for args in (
        ("eval", "--u", "p,1,1,0", "--x", "17/31", "--format", "json"),
        ("series", "--u", "p,1,1,0", "--const", "e", "--order", "20", "--format", "json"),
        ("check", "--property", "involution", "--max-ell", "6", "--format", "json"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second
        assert first[0] == 0


def test_text_and_latex_formats_render():
    code, out, _ = run_cli("eval", "--u", "p,1,1,0", "--x", "7/5")
    assert code == 0 and b"[[x]]" in out
    code, out, _ = run_cli("eval", "--u", "p,1,1,0", "--x", "7/5", "--format", "latex")
    assert code == 0 and rb"\frac" in out
    code, out, _ = run_cli("series", "--u", "p,1,1,0", "--x", "7/5", "--order", "6",
                           "--format", "latex")
    assert code == 0 and rb"O\left(p^{7}\right)" in out
    code, out, _ = run_cli("cf", "--x", "17/31", "--format", "latex")
    assert code == 0 and rb"\cfrac" in out


def test_text_parenthesizes_a_fractional_coefficient(capsys):
    assert main(["series", "--u", "2,p,1,0", "--x", "5/2", "--order", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 + 2p + (1/2)p^2 - (1/4)p^3 + (1/8)p^4 + O(p^5)"
    )


def test_schema_value_shapes():
    doc = run_json("series", "--u", "p,1,1,0", "--x", "19/31", "--order", "14")
    for coeff in doc["result"]["coefficients"]:
        assert isinstance(coeff, str)
        Fraction(coeff)  # parses back losslessly
    assert doc["version"]
    assert isinstance(doc["input"], dict) and isinstance(doc["result"], dict)


def test_document_roundtrip_recompute():
    # Parsing an emitted document and recomputing from its input echo must
    # reproduce the payload exactly.
    from cfdeform.udeform import UParams, f_pair
    from cfdeform.contfrac import parse_rational

    doc = run_json("eval", "--u", "p,1,1,0", "--x", "17/14")
    u = UParams.parse(doc["input"]["u"])
    x = parse_rational(doc["input"]["x"])
    pair = f_pair(u, x)
    assert doc["result"]["fx"] == [str(c) for c in pair.fx.coeffs]
    assert doc["result"]["finv"] == [str(c) for c in pair.finv.coeffs]

    doc = run_json("qseries", "--x", "19/31", "--order", "14")
    from cfdeform.qdeform import q_deform_series

    recomputed = q_deform_series(parse_rational(doc["input"]["x"]), doc["input"]["order"])
    assert doc["result"]["coefficients"] == [str(c) for c in recomputed]


@pytest.fixture
def unlimited_int_digits():
    # CPython 3.11+ refuses int-to-str past 4300 digits unless lifted.
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_eval_prints_answers_past_the_int_digit_limit(unlimited_int_digits):
    fx = str(f_pair(UParams(1000, 1, 1, 0), 1500).fx)
    assert len(fx) > 4300
    doc = run_json("eval", "--u", "1000,1,1,0", "--x", "1500")
    assert doc["result"]["fx"] == [fx]
    code, out, err = run_cli("eval", "--u", "1000,1,1,0", "--x", "1500")
    assert code == 0 and err == b""
    assert f"f(x)   = {fx}\n".encode() in out


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--u", "p,1,1,0", "--x", "2001"),
        ("series", "--u", "p,1,0,1", "--x", "2001", "--order", "3"),
        ("qseries", "--x", "1/2001", "--order", "3"),
        ("compare", "--x", "2001", "--order", "3"),
        ("cf", "--j", "2001"),
    ],
    ids=lambda args: args[0],
)
def test_inputs_past_the_term_sum_cap_are_refused(args):
    code, out, err = run_cli(*args)
    assert code == 1 and out == b""
    assert err == f"cfdeform: term sum exceeds the cap {MAX_TERM_SUM}\n".encode()


def _fibonacci_pair(n):
    # (F(n), F(n+1)) by fast doubling.
    if n == 0:
        return 0, 1
    a, b = _fibonacci_pair(n // 2)
    c, d = a * (2 * b - a), a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


def test_long_input_is_refused_without_a_full_expansion(unlimited_int_digits):
    # F(100001)/F(100000) has 21k digits and 100,000 unit terms; summing
    # them all is quadratic in the digits, stopping at the cap is not.
    small, large = _fibonacci_pair(100000)
    argv = ["eval", "--u", "p,1,1,0", "--x", f"{large}/{small}"]
    start = time.perf_counter()
    code, out, err = _main_streams(argv)
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (1, "", f"cfdeform: term sum exceeds the cap {MAX_TERM_SUM}\n")
    assert elapsed < 0.3


def test_term_sum_at_the_cap_is_accepted():
    doc = run_json("cf", "--j", "2000")
    assert doc["result"]["ell"] == MAX_TERM_SUM
    doc = run_json("cf", "--x", "4000")  # expansion alone is not capped
    assert doc["result"]["ell"] == 4000


def _main_streams(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _main(argv):
    return _main_streams(argv)[:2]


def test_check_defaults_come_from_the_property_table():
    for name, row in PROPERTIES.items():
        code, out = _main(["check", "--property", name, "--max-ell", "3", "--format", "json"])
        doc = json.loads(out)
        assert UParams.parse(doc["input"]["u"]) == row.u
        details = doc["result"].get("details", {})
        assert tuple(details) == row.details
        if details:
            assert details["u"] == str(row.u)
        assert code == (0 if doc["result"]["holds"] or row.observation else 1)


@pytest.mark.parametrize(
    "argv, start",
    [
        (["check", "--property", "no-such-thing"], "check: argument --property: invalid choice"),
        (["check", "--property", "involution", "--format", "xml"],
         "check: argument --format: invalid choice"),
        (["eval", "--u", "p,1,1,0"], "eval: the following arguments are required: --x"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["property", "format", "missing-x", "subcommand", "no-subcommand"],
)
def test_usage_errors_print_one_line(argv, start):
    code, out, err = _main_streams(argv)
    assert code == 1 and out == ""
    assert err.startswith(f"cfdeform: {start}") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_below_one_are_refused(jobs):
    code, out, err = _main_streams(
        ["check", "--property", "integrality", "--max-ell", "3", "--jobs", jobs]
    )
    assert (code, out) == (1, "")
    assert err == f"cfdeform: jobs must be at least 1, got {jobs}\n"


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_INTS = st.integers(-3, 30).map(str)
_RATIONALS = st.one_of(
    st.sampled_from(["1", "7/5", "19/31", "2000", "1/2001", "0", "-3", "abc", "1/0", "2.5", ""]),
    st.builds("{}/{}".format, st.integers(-2, 40), st.integers(-2, 40)),
)
_U = st.sampled_from(
    ["p,1,1,0", "p,1,0,1", "1,1,0,1", "1,1,1,0", "2,-3,1,1", "1,1,2,2", "0,0,0,0",
     "p,p,1,0", "p,1", "a,b,c,d", "", "p,1,1,0,0"]
)
_ORDER = st.one_of(_INTS, st.sampled_from(["201", "x", ""]))
_MAX_ELL = st.sampled_from(["-1", "0", "1", "3", "5", "21", "x"])
_JOBS = st.sampled_from(["-1", "0", "1", "x"])  # none of these starts a pool
_FORMAT = _flag("--format", st.sampled_from(["text", "json", "latex", "xml"]))
_SOURCE = st.one_of(
    _flag("--x", _RATIONALS), _flag("--const", st.sampled_from(["e", "pi", "golden", "tau"]))
)
_ARGV = st.one_of(
    st.tuples(st.just(["eval"]), _flag("--u", _U), _flag("--x", _RATIONALS), _FORMAT),
    st.tuples(st.just(["series"]), _flag("--u", _U), _SOURCE, _flag("--order", _ORDER),
              st.sampled_from([[], ["--heuristic"]]), _FORMAT),
    st.tuples(st.just(["qseries"]), _SOURCE, _flag("--order", _ORDER), _FORMAT),
    st.tuples(st.just(["compare"]), _flag("--x", _RATIONALS), _flag("--order", _ORDER), _FORMAT),
    st.tuples(st.just(["check"]),
              _flag("--property", st.sampled_from([*PROPERTIES, "no-such-thing"])),
              _flag("--u", _U), _flag("--max-ell", _MAX_ELL), _flag("--order", _ORDER),
              _flag("--jobs", _JOBS), _FORMAT),
    st.tuples(st.just(["cf"]), st.one_of(_flag("--x", _RATIONALS), _flag("--j", _RATIONALS)),
              _FORMAT),
    st.sampled_from([(["--version"],), ([],), (["bogus"],)]),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_ARGV)
def test_every_invocation_exits_with_a_documented_code(argv):
    # A per-call bound of its own: hypothesis' deadline would flake on a slow machine.
    start = time.perf_counter()
    code, _ = _main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), argv
    assert elapsed < 5, (argv, elapsed)


def _no_gcd(a, b):
    raise AssertionError("poly_gcd called")


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (["series", "--u", "p,1,1,0", "--x", "19/31", "--order", "14"], "coefficients",
         SERIES_19_31),
        (["series", "--u", "p,1,0,1", "--x", "17/2", "--order", "8"], "coefficients",
         RZERO_17_2_SERIES),
        (["compare", "--x", "19/31", "--order", "14"], "u_series", SERIES_19_31),
        (["compare", "--x", "19/31", "--order", "14"], "q_series", Q_19_31_SERIES),
    ],
    ids=["series-szero", "series-rzero", "compare-u", "compare-q"],
)
def test_series_of_a_rational_expands_the_pair_unreduced(monkeypatch, argv, key, expected):
    monkeypatch.setattr("cfdeform.exactnum.poly_gcd", _no_gcd)
    code, out = _main([*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"][key] == [str(c) for c in expected]


def test_eval_reduces_without_a_gcd_on_a_grid_sample(monkeypatch):
    xs = ["29/13", "19/31", "17/2", "1/5", "8"]
    cases = [(text, x) for text in matrix_grid()[::18] for x in xs]
    forbid_walk_gcd(monkeypatch)
    docs = [_main(["eval", f"--u={text}", "--x", x, "--format", "json"]) for text, x in cases]
    monkeypatch.undo()
    for (text, x), (code, out) in zip(cases, docs):
        pair = f_pair(UParams.parse(text), Fraction(x))
        if pair.finv == 0:
            assert code == 1
            continue
        want = RationalFunction(pair.fx, pair.finv)
        assert code == 0
        assert json.loads(out)["result"]["quantization"] == {
            "num": [str(c) for c in want.num.coeffs] or ["0"],
            "den": [str(c) for c in want.den.coeffs],
        }


CAP_INPUT = "7500744601/2498168990"  # term sum 2000


@pytest.mark.parametrize("u, x", [("p,p,p,1", CAP_INPUT), ("p,1,-1,-1", "1000")])
def test_eval_at_the_cap_finishes_in_seconds(unlimited_int_digits, u, x):
    # The exit contract allows no hang: reduced by poly_gcd, p,p,p,1 at the
    # cap ran past 14 minutes, and p - 1 divides the p,1,-1,-1 pair 499 times.
    start = time.perf_counter()
    code, _ = _main(["eval", f"--u={u}", "--x", x, "--format", "json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10


def test_eval_output_is_unchanged_where_the_gcd_was_slow(unlimited_int_digits):
    # The SHA-256 of this command's stdout when eval reduced by poly_gcd,
    # which took 26 s on a 2-vCPU machine.
    code, out = _main(["eval", "--u", "1,p,p,p", "--x", "7811271/2582500", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "07cac7f823c5acee1e1880ea8d4016bc947bb3026d0cb6adbbdcb979bb198054"
    )


def test_negative_first_entry_needs_the_equals_form():
    # argparse reads "-1,p,p,p" after a space as an option; "--u=" binds it.
    code, out, err = run_cli("eval", "--u", "-1,p,p,p", "--x", "2")
    assert (code, out) == (1, b"")
    assert err == b"cfdeform: eval: argument --u: expected one argument\n"
    doc = run_json("eval", "--u=-1,p,p,p", "--x", "2")
    assert (doc["result"]["fx"], doc["result"]["finv"]) == (["-1", "1"], ["0", "2"])


def test_eval_walks_its_input_once(monkeypatch):
    calls = []
    real = udeform.walk
    monkeypatch.setattr(udeform, "walk", lambda moves, x: calls.append(x) or real(moves, x))
    code, out = _main(["eval", "--u", "p,1,1,0", "--x", "29/13", "--format", "json"])
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["result"]["quantization"]["num"] == ["1", "3", "6", "7", "7", "4", "1"]


@pytest.mark.parametrize(
    "name, u, line",
    [
        ("unimodality", "p,-1,1,0", "x = 2: property checks need nonnegative coefficients"),
        ("anti-unimodality", "p,-1,0,1", "x = 2: property checks need nonnegative coefficients"),
        ("integrality", "p,p,1,0", "x = 1/2: no Taylor expansion at origin"),
        ("alternation", "1,p,p,0", "x = 2: no Taylor expansion at origin"),
    ],
    ids=["unimodality", "anti-unimodality", "integrality", "alternation"],
)
def test_a_sweep_that_fails_on_an_input_names_it(name, u, line):
    argv = ["check", "--property", name, "--u", u]
    expected = f"cfdeform: {name} at {line}\n"
    assert _main_streams(argv) == (1, "", expected)
    assert run_cli(*argv, "--jobs", "2") == (1, b"", expected.encode())


CLI_EXPECTED = os.path.join(os.path.dirname(SRC), "perfbench", "cli_expected.json")


def test_every_captured_command_gives_its_captured_stdout(monkeypatch):
    # perfbench/cli_expected.json holds, per command, the exit code and the
    # SHA-256 of stdout of `python -m cfdeform <command>`; the keys are the
    # arguments joined by single spaces.
    monkeypatch.delenv("UDEFORM_MAX_ORDER", raising=False)
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert expected
    wrong = []
    for command, want in expected.items():
        code, out, _ = _main_streams(command.split(" "))
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (want["exit"], want["stdout_sha256"]):
            wrong.append(command)
    assert wrong == []
