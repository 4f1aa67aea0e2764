import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import (
    E_SERIES_40,
    PI_SERIES_40,
    Q_7_5_SERIES,
    Q_GOLDEN_SERIES_21,
    RZERO_17_2_SERIES,
    SERIES_19_31,
    Q_19_31_SERIES,
)

from cfdeform.udeform import j_quotient

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
    doc = run_json("cf", "--j", "5")  # single term goes through the quotient
    assert Fraction(doc["result"]["value"]) == j_quotient(5)


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
