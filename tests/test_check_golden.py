"""Golden outputs of the CLI, replayed in-process: ``cfdeform check`` for
every property under five matrix choices and three formats at
``--max-ell 6``, and ``cfdeform cf --j`` for every rational of term sum at
most 7 in three formats.

``check_golden.json`` holds each case's argv, exit code and stdout.  The
``check`` cases were captured before the sweeps were rebuilt on one
breadth-first walk (commit ba36159), the ``cf --j`` cases before ``j_rewrite``
became the rule on the move word (commit bc4f7ec).  Running
``python tests/test_check_golden.py`` rewrites the file from the code at
hand; do that only on purpose, when an output is meant to change.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from cfdeform.analysis import enumerate_rationals
from cfdeform.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_golden.json")
NAMES = ("defining-equations", "integrality", "unimodality", "anti-unimodality",
         "alternation", "stabilization", "involution", "oracle-equivalence")
MATRICES = (None, "p,1,1,0", "p,1,0,1", "1,1,0,1", "2,3,1,1")  # None: the row's default
FORMATS = ("text", "json", "latex")


def golden_argvs():
    for name in NAMES:
        for u in MATRICES:
            for fmt in FORMATS:
                u_args = [] if u is None else ["--u", u]
                yield ["check", "--property", name, "--max-ell", "6", *u_args, "--format", fmt]
    for x, _ in enumerate_rationals(7):
        for fmt in FORMATS:
            yield ["cf", "--j", str(x), "--format", fmt]


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


CASES = load_golden() if os.path.exists(GOLDEN) else []


@pytest.mark.parametrize("case", [case for case in CASES if case["argv"][0] == "check"],
                         ids=lambda case: " ".join(case["argv"][2:]))
def test_check_output_matches_golden(case):
    assert run_main(case["argv"]) == (case["code"], case["stdout"])


@pytest.mark.parametrize("case", [case for case in CASES if case["argv"][0] == "cf"],
                         ids=lambda case: " ".join(case["argv"][1:]))
def test_cf_j_output_matches_golden(case):
    assert run_main(case["argv"]) == (case["code"], case["stdout"])


@pytest.mark.parametrize("name", ["integrality", "unimodality", "anti-unimodality", "alternation"])
def test_coefficient_rows_read_the_walks_pairs(monkeypatch, name):
    # These rows take each input's pair from the sweep's walk, never from f_pair.
    def no_f_pair(u, x):
        raise AssertionError(f"f_pair called at {x}")

    monkeypatch.setattr("cfdeform.analysis.f_pair", no_f_pair)
    for case in CASES:
        if case["argv"][2] == name:
            assert run_main(case["argv"]) == (case["code"], case["stdout"])


def test_integrality_rows_reduce_nothing(monkeypatch):
    # The rows expand each walk's pair as it stands; no gcd on the way.
    def no_gcd(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr("cfdeform.exactnum.poly_gcd", no_gcd)
    for case in CASES:
        if case["argv"][2] == "integrality":
            assert run_main(case["argv"]) == (case["code"], case["stdout"])


def test_golden_covers_every_case():
    assert [case["argv"] for case in CASES] == list(golden_argvs())


if __name__ == "__main__":
    cases = []
    for argv in golden_argvs():
        code, stdout = run_main(argv)
        cases.append({"argv": argv, "code": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
