"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that each workload's checker accepts a real result and rejects
deliberately corrupted ones, that two seeds give different inputs with the
same size distribution, and that the tracer's wrappers count known values
on tiny inputs.  Exits 1 if anything fails.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cfdeform  # noqa: E402
from cfdeform.exactnum import RingPoly  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracer import Tracer, self_check  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str):
    print(("pass  " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def op_of(ops, kind_prefix: str):
    return next(op for op in ops if op.kind.startswith(kind_prefix))


def checks_reject(op, result, corruptions: dict):
    """The real result passes; every corrupted variant is rejected."""
    expect(op.check(result) is None, f"{op.kind}: real result accepted")
    for name, bad in corruptions.items():
        expect(op.check(bad) is not None, f"{op.kind}: {name} rejected")


def bump(series, index: int):
    cs = list(series)
    cs[index] += 1
    return cfdeform.TruncatedSeries(cs)


def test_checkers():
    expected = workloads.load_cli_expected()
    ops = {w: workloads.make_ops(w, 1, ROOT, expected) for w in WORKLOAD_NAMES}

    op = op_of(ops["sweep"], "sweep involution")
    report = op.run()
    checks_reject(op, report, {
        "a reported violation": dataclasses.replace(report, holds=False, counterexample={"x": "2"}),
        "a short input count": dataclasses.replace(report, tested=report.tested - 1),
    })

    op = op_of(ops["qtower"], "q_deform_series ell=30")
    batch = op.run()
    checks_reject(op, batch, {"one wrong coefficient": batch[:-1] + [bump(batch[-1], 17)],
                              "a truncated series": [batch[0].truncate(39)] + batch[1:],
                              "a missing series": batch[:-1]})
    op = op_of(ops["qtower"], "q_deform_series golden")
    series = op.run()
    checks_reject(op, series, {"one wrong coefficient": bump(series, 99)})
    op = op_of(ops["qtower"], "compare")
    u_series, q_series = op.run()
    checks_reject(op, (u_series, q_series), {
        "a wrong p-series coefficient": (bump(u_series, 3), q_series),
        "a wrong q-series coefficient": (u_series, bump(q_series, 40)),
    })

    p = RingPoly.variable()
    for prefix in ("quantize p,1,0,1 ell=100", "quantize p,1,1,0 ell=100"):
        op = op_of(ops["symbolic"], prefix)
        value, series = op.run()
        # Adds (p - 1) p^2 to the numerator: same value at p = 1, so only
        # the cross-multiplication with f(x), f(1/x) can catch it.
        same_at_one = cfdeform.RationalFunction(value.num + (p - 1) * p * p, value.den)
        checks_reject(op, (value, series), {
            "a value wrong at p = 1": (cfdeform.RationalFunction(value.num + 1, value.den), series),
            "a value right only at p = 1": (same_at_one, series),
            "one wrong series coefficient": (value, bump(series, 150)),
        })
    for const in ("e", "pi", "golden"):
        op = op_of(ops["symbolic"], f"irrational_series {const}")
        series = op.run()
        checks_reject(op, series, {"one wrong coefficient": bump(series, 200)})

    op = op_of(ops["cli"], "cli qseries-x json")
    res = op.run()
    checks_reject(op, res, {
        "one extra stdout byte": res._replace(stdout=res.stdout + b" "),
        "another exit code": res._replace(code=3),
        "a traceback": res._replace(stderr=b"Traceback (most recent call last):\n"),
    })
    op = op_of(ops["cli"], "cli error degenerate")
    res = op.run()
    checks_reject(op, res, {
        "exit 1 instead of 2": res._replace(code=1),
        "a silent failure": res._replace(stderr=b""),
    })


_ELL = re.compile(r"ell=(\d+)")
_X = re.compile(r" x=(\S+)")


def test_seeds():
    expected = workloads.load_cli_expected()
    for w in WORKLOAD_NAMES:
        a, b = (workloads.make_ops(w, seed, ROOT, expected) for seed in (1, 2))
        expect(sorted(op.kind for op in a) == sorted(op.kind for op in b),
               f"{w}: seeds 1 and 2 give the same operation kinds and sizes")
        expect([op.label for op in a] != [op.label for op in b],
               f"{w}: seeds 1 and 2 give different inputs")
        sizes_ok = True
        for op in a + b:
            ell, x = _ELL.search(op.kind), _X.search(op.label)
            if ell and x and any(sum(ref.cf_terms(Fraction(v))) != int(ell.group(1))
                                 for v in x.group(1).split(",")):
                sizes_ok = False
        expect(sizes_ok, f"{w}: every generated rational has the term sum its kind names")


def test_tracer():
    tracer = Tracer().install()
    try:
        found = self_check(tracer)
    finally:
        tracer.uninstall()
    expect(not found, "tracer wrappers count known values: " + ("; ".join(found) or "ok"))
    expect(cfdeform.f_pair.__name__ == "f_pair" and not hasattr(cfdeform.f_pair, "__wrapped__"),
           "tracer uninstall restores the original functions")


if __name__ == "__main__":
    test_checkers()
    test_seeds()
    test_tracer()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
