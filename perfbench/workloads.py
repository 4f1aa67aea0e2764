"""The four benchmark workloads.

A workload is a list of operations generated from (workload, seed) alone,
so a seed fixes every input and the package only ever sees the generated
values.  Every seed gives the same shape (the same operation kinds at the
same input sizes); the seed picks the concrete rationals, matrices and
command arguments.  The runner repeats the list in a closed loop: one
client issues the next operation only after the previous one returns.

Every operation carries its own check, run outside the timed region against
the independent references in ``reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import cfdeform

import reference as ref

HERE = Path(__file__).resolve().parent
CLI_EXPECTED = HERE / "cli_expected.json"

# What one unit of work_per_s is, per workload.
WORK_UNITS = {
    "sweep": "rationals checked",
    "qtower": "series coefficients plus values delivered",
    "symbolic": "series coefficients plus values delivered",
    "cli": "commands",
}


@dataclass
class Op:
    """One timed operation.

    ``kind`` names the operation and its input size without the seeded
    values; ``label`` adds the concrete input.  ``check`` returns None for a
    correct result and a one-line reason otherwise.
    """

    kind: str
    label: str
    run: Callable[[], object]
    work: int
    check: Callable[[object], str | None]
    trace_file: Path | None = None


def _series_matches(series, num, den, order: int) -> str | None:
    """series * den == num mod x^(order+1), with den(0) != 0."""
    coeffs = list(series)
    if len(coeffs) != order + 1:
        return f"series has {len(coeffs)} coefficients, expected {order + 1}"
    if not den or den[0] == 0:
        return "reference denominator vanishes at 0"
    lhs = ref.mul_trunc(coeffs, den, order + 1)
    rhs = (list(num) + [0] * (order + 1))[: order + 1]
    if lhs != rhs:
        bad = next(i for i in range(order + 1) if lhs[i] != rhs[i])
        return f"series x denominator differs from numerator at index {bad}"
    return None


# ---------------------------------------------------------------------------
# sweep: property sweeps over every rational with term sum at most SWEEP_ELL

SWEEP_ELL = 11
SWEEP_ORDER = 20
SWEEP_JOBS = 2
SZERO_TEXT = "p,1,1,0"
RZERO_TEXT = "p,1,0,1"
CON_TEXT = "1,1,0,1"


def seeded_matrix(rng: random.Random) -> str:
    """A non-degenerate integer matrix with entries in [-3, 3], as CLI text."""
    while True:
        p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
        if q * s - r * p != 0:
            return f"{p},{q},{r},{s}"


def _sweep_op(name: str, u_text: str, jobs: int = 1) -> Op:
    u = cfdeform.UParams.parse(u_text)
    expected = 2**SWEEP_ELL - 1

    def run():
        return cfdeform.run_property_sweep(name, u, SWEEP_ELL, SWEEP_ORDER, jobs=jobs)

    def check(report) -> str | None:
        if report.property != name:
            return f"report names property {report.property!r}"
        if not report.holds:
            return f"reported a violation: {report.counterexample}"
        if report.tested != expected:
            return f"tested {report.tested} inputs, expected {expected}"
        return None

    suffix = f" jobs={jobs}" if jobs > 1 else ""
    kind = f"sweep {name} ell={SWEEP_ELL}{suffix}"
    return Op(kind, f"{kind} u={u_text}", run, expected, check)


def sweep_ops(rng: random.Random) -> list[Op]:
    matrix = seeded_matrix(rng)
    ops = []
    for u_text in (SZERO_TEXT, RZERO_TEXT, matrix):
        ops.append(_sweep_op("defining-equations", u_text))
    for u_text in (SZERO_TEXT, RZERO_TEXT):
        ops.append(_sweep_op("integrality", u_text))
    ops.append(_sweep_op("stabilization", SZERO_TEXT))
    for u_text in (SZERO_TEXT, RZERO_TEXT, matrix):
        ops.append(_sweep_op("oracle-equivalence", u_text))
    ops.append(_sweep_op("involution", CON_TEXT))
    ops.append(_sweep_op("integrality", SZERO_TEXT, jobs=SWEEP_JOBS))
    return ops


# ---------------------------------------------------------------------------
# qtower: q-series, where the gcd-reduced tower of rational functions dominates

QT_GOLDEN_ORDER = 100
QT_GOLDEN_OPS = 3
QT_ORDER = 40
QT_SERIES_DEPTHS = (30, 36, 42, 48, 54, 60)
QT_COMPARE_DEPTHS = (35, 55)
# Each q-series operation takes a batch of QT_BATCH seeded rationals of one
# term sum, and there are QT_PER_DEPTH batches per term sum, so the median
# operation's cost does not hang on a single seeded rational.
QT_BATCH = 4
QT_PER_DEPTH = 2

def _check_q_series(series, x: Fraction, order: int) -> str | None:
    num, den = ref.q_tower(x)
    if Fraction(sum(num), sum(den)) != x:
        return "reference q-tower does not evaluate to x at q = 1"
    return _series_matches(series, num, den, order)


def _qgolden_op() -> Op:
    order = QT_GOLDEN_ORDER

    def run():
        return cfdeform.q_deform_series(cfdeform.StreamingCF.golden(), order)

    def check(series) -> str | None:
        if list(series) != ref.golden_q_series(order):
            return "golden q-series differs from alternating A004148"
        return None

    kind = f"q_deform_series golden order={order}"
    return Op(kind, kind, run, order + 1, check)


def _qseries_op(xs: list[Fraction], depth: int) -> Op:
    def run():
        return [cfdeform.q_deform_series(x, QT_ORDER) for x in xs]

    def check(batch) -> str | None:
        if len(batch) != len(xs):
            return f"{len(batch)} series for {len(xs)} inputs"
        for x, series in zip(xs, batch):
            reason = _check_q_series(series, x, QT_ORDER)
            if reason:
                return f"x={x}: {reason}"
        return None

    kind = f"q_deform_series ell={depth} order={QT_ORDER} batch={len(xs)}"
    label = f"{kind} x={','.join(map(str, xs))}"
    return Op(kind, label, run, len(xs) * (QT_ORDER + 1), check)


def _compare_op(x: Fraction, depth: int) -> Op:
    u = cfdeform.U_SZERO_POLY

    def run():
        value = cfdeform.quantize(u, x)
        return (cfdeform.series_of_ratfun(value, QT_ORDER),
                cfdeform.q_deform_series(x, QT_ORDER))

    def check(result) -> str | None:
        u_series, q_series = result
        fx, finv = ref.poly_pair(ref.SZERO, x)
        return (_series_matches(u_series, fx, finv, QT_ORDER)
                or _check_q_series(q_series, x, QT_ORDER))

    kind = f"compare ell={depth} order={QT_ORDER}"
    return Op(kind, f"{kind} x={x}", run, 2 * (QT_ORDER + 1), check)


def qtower_ops(rng: random.Random) -> list[Op]:
    ops = [_qgolden_op() for _ in range(QT_GOLDEN_OPS)]
    ops += [_qseries_op([ref.rational_at_depth(rng, d) for _ in range(QT_BATCH)], d)
            for d in QT_SERIES_DEPTHS for _ in range(QT_PER_DEPTH)]
    ops += [_compare_op(ref.rational_at_depth(rng, d), d) for d in QT_COMPARE_DEPTHS]
    return ops


# ---------------------------------------------------------------------------
# symbolic: a few large quantizations and series at order 200

SYM_ORDER = 200
SYM_DEPTHS = (100, 125, 150, 175, 200)
SYM_PER_DEPTH = 3
SYM_INTEGER_STRATA = ((1000, 1100), (1900, 2001))
SYM_CONSTANTS = ("e", "pi", "golden")

# Leading continued-fraction terms of pi, enough for order 200; e's follow
# the pattern 2; 1, 2k, 1.
_PI_TERMS = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14)


def _e_terms(count: int) -> tuple[int, ...]:
    terms = [2]
    k = 1
    while len(terms) < count:
        terms += [1, 2 * k, 1]
        k += 1
    return tuple(terms[:count])


_CONVERGENT_REF = {}


def _check_value(value, x: Fraction, family) -> str | None:
    num, den = list(value.num.coeffs), list(value.den.coeffs)
    at_one = x if family is ref.SZERO else ref.value_at_one(family, x)
    if sum(den) == 0 or Fraction(sum(num), sum(den)) != at_one:
        return "value at p = 1 is wrong"
    rng = random.Random(f"cross-multiply/{x}")
    for _ in range(2):
        t = rng.randrange(2, ref.MOD)
        fx, finv = ref.pair_mod(family, x, t)
        if (ref.peval_mod(num, t) * finv - ref.peval_mod(den, t) * fx) % ref.MOD:
            return "value does not cross-multiply with the unreduced f(x), f(1/x)"
    return None


def _quantize_op(u_text: str, x: Fraction, kind: str) -> Op:
    u = cfdeform.UParams.parse(u_text)
    family = ref.SZERO if u_text == SZERO_TEXT else ref.RZERO

    def run():
        value = cfdeform.quantize(u, x)
        return value, cfdeform.series_of_ratfun(value, SYM_ORDER)

    def check(result) -> str | None:
        value, series = result
        return (_check_value(value, x, family)
                or _series_matches(series, value.num.coeffs, value.den.coeffs, SYM_ORDER))

    return Op(kind, f"{kind} x={x}", run, SYM_ORDER + 2, check)


def _convergent_reference(const: str, order: int):
    """Own (p,1;1,0) pairs of the two shortest prefixes whose shorter one
    has term sum >= order + 2; both pin the series to ``order``."""
    if (const, order) not in _CONVERGENT_REF:
        terms = _e_terms(order) if const == "e" else _PI_TERMS
        k = 1
        while sum(terms[:k]) < order + 2:
            k += 1
        pairs = []
        for prefix in (terms[:k], terms[: k + 1]):
            value = Fraction(prefix[-1])
            for t in reversed(prefix[:-1]):
                value = t + 1 / value
            pairs.append(ref.poly_pair(ref.SZERO, value))
        _CONVERGENT_REF[const, order] = pairs
    return _CONVERGENT_REF[const, order]


def _irrational_op(const: str) -> Op:
    sources = {
        "e": cfdeform.StreamingCF.e_pattern,
        "pi": cfdeform.StreamingCF.pi_embedded,
        "golden": cfdeform.StreamingCF.golden,
    }

    def run():
        return cfdeform.irrational_series(sources[const](), cfdeform.U_SZERO_POLY, SYM_ORDER)

    def check(series) -> str | None:
        if const == "golden":
            if list(series) != ref.golden_p_series(SYM_ORDER):
                return "golden series differs from alternating Catalan numbers"
            return None
        for num, den in _convergent_reference(const, SYM_ORDER):
            reason = _series_matches(series, num, den, SYM_ORDER)
            if reason:
                return reason
        return None

    kind = f"irrational_series {const} order={SYM_ORDER}"
    return Op(kind, kind, run, SYM_ORDER + 1, check)


def symbolic_ops(rng: random.Random) -> list[Op]:
    ops = []
    for u_text in (SZERO_TEXT, RZERO_TEXT):
        for d in SYM_DEPTHS:
            for _ in range(SYM_PER_DEPTH):
                x = ref.rational_at_depth(rng, d)
                ops.append(_quantize_op(u_text, x, f"quantize {u_text} ell={d} order={SYM_ORDER}"))
    for lo, hi in SYM_INTEGER_STRATA:
        n = Fraction(rng.randrange(lo, hi))
        ops.append(_quantize_op(SZERO_TEXT, n, f"quantize {SZERO_TEXT} n in [{lo},{hi}) order={SYM_ORDER}"))
    ops += [_irrational_op(c) for c in SYM_CONSTANTS]
    return ops


# ---------------------------------------------------------------------------
# cli: README commands as real processes

CLI_FORMATS = ("text", "json", "latex")
# The documented exit code of each error path.
ERROR_EXIT = {"malformed": 1, "degenerate": 2, "unstable": 3}
_POOL_SIZE = 8


def cli_pools() -> tuple[dict[str, list[list[str]]], dict[str, list[list[str]]]]:
    """The argument pools the seed draws from, one list per README command
    and per documented error path.  Fixed, so that every entry's output can
    be captured once (``capture_cli.py``) and compared byte for byte."""
    rng = random.Random("cfdeform-cli-pool")

    def xs(lo: int) -> list[str]:
        return [str(ref.rational_at_depth(rng, d)) for d in range(lo, lo + _POOL_SIZE)]

    def orders(lo: int) -> list[str]:
        return [str(o) for o in range(lo, lo + _POOL_SIZE)]

    ok = {
        "eval": [["eval", "--u", SZERO_TEXT, "--x", x] for x in xs(10)],
        "series-const": [["series", "--u", SZERO_TEXT, "--const", "e", "--order", o]
                         for o in orders(32)],
        "series-x": [["series", "--u", RZERO_TEXT, "--x", x, "--order", o]
                     for x, o in zip(xs(6), orders(6))],
        "qseries-x": [["qseries", "--x", x, "--order", o] for x, o in zip(xs(5), orders(10))],
        "qseries-const": [["qseries", "--const", "golden", "--order", o] for o in orders(16)],
        "compare": [["compare", "--x", x, "--order", o] for x, o in zip(xs(8), orders(12))],
        "check-integrality": [["check", "--property", "integrality", "--u", SZERO_TEXT,
                               "--max-ell", "10", "--order", o] for o in orders(16)],
        "check-oracle": [["check", "--property", "oracle-equivalence", "--u", "2,3,1,1",
                          "--max-ell", "10"]],
        "cf-x": [["cf", "--x", x] for x in xs(8)],
        "cf-j": [["cf", "--j", x] for x in xs(8)],
    }
    errors = {
        "malformed": [["eval", "--u", SZERO_TEXT, "--x", bad] for bad in
                      ("abc", "1/0", "0", "x/y", "1//2", "2.5.1", "1/2/3", "7/")],
        "degenerate": [["eval", "--u", "1,1,1,1", "--x", x] for x in xs(4)],
        "unstable": [["series", "--u", RZERO_TEXT, "--const", "golden", "--order", o,
                      "--heuristic"] for o in orders(16)],
    }
    return ok, errors


def cli_commands(rng: random.Random) -> list[tuple[str, list[str]]]:
    """(kind, argv) pairs: each README command in every format, then
    each error path once."""
    ok, errors = cli_pools()
    out = []
    for name, pool in ok.items():
        argv = rng.choice(pool)
        for fmt in CLI_FORMATS:
            out.append((f"cli {name} {fmt}", argv + ["--format", fmt]))
    for name, pool in errors.items():
        out.append((f"cli error {name}", rng.choice(pool)))
    return out


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_cli_expected() -> dict:
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes


CHILD_TIMEOUT_S = 120


def run_cli(cmd: list[str], root: Path, env: dict | None) -> CliResult:
    """Run a child to completion; kill it after CHILD_TIMEOUT_S.

    The timeout is a timer thread rather than ``subprocess.run(timeout=)``,
    which polls the child with sleeps of up to 50 ms and so rounds every
    latency up to the next poll.
    """
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return CliResult(proc.returncode, out, err)


def check_cli(result, expected: dict) -> str | None:
    code, out, err = result
    if b"Traceback" in err:
        return "traceback on stderr"
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if code != 0 and not err.strip():
        return "error exit without a message"
    if hashlib.sha256(out).hexdigest() != expected["stdout_sha256"]:
        return "stdout differs from the captured output"
    return None


def cli_ops(rng: random.Random, root: Path, expected: dict,
              trace_dir: Path | None = None) -> list[Op]:
    """With ``trace_dir``, each command runs under ``trace_child.py``, which
    writes its layer counters to a file there."""
    env = child_env(root)
    ops = []
    for i, (kind, argv) in enumerate(cli_commands(rng)):
        key = cli_key(argv)
        if key not in expected:
            raise KeyError(f"no captured output for {key!r}; rerun capture_cli.py")
        trace_file = None
        cmd = [sys.executable, "-m", "cfdeform", *argv]
        if trace_dir is not None:
            trace_file = trace_dir / f"cli-child-{i}.json"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_file), *argv]
        exp = expected[key]
        ops.append(Op(kind, f"cfdeform {key}",
                      lambda cmd=cmd: run_cli(cmd, root, env), 1,
                      lambda result, exp=exp: check_cli(result, exp), trace_file))
    return ops


# ---------------------------------------------------------------------------


def make_ops(workload: str, seed: int, root: Path,
             cli_expected: dict | None = None, trace_dir: Path | None = None) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep":
        return sweep_ops(rng)
    if workload == "qtower":
        return qtower_ops(rng)
    if workload == "symbolic":
        return symbolic_ops(rng)
    if workload == "cli":
        return cli_ops(rng, root, cli_expected, trace_dir)
    raise ValueError(f"unknown workload {workload!r}")
