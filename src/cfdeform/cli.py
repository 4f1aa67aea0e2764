"""Command-line front end.

Six subcommands: ``eval`` (solution pair and deformed value), ``series``
(Taylor coefficients of deformed rationals and builtin constants),
``qseries`` (the q-bracket deformation), ``compare`` (both side by side),
``check`` (bounded property sweeps), ``cf`` (expansion, term-sum weight and
the involution rewrite).  Output formats: human text, machine JSON, LaTeX
fragments.

JSON document shape: {command, input, result, version}; polynomials are
ascending arrays of integer strings, series are ascending arrays of
rational strings ("a" or "a/b"), so coefficients never lose precision.

Exit codes: 0 success, 1 malformed input or a failed hard property,
2 degenerate parameter matrix, 3 stabilization failure or an exhausted
term source.  UDEFORM_MAX_ORDER (default 200) caps series orders,
``check --max-ell`` is capped at 20, and rational inputs (``--x``, ``--j``)
at term sum 2000; ``cf --x`` only expands and takes any term sum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .analysis import PROPERTIES, PROPERTY_NAMES, irrational_series, run_property_sweep
from .contfrac import StreamingCF, cf_expand, cf_value, format_cf, j_rewrite, parse_rational
from .errors import (
    DegenerateParametersError,
    DomainError,
    StabilizationError,
    TermsExhaustedError,
)
from .exactnum import RationalFunction, RingPoly, TruncatedSeries, format_terms
from .qdeform import q_deform_series
from .udeform import U_SZERO_POLY, UParams, f_pair, stabilization_proved

MAX_ORDER_ENV = "UDEFORM_MAX_ORDER"
DEFAULT_MAX_ORDER = 200
# The cap bounds a sweep's time, 2**20 - 1 inputs at 20; its depth-first walk keeps
# memory flat (16 MB RSS).  As a 2-vCPU process, oracle-equivalence under (p,1;1,0)
# takes about 41 s at 20, or 24 s with --jobs 2.
MAX_SWEEP_ELL = 20
# Rational inputs: the cap bounds the walk, and eval's reduction needs no gcd
# (FPair.quotient).  As 2-vCPU processes, eval of the cap input 7500744601/2498168990
# takes 0.92 s under p,p,p,1, 0.70 s under p,1,0,1 and at most 4.4 s under a matrix of
# entries in {-1, 0, 1, 2, p}; eval of 7811271/2582500 (term sum 210) under 1,p,p,p, 57 ms.
MAX_TERM_SUM = 2000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_STABILIZATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse prints a usage block and exits with status 2 on usage errors;
    # the contract wants one line and status 1.  prog names the subcommand.
    def error(self, message):
        print(f"{self.prog.replace(' ', ': ')}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Serialization helpers


def _entry_json(v) -> list[str]:
    if isinstance(v, RingPoly):
        return [str(c) for c in v.coeffs] or ["0"]
    return [str(v)]


def _value_json(v) -> dict:
    if isinstance(v, RationalFunction):
        return {"num": _entry_json(v.num), "den": _entry_json(v.den)}
    frac = Fraction(v)
    return {"num": [str(frac.numerator)], "den": [str(frac.denominator)]}


def _series_json(s: TruncatedSeries) -> list[str]:
    return [str(c) for c in s]


def _latex_value(v, var: str) -> str:
    if isinstance(v, RingPoly):
        return format_terms(v.coeffs, var, latex=True, descending=True)
    if isinstance(v, RationalFunction):
        num = _latex_value(v.num, var)
        if v.is_polynomial():
            return num
        return rf"\frac{{{num}}}{{{_latex_value(v.den, var)}}}"
    frac = Fraction(v)
    if frac.denominator == 1:
        return str(frac.numerator)
    return rf"\frac{{{frac.numerator}}}{{{frac.denominator}}}"


def _series_text(s: TruncatedSeries, var: str, latex: bool = False) -> str:
    terms = format_terms(s.coeffs, var, latex=latex)
    if latex:
        return rf"{terms}+O\left({var}^{{{s.order + 1}}}\right)"
    return f"{terms} + O({var}^{s.order + 1})"


def _latex_cf(terms) -> str:
    terms = list(terms)
    out = str(terms[-1])
    for t in reversed(terms[:-1]):
        out = rf"{t}+\cfrac{{1}}{{{out}}}"
    return out


def _print_document(command: str, inputs: dict, result: dict, fmt: str, text_lines, latex_lines):
    if fmt == "json":
        doc = {
            "command": command,
            "input": inputs,
            "result": result,
            "version": __version__,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "latex":
        for line in latex_lines():
            sys.stdout.write(line + "\n")
    else:
        for line in text_lines():
            sys.stdout.write(line + "\n")


def _max_order() -> int:
    raw = os.environ.get(MAX_ORDER_ENV, "")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise DomainError(f"{MAX_ORDER_ENV} must be a nonnegative integer, got {raw!r}")
    return cap


def _parse_capped(text: str) -> Fraction:
    # Sums the Euclidean quotients and stops at the cap: a full expansion of
    # a long input would cost more than refusing it.
    x = parse_rational(text)
    num, den, total = x.numerator, x.denominator, 0
    while den:
        quotient, rest = divmod(num, den)
        num, den, total = den, rest, total + quotient
        if total > MAX_TERM_SUM:
            raise DomainError(f"term sum exceeds the cap {MAX_TERM_SUM}")
    return x


def _check_order(order: int) -> int:
    cap = _max_order()
    if order < 0:
        raise DomainError("order must be nonnegative")
    if order > cap:
        raise DomainError(f"order {order} exceeds the cap {cap} (set {MAX_ORDER_ENV} to raise it)")
    return order


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval(args) -> int:
    u = UParams.parse(args.u)
    x = _parse_capped(args.x)
    pair = f_pair(u, x)
    value = pair.quotient(u.moves)
    var = "p"
    inputs = {"u": args.u, "x": args.x}
    result = {
        "fx": _entry_json(pair.fx),
        "finv": _entry_json(pair.finv),
        "quantization": _value_json(value),
    }

    def text():
        yield f"U = {u}, x = {x} = {format_cf(cf_expand(x))}"
        yield f"f(x)   = {pair.fx}"
        yield f"f(1/x) = {pair.finv}"
        yield f"[[x]]  = {value}"

    def latex():
        yield rf"f(x) = {_latex_value(pair.fx, var)}"
        yield rf"f(1/x) = {_latex_value(pair.finv, var)}"
        yield rf"\llbracket x \rrbracket = {_latex_value(value, var)}"

    _print_document("eval", inputs, result, args.format, text, latex)
    return EXIT_OK


_CONST_SOURCES = {
    "e": StreamingCF.e_pattern,
    "pi": StreamingCF.pi_embedded,
    "golden": StreamingCF.golden,
}


def _source(args):
    """The source of --x (a capped rational) or --const (a term stream), and
    its name as given."""
    if args.x is not None:
        return _parse_capped(args.x), args.x
    return _CONST_SOURCES[args.const](), args.const


def _cmd_series(args) -> int:
    u = UParams.parse(args.u)
    order = _check_order(args.order)
    if not u.symbolic:
        raise DomainError("series extraction needs the formal variable in U (e.g. --u p,1,1,0)")
    if args.const and not (args.heuristic or stabilization_proved(u.moves)):
        raise DomainError(f"constants under the {u} family are heuristic; pass --heuristic")
    source, subject = _source(args)
    series = irrational_series(source, u, order)
    inputs = {"u": args.u, "x": subject, "order": order}
    result = {"variable": "p", "order": order, "coefficients": _series_json(series)}

    def text():
        yield f"U = {u}, x = {subject}, order = {order}"
        yield str(series)

    def latex():
        yield _series_text(series, "p", latex=True)

    _print_document("series", inputs, result, args.format, text, latex)
    return EXIT_OK


def _cmd_qseries(args) -> int:
    order = _check_order(args.order)
    source, subject = _source(args)
    series = q_deform_series(source, order)
    inputs = {"x": subject, "order": order}
    result = {"variable": "q", "order": order, "coefficients": _series_json(series)}

    def text():
        yield f"x = {subject}, order = {order}"
        yield _series_text(series, "q")

    def latex():
        yield _series_text(series, "q", latex=True)

    _print_document("qseries", inputs, result, args.format, text, latex)
    return EXIT_OK


def _cmd_compare(args) -> int:
    order = _check_order(args.order)
    x = _parse_capped(args.x)
    u_series = irrational_series(x, U_SZERO_POLY, order)
    q_series = q_deform_series(x, order)
    inputs = {"x": args.x, "order": order}
    result = {
        "order": order,
        "u_series": _series_json(u_series),
        "q_series": _series_json(q_series),
    }

    def text():
        yield f"x = {x}, order = {order}"
        yield f"{'n':>4}  {'deformation (p)':>24}  {'q-bracket (q)':>24}"
        for i in range(order + 1):
            yield f"{i:>4}  {str(u_series[i]):>24}  {str(q_series[i]):>24}"

    def latex():
        yield _series_text(u_series, "p", latex=True)
        yield _series_text(q_series, "q", latex=True)

    _print_document("compare", inputs, result, args.format, text, latex)
    return EXIT_OK


def _cmd_check(args) -> int:
    name = args.property
    row = PROPERTIES[name]
    u_text = args.u if args.u is not None else ",".join(map(str, row.u.entries()))
    u = UParams.parse(u_text)
    order = _check_order(args.order)
    if args.max_ell > MAX_SWEEP_ELL:
        raise DomainError(f"max-ell {args.max_ell} exceeds the cap {MAX_SWEEP_ELL}")
    report = run_property_sweep(name, u, args.max_ell, order, jobs=args.jobs)
    inputs = {"property": name, "u": u_text, "max_ell": args.max_ell, "order": order}
    result = report.as_dict()

    def text():
        status = "holds" if report.holds else "violated"
        yield f"property {name} over ell <= {args.max_ell}: {status} ({report.tested} inputs)"
        if report.counterexample is not None:
            yield f"counterexample: {report.counterexample}"
        if row.observation:
            yield "observation check: outcome recorded, exit status unaffected"

    def latex():
        yield rf"\texttt{{{name}}}: {'holds' if report.holds else 'violated'}"

    _print_document("check", inputs, result, args.format, text, latex)
    return EXIT_OK if report.holds or row.observation else EXIT_USAGE


def _cmd_cf(args) -> int:
    if args.x is not None:
        x = parse_rational(args.x)
        exp = cf_expand(x)
        inputs = {"x": args.x}
        result = {"terms": list(exp.terms), "ell": sum(exp.terms)}

        def text():
            yield f"{x} = {format_cf(exp)}   ell = {sum(exp.terms)}"

        def latex():
            yield _latex_cf(exp.terms)

        _print_document("cf", inputs, result, args.format, text, latex)
        return EXIT_OK

    x = _parse_capped(args.j)
    exp = cf_expand(x)
    rewritten = j_rewrite(exp)
    value = cf_value(rewritten)
    inputs = {"j": args.j}
    result = {
        "terms": list(exp.terms),
        "ell": sum(exp.terms),
        "rewritten": list(rewritten.terms),
        "value": str(value),
    }

    def text():
        yield f"{x} = {format_cf(exp)}"
        yield f"involution image: {format_cf(rewritten)} = {value}"

    def latex():
        yield _latex_cf(rewritten.terms)

    _print_document("cf", inputs, result, args.format, text, latex)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfdeform", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cfdeform {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    u_eq = "; a negative first entry needs --u=, as in --u=-1,p,p,p"

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--x", help="positive rational to deform")
        group.add_argument("--const", choices=sorted(_CONST_SOURCES),
                           help="builtin irrational constant")

    p_eval = sub.add_parser("eval", help="solution pair and deformed value at a rational")
    p_eval.add_argument("--u", required=True, help="four entries, ints or p (e.g. p,1,1,0)" + u_eq)
    p_eval.add_argument("--x", required=True, help="positive rational, a/b or integer")
    add_format(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_series = sub.add_parser("series", help="Taylor coefficients of a deformed value")
    p_series.add_argument("--u", required=True, help="parameter entries, must include p" + u_eq)
    add_source(p_series)
    p_series.add_argument("--order", type=int, required=True, help="last Taylor index")
    p_series.add_argument("--heuristic", action="store_true",
                          help="allow constants under a matrix outside the proved criterion")
    add_format(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_q = sub.add_parser("qseries", help="Taylor coefficients of the q-bracket deformation")
    add_source(p_q)
    p_q.add_argument("--order", type=int, required=True, help="last Taylor index")
    add_format(p_q)
    p_q.set_defaults(func=_cmd_qseries)

    p_cmp = sub.add_parser("compare", help="deformation vs q-bracket, per index")
    p_cmp.add_argument("--x", required=True, help="positive rational to deform")
    p_cmp.add_argument("--order", type=int, required=True, help="last Taylor index")
    add_format(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("check", help="run a bounded property sweep")
    p_chk.add_argument("--property", required=True, choices=PROPERTY_NAMES, metavar="NAME",
                       help=f"one of: {', '.join(PROPERTY_NAMES)}")
    p_chk.add_argument("--u", default=None, help="parameter entries (per-property default)" + u_eq)
    p_chk.add_argument("--max-ell", type=int, default=10, dest="max_ell",
                       help="sweep every rational with term sum at most this (1 to 20)")
    p_chk.add_argument("--order", type=int, default=20, help="series order where relevant")
    p_chk.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep, capped at the CPU count")
    add_format(p_chk)
    p_chk.set_defaults(func=_cmd_check)

    p_cf = sub.add_parser("cf", help="continued fraction, term sum, involution rewrite")
    group = p_cf.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", help="expand this positive rational")
    group.add_argument("--j", help="expand and rewrite through the involution")
    add_format(p_cf)
    p_cf.set_defaults(func=_cmd_cf)

    return parser


def main(argv=None) -> int:
    # Exact answers may run past CPython's 4300-digit limit on int-to-str.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegenerateParametersError as exc:
        print(f"cfdeform: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (StabilizationError, TermsExhaustedError) as exc:
        print(f"cfdeform: {exc}", file=sys.stderr)
        return EXIT_STABILIZATION
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        print(f"cfdeform: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
