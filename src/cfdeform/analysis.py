"""Verification machinery: an independent breadth-first oracle for the
defining equations, deformed-convergent recursions and the stabilization
phenomenon, coefficient-property checkers, reference integer sequences, and
the bounded sweeps behind ``cfdeform check``.

Proved facts are hard checks (a violation is a failure); empirical
observations are recorded outcomes (a counterexample is a finding, reported
but never asserted).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .contfrac import CFExpansion, StreamingCF, cf_expand, cf_value, j_rewrite, stabilized_series
from .errors import DomainError
from .exactnum import RingPoly, TruncatedSeries, series_of_ratfun
from .udeform import (
    U_CON,
    U_RZERO_POLY,
    U_SZERO_POLY,
    FPair,
    UParams,
    f_pair,
    j_quotient,
    level,
)

__all__ = [
    "ReferenceSequence",
    "CATALAN",
    "GENERALIZED_CATALAN",
    "FIBONACCI",
    "PropertyReport",
    "enumerate_rationals",
    "bfs_oracle",
    "convergent_polys",
    "convergent_determinant",
    "irrational_series",
    "stabilization_depth",
    "check_unimodality",
    "check_anti_unimodality",
    "check_sign_alternation",
    "match_reference",
    "e_series_parity_report",
    "observation_report",
    "PROPERTIES",
    "PROPERTY_NAMES",
    "OBSERVATION_PROPERTIES",
    "run_property_sweep",
]


@dataclass(frozen=True)
class ReferenceSequence:
    """An embedded initial segment of a published integer sequence."""

    name: str
    terms: tuple[int, ...]


CATALAN = ReferenceSequence(
    "A000108",
    (
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
        742900, 2674440, 9694845, 35357670, 129644790, 477638700,
        1767263190, 6564120420, 24466267020, 91482563640, 343059613650,
        1289904147324,
    ),
)

GENERALIZED_CATALAN = ReferenceSequence(
    "A004148",
    (
        1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283, 5373, 12735,
        30372, 72832, 175502, 424748, 1032004, 2516347, 6155441, 15101701,
        37150472, 91618049,
    ),
)

FIBONACCI = ReferenceSequence(
    "A000045",
    (
        1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
        1597, 2584, 4181, 6765, 10946, 17711, 28657, 46368, 75025,
    ),
)


@dataclass
class PropertyReport:
    """Outcome of one property check or sweep.

    Serializes to {property, holds, counterexample, tested} plus a details
    key when there is extra context (zero positions, reference name, ...).
    A false ``holds`` always comes with a re-checkable counterexample.
    """

    property: str
    holds: bool
    counterexample: dict | None
    tested: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "property": self.property,
            "holds": self.holds,
            "counterexample": self.counterexample,
            "tested": self.tested,
        }
        if self.details:
            out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# Enumeration and the breadth-first oracle


def enumerate_rationals(max_ell: int) -> list[tuple[Fraction, int]]:
    """All positive rationals with term sum at most ``max_ell``.

    Generated breadth-first from 1 with the two moves x -> 1+x and
    x -> x/(1+x); each rational appears exactly once, in deterministic
    order, 2**max_ell - 1 of them in total.
    """
    if max_ell < 1:
        return []
    out = [(Fraction(1), 1)]
    level = [Fraction(1)]
    for depth in range(2, max_ell + 1):
        nxt = []
        for x in level:
            nxt.append(1 + x)
            nxt.append(x / (1 + x))
        out.extend((x, depth) for x in nxt)
        level = nxt
    return out


def bfs_oracle(u: UParams, max_ell: int) -> dict[Fraction, FPair]:
    """Forward-generate the solution table, independently of f_pair.

    Walks the orbit of 1 under the two moves, carrying the value pair along
    with the update rules read directly off the defining equations.  Serves
    as the independent oracle for the continued-fraction-based recursion.
    """
    if max_ell < 1:
        return {}
    p, q, r, s = u.entries()
    one = RingPoly.constant(1) if u.symbolic else 1
    table: dict[Fraction, FPair] = {Fraction(1): FPair(one, one)}
    level = [(Fraction(1), one, one)]
    for _ in range(max_ell - 1):
        nxt = []
        for x, fx, finv in level:
            up = 1 + x
            upx, upinv = p * fx + q * finv, s * fx + r * finv
            down = x / (1 + x)
            dnx, dninv = r * fx + s * finv, q * fx + p * finv
            table[up] = FPair(upx, upinv)
            table[down] = FPair(dnx, dninv)
            nxt.append((up, upx, upinv))
            nxt.append((down, dnx, dninv))
        level = nxt
    return table


# ---------------------------------------------------------------------------
# Deformed convergents and stabilization


def convergent_polys(terms: Sequence[int] | CFExpansion) -> list[FPair]:
    """Deformed convergents of a term prefix under the (p,1;1,0) family.

    pairs[k] is the solution pair of the first k+1 terms, the first column
    of the product L_0 ... L_k of the walk's levels (udeform.level) taken
    left to right.  Each level ([n]_p, p^n; 1, 0) makes the columns follow
    the classical two-term recursion; a leading 0 term gives (0, 1).
    """
    ts = terms.terms if isinstance(terms, CFExpansion) else CFExpansion(tuple(terms)).terms
    a, b, c, d = RingPoly((1,)), RingPoly(), RingPoly(), RingPoly((1,))
    out = []
    for n in ts:
        e, f, g, h = level(U_SZERO_POLY, True, n)
        a, b, c, d = e * a + g * b, f * a + h * b, e * c + g * d, f * c + h * d
        out.append(FPair(a, c))
    return out


def convergent_determinant(pairs: Sequence[FPair], k: int) -> RingPoly:
    """R_k S_(k-1) - S_k R_(k-1) for adjacent entries of convergent_polys.

    Equals (-1)^(k+1) p^(n_0 + ... + n_(k-1)) exactly, which is what makes
    consecutive deformed convergents agree on a growing Taylor prefix.
    """
    if k < 1 or k >= len(pairs):
        raise IndexError("determinant needs two adjacent convergents")
    a, b = pairs[k - 1], pairs[k]
    return b.fx * a.finv - b.finv * a.fx


# The one-variable families with a series, and where the agreement of their
# last two convergents is proved (see contfrac.stabilized_series).
_SERIES_PROVED = {U_SZERO_POLY: lambda terms: terms[0] >= 1, U_RZERO_POLY: lambda terms: False}


def irrational_series(source, u: UParams, order: int) -> TruncatedSeries:
    """Taylor coefficients of a deformed irrational via its convergents.

    Proved mode, (p,1;1,0) with a value at least 1: the last two convergent
    expansions agree on the returned prefix by the determinant identity.
    Heuristic mode, (p,1;0,1) or values below 1: agreement of the last two
    convergents on all order+1 coefficients is demanded, and disagreement
    raises StabilizationError carrying both series (never a silent return).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if u not in _SERIES_PROVED:
        raise DomainError(
            "series extraction supports the one-variable families (p,1;1,0) and (p,1;0,1)"
        )
    return stabilized_series(source, order, lambda terms: f_pair(u, terms), _SERIES_PROVED[u])


def stabilization_depth(prev_cf, cur_cf, order: int) -> int:
    """Length of the common Taylor prefix of two consecutive deformed
    convergents under (p,1;1,0), both expanded to ``order``.

    Guaranteed to be at least the term sum of the shorter prefix (when that
    sum does not exceed the expansion order); identical inputs give
    order + 1.
    """
    prev_terms, cur_terms = tuple(prev_cf), tuple(cur_cf)
    if prev_terms != cur_terms[:-1] and prev_terms != cur_terms:
        raise DomainError("expected consecutive prefixes of one expansion")
    if prev_terms == cur_terms:
        return order + 1
    prev = series_of_ratfun(f_pair(U_SZERO_POLY, prev_terms), order)
    return prev.agreement(series_of_ratfun(f_pair(U_SZERO_POLY, cur_terms), order))


# ---------------------------------------------------------------------------
# Coefficient-property checkers


def _ascending_coeffs(poly: RingPoly) -> tuple[int, ...]:
    if poly.is_zero():
        raise DomainError("property checks need a nonzero polynomial")
    if any(c < 0 for c in poly.coeffs):
        raise DomainError("property checks need nonnegative coefficients")
    return poly.coeffs


def _subject(extra: dict, subject) -> dict:
    if subject is not None:
        return {"x": str(subject), **extra}
    return extra


def check_unimodality(poly: RingPoly, subject=None) -> PropertyReport:
    """Coefficients rise (non-strictly) to a peak, then fall."""
    cs = _ascending_coeffs(poly)
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    holds = i == len(cs) - 1
    counterexample = None if holds else _subject({"index": i}, subject)
    return PropertyReport("unimodality", holds, counterexample, 1)


def check_anti_unimodality(poly: RingPoly, subject=None) -> PropertyReport:
    """Zigzag by degree: a_i >= a_(i+1) at even i, a_i <= a_(i+1) at odd i."""
    cs = _ascending_coeffs(poly)
    for i in range(len(cs) - 1):
        ok = cs[i] >= cs[i + 1] if i % 2 == 0 else cs[i] <= cs[i + 1]
        if not ok:
            return PropertyReport(
                "anti-unimodality", False, _subject({"index": i}, subject), 1
            )
    return PropertyReport("anti-unimodality", True, None, 1)


def check_sign_alternation(
    series: TruncatedSeries, from_index: int = 0, subject=None
) -> PropertyReport:
    """Nonzero coefficients from ``from_index`` on strictly alternate in sign.

    Zero coefficients are skipped by the alternation test but flagged in the
    details, since the right policy for them is a judgement call.
    """
    zeros: list[int] = []
    prev_sign = 0
    violation: dict | None = None
    for i in range(from_index, len(series)):
        c = series[i]
        if c == 0:
            zeros.append(i)
            continue
        sign = 1 if c > 0 else -1
        if sign == prev_sign and violation is None:
            violation = _subject({"index": i}, subject)
        prev_sign = sign
    details: dict = {"policy": "alternation judged on nonzero coefficients"}
    if zeros:
        details["zero_indices"] = zeros
    return PropertyReport(
        "sign-alternation", violation is None, violation, 1, details
    )


def match_reference(
    series: TruncatedSeries,
    ref: ReferenceSequence,
    signed: bool = True,
    head: tuple = (),
    offset: int = 0,
    subject=None,
) -> PropertyReport:
    """Align series coefficients with a reference sequence.

    The first ``len(head)`` coefficients must match ``head`` verbatim; from
    there, coefficient k must equal ref[k - offset], with alternating signs
    starting positive when ``signed``.
    """
    details = {"reference": ref.name}
    for k, expected in enumerate(head):
        if k >= len(series):
            break
        if series[k] != expected:
            return PropertyReport(
                "reference-match", False, _subject({"index": k}, subject), 1, details
            )
    start = len(head)
    for k in range(start, len(series)):
        idx = k - offset
        if idx < 0 or idx >= len(ref.terms):
            raise ValueError(f"reference {ref.name} is too short for order {len(series) - 1}")
        expected = ref.terms[idx]
        if signed and (k - start) % 2 == 1:
            expected = -expected
        if series[k] != expected:
            return PropertyReport(
                "reference-match", False, _subject({"index": k}, subject), 1, details
            )
    return PropertyReport("reference-match", True, None, 1, details)


def e_series_parity_report(order: int = 38) -> PropertyReport:
    """Check the odd-index dip |c_(17+2k)| < max of neighbours on the
    deformed Euler-constant series (an observation, recorded not asserted)."""
    series = irrational_series(StreamingCF.e_pattern(), U_SZERO_POLY, order)
    checked = []
    violation = None
    for i in range(17, order, 2):
        checked.append(i)
        if not abs(series[i]) < max(abs(series[i - 1]), abs(series[i + 1])):
            if violation is None:
                violation = {"index": i}
    return PropertyReport(
        "e-series-parity-dip",
        violation is None,
        violation,
        len(checked),
        {"indices_checked": checked},
    )


# ---------------------------------------------------------------------------
# Bounded sweeps (the check harness)


def _px_defining_equations(u: UParams, x: Fraction, order: int) -> dict | None:
    p, q, r, s = u.entries()
    fx, finv = f_pair(u, x)
    up = f_pair(u, 1 + x)
    if up.fx != p * fx + q * finv:
        return {"x": str(x), "relation": "step-up"}
    down = f_pair(u, x / (1 + x))
    if down.fx != r * fx + s * finv:
        return {"x": str(x), "relation": "step-down"}
    two_up = f_pair(u, 2 + x)
    if two_up.fx != p * up.fx + q * r * finv + q * s * fx:
        return {"x": str(x), "relation": "double-step"}
    return None


def _px_integrality(u: UParams, x: Fraction, order: int) -> dict | None:
    ok, index = series_of_ratfun(f_pair(u, x), order).is_integral()
    if not ok:
        return {"x": str(x), "index": index}
    return None


def _px_unimodality(u: UParams, x: Fraction, order: int) -> dict | None:
    report = check_unimodality(f_pair(u, x).fx, subject=x)
    return report.counterexample


def _px_anti_unimodality(u: UParams, x: Fraction, order: int) -> dict | None:
    report = check_anti_unimodality(f_pair(u, x).fx, subject=x)
    return report.counterexample


def _px_alternation(u: UParams, x: Fraction, order: int) -> dict | None:
    report = check_sign_alternation(series_of_ratfun(f_pair(u, x), order), subject=x)
    if not report.holds:
        out = dict(report.counterexample)
        if "zero_indices" in report.details:
            out["zero_indices"] = report.details["zero_indices"]
        return out
    return None


def _px_stabilization(u: UParams, x: Fraction, order: int) -> dict | None:
    terms = cf_expand(x).terms
    if terms[0] == 0 or len(terms) < 2:
        return None
    expand_to = sum(terms) + 2
    series = [series_of_ratfun(pair, expand_to) for pair in convergent_polys(terms)]
    for k in range(1, len(terms)):
        depth = series[k - 1].agreement(series[k])
        bound = sum(terms[:k])
        if depth < bound:
            return {"x": str(x), "prefix": k + 1, "depth": depth, "bound": bound}
    return None


def _px_involution(u: UParams, x: Fraction, order: int) -> dict | None:
    image = j_quotient(x)
    if j_quotient(image) != x:
        return {"x": str(x), "kind": "quotient-involution"}
    cf = cf_expand(x)
    if len(cf) >= 2:
        rewritten = j_rewrite(cf)
        if cf_value(rewritten) != image:
            return {"x": str(x), "kind": "rewrite-vs-quotient"}
        # Re-rewriting needs two terms as well; single-term images are
        # already covered by the quotient round trip above.
        if len(rewritten) >= 2 and cf_value(j_rewrite(rewritten)) != x:
            return {"x": str(x), "kind": "rewrite-involution"}
    return None


class _Property(NamedTuple):
    """One row of the sweep table."""

    check: Callable[[UParams, Fraction, int], dict | None] | None  # None: whole-table sweep
    u: UParams  # the default matrix
    matrix: str  # what the sweep asks of a matrix: "any", "symbolic" or "fixed" (only u)
    observation: bool  # empirical: reported, never asserted, exit code stays zero
    reports_order: bool  # the report's details carry the series order


PROPERTIES: dict[str, _Property] = {
    "defining-equations": _Property(_px_defining_equations, U_SZERO_POLY, "any", False, False),
    "integrality": _Property(_px_integrality, U_SZERO_POLY, "symbolic", False, True),
    "unimodality": _Property(_px_unimodality, U_SZERO_POLY, "symbolic", True, False),
    "anti-unimodality": _Property(_px_anti_unimodality, U_RZERO_POLY, "symbolic", True, False),
    "alternation": _Property(_px_alternation, U_SZERO_POLY, "symbolic", True, True),
    "stabilization": _Property(_px_stabilization, U_SZERO_POLY, "fixed", False, False),
    "involution": _Property(_px_involution, U_CON, "fixed", False, False),
    "oracle-equivalence": _Property(None, U_SZERO_POLY, "any", False, False),
}

PROPERTY_NAMES = tuple(PROPERTIES)
OBSERVATION_PROPERTIES = frozenset(name for name, row in PROPERTIES.items() if row.observation)


def _chunk_worker(
    name: str, u: UParams, xs: list[Fraction], order: int
) -> tuple[int, dict | None]:
    check = PROPERTIES[name].check
    count = 0
    for x in xs:
        violation = check(u, x, order)
        count += 1
        if violation is not None:
            return count, violation
    return count, None


def sweep_oracle_equivalence(u: UParams, max_ell: int) -> PropertyReport:
    """Compare the breadth-first table against the recursion, value by value."""
    table = bfs_oracle(u, max_ell)
    expected_size = 2**max_ell - 1
    if len(table) != expected_size:
        return PropertyReport(
            "oracle-equivalence",
            False,
            {"kind": "table-size", "size": len(table), "expected": expected_size},
            len(table),
        )
    for x, pair in table.items():
        direct = f_pair(u, x)
        if direct != pair:
            return PropertyReport(
                "oracle-equivalence", False, {"x": str(x)}, len(table)
            )
    return PropertyReport("oracle-equivalence", True, None, len(table))


def run_property_sweep(
    name: str,
    u: UParams,
    max_ell: int,
    order: int = 20,
    jobs: int = 1,
) -> PropertyReport:
    """Run one named property over every rational with bounded term sum.

    Results are independent of ``jobs``: the input space is partitioned in
    enumeration order and the first counterexample in that order is kept.
    ``oracle-equivalence`` always runs in a single pass (the table is the
    point of it).
    """
    if max_ell < 1:
        raise DomainError(f"max_ell must be at least 1, got {max_ell}")
    row = PROPERTIES.get(name)
    if row is None:
        raise DomainError(f"unknown property {name!r}")
    if row.matrix == "symbolic" and not u.symbolic:
        raise DomainError(f"the {name} sweep needs a symbolic matrix, e.g. p,1,1,0")
    if row.matrix == "fixed" and u != row.u:
        raise DomainError(f"the {name} sweep is stated for {row.u} only, not {u}")
    if row.check is None:
        return sweep_oracle_equivalence(u, max_ell)
    xs = [x for x, _ in enumerate_rationals(max_ell)]
    violation: dict | None = None
    tested = 0
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or len(xs) < 2:
        tested, violation = _chunk_worker(name, u, xs, order)
    else:
        # Imported here: the pool drags in logging, which serial runs never need.
        import concurrent.futures

        chunk_size = -(-len(xs) // (workers * 4))
        chunks = [xs[i : i + chunk_size] for i in range(0, len(xs), chunk_size)]
        workers = min(workers, len(chunks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chunk_worker, name, u, chunk, order) for chunk in chunks]
            for future in futures:
                count, violation = future.result()
                tested += count
                if violation is not None:
                    for queued in futures:
                        queued.cancel()
                    break
    details = {"max_ell": max_ell, "u": str(u)}
    if row.reports_order:
        details["order"] = order
    return PropertyReport(name, violation is None, violation, tested, details)


def observation_report(max_ell: int = 12, order: int = 20) -> dict:
    """The machine-readable ledger of the empirical observations.

    Counterexamples recorded here are findings about the observations, not
    failures of the implementation; each one re-verifies in isolation.
    """
    ledger = {}
    for name, row in PROPERTIES.items():
        if row.observation:
            key = "sign_alternation" if name == "alternation" else name.replace("-", "_")
            ledger[key] = run_property_sweep(name, row.u, max_ell, order).as_dict()
    ledger["e_series_parity"] = e_series_parity_report().as_dict()
    return ledger
