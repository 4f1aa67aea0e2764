"""Verification machinery: an independent breadth-first oracle for the
defining equations, deformed-convergent recursions and the stabilization
phenomenon, coefficient-property checkers, reference integer sequences, and
the bounded sweeps behind ``cfdeform check``.

Proved facts are hard checks (a violation is a failure); empirical
observations are recorded outcomes (a counterexample is a finding, reported
but never asserted).
"""

from __future__ import annotations

import collections
import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .contfrac import CFExpansion, StreamingCF, cf_expand, cf_value, j_rewrite
from .errors import DomainError
from .exactnum import RingPoly, TruncatedSeries, series_of_ratfun
from .udeform import (
    U_CON,
    U_NUM,
    U_RZERO_POLY,
    U_SZERO_POLY,
    FPair,
    UParams,
    f_pair,
    j_quotient,
    level,
    stabilized_series,
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
# The breadth-first walk: enumeration and oracle


def _walk(u: UParams, max_ell: int) -> Iterator[list[tuple[Fraction, FPair]]]:
    """The rationals of term sum 1, 2, ..., max_ell with their pairs, one
    depth at a time: the orbit of 1 under x -> 1+x and x -> x/(1+x), with the
    pair carried by update rules read directly off the defining equations,
    independently of f_pair.  Each rational is reached once, at the depth of
    its term sum; no more than two depths are alive at a time.
    """
    if max_ell < 1:
        return
    p, q, r, s = u.entries()
    one = RingPoly.constant(1) if u.symbolic else 1
    depth = [(Fraction(1), FPair(one, one))]
    yield depth
    for _ in range(max_ell - 1):
        nxt = []
        for x, (fx, finv) in depth:
            up = 1 + x
            nxt.append((up, FPair(p * fx + q * finv, s * fx + r * finv)))
            nxt.append((x / up, FPair(r * fx + s * finv, q * fx + p * finv)))
        depth = nxt
        yield depth


def enumerate_rationals(max_ell: int) -> list[tuple[Fraction, int]]:
    """All positive rationals with term sum at most ``max_ell``, each with
    its term sum, in the breadth-first order of the walk from 1: 2**max_ell - 1
    of them in total."""
    return [(x, d) for d, depth in enumerate(_walk(U_NUM, max_ell), 1) for x, _ in depth]


def bfs_oracle(u: UParams, max_ell: int) -> dict[Fraction, FPair]:
    """The solution table over term sum at most ``max_ell``, forward-generated
    from the defining equations: the independent oracle for f_pair."""
    return {x: pair for depth in _walk(u, max_ell) for x, pair in depth}


# ---------------------------------------------------------------------------
# Deformed convergents and stabilization


def convergent_polys(terms: Sequence[int] | CFExpansion) -> list[FPair]:
    """Deformed convergents of a term prefix under the (p,1;1,0) family.

    pairs[k] is the solution pair of the first k+1 terms.  With M the
    product of their full runs up^n0 down^n1 ... (udeform.level), it is M's
    second column after an up run and its first after a down run, as
    up (0, 1) = down (1, 0) = (1, 1).  The levels (p^n, [n]_p; 0, 1) and
    (1, 0; [n]_p, p^n) make those columns follow the classical two-term
    recursion; a leading 0 term gives (0, 1).
    """
    ts = terms.terms if isinstance(terms, CFExpansion) else CFExpansion(tuple(terms)).terms
    a, b, c, d = RingPoly((1,)), RingPoly(), RingPoly(), RingPoly((1,))
    out = []
    for i, n in enumerate(ts):
        e, f, g, h = level(U_SZERO_POLY.moves[i % 2], n)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        out.append(FPair(a, c) if i % 2 else FPair(b, d))
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


def irrational_series(source, u: UParams, order: int) -> TruncatedSeries:
    """Taylor coefficients of a deformed value, under u's moves, through the
    one path (udeform.stabilized_series): a rational expands exactly, a
    StreamingCF from its last two convergents.

    Their agreement on all order+1 coefficients is demanded.  Under a
    matrix whose moves meet udeform.stabilization_proved, such as
    (p,1;1,0), it is a theorem; elsewhere, such as (p,1;0,1), disagreement
    raises StabilizationError carrying both series (never a silent return).
    """
    return stabilized_series(source, order, u.moves)


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
    prev = stabilized_series(prev_terms, order, U_SZERO_POLY.moves)
    return prev.agreement(stabilized_series(cur_terms, order, U_SZERO_POLY.moves))


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


def check_sign_alternation(series: TruncatedSeries, subject=None) -> PropertyReport:
    """Nonzero coefficients strictly alternate in sign.

    Zero coefficients are skipped by the alternation test but flagged in the
    details, since the right policy for them is a judgement call.
    """
    zeros: list[int] = []
    prev_sign = 0
    violation: dict | None = None
    for i, c in enumerate(series):
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


def _px_defining_equations(u: UParams, x: Fraction, pairs: tuple, order: int) -> dict | None:
    # pairs: f_pair at x, 1 + x, x/(1 + x) and 2 + x; the relations derive the
    # last three from the first, so f_pair is checked against itself.
    p, q, s, r = u.moves[0].entries
    (fx, finv), up, down, two_up = pairs
    if up.fx != p * fx + q * finv:
        return {"x": str(x), "relation": "step-up"}
    if down.fx != r * fx + s * finv:
        return {"x": str(x), "relation": "step-down"}
    if two_up.fx != p * up.fx + q * r * finv + q * s * fx:
        return {"x": str(x), "relation": "double-step"}
    return None


def _px_integrality(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    ok, index = series_of_ratfun(pair, order).is_integral()
    if not ok:
        return {"x": str(x), "index": index}
    return None


def _px_unimodality(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    return check_unimodality(pair.fx, subject=x).counterexample


def _px_anti_unimodality(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    return check_anti_unimodality(pair.fx, subject=x).counterexample


def _px_alternation(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    report = check_sign_alternation(series_of_ratfun(pair, order), subject=x)
    if not report.holds:
        out = dict(report.counterexample)
        if "zero_indices" in report.details:
            out["zero_indices"] = report.details["zero_indices"]
        return out
    return None


def _px_stabilization(u: UParams, x: Fraction, _: None, order: int) -> dict | None:
    terms = cf_expand(x).terms
    if terms[0] == 0 or len(terms) < 2:
        return None
    expand_to = sum(terms) + 2
    series = [series_of_ratfun(prefix, expand_to) for prefix in convergent_polys(terms)]
    for k in range(1, len(terms)):
        depth = series[k - 1].agreement(series[k])
        bound = sum(terms[:k])
        if depth < bound:
            return {"x": str(x), "prefix": k + 1, "depth": depth, "bound": bound}
    return None


def _px_involution(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    image = pair.quotient()
    if j_quotient(image) != x:
        return {"x": str(x), "kind": "quotient-involution"}
    rewritten = j_rewrite(cf_expand(x))
    if cf_value(rewritten) != image:
        return {"x": str(x), "kind": "rewrite-vs-quotient"}
    if cf_value(j_rewrite(rewritten)) != x:
        return {"x": str(x), "kind": "rewrite-involution"}
    return None


def _px_oracle_equivalence(u: UParams, x: Fraction, pair: FPair, order: int) -> dict | None:
    return None if f_pair(u, x) == pair else {"x": str(x)}


# What the walk hands a row beside each input.  A feed gives the value at 1
# and step(value, up, y): the value at the child y of the input holding
# value, reached by the up move (y = 1 + x) or the down move (y = x/(1 + x)).


def _pair_feed(u: UParams):
    """The input's pair, the child's by one move on its parent's: the update
    rules of the defining equations, independent of f_pair."""
    p, q, r, s = u.entries()

    def step(pair, up, y):
        fx, finv = pair
        if up:
            return FPair(p * fx + q * finv, s * fx + r * finv)
        return FPair(r * fx + s * finv, q * fx + p * finv)

    return FPair(u.moves[0].one, u.moves[0].one), step


def _neighbour_feed(u: UParams):
    """f_pair at the input y and at 1 + y, y/(1 + y) and 2 + y.  A child keeps
    what its parent computed (the up child f(1 + x) and f(2 + x), the down
    child f(x/(1 + x))), so a sweep to term sum ell calls f_pair
    5 * 2**(ell - 1) - 1 times, once per value."""

    def neighbours(y, known):
        ys = (y, 1 + y, y / (1 + y), 2 + y)
        return known + tuple(f_pair(u, z) for z in ys[len(known) :])

    def step(pairs, up, y):
        return neighbours(y, pairs[1::2] if up else pairs[2:3])

    return neighbours(Fraction(1), ()), step


def _no_feed(u: UParams):
    return None, lambda value, up, y: None


_FEEDS = {"pair": _pair_feed, "neighbours": _neighbour_feed, "none": _no_feed}


class _Property(NamedTuple):
    """One row of the sweep table."""

    check: Callable[[UParams, Fraction, object, int], dict | None]  # (u, x, fed value, order)
    feed: str  # the value check reads beside x: a key of _FEEDS
    u: UParams  # the default matrix
    matrix: str  # what the sweep asks of a matrix: "any", "symbolic" or "fixed" (only u)
    observation: bool  # empirical: reported, never asserted, exit code stays zero
    details: tuple[str, ...]  # the keys the report's details carry, in order


_SWEPT = ("max_ell", "u")
_ORDERED = (*_SWEPT, "order")
PROPERTIES: dict[str, _Property] = {
    "defining-equations": _Property(
        _px_defining_equations, "neighbours", U_SZERO_POLY, "any", False, _SWEPT
    ),
    "integrality": _Property(_px_integrality, "pair", U_SZERO_POLY, "symbolic", False, _ORDERED),
    "unimodality": _Property(_px_unimodality, "pair", U_SZERO_POLY, "symbolic", True, _SWEPT),
    "anti-unimodality": _Property(
        _px_anti_unimodality, "pair", U_RZERO_POLY, "symbolic", True, _SWEPT
    ),
    "alternation": _Property(_px_alternation, "pair", U_SZERO_POLY, "symbolic", True, _ORDERED),
    "stabilization": _Property(_px_stabilization, "none", U_SZERO_POLY, "fixed", False, _SWEPT),
    "involution": _Property(_px_involution, "pair", U_CON, "fixed", False, _SWEPT),
    "oracle-equivalence": _Property(
        _px_oracle_equivalence, "pair", U_SZERO_POLY, "any", False, ()
    ),
}

PROPERTY_NAMES = tuple(PROPERTIES)


def _sweep_subtree(
    name: str, u: UParams, order: int, limit: int, depth: int, pos: int
) -> tuple[int, tuple[int, dict | str] | None]:
    """Run one row depth-first over the subtree rooted at the input (depth, pos),
    down to term sum ``limit``.

    The tree is the Calkin-Wilf tree: n/m has the children (n + m)/m (up,
    position 2 pos) and n/(n + m) (down, 2 pos + 1), so depth is term sum and
    (depth, pos) has the breadth-first index 2**(depth - 1) - 1 + pos.  Up is
    walked first, so each depth is met in breadth-first order; after a
    failure at depth d every input still ahead at depth d or deeper comes
    later, and the walk stays above d.  Returns the inputs checked and the
    earliest failure as (index, violation), or (index, message) for a row
    error.  The stack holds at most two entries per depth.
    """
    check = PROPERTIES[name].check
    value, step = _FEEDS[PROPERTIES[name].feed](u)
    # The root's word of moves is pos in depth - 1 bits, the first move highest.
    n = m = 1
    up = None
    for bit in range(depth - 2, -1, -1):
        if up is not None:
            value = step(value, up, Fraction(n, m))
        up = not pos >> bit & 1
        n, m = (n + m, m) if up else (n, n + m)
    stack = [(depth, pos, n, m, value, up)]
    count, best = 0, None
    while stack:
        depth, pos, n, m, value, up = stack.pop()
        if depth > limit:
            continue
        count += 1
        x = Fraction(n, m)
        try:
            if up is not None:
                value = step(value, up, x)
            failure = check(u, x, value, order)
        except (DomainError, ZeroDivisionError) as exc:
            failure = f"{name} at x = {x}: {exc}"
        if failure is not None:
            best, limit = (2 ** (depth - 1) - 1 + pos, failure), depth - 1
        elif depth < limit:
            stack.append((depth + 1, 2 * pos + 1, n, n + m, value, False))
            stack.append((depth + 1, 2 * pos, n + m, m, value, True))
    return count, best


def run_property_sweep(
    name: str, u: UParams, max_ell: int, order: int = 20, jobs: int = 1
) -> PropertyReport:
    """Run one named property over every rational with bounded term sum.

    One depth-first walk of the Calkin-Wilf tree (see ``_sweep_subtree``)
    hands each row what it reads, carried from parent to child.  The report
    is the one of a breadth-first walk that stops at its first violation or
    row error (see ``bfs_oracle``), whatever ``jobs`` is: with workers, the
    depths above k run here and each worker walks whole subtrees rooted at
    depth k, at least four per worker and none deeper than 13 depths
    (8,191 inputs), two per worker queued at a time.  After a failure in a
    subtree at most 2 * workers - 1 others run on.
    """
    if max_ell < 1:
        raise DomainError(f"max_ell must be at least 1, got {max_ell}")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    row = PROPERTIES.get(name)
    if row is None:
        raise DomainError(f"unknown property {name!r}")
    if row.matrix == "symbolic" and not u.symbolic:
        raise DomainError(f"the {name} sweep needs a symbolic matrix, e.g. p,1,1,0")
    if row.matrix == "fixed" and u != row.u:
        raise DomainError(f"the {name} sweep is stated for {row.u} only, not {u}")
    workers = min(jobs, os.cpu_count() or 1, 2**max_ell - 1)
    if workers > 1:
        k = min(max_ell, max(1 + (4 * workers - 1).bit_length(), max_ell - 12))
    else:
        k = max_ell + 1
    count, best = _sweep_subtree(name, u, order, k - 1, 1, 0)
    if best is None and k <= max_ell:
        # Imported here: the pool drags in logging, which serial runs never need.
        import concurrent.futures

        roots = iter(range(2 ** (k - 1)))
        queued = collections.deque()
        limit = max_ell
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                while limit >= k:
                    for pos in itertools.islice(roots, 2 * workers - len(queued)):
                        queued.append(pool.submit(_sweep_subtree, name, u, order, limit, k, pos))
                    if not queued:
                        break
                    n, found = queued.popleft().result()
                    count += n
                    if found is not None and (best is None or found[0] < best[0]):
                        best, limit = found, (found[0] + 1).bit_length() - 1
            finally:  # a failed root at depth k leaves only later subtrees queued
                for future in queued:
                    future.cancel()
    index, violation = best or (count - 1, None)
    if isinstance(violation, str):
        raise DomainError(violation)
    known = {"max_ell": max_ell, "u": str(u), "order": order}
    details = {key: known[key] for key in row.details}
    return PropertyReport(name, violation is None, violation, index + 1, details)


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
