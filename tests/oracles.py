"""Frozen expected values and independent reference recursions shared
across the test suite.

Every list here was either verified by hand against its defining recursion
or produced by an independent derivation (noted next to each constant) and
cross-checked before freezing.  Coefficient lists are ascending.  The
reference recursions at the end compute step by step what the package
computes from cached level matrices.
"""

import itertools
from fractions import Fraction

from cfdeform import analysis, exactnum
from cfdeform.errors import DomainError
from cfdeform.exactnum import RingPoly
from cfdeform.udeform import f_pair

# --- Solution polynomials of the (p,1;1,0) family, f(x) by x -----------------
# Verified by hand against the defining equations for several rows.
SZERO_TABLE = {
    Fraction(1, 3): [1],
    Fraction(1, 4): [1],
    Fraction(3, 4): [1, 1, 1],
    Fraction(4, 5): [1, 1, 1, 1],
    Fraction(5, 6): [1, 1, 1, 1, 1],
    Fraction(17, 31): [1, 4, 5, 3, 3, 1],
    Fraction(17, 2): [1, 2, 2, 2, 2, 2, 2, 2, 2],
    Fraction(19, 34): [1, 4, 6, 5, 2, 1],
    Fraction(29, 13): [1, 3, 6, 7, 7, 4, 1],
}

# --- Solution polynomials of the (p,1;0,1) family ----------------------------
RZERO_TABLE = {
    Fraction(3, 4): [1, 1],
    Fraction(4, 3): [1, 2, 2],
    Fraction(4, 5): [1, 1, 1],
    Fraction(17, 31): [1, 4, 1, 3],
    Fraction(17, 2): [1, 4, 14, 10, 25, 6, 13, 1, 2],
}

# --- Reduced deformed values under (p,1;1,0) ---------------------------------
QUANT_7_5 = ([1, 3, 3], [1, 2, 2])
QUANT_19_31 = ([1, 5, 8, 5], [1, 6, 12, 10, 2])

# Denominator pair of the (p,1;0,1) deformation of 17/2.
RZERO_17_2_DEN = [1, 5, 6, 16, 5, 11, 1, 2]

# --- Series oracles ----------------------------------------------------------
SERIES_7_5 = [1, 1, -1, 0, 2, -4, 4, 0, -8, 16, -16, 0, 32, -64, 64]
SERIES_19_31 = [
    1, -1, 2, -5, 14, -42, 130, -406, 1268, -3952, 12296, -38220,
    118752, -368928, 1146152,
]

# Stabilized golden-ratio series: alternating-sign Catalan numbers (A000108).
GOLDEN_SERIES_20 = [
    1, 1, -1, 2, -5, 14, -42, 132, -429, 1430, -4862, 16796, -58786,
    208012, -742900, 2674440, -9694845, 35357670, -129644790, 477638700,
]

# Stabilized series of the deformed Euler constant, machine-verified: the
# two convergents with prefix sums 41 and 42 agree on all 40 coefficients,
# and the low-order coefficients were re-derived by hand from the defining
# equations (the x = 19/7 and x = 8/3 convergents pin indices 0..6).
E_SERIES_40 = [
    1, 1, 1, -1, 2, -3, 3, 1, -17, 64, -184, 464, -1071, 2295, -4562,
    8275, -13053, 15194, -361, -75816, 336333, -1099352, 3147823,
    -8333854, 20894284, -50233728, 116642463, -262680150, 575040015,
    -1224735783, 2536740858, -5100325908, 9916965059, -18521650474,
    32821315603, -53859372286, 77324640556, -80153006279, -15861644192,
    437690681398,
]

# Stabilized series of the deformed circle constant (prefix sums far above
# the required budget, so every printed coefficient is stable).
PI_SERIES_40 = [
    1, 1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 2, -3, 1, 0, 0, 0, 0, 0, 4, -8, 5,
    -1, 0, 0, 0, -2, 17, -40, 52, -62, 90, -144, 233, -385, 666, -1133,
    1829, -2904, 4656,
]

# Series of the (p,1;0,1) deformation of 17/2.
RZERO_17_2_SERIES = [1, -1, 13, -65, 283, -1233, 5465, -24273, 107594]

# --- q-bracket deformation ---------------------------------------------------
Q_7_5 = ([1, 1, 2, 2, 1], [1, 1, 2, 1])
Q_7_5_SERIES = [1, 0, 0, 1, 0, -2, 1, 3, -3, -4, 7, 4, -14]

# The q-deformation of 19/31 per the alternating tower with a zero leading
# bracket; validated against the shift law [x+1] = q [x] + 1 and the
# numerator/denominator reversal symmetry between [x] and [1/x].
Q_19_31 = ([0, 1, 2, 4, 4, 4, 3, 1], [1, 3, 5, 7, 6, 5, 3, 1])
Q_19_31_SERIES = [0, 1, -1, 2, -4, 7, -11, 17, -29, 52, -89, 146, -242, 412, -704]

# Stabilized golden q-series: alternating-sign generalized Catalan (A004148).
Q_GOLDEN_SERIES_21 = [
    1, 0, 1, -1, 2, -4, 8, -17, 37, -82, 185, -423, 978, -2283, 5373,
    -12735, 30372, -72832, 175502, -424748, 1032004,
]

E_CF_PREFIX_15 = [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1, 1, 10]


# --- Reference recursions ------------------------------------------------------


def enumerate_by_moves(max_ell):
    """Every positive rational of term sum at most max_ell with its term sum,
    breadth-first from 1 under the moves x -> 1+x and x -> x/(1+x)."""
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


def term_tuples(max_sum):
    """Every expansion [n0, n1, ..., nk] with n0 >= 0, later terms >= 1 and
    term sum at most max_sum, except the zero expansion [0]: leading 0s,
    odd and even lengths and trailing 1s included."""
    stack = [(n0,) for n0 in range(max_sum + 1)]
    while stack:
        terms = stack.pop()
        if terms != (0,):
            yield terms
        for n in range(1, max_sum - sum(terms) + 1):
            stack.append(terms + (n,))


def q_moves_oracle(max_ell):
    """The q-deformation's (numerator, denominator) pair of every rational of
    term sum at most max_ell, breadth-first from (1, 1) at 1 by the modular
    relations [x+1]_q = q[x]_q + 1 and [x/(1+x)]_q = q[x]_q / (1 + q[x]_q):
    (N, D) -> (qN + D, D) and (qN, qN + D)."""
    q = RingPoly((0, 1))
    one = RingPoly((1,))
    table = {Fraction(1): (one, one)}
    depth = list(table.items())
    for _ in range(max_ell - 1):
        nxt = []
        for x, (num, den) in depth:
            nxt.append((1 + x, (q * num + den, den)))
            nxt.append((x / (1 + x), (q * num, q * num + den)))
        table.update(nxt)
        depth = nxt
    return table


def matrix_grid():
    """The 324 nondegenerate matrices with entries in {-1, 0, 1, 2, p} that
    contain p, as ``--u`` texts "p,q,r,s" in a fixed order.  An entry is
    (constant, coefficient of p), and q*s - r*p is compared coefficientwise."""

    def linear(entry):
        return (0, 1) if entry == "p" else (int(entry), 0)

    def times(a, b):
        return a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]

    grid = []
    for entries in itertools.product(("-1", "0", "1", "2", "p"), repeat=4):
        p, q, r, s = map(linear, entries)
        if "p" in entries and times(q, s) != times(r, p):
            grid.append(",".join(entries))
    return grid


def forbid_walk_gcd(monkeypatch):
    """Make poly_gcd raise on two operands of degree above 2.  A walk's pair
    is reduced by the factors of its moves' determinant, never by a gcd;
    the s = 0 closed forms still take gcds of small operands."""
    real = exactnum.poly_gcd

    def guarded(a, b):
        if min(a.degree() or 0, b.degree() or 0) > 2:
            raise AssertionError(f"poly_gcd of degrees {a.degree()} and {b.degree()}")
        return real(a, b)

    monkeypatch.setattr(exactnum, "poly_gcd", guarded)


def step_ascent(u, terms):
    """The solution pair by single moves: from (1, 1), step up n - 1 times
    for the last term, then swap and step up n times for each earlier term."""
    p, q, r, s = u.entries()
    fx = finv = RingPoly((1,)) if u.symbolic else 1
    for _ in range(terms[-1] - 1):
        fx, finv = p * fx + q * finv, s * fx + r * finv
    for n in reversed(terms[:-1]):
        fx, finv = finv, fx
        for _ in range(n):
            fx, finv = p * fx + q * finv, s * fx + r * finv
    return fx, finv


def classical_convergents(terms):
    """Deformed (p,1;1,0) convergents by the two-term recursion
    R_k = [n_k]_p R_(k-1) + p^(n_(k-1)) R_(k-2), and likewise S_k."""
    r_prev, r_cur = RingPoly((1,)), RingPoly((1,) * terms[0])
    s_prev, s_cur = RingPoly(), RingPoly((1,))
    out = [(r_cur, s_cur)]
    for k in range(1, len(terms)):
        lift = RingPoly.monomial(terms[k - 1])
        qk = RingPoly((1,) * terms[k])
        r_prev, r_cur = r_cur, qk * r_cur + lift * r_prev
        s_prev, s_cur = s_cur, qk * s_cur + lift * s_prev
        out.append((r_cur, s_cur))
    return out


def bfs_sweep(name, u, max_ell, order=20):
    """A sweep's report the slow way: the row's check on each input of
    bfs_oracle in breadth-first order, up to the first violation or row
    error.  A row that reads f_pair at x, 1 + x, x/(1 + x) and 2 + x gets
    the four calls; a row that reads a pair gets the oracle's."""
    row = analysis.PROPERTIES[name]
    tested, violation = 0, None
    for x, pair in analysis.bfs_oracle(u, max_ell).items():
        tested += 1
        fed = {"pair": pair, "none": None}.get(row.feed)
        if row.feed == "neighbours":
            fed = tuple(f_pair(u, y) for y in (x, 1 + x, x / (1 + x), 2 + x))
        try:
            violation = row.check(u, x, fed, order)
        except (DomainError, ZeroDivisionError) as exc:
            raise DomainError(f"{name} at x = {x}: {exc}") from None
        if violation is not None:
            break
    report = {"property": name, "holds": violation is None,
              "counterexample": violation, "tested": tested}
    known = {"max_ell": max_ell, "u": str(u), "order": order}
    if row.details:
        report["details"] = {key: known[key] for key in row.details}
    return report
