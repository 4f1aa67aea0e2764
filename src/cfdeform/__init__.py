"""Exact arithmetic for four-parameter deformations of continued fractions.

A parameter matrix U = (p q; r s) with nonzero q*s - r*p determines a
unique f with f(1) = 1 solving f(1+x) = p f(x) + q f(1/x) and
f(x/(1+x)) = r f(x) + s f(1/x) on the positive rationals; the deformed
value of x is f(x)/f(1/x).  The package computes these exactly over
integers and one-variable integer polynomials, expands deformed rationals
and irrationals into Taylor series through a stabilization argument,
implements the alternating q-bracket deformation for comparison, and ships
a verification harness for the structural identities and the empirical
coefficient observations.
"""

from .contfrac import (
    CFExpansion,
    StreamingCF,
    cf_expand,
    cf_value,
    convergents,
    ell,
    j_rewrite,
    parse_cf,
    parse_rational,
)
from .exactnum import (
    RationalFunction,
    RingPoly,
    TruncatedSeries,
    series_of_ratfun,
)
from .udeform import (
    U_CON,
    U_NUM,
    U_RZERO_POLY,
    U_SZERO_POLY,
    DescendingCF,
    FPair,
    SZeroParams,
    UParams,
    codenominator,
    f_pair,
    fibonacci_poly_extend,
    golden_closed_form,
    golden_iterate,
    j_quotient,
    quantize,
    rzero_descending_cf,
    shift_by_integer,
    szero_cf_form,
)
from .qdeform import q_deform, q_deform_series, q_int, q_pair
from .analysis import (
    CATALAN,
    FIBONACCI,
    GENERALIZED_CATALAN,
    PropertyReport,
    ReferenceSequence,
    bfs_oracle,
    check_anti_unimodality,
    check_sign_alternation,
    check_unimodality,
    convergent_determinant,
    convergent_polys,
    enumerate_rationals,
    e_series_parity_report,
    irrational_series,
    match_reference,
    observation_report,
    run_property_sweep,
    stabilization_depth,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CFExpansion",
    "StreamingCF",
    "cf_expand",
    "cf_value",
    "convergents",
    "ell",
    "j_rewrite",
    "parse_cf",
    "parse_rational",
    "RationalFunction",
    "RingPoly",
    "TruncatedSeries",
    "series_of_ratfun",
    "U_CON",
    "U_NUM",
    "U_RZERO_POLY",
    "U_SZERO_POLY",
    "DescendingCF",
    "FPair",
    "SZeroParams",
    "UParams",
    "codenominator",
    "f_pair",
    "fibonacci_poly_extend",
    "golden_closed_form",
    "golden_iterate",
    "j_quotient",
    "quantize",
    "rzero_descending_cf",
    "shift_by_integer",
    "szero_cf_form",
    "q_deform",
    "q_deform_series",
    "q_int",
    "q_pair",
    "CATALAN",
    "FIBONACCI",
    "GENERALIZED_CATALAN",
    "PropertyReport",
    "ReferenceSequence",
    "bfs_oracle",
    "check_anti_unimodality",
    "check_sign_alternation",
    "check_unimodality",
    "convergent_determinant",
    "convergent_polys",
    "enumerate_rationals",
    "e_series_parity_report",
    "irrational_series",
    "match_reference",
    "observation_report",
    "run_property_sweep",
    "stabilization_depth",
]
