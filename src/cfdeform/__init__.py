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

from .exactnum import *
from .contfrac import *
from .udeform import *
from .qdeform import *
from .analysis import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exactnum.__all__,
    *contfrac.__all__,
    *udeform.__all__,
    *qdeform.__all__,
    *analysis.__all__,
]
