"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so keep the hierarchy flat
and the distinctions meaningful rather than decorative.
"""


class DomainError(ValueError):
    """Input outside the positive rationals (or otherwise out of range)."""


class DegenerateParametersError(ValueError):
    """Parameter matrix with determinant q*s - r*p equal to zero."""


class EvaluationError(ZeroDivisionError):
    """A deformation value is undefined (vanishing denominator).

    ``depth`` carries the nesting level for nested-fraction evaluations,
    ``None`` elsewhere.
    """

    def __init__(self, message: str, depth: int | None = None):
        super().__init__(message)
        self.depth = depth


class TermsExhaustedError(RuntimeError):
    """A continued-fraction term source ran out of terms."""


class StabilizationError(RuntimeError):
    """Consecutive deformed convergents disagree on the requested prefix.

    ``series_a`` and ``series_b`` hold the two conflicting expansions, and
    the message names the first index where they differ.
    """

    def __init__(self, message: str, series_a=None, series_b=None):
        super().__init__(message)
        self.series_a = series_a
        self.series_b = series_b
