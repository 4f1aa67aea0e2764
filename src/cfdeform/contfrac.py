"""Simple continued fractions over the positive rationals.

Canonical expansions, exact reconstruction, the term-sum weight ``ell``,
streaming term sources for the builtin irrational constants, and the
involution x -> con(x)/con(1/x) as one rule on x's word of moves back to 1.

Text syntax (used by the CLI): a continued fraction is ``[2,1,2,1,1,4]``, a
rational is ``p/q`` or a bare integer literal.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, TermsExhaustedError

__all__ = [
    "CFExpansion",
    "StreamingCF",
    "PI_CF_TERMS",
    "cf_expand",
    "cf_value",
    "ell",
    "convergents",
    "j_rewrite",
    "parse_rational",
    "parse_cf",
    "format_cf",
]

# Terms of the circle constant's simple continued fraction, stored verbatim.
# The streaming source hard-errors past them; computing further terms is out
# of scope and the series machinery needs far fewer (term sum 439).
PI_CF_TERMS: tuple[int, ...] = (
    3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1, 84,
)


@dataclass(frozen=True)
class CFExpansion:
    """A finite simple continued fraction [n0, n1, ..., nk].

    n0 >= 0 (n0 = 0 exactly when the value is below one), all later terms
    >= 1.  The canonical form produced by cf_expand additionally ends with a
    term >= 2, except for the expansion [1] of the value one.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        t = self.terms
        if not t:
            raise DomainError("empty continued fraction")
        if t[0] < 0 or any(n < 1 for n in t[1:]):
            raise DomainError(f"invalid continued fraction terms {list(t)}")
        if t == (0,):
            raise DomainError("continued fraction of zero is outside the domain")

    @property
    def is_canonical(self) -> bool:
        return len(self.terms) == 1 or self.terms[-1] >= 2

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def value(self) -> Fraction:
        return cf_value(self)

    def __str__(self):
        return format_cf(self.terms)


def _as_positive_rational(x) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        raise DomainError("domain is the positive rationals")
    return x


def cf_expand(x) -> CFExpansion:
    """Canonical simple continued fraction of a positive rational."""
    x = _as_positive_rational(x)
    num, den = x.numerator, x.denominator
    terms = []
    while den:
        q, r = divmod(num, den)
        terms.append(q)
        num, den = den, r
    return CFExpansion(tuple(terms))


def cf_value(cf: CFExpansion | Sequence[int]) -> Fraction:
    """Exact value of a continued fraction (canonical or not)."""
    terms = cf.terms if isinstance(cf, CFExpansion) else tuple(cf)
    if not isinstance(cf, CFExpansion):
        CFExpansion(terms)  # validate
    num, den = 1, 0
    for t in reversed(terms):
        num, den = t * num + den, num
    return Fraction(num, den)


def ell(x) -> int:
    """Sum of the continued-fraction terms of x (its depth under the two
    generating moves x -> 1+x and x -> x/(1+x) starting from 1)."""
    return sum(cf_expand(x).terms)


class StreamingCF:
    """A source of continued-fraction terms, pulled on demand.

    ``take(m)`` starts a fresh pull each call, so independent prefixes are
    cheap and a single instance never carries hidden position state between
    operations.  Sources: the regular Euler-constant pattern, the embedded
    circle-constant terms (which error when exhausted), periodic expansions
    for quadratic irrationals, and finite literal term lists.
    """

    def __init__(self, name: str, factory: Callable[[], Iterator[int]]):
        self.name = name
        self._factory = factory

    def terms(self) -> Iterator[int]:
        return self._factory()

    def take(self, m: int) -> list[int]:
        out = []
        it = self._factory()
        for _ in range(m):
            try:
                out.append(next(it))
            except StopIteration:
                raise TermsExhaustedError(
                    f"continued fraction terms exhausted: {self.name} has fewer than {m}"
                ) from None
        return out

    @classmethod
    def e_pattern(cls) -> "StreamingCF":
        """2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, ... (the regular pattern)."""

        def gen():
            yield 2
            k = 1
            while True:
                yield 1
                yield 2 * k
                yield 1
                k += 1

        return cls("e", gen)

    @classmethod
    def pi_embedded(cls) -> "StreamingCF":
        """The embedded finite prefix of the circle constant's expansion."""

        def gen():
            yield from PI_CF_TERMS
            raise TermsExhaustedError(
                "continued fraction terms exhausted: only "
                f"{len(PI_CF_TERMS)} terms of pi are embedded"
            )

        return cls("pi", gen)

    @classmethod
    def periodic(cls, preperiod: Sequence[int], period: Sequence[int]) -> "StreamingCF":
        pre = tuple(preperiod)
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty")

        def gen():
            yield from pre
            while True:
                yield from per

        return cls(f"periodic({list(pre)},{list(per)})", gen)

    @classmethod
    def golden(cls) -> "StreamingCF":
        return cls.periodic((), (1,))

    @classmethod
    def literal(cls, terms: Sequence[int]) -> "StreamingCF":
        ts = tuple(terms)

        def gen():
            yield from ts

        return cls(f"literal({list(ts)})", gen)


def convergents(src: StreamingCF | Sequence[int], count: int) -> list[Fraction]:
    """Values of the first ``count`` prefixes of a term source."""
    if isinstance(src, StreamingCF):
        terms = src.take(count)
    else:
        terms = list(src)[:count]
        if len(terms) < count:
            raise TermsExhaustedError(
                f"continued fraction terms exhausted: need {count}, have {len(terms)}"
            )
    out = []
    num, den = 1, 0          # value accumulators, standard two-term recurrence
    pnum, pden = 0, 1
    for t in terms:
        num, den, pnum, pden = t * num + pnum, t * den + pden, num, den
        out.append(Fraction(num, den))
    return out


def j_rewrite(cf: CFExpansion | Sequence[int]) -> CFExpansion:
    """Rewrite a canonical continued fraction into the one for con(x)/con(1/x).

    x is read as its word of moves back to 1: term i of [n0, ..., nk] is a
    run of n_i copies of the letter i mod 2 (letter 0 is x -> x-1, letter 1
    is x -> x/(1-x)), and the last run is one letter short.  The image keeps
    the first letter and changes letter exactly where x's word does not.  Its
    runs are its terms, after a leading 0 when it starts with letter 1, and
    its last run is one letter longer.  Non-canonical input is refused.
    """
    exp = cf if isinstance(cf, CFExpansion) else CFExpansion(tuple(cf))
    if not exp.is_canonical:
        raise DomainError(f"non-canonical continued fraction {list(exp.terms)}")
    word = [i % 2 for i, n in enumerate(exp.terms) for _ in range(n)][:-1]
    if not word:
        return exp  # x = 1
    image = itertools.accumulate(map(operator.eq, word, word[1:]), operator.xor, initial=word[0])
    runs = [len(list(run)) for _, run in itertools.groupby(image)]
    runs[-1] += 1
    return CFExpansion(tuple(([0] if word[0] else []) + runs))


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or an integer literal into a positive rational."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
    if value <= 0:
        raise DomainError("domain is the positive rationals")
    return value


def parse_cf(text: str) -> CFExpansion:
    """Parse '[2,1,2,1,1,4]' into an expansion."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise DomainError(f"cannot parse continued fraction {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        raise DomainError("empty continued fraction")
    try:
        terms = tuple(int(tok.strip()) for tok in inner.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse continued fraction {text!r}") from exc
    return CFExpansion(terms)


def format_cf(terms: Iterable[int]) -> str:
    return "[" + ",".join(str(t) for t in terms) + "]"
