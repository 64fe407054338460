"""Herzog-Northcott ideal data built from a pair of exponent triples.

From a = (a1,a2,a3) and b = (b1,b2,b3), all entries positive, with
c = a + b, the three binomial generators over the ordered variables
(x, y, z) are the signed 2x2 minors of the matrix

    [ x^a1  y^a2  z^a3 ]
    [ y^b2  z^b3  x^b1 ],

namely v1 = x^c1 - y^b2 z^a3, v2 = y^c2 - x^a1 z^b3, D = z^c3 - x^b1 y^a2.
The multiplier triple m = (m1, m2, m3) makes all three generators
weight-homogeneous; it has both a determinantal and an expanded form, kept
as a cross-checked invariant:

    m1 = c2*c3 - a2*b3 = a2*a3 + a3*b2 + b2*b3
    m2 = c1*c3 - a3*b1 = a1*a3 + a1*b3 + b1*b3
    m3 = c1*c2 - a1*b2 = a1*a2 + a2*b1 + b1*b2

When gcd(m) = 1 the value semigroup <m1, m2, m3> is attached.  Each mi is
at least 3, so the multiplicity of the value semigroup is min(m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .cases import enumerate_cases
from .errors import (
    BadMultiplicity,
    DomainError,
    InvalidGenerator,
    InvariantViolation,
    NotImplementedRange,
)
from .oversemigroups import has_symmetric_cover
from .semigroup import NumericalSemigroup, from_generators

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class ExponentPair:
    """The defining data (a, b); ``c`` is the componentwise sum."""

    a: Triple
    b: Triple

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        for t in (self.a, self.b):
            # bools are refused as in from_generators; False already fails v < 1
            if len(t) != 3 or any(not isinstance(v, int) or v < 1 or v is True for v in t):
                raise InvalidGenerator(f"exponent triple {t!r} must have 3 positive entries")

    @property
    def c(self) -> Triple:
        return tuple(x + y for x, y in zip(self.a, self.b))  # type: ignore[return-value]


@dataclass(frozen=True)
class Binomial:
    """Difference of two monomials over an ordered variable list, kept as the
    two exponent vectors.  Weight checks never look at signs."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.plus) != len(self.minus):
            raise InvalidGenerator("exponent vectors must have equal length")
        if self.plus == self.minus:
            raise InvalidGenerator("the two monomials of a binomial must differ")
        if min(self.plus + self.minus) < 0:
            raise InvalidGenerator("exponents must be nonnegative")

    def render(self, variables: tuple[str, ...]) -> str:
        return f"{_monomial(self.plus, variables)} - {_monomial(self.minus, variables)}"


def _monomial(exponents: tuple[int, ...], variables: tuple[str, ...]) -> str:
    parts = []
    for e, v in zip(exponents, variables):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class HNIdeal:
    """The three generators, the multiplier triple, and (when gcd(m) = 1)
    the value semigroup <m1, m2, m3>."""

    exponents: ExponentPair
    generators: tuple[Binomial, Binomial, Binomial]
    m: Triple
    value_semigroup: NumericalSemigroup | None

    @property
    def coprime(self) -> bool:
        return self.value_semigroup is not None


class TheoremOutcome(enum.Enum):
    PRIME = "Prime"
    PRIME_OR_NON_CI = "PrimeOrNonCI"
    HYPOTHESIS_NOT_SATISFIED = "HypothesisNotSatisfied"


@dataclass(frozen=True)
class TheoremVerdict:
    """What the classification licenses for a given ambient multiplicity e.

    This reports the combinatorial hypothesis side only: when the hypothesis
    holds and e = 1 the ideal is prime; for e in {2, 3} the ideal is either
    prime or has a minimal prime that is not a complete intersection.  No
    primality is certified here.
    """

    hypothesis_ok: bool
    multiplicity_e: int
    outcome: TheoremOutcome
    possible_cases: tuple[str, ...]


def _multipliers(a: Triple, b: Triple) -> Triple:
    (a1, a2, a3), (b1, b2, b3) = a, b
    return (
        a2 * a3 + a3 * b2 + b2 * b3,
        a1 * a3 + a1 * b3 + b1 * b3,
        a1 * a2 + a2 * b1 + b1 * b2,
    )


def build(e: ExponentPair, max_frobenius: int | None = None) -> HNIdeal:
    """Assemble the generators and multiplier triple for an exponent pair.

    The determinantal and expanded forms of m are both computed and compared;
    a mismatch would be a bug, not bad input.  When gcd(m) != 1 the value
    semigroup is absent and the ideal carries ``coprime = False``.
    ``max_frobenius`` caps the multipliers, then the value semigroup's Frobenius number.
    """
    (a1, a2, a3), (b1, b2, b3) = e.a, e.b
    c1, c2, c3 = e.c
    generators = (
        Binomial((c1, 0, 0), (0, b2, a3)),
        Binomial((0, c2, 0), (a1, 0, b3)),
        Binomial((0, 0, c3), (b1, a2, 0)),
    )
    det = (c2 * c3 - a2 * b3, c1 * c3 - a3 * b1, c1 * c2 - a1 * b2)
    expanded = _multipliers(e.a, e.b)
    if det != expanded:
        raise InvariantViolation(
            f"determinantal multipliers {det} disagree with expanded form {expanded}"
        )
    value = from_generators(sorted(det), max_frobenius) if gcd(*det) == 1 else None
    return HNIdeal(e, generators, det, value)


def normalize(e: ExponentPair) -> ExponentPair:
    """Rewrite the exponent pair so the multiplier triple is weakly increasing.

    Swapping a -> (b2,b1,b3), b -> (a2,a1,a3) transposes (m1, m2); swapping
    a -> (b1,b3,b2), b -> (a1,a3,a2) transposes (m2, m3).  Applying them as
    needed is a bubble sort on three values, so at most three rewrites.
    """
    a, b = e.a, e.b
    while True:
        m1, m2, m3 = _multipliers(a, b)
        if m1 > m2:
            a, b = (b[1], b[0], b[2]), (a[1], a[0], a[2])
        elif m2 > m3:
            a, b = (b[0], b[2], b[1]), (a[0], a[2], a[1])
        else:
            return ExponentPair(a, b)


def _weighted_degree(weights: tuple[int, ...], exponents: tuple[int, ...]) -> int:
    """Degree of the monomial with these exponents when variable i weighs
    weights[i]."""
    return sum(w * e for w, e in zip(weights, exponents))


def vanishing_check(h: HNIdeal) -> bool:
    """True iff every generator is homogeneous under the weight vector m."""
    return all(
        _weighted_degree(h.m, g.plus) == _weighted_degree(h.m, g.minus) for g in h.generators
    )


def solve_exponents(m: Triple) -> list[ExponentPair]:
    """Invert m -> (a, b) for multiplier triples with m1 in {3, 4}.

    m1 = 3 forces a2 = a3 = b2 = b3 = 1 and a linear system with solution
    a1 = (2*m2 - m3)/3, b1 = (2*m3 - m2)/3.  m1 = 4 forces a2 = 2, the
    rest 1, and a1 = (3*m2 - m3)/4, b1 = (m3 - m2)/2 (b3 = 2 instead would
    need a1 = (m2 - m3)/2 > 0).  The candidate is kept only if its
    multipliers reproduce m exactly.  Other m1 values raise NotImplementedRange.
    """
    m1, m2, m3 = m
    if not 3 <= m1 < m2 < m3:
        raise DomainError(f"need 3 <= m1 < m2 < m3, got {m}")
    if gcd(m1, m2, m3) != 1:
        raise DomainError(f"multiplier triple {m} must have gcd 1")
    if m1 not in (3, 4):
        raise NotImplementedRange(f"exponent solver handles m1 in {{3, 4}}, got m1={m1}")

    if m1 == 3:
        (a1n, a1d), (b1n, b1d), a2 = (2 * m2 - m3, 3), (2 * m3 - m2, 3), 1
    else:
        (a1n, a1d), (b1n, b1d), a2 = (3 * m2 - m3, 4), (m3 - m2, 2), 2
    if a1n <= 0 or a1n % a1d or b1n <= 0 or b1n % b1d:
        return []
    a, b = (a1n // a1d, a2, 1), (b1n // b1d, 1, 1)
    return [ExponentPair(a, b)] if _multipliers(a, b) == m else []


def theorem_verdict(h: HNIdeal, e: int) -> TheoremVerdict:
    """Check the classification hypothesis and report the licensed outcome.

    The hypothesis holds when gcd(m) = 1 and the value semigroup is not
    contained in any symmetric semigroup of its own multiplicity.  That
    implies embedding dimension 3: a semigroup <1> or <a, b> is symmetric,
    so it is its own cover.  e = 1 then forces a prime ideal; e in {2, 3}
    leaves prime-or-non-complete-intersection open between the possible
    cases.
    """
    if not 1 <= e <= 3:
        raise BadMultiplicity(f"ambient multiplicity must be in [1, 3], got {e}")
    cases = tuple(rec.label for rec in enumerate_cases(e))
    s = h.value_semigroup
    hypothesis_ok = s is not None and not has_symmetric_cover(s)
    if not hypothesis_ok:
        outcome = TheoremOutcome.HYPOTHESIS_NOT_SATISFIED
    elif e == 1:
        outcome = TheoremOutcome.PRIME
    else:
        outcome = TheoremOutcome.PRIME_OR_NON_CI
    return TheoremVerdict(hypothesis_ok, e, outcome, cases)
