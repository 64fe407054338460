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

When gcd(m) = 1 the value semigroup S = <m1, m2, m3> is attached.  Each mi
is at least 3, so the multiplicity of S is n = min(m).  The matrix already
gives S (Herzog, Manuscripta Math. 3, 1970; Rosales & García-Sánchez,
Numerical Semigroups, the chapter on embedding dimension three): take the
variable of least weight n.  Modulo it the minors leave a monomial ideal,
and the monomials outside it are an L-shape:

    mod x: y^i z^j, i < c2, j < c3, not (i >= b2 and j >= a3);
    mod y: x^i z^j, i < c1, j < c3, not (i >= a1 and j >= b3);
    mod z: x^i y^j, i < c1, j < c2, not (i >= b1 and j >= a2).

Their weights are the Apéry set Ap(S, n), with no normalization needed.
Proof, for x (the other two are the same with the roles moved): let P be
the kernel of k[x, y, z] -> k[t], x, y, z -> t^m1, t^m2, t^m3.  The minors
are weight-homogeneous, so the ideal I they span lies in P, and (x, I) =
(x, y^c2, z^c3, y^b2 z^a3) lies in (x, P).  The L-shape has c2*c3 - a2*b3
= m1 monomials, so (x, I) has colength m1.  k[x, y, z]/(x, P) is
k[S]/t^m1 k[S], whose basis is t^w for w in Ap(S, m1), so (x, P) has
colength m1 too, and the two ideals are equal.  So the L-shape's
monomials, a basis of k[x, y, z]/(x, P), map to a basis of k[S]/t^m1 k[S]:
to m1 distinct t^w with w in Ap(S, m1), and their weights are all of it.
The same holds for each variable; the least weight gives the Apéry set
that a NumericalSemigroup keeps.

The largest weight sits on one of the L-shape's two outer corners.  With
p, q the weights of the other two variables, c_p, c_q their full exponents
and (s_p, s_q) the inner corner, the Frobenius number is

    F = max((s_p - 1)*p + (c_q - 1)*q, (c_p - 1)*p + (s_q - 1)*q) - n,

so ``build`` checks a cap on F before it builds any table.  The table A
then passes an exact O(n) guard: every class mod n is hit once, class 0 by
0, the largest entry is F + n, and A[r] + g >= A[(r + g) mod n] for g = p
and g = q.  The entries are weights of monomials, so members of S; the
guard makes A + nN a set that holds 0 and is closed under n, p and q, so
it is S and A is its Apéry set.

``theorem_verdict`` runs no criterion: by the odd-count lemma of
``hnlab.oversemigroups`` an uncovered value semigroup is one of the triples
the census flags, which the criterion decides once per process, so the
hypothesis is a membership test (about 1.1 µs a verdict, against 2.1 µs
with the criterion on each semigroup, 2-vCPU Xeon guest, Python 3.11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from operator import mul

from .cases import _cases
from .errors import (
    BadMultiplicity,
    DomainError,
    FrobeniusCapExceeded,
    InvalidGenerator,
    InvariantViolation,
)
from .oversemigroups import _census_flagged, _is_dimension_3
from .semigroup import NumericalSemigroup

Triple = tuple[int, int, int]


def _as_tuple(t: object) -> object:
    """``tuple(t)``, or t itself if it is not iterable (and so no triple)."""
    try:
        return tuple(t)  # type: ignore[call-overload]
    except TypeError:
        return t


def _is_int_triple(t: object) -> bool:
    """Whether t is a tuple of three ints, none a bool (as ``from_generators``
    refuses them); three exact ints pass on one type test."""
    return type(t) is tuple and len(t) == 3 and (
        type(t[0]) is type(t[1]) is type(t[2]) is int
        or all(isinstance(v, int) and not isinstance(v, bool) for v in t)
    )


@dataclass(frozen=True)
class ExponentPair:
    """The defining data (a, b); ``c`` is the componentwise sum."""

    a: Triple
    b: Triple

    def __post_init__(self) -> None:
        if type(self.a) is not tuple or type(self.b) is not tuple:  # exact tuples stay
            object.__setattr__(self, "a", _as_tuple(self.a))
            object.__setattr__(self, "b", _as_tuple(self.b))
        for t in (self.a, self.b):
            if not _is_int_triple(t) or min(t) < 1:
                raise InvalidGenerator(f"exponent triple {t!r} must have 3 positive entries")

    @property
    def c(self) -> Triple:
        (a1, a2, a3), (b1, b2, b3) = self.a, self.b
        return (a1 + b1, a2 + b2, a3 + b3)


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


def _l_shape(p: int, q: int, cp: int, cq: int, sp: int, sq: int) -> list[int]:
    """The weights i*p + j*q of the monomials i < cp, j < cq, not (i >= sp
    and j >= sq), one row of i per j."""
    weights: list[int] = []
    for j in range(cq):
        weights += range(j * q, j * q + (cp if j < sq else sp) * p, p)
    return weights


def _value_semigroup(
    n: int, p: int, q: int, cp: int, cq: int, sp: int, sq: int, max_frobenius: int | None
) -> NumericalSemigroup:
    """<n, p, q> for gcd 1, from the L-shape of the variable of least weight n
    (module docstring): p, q are the other two weights, cp, cq their full
    exponents and (sp, sq) the inner corner.  The cap checks come first, in
    the order and words of ``from_generators``: each generator in sorted
    order, then F from the corner formula, before any table is built.  The
    table then passes the exact O(n) guard, or InvariantViolation is raised."""
    g2, g3 = (p, q) if p <= q else (q, p)
    frob = max((sp - 1) * p + (cq - 1) * q, (cp - 1) * p + (sq - 1) * q) - n
    if max_frobenius is not None:
        for g in (n, g2, g3):
            if g > max_frobenius:
                raise InvalidGenerator(f"generator {g} exceeds the cap of {max_frobenius}")
        if frob > max_frobenius:
            raise FrobeniusCapExceeded(
                f"Frobenius number {frob} exceeds the cap of {max_frobenius}"
            )
    weights = _l_shape(p, q, cp, cq, sp, sq)
    apery = [-1] * n
    for w in weights:
        apery[w % n] = w
    if len(weights) != n or -1 in apery or apery[0] or max(apery) - n != frob:
        raise InvariantViolation(
            f"the L-shape of <{n},{g2},{g3}> is no Apéry table mod {n} with F = {frob}"
        )
    for w in apery:
        if w + p < apery[(w + p) % n] or w + q < apery[(w + q) % n]:
            raise InvariantViolation(
                f"the L-shape of <{n},{g2},{g3}> is not closed under {p} and {q}"
            )
    if _is_dimension_3(n, g2, g3):
        minimal: tuple[int, ...] = (n, g2, g3)
    else:  # g3 is in <n, g2>, or n divides g2 (and then not g3: the gcd is 1)
        minimal = (n, g2) if g2 % n else (n, g3)
    return NumericalSemigroup(minimal, tuple(apery))


def _generators(e: ExponentPair) -> tuple[tuple[Binomial, Binomial, Binomial], Triple]:
    """The three binomials and the multiplier triple of an exponent pair.
    The determinantal and expanded forms of m are both computed and compared;
    a mismatch would be a bug, not bad input."""
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
    return generators, det


def build(e: ExponentPair, max_frobenius: int | None = None) -> HNIdeal:
    """Assemble the generators and multiplier triple for an exponent pair
    (``_generators``, which cross-checks the two forms of m).  When
    gcd(m) != 1 the value semigroup is absent and the ideal carries
    ``coprime = False``.  ``max_frobenius`` caps the multipliers, then the
    value semigroup's Frobenius number, both before the semigroup is built.
    ``from_generators(sorted(m))`` gives the same semigroup and the same
    errors; it is the tests' oracle.  A cap that is no int is a DomainError.
    """
    if max_frobenius is not None and type(max_frobenius) is not int:  # a bool is refused too
        raise DomainError(f"max_frobenius must be an integer, got {max_frobenius!r}")
    generators, m = _generators(e)
    m1, m2, m3 = m
    if gcd(m1, m2, m3) != 1:
        return HNIdeal(e, generators, m, None)
    (a1, a2, a3), (b1, b2, b3) = e.a, e.b
    c1, c2, c3 = e.c
    # The L-shape modulo the variable of least weight; a tie takes the first.
    if m1 <= m2 and m1 <= m3:
        value = _value_semigroup(m1, m2, m3, c2, c3, b2, a3, max_frobenius)
    elif m2 <= m3:
        value = _value_semigroup(m2, m1, m3, c1, c3, a1, b3, max_frobenius)
    else:
        value = _value_semigroup(m3, m1, m2, c1, c2, b1, a2, max_frobenius)
    return HNIdeal(e, generators, m, value)


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
    return sum(map(mul, weights, exponents))


def vanishing_check(h: HNIdeal) -> bool:
    """True iff every generator is homogeneous under the weight vector m."""
    return all(
        _weighted_degree(h.m, g.plus) == _weighted_degree(h.m, g.minus) for g in h.generators
    )


def solve_exponents(m: Triple, max_frobenius: int | None = None) -> list[ExponentPair]:
    """Invert m -> (a, b): at most one pair, read off the weights in O(m1).

    For every pair with gcd(m) = 1 the L-shape modulo x is Ap(<m>, m1)
    (module docstring).  Its row y^i, i < c2, lies in Ap, and v2 gives
    c2*m2 = a1*m1 + b3*m3: so c2 is the least c >= 1 with c*m2 - m1 in
    <m1, m3>, and b3 the least j >= 0 with j*m3 = c2*m2 mod m1 (its column
    z^j, j < c3, lies in Ap).  D gives c3, b1 and a2 likewise, then b2 =
    c2 - a2 and a3 = c3 - b3; the pair is kept if its multipliers give m
    back.  DomainError: m no int triple (bools refused), not 3 <= m1 < m2 <
    m3 or not coprime, or a cap no int.  InvalidGenerator: m1 above ``max_frobenius``.
    """
    if max_frobenius is not None and type(max_frobenius) is not int:  # a bool is refused too
        raise DomainError(f"max_frobenius must be an integer, got {max_frobenius!r}")
    m = _as_tuple(m)
    if not _is_int_triple(m):
        raise DomainError(f"multiplier triple {m!r} must have 3 integer entries")
    m1, m2, m3 = m
    if not 3 <= m1 < m2 < m3:
        raise DomainError(f"need 3 <= m1 < m2 < m3, got {m}")
    if gcd(m1, m2, m3) != 1:
        raise DomainError(f"multiplier triple {m} must have gcd 1")
    if max_frobenius is not None and m1 > max_frobenius:
        raise InvalidGenerator(f"generator {m1} exceeds the cap of {max_frobenius}")
    # With d = gcd(m1, g), the least k >= 0 with k*g = w mod m1 exists iff d
    # divides w, and is (w/d) * (g/d)^-1 mod m1/d.  Both loops stop by c = m1.
    d2, d3 = gcd(m1, m2), gcd(m1, m3)
    u2, u3 = pow(m2 // d2, -1, m1 // d2), pow(m3 // d3, -1, m1 // d3)
    c2 = c3 = 1
    while c2 * m2 % d3 or (b3 := c2 * m2 // d3 * u3 % (m1 // d3)) * m3 > c2 * m2 - m1:
        c2 += 1
    while c3 * m3 % d2 or (a2 := c3 * m3 // d2 * u2 % (m1 // d2)) * m2 > c3 * m3 - m1:
        c3 += 1
    a, b = ((c2 * m2 - b3 * m3) // m1, a2, c3 - b3), ((c3 * m3 - a2 * m2) // m1, c2 - a2, b3)
    return [ExponentPair(a, b)] if min(a + b) > 0 and _multipliers(a, b) == m else []


def theorem_verdict(h: HNIdeal, e: int) -> TheoremVerdict:
    """Check the classification hypothesis and report the licensed outcome.

    The hypothesis holds when gcd(m) = 1 and the value semigroup is not
    contained in any symmetric semigroup of its own multiplicity.  That
    implies embedding dimension 3: a semigroup <1> or <a, b> is symmetric,
    so it is its own cover.  The test is membership in the census's flagged
    triples (module docstring); a value semigroup of embedding dimension
    above 3, which ``build`` never attaches and the odd-count lemma does not
    cover, raises InvariantViolation.  e = 1 then forces a prime ideal;
    e in {2, 3} leaves prime-or-non-complete-intersection open between the
    possible cases.  An e that is not an int, or is a bool, raises
    BadMultiplicity.
    """
    if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= 3:
        raise BadMultiplicity(f"ambient multiplicity must be in [1, 3], got {e!r}")
    cases = _cases(e)[1]
    s = h.value_semigroup
    if s is not None and len(s.minimal_gens) > 3:
        raise InvariantViolation(f"value semigroup {s} has embedding dimension above 3")
    hypothesis_ok = s is not None and s.minimal_gens in _census_flagged()
    if not hypothesis_ok:
        outcome = TheoremOutcome.HYPOTHESIS_NOT_SATISFIED
    elif e == 1:
        outcome = TheoremOutcome.PRIME
    else:
        outcome = TheoremOutcome.PRIME_OR_NON_CI
    return TheoremVerdict(hypothesis_ok, e, outcome, cases)
